"""Contracts every one of the twelve classifier configurations must meet."""

import json

import numpy as np
import pytest

from maiclass.classifiers import (
    ALGORITHMS,
    ClassifierSpec,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_scores,
    save_model,
    train,
)
from maiclass.classifiers.svm import KernelSvm
from maiclass.errors import (
    DegenerateLabels,
    DimensionMismatch,
    IoError,
    NumericalFailure,
    ParseError,
    Unsupported,
)

SCORED = {"mlp_lbfgs", "mlp_adam", "nb_bernoulli", "nb_multinomial",
          "nb_gaussian", "logistic_regression"}


def blob_data(seed=21, per_class=12):
    """Bag-of-words-style counts: each class keeps to its own three of nine
    features, so presence, count, and distance based models all separate it."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((3 * per_class, 9))
    labels = []
    for k, name in enumerate(("alpha", "beta", "gamma")):
        block = slice(k * per_class, (k + 1) * per_class)
        rows[block, 3 * k:3 * k + 3] = rng.integers(1, 5, size=(per_class, 3))
        labels += [name] * per_class
    return rows, labels


def test_twelve_configurations():
    assert len(ALGORITHMS) == 12
    assert len(set(ALGORITHMS)) == 12


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        ClassifierSpec(algorithm="perceptron")


def test_unknown_hyperparameter_rejected():
    rows, labels = blob_data()
    with pytest.raises(ValueError, match="hyperparameter"):
        train(ClassifierSpec(algorithm="knn", hyperparams={"leafs": 3}),
              (rows, labels))


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_train_predict_and_serialise(algo, tmp_path):
    rows, labels = blob_data()
    model = train(ClassifierSpec(algorithm=algo), (rows, labels), seed=3)
    assert model.classes == ("alpha", "beta", "gamma")
    got = predict(model, rows)
    assert set(got) <= set(model.classes)
    # Well-separated blobs: every configuration should fit them exactly.
    assert got == list(labels)

    path = tmp_path / f"{algo}.json"
    save_model(model, path)
    clone = load_model(path)
    assert clone.spec.algorithm == algo
    assert clone.classes == model.classes
    assert predict(clone, rows) == got


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_deterministic_given_seed(algo):
    rows, labels = blob_data()
    queries = np.abs(np.random.default_rng(5).normal(1.5, 2.0, size=(30, 9)))
    a = train(ClassifierSpec(algorithm=algo), (rows, labels), seed=11)
    b = train(ClassifierSpec(algorithm=algo), (rows, labels), seed=11)
    assert predict(a, queries) == predict(b, queries)
    if algo in SCORED:
        assert np.array_equal(predict_scores(a, queries),
                              predict_scores(b, queries))


@pytest.mark.parametrize("algo", sorted(SCORED))
def test_scores_are_distributions(algo):
    rows, labels = blob_data()
    model = train(ClassifierSpec(algorithm=algo), (rows, labels), seed=0)
    scores = predict_scores(model, rows)
    assert scores.shape == (len(labels), 3)
    assert np.all(scores >= 0.0)
    assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("algo", sorted(set(ALGORITHMS) - SCORED))
def test_unscored_families_raise(algo):
    rows, labels = blob_data()
    model = train(ClassifierSpec(algorithm=algo), (rows, labels), seed=0)
    with pytest.raises(Unsupported):
        predict_scores(model, rows)


def test_single_label_degenerate():
    rows = np.zeros((4, 2))
    with pytest.raises(DegenerateLabels):
        train(ClassifierSpec(algorithm="nb_gaussian"),
              (rows, ["same"] * 4))


def test_wrong_width_rejected():
    rows, labels = blob_data()
    model = train(ClassifierSpec(algorithm="knn"), (rows, labels))
    with pytest.raises(DimensionMismatch):
        predict(model, np.zeros((2, 5)))
    with pytest.raises(DimensionMismatch):
        predict(model, np.zeros(3))


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_non_finite_rows_are_numerical_failure(algo):
    rows, labels = blob_data()
    spec = ClassifierSpec(algorithm=algo)
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = rows.copy()
        poisoned[4, 2] = bad
        with pytest.raises(NumericalFailure):
            train(spec, (poisoned, labels))
    model = train(spec, (rows, labels))
    query = np.zeros((2, rows.shape[1]))
    query[1, :2] = [np.nan, np.inf]
    with pytest.raises(NumericalFailure):
        predict(model, query)
    if algo in SCORED:
        with pytest.raises(NumericalFailure):
            predict_scores(model, query)


def test_model_dict_round_trip_exact():
    rows, labels = blob_data()
    model = train(ClassifierSpec(algorithm="logistic_regression"),
                  (rows, labels))
    state = json.loads(json.dumps(model_to_dict(model)))
    clone = model_from_dict(state)
    assert np.array_equal(predict_scores(model, rows),
                          predict_scores(clone, rows))


def test_load_model_errors(tmp_path):
    with pytest.raises(IoError):
        load_model(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_model(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "other/9"}), encoding="utf-8")
    with pytest.raises(ParseError):
        load_model(wrong)
    wrong.write_text("[]", encoding="utf-8")
    with pytest.raises(ParseError):
        load_model(wrong)


def test_deeply_nested_model_file_is_parse_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"format": ' + "[" * 100_000 + "]" * 100_000 + "}",
                    encoding="utf-8")
    with pytest.raises(ParseError, match="nested too deeply"):
        load_model(deep)


def test_hyperparameter_overrides_reach_estimator():
    rows, labels = blob_data()
    model = train(ClassifierSpec(algorithm="knn", hyperparams={"k": 1}),
                  (rows, labels))
    assert model.estimator.k == 1
    svm = train(ClassifierSpec(algorithm="svm_rbf",
                               hyperparams={"gamma": 2.5, "c": 0.7}),
                (rows, labels))
    assert svm.estimator.params.gamma == 2.5
    assert svm.estimator.c == 0.7


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_saved_model_reloads_and_resaves_identically(algo, tmp_path):
    rows, labels = blob_data()
    queries = np.abs(np.random.default_rng(5).normal(1.5, 2.0, size=(30, 9)))
    model = train(ClassifierSpec(algorithm=algo), (rows, labels), seed=3)
    first = tmp_path / "first.json"
    save_model(model, first)
    clone = load_model(first)
    assert predict(clone, queries) == predict(model, queries)
    if algo in SCORED:
        assert np.array_equal(predict_scores(clone, queries),
                              predict_scores(model, queries))
    second = tmp_path / "second.json"
    save_model(clone, second)
    assert second.read_bytes() == first.read_bytes()


def _set_cell(*keys_and_value):
    """An edit that sets one nested cell of a saved model's JSON state."""
    *keys, last, value = keys_and_value

    def edit(state):
        for key in keys:
            state = state[key]
        state[last] = value
    return edit


def _set_last_leaf_class(value):
    """Edit the rightmost leaf, which an all-zero row never reaches."""
    def edit(state):
        tree = state["estimator"]
        assert tree["feature"][-1] == -1
        tree["leaf_class"][-1] = value
    return edit


@pytest.mark.parametrize("algo, edit", [
    ("nb_bernoulli", _set_cell("algorithm", "svm_quantum")),
    ("nb_bernoulli", _set_cell("estimator", "alpha", -1)),
    ("nb_bernoulli", _set_cell("estimator", "log_prior", 0, "x")),
    # State that parses but does not fit the header's width.
    ("nb_multinomial", _set_cell("estimator", "log_theta", [[0.0]])),
    ("knn", _set_cell("estimator", "train_x", [[1.0, 2.0]])),
    # A child pointing back to the root would make predict loop forever.
    ("decision_tree", _set_cell("estimator", "left", 0, 0)),
    ("decision_tree", _set_last_leaf_class(3)),
    # State whose class count disagrees with the header's class list.
    ("svm_rbf", _set_cell("classes", ["alpha", "beta"])),
    ("nb_bernoulli", _set_cell("classes", ["alpha", "beta"])),
    ("svm_rbf", _set_cell("estimator", "machines", 0, "class_a", None)),
    ("nb_gaussian", _set_cell("estimator", "variances", 0, 0, -1.0)),
    # A label the all-zero probe row's neighbours do not include.
    ("knn", _set_cell("estimator", "train_y", -1, 7)),
    # One label more than training rows: predict would never read it.
    ("knn", lambda state: state["estimator"]["train_y"].append(0)),
], ids=["unknown-algorithm", "bad-alpha", "bad-cell", "narrow-log-theta",
        "narrow-train-x", "tree-child-loop", "tree-leaf-class",
        "svm-short-classes", "nb-short-classes", "svm-null-class",
        "negative-variance", "knn-label-out-of-range", "knn-extra-label"])
def test_corrupt_model_file_is_parse_error(algo, edit, tmp_path):
    rows, labels = blob_data()
    path = tmp_path / "model.json"
    save_model(train(ClassifierSpec(algorithm=algo), (rows, labels)), path)
    state = json.loads(path.read_text(encoding="utf-8"))
    edit(state)
    path.write_text(json.dumps(state), encoding="utf-8")
    with pytest.raises(ParseError):
        load_model(path)


def test_hand_written_svm_file_loads(tmp_path):
    # The layout save_model writes: the resolved gamma plus one machine per
    # class pair, whose decision is k(x, (0, 0)) - k(x, (2, 2)).
    state = {
        "format": "maiclass-model/1",
        "algorithm": "svm_rbf",
        "hyperparams": {},
        "classes": ["A", "B"],
        "n_features": 2,
        "estimator": {
            "kernel": "rbf", "c": 1.0, "tolerance": 0.001, "gamma": 0.5,
            "degree": 3, "coef0": 0.0, "max_iterations": 200000,
            "n_classes": 2, "converged": True,
            "machines": [{"class_a": 0, "class_b": 1,
                          "sv_x": [[0.0, 0.0], [2.0, 2.0]],
                          "dual_coef": [1.0, -1.0], "bias": 0.0,
                          "converged": True}],
        },
    }
    path = tmp_path / "svm.json"
    path.write_text(json.dumps(state), encoding="utf-8")
    model = load_model(path)
    assert model.estimator.params.gamma == 0.5
    assert predict(model, [[0.1, 0.1], [1.9, 2.0]]) == ["A", "B"]


def test_svm_refit_resolves_gamma_from_new_width():
    rng = np.random.default_rng(4)
    y = np.repeat([0, 1], 5)
    est = KernelSvm(kernel="rbf")
    est.fit(rng.normal(size=(10, 3)), y, 2)
    assert est.params.gamma == 1.0 / 3.0
    est.fit(rng.normal(size=(10, 5)), y, 2)
    assert est.params.gamma == 0.2
