"""Contracts every one of the twelve classifier configurations must meet."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import maiclass
import maiclass.classifiers
from maiclass.classifiers import (
    ALGORITHMS,
    ClassifierSpec,
    predict,
    train,
)
from maiclass.classifiers.svm import KernelSvm
from maiclass.errors import (
    DegenerateLabels,
    DimensionMismatch,
    NumericalFailure,
)


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


@pytest.mark.parametrize("module", [maiclass, maiclass.classifiers],
                         ids=["maiclass", "classifiers"])
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        getattr(module, name)


def test_twelve_configurations():
    assert len(ALGORITHMS) == 12
    assert len(set(ALGORITHMS)) == 12


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        ClassifierSpec(algorithm="perceptron")


# The name dates from when this test also round-tripped a saved model;
# it is kept so the test's id stays the same across the suite's history.
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_train_predict_and_serialise(algo):
    rows, labels = blob_data()
    model = train(ClassifierSpec(algorithm=algo), (rows, labels), seed=3)
    assert model.classes == ("alpha", "beta", "gamma")
    got = predict(model, rows)
    assert set(got) <= set(model.classes)
    # Well-separated blobs: every configuration should fit them exactly.
    assert got == list(labels)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_deterministic_given_seed(algo):
    rows, labels = blob_data()
    queries = np.abs(np.random.default_rng(5).normal(1.5, 2.0, size=(30, 9)))
    a = train(ClassifierSpec(algorithm=algo), (rows, labels), seed=11)
    b = train(ClassifierSpec(algorithm=algo), (rows, labels), seed=11)
    assert predict(a, queries) == predict(b, queries)


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
def test_misshapen_training_rows_rejected(algo):
    spec = ClassifierSpec(algorithm=algo)
    with pytest.raises(DimensionMismatch):
        train(spec, (np.array([0.0, 1.0, 2.0, 3.0]), ["a", "b", "a", "b"]))
    with pytest.raises(DimensionMismatch):
        train(spec, (np.eye(4), ["a", "b", "a"]))
    with pytest.raises(DimensionMismatch):
        train(spec, (np.zeros((4, 0)), ["a", "b", "a", "b"]))


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_no_query_rows_give_no_labels(algo):
    rows, labels = blob_data()
    model = train(ClassifierSpec(algorithm=algo), (rows, labels))
    assert predict(model, np.zeros((0, rows.shape[1]))) == []


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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 35),
       st.integers(0, 8), st.booleans(), st.booleans())
def test_non_finite_entry_anywhere_is_numerical_failure(bad, row, col,
                                                        at_predict, huge):
    # ``huge`` fills the other entries with 1e308, whose sum overflows to
    # inf on its own.
    rows, labels = blob_data()
    if huge:
        rows = np.full_like(rows, 1e308)
    spec = ClassifierSpec(algorithm="nb_gaussian")
    poisoned = rows.copy()
    poisoned[row, col] = bad
    if not at_predict:
        with pytest.raises(NumericalFailure):
            train(spec, (poisoned, labels))
        return
    model = train(spec, blob_data())
    with pytest.raises(NumericalFailure):
        predict(model, poisoned)


def test_rows_whose_sum_overflows_are_finite():
    rows = np.full((4, 3), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert maiclass.classifiers._require_finite(rows) is rows


SEPARABLE_ROWS = np.array([[0.0, 1.0], [0.2, 0.9], [1.0, 0.0], [0.9, 0.1]])
SEPARABLE_LABELS = ["a", "a", "b", "b"]


# Training on SEPARABLE_ROWS * scale and predicting the same rows gives
# these labels, or NF: a NumericalFailure naming the algorithm. The header
# holds each column's power of ten. "aabb" is right; every other label
# string is the model's own behaviour:
# - knn, up to 1e100, "aaaa": k = 5 exceeds the 4 rows, so every vote ties.
# - nb_bernoulli, every scale, "aaba": binarisation makes [0.9, 0.1] look
#   like [0.2, 0.9].
# - svm_sigmoid from 1e4 to 1e100, "abbb": the tanh kernel saturates.
# - nb_multinomial at 1e-50 and below, "aaaa": the smoothing outweighs the
#   counts.
# - mlp_adam at 1e-8 and below and mlp_lbfgs at 1e-8, "bbbb": the L2 term
#   outweighs the tiny data term.
# - logistic_regression at 1e-8 and below, "aaaa": the gradient at zero is
#   already under the tolerance, so the fit stops at x0.
SCALE_TABLE = """\
                     -300 -200 -100  -50   -8    0    4   50  100  160  300
svm_linear             NF   NF aabb aabb aabb aabb aabb aabb aabb   NF   NF
svm_poly               NF   NF   NF aabb aabb aabb aabb aabb   NF   NF   NF
svm_rbf                NF   NF   NF   NF aabb aabb aabb aabb aabb   NF   NF
svm_sigmoid            NF   NF aabb aabb aabb aabb abbb abbb abbb   NF   NF
mlp_lbfgs              NF   NF   NF   NF bbbb aabb aabb aabb aabb   NF   NF
mlp_adam             bbbb bbbb bbbb bbbb bbbb aabb aabb aabb aabb   NF   NF
nb_bernoulli         aaba aaba aaba aaba aaba aaba aaba aaba aaba aaba aaba
nb_multinomial       aaaa aaaa aaaa aaaa aabb aabb aabb aabb aabb aabb aabb
nb_gaussian            NF   NF aabb aabb aabb aabb aabb aabb aabb   NF   NF
logistic_regression  aaaa aaaa aaaa aaaa aaaa aabb aabb   NF   NF   NF   NF
decision_tree        aabb aabb aabb aabb aabb aabb aabb aabb aabb aabb aabb
knn                  aaaa aaaa aaaa aaaa aaaa aaaa aaaa aaaa aaaa   NF   NF
""".splitlines()
SCALES = [float(f"1e{power}") for power in SCALE_TABLE[0].split()]


def _scale_cells():
    rows = {line.split()[0]: line.split()[1:] for line in SCALE_TABLE[1:]}
    for algo in ALGORITHMS:
        for scale, want in zip(SCALES, rows[algo], strict=True):
            yield algo, scale, want


@pytest.mark.parametrize("algo, scale, want", _scale_cells())
def test_row_scale_outcome(algo, scale, want):
    # The suite turns any NumPy RuntimeWarning into an error, so none may
    # escape either way.
    rows = SEPARABLE_ROWS * scale
    try:
        got = "".join(predict(
            train(ClassifierSpec(algo), (rows, SEPARABLE_LABELS)), rows))
    except NumericalFailure as exc:
        assert str(exc).startswith(f"{algo}: ")
        got = "NF"
    assert got == want


@pytest.mark.parametrize("scale", [1e4, 1e7, 1e50, 1e100])
@pytest.mark.parametrize("algo", ["svm_linear", "svm_poly"])
def test_large_rows_keep_their_support_vectors(algo, scale):
    # SMO's alphas scale as 1/K. A zero snap absolute in C once dropped
    # every support vector here, and the fit predicted "b" everywhere.
    rows = SEPARABLE_ROWS * scale
    try:
        got = predict(train(ClassifierSpec(algo), (rows, SEPARABLE_LABELS)),
                      rows)
    except NumericalFailure:
        return
    assert list(got) == SEPARABLE_LABELS


@pytest.mark.parametrize("scale", [1e50, 1e100])
def test_logistic_that_cannot_step_from_zero_is_numerical_failure(scale):
    # The first trial step, 1/|g|, is far above the step the minimiser
    # needs, and the zoom cannot shrink it enough: no one-vs-rest fit moves
    # from zero, which once predicted "a" everywhere.
    with pytest.raises(NumericalFailure,
                       match="^logistic_regression: line search found no"):
        train(ClassifierSpec("logistic_regression"),
              (SEPARABLE_ROWS * scale, SEPARABLE_LABELS))


@pytest.mark.parametrize("algo, scale", [
    ("svm_linear", 1e-300), ("svm_poly", 1e-300), ("svm_rbf", 1e-300),
    ("svm_sigmoid", 1e-300), ("svm_poly", 1e-100), ("svm_rbf", 1e-100)])
def test_constant_kernel_matrix_is_numerical_failure(algo, scale):
    # Inner products, their cubes and the RBF distances underflow to 0, so
    # every Gram entry is equal: 0 for the linear and polynomial kernels,
    # tanh(0) = 0 for the sigmoid and exp(-0) = 1 for the RBF. A fit on it
    # once predicted "b" everywhere without an error.
    with pytest.raises(NumericalFailure, match=f"^{algo}: kernel matrix "
                       "of classes 0 and 1 is constant"):
        train(ClassifierSpec(algo),
              (SEPARABLE_ROWS * scale, SEPARABLE_LABELS))


def test_svm_poly_overflow_names_the_algorithm():
    # The cube of inner products near 1e200 overflows the polynomial
    # kernel; fitted on that inf, the model predicts one class everywhere.
    with pytest.raises(NumericalFailure, match="^svm_poly: overflow"):
        train(ClassifierSpec("svm_poly"),
              (SEPARABLE_ROWS * 1e100, SEPARABLE_LABELS))


def test_svm_refit_resolves_gamma_from_new_width():
    rng = np.random.default_rng(4)
    y = np.repeat([0, 1], 5)
    est = KernelSvm(kernel="rbf")
    est.fit(rng.normal(size=(10, 3)), y, 2)
    assert est.gamma == 1.0 / 3.0
    est.fit(rng.normal(size=(10, 5)), y, 2)
    assert est.gamma == 0.2
