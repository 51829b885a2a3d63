"""Stratified split-half evaluation protocol and F1 scoring."""

import collections
import csv
import dataclasses
import io
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maiclass import evaluate
from maiclass.classifiers import ALGORITHMS, ClassifierSpec, mlp, train
from maiclass.corpus import Corpus, Document
from maiclass.errors import (
    ClassTooSmall,
    LengthMismatch,
    NumericalFailure,
    RunFailure,
)
from maiclass.evaluate import (
    EvalResult,
    f1_scores,
    results_to_csv,
    run_experiment,
    run_grid,
    run_seeds,
    stratified_split,
)
from maiclass.features import VECTOR_MODELS

from conftest import fit_digest, make_synthetic_corpus


def tiny_corpus(sizes):
    docs = []
    for label, count in sizes.items():
        for i in range(count):
            docs.append(Document(id=f"{label}{i}", network="twitter",
                                 language="en", label=label,
                                 raw_text="w", tokens=("w",)))
    return Corpus(name="tiny", documents=tuple(docs), classes=tuple(sizes))


def _labels_per_class(corpus, indices):
    return collections.Counter(corpus.documents[i].label for i in indices)


def test_thirty_per_class_gives_fifteen_fifteen(synthetic_corpus):
    train_part, test_part = stratified_split(synthetic_corpus, seed=0)
    expected = {label: 15 for label in synthetic_corpus.classes}
    assert _labels_per_class(synthetic_corpus, train_part) == expected
    assert _labels_per_class(synthetic_corpus, test_part) == expected
    assert sorted(train_part + test_part) == list(range(90))
    # Class by class in corpus order, ascending within a class.
    classes = synthetic_corpus.classes
    for part in (train_part, test_part):
        assert list(part) == sorted(part, key=lambda i: (
            classes.index(synthetic_corpus.documents[i].label), i))


def test_odd_class_splits_four_three():
    corpus = tiny_corpus({"a": 7, "b": 4})
    train_part, test_part = stratified_split(corpus, seed=1)
    assert _labels_per_class(corpus, train_part) == {"a": 4, "b": 2}
    assert _labels_per_class(corpus, test_part) == {"a": 3, "b": 2}


def test_split_is_seed_deterministic(synthetic_corpus):
    a = stratified_split(synthetic_corpus, seed=3)
    b = stratified_split(synthetic_corpus, seed=3)
    c = stratified_split(synthetic_corpus, seed=4)
    assert a == b
    assert a != c


def test_class_too_small():
    with pytest.raises(ClassTooSmall) as err:
        stratified_split(tiny_corpus({"a": 1, "b": 5}), seed=0)
    assert err.value.label == "a"


def test_f1_perfect_and_half():
    perfect = f1_scores(["a", "b"], ["a", "b"], ["a", "b"])
    assert perfect == {"a": 1.0, "b": 1.0}
    # Class a: TP=1, FP=1, FN=1 -> F1 = 2/(2+1+1) = 0.5.
    mixed = f1_scores(["a", "a", "b"], ["a", "b", "a"], ["a", "b"])
    assert mixed == {"a": 0.5, "b": 0.0}


def test_f1_of_a_class_neither_gold_nor_predicted_is_zero():
    res = f1_scores(["a", "a"], ["a", "a"], ["a", "b"])
    assert res == {"a": 1.0, "b": 0.0}


def test_f1_length_mismatch():
    with pytest.raises(LengthMismatch):
        f1_scores(["a"], ["a", "b"], ["a", "b"])


def reference_f1(gold, predicted, classes):
    """Per-pair confusion counts, then 2 tp / (2 tp + fp + fn), 0/0 as 0."""
    scores = {}
    for label in classes:
        tp = fp = fn = 0
        for g, p in zip(gold, predicted):
            if p == label and g == label:
                tp += 1
            elif p == label:
                fp += 1
            elif g == label:
                fn += 1
        denom = 2 * tp + fp + fn
        scores[label] = 2 * tp / denom if denom else 0.0
    return scores


@given(st.data())
def test_f1_invariant_under_pair_permutation(data):
    n = data.draw(st.integers(2, 20))
    gold = data.draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    pred = data.draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    direct = f1_scores(gold, pred, ["a", "b"])
    shuffled = f1_scores([gold[i] for i in perm], [pred[i] for i in perm],
                         ["a", "b"])
    assert direct == shuffled
    # "c" is in neither list, so its F1 is 0/0.
    assert f1_scores(gold, pred, "abc") == reference_f1(gold, pred, "abc")


@given(st.data())
def test_f1_respects_label_bijection(data):
    n = data.draw(st.integers(2, 20))
    gold = data.draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    pred = data.draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    rename = {"a": "x", "b": "y"}
    direct = f1_scores(gold, pred, ["a", "b"])
    renamed = f1_scores([rename[g] for g in gold], [rename[p] for p in pred],
                        ["x", "y"])
    assert direct["a"] == renamed["x"]
    assert direct["b"] == renamed["y"]


def test_run_seeds_stable_and_distinct():
    pairs = [run_seeds(0, r) for r in range(5)]
    assert pairs == [run_seeds(0, r) for r in range(5)]
    assert len(set(pairs)) == 5
    assert run_seeds(0, 0) != run_seeds(1, 0)


def test_run_experiment_on_separable_corpus(synthetic_corpus):
    res = run_experiment(synthetic_corpus, "bernoulli",
                         ClassifierSpec(algorithm="nb_multinomial"),
                         runs=3, vocab_size=1000, master_seed=0)
    assert isinstance(res, EvalResult)
    assert len(res.runs) == 3
    assert res.classes == synthetic_corpus.classes
    assert res.mean_f1 == {"football": 1.0, "rock": 1.0,
                           "vegetarianism": 1.0}


def test_run_experiment_deterministic(synthetic_corpus):
    spec = ClassifierSpec(algorithm="decision_tree")
    a = run_experiment(synthetic_corpus, "plain_freq", spec, runs=2)
    b = run_experiment(synthetic_corpus, "plain_freq", spec, runs=2)
    assert a == b


def test_run_experiment_rejects_zero_runs(synthetic_corpus):
    with pytest.raises(ValueError):
        run_experiment(synthetic_corpus, "bernoulli",
                       ClassifierSpec(algorithm="knn"), runs=0)


def test_run_grid_rejects_unknown_vector_model(synthetic_corpus):
    with pytest.raises(ValueError, match="tfidf"):
        run_grid(synthetic_corpus, ["bernoulli", "tfidf"],
                 [ClassifierSpec(algorithm="knn")], runs=1)


def test_failures_are_wrapped_with_run_index():
    # Tokenless documents leave nothing to build a vocabulary from, so the
    # first run must fail and carry its index.
    docs = tuple(
        Document(id=f"d{i}", network="twitter", language="en",
                 label="a" if i < 2 else "b", raw_text="", tokens=())
        for i in range(4))
    corpus = Corpus(name="empty", documents=docs, classes=("a", "b"))
    with pytest.raises(RunFailure) as err:
        run_experiment(corpus, "bernoulli",
                       ClassifierSpec(algorithm="knn"), runs=2)
    assert err.value.run == 0
    # The vocabulary is built before any cell, so no cell is named.
    assert err.value.vector_model is None and err.value.algorithm is None
    assert "EmptyCorpus" in str(err.value)


@pytest.mark.parametrize("target,calls_per_run,nth,cell", [
    # Two build_matrix calls per run, both for the first model in
    # DERIVE_ORDER and before any algorithm is trained.
    ("build_matrix", 2, 2, ("plain_freq", None)),
    # Six train calls per run: two algorithms under each of three models.
    ("train", 6, 4, ("norm_freq", "decision_tree")),
])
def test_failure_in_a_later_run_names_its_run_and_cell(
        monkeypatch, target, calls_per_run, nth, cell):
    fn = getattr(evaluate, target)
    calls = []

    def fail_in_run_one(*args, **kwargs):
        calls.append(None)
        if len(calls) == calls_per_run + nth:
            raise NumericalFailure("injected")
        return fn(*args, **kwargs)

    monkeypatch.setattr(evaluate, target, fail_in_run_one)
    specs = [ClassifierSpec(algorithm=algo)
             for algo in ("knn", "decision_tree")]
    with pytest.raises(RunFailure) as err:
        run_grid(make_synthetic_corpus(docs_per_class=4), VECTOR_MODELS,
                 specs, runs=3)
    assert err.value.run == 1
    assert (err.value.vector_model, err.value.algorithm) == cell
    assert isinstance(err.value.__cause__, NumericalFailure)


def test_results_to_csv_layout():
    corpus = make_synthetic_corpus(docs_per_class=4)
    res = run_experiment(corpus, "bernoulli",
                         ClassifierSpec(algorithm="knn"), runs=2)
    text = results_to_csv([res])
    lines = text.splitlines()
    assert lines[0] == "algorithm,vector_model,class,run_1,run_2,mean_f1"
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert first[0] == "knn"
    assert first[1] == "bernoulli"
    assert first[2] == "football"
    for cell in first[3:]:
        float(cell)
    assert text == results_to_csv([res])


def test_small_vocabulary_still_evaluates(synthetic_corpus):
    res = run_experiment(synthetic_corpus, "norm_freq",
                         ClassifierSpec(algorithm="nb_gaussian"), runs=1,
                         vocab_size=25)
    assert len(res.runs) == 1
    for score in res.runs[0].values():
        assert 0.0 <= score <= 1.0


def test_run_grid_matches_per_cell_experiments(monkeypatch):
    corpus = make_synthetic_corpus(docs_per_class=8)
    specs = [ClassifierSpec(algorithm=algo) for algo in ALGORITHMS]
    per_cell = [run_experiment(corpus, model, spec, runs=2, master_seed=3)
                for model in VECTOR_MODELS for spec in specs]
    calls = []
    build_matrix = evaluate.build_matrix

    def counted(docs, vocab, model, **kwargs):
        calls.append(model)
        return build_matrix(docs, vocab, model, **kwargs)

    monkeypatch.setattr(evaluate, "build_matrix", counted)
    grid = run_grid(corpus, VECTOR_MODELS, specs, runs=2, master_seed=3)
    assert results_to_csv(grid) == results_to_csv(per_cell)
    assert grid == per_cell
    # Two matrices per run, counted once: the other models are derived
    # from them in place.
    assert calls == ["plain_freq"] * 2 * 2


_CELL_SPECS = [ClassifierSpec(algorithm=algo)
               for algo in ("nb_multinomial", "knn", "decision_tree")]


@pytest.fixture(scope="module")
def per_cell_grid():
    """``run_experiment`` per (vector model, vocabulary size, spec), memoized."""
    corpus = make_synthetic_corpus(docs_per_class=6)
    cells = {}

    def cell(model, vocab_size, spec):
        key = (model, vocab_size, spec.algorithm)
        if key not in cells:
            cells[key] = run_experiment(corpus, model, spec, runs=2,
                                        vocab_size=vocab_size, master_seed=5)
        return cells[key]

    return corpus, cell


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(VECTOR_MODELS), min_size=1, max_size=5),
       st.integers(1, 40))
def test_run_grid_over_any_model_list_matches_per_cell_experiments(
        per_cell_grid, models, vocab_size):
    # Any order or subset of the models, repeats included: the grid derives
    # later models from earlier ones in place, a lone cell builds its model
    # directly. Small vocabularies make tied counts decide the keywords.
    corpus, cell = per_cell_grid
    grid = run_grid(corpus, models, _CELL_SPECS, runs=2,
                    vocab_size=vocab_size, master_seed=5)
    per_cell = [cell(model, vocab_size, spec)
                for model in models for spec in _CELL_SPECS]
    assert grid == per_cell
    assert results_to_csv(grid) == results_to_csv(per_cell)


def test_run_grid_keeps_one_model_matrix_pair_alive(monkeypatch):
    # Calls come in (train, test) pairs, one pair per run; every vector
    # model of the run is derived from that pair. Each half's rows are
    # counted into one grid-owned buffer, replaced only when a run's
    # vocabulary is larger than every earlier run's. When a pair starts,
    # the rows and trained classifiers of an earlier run, and the rows a
    # trained k-NN keeps, must already be gone.
    corpus = make_synthetic_corpus(docs_per_class=6)
    specs = [ClassifierSpec(algorithm=algo) for algo in ("knn",
                                                          "nb_multinomial")]
    build_matrix, derive_matrix, train = (
        evaluate.build_matrix, evaluate.derive_matrix, evaluate.train)
    calls = []
    made = []
    alive_counts = []
    buffers = [None, None]
    reused = []
    pair = [None, None]
    derived = []

    def track(*objs):
        run = (len(calls) - 1) // 2
        made.extend((run, weakref.ref(obj)) for obj in objs)

    def tracked_build(docs, vocab, model, *, out):
        run, half = divmod(len(calls), 2)
        alive = [r for r, ref in made if ref() is not None]
        alive_counts.append(len(alive))
        assert all(r == run for r in alive), \
            f"call {len(calls)}: an object of an earlier run is alive"
        calls.append(vocab.size)
        if vocab.size <= max(calls[:-1 - half], default=0):
            assert out is buffers[half]
            reused.append(run)
        buffers[half] = out
        rows = build_matrix(docs, vocab, model, out=out)
        assert np.shares_memory(rows, out)
        track(rows)
        pair[half] = weakref.ref(rows)
        return rows

    def tracked_derive(rows, docs, source, model):
        assert any(rows is ref() for ref in pair)
        derived.append(model)
        derive_matrix(rows, docs, source, model)

    def tracked_train(spec, data, seed=0):
        model = train(spec, data, seed=seed)
        track(model, model.estimator)
        return model

    monkeypatch.setattr(evaluate, "build_matrix", tracked_build)
    monkeypatch.setattr(evaluate, "derive_matrix", tracked_derive)
    monkeypatch.setattr(evaluate, "train", tracked_train)
    # Seed 1's training vocabularies hold 176, 178 and 175 keywords, so
    # run 1 grows both buffers and run 2 reuses them.
    run_grid(corpus, VECTOR_MODELS, specs, runs=3, master_seed=1)
    assert calls == [176, 176, 178, 178, 175, 175]
    assert reused == [2, 2]
    assert not np.shares_memory(buffers[0], buffers[1])
    # The pair's own train rows, while its test rows are built.
    assert alive_counts == [0, 1] * 3
    # Each later model turns the pair's own two arrays into itself.
    assert derived == ["norm_freq", "norm_freq", "bernoulli", "bernoulli"] * 3


def grid_fit_digests(monkeypatch):
    """(algorithm, fit digest) of every cell of a one-run grid of all
    twelve algorithms over the three vector models, in training order."""
    digests = []

    def digesting_train(spec, data, seed=0):
        model = train(spec, data, seed=seed)
        digests.append((spec.algorithm, fit_digest(model.estimator)))
        return model

    monkeypatch.setattr(evaluate, "train", digesting_train)
    run_grid(make_synthetic_corpus(docs_per_class=6), VECTOR_MODELS,
             [ClassifierSpec(algorithm=algo) for algo in ALGORITHMS],
             runs=1, master_seed=3)
    return digests


def test_grid_fit_digests_repeat_in_one_process(monkeypatch):
    first = grid_fit_digests(monkeypatch)
    assert len(first) == 3 * len(ALGORITHMS)
    assert grid_fit_digests(monkeypatch) == first


def test_fit_digests_see_one_ulp_of_adam_learning_rate(monkeypatch):
    base = grid_fit_digests(monkeypatch)
    monkeypatch.setattr(mlp, "LEARNING_RATE",
                        np.nextafter(mlp.LEARNING_RATE, np.inf))
    nudged = grid_fit_digests(monkeypatch)
    assert [a for a, _ in nudged] == [a for a, _ in base]
    for (algo, before), (_, after) in zip(base, nudged):
        assert (before != after) == (algo == "mlp_adam"), algo


def test_run_grid_sizes_its_buffers_from_the_vocabulary_it_gets():
    # A vocabulary size far above the corpus's distinct tokens takes them
    # all; buffers sized from the requested size could not be allocated.
    corpus = make_synthetic_corpus(docs_per_class=6)
    specs = [ClassifierSpec(algorithm="nb_multinomial")]
    assert run_grid(corpus, VECTOR_MODELS, specs, runs=2,
                    vocab_size=10**12) \
        == run_grid(corpus, VECTOR_MODELS, specs, runs=2, vocab_size=10**4)


# Three classifiers whose ties all fall to the lowest class code: k-NN's
# vote, the tree's leaf majority and multinomial NB's argmax. Eight documents
# per class and a three-token vocabulary keep the F1s away from 1.0, so a
# tie broken differently would show in them.
_RENAME_SPECS = [ClassifierSpec(algorithm=algo)
                 for algo in ("nb_multinomial", "knn", "decision_tree")]


@pytest.fixture(scope="module")
def rename_baseline():
    corpus = make_synthetic_corpus(docs_per_class=8)
    return corpus, run_grid(corpus, VECTOR_MODELS, _RENAME_SPECS, runs=2,
                            vocab_size=3)


_LABEL_TEXT = st.text(alphabet=st.sampled_from(
    [",", "|", '"', "\n", "\r", "\\", "a", "z", " ", "\u00e9", "\u0436"]),
    min_size=1, max_size=6)


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text, newline="")))


@settings(max_examples=25, deadline=None)
@given(st.lists(_LABEL_TEXT, min_size=3, max_size=3, unique=True))
# A lone "\r" once went unquoted and split its CSV row in two.
@example(["\\", "\r", "a,\"b\"\n|"])
def test_grid_invariant_under_order_preserving_relabel(rename_baseline,
                                                       names):
    # Class codes come from sorted label order, so a strictly increasing
    # rename keeps every code, and with it every tie-break, unchanged.
    base_corpus, base_grid = rename_baseline
    rename = dict(zip(sorted(base_corpus.classes), sorted(names)))
    corpus = dataclasses.replace(
        base_corpus,
        documents=tuple(dataclasses.replace(d, label=rename[d.label])
                        for d in base_corpus.documents),
        classes=tuple(rename[c] for c in base_corpus.classes))
    grid = run_grid(corpus, VECTOR_MODELS, _RENAME_SPECS, runs=2,
                    vocab_size=3)
    for before, after in zip(base_grid, grid):
        assert after.mean_f1 == {rename[label]: f1 for label, f1
                                 in before.mean_f1.items()}
    header, *rows = _parse_csv(results_to_csv(grid))
    before_header, *before_rows = _parse_csv(results_to_csv(base_grid))
    assert header == before_header
    assert rows == [row[:2] + [rename[row[2]]] + row[3:]
                    for row in before_rows]


@st.composite
def small_corpora(draw):
    """2-4 classes of 2-7 pages over a 1-40 token vocabulary; a page may be
    empty, and a later class may copy an earlier class's page."""
    tokens = [f"tok{i}" for i in range(draw(st.integers(1, 40)))]
    page = st.lists(st.sampled_from(tokens), max_size=12).map(" ".join)
    docs = []
    classes = tuple(f"class{c}" for c in range(draw(st.integers(2, 4))))
    for label in classes:
        earlier = [doc.raw_text for doc in docs]
        for i in range(draw(st.integers(2, 7))):
            copied = earlier and draw(st.booleans())
            text = draw(st.sampled_from(earlier) if copied else page)
            docs.append(Document.from_raw(
                id=f"{label}-{i}", network="twitter", language="en",
                label=label, raw_text=text))
    return Corpus(name="fuzz", documents=tuple(docs), classes=classes)


@settings(max_examples=15, deadline=None)
# Equal pages in both classes: the first SVM's kernel matrix is constant.
@example(corpus=tiny_corpus({"a": 2, "b": 3}), runs=2, vocab_size=1,
         master_seed=0)
@given(corpus=small_corpora(), runs=st.integers(1, 2),
       vocab_size=st.integers(1, 1000), master_seed=st.integers(0, 1000))
def test_any_small_grid_scores_or_names_its_failure(corpus, runs, vocab_size,
                                                    master_seed):
    # Every F1 of the 36 cells is in [0, 1], or the grid ends as a
    # RunFailure naming its run and, for a failure inside a classifier, its
    # cell. The suite turns any NumPy RuntimeWarning into an error, and an
    # error that is not a MaiclassError escapes run_grid as itself.
    specs = [ClassifierSpec(algorithm=algo) for algo in ALGORITHMS]
    try:
        grid = run_grid(corpus, VECTOR_MODELS, specs, runs=runs,
                        vocab_size=vocab_size, master_seed=master_seed)
    except RunFailure as err:
        assert 0 <= err.run < runs
        # A classifier's failure starts with its algorithm id.
        raised_by = [algo for algo in ALGORITHMS
                     if str(err.cause).startswith(f"{algo}: ")]
        where = ""
        if raised_by:
            assert err.algorithm == raised_by[0]
            assert err.vector_model in VECTOR_MODELS
            where = f" ({err.vector_model}, {err.algorithm}): "
        assert str(err).startswith(f"run {err.run}{where}")
        return
    assert len(grid) == 3 * len(ALGORITHMS)
    for result in grid:
        assert len(result.runs) == runs
        for scores in result.runs:
            assert list(scores) == list(corpus.classes)
            assert all(0.0 <= f1 <= 1.0 for f1 in scores.values())
