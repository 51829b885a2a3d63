"""Acceptance gate.

One test per headline claim: every derived number from the reference study's
score grid, the expert-agreement percentages, perfect separation of the
synthetic corpus, the analytic-gradient and dual-solver oracles, the
rank-statistic identities, and byte-identical repeated evaluation.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_synthetic_corpus
from maiclass.classifiers import ALGORITHMS, ClassifierSpec, mlp, svm
from maiclass.classifiers.linear import logistic_loss_and_grad
from maiclass.classifiers.mlp import mlp_loss_and_grad
from maiclass.classifiers.neighbors import KNeighbors
from maiclass.classifiers.tree import DecisionTree
from maiclass.corpus import Corpus, Document
from maiclass.evaluate import results_to_csv, run_experiment, run_grid
from maiclass.features import VECTOR_MODELS
from maiclass.optim import smo_solve
from maiclass.report import (
    agreement_columns,
    fmt3,
    load_scores,
    reproduce_stats,
    select_scores,
    summarize_mai,
)
from maiclass.stats import mann_whitney_u
from test_knn import brute_force_predict
from test_mlp import _safe_point, numeric_gradient
from test_smo import dual_objective, grid_search_dual, kkt_gap
from test_stats import exact_enumeration_p


@pytest.fixture(scope="module")
def table():
    return load_scores()


@pytest.fixture(scope="module")
def selected(table):
    return select_scores(table)


@pytest.fixture(scope="module")
def report():
    return reproduce_stats()


REPO = Path(__file__).resolve().parents[1]
GOLDEN_GRID = REPO / "tests" / "data" / "grid-paper-seed0.csv"


@pytest.fixture(scope="module")
def synthetic_eval(synthetic_corpus):
    """The golden grid: three vector models x twelve classifiers x five
    runs at seed 0, its results by (vector model, algorithm), timed, and
    what its fits did: ``(iterations, converged)`` of every Adam and SMO
    solve and ``(n_nodes, depth)`` of every tree."""
    fits = {"adam": [], "smo": [], "tree": []}

    def counted(kind, call, count):
        def wrapper(*args, **kwargs):
            out = call(*args, **kwargs)
            fits[kind].append(count(out))
            return out
        return wrapper

    def solved(res):
        return res.iterations, res.converged

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mlp, "adam_minimize",
                   counted("adam", mlp.adam_minimize, solved))
        mp.setattr(svm, "smo_solve", counted("smo", svm.smo_solve, solved))
        mp.setattr(DecisionTree, "fit", counted(
            "tree", DecisionTree.fit, lambda tree: (tree.n_nodes, tree.depth)))
        start = time.monotonic()
        grid = run_grid(synthetic_corpus, VECTOR_MODELS,
                        [ClassifierSpec(algo) for algo in ALGORITHMS],
                        runs=5, vocab_size=1000, master_seed=0)
        elapsed = time.monotonic() - start
    return {(res.vector_model, res.algorithm): res for res in grid}, \
        results_to_csv(grid), elapsed, fits


# ---------------------------------------------------------------- score grid

ROW_SUMS = {
    ("bernoulli", "logistic_regression"): "8.976",
    ("bernoulli", "mlp_lbfgs"): "8.950",
    ("bernoulli", "nb_multinomial"): "8.938",
    ("plain_freq", "svm_rbf"): "5.324",
    ("plain_freq", "svm_sigmoid"): "2.156",
}


def test_row_sums_match_to_three_decimals(table):
    for (model, clf), expected in ROW_SUMS.items():
        assert fmt3(table.row_sum(model, clf)) == expected


def test_presence_block_perfect_scores(table):
    assert table.perfect_count("bernoulli") == 29
    assert table.perfect_count("plain_freq") == 8
    assert table.perfect_count("norm_freq") == 8


def test_block_means_within_tolerance(table):
    assert abs(table.block_mean("bernoulli") - 0.958) <= 0.001
    assert abs(table.block_mean("plain_freq") - 0.819) <= 0.001
    assert abs(table.block_mean("norm_freq") - 0.872) <= 0.001


SUMMARIES = {
    "football": {"total": "67.040", "vk_ru": "20.570", "t_ru": "22.816",
                 "t_en": "23.654", "vk_mean": "0.857", "twitter": "0.968",
                 "russian": "0.904", "english": "0.986"},
    "rock": {"total": "66.700", "vk_ru": "21.732", "t_ru": "21.906",
             "t_en": "23.062", "vk_mean": "0.906", "twitter": "0.937",
             "russian": "0.909", "english": "0.961"},
    "vegetarianism": {"total": "66.810", "vk_ru": "21.850", "t_ru": "21.716",
                      "t_en": "23.244", "vk_mean": "0.910",
                      "twitter": "0.937", "russian": "0.908"},
}


def test_interest_summaries_match_to_three_decimals(selected):
    for mai, expected in SUMMARIES.items():
        s = summarize_mai(selected, mai)
        got = {"total": fmt3(s["total"]),
               "vk_ru": fmt3(s["vk_ru sum"]),
               "t_ru": fmt3(s["t_ru sum"]),
               "t_en": fmt3(s["t_en sum"]),
               "vk_mean": fmt3(s["vk_ru mean"]),
               "twitter": fmt3(s["twitter mean"]),
               "russian": fmt3(s["russian mean"]),
               "english": fmt3(s["english mean"])}
        for name, value in expected.items():
            assert got[name] == value, (mai, name)


def test_single_documented_discrepancy(selected, report):
    # The quoted english mean for vegetarianism (0.966) contradicts the
    # quoted t_en sum 23.244 over 24 scores; the ratio is 0.9685.
    s = summarize_mai(selected, "vegetarianism")
    assert fmt3(s["english mean"]) == "0.969"
    off = [c.label for c in report.checks
           if c.section == "summaries" and not c.matched]
    assert off == ["vegetarianism english mean"]
    assert report.notes


def test_medians_match(report):
    computed = {c.label: c.computed for c in report.checks
                if c.section == "medians"}
    for mai, expected in (("football", "0.982"), ("rock", "0.971"),
                          ("vegetarianism", "0.968")):
        assert fmt3(computed[f"{mai} median"]) == expected


U_TESTS = (
    ("rock vs vegetarianism", 2562.0, 0.904),
    ("football vs rock", 3130.5, 0.03),
    ("football vs vegetarianism", 3107.5, 0.038),
    ("football: vk_ru vs t_ru", 151.5, 0.004),
    ("football: t_en vs t_ru", 334.5, 0.3),
    ("rock: vk_ru vs t_ru", 269.0, 0.695),
)


def test_u_statistics_match(report):
    assert len(report.utests) == len(U_TESTS)
    for line, (label, u, p) in zip(report.utests, U_TESTS):
        assert line.label == label
        assert line.result.u1 == u
        assert abs(line.result.p_two_sided - p) <= 0.02


def test_expert_agreement_percentages():
    assert [percent for _, percent in agreement_columns()] \
        == [50.0, 100.0, 100.0, 100.0, 90.0]


# -------------------------------------------------------- synthetic corpus

def test_golden_grid_csv_is_byte_identical(synthetic_eval):
    _, text, _, _ = synthetic_eval
    assert text.encode("utf-8") == GOLDEN_GRID.read_bytes()


@pytest.mark.parametrize("model", VECTOR_MODELS)
def test_lone_model_grid_reproduces_the_golden_rows(synthetic_corpus, model):
    # A run counts its halves once and derives each requested model from
    # the counts, so a lone-model grid must give the golden file's rows of
    # that model. The algorithms after the SVMs and MLPs keep it fast.
    algos = ALGORITHMS[6:]
    grid = run_grid(synthetic_corpus, [model],
                    [ClassifierSpec(algorithm=algo) for algo in algos],
                    runs=5, master_seed=0)
    header, *rows = GOLDEN_GRID.read_text(encoding="utf-8").splitlines(True)
    assert results_to_csv(grid) == header + "".join(
        row for row in rows
        if row.split(",")[1] == model and row.split(",")[0] in algos)


def test_golden_grid_file_is_the_benchmark_reference():
    # The benchmark's grid-paper seed 0 corpus is this suite's synthetic
    # corpus, so its reference hash must be the golden file's.
    refs = json.loads((REPO / "perfbench" / "references.json")
                      .read_text(encoding="utf-8"))
    assert hashlib.sha256(GOLDEN_GRID.read_bytes()).hexdigest() \
        == refs["grid-paper"]["0"]


def test_presence_vectors_classify_synthetic_corpus_perfectly(synthetic_eval):
    results, _, _, _ = synthetic_eval
    for algo in ALGORITHMS:
        res = results[("bernoulli", algo)]
        for label in res.classes:
            assert res.mean_f1[label] == 1.0, (algo, label)


def test_frequency_vectors_classify_synthetic_corpus_strongly(synthetic_eval):
    results, _, _, _ = synthetic_eval
    strong = 0
    for algo in ALGORITHMS:
        res = results[("plain_freq", algo)]
        macro = sum(res.mean_f1.values()) / len(res.classes)
        if macro >= 0.95:
            strong += 1
    assert strong >= 10, f"only {strong}/12 reached macro F1 0.95"


def test_synthetic_suite_runs_inside_a_minute(synthetic_eval):
    _, _, elapsed, _ = synthetic_eval
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_golden_grid_fit_counts(synthetic_eval):
    # What the golden grid's fits did, as the benchmark's traces count it.
    # These hold on every BLAS kernel set; L-BFGS's counts move with it, so
    # they are not pinned.
    _, _, _, fits = synthetic_eval
    adam_iterations, adam_converged = zip(*fits["adam"])
    assert (len(fits["adam"]), sum(adam_iterations)) == (15, 3000)
    assert not any(adam_converged)
    smo_iterations, smo_converged = zip(*fits["smo"])
    assert (len(fits["smo"]), sum(smo_iterations)) == (180, 4489)
    assert all(smo_converged)
    assert max(smo_iterations) <= 90
    nodes, depths = zip(*fits["tree"])
    assert (len(fits["tree"]), sum(nodes), sum(depths)) == (15, 75, 30)


def test_svm_fit_counts_at_4x_scale():
    # SMO on the grid-4x seed 0 corpus (120 documents per class): 4 kernels
    # x 3 models x 5 runs x 3 class pairs. The SVM cells see the same rows
    # whatever else the grid runs, and these counts hold on every BLAS
    # kernel set.
    fits = []

    def solved(*args, **kwargs):
        sol = smo_solve(*args, **kwargs)
        fits.append((sol.iterations, sol.converged))
        return sol

    specs = [ClassifierSpec(algo) for algo in ALGORITHMS
             if algo.startswith("svm_")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svm, "smo_solve", solved)
        run_grid(make_synthetic_corpus(120), VECTOR_MODELS, specs, runs=5,
                 vocab_size=1000, master_seed=0)
    iterations, converged = zip(*fits)
    assert (len(fits), sum(iterations)) == (180, 22146)
    assert all(converged)
    assert max(iterations) <= 388


# ------------------------------------------------------------------ oracles

def test_logistic_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, 4))
    y_pm = np.where(rng.random(12) < 0.5, -1.0, 1.0)

    def value(wb):
        return logistic_loss_and_grad(wb, X, y_pm, 0.7)[0]

    for _ in range(20):
        wb = rng.normal(scale=0.8, size=5)
        _, analytic = logistic_loss_and_grad(wb, X, y_pm, 0.7)
        numeric = numeric_gradient(value, wb)
        rel = np.linalg.norm(analytic - numeric) \
            / max(1.0, np.linalg.norm(numeric))
        assert rel < 1e-5


def test_mlp_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    d, hidden, c = 3, 5, 3
    X = rng.normal(size=(8, d))
    y = rng.integers(0, c, size=8)
    Y = np.zeros((8, c))
    Y[np.arange(8), y] = 1.0

    def value(theta):
        return mlp_loss_and_grad(theta, X, Y, hidden, 1e-2)[0]

    for _ in range(20):
        theta = _safe_point(rng, X, d, hidden, c)
        _, analytic = mlp_loss_and_grad(theta, X, Y, hidden, 1e-2)
        numeric = numeric_gradient(value, theta)
        rel = np.linalg.norm(analytic - numeric) \
            / max(1.0, np.linalg.norm(numeric))
        assert rel < 1e-5


def test_smo_satisfies_kkt_on_random_problems():
    rng = np.random.default_rng(2024)
    tol = 1e-3
    for _ in range(50):
        n = int(rng.integers(2, 21))
        X = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        K = np.exp(-0.5 * d2)
        c = float(rng.choice([0.5, 1.0, 4.0]))
        sol = smo_solve(K, y, c=c, tolerance=tol)
        Q = (y[:, None] * y[None, :]) * K
        assert sol.converged
        assert kkt_gap(sol.alphas, Q, y, c) <= tol + 1e-12
        assert np.all(sol.alphas >= 0.0) and np.all(sol.alphas <= c)
        assert abs(float(sol.alphas @ y)) <= 1e-8


@pytest.mark.parametrize("seed,n", [(10, 3), (11, 4), (12, 5), (13, 6)])
def test_smo_dual_matches_grid_oracle(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    K = np.exp(-d2)
    sol = smo_solve(K, y, c=1.0, tolerance=1e-6)
    Q = (y[:, None] * y[None, :]) * K
    assert abs(dual_objective(sol.alphas, Q)
               - grid_search_dual(Q, y, 1.0)) <= 1e-3


def test_knn_matches_brute_force_on_100_queries():
    rng = np.random.default_rng(314)
    X = rng.normal(size=(60, 5))
    y = rng.integers(0, 3, size=60)
    est = KNeighbors().fit(X, y, 3)
    queries = rng.normal(size=(100, 5))
    for q, pred in zip(queries, est.predict_codes(queries)):
        assert pred == brute_force_predict(X, y, q, 5, 3)


# ---------------------------------------------------------- rank statistics

def test_u_sum_identity_on_fuzzed_samples():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n1 = int(rng.integers(1, 31))
        n2 = int(rng.integers(1, 31))
        x = rng.integers(0, 12, size=n1).astype(float).tolist()
        y = rng.integers(0, 12, size=n2).astype(float).tolist()
        res = mann_whitney_u(x, y, method="normal")
        assert res.u1 + res.u2 == pytest.approx(n1 * n2, abs=1e-9)


def test_u_invariant_under_monotone_transforms():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.integers(-6, 7, size=int(rng.integers(2, 15)))
        y = rng.integers(-6, 7, size=int(rng.integers(2, 15)))
        x = x.astype(float).tolist()
        y = y.astype(float).tolist()
        base = mann_whitney_u(x, y, method="normal")
        for t in (lambda v: 2.0 * v + 3.0, np.exp, lambda v: v ** 3):
            res = mann_whitney_u([t(v) for v in x], [t(v) for v in y],
                                 method="normal")
            assert res.u1 == base.u1
            assert res.p_two_sided == pytest.approx(base.p_two_sided,
                                                    abs=1e-12)


@pytest.mark.parametrize("n1,n2,seed", [(3, 4, 20), (5, 5, 21), (8, 8, 22),
                                        (2, 8, 23), (6, 7, 24)])
def test_exact_p_against_enumeration(n1, n2, seed):
    rng = np.random.default_rng(seed)
    values = rng.permutation(np.arange(n1 + n2, dtype=float) * 2.3 + 0.1)
    x = values[:n1].tolist()
    y = values[n1:].tolist()
    res = mann_whitney_u(x, y, continuity=False)
    assert res.method == "exact"
    assert abs(res.p_two_sided - exact_enumeration_p(x, y)) <= 0.005


# -------------------------------------------------------------- determinism

def _noisy_corpus():
    """The synthetic corpus with three football/rock label swaps, so scores
    genuinely depend on which documents land in the test half."""
    base = make_synthetic_corpus()
    docs = list(base.documents)
    index = {d.id: i for i, d in enumerate(docs)}
    for j in (0, 4, 8):
        a = index[f"football-{j:02d}"]
        b = index[f"rock-{j:02d}"]
        for i, new_label in ((a, "rock"), (b, "football")):
            old = docs[i]
            docs[i] = Document.from_raw(id=old.id, network=old.network,
                                        language=old.language,
                                        label=new_label,
                                        raw_text=old.raw_text)
    return Corpus(name="noisy", documents=tuple(docs), classes=base.classes)


def test_repeated_evaluation_is_byte_identical():
    corpus = _noisy_corpus()
    spec = ClassifierSpec(algorithm="knn")
    first = run_experiment(corpus, "plain_freq", spec, runs=3, master_seed=5)
    second = run_experiment(corpus, "plain_freq", spec, runs=3, master_seed=5)
    assert results_to_csv([first]).encode("utf-8") \
        == results_to_csv([second]).encode("utf-8")
    scores = [r[label] for r in first.runs
              for label in first.classes]
    assert min(scores) < 1.0  # the label noise actually bites
