"""Tests of the benchmark itself (not part of the repository's test suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import catalog  # noqa: E402
import corpora  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from maiclass.classifiers import ClassifierSpec  # noqa: E402
from maiclass.corpus import load_corpus, normalize_text  # noqa: E402
from maiclass.stats import mann_whitney_u  # noqa: E402


def _test_conftest():
    spec = importlib.util.spec_from_file_location(
        "_suite_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("docs_per_class,seed",
                         [(30, 12345), (120, 12345), (7, 99)])
def test_synthetic_matches_suite_corpus(docs_per_class, seed):
    conftest = _test_conftest()
    expected = list(conftest.corpus_records(
        conftest.make_synthetic_corpus(docs_per_class, seed)))
    assert corpora.synthetic_records(docs_per_class, seed) == expected


def test_workload_seed_zero_is_the_suite_corpus():
    records, info = workloads.WORKLOADS["grid-paper"].make_corpus(0)
    conftest = _test_conftest()
    assert records == list(conftest.corpus_records(
        conftest.make_synthetic_corpus()))
    assert info["docs"] == 90


def test_nb_pages_report_agrees_with_normalizer():
    records, report = corpora.nb_pages_records(12, seed=3)
    raw = [tok for r in records for tok in r["text"].split()]
    normalized = [normalize_text(r["text"]) for r in records]
    kept = sum(len(toks) for toks in normalized)
    assert report.docs == len(records) == 4 * 12
    assert report.tokens == len(raw)
    assert report.distinct_tokens == len({t for toks in normalized
                                          for t in toks})
    assert report.dropped_share == pytest.approx(1 - kept / len(raw))
    assert 0.03 < report.dropped_share < 0.2


def test_nb_pages_is_seeded_multilingual_and_over_the_vocab_cut():
    a, report = corpora.nb_pages_records(300, seed=1)
    b, _ = corpora.nb_pages_records(300, seed=1)
    c, _ = corpora.nb_pages_records(300, seed=2)
    assert a == b and a != c
    text = " ".join(r["text"] for r in a)
    assert any("а" <= ch <= "я" for ch in text)
    assert any("a" <= ch <= "z" for ch in text)
    assert report.distinct_tokens > 1000


def test_benchmark_json_matches_catalog_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == \
        list(catalog.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(catalog.PER_LAYER)
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_references_cover_default_seed():
    refs = json.loads((HERE / "references.json").read_text())
    assert refs["grid-paper"]["0"].startswith("14bcfae4c7ae")
    assert refs["grid-4x"]["0"].startswith("9378469cc9ab")


@pytest.fixture()
def small_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    corpora.write_jsonl(path, corpora.synthetic_records(8, 5))
    return load_corpus(str(path))


def test_tracer_rebinds_every_site_and_counts_repeat(small_corpus):
    import maiclass
    from maiclass import evaluate, features

    original = features.build_matrix

    def traced_metrics():
        trace = tracer.Tracer()
        trace.install()
        try:
            assert evaluate.build_matrix is not original
            assert maiclass.build_matrix is evaluate.build_matrix
            for algo in ("mlp_adam", "mlp_lbfgs", "svm_rbf", "decision_tree"):
                evaluate.run_experiment(small_corpus, "bernoulli",
                                        ClassifierSpec(algorithm=algo), runs=2)
        finally:
            trace.uninstall()
        assert evaluate.build_matrix is original
        return tracer.layer_metrics(trace.spans), trace.installed

    first, installed = traced_metrics()
    second, _ = traced_metrics()
    assert installed["features.matrix"] >= 3
    assert all(sites >= 1 for sites in installed.values())
    counts = {k: v for k, v in first.items() if catalog.UNIT_OF[k] != "s"}
    assert counts == {k: second[k] for k in counts}
    assert first["features.matrix_calls"] == 4 * 2 * 2
    assert first["features.matrix_distinct"] == 2 * 2
    assert first["evaluate.experiment_calls"] == 4
    assert first["classifiers.fit_calls"] == 8
    assert first["optim.adam_objective_evals"] == \
        first["optim.adam_iterations"] + 2
    assert first["optim.adam_grad_evals"] == first["optim.adam_iterations"]
    assert first["optim.smo_iterations"] > 0
    assert first["core.best_split_calls"] > 0
    assert set(first) | {"trace.overhead_s"} == \
        {name for name, _, _ in catalog.PER_LAYER}


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, {}], ["b", 1.0, 4.0, 0, {}],
             ["c", 2.0, 3.0, 1, {}], ["b", 5.0, 6.0, 0, {}]]
    ix = tracer.SpanIndex(spans)
    assert ix.self_total("a") == pytest.approx(6.0)
    assert ix.self_total("b") == pytest.approx(3.0)
    assert ix.total("b") == pytest.approx(4.0)


def test_merge_samples_flags_unstable_counts():
    merged, bad = tracer.merge_samples(
        [{"x_s": 1.0, "n": 3}, {"x_s": 3.0, "n": 3}, {"x_s": 2.0, "n": 4}],
        {"x_s": "s", "n": "count"})
    assert merged == {"x_s": 2.0, "n": 3} and bad == ["n"]


def test_u_statistic_agrees_with_maiclass():
    rng = np.random.default_rng(0)
    a = list(np.round(rng.random(36), 2))
    b = list(np.round(rng.random(36), 2))
    assert run.u_statistic(a, b) == mann_whitney_u(a, b).u1


def test_reproduce_check_allows_only_the_known_cell(tmp_path):
    from maiclass import cli

    paths = workloads.Paths.under(str(tmp_path))
    checker = run.Checker(workloads.WORKLOADS["grid-paper"], 0, paths)
    assert cli.main(["reproduce", "--out", paths.report]) == 0
    assert checker._check_reproduce({}) is None
    text = Path(paths.report).read_text()
    Path(paths.report).write_text(
        text.replace("| football total | 67.040 | 67.040 | ok |",
                     "| football total | 67.040 | 67.040 | DIFFERS |"))
    assert "DIFFERS" in checker._check_reproduce({})


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
