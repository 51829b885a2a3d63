"""Every metric the benchmark reports: name, unit, direction, and for the
per-layer ones which end-to-end metric they should move on which workload.

``BENCHMARK.json`` at the repository root lists the same metrics; a
benchmark test keeps the two in step.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# (name, unit, better, bound). The time bounds are the largest allowed: the
# run-to-run spread of wall_s measured 6-18% on a 2-CPU VM whose speed drifts.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("macro_f1", "f1", "higher", 0.10),
)

ALGORITHMS = ("svm_linear", "svm_poly", "svm_rbf", "svm_sigmoid",
              "mlp_lbfgs", "mlp_adam", "nb_bernoulli", "nb_multinomial",
              "nb_gaussian", "logistic_regression", "decision_tree", "knn")

# Layer -> what its metrics should move.
LAYER_EFFECTS: Dict[str, str] = {
    "corpus": "wall_s on nb-pages; about 0 on the grids",
    "features": "wall_s on grid-4x and nb-pages; peak_rss_mb on grid-4x if"
                " matrices get cached",
    "evaluate": "wall_s on grid-4x, by a small amount",
    "classifiers": "MLP rows: wall_s on grid-paper; decision_tree, knn"
                   " predict and SVM rows: wall_s on grid-4x; all about 0 on"
                   " nb-pages",
    "optim": "wall_s on grid-paper (Adam, L-BFGS) and grid-4x (SMO)",
    "core": "wall_s on grid-4x; these disappear when _core is deleted",
    "stats": "wall_s and error_rate on grid-paper; mostly checked",
    "report": "wall_s and error_rate on grid-paper; mostly checked",
    "cli": "wall_s on every workload, by a small amount",
    "trace": "nothing: the cost of tracing itself",
}


def _per_layer() -> List[Tuple[str, str, str]]:
    rows = [
        ("corpus.load_s", "s", "lower"),
        ("corpus.docs", "count", "higher"),
        ("corpus.chars", "count", "higher"),
        ("features.vocab_calls", "count", "lower"),
        ("features.vocab_s", "s", "lower"),
        ("features.matrix_calls", "count", "lower"),
        ("features.matrix_distinct", "count", "lower"),
        ("features.matrix_useful_ratio", "ratio", "higher"),
        ("features.matrix_rows", "count", "lower"),
        ("features.matrix_s", "s", "lower"),
        ("evaluate.experiment_calls", "count", "lower"),
        ("evaluate.experiment_self_s", "s", "lower"),
        ("evaluate.split_calls", "count", "lower"),
        ("evaluate.split_s", "s", "lower"),
        ("evaluate.f1_s", "s", "lower"),
    ]
    rows += [(f"classifiers.fit_s.{a}", "s", "lower") for a in ALGORITHMS]
    rows += [(f"classifiers.predict_s.{a}", "s", "lower") for a in ALGORITHMS]
    rows += [
        ("classifiers.fit_calls", "count", "lower"),
        ("classifiers.kernel_matrix_s", "s", "lower"),
        ("optim.adam_s", "s", "lower"),
        ("optim.adam_iterations", "count", "lower"),
        ("optim.adam_grad_evals", "count", "lower"),
        ("optim.adam_objective_evals", "count", "lower"),
        ("optim.adam_oracle_evals", "count", "lower"),
        ("optim.adam_converged_ratio", "ratio", "higher"),
        ("optim.lbfgs_s", "s", "lower"),
        ("optim.lbfgs_iterations", "count", "lower"),
        ("optim.lbfgs_oracle_evals", "count", "lower"),
        ("optim.lbfgs_linesearch_failures", "count", "lower"),
        ("optim.smo_s", "s", "lower"),
        ("optim.smo_iterations", "count", "lower"),
        ("optim.smo_converged_ratio", "ratio", "higher"),
        ("core.best_split_calls", "count", "lower"),
        ("core.best_split_s", "s", "lower"),
        ("core.smo_optimize_s", "s", "lower"),
        ("stats.utest_calls", "count", "lower"),
        ("stats.utest_s", "s", "lower"),
        ("report.reproduce_s", "s", "lower"),
        ("report.render_s", "s", "lower"),
        ("cli.output_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return rows


PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_per_layer())
UNIT_OF: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}
UNIT_OF.update({name: unit for name, unit, _, _ in END_TO_END})


def effect_of(metric: str) -> str:
    return LAYER_EFFECTS[metric.split(".", 1)[0]]
