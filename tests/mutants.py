"""Mutation checks: each entry breaks the source in one place, and the tests
it names must then fail.

Run from the repository root:

    python tests/mutants.py

For every entry, ``src/`` is copied to a temporary directory, the entry's
snippet (which must occur exactly once in its file) is replaced, and only
the named tests run against the copy. The script exits non-zero when a
snippet is stale (not found, or found more than once), when a mutant
survives (its tests pass), or when its tests cannot run (pytest exits with
anything but "tests failed"). Not collected by pytest: the file name does
not match ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/maiclass, exact snippet, replacement, test ids that must
# fail). Each snippet names the behaviour its tests pin down.
MUTANTS = [
    # k-NN: an unstable sort may reorder training rows at equal distance.
    ("classifiers/neighbors.py", 'np.argsort(d2, kind="stable")',
     'np.argsort(d2, kind="quicksort")',
     ["tests/test_knn.py::test_tied_distances_follow_the_brute_force_order"]),
    # Multinomial NB: minimum propagates a NaN, which hides a negative entry.
    ("classifiers/naive_bayes.py", "np.fmin.reduce(X, axis=None)",
     "np.minimum.reduce(X, axis=None)",
     ["tests/test_naive_bayes.py::"
      "test_multinomial_rejects_negative_features"]),
    # Multinomial NB: a view of a Fortran-ordered block sums in another order.
    ("classifiers/naive_bayes.py",
     "if X.flags.c_contiguous and at.size", "if at.size",
     ["tests/test_naive_bayes.py::"
      "test_multinomial_fit_matches_gathered_sums"]),
    # A reused matrix buffer keeps the previous run's counts.
    ("features.py", "        rows.fill(0.0)\n", "",
     ["tests/test_features.py::"
      "test_build_matrix_rows_are_the_document_vectors",
      "tests/test_eval.py::"
      "test_run_grid_sizes_its_buffers_from_the_vocabulary_it_gets"]),
    # SVM vote, three breaks of the masked pass.
    ("classifiers/svm.py", "conf = np.where(top, conf, -np.inf)",
     "conf = np.where(top, conf, 0.0)",
     ["tests/test_svm.py::test_vote_winners_match_class_loop"]),
    ("classifiers/svm.py", "np.argmax(top & ~(conf <", "np.argmax(~(conf <",
     ["tests/test_svm.py::test_vote_winners_match_class_loop"]),
    ("classifiers/svm.py", "top & ~(conf < conf.max(axis=1, keepdims=True))",
     "top & (conf == conf.max(axis=1, keepdims=True))",
     ["tests/test_svm.py::test_nan_decision_still_picks_a_most_voted_class"]),
    # A failure in a later run must name that run.
    ("evaluate.py", "raise RunFailure(run, exc,", "raise RunFailure(0, exc,",
     ["tests/test_eval.py::"
      "test_failure_in_a_later_run_names_its_run_and_cell"]),
    # L-BFGS returns its first accepted iterate instead of its last.
    ("optim.py", "        iterations += 1\n    return OptResult(x=x, fun=f,",
     "        iterations += 1\n"
     "        first = (x, f) if iterations == 1 else first\n"
     "    x, f = first if iterations else (x, f)\n"
     "    return OptResult(x=x, fun=f,",
     ["tests/test_optim.py::test_lbfgs_each_accepted_step_lowers_f"]),
    # Adam reports the objective at x0 instead of at its last iterate.
    ("optim.py", "        f = float(objective(x))\n",
     "        float(objective(x))\n",
     ["tests/test_optim.py::test_adam_returns_its_last_iterate"]),
    # SMO: the pair's curvature K_ii + K_jj - 2 K_ij with the wrong sign.
    ("optim.py", "K[i, i] + K[j, j] - 2.0 * K[i, j]",
     "K[i, i] + K[j, j] + 2.0 * K[i, j]",
     ["tests/test_smo.py::test_dual_objective_matches_grid_oracle",
      "tests/test_smo.py::test_matches_the_q_based_reference_bit_for_bit"]),
    # SMO: the scaled gradient -y*(Q @ 0 - 1) starts at -y instead of y.
    ("optim.py", "yg = y.copy()", "yg = -y",
     ["tests/test_smo.py::test_kkt_satisfied_on_random_problems",
      "tests/test_smo.py::test_matches_the_q_based_reference_bit_for_bit"]),
    # SVM: a constant kernel matrix is fitted instead of rejected.
    ("classifiers/svm.py", "if K.min() == K.max():", "if False:",
     ["tests/test_classifiers_common.py::"
      "test_constant_kernel_matrix_is_numerical_failure"]),
    # The polynomial kernel's fixed degree.
    ("classifiers/kernels.py", "POLY_DEGREE = 3", "POLY_DEGREE = 2",
     ["tests/test_kernels.py::test_poly_hand_value"]),
    # A self-Gram's RBF diagonal distance is not exactly zero.
    ("classifiers/kernels.py", "np.fill_diagonal(dist, 0.0)",
     "np.fill_diagonal(dist, 1e-12)",
     ["tests/test_kernels.py::"
      "test_rbf_of_a_row_and_its_near_copy_at_any_scale"]),
    # An unknown kernel kind falls through to the sigmoid.
    ("classifiers/kernels.py",
     "    if kind not in KERNEL_KINDS:\n"
     '        raise ValueError(f"unknown kernel kind {kind!r}")\n', "",
     ["tests/test_kernels.py::test_unknown_kernel_kind_rejected"]),
]


def apply(src: Path, path: str, snippet: str, replacement: str) -> None:
    target = src / "maiclass" / path
    text = target.read_text(encoding="utf-8")
    if text.count(snippet) != 1:
        raise LookupError(f"{path}: snippet found {text.count(snippet)} "
                          f"times, not once: {snippet!r}")
    target.write_text(text.replace(snippet, replacement), encoding="utf-8")


def run_tests(src: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = 0
    start = time.monotonic()
    for path, snippet, replacement, tests in MUTANTS:
        label = f"{path}: {snippet.strip()!r}"
        with tempfile.TemporaryDirectory(prefix="maiclass-mutant-") as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            try:
                apply(src, path, snippet, replacement)
            except LookupError as exc:
                print(f"STALE     {exc}")
                failures += 1
                continue
            code = run_tests(src, tests)
        # pytest exits 1 when tests ran and some failed; 0 means they all
        # passed, anything else that they could not run (e.g. a stale id).
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
        print(f"{verdict:<9} {label}")
        failures += code != 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed "
          f"in {time.monotonic() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
