"""The benchmark workloads: a generated corpus plus a sequence of CLI calls.

A workload seed ``s`` fixes everything: the corpus generator's seed and the
``--seed`` given to ``maiclass eval``. For the synthetic grids the corpus
seed is ``12345 + s``, so seed 0 is exactly the test suite's corpus.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import corpora

SYNTHETIC_BASE_SEED = 12345


@dataclass(frozen=True)
class Paths:
    """Files one sample reads and writes inside its work directory."""

    corpus: str
    grid_csv: str
    report: str
    utest_a: str
    utest_b: str

    @classmethod
    def under(cls, workdir: str) -> "Paths":
        join = lambda name: os.path.join(workdir, name)  # noqa: E731
        return cls(corpus=join("corpus.jsonl"), grid_csv=join("grid.csv"),
                   report=join("report.md"), utest_a=join("utest_a.txt"),
                   utest_b=join("utest_b.txt"))

    def outputs(self) -> Tuple[str, ...]:
        return (self.grid_csv, self.report, self.utest_a, self.utest_b)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_corpus: Callable[[int], Tuple[list, dict]]
    eval_args: Tuple[str, ...] = ()
    reproduce: bool = False
    utest_classes: Optional[Tuple[str, str]] = None

    def commands(self, paths: Paths, seed: int) -> List[List[str]]:
        """The CLI argument vectors one sample runs, in order."""
        cmds = [["eval", paths.corpus, *self.eval_args, "--seed", str(seed),
                 "--out", paths.grid_csv]]
        if self.reproduce:
            cmds.append(["reproduce", "--out", paths.report])
        if self.utest_classes:
            cmds.append(["utest", paths.utest_a, paths.utest_b])
        return cmds


def _synthetic(docs_per_class: int):
    def make(seed: int):
        records = corpora.synthetic_records(docs_per_class,
                                            SYNTHETIC_BASE_SEED + seed)
        tokens = sum(len(r["text"].split()) for r in records)
        return records, {"docs": len(records), "tokens": tokens}
    return make


def _nb_pages(docs_per_class: int):
    def make(seed: int):
        records, report = corpora.nb_pages_records(docs_per_class, seed)
        return records, report.as_dict()
    return make


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="grid-paper",
        why="paper design: 3 models x 12 algorithms x 5 runs at 30 docs/class,"
            " then reproduce and utest; fit-bound, the two MLPs dominate",
        make_corpus=_synthetic(30),
        reproduce=True,
        utest_classes=("football", "rock"),
    ),
    Workload(
        name="grid-4x",
        why="same grid at 120 docs/class: 4x working set, 360 build_matrix"
            " calls of which 30 distinct; vectorize, kNN, SVM and tree scale",
        make_corpus=_synthetic(120),
    ),
    Workload(
        name="nb-pages",
        why="4 x 300 multilingual Zipf pages, nb_multinomial only: load,"
            " normalize and vectorize bound; bypasses cross-algorithm reuse",
        make_corpus=_nb_pages(300),
        eval_args=("--algo", "nb_multinomial"),
    ),
)}


def read_grid(path: str) -> List[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def class_column(rows: List[dict], label: str) -> List[str]:
    """The mean F1 of ``label`` in every (algorithm, model) cell, as written."""
    return [row["mean_f1"] for row in rows if row["class"] == label]


def write_utest_inputs(workload: Workload, paths: Paths) -> None:
    """Write the two class columns of the grid just produced for ``utest``."""
    rows = read_grid(paths.grid_csv)
    for label, path in zip(workload.utest_classes,
                           (paths.utest_a, paths.utest_b)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(class_column(rows, label)) + "\n")
