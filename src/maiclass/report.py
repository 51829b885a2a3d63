"""Reproduction of the reference study's derived statistics.

The package ships the full grid of published F1 scores (three vector models
x twelve classifiers x three corpora x three interests). This module loads
that grid and rebuilds every derived quantity the reference reports as one
ordered tuple of :class:`Comparison` checks, each tagged with its section:
row sums, perfect-score counts, block means, per-interest sums and means
(named by :data:`SUMMARY_NAMES`) and medians. Six Mann-Whitney U
comparisons follow, each naming its two samples. Both report formats,
markdown and CSV, are rendered from that one tuple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from importlib import resources
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .classifiers import ALGORITHMS
from .errors import (
    EmptyTable,
    MissingCell,
    ParseError,
    RangeError,
    _parse_number,
    _read_lines,
)
from .features import VECTOR_MODELS
from .stats import UTestResult, mann_whitney_u, percent_agreement

CORPORA = ("vk_ru", "t_ru", "t_en")
MAIS = ("football", "rock", "vegetarianism")

# The frequency block that joins each classifier's bernoulli score in the
# per-interest score sets: the variant with the larger row sum. The two naive
# Bayes models score the same on both variants and take plain_freq. Pairing
# knn with norm_freq instead misses every quoted per-corpus sum.
FREQUENCY_VARIANT = MappingProxyType({
    "svm_linear": "plain_freq",
    "svm_poly": "norm_freq",
    "svm_rbf": "norm_freq",
    "svm_sigmoid": "norm_freq",
    "mlp_lbfgs": "norm_freq",
    "mlp_adam": "norm_freq",
    "nb_bernoulli": "plain_freq",
    "nb_multinomial": "plain_freq",
    "nb_gaussian": "plain_freq",
    "logistic_regression": "plain_freq",
    "decision_tree": "plain_freq",
    "knn": "plain_freq",
})

# Tolerance for "matches to three published decimals".
MATCH_TOL = 5e-4 + 1e-12

# Derived values quoted in the reference text, used for the side-by-side
# comparison. Sums/means are as printed there.
REFERENCE_ROW_SUMS = (
    ("bernoulli", "logistic_regression", 8.976),
    ("bernoulli", "mlp_lbfgs", 8.95),
    ("bernoulli", "nb_multinomial", 8.938),
    ("plain_freq", "svm_rbf", 5.324),
    ("plain_freq", "svm_sigmoid", 2.156),
)
REFERENCE_PERFECT_COUNTS = {"bernoulli": 29, "plain_freq": 8, "norm_freq": 8}
REFERENCE_BLOCK_MEANS = {"bernoulli": 0.958, "plain_freq": 0.819,
                         "norm_freq": 0.872}
# The eight sums and means of one interest's score set, in check order.
SUMMARY_NAMES = ("total", "vk_ru sum", "t_ru sum", "t_en sum", "vk_ru mean",
                 "twitter mean", "russian mean", "english mean")
# Per interest, lined up with SUMMARY_NAMES.
REFERENCE_SUMMARIES = {
    "football": (67.04, 20.57, 22.816, 23.654, 0.857, 0.968, 0.904, 0.986),
    "rock": (66.7, 21.732, 21.906, 23.062, 0.906, 0.937, 0.909, 0.961),
    "vegetarianism": (66.81, 21.85, 21.716, 23.244, 0.910, 0.937, 0.908,
                      0.966),
}
REFERENCE_MEDIANS = {"football": 0.982, "rock": 0.971,
                     "vegetarianism": 0.968}
# label, first sample, second sample, reference U, reference p. A sample is
# (interest, corpus) and a corpus of None takes all three; the first sample
# carries the quoted U.
REFERENCE_UTESTS = (
    ("rock vs vegetarianism", ("rock", None), ("vegetarianism", None),
     2562.0, 0.904),
    ("football vs rock", ("football", None), ("rock", None), 3130.5, 0.03),
    ("football vs vegetarianism", ("football", None),
     ("vegetarianism", None), 3107.5, 0.038),
    ("football: vk_ru vs t_ru", ("football", "vk_ru"), ("football", "t_ru"),
     151.5, 0.004),
    ("football: t_en vs t_ru", ("football", "t_en"), ("football", "t_ru"),
     334.5, 0.3),
    ("rock: vk_ru vs t_ru", ("rock", "vk_ru"), ("rock", "t_ru"), 269.0,
     0.695),
)


def fmt3(x: float) -> str:
    """Render with three decimals, half-up ties, matching the source style."""
    return str(Decimal(repr(float(x))).quantize(Decimal("0.001"),
                                                rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class ScoreTable:
    """Complete published score grid keyed (model, classifier, corpus, mai)."""

    cells: Mapping[Tuple[str, str, str, str], float]

    def value(self, model: str, classifier: str, corpus: str, mai: str,
              ) -> float:
        key = (model, classifier, corpus, mai)
        if key not in self.cells:
            raise MissingCell(*key)
        return self.cells[key]

    def row_sum(self, model: str, classifier: str) -> float:
        return math.fsum(self.value(model, classifier, corpus, mai)
                         for corpus in CORPORA for mai in MAIS)

    def block_values(self, model: str) -> Tuple[float, ...]:
        return tuple(self.value(model, clf, corpus, mai)
                     for clf in ALGORITHMS
                     for corpus in CORPORA for mai in MAIS)

    def perfect_count(self, model: str) -> int:
        return sum(1 for v in self.block_values(model) if v == 1.0)

    def block_mean(self, model: str) -> float:
        vals = self.block_values(model)
        return math.fsum(vals) / len(vals)


def default_scores_path():
    return resources.files("maiclass") / "data" / "reference_scores.tsv"


def expert_agreement_path():
    return resources.files("maiclass") / "data" / "expert_agreement.csv"


_HEADER = ("model", "classifier", "corpus", "mai", "score")
# The grid's key axes in column order, each with its name in parse errors.
_AXES = (("vector model", VECTOR_MODELS), ("classifier", ALGORITHMS),
         ("corpus", CORPORA), ("interest", MAIS))


def load_scores(path=None) -> ScoreTable:
    """Read the score grid from TSV; defaults to the packaged fixture.

    Every one of the 3*12*3*3 = 324 cells must be present exactly once with
    a score in [0, 1]; rows with a blank score are treated as absent so the
    gap surfaces as :class:`MissingCell`. A score is an ASCII number as
    ``float`` reads it; a digit separator (``1_0``) or a non-ASCII
    character in it is a :class:`ParseError`.
    """
    source = default_scores_path() if path is None else path
    lines = _read_lines(source, "score fixture")
    header = next(lines, None)
    if header is None or tuple(header.split("\t")) != _HEADER:
        raise ParseError(1, "expected header "
                            "'model\\tclassifier\\tcorpus\\tmai\\tscore'")
    cells: Dict[Tuple[str, str, str, str], float] = {}
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(lineno, f"expected 5 fields, got {len(parts)}")
        key, raw = tuple(parts[:4]), parts[4]
        for value, (axis, allowed) in zip(key, _AXES):
            if value not in allowed:
                raise ParseError(lineno, f"unknown {axis} {value!r}")
        if not raw.strip():
            continue
        score = _parse_number(raw, lineno, "bad score")
        if not 0.0 <= score <= 1.0:
            raise RangeError(
                f"line {lineno}: score {score} outside [0, 1]")
        if key in cells:
            raise ParseError(lineno, f"duplicate cell {key}")
        cells[key] = score
    for key in itertools.product(*(allowed for _, allowed in _AXES)):
        if key not in cells:
            raise MissingCell(*key)
    return ScoreTable(cells=MappingProxyType(cells))


def _read_agreement(path) -> Tuple[List[str], List[List[int]]]:
    """Column names and 0/1 vote rows of an expert-vote CSV."""
    source = expert_agreement_path() if path is None else path
    lines = [(lineno, line) for lineno, line in enumerate(
        _read_lines(source, "agreement table"), start=1) if line.strip()]
    if len(lines) < 2:
        raise EmptyTable("agreement table needs a header and one vote row")
    header = lines[0][1].split(",")
    width = len(header)
    rows: List[List[int]] = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(lineno,
                             f"expected {width} cells, got {len(parts)}")
        row = []
        for cell in parts:
            cell = cell.strip()
            if cell not in ("0", "1"):
                raise ParseError(lineno, f"votes must be 0 or 1, got {cell!r}")
            row.append(int(cell))
        rows.append(row)
    return header, rows


def agreement_columns(path=None) -> List[Tuple[str, float]]:
    """(column name, percent agreement) pairs for a vote table."""
    header, rows = _read_agreement(path)
    return list(zip([h.strip() for h in header], percent_agreement(rows)))


def select_scores(table: ScoreTable,
                  ) -> Dict[str, Dict[str, Tuple[float, ...]]]:
    """24 scores per (interest, corpus): the bernoulli twelve plus variants."""
    out: Dict[str, Dict[str, Tuple[float, ...]]] = {}
    for mai in MAIS:
        out[mai] = {}
        for corpus in CORPORA:
            vals = [table.value("bernoulli", clf, corpus, mai)
                    for clf in ALGORITHMS]
            vals += [table.value(FREQUENCY_VARIANT[clf], clf, corpus, mai)
                     for clf in ALGORITHMS]
            out[mai][corpus] = tuple(vals)
    return out


def flat_scores(selected: Dict[str, Dict[str, Tuple[float, ...]]],
                mai: str) -> Tuple[float, ...]:
    """All 72 scores of one interest, corpora concatenated in fixed order."""
    return tuple(v for corpus in CORPORA for v in selected[mai][corpus])


@dataclass(frozen=True)
class Comparison:
    """One computed quantity of a report ``section`` (``row_sums``,
    ``perfect_counts``, ``block_means``, ``summaries`` or ``medians``) next
    to the value the reference quotes."""

    section: str
    label: str
    computed: float
    reference: float

    @property
    def matched(self) -> bool:
        return abs(self.computed - self.reference) <= MATCH_TOL


def summarize_mai(selected, mai: str) -> Dict[str, float]:
    """Sums and means of one interest's 72-score set, keyed by
    :data:`SUMMARY_NAMES`."""
    vk, tru, ten = (math.fsum(selected[mai][corpus]) for corpus in CORPORA)
    return dict(zip(SUMMARY_NAMES, (
        math.fsum([vk, tru, ten]), vk, tru, ten, vk / 24.0,
        (tru + ten) / 48.0, (vk + tru) / 48.0, ten / 24.0)))


@dataclass(frozen=True)
class UTestLine:
    label: str
    result: UTestResult
    reference_u: float
    reference_p: float

    @property
    def u_matched(self) -> bool:
        return abs(self.result.u1 - self.reference_u) <= 1e-9

    @property
    def p_matched(self) -> bool:
        # The reference rounds p aggressively; 0.02 absolute is the agreed
        # closeness criterion.
        return abs(self.result.p_two_sided - self.reference_p) <= 0.02


@dataclass(frozen=True)
class ReproduceReport:
    checks: Tuple[Comparison, ...]
    utests: Tuple[UTestLine, ...]
    notes: Tuple[str, ...]


def _sample(selected, mai: str, corpus: Optional[str]) -> Tuple[float, ...]:
    """One interest's scores on ``corpus``, or on all three for ``None``."""
    return selected[mai][corpus] if corpus else flat_scores(selected, mai)


def reproduce_stats(table: Optional[ScoreTable] = None) -> ReproduceReport:
    """Recompute every derived reference number from the score grid.

    The U tests use the tie-corrected normal approximation without the
    continuity correction, which is what the quoted p-values follow.
    """
    table = table if table is not None else load_scores()
    selected = select_scores(table)

    checks = [Comparison("row_sums", f"{model}/{clf} row sum",
                         table.row_sum(model, clf), ref)
              for model, clf, ref in REFERENCE_ROW_SUMS]
    checks += [Comparison("perfect_counts", f"{model} cells at 1.0",
                          float(table.perfect_count(model)),
                          float(REFERENCE_PERFECT_COUNTS[model]))
               for model in VECTOR_MODELS]
    checks += [Comparison("block_means", f"{model} block mean",
                          table.block_mean(model),
                          REFERENCE_BLOCK_MEANS[model])
               for model in VECTOR_MODELS]
    for mai in MAIS:
        summary = summarize_mai(selected, mai)
        checks += [Comparison("summaries", f"{mai} {name}", summary[name], ref)
                   for name, ref in zip(SUMMARY_NAMES,
                                        REFERENCE_SUMMARIES[mai])]
    checks += [Comparison("medians", f"{mai} median",
                          float(np.median(flat_scores(selected, mai))),
                          REFERENCE_MEDIANS[mai])
               for mai in MAIS]

    veg = next(c for c in checks if c.label == "vegetarianism english mean")
    notes = () if veg.matched else (
        "vegetarianism english mean: the quoted value 0.966 is "
        "inconsistent with the quoted t_en sum 23.244 over 24 scores; "
        f"the ratio is {fmt3(veg.computed)} and that is what "
        "this report computes.",)

    utests = tuple(
        UTestLine(label=label,
                  result=mann_whitney_u(_sample(selected, *x),
                                        _sample(selected, *y),
                                        continuity=False, method="normal"),
                  reference_u=ref_u, reference_p=ref_p)
        for label, x, y, ref_u, ref_p in REFERENCE_UTESTS)

    return ReproduceReport(checks=tuple(checks), utests=utests, notes=notes)


def _mark(ok: bool) -> str:
    return "ok" if ok else "DIFFERS"


def _cells(c: Comparison) -> Tuple[str, str, str, str]:
    """Label, computed, reference and status of one comparison row."""
    return c.label, fmt3(c.computed), fmt3(c.reference), _mark(c.matched)


def _table(head: str, comparisons: Sequence[Comparison]) -> List[str]:
    """A markdown table of comparison rows under a ``head`` label column."""
    return ([f"| {head} | computed | reference | status |",
             "|---|---|---|---|"]
            + [f"| {' | '.join(_cells(c))} |" for c in comparisons])


def _section(report: ReproduceReport, *sections: str) -> List[Comparison]:
    """The report's checks in ``sections``, in report order."""
    return [c for c in report.checks if c.section in sections]


# The interest table's columns: the corpus sums, the total, then the means.
_INTEREST_COLUMNS = SUMMARY_NAMES[1:4] + SUMMARY_NAMES[:1] + SUMMARY_NAMES[4:]


def render_report(report: ReproduceReport, fmt: str = "markdown") -> str:
    """Serialize a report as markdown or CSV; output is deterministic."""
    if fmt == "csv":
        lines = ["section,label,computed,reference,status"]
        lines += [",".join((c.section,) + _cells(c)) for c in report.checks]
        for u in report.utests:
            lines += [f"utest,{u.label} U,U={u.result.u1:.1f},"
                      f"U={u.reference_u:.1f},{_mark(u.u_matched)}",
                      f"utest,{u.label} p,{fmt3(u.result.p_two_sided)},"
                      f"{fmt3(u.reference_p)},{_mark(u.p_matched)}"]
        lines += [f"note,{note},,," for note in report.notes]
        return "\n".join(lines) + "\n"
    if fmt != "markdown":
        raise ValueError(f"unknown format {fmt!r}")

    summary = {c.label: c.computed for c in _section(report, "summaries")}
    out = ["# Reference reproduction", "",
           "## Row sums", "",
           *_table("quantity", _section(report, "row_sums")), "",
           "## Score distribution", "",
           *_table("quantity",
                   _section(report, "perfect_counts", "block_means")), "",
           "## Interest score sets", "",
           "| interest | vk_ru | t_ru | t_en | total | mean vk | "
           "mean twitter | mean ru | mean en |",
           "|---|---|---|---|---|---|---|---|---|"]
    out += [f"| {mai} | "
            + " | ".join(fmt3(summary[f"{mai} {name}"])
                         for name in _INTEREST_COLUMNS) + " |"
            for mai in MAIS]
    out += ["", *_table("check", _section(report, "summaries", "medians")),
            "", "## Mann-Whitney U tests", ""]
    out += [f"- {u.label}: U={u.result.u1:.1f}, "
            f"p={fmt3(u.result.p_two_sided)} "
            f"(reference U={u.reference_u:.1f}, p={fmt3(u.reference_p)}; "
            f"U {_mark(u.u_matched)}, p {_mark(u.p_matched)})"
            for u in report.utests]
    if report.notes:
        out += ["", "## Notes", "", *(f"- {note}" for note in report.notes)]
    return "\n".join(out) + "\n"
