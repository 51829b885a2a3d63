"""Reproduction of the reference study's derived statistics.

The package ships the full grid of published F1 scores (three vector models
x twelve classifiers x three corpora x three interests). This module loads
that grid, rebuilds every derived quantity the reference reports - row sums,
perfect-score counts, block means, per-interest score sets with their sums
and means, medians, and six Mann-Whitney U comparisons - and renders a
side-by-side computed-vs-reference report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from importlib import resources
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .classifiers import ALGORITHMS
from .errors import (
    EmptyTable,
    IncompleteRule,
    IoError,
    MissingCell,
    ParseError,
    RangeError,
)
from .features import VECTOR_MODELS
from .stats import UTestResult, describe, mann_whitney_u, percent_agreement

CORPORA = ("vk_ru", "t_ru", "t_en")
MAIS = ("football", "rock", "vegetarianism")

VARIANTS = ("plain", "normalized", "either")

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
# Per interest: total, vk_ru, t_ru, t_en, then means for vk_ru, twitter,
# russian, english.
REFERENCE_SUMMARIES = {
    "football": (67.04, 20.57, 22.816, 23.654, 0.857, 0.968, 0.904, 0.986),
    "rock": (66.7, 21.732, 21.906, 23.062, 0.906, 0.937, 0.909, 0.961),
    "vegetarianism": (66.81, 21.85, 21.716, 23.244, 0.910, 0.937, 0.908,
                      0.966),
}
REFERENCE_MEDIANS = {"football": 0.982, "rock": 0.971,
                     "vegetarianism": 0.968}
# label, reference U, reference p. Sample construction is fixed in
# reproduce_stats; the first-named sample carries the quoted U.
REFERENCE_UTESTS = (
    ("rock vs vegetarianism", 2562.0, 0.904),
    ("football vs rock", 3130.5, 0.03),
    ("football vs vegetarianism", 3107.5, 0.038),
    ("football: vk_ru vs t_ru", 151.5, 0.004),
    ("football: t_en vs t_ru", 334.5, 0.3),
    ("rock: vk_ru vs t_ru", 269.0, 0.695),
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


def _read_text(source, what: str) -> str:
    """Read a packaged resource or a filesystem path as UTF-8 text."""
    try:
        if hasattr(source, "read_text"):
            return source.read_text(encoding="utf-8")
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {what} {source}: {exc}") from exc


_HEADER = ("model", "classifier", "corpus", "mai", "score")


def load_scores(path=None) -> ScoreTable:
    """Read the score grid from TSV; defaults to the packaged fixture.

    Every one of the 3*12*3*3 = 324 cells must be present exactly once with
    a score in [0, 1]; rows with a blank score are treated as absent so the
    gap surfaces as :class:`MissingCell`.
    """
    source = default_scores_path() if path is None else path
    lines = _read_text(source, "score fixture").splitlines()
    if not lines or tuple(lines[0].split("\t")) != _HEADER:
        raise ParseError(1, "expected header "
                            "'model\\tclassifier\\tcorpus\\tmai\\tscore'")
    cells: Dict[Tuple[str, str, str, str], float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(lineno, f"expected 5 fields, got {len(parts)}")
        model, classifier, corpus, mai, raw = parts
        if model not in VECTOR_MODELS:
            raise ParseError(lineno, f"unknown vector model {model!r}")
        if classifier not in ALGORITHMS:
            raise ParseError(lineno, f"unknown classifier {classifier!r}")
        if corpus not in CORPORA:
            raise ParseError(lineno, f"unknown corpus {corpus!r}")
        if mai not in MAIS:
            raise ParseError(lineno, f"unknown interest {mai!r}")
        if not raw.strip():
            continue
        try:
            score = float(raw)
        except ValueError as exc:
            raise ParseError(lineno, f"bad score {raw!r}") from exc
        if not 0.0 <= score <= 1.0:
            raise RangeError(
                f"line {lineno}: score {score} outside [0, 1]")
        key = (model, classifier, corpus, mai)
        if key in cells:
            raise ParseError(lineno, f"duplicate cell {key}")
        cells[key] = score
    for model in VECTOR_MODELS:
        for clf in ALGORITHMS:
            for corpus in CORPORA:
                for mai in MAIS:
                    if (model, clf, corpus, mai) not in cells:
                        raise MissingCell(model, clf, corpus, mai)
    return ScoreTable(cells=MappingProxyType(cells))


def _read_agreement(path) -> Tuple[List[str], List[List[int]]]:
    """Column names and 0/1 vote rows of an expert-vote CSV."""
    source = expert_agreement_path() if path is None else path
    text = _read_text(source, "agreement table")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise EmptyTable("agreement table needs a header and one vote row")
    header = lines[0].split(",")
    width = len(header)
    rows: List[List[int]] = []
    for lineno, line in enumerate(lines[1:], start=2):
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


def load_agreement(path=None) -> List[List[int]]:
    """Read a 0/1 expert-vote table from CSV (header row of column names)."""
    return _read_agreement(path)[1]


def agreement_columns(path=None) -> List[Tuple[str, float]]:
    """(column name, percent agreement) pairs for a vote table."""
    header, rows = _read_agreement(path)
    return list(zip([h.strip() for h in header], percent_agreement(rows)))


@dataclass(frozen=True)
class SelectionRule:
    """Which frequency variant joins the presence block, per classifier.

    Every classifier contributes its bernoulli score plus one of the two
    frequency scores: ``"plain"``, ``"normalized"``, or ``"either"`` (the two
    are identical, plain is used).
    """

    assignments: Mapping[str, str]

    def __post_init__(self):
        missing = [c for c in ALGORITHMS if c not in self.assignments]
        if missing:
            raise IncompleteRule(f"no variant assigned for {missing}")
        bad = {c: v for c, v in self.assignments.items()
               if v not in VARIANTS}
        if bad:
            raise IncompleteRule(f"invalid variant assignment(s) {bad}")
        extra = [c for c in self.assignments if c not in ALGORITHMS]
        if extra:
            raise IncompleteRule(f"unknown classifier(s) {extra}")

    def variant_model(self, classifier: str) -> str:
        kind = self.assignments[classifier]
        return "norm_freq" if kind == "normalized" else "plain_freq"


def default_selection_rule(knn: str = "plain") -> SelectionRule:
    """The reference assignment of frequency variants.

    Keeps, for each classifier, the frequency variant that scored at least
    as well overall; ``knn`` is the one genuinely ambiguous case and can be
    flipped to ``"normalized"`` for sensitivity checks.
    """
    if knn not in ("plain", "normalized"):
        raise ValueError("knn must be 'plain' or 'normalized'")
    assignments = {
        "svm_linear": "plain",
        "svm_poly": "normalized",
        "svm_rbf": "normalized",
        "svm_sigmoid": "normalized",
        "mlp_lbfgs": "normalized",
        "mlp_adam": "normalized",
        "nb_bernoulli": "plain",
        "nb_multinomial": "either",
        "nb_gaussian": "either",
        "logistic_regression": "plain",
        "decision_tree": "plain",
        "knn": knn,
    }
    return SelectionRule(assignments=MappingProxyType(assignments))


def select_scores(table: ScoreTable, rule: Optional[SelectionRule] = None,
                  ) -> Dict[str, Dict[str, Tuple[float, ...]]]:
    """24 scores per (interest, corpus): the bernoulli twelve plus variants."""
    rule = rule or default_selection_rule()
    out: Dict[str, Dict[str, Tuple[float, ...]]] = {}
    for mai in MAIS:
        out[mai] = {}
        for corpus in CORPORA:
            vals = [table.value("bernoulli", clf, corpus, mai)
                    for clf in ALGORITHMS]
            vals += [table.value(rule.variant_model(clf), clf, corpus, mai)
                     for clf in ALGORITHMS]
            out[mai][corpus] = tuple(vals)
    return out


def flat_scores(selected: Dict[str, Dict[str, Tuple[float, ...]]],
                mai: str) -> Tuple[float, ...]:
    """All 72 scores of one interest, corpora concatenated in fixed order."""
    return tuple(v for corpus in CORPORA for v in selected[mai][corpus])


@dataclass(frozen=True)
class Comparison:
    """One computed quantity next to the value the reference quotes."""

    label: str
    computed: float
    reference: float

    @property
    def matched(self) -> bool:
        return abs(self.computed - self.reference) <= MATCH_TOL


@dataclass(frozen=True)
class MaiSummary:
    """Sums and means of one interest's 72-score set."""

    mai: str
    corpus_sums: Mapping[str, float]
    total: float
    vk_mean: float
    twitter_mean: float
    russian_mean: float
    english_mean: float


def summarize_mai(selected, mai: str) -> MaiSummary:
    sums = {corpus: math.fsum(selected[mai][corpus]) for corpus in CORPORA}
    vk = sums["vk_ru"]
    tru = sums["t_ru"]
    ten = sums["t_en"]
    return MaiSummary(
        mai=mai,
        corpus_sums=MappingProxyType(sums),
        total=math.fsum([vk, tru, ten]),
        vk_mean=vk / 24.0,
        twitter_mean=(tru + ten) / 48.0,
        russian_mean=(vk + tru) / 48.0,
        english_mean=ten / 24.0,
    )


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
    row_sums: Tuple[Comparison, ...]
    perfect_counts: Tuple[Comparison, ...]
    block_means: Tuple[Comparison, ...]
    summaries: Tuple[MaiSummary, ...]
    summary_checks: Tuple[Comparison, ...]
    medians: Tuple[Comparison, ...]
    utests: Tuple[UTestLine, ...]
    notes: Tuple[str, ...]

    @property
    def all_matched(self) -> bool:
        comps = (self.row_sums + self.perfect_counts + self.block_means
                 + self.summary_checks + self.medians)
        return all(c.matched for c in comps) \
            and all(u.u_matched and u.p_matched for u in self.utests)


def reproduce_stats(table: Optional[ScoreTable] = None,
                    rule: Optional[SelectionRule] = None,
                    continuity: bool = False) -> ReproduceReport:
    """Recompute every derived reference number from the score grid.

    The U tests use the tie-corrected normal approximation without the
    continuity correction, which is what the quoted p-values follow.
    """
    table = table if table is not None else load_scores()
    rule = rule or default_selection_rule()
    selected = select_scores(table, rule)

    row_sums = tuple(
        Comparison(label=f"{model}/{clf} row sum",
                   computed=table.row_sum(model, clf), reference=ref)
        for model, clf, ref in REFERENCE_ROW_SUMS)
    perfect = tuple(
        Comparison(label=f"{model} cells at 1.0",
                   computed=float(table.perfect_count(model)),
                   reference=float(REFERENCE_PERFECT_COUNTS[model]))
        for model in VECTOR_MODELS)
    block_means = tuple(
        Comparison(label=f"{model} block mean",
                   computed=table.block_mean(model),
                   reference=REFERENCE_BLOCK_MEANS[model])
        for model in VECTOR_MODELS)

    summaries = tuple(summarize_mai(selected, mai) for mai in MAIS)
    checks: List[Comparison] = []
    notes: List[str] = []
    for summary in summaries:
        ref = REFERENCE_SUMMARIES[summary.mai]
        pairs = (
            ("total", summary.total, ref[0]),
            ("vk_ru sum", summary.corpus_sums["vk_ru"], ref[1]),
            ("t_ru sum", summary.corpus_sums["t_ru"], ref[2]),
            ("t_en sum", summary.corpus_sums["t_en"], ref[3]),
            ("vk_ru mean", summary.vk_mean, ref[4]),
            ("twitter mean", summary.twitter_mean, ref[5]),
            ("russian mean", summary.russian_mean, ref[6]),
            ("english mean", summary.english_mean, ref[7]),
        )
        for name, computed, reference in pairs:
            checks.append(Comparison(label=f"{summary.mai} {name}",
                                     computed=computed, reference=reference))
    veg = REFERENCE_SUMMARIES["vegetarianism"]
    veg_summary = summaries[MAIS.index("vegetarianism")]
    if abs(veg_summary.english_mean - veg[7]) > MATCH_TOL:
        notes.append(
            "vegetarianism english mean: the quoted value 0.966 is "
            "inconsistent with the quoted t_en sum 23.244 over 24 scores; "
            f"the ratio is {fmt3(veg_summary.english_mean)} and that is what "
            "this report computes.")

    medians = tuple(
        Comparison(label=f"{mai} median",
                   computed=describe(flat_scores(selected, mai)).median,
                   reference=REFERENCE_MEDIANS[mai])
        for mai in MAIS)

    football = selected["football"]
    rock = selected["rock"]
    pairs = (
        (flat_scores(selected, "rock"), flat_scores(selected, "vegetarianism")),
        (flat_scores(selected, "football"), flat_scores(selected, "rock")),
        (flat_scores(selected, "football"),
         flat_scores(selected, "vegetarianism")),
        (football["vk_ru"], football["t_ru"]),
        (football["t_en"], football["t_ru"]),
        (rock["vk_ru"], rock["t_ru"]),
    )
    utests = tuple(
        UTestLine(label=label,
                  result=mann_whitney_u(x, y, continuity=continuity,
                                        method="normal"),
                  reference_u=ref_u, reference_p=ref_p)
        for (label, ref_u, ref_p), (x, y) in zip(REFERENCE_UTESTS, pairs))

    return ReproduceReport(row_sums=row_sums, perfect_counts=perfect,
                           block_means=block_means, summaries=summaries,
                           summary_checks=tuple(checks), medians=medians,
                           utests=utests, notes=tuple(notes))


def _mark(ok: bool) -> str:
    return "ok" if ok else "DIFFERS"


def render_report(report: ReproduceReport, fmt: str = "markdown") -> str:
    """Serialize a report as markdown or CSV; output is deterministic."""
    if fmt == "csv":
        lines = ["section,label,computed,reference,status"]
        for section, comps in (("row_sums", report.row_sums),
                               ("perfect_counts", report.perfect_counts),
                               ("block_means", report.block_means),
                               ("summaries", report.summary_checks),
                               ("medians", report.medians)):
            for c in comps:
                lines.append(f"{section},{c.label},{fmt3(c.computed)},"
                             f"{fmt3(c.reference)},{_mark(c.matched)}")
        for u in report.utests:
            lines.append(
                f"utest,{u.label} U,U={u.result.u1:.1f},"
                f"U={u.reference_u:.1f},{_mark(u.u_matched)}")
            lines.append(
                f"utest,{u.label} p,{fmt3(u.result.p_two_sided)},"
                f"{fmt3(u.reference_p)},{_mark(u.p_matched)}")
        for note in report.notes:
            lines.append(f"note,{note},,,")
        return "\n".join(lines) + "\n"
    if fmt != "markdown":
        raise ValueError(f"unknown format {fmt!r}")

    out: List[str] = ["# Reference reproduction", ""]
    out.append("## Row sums")
    out.append("")
    out.append("| quantity | computed | reference | status |")
    out.append("|---|---|---|---|")
    for c in report.row_sums:
        out.append(f"| {c.label} | {fmt3(c.computed)} | {fmt3(c.reference)} "
                   f"| {_mark(c.matched)} |")
    out.append("")
    out.append("## Score distribution")
    out.append("")
    out.append("| quantity | computed | reference | status |")
    out.append("|---|---|---|---|")
    for c in report.perfect_counts + report.block_means:
        out.append(f"| {c.label} | {fmt3(c.computed)} | {fmt3(c.reference)} "
                   f"| {_mark(c.matched)} |")
    out.append("")
    out.append("## Interest score sets")
    out.append("")
    out.append("| interest | vk_ru | t_ru | t_en | total | mean vk | "
               "mean twitter | mean ru | mean en |")
    out.append("|---|---|---|---|---|---|---|---|---|")
    for s in report.summaries:
        out.append(
            f"| {s.mai} | {fmt3(s.corpus_sums['vk_ru'])} "
            f"| {fmt3(s.corpus_sums['t_ru'])} "
            f"| {fmt3(s.corpus_sums['t_en'])} | {fmt3(s.total)} "
            f"| {fmt3(s.vk_mean)} | {fmt3(s.twitter_mean)} "
            f"| {fmt3(s.russian_mean)} | {fmt3(s.english_mean)} |")
    out.append("")
    out.append("| check | computed | reference | status |")
    out.append("|---|---|---|---|")
    for c in report.summary_checks + report.medians:
        out.append(f"| {c.label} | {fmt3(c.computed)} | {fmt3(c.reference)} "
                   f"| {_mark(c.matched)} |")
    out.append("")
    out.append("## Mann-Whitney U tests")
    out.append("")
    for u in report.utests:
        out.append(
            f"- {u.label}: U={u.result.u1:.1f}, "
            f"p={fmt3(u.result.p_two_sided)} "
            f"(reference U={u.reference_u:.1f}, p={fmt3(u.reference_p)}; "
            f"U {_mark(u.u_matched)}, p {_mark(u.p_matched)})")
    if report.notes:
        out.append("")
        out.append("## Notes")
        out.append("")
        for note in report.notes:
            out.append(f"- {note}")
    return "\n".join(out) + "\n"
