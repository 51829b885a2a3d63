"""Command-line interface.

Exit codes: 0 on success, 1 on a domain error (anything raised as
:class:`MaiclassError`), 2 on a usage error (argparse).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .classifiers import ALGORITHMS, ClassifierSpec
from .corpus import load_corpus, one_line, validate_corpus
from .errors import IoError, MaiclassError, _parse_number, _read_lines
from .evaluate import results_to_csv, run_grid
from .report import (
    agreement_columns,
    load_scores,
    render_report,
    reproduce_stats,
)
from .stats import mann_whitney_u

_MODEL_OF_FLAG = {"bernoulli": "bernoulli", "plain": "plain_freq",
                  "norm": "norm_freq"}


def _int_option(minimum: int):
    """An argparse type for an ASCII integer of at least ``minimum`` (0 or
    1); ``int`` alone also reads ``1_0`` and non-ASCII digits."""
    kind = "positive" if minimum else "non-negative"

    def parse(text: str) -> int:
        try:
            if text.isascii() and "_" not in text and int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected a {kind} integer, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maiclass",
        description="Interest classification toolkit: corpus checks, "
                    "repeated split-half evaluation, rank statistics, and "
                    "reference-result reproduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate",
                       help="check corpus balance and tokenization")
    v.add_argument("corpus", help="JSONL corpus file")
    v.add_argument("--per-class", type=_int_option(1), default=30,
                   help="expected documents per class (default 30)")

    e = sub.add_parser("eval", help="repeated stratified split evaluation")
    e.add_argument("corpus", help="JSONL corpus file")
    e.add_argument("--model", choices=("bernoulli", "plain", "norm", "all"),
                   default="all", help="vector model (default all)")
    e.add_argument("--algo", choices=ALGORITHMS + ("all",), default="all",
                   help="classifier (default all)")
    e.add_argument("--runs", type=_int_option(1), default=5)
    e.add_argument("--seed", type=_int_option(0), default=0)
    e.add_argument("--vocab", type=_int_option(1), default=1000,
                   help="vocabulary size (default 1000)")
    e.add_argument("--out", help="write output here instead of stdout")
    e.add_argument("--format", choices=("csv", "markdown"), default="csv")

    u = sub.add_parser("utest", help="two-sided Mann-Whitney U test")
    u.add_argument("sample_a", help="CSV/whitespace file of numbers")
    u.add_argument("sample_b", help="CSV/whitespace file of numbers")
    u.add_argument("--no-continuity", action="store_true",
                   help="drop the 0.5 continuity correction")
    u.add_argument("--method", choices=("auto", "normal", "exact"),
                   default="auto")

    a = sub.add_parser("agreement", help="percent agreement per column")
    a.add_argument("table", nargs="?", default=None,
                   help="CSV vote table (default: packaged expert table)")

    r = sub.add_parser("reproduce",
                       help="recompute the reference study's statistics")
    r.add_argument("--fixture", default=None,
                   help="score grid TSV (default: packaged fixture)")
    r.add_argument("--out", help="write the report here instead of stdout")
    r.add_argument("--format", choices=("markdown", "csv"),
                   default="markdown")
    return parser


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _read_sample(path: str) -> List[float]:
    values: List[float] = []
    for lineno, line in enumerate(_read_lines(path, "sample file"), start=1):
        for token in line.replace(",", " ").split():
            values.append(_parse_number(token, lineno, "not a number:"))
    return values


def _cmd_validate(args) -> int:
    corpus = load_corpus(args.corpus)
    report = validate_corpus(corpus, args.per_class)
    sys.stdout.write(report.summary() + "\n")
    return 0 if report.passed else 1


def _cmd_eval(args) -> int:
    corpus = load_corpus(args.corpus)
    models = [_MODEL_OF_FLAG[args.model]] if args.model != "all" \
        else list(_MODEL_OF_FLAG.values())
    algos = [args.algo] if args.algo != "all" else list(ALGORITHMS)
    results = run_grid(corpus, models,
                       [ClassifierSpec(algorithm=algo) for algo in algos],
                       runs=args.runs, vocab_size=args.vocab,
                       master_seed=args.seed)
    if args.format == "csv":
        text = results_to_csv(results)
    else:
        lines = ["| algorithm | vector model | class | mean F1 |",
                 "|---|---|---|---|"]
        for res in results:
            for label, mean in res.mean_f1.items():
                # A bare "|" in a label would end its cell early, and a
                # line break would end its row.
                cell = one_line(label).replace("|", "\\|")
                lines.append(f"| {res.algorithm} | {res.vector_model} "
                             f"| {cell} | {mean:.6f} |")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_utest(args) -> int:
    x = _read_sample(args.sample_a)
    y = _read_sample(args.sample_b)
    res = mann_whitney_u(x, y, continuity=not args.no_continuity,
                         method=args.method)
    cont = "on" if res.continuity_applied else "off"
    sys.stdout.write(
        f"U1={res.u1:.1f} U2={res.u2:.1f} z={res.z:.4f} "
        f"p={res.p_two_sided:.6g} "
        f"(method={res.method}, continuity={cont}, "
        f"n1={res.n1}, n2={res.n2}, tie_groups={res.tie_groups})\n")
    return 0


def _cmd_agreement(args) -> int:
    for name, percent in agreement_columns(args.table):
        sys.stdout.write(f"{name},{percent:g}\n")
    return 0


def _cmd_reproduce(args) -> int:
    report = reproduce_stats(load_scores(args.fixture))
    _emit(render_report(report, fmt=args.format), args.out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "eval": _cmd_eval,
    "utest": _cmd_utest,
    "agreement": _cmd_agreement,
    "reproduce": _cmd_reproduce,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except MaiclassError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
