#!/usr/bin/env python3
"""End-to-end benchmark of the ``maiclass`` CLI.

Run from the repository root::

    python3 perfbench/run.py --workload grid-paper --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each sample is a fresh process (``perfbench/sample.py``) that imports
maiclass from ``src/`` and runs the workload's commands on a corpus
generated from ``--seed``. Samples repeat until ``--seconds`` is used up
(at least ``MIN_SAMPLES``). Every output is checked: exit codes, the sha256
of the F1 grid against ``references.json`` (or, for a seed without a
reference, against the run's other samples), the reproduce report and the
U test. ``--trace 1`` alternates untraced and traced samples and reports
per-layer metrics instead. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import catalog
import corpora
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
MIN_SAMPLES = 3
SETUP_PROBES = 5
RUN_LIMIT_S = 170
KNOWN_DIFFERS = ("vegetarianism english mean",)
CHILD_ENV = {
    # One BLAS thread: steadier on small machines, and faster here too.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # Cache bytecode as an installed package would, so that setup_s times
    # the import rather than compiling maiclass in every process.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, seed: int, workdir: Path, trace: int = 0,
              setup_only: bool = False, spans_out: Optional[Path] = None,
              timeout: float = RUN_LIMIT_S) -> Optional[dict]:
    """Run one sample process; its record, or None if it crashed."""
    out = workdir / "sample.json"
    if out.exists():
        out.unlink()
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--out", str(out),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {timeout:.0f}s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stderr[-4000:])
        return None
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_of(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def macro_f1(grid_csv: str) -> float:
    """Mean over cells of the per-cell macro F1 (= mean of all class means)."""
    rows = workloads.read_grid(grid_csv)
    return statistics.fmean(float(row["mean_f1"]) for row in rows)


def u_statistic(a: List[float], b: List[float]) -> float:
    return sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in a for y in b)


class Checker:
    """Checks every command's output; counts attempted and failed ones."""

    def __init__(self, workload: workloads.Workload, seed: int, paths):
        self.paths = paths
        refs = json.loads((HERE / "references.json").read_text())
        self.reference = refs.get(workload.name, {}).get(str(seed))
        self.grid_hashes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if why not in self.problems:
            self.problems.append(why)

    def crashed(self, n_commands: int) -> None:
        self.attempted += n_commands
        self.failed += n_commands - 1
        self.fail("sample process crashed")

    def check(self, record: dict) -> Optional[float]:
        """Check one sample's commands; its macro F1 if the grid is good."""
        f1 = None
        for cmd in record["commands"]:
            self.attempted += 1
            name = cmd["argv"][0]
            if cmd["rc"] != 0:
                self.fail(f"{name} exited {cmd['rc']}")
                continue
            problem = getattr(self, f"_check_{name}")(cmd)
            if problem:
                self.fail(problem)
            elif name == "eval":
                f1 = macro_f1(self.paths.grid_csv)
        return f1

    def _check_eval(self, cmd) -> Optional[str]:
        digest = sha256_of(self.paths.grid_csv)
        if digest is None:
            return "eval wrote no grid"
        self.grid_hashes.append(digest)
        expected = self.reference or self.grid_hashes[0]
        if digest != expected:
            kind = "reference" if self.reference else "first sample"
            return f"grid sha256 {digest[:12]} differs from {kind} {expected[:12]}"
        return None

    def _check_reproduce(self, cmd) -> Optional[str]:
        try:
            text = Path(self.paths.report).read_text(encoding="utf-8")
        except OSError:
            return "reproduce wrote no report"
        differs = tuple(line.split("|")[1].strip()
                        for line in text.splitlines() if "DIFFERS" in line)
        if differs != KNOWN_DIFFERS:
            return f"reproduce DIFFERS lines {list(differs)}"
        if "| ok |" not in text:
            return "reproduce report has no ok lines"
        return None

    def _check_utest(self, cmd) -> Optional[str]:
        match = re.match(r"U1=(\S+) U2=(\S+) z=\S+ p=(\S+) ", cmd["stdout"])
        if not match:
            return f"utest output unparsable: {cmd['stdout'][:80]!r}"
        u1, u2, p = (float(g) for g in match.groups())
        a, b = (list(map(float, Path(p_).read_text().split()))
                for p_ in (self.paths.utest_a, self.paths.utest_b))
        if abs(u1 - u_statistic(a, b)) > 1e-9 or u1 + u2 != len(a) * len(b):
            return f"utest U1={u1} U2={u2} inconsistent with its inputs"
        if not 0.0 <= p <= 1.0:
            return f"utest p={p} outside [0, 1]"
        return None


def summarize(values: List[float]) -> Dict[str, float]:
    """Sample count, median and quartiles of one metric within a run."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the full result record."""
    if not (ROOT / "src" / "maiclass" / "__init__.py").is_file():
        raise BenchError(f"no maiclass source under {ROOT / 'src'}")
    workload = workloads.WORKLOADS[name]
    hard_stop = time.perf_counter() + RUN_LIMIT_S
    workdir = STATE / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    paths = workloads.Paths.under(str(workdir))
    try:
        records, corpus_info = workload.make_corpus(seed)
        corpora.write_jsonl(paths.corpus, records)
        # An untimed first import compiles bytecode and warms the file cache.
        if run_child(name, seed, workdir, setup_only=True) is None:
            raise BenchError("maiclass does not import")
        checker = Checker(workload, seed, paths)
        n_commands = len(workload.commands(paths, seed))
        setup: List[float] = []
        if not trace:
            for _ in range(SETUP_PROBES):
                probe = run_child(name, seed, workdir, setup_only=True)
                if probe is None:
                    raise BenchError("maiclass does not import")
                setup.append(probe["setup_s"])
        samples, traced = [], []
        deadline = time.perf_counter() + seconds
        longest = 0.0
        min_rounds = 1 if trace else MIN_SAMPLES
        rounds = 0
        while True:
            round_start = time.perf_counter()
            for traced_flag in ((0, 1) if trace else (0,)):
                for out in paths.outputs():
                    if os.path.exists(out):
                        os.unlink(out)
                spans_out = None
                if traced_flag:
                    spans_out = STATE / "traces" / f"{name}-seed{seed}-{len(traced)}.json"
                    spans_out.parent.mkdir(parents=True, exist_ok=True)
                record = run_child(name, seed, workdir, trace=traced_flag,
                                   spans_out=spans_out,
                                   timeout=hard_stop - time.perf_counter())
                if record is None:
                    checker.crashed(n_commands)
                    continue
                record["macro_f1"] = checker.check(record)
                (traced if traced_flag else samples).append(record)
            longest = max(longest, time.perf_counter() - round_start)
            rounds += 1
            if not samples and not traced:
                break
            now = time.perf_counter()
            if now + longest > hard_stop or (
                    rounds >= min_rounds and now + longest > deadline):
                break
        if not samples:
            raise BenchError("no sample completed: " + "; ".join(checker.problems))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    machine = dict(samples[0]["machine"], commit=git_commit(ROOT),
                   child_env=CHILD_ENV)
    result = {"workload": name, "seed": seed, "trace": trace,
              "seconds": seconds, "machine": machine, "corpus": corpus_info,
              "grid_sha256": checker.grid_hashes[0] if checker.grid_hashes else None,
              "reference": checker.reference, "problems": checker.problems,
              "attempted": checker.attempted, "failed": checker.failed}
    if trace:
        _trace_result(result, samples, traced, checker)
    else:
        setup += [s["setup_s"] for s in samples]
        good = [s for s in samples if s["macro_f1"] is not None]
        series = {"setup_s": setup,
                  "wall_s": [s["wall_s"] for s in samples],
                  "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
                  "macro_f1": [s["macro_f1"] for s in good] or [0.0]}
        result["summary"] = {k: summarize(v) for k, v in series.items()}
        result["metrics"] = {k: result["summary"][k]["median"] for k in series}
    return result


def _trace_result(result: dict, samples, traced, checker: Checker) -> None:
    if not traced:
        raise BenchError("no traced sample completed")
    merged, mismatched = tracer.merge_samples(
        [t["layers"] for t in traced], catalog.UNIT_OF)
    for name in mismatched:
        checker.fail(f"trace count {name} differs between samples")
    result["attempted"], result["failed"] = checker.attempted, checker.failed
    plain = statistics.median(s["wall_s"] for s in samples)
    with_trace = statistics.median(t["wall_s"] for t in traced)
    merged["trace.overhead_s"] = with_trace - plain
    result["metrics"] = {name: merged[name] for name, _, _ in catalog.PER_LAYER}
    result["trace_overhead"] = {"untraced_wall_s": plain,
                                "traced_wall_s": with_trace,
                                "pairs": len(traced)}
    result["self_times"] = traced[0]["self_times"]
    result["trace_sites"] = traced[0]["trace_sites"]


def result_line(result: dict) -> dict:
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": catalog.UNIT_OF[k]}
                        for k, v in result["metrics"].items()}}


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"trace={result['trace']}  seconds={result['seconds']:g}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print("corpus  " + json.dumps(result["corpus"]))
    ref = result["reference"]
    status = ("matches reference" if ref and result["grid_sha256"] == ref
              else "no stored reference; samples must agree" if not ref
              else f"reference is {ref}")
    print(f"grid sha256 {result['grid_sha256']} ({status})")
    # error_rate is 0 on a correct program, so it is carried by the result
    # line's attempted/failed fields rather than as a bounded metric.
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"error_rate {rate:.4f} ratio  "
          f"({result['failed']} failed of {result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    if result["trace"]:
        ov = result["trace_overhead"]
        print(f"tracing overhead {result['metrics']['trace.overhead_s']:.3f} s "
              f"(traced {ov['traced_wall_s']:.3f} s vs untraced "
              f"{ov['untraced_wall_s']:.3f} s, {ov['pairs']} pair(s))")
        print(f"{'metric':<40} {'value':>12} {'unit':<6} should move")
        for name, value in result["metrics"].items():
            print(f"{name:<40} {value:>12.6g} {catalog.UNIT_OF[name]:<6} "
                  f"{catalog.effect_of(name)}")
        print(f"{'span':<28} {'calls':>7} {'total_s':>9} {'self_s':>9}")
        for row in result["self_times"]:
            print(f"{row['name']:<28} {row['calls']:>7} "
                  f"{row['total_s']:>9.3f} {row['self_s']:>9.3f}")
    else:
        print(f"{'metric':<12} {'unit':<5} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12}  better")
        for name, unit, better, _ in catalog.END_TO_END:
            s = result["summary"][name]
            print(f"{name:<12} {unit:<5} {s['n']:>3} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g}  {better}")


def save_result(result: dict) -> None:
    out = STATE / "results" / (f"{result['workload']}-seed{result['seed']}"
                               f"-trace{result['trace']}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(workloads.WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace)
                   for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_result(result)
        save_result(result)
        print()
    lines = [result_line(r) for r in results]
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({r["workload"]: line
                          for r, line in zip(results, lines)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
