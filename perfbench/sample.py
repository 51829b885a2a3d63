"""One benchmark sample, run as a fresh process by ``run.py``.

Times ``import maiclass.cli``, then runs the workload's commands through
``maiclass.cli.main(argv)`` and writes a JSON record of timings, exit codes,
captured output, machine facts and (when traced) per-layer metrics.
Nothing heavy is imported before the import timing starts.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def _blas_facts() -> dict:
    """BLAS library, runtime configuration and thread count, where readable."""
    import ctypes

    import numpy as np

    facts = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "blas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if getter is None:
                    continue
                getter.restype = ctypes.c_int
                facts["blas_threads"] = getter()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    facts["blas_config"] = config().decode()
                return facts
    facts["blas_threads"] = "unknown"
    return facts


def machine_facts(maiclass) -> dict:
    import platform

    import numpy as np

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "maiclass_backend": maiclass.BACKEND,
    }
    try:
        facts.update(_blas_facts())
    except OSError as exc:
        facts["blas"] = f"unreadable: {exc}"
    return facts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None,
                    help="where a traced sample writes its spans")
    ap.add_argument("--setup-only", action="store_true",
                    help="only time the import, then exit")
    args = ap.parse_args()

    start = time.perf_counter()
    import maiclass.cli
    setup_s = time.perf_counter() - start
    record = {"setup_s": setup_s, "maiclass_file": maiclass.__file__}
    if args.setup_only:
        _write(args.out, record)
        return 0

    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    paths = workloads.Paths.under(args.workdir)
    trace = tracer.Tracer() if args.trace else None
    if trace:
        trace.install()
    commands = []
    start = time.perf_counter()
    for argv in workload.commands(paths, args.seed):
        if argv[0] == "utest":
            with contextlib.suppress(OSError):
                workloads.write_utest_inputs(workload, paths)
        out = io.StringIO()
        span = trace.root(f"cli.{argv[0]}") if trace else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), span:
            rc = maiclass.cli.main(argv)
        commands.append({"argv": argv, "rc": rc, "stdout": out.getvalue()})
    wall_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record.update(wall_s=wall_s, peak_rss_mb=peak_kib / 1024.0,
                  commands=commands, machine=machine_facts(maiclass))
    if trace:
        record["layers"] = tracer.layer_metrics(trace.spans)
        record["self_times"] = tracer.SpanIndex(trace.spans).table()
        record["trace_sites"] = trace.installed
        if args.spans_out:
            keys = ("name", "start", "end", "parent", "attrs")
            _write(args.spans_out, [dict(zip(keys, s)) for s in trace.spans])
    _write(args.out, record)
    return 0


def _write(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
