#!/usr/bin/env python3
"""Record the reference sha256 of each workload's F1 grid for given seeds.

Only for a change that is meant to alter the grid; a performance change
must leave ``references.json`` as it is. Run from the repository root::

    python3 perfbench/record_references.py --seeds 0-9 [--workload grid-4x]
"""

import argparse
import json
import shutil
import sys

import corpora
import run
import workloads


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-9 or 3")
    ap.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    path = run.HERE / "references.json"
    refs = json.loads(path.read_text())
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        workload = workloads.WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            workdir = run.STATE / f"record-{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                paths = workloads.Paths.under(str(workdir))
                records, _ = workload.make_corpus(seed)
                corpora.write_jsonl(paths.corpus, records)
                sample = run.run_child(name, seed, workdir)
                if sample is None or sample["commands"][0]["rc"] != 0:
                    print(f"{name} seed {seed}: eval failed", file=sys.stderr)
                    return 1
                digest = run.sha256_of(paths.grid_csv)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            refs.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}")
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
