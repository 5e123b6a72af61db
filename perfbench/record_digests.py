"""Record the expected output digests of the benchmark's operations.

Usage (from the root of a checkout):

    python3 perfbench/record_digests.py --seeds 0:40

Runs every operation of the workloads once per seed and writes
``perfbench/expected.json``.  Operations with a semantic check (the walk
experiments against the scalar reference walks, the identity checks of the
seeded sweep experiments) must pass it before their digest is recorded; the
others record the bytes of the commit they run on.  Rerun only on a commit
whose outputs are known good, and say so when the bytes change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run as bench
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0:40", help="half-open range lo:hi")
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split(":"))
    lib = bench.load_library()
    checker = workloads.Checker(lib, {})
    digests: dict[str, str] = {}
    out_dir = bench.OUT / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.workloads.split(","):
        for seed in range(lo, hi):
            for op in workloads.build(lib, name, seed).ops:
                if op.key in digests:
                    continue
                lib.experiments.run(workloads.config(lib, op, out_dir))
                err = checker.check(op, out_dir)
                if err is not None and not err.startswith("no recorded digest"):
                    print(f"{name} seed {seed}: {err}", file=sys.stderr)
                    return 1
                trials, summary = (p.read_bytes()
                                   for p in workloads.output_paths(op, out_dir))
                digests[op.key] = workloads.digest(trials, summary)
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
    env = bench.environment(lib, args.workloads, args.seeds, None)
    doc = {"recorded_with": env, "seeds": [lo, hi], "digests": dict(sorted(digests.items()))}
    (bench.HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
