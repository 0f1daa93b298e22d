"""Run the mvse benchmark.

    python3 mvse_bench/run.py --workload global-train --seed 1 --seconds 20 --trace 0
    python3 mvse_bench/run.py --seed 1          # every workload, one process each

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is non-zero when any output check failed. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKLOAD_NAMES = ("global-train", "seq-train", "seq-retrieve")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="omit to run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="repeat the pipeline until this many seconds have passed (untraced runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # one caller on one thread: pin BLAS before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload is None:
        return run_all(args)

    import pipeline  # imports numpy and mvse from this checkout's src/

    root = pipeline.ROOT / ".mvse_bench"
    root.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workload = pipeline.WORKLOADS[args.workload]
    print("env " + json.dumps(pipeline.environment()))
    print("workload " + json.dumps({"name": tag, "config": repr(workload)}))
    spans = root / f"spans-{tag}.jsonl" if args.trace else None
    result = pipeline.run(workload, args.seed, args.seconds, bool(args.trace),
                          root / f"work-{tag}-{os.getpid()}", spans)
    for name, (value, unit) in {**result.metrics, **result.report}.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"failed {result.failed} of {result.attempted} operations")
    for problem in result.problems:
        print(f"problem: {problem}")
    if spans is not None:
        print(f"spans written to {spans.relative_to(pipeline.ROOT)}")
    print(result.line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
