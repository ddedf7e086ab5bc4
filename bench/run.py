"""Run one perilame benchmark workload; the last stdout line is its result.

    python3 bench/run.py --workload linear-n512 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The result line is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A record of the run (machine
stamp, every operation's times and errors and, when traced, every span) is
written to bench/out/.  Workloads and metrics are described in
bench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# One BLAS thread: a Newton solve at N = 512 takes 1.34-1.39 s with one
# OpenBLAS thread and 1.70-1.86 s with two on a 2-CPU machine.
BLAS_THREADS = 1
WORKLOADS = ("linear-n512", "newton-n512", "fields-n128")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "perilame" / "__init__.py").is_file():
        print(f"bench: no perilame sources under {src}", file=sys.stderr)
        return 2
    # the thread count is read when numpy loads, so it is set before any import of it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    sys.path[:0] = [str(src), str(BENCH)]
    import harness

    if Path(harness.pl.__file__).resolve().parent != src / "perilame":
        print(f"bench: imported perilame from {harness.pl.__file__}, not {src}", file=sys.stderr)
        return 2
    out_dir = BENCH / "out"
    result, record = harness.run(harness.WORKLOADS[args.workload], args.seed,
                                 args.seconds, bool(args.trace), out_dir)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["stamp"]), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
