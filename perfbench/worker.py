"""One round of a workload, in a fresh process, as a CLI user pays for it.

Prints one JSON object: the set-up time, the round's wall time and peak
RSS, one record per job (its answer digest, wall and process CPU time of
running it and checking the answer, and any error), and with --trace 1 the
per-layer metrics of the round.

    python3 perfbench/worker.py --workload exhaustive --seed 1 --trace 0
"""

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_package():
    """Import hypersens from the checkout's src/, never from anywhere else."""
    if not (SRC / "hypersens" / "__init__.py").is_file():
        raise SystemExit(f"error: no hypersens sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypersens
    import hypersens.cli  # noqa: F401  (the CLI is a traced layer)

    if Path(hypersens.__file__).resolve().parent != (SRC / "hypersens").resolve():
        raise SystemExit(f"error: hypersens was imported from {hypersens.__file__}")
    return hypersens


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="skip the digest check (used when recording digests)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    hs = import_package()
    tracer = tracing.Tracer().install() if args.trace else None
    jobs = workloads.WORKLOADS[args.workload](hs, random.Random(args.seed))
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    expected = {}
    if not args.record:
        with open(HERE / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)[args.workload]

    records = []
    wall0 = time.perf_counter()
    for job in jobs:
        t0, c0 = time.perf_counter(), time.process_time()
        answer = None
        try:
            answer = job.run()
            error = workloads.check(
                job, answer, None if args.record else expected.get(job.name, "missing")
            )
        except Exception:  # a failing job is recorded and the round goes on
            error = traceback.format_exc(limit=3)
        took, cpu = time.perf_counter() - t0, time.process_time() - c0
        if error is None and took > workloads.JOB_BUDGET_S:
            error = f"took {took:.1f} s, over the {workloads.JOB_BUDGET_S} s budget"
        records.append({
            "job": job.name,
            "digest": workloads.digest(answer),
            "seconds": took,
            "cpu_s": cpu,
            "error": error,
        })
    wall_s = time.perf_counter() - wall0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": records,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        out["layers"] = layers
        out["unreached"] = [
            c for c in workloads.REQUIRED[args.workload] if layers[f"{c}.calls"] == 0
        ]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
