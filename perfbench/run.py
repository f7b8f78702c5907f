"""The hypersens benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 40 --trace 0

Load model: one caller, one process, one thread, jobs back to back (a
closed loop).  A round runs the workload's whole job list, answer checks
included, in a fresh worker process (perfbench/worker.py), because a CLI
user pays the import and the cache fills on every run.  Rounds repeat while
the next one is predicted to end within --seconds, and at least MIN_ROUNDS
times (traced and untraced together).

With --trace 0 the result holds the end-to-end metrics: wall_s and cpu_s
(the job list's wall and process CPU time, mean over rounds), setup_s
(median over the rounds and extra set-up-only workers) and peak_rss_mb
(median over rounds).  With --trace 1 untraced and traced rounds
alternate, and the result holds the per-layer metrics of the traced rounds
plus trace.overhead_s, the traced minus the untraced job-list time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 1 means a job failed its answer
check (or a traced layer was never reached); 2 means the benchmark could
not run and printed no result.

    python3 perfbench/run.py --record

runs every workload once and rewrites perfbench/expected.json with the
answer digests; only a change that adds or alters a job may do that.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0  # a run must end within 180 s
MIN_ROUNDS = 5  # so that a run's mean spans several phases of machine speed
SETUP_SAMPLES = 15
# one thread, as the load model says; fixed hashing so rounds repeat exactly
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_worker(workload, seed, *, traced=False, setup_only=False, record=False,
               deadline=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    if record:
        cmd.append("--record")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env={**os.environ, **WORKER_ENV})
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} ran past the {HARD_LIMIT_S} s limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload, seed, seconds, trace):
    """Untraced (and with trace, traced) rounds until the time is used up."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    rounds = {False: [], True: []}
    took = {False: [], True: []}
    for traced in itertools.cycle((False, True) if trace else (False,)):
        if len(rounds[False]) + len(rounds[True]) >= MIN_ROUNDS and (rounds[True] or not trace):
            predicted = statistics.median(took[traced])
            if time.monotonic() - start + predicted > seconds:
                break
        t0 = time.monotonic()
        rounds[traced].append(run_worker(workload, seed, traced=traced, deadline=deadline))
        took[traced].append(time.monotonic() - t0)
    return rounds, deadline


def failures(workload, rounds):
    """(jobs attempted, jobs failed, every failure message) over all rounds."""
    records = [rec for r in rounds[False] + rounds[True] for rec in r["jobs"]]
    problems = [f"{rec['job']}: {rec['error']}" for rec in records if rec["error"]]
    failed = len(problems)
    for r in rounds[True]:
        problems += [f"traced {workload} made no call to {c}" for c in r["unreached"]]
    return len(records), failed, problems


def job_list_time(rounds, key):
    """Time of the whole job list, answer checks included: mean over rounds.

    On a shared machine the speed of one thread drifts between slow and
    fast phases that each last several rounds.  A median over rounds jumps
    between the two speeds as the slow share of a run crosses one half; the
    mean moves with that share, so it spreads less from run to run.
    """
    return statistics.mean(sum(rec[key] for rec in r["jobs"]) for r in rounds)


def end_to_end(workload, seed, rounds, deadline):
    untraced = rounds[False]
    setups = [r["setup_s"] for r in untraced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, setup_only=True, deadline=deadline)["setup_s"])
    return {
        "wall_s": {"value": job_list_time(untraced, "seconds"), "unit": "s"},
        "cpu_s": {"value": job_list_time(untraced, "cpu_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in untraced),
                        "unit": "MB"},
    }


def per_layer(rounds):
    values = tracing.median_metrics([r["layers"] for r in rounds[True]])
    values["trace.overhead_s"] = (
        job_list_time(rounds[True], "seconds") - job_list_time(rounds[False], "seconds")
    )
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracing.per_layer_units().items()}


def record():
    expected = {}
    for name in workloads.WORKLOADS:
        out = run_worker(name, 0, record=True)
        errors = [f"{r['job']}: {r['error']}" for r in out["jobs"] if r["error"]]
        if errors:
            raise BenchError("not recording failed jobs:\n" + "\n".join(errors))
        expected[name] = {r["job"]: r["digest"] for r in out["jobs"]}
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record()
            return 0
        if None in (args.workload, args.seed, args.seconds):
            parser.error("--workload, --seed and --seconds are required")
        rounds, deadline = run_rounds(args.workload, args.seed, args.seconds, args.trace)
        attempted, failed, problems = failures(args.workload, rounds)
        if args.trace:
            metrics = per_layer(rounds)
        else:
            metrics = end_to_end(args.workload, args.seed, rounds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    walls = lambda rs: ",".join(f"{r['wall_s']:.3f}" for r in rs)  # noqa: E731
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}"
          f" round_walls={walls(rounds[False])} traced_round_walls={walls(rounds[True])}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
