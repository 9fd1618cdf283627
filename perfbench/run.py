"""Benchmark of the ``multistage`` command line: one workload per invocation.

    python3 perfbench/run.py --workload tree-solve --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The inputs are generated from the seed
into ``.perfbench_work/<workload>/``; the program sees only those files.
Set-up is timed in several fresh processes, then one fresh worker process
runs the operations as a single closed-loop client. Every output is
checked against the benchmark's own computations, and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``). Progress and findings go to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

# One BLAS thread per process and a fixed hash seed, set before numpy is
# imported here or in a child.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
os.environ.update(THREAD_ENV)

import checks  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# Time of worker.calibration() on the reference machine: the 2-core KVM Xeon
# (2.1 GHz, Python 3.11) the bounds were set on, at its median speed. Every
# timing is reported as it would read on that machine at that speed.
REF_CAL_S = 0.0055
SETUP_PROCESSES = 4  # fresh set-up processes besides the worker; one more warms the caches
SETUP_TIMEOUT = 10  # seconds for one set-up process
RUN_TIMEOUT = 80  # seconds a worker may take beyond --seconds (last round, set-up, report)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child(plan_path: str, out_path: str, mode: str, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, out_path, mode,
           str(seconds), str(trace)]
    timeout = SETUP_TIMEOUT if mode == "setup" else seconds + RUN_TIMEOUT
    proc = subprocess.run(cmd, timeout=timeout, env=dict(os.environ),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(out_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def judge(ops, result) -> tuple[list[str], list[str]]:
    """Ids of failed operations and descriptions of wrong answers."""
    failed, wrong = [], []
    for op, outcome, differ in zip(ops, result["outcomes"], result["repeats_differ"]):
        try:
            op.check(outcome)
            if differ:
                raise checks.Wrong("repeated runs printed different reports")
        except checks.Failed as exc:
            failed.append(op.id)
            log(f"failed: {op.id}: {exc}")
        except checks.Wrong as exc:
            wrong.append(f"{op.id}: {exc}")
            log(f"WRONG: {op.id}: {exc}")
    return failed, wrong


def scaled_setup(probe: dict) -> float:
    """Set-up seconds at the reference speed, from the calibrations around it."""
    return probe["setup_s"] * REF_CAL_S / statistics.median(probe["setup_cal"])


def op_medians(ops, result, failed: set[str]) -> tuple[list[float], list[float]]:
    """Per healthy operation: median seconds as measured, and at the reference speed."""
    cals, n = result["cals"], len(ops)
    raw, scaled = [], []
    for k, (op, samples) in enumerate(zip(ops, result["samples"])):
        if op.id in failed:
            continue
        raw.append(statistics.median(samples))
        scaled.append(statistics.median(
            dt * 2 * REF_CAL_S / (cals[r * n + k] + cals[r * n + k + 1])
            for r, dt in enumerate(samples)))
    return raw, scaled


def gmean_ms(seconds: list[float]) -> float:
    return 1000.0 * math.exp(statistics.fmean(math.log(s) for s in seconds))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "multistage", "cli.py")):
        log(f"no program to measure: {src}/multistage/cli.py is missing; run from a checkout root")
        return 2

    work = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = Workload(os.path.relpath(work, root))
    WORKLOADS[args.workload](workload, args.seed)
    ops = workload.ops
    plan = {"src": src, "dir": work,
            "inputs": [vars(i) for i in workload.inputs],
            "ops": [{"id": op.id, "argv": op.argv} for op in ops]}
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    log(f"{args.workload}: seed {args.seed}, {len(workload.inputs)} inputs, {len(ops)} operations")

    setups = [child(plan_path, os.path.join(work, f"setup{k}.json"), "setup", 0, 0)
              for k in range(SETUP_PROCESSES + 1)][1:]
    result = child(plan_path, os.path.join(work, "result.json"), "run", args.seconds, args.trace)
    setups.append(result)

    failed, wrong = judge(ops, result)
    rounds = result["rounds"]
    raw, scaled = op_medians(ops, result, set(failed))
    speed = REF_CAL_S / statistics.median(result["cals"])
    log(f"{rounds} rounds; as measured: {len(raw) / sum(raw):.4f} jobs/s, job gmean "
        f"{gmean_ms(raw):.3f} ms, set-up {statistics.median(s['setup_s'] for s in setups):.4f} s; "
        f"machine speed {speed:.3f} of the reference; worker peak RSS {result['peak_rss_mb']:.1f} MB")
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(scaled_setup(s) for s in setups), "unit": "s"},
            "jobs_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "job_gmean_ms": {"value": gmean_ms(scaled), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not wrong, "attempted": rounds * len(ops),
                      "failed": rounds * len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
