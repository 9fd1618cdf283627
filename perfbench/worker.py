"""One workload in a fresh process: set-up, then the closed loop.

Usage: python3 worker.py PLAN.json OUT.json {setup|run} SECONDS TRACE

``setup`` only loads and validates every input and reports the time from
just before ``import multistage`` until that is done. ``run`` does the same
set-up and then cycles the operations round-robin, one at a time, through
``multistage.cli.main(argv)`` until SECONDS have passed, always finishing
the round it is in. With TRACE=1 the program's public functions are wrapped
after set-up and per-layer figures are added.

Next to every timed stretch the worker times :func:`calibration`, a fixed
piece of interpreter work. The machine's speed drifts by tens of percent
over tens of seconds, and the calibration time drifts with it, so the
parent can scale each sample to a machine of fixed speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time


def calibration() -> float:
    """Seconds taken by a fixed mix of dict, tuple and float work."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(4000):
        key = (i % 97, (i * 7) % 13)
        table[key] = table.get(key, 0.0) + (i * 0.5) ** 2
        acc += sum(x * x for x in (1.0, 2.0, 3.0))
    return time.perf_counter() - t0


def setup(plan: dict) -> float:
    t0 = time.perf_counter()
    import multistage
    from multistage import MultistageError, load_bundle, mdp_from_json, sddp_from_json
    from multistage.policy import load_policy

    if os.path.dirname(os.path.abspath(multistage.__file__)) != os.path.join(plan["src"], "multistage"):
        raise SystemExit(f"multistage was imported from {multistage.__file__}, not {plan['src']}")
    for inp in plan["inputs"]:
        try:
            if inp["kind"] == "bundle":
                load_bundle(inp["path"]).validate()
            elif inp["kind"] == "policy":
                load_policy(inp["path"])
            else:
                with open(inp["path"], "r", encoding="utf-8") as fh:
                    data = json.load(fh)
                if inp["kind"] == "mdp":
                    mdp_from_json(data).validate()
                else:
                    sddp_from_json(data)
        except MultistageError:
            if not inp["malformed"]:
                raise
    return time.perf_counter() - t0


def timed_setup(plan: dict) -> dict:
    before = [calibration() for _ in range(3)]
    setup_s = setup(plan)
    return {"setup_s": setup_s, "setup_cal": before + [calibration() for _ in range(3)]}


def run(plan: dict, seconds: float, traced: bool) -> dict:
    result = timed_setup(plan)
    import multistage.cli as cli

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ops = plan["ops"]
    samples: list[list[float]] = [[] for _ in ops]
    cals: list[float] = []  # cals[i], cals[i + 1] bracket the i-th operation run
    first: list[dict | None] = [None] * len(ops)
    repeats_differ = [False] * len(ops)
    report_bytes = 0
    rounds = 0
    op_seq = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for k, op in enumerate(ops):
            gc.collect()
            cals.append(calibration())
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op_id = op_seq
            exc = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(op["argv"]))
            except (Exception, SystemExit) as e:  # an escaped error is the finding
                code, exc = None, f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            op_seq += 1
            samples[k].append(dt)
            outcome = {"exit": code, "exc": exc, "stdout": out.getvalue(), "stderr": err.getvalue()}
            report_bytes += len(outcome["stdout"])
            if first[k] is None:
                first[k] = outcome
            elif (outcome["exit"], outcome["exc"], outcome["stdout"]) != (
                    first[k]["exit"], first[k]["exc"], first[k]["stdout"]):
                repeats_differ[k] = True
        rounds += 1
    cals.append(calibration())
    result.update(rounds=rounds, samples=samples, cals=cals, outcomes=first,
                  repeats_differ=repeats_differ,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.op_id = -1
        tracer.count("cli.report_kb", report_bytes / 1024.0)
        result["per_layer"] = tracer.metrics(rounds)
        tracer.save(os.path.join(plan["dir"], "trace.npz"))
    return result


def main() -> int:
    plan_path, out_path, mode, seconds, traced = sys.argv[1:6]
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    if mode == "setup":
        result = timed_setup(plan)
    else:
        result = run(plan, float(seconds), traced == "1")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
