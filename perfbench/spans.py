"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces each listed function in every ``multistage``
module namespace that holds it (and each listed method on its class), so
calls made inside the program are recorded as well as the top-level ones.
A span is (function, start, end, parent span, operation id); spans live
in typed arrays and are written out once, when the run ends. Counts are
taken at the same boundaries. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# layer -> (module, function or Class.method) whose calls it is made of.
# A name the program no longer has is skipped, and its layer reads 0.
LAYERS = {
    "load": [("bundle", "load_bundle"), ("bundle", "bundle_from_json"),
             ("scenario_tree", "tree_from_json"), ("policy", "load_policy"),
             ("dp_solvers", "mdp_from_json"), ("dp_solvers", "sddp_from_json")],
    "validate": [("bundle", "ProblemBundle.validate"), ("scenario_tree", "validate"),
                 ("dp_solvers", "MDPSpec.validate")],
    "costs.evaluate": [("costs", "CostSpec.evaluate")],
    "costs.holder": [("costs", "verify_holder")],
    "value_process.backward": [("value_process", "backward_tables")],
    "value_process.brute": [("value_process", "brute_force_optimum")],
    "value_process.definitional": [("value_process", "compute_v"), ("value_process", "compute_V"),
                                   ("value_process", "tail_conditional_value"),
                                   ("value_process", "iter_tails")],
    "value_process.greedy": [("value_process", "greedy_policy_from_tables")],
    "value_process.process": [("value_process", "value_process_for_policy")],
    "value_process.expected": [("value_process", "expected_value")],
    "verification.verify": [("verification", "verify_policy"),
                            ("verification", "check_submartingale")],
    "verification.dynamic": [("verification", "check_dynamic_relations")],
    "dp_solvers.backward_induction": [("dp_solvers", "mdp_backward_induction")],
    "dp_solvers.value_iteration": [("dp_solvers", "value_iteration")],
    "dp_solvers.sddp": [("dp_solvers", "sddp_recursion")],
    "cli": [("cli", "main")],
}

# Per-layer metrics: (name, unit, layer whose self time it sums, or None for a count).
METRICS = [
    ("load.ms", "ms", "load"), ("load.calls", "count", None),
    ("validate.ms", "ms", "validate"),
    ("costs.evaluate_ms", "ms", "costs.evaluate"), ("costs.evaluate_calls", "count", None),
    ("costs.holder_ms", "ms", "costs.holder"),
    ("value_process.backward_ms", "ms", "value_process.backward"),
    ("value_process.table_entries", "count", None),
    ("value_process.brute_ms", "ms", "value_process.brute"),
    ("value_process.policies_scanned", "count", None),
    ("value_process.definitional_ms", "ms", "value_process.definitional"),
    ("value_process.tails", "count", None),
    ("value_process.greedy_ms", "ms", "value_process.greedy"),
    ("value_process.process_ms", "ms", "value_process.process"),
    ("value_process.expected_ms", "ms", "value_process.expected"),
    ("verification.verify_ms", "ms", "verification.verify"),
    ("verification.dynamic_ms", "ms", "verification.dynamic"),
    ("verification.records", "count", None),
    ("dp_solvers.backward_induction_ms", "ms", "dp_solvers.backward_induction"),
    ("dp_solvers.value_iteration_ms", "ms", "dp_solvers.value_iteration"),
    ("dp_solvers.sddp_ms", "ms", "dp_solvers.sddp"),
    ("dp_solvers.vi_iterations", "count", None),
    ("cli.self_ms", "ms", "cli"),
    ("cli.report_kb", "KB", None),
]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _table_entries(args, kwargs, result):
    """v and V entries of the recursion: grid histories through and before each node."""
    tree, cls = _arg(args, kwargs, 0, "tree"), _arg(args, kwargs, 2, "cls")
    total = 0
    for n in tree.nodes:
        head = 1
        for i in tree.path_nodes(n.id)[:-1]:
            head *= len(cls.feasible[i])
        total += head * (len(cls.feasible[n.id]) + 1)
    return total


# function name -> (count metric, count taken from the call's arguments and result)
COUNTS = {
    "backward_tables": ("value_process.table_entries", _table_entries),
    "brute_force_optimum": ("value_process.policies_scanned",
                            lambda a, k, r: _arg(a, k, 2, "cls").count(_arg(a, k, 0, "tree"))),
    "check_submartingale": ("verification.records", lambda a, k, r: len(r.per_stage_slack)),
    "check_dynamic_relations": ("verification.records", lambda a, k, r: len(r.records)),
    "value_iteration": ("dp_solvers.vi_iterations", lambda a, k, r: r.iterations),
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.layer_of: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        self.counts: dict[str, float] = {}

    def count(self, metric: str, value: float) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + value

    def wrap(self, fn, label: str, layer: str):
        nid = len(self.labels)
        self.labels.append(label)
        self.layer_of.append(layer)
        name_a, parent_a, op_a, start_a, end_a = self.name, self.parent, self.op, self.start, self.end
        clock = time.perf_counter
        tracer = self
        short = label.rsplit(".", 1)[-1]
        counted = COUNTS.get(short)

        if inspect.isgeneratorfunction(fn):
            # one span per step of the generator; each item yielded is a tail
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = len(start_a)
                    name_a.append(nid); parent_a.append(tracer.current); op_a.append(tracer.op_id)
                    start_a.append(0.0); end_a.append(0.0)
                    prev = tracer.current
                    tracer.current = sid
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        tracer.current = prev
                        start_a[sid] = t0
                        end_a[sid] = t1
                    tracer.count("value_process.tails", 1)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            sid = len(start_a)
            name_a.append(nid); parent_a.append(tracer.current); op_a.append(tracer.op_id)
            start_a.append(0.0); end_a.append(0.0)
            prev = tracer.current
            tracer.current = sid
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.current = prev
                start_a[sid] = t0
                end_a[sid] = t1
            if counted is not None:
                tracer.count(counted[0], counted[1](args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function in every namespace that holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "multistage" or name.startswith("multistage.")]
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                mod = importlib.import_module(f"multistage.{modname}")
                if "." in attr:
                    owner_name, meth = attr.split(".")
                    owner = getattr(mod, owner_name, None)
                    orig = None if owner is None else owner.__dict__.get(meth)
                    if orig is None:
                        continue
                    setattr(owner, meth, self.wrap(orig, f"{modname}.{attr}", layer))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                w = self.wrap(orig, f"{modname}.{attr}", layer)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, w)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str) -> None:
        np.savez(path, labels=np.asarray(self.labels), layers=np.asarray(self.layer_of),
                 **self.arrays())

    def metrics(self, rounds: int) -> dict[str, dict]:
        """Per-layer self time and counts of the timed operations, per round."""
        a = self.arrays()
        timed = a["op"] >= 0
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        layer_ids = {}
        for nid, layer in enumerate(self.layer_of):
            layer_ids.setdefault(layer, []).append(nid)

        def in_layer(layer):
            return np.isin(a["name"], layer_ids.get(layer, [])) & timed

        counts = dict(self.counts)
        counts["costs.evaluate_calls"] = int(in_layer("costs.evaluate").sum())
        load = in_layer("load")
        parent_is_load = np.zeros(len(dur), dtype=bool)
        parent_is_load[has_parent] = load[a["parent"][has_parent]]
        counts["load.calls"] = int((load & ~parent_is_load).sum())
        out = {}
        for name, unit, layer in METRICS:
            if layer is not None:
                value = float(self_time[in_layer(layer)].sum()) * 1000.0 / rounds
            else:
                total = counts.get(name, 0)
                value = total / rounds
                if unit == "count" and total % rounds == 0:
                    value = int(total // rounds)
            out[name] = {"value": value, "unit": unit}
        return out
