"""Spans around mcrsp's public functions, installed from outside the package.

mcrsp's modules import each other's functions by name (`from .statevec
import project`), so a wrapper must replace the function in every module
namespace that holds it, not only where it is defined.  `Tracer.install`
does that and `Tracer.uninstall` puts the originals back.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
the traced phase runs and written out at the end; a layer's self time is a
span's duration minus the time its child spans cover.  Counters that need
the result of a call (records walked, layers tried, bytes written) are
taken after the call returns, inside a `bench.hook` span, so that their
cost is charged to neither the call nor its caller.

`mcrsp` must be importable before this module is imported.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from array import array

import numpy as np
from mcrsp.oracle import candidate_layers

# The functions whose calls become spans, by mcrsp module; None means every
# public function of the module.
SPANNED = {
    "statevec": ("project", "apply", "tensor", "fidelity"),
    "protocol": ("build_channels", "build_target", "alice_basis",
                 "alice_correction", "triplet_unitary"),
    "engine": ("enumerate_branches", "monte_carlo", "write_branch_csv"),
    "oracle": ("derive_correction_table", "compare_with_published"),
    "metrics": None,
    "cli": ("main",),
}
PROTOCOL_SETUP = ("protocol.build_target", "protocol.alice_basis",
                  "protocol.alice_correction", "protocol.triplet_unitary")
HOOK = "bench.hook"


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(
            ("max_amps", "records", "classes", "csv_bytes", "mc_trials",
             "layers_tried", "alloc_peak_mib"), 0)
        self._restore = []

    def _span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, hook):
        nid = self._span_id(name)
        hook_id = self._span_id(HOOK)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is _state_size:
                # Too cheap and too frequent to be worth a span of its own.
                hook(self.counters, args, result)
            elif hook is not None:
                h = len(start)
                name_id.append(hook_id)
                parent.append(stack[-1])
                end.append(0.0)
                start.append(clock())
                hook(self.counters, args, result)
                end[h] = clock()
            return result
        return traced

    def install(self) -> None:
        """Replace each spanned function in every mcrsp namespace."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "mcrsp" or key.startswith("mcrsp.")]
        for short, names in SPANNED.items():
            module = sys.modules[f"mcrsp.{short}"]
            if names is None:
                names = [n for n in module.__all__
                         if inspect.isfunction(getattr(module, n))]
            for fname in names:
                original = getattr(module, fname)
                if fname == "enumerate_branches":
                    original_call = _measure_alloc(original, self.counters)
                else:
                    original_call = original
                wrapped = self._wrap(f"{short}.{fname}", original_call,
                                     _HOOKS.get(f"{short}.{fname}"))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def write(self, path) -> None:
        """Write every span: name, start, end (perf_counter seconds), parent
        index (-1 for a root span)."""
        name_id, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics, per op over `ops` traced ops."""
        name_id, parent, start, end = self._arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        total_s = np.bincount(name_id, weights=dur, minlength=k)

        def col(array_, name):
            i = self._ids.get(name)
            return float(array_[i]) if i is not None else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        out = {}
        for f in ("project", "apply", "tensor", "fidelity"):
            out[f"statevec.{f}.calls"] = col(calls, f"statevec.{f}") / ops
            out[f"statevec.{f}.self_s"] = col(self_s, f"statevec.{f}") / ops
        for f in ("project", "apply"):
            out[f"statevec.{f}.us_per_call"] = 1e6 * ratio(
                col(self_s, f"statevec.{f}"), col(calls, f"statevec.{f}"))
        out["statevec.max_amps"] = float(c["max_amps"])
        out["protocol.build_channels.calls"] = col(calls, "protocol.build_channels") / ops
        out["protocol.build_channels.self_s"] = col(self_s, "protocol.build_channels") / ops
        out["protocol.setup.self_s"] = sum(col(self_s, n) for n in PROTOCOL_SETUP) / ops
        out["engine.enumerate.self_s"] = col(self_s, "engine.enumerate_branches") / ops
        out["engine.records"] = c["records"] / ops
        out["engine.us_per_record"] = 1e6 * ratio(
            col(total_s, "engine.enumerate_branches"), c["records"])
        out["engine.class_ratio"] = ratio(c["classes"], c["records"])
        out["engine.csv.self_s"] = col(self_s, "engine.write_branch_csv") / ops
        out["engine.csv.bytes"] = c["csv_bytes"] / ops
        out["engine.mc.self_s"] = col(self_s, "engine.monte_carlo") / ops
        out["engine.mc.trials"] = c["mc_trials"] / ops
        out["oracle.derive.self_s"] = col(self_s, "oracle.derive_correction_table") / ops
        out["oracle.layers_tried"] = c["layers_tried"] / ops
        derivations = col(calls, "oracle.derive_correction_table")
        out["oracle.useful_ratio"] = ratio(64 * derivations, c["layers_tried"])
        out["oracle.us_per_layer"] = 1e6 * ratio(
            col(total_s, "oracle.derive_correction_table"), c["layers_tried"])
        out["oracle.compare.self_s"] = col(self_s, "oracle.compare_with_published") / ops
        out["metrics.self_s"] = sum(float(self_s[i]) for n, i in self._ids.items()
                                    if n.startswith("metrics.")) / ops
        out["cli.main.self_s"] = col(self_s, "cli.main") / ops
        return out


def _measure_alloc(fn, counters):
    """fn, recording its peak traced allocation whenever tracemalloc runs."""
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        if not tracemalloc.is_tracing():
            return fn(*args, **kwargs)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return fn(*args, **kwargs)
        finally:
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
            counters["alloc_peak_mib"] = max(counters["alloc_peak_mib"], peak)
    return measured


def _state_size(counters, args, result):
    state = result[0] if isinstance(result, tuple) else result
    size = max(args[0].amps.size, getattr(state, "amps", args[0].amps).size)
    if size > counters["max_amps"]:
        counters["max_amps"] = size


def _enumerated(counters, args, report):
    counters["records"] += len(report.branches)
    counters["classes"] += len({(b.key, b.ancilla) for b in report.branches})


def _csv_written(counters, args, result):
    counters["csv_bytes"] += args[1].tell()


def _sampled(counters, args, result):
    counters["mc_trials"] += result.trials


def _derived(counters, args, table):
    order = {layer: i for i, layer in enumerate(candidate_layers(), start=1)}
    counters["layers_tried"] += sum(order[layer] for layer in table.entries.values())


_HOOKS = {
    "statevec.project": _state_size,
    "statevec.apply": _state_size,
    "statevec.tensor": _state_size,
    "statevec.fidelity": _state_size,
    "engine.enumerate_branches": _enumerated,
    "engine.write_branch_csv": _csv_written,
    "engine.monte_carlo": _sampled,
    "oracle.derive_correction_table": _derived,
}
