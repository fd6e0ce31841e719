"""Per-layer spans recorded from outside the program.

The tracer swaps functions of the qubitsim modules for wrappers that record
a span (layer, start, end, parent) around each call, and restores the
originals afterwards. No program code changes. A function that no longer
exists (after a refactor deletes it) is reported as an absent layer and the
run goes on.

Spans live in compact in-memory arrays and are written out once, at the end
of the run. A span opened on a pool thread with nothing open on that thread
takes the span currently open on the main thread (the `--jobs` pool call) as
its parent.

Self time is a span's duration minus the part of it that its children cover.
Children on one thread never overlap, so for them that is the sum of their
durations; for pool-thread children it is the union of their intervals.
Summed over all spans, self time equals the traced wall time plus the time
during which pool threads ran at once; that extra is reported as
trace.thread_overlap_s.
"""

import functools
import threading
import time
from array import array

import numpy as np

OP = "bench.op"

# (layer, module, attribute). Several functions may feed one layer.
WRAPPED = (
    ("cli.parse", "qubitsim.cli", "build_parser"),
    ("cli.columns", "qubitsim.cli", "_columns_json"),
    ("cli.render_csv", "qubitsim.cli", "_render_csv"),
    ("cli.render_json", "qubitsim.cli", "_render_json"),
    ("cli.deliver", "qubitsim.cli", "_deliver"),
    ("cli.jobs_pool", "qubitsim.cli", "_map_chunks"),
    ("dynamics.build", "qubitsim.dynamics", "_superoperator"),
    ("dynamics.build", "qubitsim.dynamics", "_step_propagator"),
    ("dynamics.integrate_static", "qubitsim.dynamics", "_integrate_static"),
    ("dynamics.integrate_driven", "qubitsim.dynamics", "_integrate_stepwise"),
    ("dynamics.check", "qubitsim.dynamics", "_series_from_trajectory"),
    ("protocols.superdense", "qubitsim.protocols", "superdense_channel_sweep"),
    ("protocols.superdense", "qubitsim.protocols", "superdense_success_probability"),
    ("protocols.superdense", "qubitsim.protocols", "superdense_encode"),
    ("protocols.superdense", "qubitsim.protocols", "superdense_decode"),
    ("protocols.superdense", "qubitsim.protocols", "damp_first_qubit_coherence"),
    ("protocols.ramsey", "qubitsim.protocols", "ramsey_scan"),
    ("qstate.density_matrix", "qubitsim.qstate", "DensityMatrix.__init__"),
    ("interference.intensity", "qubitsim.interference", "quantum_intensity"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in WRAPPED))

# Work counted at a layer boundary: layer -> (counter, f(args, result)).
_COUNTERS = {
    "cli.render_csv": ("cli.render_bytes", lambda args, result: len(result)),
    "cli.render_json": ("cli.render_bytes", lambda args, result: len(result)),
    "cli.deliver": ("cli.deliver_bytes", lambda args, result: len(args[0])),
    "dynamics.integrate_static": ("dynamics.steps", lambda args, result: result.shape[0] - 1),
    "dynamics.integrate_driven": ("dynamics.steps", lambda args, result: result.shape[0] - 1),
}
COUNTERS = tuple(dict.fromkeys(counter for counter, _ in _COUNTERS.values()))


class Tracer:
    def __init__(self, modules):
        self._modules = modules  # name -> module object, every qubitsim module
        self.names = [OP, *LAYERS]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.pool_thread = array("b")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._main_ident = threading.get_ident()
        self._patches = []  # (owner, attribute, original)
        self._plan_patches()

    # -- recording

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id):
        stack = self._stack()
        on_pool = stack is not self._main_stack
        if stack:
            parent = stack[-1]
        elif on_pool and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.pool_thread.append(on_pool)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def op(self, call):
        """Run call() as one benchmark operation (the root span)."""
        idx = self.open(0)
        try:
            return call()
        finally:
            self.close(idx)

    # -- patching

    def _wrap(self, layer, fn):
        name_id = self._name_id[layer]
        counter, count = _COUNTERS.get(layer, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.counts[counter] += count(args, result)
            if layer == "cli.parse" and fn.__name__ == "build_parser":
                result.parse_args = tracer._wrap(layer, result.parse_args)
            return result

        return wrapper

    def _plan_patches(self):
        for layer, module_name, attribute in WRAPPED:
            owner = self._modules[module_name]
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            wrapper = self._wrap(layer, original)
            if path:  # a method: patch the class once, every caller sees it
                self._patches.append((owner, leaf, original, wrapper))
                continue
            # A function: patch every qubitsim module that bound the same object.
            for module in self._modules.values():
                if getattr(module, leaf, None) is original:
                    self._patches.append((module, leaf, original, wrapper))

    def install(self):
        for owner, leaf, _, wrapper in self._patches:
            setattr(owner, leaf, wrapper)

    def uninstall(self):
        for owner, leaf, original, _ in self._patches:
            setattr(owner, leaf, original)

    # -- results

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "pool_thread": np.frombuffer(self.pool_thread, dtype=np.int8).copy(),
        }

    def summary(self):
        """Per-layer self time and calls, plus wall, unattributed and overlap totals."""
        a = self.arrays()
        n = a["name"].size
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        # Children from pool threads may overlap: count their union once.
        overlap = 0.0
        cross = has_parent & (a["pool_thread"] == 1)
        for p in np.unique(a["parent"][cross]):
            kids = np.flatnonzero(a["parent"] == p)
            union = _union_length(a["start"][kids], a["end"][kids])
            overlap += covered[p] - union
            covered[p] = union
        self_time = dur - covered
        per_name = np.bincount(a["name"], weights=self_time, minlength=len(self.names))
        calls = np.bincount(a["name"], minlength=len(self.names))
        is_op = a["name"] == 0
        return {
            "self_s": {name: float(per_name[i]) for i, name in enumerate(self.names)},
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "counts": dict(self.counts),
            "wall_s": float(dur[is_op].sum()),
            "thread_overlap_s": float(overlap),
            "spans": int(n),
            "absent": list(self.absent),
        }


def _union_length(starts, ends):
    order = np.argsort(starts)
    total, cur_start, cur_end = 0.0, None, None
    for s, e in zip(starts[order], ends[order]):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
