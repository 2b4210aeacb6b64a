"""Outside-in tracer for qvmart's seven modules.

``Tracer.install()`` replaces every public function of each layer module
(its ``__all__``, or its public names when it has none), plus
``SeedStream.substream`` and ``BrownianModel.path_at_level``, by a wrapper
that records one span per call: function, start, end and parent span.
Every import site is patched: each ``qvmart.*`` module global bound to an
original function is rebound to its wrapper, which covers the package's
re-exports and the names ``cli`` and ``counterexample`` import with
``from ... import``.  Private helpers are not wrapped, so their time is
self time of the public function that called them.  Nothing under
``src/`` changes; ``uninstall()`` restores the originals.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import resource
import sys
import time
from array import array

import numpy as np

LAYERS = ("simulate", "path_core", "strategy", "wealth", "inference", "counterexample", "cli")

# Methods traced besides the module-level functions: (layer, class, method, label).
METHODS = (
    ("simulate", "SeedStream", "substream", "substream"),
    ("simulate", "BrownianModel", "path_at_level", "bridge"),
)

# Functions a per-layer metric names.  Installing fails if one is missing, so
# a rename cannot silently zero a metric.
NAMED = (
    "simulate.substream",
    "path_core.save_ensemble", "path_core.load_ensemble", "path_core.qv_matrix",
    "strategy.evaluate", "strategy.pi_for_ensemble",
    "counterexample.utility_sweep", "counterexample.utility_bound_terms_family",
    "wealth.terminal_log_wealth_jumps", "wealth.terminal_log_wealth_continuous",
    "inference.estimate_alpha", "inference.optimality_gap",
    "cli.main",
)

_HARNESS = len(LAYERS)  # layer index for time and memory outside any span
_KB_PER_MB = 1024.0


def public_functions(module) -> dict[str, object]:
    """Public functions a module defines: its ``__all__``, else non-underscore names."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {
        n: getattr(module, n) for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    }


class Tracer:
    """Spans of every wrapped call, kept in preallocated arrays."""

    def __init__(self, capacity: int = 1 << 20):
        self.labels: list[str] = []
        self.layer_of: list[int] = []
        self.cap = capacity
        # Preallocated so that span storage does not show as layer memory.
        self.start = array("d", bytes(8 * capacity))
        self.end = array("d", bytes(8 * capacity))
        self.fn = array("i", bytes(4 * capacity))
        self.parent = array("i", bytes(4 * capacity))
        self.n = 0
        self.stack: list[int] = []
        self.rss_gain_kb = [0] * (len(LAYERS) + 1)
        self.bytes_written = [0] * (len(LAYERS) + 1)
        self.bytes_read = [0] * (len(LAYERS) + 1)
        # (strategy id, path id) of each profile entered from counterexample
        self.cx_keys = array("q", bytes(16 * capacity))
        self.n_cx = 0
        self._last_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    @classmethod
    def install(cls) -> "Tracer":
        tr = cls()
        mods = {layer: importlib.import_module(f"qvmart.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in mods.items():
            for name, fn in public_functions(mod).items():
                wrappers[id(fn)] = tr._wrap(fn, f"{layer}.{name}", layer)
        patches = []
        for layer, cls_name, meth, label in METHODS:
            owner = getattr(mods[layer], cls_name, None)
            fn = getattr(owner, meth, None)
            if fn is not None:
                patches.append((owner, meth, tr._wrap(fn, f"{layer}.{label}", layer)))
        missing = sorted(set(NAMED) - set(tr.labels))
        if missing:
            raise RuntimeError(f"per-layer metrics name functions that no longer exist: {missing}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qvmart" or mod_name.startswith("qvmart.")):
                continue
            patches += [(mod, attr, wrappers[id(val)]) for attr, val in vars(mod).items()
                        if id(val) in wrappers and not attr.startswith("__")]
        patches.append((pathlib.Path, "write_text",
                        tr._count_io(pathlib.Path.write_text, tr.bytes_written)))
        patches.append((pathlib.Path, "read_text",
                        tr._count_io(pathlib.Path.read_text, tr.bytes_read)))
        for owner, attr, new in patches:
            tr._restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        return tr

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _active_layer(self) -> int:
        return self.layer_of[self.fn[self.stack[-1]]] if self.stack else _HARNESS

    def _count_io(self, orig, counter: list[int]):
        def counted(path, *args, **kwargs):
            out = orig(path, *args, **kwargs)
            counter[self._active_layer()] += path.stat().st_size
            return out
        return counted

    def _rss_tick(self, layer: int) -> None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if rss > self._last_rss:
            self.rss_gain_kb[layer] += rss - self._last_rss
            self._last_rss = rss

    def _grow(self) -> None:
        for arr in (self.start, self.end, self.fn, self.parent):
            arr.extend(arr[: self.cap])
        self.cap *= 2

    def _wrap(self, orig, label: str, layer: str):
        fid = len(self.labels)
        self.labels.append(label)
        self.layer_of.append(LAYERS.index(layer))
        layer_idx = self.layer_of[fid]
        cx_layer = LAYERS.index("counterexample")
        is_evaluate = label == "strategy.evaluate"
        stack, perf = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            i = self.n
            if i == self.cap:
                self._grow()
            self.n = i + 1
            parent = stack[-1] if stack else -1
            self.fn[i] = fid
            self.parent[i] = parent
            self._rss_tick(self.layer_of[self.fn[parent]] if parent >= 0 else _HARNESS)
            if is_evaluate and parent >= 0 and self.layer_of[self.fn[parent]] == cx_layer:
                # A strategy profile entered from counterexample: the key is
                # the (strategy, path) pair, both alive for the whole job.
                k = 2 * self.n_cx
                if k == len(self.cx_keys):
                    self.cx_keys.extend(self.cx_keys)
                self.cx_keys[k] = id(args[0])
                self.cx_keys[k + 1] = id(args[1] if len(args) > 1 else kwargs["path"])
                self.n_cx += 1
            stack.append(i)
            self.start[i] = perf()
            try:
                return orig(*args, **kwargs)
            finally:
                self.end[i] = perf()
                stack.pop()
                self._rss_tick(layer_idx)

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", label)
        wrapper.__qualname__ = getattr(orig, "__qualname__", label)
        wrapper.__doc__ = orig.__doc__
        return wrapper

    # -- results ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        n = self.n
        return {
            "start": np.frombuffer(self.start, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n).copy(),
            "fn": np.frombuffer(self.fn, dtype=np.int32, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
        }

    def save(self, target: pathlib.Path, job_id: int) -> None:
        """Write every span (name, start, end, parent, job id) to an .npz file."""
        sp = self.spans()
        np.savez_compressed(
            target, labels=np.array(self.labels), job=np.full(self.n, job_id, dtype=np.int32), **sp
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer self time, memory gain and bytes; per-function calls and time."""
        sp = self.spans()
        fn, parent = sp["fn"], sp["parent"]
        dur = sp["end"] - sp["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=fn.size)
        self_t = dur - child
        layer = np.asarray(self.layer_of, dtype=np.int64)[fn]
        layer_self = np.bincount(layer, weights=self_t, minlength=len(LAYERS))
        nf = len(self.labels)
        calls = np.bincount(fn, minlength=nf)
        # Inclusive time counts only calls not nested directly in a call of
        # the same function (strategy.evaluate recurses for band strategies).
        outer = ~nested | (fn[np.where(nested, parent, 0)] != fn)
        incl = np.bincount(fn[outer], weights=dur[outer], minlength=nf)
        fid = {label: k for k, label in enumerate(self.labels)}
        out: dict[str, float] = {}
        for k, name in enumerate(LAYERS):
            out[f"{name}.self_s"] = float(layer_self[k])
            out[f"{name}.rss_gain_mb"] = self.rss_gain_kb[k] / _KB_PER_MB
        for label in NAMED:
            out[f"{label}.calls"] = int(calls[fid[label]])
            out[f"{label}.s"] = float(incl[fid[label]])
        pc = LAYERS.index("path_core")
        out["path_core.bytes_written"] = self.bytes_written[pc]
        out["path_core.bytes_read"] = self.bytes_read[pc]
        out["cli.artifact_bytes"] = self.bytes_written[LAYERS.index("cli")]
        keys = np.frombuffer(self.cx_keys, dtype=np.int64, count=2 * self.n_cx).reshape(-1, 2)
        out["strategy.profile_useful_ratio"] = (
            len(np.unique(keys, axis=0)) / self.n_cx if self.n_cx else 0.0
        )
        return out
