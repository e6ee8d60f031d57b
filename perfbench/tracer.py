"""Spans around surplus-lab's public functions, installed from outside the package.

:meth:`Tracer.install` wraps every public function and method defined in
the traced modules and rebinds each wrapped function in every
``surplus_lab`` module namespace that imported it, so calls made through
``from .samplers import ...`` are seen too.  A span holds its name, start,
end, parent span and the index of the command it ran under; spans stay in
compact arrays until :meth:`Tracer.finish` writes them out and reduces them
to self time and call count per function.

Generator functions are timed only while they build their generator; the
work of iterating it counts towards the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("lattice_paths", "local_time", "samplers", "maps", "estimators", "checks",
           "persistence", "cli")
COUNTERS = ("samplers.zero_weight_reps", "samplers.degenerate_reps", "persistence.bytes_written")


def span_self_time(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover."""
    inner = parent >= 0
    return dur - np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        self.stack: list[int] = []
        self.command = 0
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.ess: dict[str, list[float]] = {}  # ensemble -> [sum of ESS, sum of reps]
        self.pending: dict[str, list[float]] = {}  # weights drawn by the running command

    # -- spans --------------------------------------------------------------

    def wrap(self, label: str, fn, after=None, on_error=None):
        """``fn`` inside a span; ``after(result, args)`` and ``on_error(exc)`` observe it."""
        nid = len(self.names)
        self.names.append(label)
        names, starts, ends = self.name, self.start, self.end
        parents, cmds, stack = self.parent, self.cmd, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            cmds.append(tracer.command)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return span

    def install(self) -> None:
        hooks = self._hooks()
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"surplus_lab.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    label = f"{short}.{attr}"
                    wrapped[obj] = self.wrap(label, obj, **hooks.get(label, {}))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(short, obj, hooks)
        for modname, mod in list(sys.modules.items()):
            if modname == "surplus_lab" or modname.startswith("surplus_lab."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])

    def _wrap_methods(self, short: str, cls, hooks) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            label = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(label, obj, **hooks.get(label, {})))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(label, obj.__func__)))

    # -- counters at the same boundaries ---------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def add_ensemble(self, name: str, weights) -> None:
        w = np.asarray(weights, dtype=np.float64)
        acc = self.ess.setdefault(name, [0.0, 0.0])
        if w.sum() > 0:
            acc[0] += float(w.sum() ** 2 / np.sum(w * w))
        acc[1] += len(w)
        self.count("samplers.zero_weight_reps", float(np.count_nonzero(w == 0)))

    def _hooks(self) -> dict:
        def ensemble(result, args):
            kind = "uniform" if result.tilt == 0 else result.mode
            self.add_ensemble(f"{kind}.s{result.tilt}", result.weights)

        def profile(result, args):
            reps, s = args[2], args[1]
            acc = self.ess.setdefault(f"tree.s{s}", [0.0, 0.0])
            acc[0] += result.ess["tree"]
            acc[1] += reps

        def draws(kind):
            def after(result, args):
                self.pending.setdefault(f"{kind}.s{args[1]}", []).append(result[1])
            return after

        def degenerate(exc):
            if type(exc).__name__ == "DegenerateEnsembleError":
                self.count("samplers.degenerate_reps")

        def written(position):
            def after(result, args):
                size = Path(args[position]).stat().st_size
                self.count("persistence.bytes_written", float(size))
            return after

        def command_done(result, args):
            for name, weights in self.pending.items():
                self.add_ensemble(name, weights)
            self.pending.clear()

        return {
            "samplers.tilted_ensemble": {"after": ensemble},
            "estimators.profile_laws": {"after": profile},
            "samplers.sample_uniform_map": {"after": draws("map")},
            "samplers.sample_surplus_graph": {"after": draws("graph")},
            "samplers.sample_unicellular_decoration": {"on_error": degenerate},
            "samplers.sample_corners_bf": {"on_error": degenerate},
            "samplers.sample_corners_df": {"on_error": degenerate},
            "persistence.write_csv": {"after": written(0)},
            "persistence.save_map": {"after": written(1)},
            "persistence.RunManifest.save": {"after": written(1)},
            "cli.main": {"after": command_done},
        }

    # -- reduction ------------------------------------------------------------------

    def finish(self, spans_path: Path | None = None) -> dict:
        """Per-function self time and calls, the counters, and ESS per replicate."""
        name = np.asarray(self.name, dtype=np.int64)
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        if spans_path is not None:
            np.savez_compressed(spans_path, names=np.array(self.names), name=name, start=start,
                                end=end, parent=parent, command=np.asarray(self.cmd, dtype=np.int32))
        dur = end - start
        self_time = np.bincount(name, weights=span_self_time(dur, parent),
                                minlength=len(self.names))
        total_time = np.bincount(name, weights=dur, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        functions = {}
        for nid, label in enumerate(self.names):
            functions[label] = {"self_s": float(self_time[nid]), "total_s": float(total_time[nid]),
                                "calls": int(calls[nid])}
        ess = {k: (v[0] / v[1] if v[1] else 0.0) for k, v in self.ess.items()}
        return {"functions": functions, "counters": dict(self.counters), "ess_per_rep": ess,
                "spans": int(len(dur))}
