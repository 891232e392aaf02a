"""Outside-in tracer for the tunnelmol layers.

`Tracer.install()` replaces every public function, and every public method,
classmethod and staticmethod of the public classes, defined in the six
library modules with a wrapper that records a span.  Functions are
replaced wherever a `tunnelmol` module binds them, so calls between
modules (the command line front end calling `propagator_closed_form`, say)
are seen too.  Properties and underscore names are left alone; their time
counts as the self time of the public caller.  `solve_ivp` as bound in
`tunnelmol.families` gets a counting wrapper without a span, which sums the
right-hand-side evaluations of the family ODE.  `uninstall()` puts every
original back.

Spans are kept in memory as (name, start, end, parent) and written out by
`write_spans`.  A span's self time is its duration minus the durations of
its direct children; calls nest, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("ptm", "channels", "families", "histories", "trajectories", "info_flow")
_BOUND_IN = ("tunnelmol",) + tuple(f"tunnelmol.{m}" for m in LAYERS + ("cli",))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, seconds in children]
        self.counters = Counter()
        self._stack = [-1]
        self._active = Counter()  # open spans per name
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], 0.0])
        self._stack.append(idx)
        self._active[name] += 1
        return idx

    def _exit(self, idx: int):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]
        self._stack.pop()
        self._active[span[0]] -= 1

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if hook is not None:
                hook(self, args, out)
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = {name: importlib.import_module(name) for name in _BOUND_IN}
        replacement = {}
        for layer in LAYERS:
            mod = modules[f"tunnelmol.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacement[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_methods(layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    self._patch(mod, attr, replacement[obj])
        families = modules["tunnelmol.families"]
        self._patch(families, "solve_ivp", _counting_solve_ivp(self, families.solve_ivp))

    def _install_methods(self, layer: str, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def summary(self) -> dict:
        """calls, total span seconds and self seconds per span name."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, start, end, _, child_s in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s
        return dict(out)

    def write_spans(self, path: Path):
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for idx, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def _counting_solve_ivp(tracer: Tracer, solve_ivp):
    @functools.wraps(solve_ivp)
    def wrapper(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        tracer.counters["families.ode_nfev"] += int(sol.nfev)
        return sol

    return wrapper


# Counters that need an argument or a result, keyed by span name.


def _tensor_bytes(tracer, args, out):
    # one complex128 coefficient 4-vector per pair of histories: 64 * 4^f bytes
    tracer.counters["histories.tensor_bytes_computed"] += 64 * 4 ** args[0].f


def _flips(tracer, args, out):
    tracer.counters["trajectories.flips"] += out.n_flips


def _chunk(tracer, args, out):
    if tracer.active("trajectories.sample_trajectory"):
        tracer.counters["trajectories.chunks"] += 1


def _propagator(tracer, args, out):
    if tracer.active("info_flow.quadratic_information"):
        tracer.counters["info_flow.quadratic_information.propagator_calls"] += 1


_HOOKS = {
    "histories.decoherence_functional": _tensor_bytes,
    "trajectories.sample_trajectory": _flips,
    "families.FamilyTrajectory.kappa_at": _chunk,
    "ptm.propagator_closed_form": _propagator,
}
