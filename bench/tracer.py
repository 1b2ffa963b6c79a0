"""
Outside-in trace of bztflow, installed from the benchmark's own files.

`from .thermo import tau_from_speed` binds a second name to the function in
the importing module, so wrapping `thermo.tau_from_speed` alone would miss
the calls made from `fan` and `wavecurves`.  The tracer therefore rebinds a
traced function under every module attribute that refers to it, wraps the
module-level scipy bindings (`brentq`, `quad`, `solve_ivp`) of each traced
module under that module's name, and wraps the objective or integrand they
receive to count evaluations.  Every binding is restored on exit, and a run
without the tracer sees the original objects (`assert_untraced`).

Each traced call is a span: calls, inclusive time and self time (inclusive
time less the time of traced calls made inside it) are kept per name.
"""

import functools
import inspect
import time
import warnings
from collections import defaultdict

from scipy.integrate import IntegrationWarning

from bztflow import fan, selfsimilar, shocks, thermo, wavecurves

TRACED_MODULES = (thermo, shocks, fan, wavecurves, selfsimilar)

# methods traced under their module's name (wavecurves.fan_state, ...)
TRACED_METHODS = ((wavecurves.RampWaveContext, ("fan_state", "tail_state")),)

# the solver bindings each module imports from scipy
SOLVER_BINDINGS = ("brentq", "quad", "solve_ivp")

# calls whose argument repeats within one case are counted separately
REPEAT_TRACKED = {"thermo.inflection_roots"}

_MARK = "__bench_traced__"


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _marked(obj):
    return getattr(obj, _MARK, False)


def assert_untraced():
    """Raise if any traced binding is still a tracer wrapper."""
    for module in TRACED_MODULES:
        for name, obj in vars(module).items():
            if _marked(obj):
                raise RuntimeError(f"trace left installed: "
                                   f"{module.__name__}.{name}")
    for cls, names in TRACED_METHODS:
        for name in names:
            if _marked(vars(cls)[name]):
                raise RuntimeError(f"trace left installed: "
                                   f"{cls.__name__}.{name}")


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    spans[name] = [calls, inclusive_s, self_s]; counters[name] = int.
    Calls of selfsimilar.evaluate are kept per solution system.
    """

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self._stack = []
        self._seen = set()
        self._saved = []

    # -- case bookkeeping ---------------------------------------------------
    def begin_case(self):
        """Start a new case: repeat tracking restarts from an empty set."""
        self._seen.clear()

    # -- spans ---------------------------------------------------------------
    def _span(self, name, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            rec = self.spans[name]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - child

    def _wrap_function(self, name, fn):
        tracer = self
        if name in REPEAT_TRACKED:
            def wrapper(*args, **kwargs):
                key = tuple(getattr(a, "gamma", a) for a in args)
                if key in tracer._seen:
                    tracer.counters[name + ".repeats"] += 1
                tracer._seen.add(key)
                return tracer._span(name, fn, args, kwargs)
        elif name == "selfsimilar.evaluate":
            def wrapper(solution, *args, **kwargs):
                return tracer._span(f"{name}.{solution.system}", fn,
                                    (solution,) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer._span(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def _counted(self, counter, fn):
        counters = self.counters

        def objective(*args):
            counters[counter] += 1
            return fn(*args)
        return objective

    def _wrap_solver(self, prefix, kind, fn):
        tracer = self
        name = f"{prefix}.{kind}"
        if kind == "brentq":
            def wrapper(f, *args, **kwargs):
                f = tracer._counted(name + ".fevals", f)
                return tracer._span(name, fn, (f,) + args, kwargs)
        elif kind == "quad":
            def wrapper(func, *args, **kwargs):
                func = tracer._counted(name + ".integrand_calls", func)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", IntegrationWarning)
                    out = tracer._span(name, fn, (func,) + args, kwargs)
                tracer.counters[name + ".warnings"] += sum(
                    issubclass(w.category, IntegrationWarning)
                    for w in caught)
                return out
        else:
            def wrapper(*args, **kwargs):
                res = tracer._span(name, fn, args, kwargs)
                tracer.counters[name + ".nfev"] += res.nfev
                tracer.counters[name + ".steps"] += len(res.t) - 1
                return res
        return functools.wraps(fn)(wrapper)

    # -- install / restore ---------------------------------------------------
    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(new, _MARK, True)
        setattr(owner, attr, new)

    def __enter__(self):
        assert_untraced()
        # keyed by identity: a re-exported name is the same function object
        wrappers = {id(fn): self._wrap_function(f"{_short(module)}.{name}", fn)
                    for module in TRACED_MODULES
                    for name, fn in _public_functions(module)}
        for module in TRACED_MODULES:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._rebind(module, attr, wrappers[id(obj)])
                elif attr in SOLVER_BINDINGS:
                    self._rebind(module, attr,
                                 self._wrap_solver(_short(module), attr, obj))
        for cls, names in TRACED_METHODS:
            prefix = _short(inspect.getmodule(cls))
            for name in names:
                self._rebind(cls, name, self._wrap_function(
                    f"{prefix}.{name}", vars(cls)[name]))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
