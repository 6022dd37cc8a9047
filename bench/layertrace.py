"""Per-layer tracing from outside the program.

`Tracer.install` replaces every module binding of each public function of
the `dqpassivity` layer modules with a timing wrapper. `from .x import f`
copies the binding into the importing module, so each copy gets its own
wrapper; all copies of one function record under the name of the module
that defines it (`powerflow.solve_powerflow`, whether `passcheck` or `cli`
made the call). `uninstall` puts the original bindings back.

A wrapper records calls, inclusive time and self time (inclusive time minus
the inclusive time of wrapped callees), plus derived counters: computed
floating-point operations from argument shapes, sweep points and RK4 steps
from the returned reports, and distinct `NetworkCase` arguments per item.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

PACKAGE = "dqpassivity"
LAYERS = ("netcase", "powerflow", "dqstamp", "polarmodels", "passcheck", "passivate", "cli")

# The CLI module's only entry point; its cmd_* helpers are part of main's self time.
CLI_PUBLIC = ("main",)

# Public methods traced in addition to module-level functions.
METHODS = (("polarmodels", "RationalLF", "tf"),)


def _gflop_eigvalsh(args, kwargs, result):
    # hermitian_min_eig(h): eigvalsh on the 2m x 2m real embedding,
    # eigenvalues only (tridiagonal reduction), 4/3 N^3 with N = 2m.
    h = args[0] if args else kwargs["h"]
    n = 2 * h.shape[0]
    return {"gflop_computed": 4.0 / 3.0 * n**3 / 1e9}


def _gflop_eval_tf(args, kwargs, result):
    # eval_tf(ss, s): complex LU of sI - A (8/3 n^3), two triangular solves
    # with m right-hand sides (8 n^2 m) and the complex product C X (8 p n m).
    ss = args[0] if args else kwargs["ss"]
    n, m, p = ss.n_states, ss.n_inputs, ss.n_outputs
    return {"gflop_computed": (8.0 / 3.0 * n**3 + 8.0 * n * n * m + 8.0 * p * n * m) / 1e9}


def _sweep_points(args, kwargs, result):
    return {"points": float(result.n_points)}


def _rk4_steps(args, kwargs, result):
    return {"steps": float(result.n_steps)}


EXTRAS = {
    "passcheck.hermitian_min_eig": _gflop_eigvalsh,
    "dqstamp.eval_tf": _gflop_eval_tf,
    "passcheck.sweep_psd": _sweep_points,
    "passcheck.simulate_dissipation": _rk4_steps,
}

# Functions whose NetworkCase argument is counted for the unique ratio.
DISTINCT_CASE = ("powerflow.solve_powerflow",)


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    distinct: int = 0  # distinct NetworkCase arguments, counted per item
    extra: dict[str, float] = field(default_factory=dict)
    seen: set = field(default_factory=set)


class Tracer:
    """Timing wrappers on the public functions of every layer module."""

    def __init__(self) -> None:
        # One entry per wrapped function, created when it is wrapped.
        self.stats: dict[str, Stat] = {}
        self._children: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin_item(self) -> None:
        """Start a new item: distinct-argument sets are counted per item."""
        for stat in self.stats.values():
            stat.seen.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        extra = EXTRAS.get(name)
        distinct = name in DISTINCT_CASE
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - inner
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    stat.extra[key] = stat.extra.get(key, 0.0) + value
            if distinct:
                case = args[0] if args else kwargs["case"]
                if case not in stat.seen:
                    stat.seen.add(case)
                    stat.distinct += 1
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        targets: dict[object, str] = {}
        for layer, mod in modules.items():
            names = CLI_PUBLIC if layer == "cli" else getattr(mod, "__all__", ())
            for attr in names:
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[obj] = f"{layer}.{attr}"
        # Wrap every binding of each target, in the package and in every layer.
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._set(mod, attr, self._wrap(targets[obj], obj))
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            if cls is not None and inspect.isfunction(vars(cls).get(meth)):
                self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())
