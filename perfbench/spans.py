"""Spans recorded from outside chshstar by wrapping its public callables.

``Tracer.install`` replaces, inside this process only, every public function
attribute of the package's modules with a timing wrapper.  That includes the
names a module imported from another (``game.apply_channel``) and the one
outside function the package calls at run time (``settings.minimize``).  The
``__init__`` and public methods of the package's own classes are wrapped too,
so a ``State(...)`` construction is one span.  No file of the package
changes, and ``uninstall`` puts every original back.

Spans nest: a wrapper charges its duration to the enclosing span, so a span's
self time is its duration minus its children's.  Spans are kept in memory as
per-name aggregates (count, total, self), per caller-callee edge, and, for
the names given as ``sampled``, one inclusive and one self time per call
(per argument variant for the names in ``VARIANTS``).
Only calls made inside ``Tracer.op`` are recorded.
"""

from __future__ import annotations

import functools
import json
import time
import types
from array import array
from contextlib import contextmanager

LAYERS = ("quantum", "game", "chsh_lift", "settings", "landauer", "cli")
# Functions from outside the package that a module calls at run time.
EXTERNAL = {"settings": ("minimize",)}
# Spans whose calls do different amounts of work by argument: their samples
# are kept per variant, as "name[variant]".
VARIANTS = {
    "settings.value_classical_q3": lambda args, kwargs: kwargs.get(
        "gate_family", args[0] if args else "all"),
    "settings.value_classical_reversible": lambda args, kwargs: kwargs.get(
        "d", args[0] if args else None),
}


class Tracer:
    def __init__(self, sampled=()):
        self.stats: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [count, total_s]
        self.samples = {name: (array("d"), array("d")) for name in sampled}
        self.op_durations = array("d")
        self.sweep_points = 0
        self.clifford_strategies = 0
        self.minimize_results: list[tuple[float, int]] = []
        self.unitary_runs: list[list[tuple[float, int]]] = []
        self.objective_calls: list[int] = []
        self._objective_count = 0
        self._stack = [["<root>", 0.0]]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _record(self, name: str, parent: str, total: float, self_time: float,
                sample_name: str | None = None) -> None:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += total
        stat[2] += self_time
        edge = self.edges.get((parent, name))
        if edge is None:
            edge = self.edges[(parent, name)] = [0, 0.0]
        edge[0] += 1
        edge[1] += total
        sample = self.samples.get(sample_name or name)
        if sample is not None:
            sample[0].append(total)
            sample[1].append(self_time)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, result)`` runs on success."""
        stack, record, clock = self._stack, self._record, time.perf_counter
        variant = VARIANTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if len(stack) == 1:  # outside any operation, e.g. a correctness check
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                record(name, parent[0], dt, dt - frame[1],
                       variant and f"{name}[{variant(args, kwargs)}]")
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @contextmanager
    def op(self, name: str = "op"):
        """One benchmark operation; the root under which layer spans nest."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._record(name, "<root>", dt, dt - frame[1])
            self.op_durations.append(dt)

    # -- optimizer and sweep hooks ----------------------------------------

    def _count_objective(self, args, result) -> None:
        self._objective_count += 1

    def _minimize(self, minimize):
        objective_span = functools.partial(self.wrap, "settings.objective",
                                           after=self._count_objective)

        def after(args, res):
            self.minimize_results.append((float(res.fun), int(res.nfev)))

        traced = self.wrap("settings.minimize", minimize, after)

        @functools.wraps(minimize)
        def wrapper(fun, *args, **kwargs):
            return traced(objective_span(fun), *args, **kwargs)

        return wrapper

    def _unitary_done(self, args, result) -> None:
        self.unitary_runs.append(self.minimize_results)
        self.objective_calls.append(self._objective_count)
        self.minimize_results, self._objective_count = [], 0

    def _sweep_done(self, args, rows) -> None:
        self.sweep_points += len(rows)

    def _clifford_done(self, args, result) -> None:
        self.clifford_strategies += result.strategies_examined

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}" if attr == "__init__" else f"{layer}.{cls.__name__}.{attr}"
            if attr == "__init__" and isinstance(value, types.FunctionType):
                self._patch(cls, attr, self.wrap(name, value))
            elif attr.startswith("_"):
                continue
            elif isinstance(value, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, value.__func__)))
            elif isinstance(value, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(name, value.__func__)))
            elif isinstance(value, types.FunctionType):
                self._patch(cls, attr, self.wrap(name, value))

    def install(self, modules) -> None:
        hooks = {"settings.value_unitary": self._unitary_done,
                 "settings.epsilon_sweep": self._sweep_done,
                 "settings.value_clifford": self._clifford_done}
        wrapped: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, type) and value.__module__ == mod.__name__ \
                        and not issubclass(value, BaseException):
                    self._wrap_class(layer, value)
                    continue
                if not isinstance(value, types.FunctionType):
                    continue
                if attr in EXTERNAL.get(layer, ()):
                    wrapper = self._minimize(value)
                elif value.__module__.startswith("chshstar."):
                    if id(value) not in wrapped:
                        name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                        wrapped[id(value)] = self.wrap(name, value, hooks.get(name))
                    wrapper = wrapped[id(value)]
                else:
                    continue
                self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, modules):
        self.install(modules)
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries ---------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer; the benchmark's own code between calls is "op"."""
        out = {layer: 0.0 for layer in LAYERS + ("op",)}
        for name, (_, _, self_time) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_time
        return out

    def write(self, path: str) -> None:
        """Aggregate spans and call edges as JSON."""
        data = {
            "spans": {n: {"count": c, "total_s": t, "self_s": s}
                      for n, (c, t, s) in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "count": n, "total_s": t}
                      for (p, c), (n, t) in sorted(self.edges.items())],
        }
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
