"""Span tracing from outside the program, by rebinding its public functions.

`Tracer.install` wraps every public function and public method of the
traced modules and rebinds each module or class attribute that refers to
the original object, so copies made by ``from .x import y`` are wrapped
too (``latticemc.cli.run_trajectory`` as well as
``latticemc.trajectory.run_trajectory``).  `Tracer.uninstall` restores the
originals.  No source file of the program is touched.

Spans are aggregated in memory as they close: per name the call count, the
total time of outermost calls and the self time (duration minus the time
covered by traced child spans), and per caller -> callee edge the call
count and total time.  Hooks see each call's arguments and result, so
counts are taken at the same boundaries as the spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable

Hook = Callable[[tuple, dict, object], None]


def public_callables(module: ModuleType) -> dict[str, object]:
    """Span name -> function, for a module's public functions and methods.

    Module-level functions are named ``<module>.<function>``; methods of
    classes defined in the module are named ``<module>.<method>`` unless
    two classes share the method name, then ``<module>.<Class>.<method>``.
    """
    short = module.__name__.rsplit(".", 1)[-1]
    found: dict[str, object] = {}
    methods: list[tuple[str, str, object]] = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            found[f"{short}.{attr}"] = value
        elif inspect.isclass(value):
            methods += [(name, value.__name__, member)
                        for name, member in vars(value).items()
                        if not name.startswith("_") and inspect.isfunction(member)]
    shared = {name for name, _, _ in methods
              if sum(n == name for n, _, _ in methods) > 1}
    for name, cls, member in methods:
        found[f"{short}.{cls}.{name}" if name in shared else f"{short}.{name}"] = member
    return found


class Tracer:
    def __init__(self, modules: list[ModuleType], package: str,
                 hooks: dict[str, Hook] | None = None):
        self.modules = modules
        self.package = package
        self.hooks = hooks or {}
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.names: set[str] = set()
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []
        self._rebound: set[str] = set()

    def _wrap(self, name: str, fn):
        stack, depth = self._stack, self._depth
        calls, total_s, self_s, edges = (self.calls, self.total_s,
                                         self.self_s, self.edges)
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if depth[name] == 0:  # recursion: count the outermost span
                    total_s[name] += elapsed
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every reference to each traced function inside the package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for module in self.modules:
            for name, fn in public_callables(module).items():
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
                self.names.add(name)
        modules = [m for key, m in list(sys.modules.items())
                   if key == self.package or key.startswith(self.package + ".")]
        classes = {id(v): v for m in modules for v in vars(m).values()
                   if inspect.isclass(v)
                   and v.__module__.startswith(self.package + ".")}
        for owner in modules + list(classes.values()):
            for attr, value in list(vars(owner).items()):
                original, wrapper = wrappers.get(id(value), (self, None))
                if original is value:
                    self._saved.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
                    where = getattr(owner, "__qualname__", owner.__name__)
                    self._rebound.add(f"{where}.{attr}")

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
        if self._stack:
            raise RuntimeError("tracer uninstalled inside an open span")

    def rebound(self) -> list[str]:
        """'<module or class>.<attribute>' of every attribute ever rebound."""
        return sorted(self._rebound)
