"""Spans and counters around the package's public functions.

Both install themselves from outside the package, by replacing functions
in module namespaces, module-level dicts and class dicts, and restore every
replaced slot on ``uninstall``.  The package code is not changed.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

LAYERS = ("quaternion", "coin", "walk", "pathsum", "stationary", "verify", "cli")

# Methods worth a span besides the public ones: construction and the
# operators the layers compute with.
_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__neg__", "__mul__",
                      "__rmul__", "__truediv__", "__matmul__"})

# A span costs about as much as one Hamilton product, so the timing trace
# leaves the quaternion scalar alone; the counting run and the
# micro-benchmark cover it.
_UNTRACED_CLASSES = frozenset({"Quaternion"})


def _modules():
    return [importlib.import_module(f"qqwalk.{layer}") for layer in LAYERS]


class _Patches:
    """Replaced slots and how to put the originals back."""

    def __init__(self):
        self._undo = []

    def setattr(self, owner, name, value):
        self._undo.append((setattr, owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def setitem(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        while self._undo:
            restore, owner, name, original = self._undo.pop()
            restore(owner, name, original)


def _rebind_everywhere(patches: _Patches, replaced: dict) -> None:
    """Point every module global and module-level dict value at the wrappers.

    ``from .walk import distributions`` copies the function into the
    importing module, and ``verify.SUITES`` holds suite functions, so
    patching the defining module alone would miss those callers.
    """
    modules = [importlib.import_module("qqwalk")] + _modules()
    for module in modules:
        for name, value in list(vars(module).items()):
            if name.startswith("__"):
                continue
            if callable(value) and id(value) in replaced:
                patches.setattr(module, name, replaced[id(value)])
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if callable(item) and id(item) in replaced:
                        patches.setitem(value, key, replaced[id(item)])


class Tracer:
    """Calls, inclusive time and self time of each public function.

    Self time is a span's duration minus the time of the traced spans it
    encloses, so the self times of all spans never add up to more than the
    traced wall time.  Inclusive time counts only the outermost call of a
    function that recurses.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}   # key -> [layer, calls, incl_ns, self_ns, depth]
        self._stack: list[int] = []         # child time of each open span
        self._patches = _Patches()

    def _wrap(self, fn, layer: str, key: str):
        stat = self.stats.setdefault(key, [layer, 0, 0, 0, 0])
        stack = self._stack
        clock = perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            stat[4] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[4] -= 1
                stat[1] += 1
                stat[3] += dt - child
                if not stat[4]:
                    stat[2] += dt
                if stack:
                    stack[-1] += dt
        return span

    def install(self) -> "Tracer":
        replaced = {}
        for layer, module in zip(LAYERS, _modules()):
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if issubclass(obj, BaseException) or name in _UNTRACED_CLASSES:
                        continue
                    self._wrap_class(obj, layer)
                elif callable(obj):
                    replaced[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
        _rebind_everywhere(self._patches, replaced)
        return self

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, layer, key))
            elif callable(raw) and not isinstance(raw, type):
                wrapped = self._wrap(raw, layer, key)
            else:
                continue
            self._patches.setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        self._patches.undo()

    def take(self) -> dict[str, list]:
        """Stats since the last take, as key -> [layer, calls, incl_ns, self_ns]."""
        taken = {key: stat[:4] for key, stat in self.stats.items()}
        for stat in self.stats.values():
            stat[1:4] = [0, 0, 0]
        return taken


class Counter:
    """Exact counts of Hamilton products, quaternion allocations and 2x2 matmuls."""

    def __init__(self):
        self.counts = {"products": 0, "allocs": 0, "matmuls": 0}
        self._patches = _Patches()

    def install(self) -> "Counter":
        from qqwalk.coin import QMatrix2
        from qqwalk.quaternion import Quaternion

        counts = self.counts
        mul, init, matmul = Quaternion.__mul__, Quaternion.__init__, QMatrix2.__matmul__

        @functools.wraps(mul)
        def counted_mul(self, other):
            if isinstance(other, Quaternion):
                counts["products"] += 1
            return mul(self, other)

        @functools.wraps(init)
        def counted_init(self, *args, **kwargs):
            counts["allocs"] += 1
            init(self, *args, **kwargs)

        @functools.wraps(matmul)
        def counted_matmul(self, other):
            counts["matmuls"] += 1
            return matmul(self, other)

        self._patches.setattr(Quaternion, "__mul__", counted_mul)
        self._patches.setattr(Quaternion, "__init__", counted_init)
        self._patches.setattr(QMatrix2, "__matmul__", counted_matmul)
        return self

    def uninstall(self) -> None:
        self._patches.undo()
