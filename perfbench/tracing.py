"""In-memory spans and call counts around libsuggest's public functions.

A `Tracer` rebinds each traced function on every libsuggest module
attribute that refers to it, so calls made between modules (for example
`decode` calling `model.decoder_step`) are caught as well as the
benchmark's own.  Leaving the `with` block restores the originals.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from types import ModuleType


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    """Records a span for each call of `spanned` functions and a count for
    each call of `counted` ones.

    Names are "module.function" within the libsuggest package.  A counted
    name is rebound only in the modules listed for it, so its count covers
    the calls made from there.  `hooks` maps a spanned name to
    `f(args, result, counts)`, run after each call.
    """

    def __init__(
        self,
        package: ModuleType,
        modules: Iterable[ModuleType],
        spanned: Iterable[str],
        counted: dict[str, Iterable[ModuleType]] | None = None,
        hooks: dict[str, Callable] | None = None,
    ):
        self.package = package
        self.modules = list(modules)
        self.spanned = list(spanned)
        self.counted = dict(counted or {})
        self.hooks = dict(hooks or {})
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[ModuleType, str, object]] = []

    def _original(self, name: str):
        module, func = name.rsplit(".", 1)
        return getattr(getattr(self.package, module), func)

    def _span_wrapper(self, name: str, f):
        spans, stack, hook = self.spans, self._stack, self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1] if stack else None))
            stack.append(index)
            try:
                result = f(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()
            if hook is not None:
                hook(args, result, self.counts)
            return result

        return wrapper

    def _count_wrapper(self, name: str, f):
        counts = self.counts

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def __enter__(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for name in self.spanned:
            f = self._original(name)
            self._rebind(f, self._span_wrapper(name, f), self.modules)
        for name, modules in self.counted.items():
            f = self._original(name)
            self._rebind(f, self._count_wrapper(name, f), modules)
        return self

    def __exit__(self, *exc) -> bool:
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += own
        return out
