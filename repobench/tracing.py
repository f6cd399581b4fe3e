"""Benchmark-owned tracing: wrap public functions, record spans, fold self time.

The program under test is never edited.  A traced run replaces each
public function named in a :class:`Target` *where its callers look it
up* (a module attribute, a class attribute, or a registry dict entry)
with a wrapper that records one span, and puts the original back on exit
from :func:`patched`, even when the run raises.

Spans are kept in memory as parallel lists (name, parent index, start,
end, work amount).  :func:`fold` turns them into per-name self time: a
span's duration minus the durations of its direct children.  Wrappers
are synchronous and the traced code runs on one thread (the batch
workloads, and the service with ``--workers 0``), so a single stack of
open spans gives every span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["Recorder", "Target", "Fold", "patched", "fold", "scaled"]


class Recorder:
    """In-memory span store plus count-only tallies."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.work: list[float] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        #: objects a ``measure`` hook chose to retain (e.g. submitted jobs)
        self.kept: dict[str, list[Any]] = {}
        #: >0 while a hook calls back into wrapped code it must not record
        self.paused = 0


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``where`` is ``"module:attr"``, ``"module:Class.attr"``,
    ``"module:Class.*"`` (every public method and property the class
    itself defines) or ``"module:DICT[*]"`` (every value of a registry
    dict).  ``span`` names the recorded span; with ``count_only`` the
    wrapper only tallies calls under that name (for very hot, trivially
    cheap functions such as registry lookups).  ``measure(recorder,
    args, kwargs, result, before)`` returns the span's work amount;
    ``before(args, kwargs)`` runs first.  Both run with recording paused.
    A ``"Class.*"`` target skips members an earlier, more specific
    target already wrapped.
    """

    where: str
    span: str
    count_only: bool = False
    measure: Callable[..., float] | None = None
    before: Callable[..., Any] | None = None


def _span_wrapper(fn: Callable, target: Target, rec: Recorder) -> Callable:
    name, measure, before = target.span, target.measure, target.before

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        pre = None
        if before is not None:
            rec.paused += 1
            try:
                pre = before(args, kwargs)
            finally:
                rec.paused -= 1
        index = len(rec.names)
        rec.names.append(name)
        rec.parents.append(rec.stack[-1] if rec.stack else -1)
        rec.work.append(0.0)
        rec.ends.append(0.0)
        rec.stack.append(index)
        start = perf_counter()
        rec.starts.append(start)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.ends[index] = perf_counter()
            rec.stack.pop()
        if measure is not None:
            rec.paused += 1
            try:
                rec.work[index] = float(measure(rec, args, kwargs, result, pre))
            finally:
                rec.paused -= 1
        return result

    wrapper._repobench_wrapper = True
    return wrapper


def _count_wrapper(fn: Callable, target: Target, rec: Recorder) -> Callable:
    name = target.span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.paused:
            rec.counts[name] = rec.counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    wrapper._repobench_wrapper = True
    return wrapper


def _wrap(fn: Callable, target: Target, rec: Recorder) -> Callable:
    if target.count_only:
        return _count_wrapper(fn, target, rec)
    return _span_wrapper(fn, target, rec)


def _wrap_descriptor(raw: Any, target: Target, rec: Recorder) -> Any:
    """Wrap a class attribute, keeping its descriptor kind."""
    if isinstance(raw, property):
        return property(_wrap(raw.fget, target, rec), raw.fset, raw.fdel,
                        raw.__doc__)
    if isinstance(raw, classmethod):
        return classmethod(_wrap(raw.__func__, target, rec))
    if isinstance(raw, staticmethod):
        return staticmethod(_wrap(raw.__func__, target, rec))
    if callable(raw):
        return _wrap(raw, target, rec)
    raise TypeError(f"cannot wrap {raw!r}")


def _is_ours(raw: Any) -> bool:
    fn = raw.fget if isinstance(raw, property) else getattr(
        raw, "__func__", raw)
    return getattr(fn, "_repobench_wrapper", False)


def _public_members(cls: type) -> list[str]:
    """Public methods and properties ``cls`` defines, minus those a more
    specific target already wrapped."""
    names = []
    for name, raw in vars(cls).items():
        if name.startswith("_") or isinstance(raw, type) or _is_ours(raw):
            continue
        if isinstance(raw, (property, classmethod, staticmethod)) or callable(raw):
            names.append(name)
    return names


def _resolve(where: str) -> tuple[Any, str]:
    """``(owner, path-after-colon)`` for one target location."""
    module_name, _, path = where.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, last


def _install(target: Target, rec: Recorder,
             saved: list[tuple[Any, Any, Any]]) -> None:
    """Wrap one target, noting ``(container, key, original)`` in ``saved``
    before each replacement so a failure part-way still restores."""
    owner, last = _resolve(target.where)
    if last.endswith("[*]"):
        registry = getattr(owner, last[:-3])
        for key, fn in list(registry.items()):
            saved.append((registry, key, fn))
            registry[key] = _wrap(fn, target, rec)
        return
    if isinstance(owner, type):
        names = _public_members(owner) if last == "*" else [last]
        for name in names:
            raw = vars(owner)[name]
            saved.append((owner, name, raw))
            setattr(owner, name, _wrap_descriptor(raw, target, rec))
        return
    fn = getattr(owner, last)
    saved.append((owner, last, fn))
    setattr(owner, last, _wrap(fn, target, rec))


def _restore(saved: list[tuple[Any, Any, Any]]) -> None:
    for container, key, original in reversed(saved):
        if isinstance(container, dict):
            container[key] = original
        else:
            setattr(container, key, original)


@contextlib.contextmanager
def patched(targets: list[Target], rec: Recorder) -> Iterator[Recorder]:
    """Install every target's wrapper; always restore the originals."""
    saved: list[tuple[Any, Any, Any]] = []
    try:
        for target in targets:
            _install(target, rec, saved)
        yield rec
    finally:
        _restore(saved)


@dataclass
class Fold:
    """Per-span-name totals from one recorded window."""

    self_s: dict[str, float]
    calls: dict[str, float]
    work: dict[str, float]
    #: summed duration of root spans (busy time of the traced code)
    root_s: float

    def total(self, prefix: str, field: str = "self_s") -> float:
        """Sum of ``field`` over span names equal to or under ``prefix``."""
        table = getattr(self, field)
        return float(sum(v for k, v in table.items()
                         if k == prefix or k.startswith(prefix + ".")))


def fold(rec: Recorder, start: float = float("-inf"),
         end: float = float("inf")) -> Fold:
    """Self time per span name over spans that began in ``[start, end]``.

    A span's self time is its duration minus the durations of its direct
    children; a child is subtracted whether or not it falls in the
    window, so a window edge never inflates a parent.
    """
    n = len(rec.names)
    child_s = [0.0] * n
    for i in range(n):
        parent = rec.parents[i]
        if parent >= 0:
            child_s[parent] += rec.ends[i] - rec.starts[i]
    self_s: dict[str, float] = {}
    calls: dict[str, float] = {}
    work: dict[str, float] = {}
    root_s = 0.0
    for i in range(n):
        if not start <= rec.starts[i] <= end:
            continue
        name = rec.names[i]
        duration = rec.ends[i] - rec.starts[i]
        self_s[name] = self_s.get(name, 0.0) + duration - child_s[i]
        calls[name] = calls.get(name, 0.0) + 1.0
        work[name] = work.get(name, 0.0) + rec.work[i]
        if rec.parents[i] < 0:
            root_s += duration
    return Fold(self_s=self_s, calls=calls, work=work, root_s=root_s)


def scaled(f: Fold, factor: float) -> Fold:
    """``f`` with every total multiplied by ``factor`` (per-round views)."""
    return Fold(self_s={k: v * factor for k, v in f.self_s.items()},
                calls={k: v * factor for k, v in f.calls.items()},
                work={k: v * factor for k, v in f.work.items()},
                root_s=f.root_s * factor)
