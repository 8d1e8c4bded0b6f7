"""Spans around calls into unisca's layers, recorded from outside the package.

A `Tracer` replaces module and class attributes with timing wrappers for the
duration of a `with tracer.patched(...)` block and restores the originals on
exit. Each call records a span (name, start, end, parent span, run id); spans
stay in memory until the caller writes them out. The wrappers only forward
arguments and results, so a traced fit computes exactly what an untraced one
does.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from dataclasses import dataclass

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans; -1 at the top
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `run` tags the spans of one fit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), math.nan, parent, self.run)
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        """`fn` wrapped in a span; `name` is a string or a function of the
        call's arguments returning one."""
        namer = (lambda *a, **k: name) if isinstance(name, str) else name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(namer(*args, **kwargs)):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, name) target while the block runs.

        `owner` is a module or a class; the attribute found in its own
        namespace is what gets restored, even if the block raises.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.run] for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def _rank(p: float, n: int) -> int:
    """Nearest-rank index (1-based) of percentile p among n sorted values."""
    return max(1, math.ceil(p / 100.0 * n))


def tail(xs: list[float], per_fit: int) -> tuple[float, float]:
    """(percentile, value) of sorted `xs`, the calls pooled over one or more
    fits of `per_fit` calls each: the highest of TAIL_PERCENTILES that leaves
    at least TAIL_BEYOND calls of one fit above it. Fixing the percentile
    from one fit's calls keeps it the same however many fits are pooled.
    With too few calls for any, the maximum is returned as percentile 100."""
    if not xs:
        return 0.0, 0.0
    for p in TAIL_PERCENTILES:
        if per_fit - _rank(p, per_fit) >= TAIL_BEYOND:
            return p, xs[_rank(p, len(xs)) - 1]
    return 100.0, xs[-1]


def summarize(spans: list[Span], names, runs: int) -> dict[str, float]:
    """Per-name metrics over `runs` traced fits.

    `.calls` is calls per fit, `.total_s` the median over fits of the time
    spent in the span, and `.ms_p50`, `.ms_tail` and `.tail_pct` describe the
    pooled call durations (nearest rank; `tail` picks the percentile). Spans
    whose run id is not one of the fits are left out. A name with no calls reports zeros.
    """
    out = {}
    for name in names:
        mine = [s for s in spans if s.name == name and 0 <= s.run < runs]
        per_run = [0.0] * runs
        for s in mine:
            per_run[s.run] += s.duration
        ms = sorted(s.duration * 1e3 for s in mine)
        pct, tail_ms = tail(ms, len(mine) // runs)
        out[f"{name}.calls"] = len(mine) / runs
        out[f"{name}.total_s"] = statistics.median(per_run)
        out[f"{name}.ms_p50"] = ms[_rank(50.0, len(ms)) - 1] if ms else 0.0
        out[f"{name}.ms_tail"] = tail_ms
        out[f"{name}.tail_pct"] = pct
    return out
