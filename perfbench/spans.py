"""In-memory span tracing installed from outside the program.

A Tracer replaces module attributes with wrappers that record one span per
call: name, start, end, parent span and run id, plus a few attributes read
from the call's arguments or result (batch size, SNR, iteration count). The
wrappers go into the namespace where the program looks each name up, so the
program itself is not edited. Spans stay in memory until the run ends.
"""

import functools
import inspect
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int  # id of the enclosing span, -1 for a root
    run: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def module(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Owns the spans of one traced run and the patches that record them."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []  # ids of the spans now on the call stack
        self._patches = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Record a span named `name` around every call of owner.attr.

        before(args) and after(args, result) receive the call's arguments
        bound to parameter names (defaults applied) and return dicts merged
        into the span's attributes. before may replace an argument, such as
        a callback, by assigning to args; the call then sees the new value.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            params = None
            if before is not None or after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                params = bound.arguments
            parent = self._open[-1] if self._open else -1
            span = Span(len(self.spans), name, parent, self.run_id, 0.0)
            if before is not None:
                span.attrs.update(before(params))
            self.spans.append(span)
            self._open.append(span.id)
            if params is not None:
                args, kwargs = bound.args, bound.kwargs
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if after is not None:
                span.attrs.update(after(params, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Calls run on one thread and nest, so the children of a span never
    overlap and their durations add up to the time they cover.
    """
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def module_self_ms(spans):
    """Module name -> total self time of its spans, in milliseconds."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s.module] = totals.get(s.module, 0.0) + 1e3 * own[s.id]
    return totals


def ancestors(span, by_id):
    """Spans enclosing `span`, innermost first."""
    while span.parent >= 0:
        span = by_id[span.parent]
        yield span


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
