"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, run id).  Spans are opened around the
benchmark's own calls and around wrappers that `Tracer.wrap` installs at
module attributes the package calls through (for example
`latticedex.codec.short_vectors`).  Nothing inside the package changes; the
wrappers are removed again by `Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    def span(self, name):
        return nullcontext()

    def count(self, name, value=1):
        pass


class Tracer:
    def __init__(self, run_id=""):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or None, run id]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def count(self, name, value=1):
        self.counts[name] += value

    def wrap(self, owner, attr, name, on_result=None):
        """Replace owner.attr by a spanned wrapper; on_result(tracer, result, args)
        may add counts."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = orig(*args, **kwargs)
            if on_result is not None:
                on_result(self, out, args)
            return out

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr, value):
        """Set owner.attr to value until uninstall."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # ---- summaries ----

    def self_times(self):
        """Per-span self time: duration minus the time its children cover.

        Children of one parent run one after another in a single thread, so
        the covered time is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(end - start) - child_time[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def nesting_violations(self):
        """Spans that start before or end after their parent, or overlap a sibling."""
        bad = 0
        last_end = {}
        for name, start, end, parent, _ in self.spans:
            if end is None or end < start:
                bad += 1
                continue
            if parent is not None:
                p = self.spans[parent]
                if start < p[1] or end > p[2] or start < last_end.get(parent, p[1]):
                    bad += 1
                last_end[parent] = end
        return bad

    def table(self):
        """{name: {"calls", "total_s", "self_s"}} over all spans."""
        out = {}
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return out

    def to_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "run": r}
                for n, s, e, p, r in self.spans]
