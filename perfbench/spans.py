"""Outside-in span recorder for the traced benchmark run.

The recorder replaces public module attributes of ``sttube`` (for example
``sttube.synth.solve_lp``) with timing wrappers for the duration of one
traced run, then puts the originals back.  Nothing inside the package is
edited: a wrapper only sees the call boundary, its arguments and its
result.

Two kinds of wrapper:

* ``span``  -- one ``Span`` per call (name, start, end, parent, error,
  attributes).  Used for the synthesis layers, which make at most a few
  thousand calls per run.
* ``aggregate`` -- calls aggregated into a count, a total and a compact array
  of per-call durations.  Used for ``control_input`` and ``dynamics``,
  which run about a million times per fleet pass.  Their time is charged
  to the enclosing span as aggregated child time, so self time still
  comes out of the nesting.

Spans stay in memory and are written out once, by ``dump``, at the end
of the run.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    error: str | None = None
    attrs: dict = field(default_factory=dict)
    hot_child_s: float = 0.0  # time of aggregated (hot) calls made inside this span


@dataclass
class HotStats:
    calls: int = 0
    total_s: float = 0.0
    durations: array = field(default_factory=lambda: array("d"))


class Recorder:
    """Records nested spans around patched callables; ``restore`` undoes
    every patch in reverse order."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: list[Span] = []
        self.hot: dict[str, HotStats] = {}
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def span(self, module, attr: str, name: str, on_exit=None) -> None:
        """Wrap ``module.attr`` so each call becomes a span.

        ``on_exit(span, args, kwargs, result)`` may add attributes; it runs
        after this span's clock stops (its small cost lands in the parent).
        """
        original = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1].id if stack else None
            s = Span(len(spans), name, parent, clock())
            spans.append(s)
            stack.append(s)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                s.error = type(exc).__name__
                raise
            finally:
                s.end = clock()
                stack.pop()
                if on_exit is not None:
                    on_exit(s, args, kwargs, result)

        self._patch(module, attr, wrapper)

    def aggregate(self, module, attr: str, name: str) -> None:
        """Wrap ``module.attr`` with an aggregating timer (no span per call)."""
        original = getattr(module, attr)
        stats = self.hot.setdefault(name, HotStats())
        stack, clock = self._stack, self.clock
        append = stats.durations.append

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                d = clock() - t0
                append(d)
                stats.calls += 1
                stats.total_s += d
                if stack:
                    stack[-1].hot_child_s += d

        self._patch(module, attr, wrapper)

    def records(self) -> list[dict]:
        """Every span as a plain dict, times in seconds since the recorder
        was created."""
        return [
            {**asdict(s), "start": s.start - self.origin, "end": s.end - self.origin}
            for s in self.spans
        ]

    def dump(self, path) -> None:
        """Write every span and the hot-call aggregates as one JSON file."""
        record = {
            "spans": self.records(),
            "hot": {
                name: {"calls": h.calls, "total_s": h.total_s}
                for name, h in self.hot.items()
            },
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def self_times(records: list[dict]) -> dict[int, float]:
    """Self time of each span record: its duration minus the time covered
    by its direct child spans and by hot calls made inside it."""
    child = {r["id"]: 0.0 for r in records}
    for r in records:
        if r["parent"] is not None:
            child[r["parent"]] += r["end"] - r["start"]
    return {
        r["id"]: r["end"] - r["start"] - child[r["id"]] - r["hot_child_s"]
        for r in records
    }


def nesting_violations(records: list[dict], slack: float = 1e-6) -> list[str]:
    """Problems with the span tree: a span never closed, a child outside
    its parent's interval, or children whose time exceeds the parent's
    (a negative self time).  ``slack`` absorbs clock granularity."""
    by_id = {r["id"]: r for r in records}
    out = []
    for r in records:
        if not r["end"] >= r["start"]:
            out.append(f"span {r['id']} {r['name']} never closed")
        p = by_id.get(r["parent"])
        if p is not None and (r["start"] < p["start"] - slack or r["end"] > p["end"] + slack):
            out.append(f"span {r['id']} {r['name']} lies outside its parent {p['id']}")
    for sid, t in self_times(records).items():
        if t < -slack:
            out.append(
                f"span {sid} {by_id[sid]['name']}: children take {-t:.6f} s more than the span"
            )
    return out
