"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: name, start, end, the span that
was open when it began (its parent), and the step it belongs to. Every
span opened between two calls to :meth:`SpanRecorder.begin` shares that
step's id, so a training step's gather, encoder, projection, head,
trace, backward and update spans can be grouped back together.

Spans stay in plain lists until :meth:`SpanRecorder.write` dumps them at
the end of the run. Self time is derived afterwards: a span's duration
minus the durations of its direct children. Calls are single-threaded
and nested, so children never overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: "SpanRecorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.index = len(rec.names)
        rec.names.append(self.name)
        rec.parents.append(rec.open[-1] if rec.open else -1)
        rec.steps.append(rec.step)
        rec.ends.append(0.0)
        rec.open.append(self.index)
        rec.starts.append(perf_counter())
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.ends[self.index] = perf_counter()
        rec.open.pop()
        return False


class SpanRecorder:
    """Column store of spans plus the step table they point into."""

    def __init__(self):
        self.t0 = perf_counter()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.steps: list[int] = []
        self.open: list[int] = []
        self.step = -1
        self.step_kind: list[str] = []
        self.step_label: list[str] = []

    def begin(self, kind: str, label: str) -> int:
        """Start a new step id; spans opened from now on belong to it."""
        self.step = len(self.step_kind)
        self.step_kind.append(kind)
        self.step_label.append(label)
        return self.step

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> list[float]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def by_step(self, kind: str) -> list[tuple[str, dict[str, float], dict[str, float]]]:
        """Per step of ``kind``: (label, self seconds by name, total seconds by name)."""
        own = self.self_times()
        self_sum: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        total_sum: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, step in enumerate(self.steps):
            if step >= 0 and self.step_kind[step] == kind:
                self_sum[step][self.names[i]] += own[i]
                total_sum[step][self.names[i]] += self.ends[i] - self.starts[i]
        return [(self.step_label[s], dict(self_sum[s]), dict(total_sum[s])) for s in sorted(self_sum)]

    def write(self, path: str, meta: dict) -> None:
        own = self.self_times()
        spans = [
            {
                "name": self.names[i],
                "start_s": self.starts[i] - self.t0,
                "end_s": self.ends[i] - self.t0,
                "self_s": own[i],
                "parent": self.parents[i],
                "step": self.steps[i],
            }
            for i in range(len(self.names))
        ]
        steps = [{"id": i, "kind": k, "label": lab}
                 for i, (k, lab) in enumerate(zip(self.step_kind, self.step_label))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "steps": steps, "spans": spans}, fh)
