"""In-memory span recorder with self-time accounting.

A :class:`Recorder` wraps functions of the program under measurement
(see :mod:`perfbench.probes`) so that each call becomes a *frame* on a
per-process stack.  When a frame closes, its duration is charged to its
layer name twice: once inclusive, and once as *self time* -- the
duration minus the time its child frames covered.  Summing self time
per layer therefore never double counts nested calls
(``DispatchQueue.run_interval`` calls ``draw_interval``;
``Hipster.observe`` may call ``super().observe``).

Coarse frames (one per spec run, cache load, fleet expansion, render
...) are also kept as *spans*: name, start, end, parent span id and a
shared per-spec id (the scenario fingerprint).  Per-interval frames
(manager, queue, power) are only aggregated, which keeps a traced
``all --quick`` pass at a few thousand spans instead of a few hundred
thousand.

Pool workers are forked from the parent, so they inherit the wrapped
functions.  A fork hook empties the child's copy of the recorder, and
the worker appends what it recorded to ``<spill_dir>/worker-<pid>.jsonl``
after every spec run; :meth:`Recorder.collect_workers` folds those lines
back into the parent.  Times are ``time.perf_counter()`` readings, which
on Linux share one monotonic clock across processes.
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path
from typing import Any, Callable, Iterator

_clock = time.perf_counter


class Recorder:
    """Per-process span and counter store (see the module docstring)."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        self.in_worker = False
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- state ----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay)."""
        #: Open frames: ``[layer, child_time, span_id, spec_id]``.
        self.stack: list[list[Any]] = []
        #: layer -> [entries, inclusive_s, self_s].  An entry is a call
        #: not nested directly inside another call of the same layer.
        self.totals: dict[str, list[float]] = {}
        #: Free-form counters (intervals, bytes, ...).
        self.counts: dict[str, float] = {}
        #: Kept spans: (name, start, end, span_id, parent_id, spec_id,
        #: pid, args).
        self.spans: list[tuple] = []
        self._next_id = 1

    def _after_fork(self) -> None:
        self.reset()
        self.in_worker = True

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- frames ---------------------------------------------------------

    def _open(self, layer: str, spec_id: str | None) -> list[Any]:
        if spec_id is None and self.stack:
            spec_id = self.stack[-1][3]
        frame = [layer, 0.0, self._next_id, spec_id]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _close(
        self,
        frame: list[Any],
        start: float,
        end: float,
        keep: bool,
        args: dict | None = None,
    ) -> None:
        self.stack.pop()
        duration = end - start
        layer = frame[0]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += duration
        total = self.totals.get(layer)
        if total is None:
            total = self.totals[layer] = [0, 0.0, 0.0]
        if parent is None or parent[0] != layer:
            total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        if keep:
            self.spans.append(
                (
                    layer,
                    start,
                    end,
                    frame[2],
                    parent[2] if parent is not None else 0,
                    frame[3],
                    os.getpid(),
                    args,
                )
            )

    def span(self, layer: str, spec_id: str | None = None) -> "_SpanContext":
        """A kept span around a block (``with recorder.span("render"):``)."""
        return _SpanContext(self, layer, spec_id)

    def wrap(
        self,
        layer: str,
        fn: Callable,
        *,
        keep: bool = False,
        spec_id: Callable[..., str | None] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """``fn`` timed as a frame of ``layer``.

        ``spec_id(*args, **kwargs)`` names the spec a kept span belongs
        to (inherited from the enclosing frame otherwise); ``after(result,
        *args, **kwargs)`` runs once the frame has closed, for counters.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            ident = spec_id(*args, **kwargs) if spec_id is not None else None
            frame = recorder._open(layer, ident)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(frame, start, _clock(), keep)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def wrap_generator(self, layer: str, fn: Callable) -> Callable:
        """``fn`` (a generator function) timed per ``next()``.

        Each resumption is one frame, so work the consumer does between
        yields is not charged to the generator; the first-resume to
        exhaustion wall is counted as ``<layer>.wall_s``.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            return recorder._timed_iter(layer, iterator)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _timed_iter(self, layer: str, iterator: Iterator) -> Iterator:
        first = None
        try:
            while True:
                frame = self._open(layer, None)
                start = _clock()
                if first is None:
                    first = start
                try:
                    item = next(iterator)
                except StopIteration:
                    self._close(frame, start, _clock(), False)
                    return
                except BaseException:
                    self._close(frame, start, _clock(), False)
                    raise
                self._close(frame, start, _clock(), False)
                yield item
        finally:
            if first is not None:
                self.count(f"{layer}.wall_s", _clock() - first)

    # -- worker spill ---------------------------------------------------

    def spill(self) -> None:
        """Append this worker's records to its spill file and forget them."""
        record = {
            "pid": os.getpid(),
            "totals": self.totals,
            "counts": self.counts,
            "spans": self.spans,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        path = self.spill_dir / f"worker-{os.getpid()}.jsonl"
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.totals, self.counts, self.spans = {}, {}, []

    def collect_workers(self) -> int:
        """Fold every worker spill file into this recorder; returns the
        peak worker RSS in KiB (0 when no worker recorded anything)."""
        peak = 0
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                peak = max(peak, int(record["maxrss_kb"]))
                for layer, (entries, inclusive, own) in record["totals"].items():
                    total = self.totals.setdefault(layer, [0, 0.0, 0.0])
                    total[0] += entries
                    total[1] += inclusive
                    total[2] += own
                for name, value in record["counts"].items():
                    self.count(name, value)
                self.spans.extend(tuple(span) for span in record["spans"])
            path.unlink()
        return peak

    def clear_spill(self) -> None:
        """Drop spill files left by work that is not being measured."""
        for path in self.spill_dir.glob("worker-*.jsonl"):
            path.unlink()

    # -- reading --------------------------------------------------------

    def self_s(self, *layers: str) -> float:
        return sum(self.totals.get(layer, (0, 0.0, 0.0))[2] for layer in layers)

    def inclusive_s(self, layer: str) -> float:
        return self.totals.get(layer, (0, 0.0, 0.0))[1]

    def entries(self, *layers: str) -> int:
        return int(sum(self.totals.get(layer, (0, 0.0, 0.0))[0] for layer in layers))

    def span_durations(self, layer: str) -> list[float]:
        return [end - start for name, start, end, *_ in self.spans if name == layer]

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace-event JSON (``ph: X`` events,
        microseconds), loadable by Perfetto or ``chrome://tracing``."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = []
        for name, start, end, span_id, parent, spec, pid, args in self.spans:
            event_args = {"span_id": span_id, "parent": parent}
            if spec is not None:
                event_args["spec"] = spec
            if args:
                event_args.update(args)
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": pid,
                    "tid": 0,
                    "args": event_args,
                }
            )
        events.sort(key=lambda event: (event["pid"], event["ts"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _SpanContext:
    __slots__ = ("recorder", "layer", "spec_id", "frame", "start")

    def __init__(self, recorder: Recorder, layer: str, spec_id: str | None):
        self.recorder = recorder
        self.layer = layer
        self.spec_id = spec_id

    def __enter__(self) -> "_SpanContext":
        self.frame = self.recorder._open(self.layer, self.spec_id)
        self.start = _clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.recorder._close(self.frame, self.start, _clock(), True)
