"""Fault-tolerant supervision of the batch worker pool.

The :class:`PoolSupervisor` sits between :class:`~repro.sim.batch.
BatchRunner` and its :class:`~concurrent.futures.ProcessPoolExecutor`
and turns the three ways a batch used to die into recoverable events:

* **Worker crashes** (``BrokenProcessPool``): the pool is rebuilt with
  bounded exponential backoff and only the chunks that were in flight
  are re-dispatched.  A chunk that keeps failing is **bisected** down to
  a single spec; a single spec that keeps failing is re-dispatched one
  last time *alone* (nothing else in flight, so nothing else can be the
  culprit) before it is declared a poison spec and surfaced as a
  structured :class:`~repro.errors.WorkerCrashError` naming its
  fingerprint -- every other spec in the batch completes normally.
* **Hangs**: every chunk carries a watchdog deadline derived from the
  scheduler's cost model (``timeout_floor_s + timeout_per_cost_s x
  estimated chunk cost``); an overdue chunk gets its workers killed and
  is retried like a crash, ending in :class:`~repro.errors.
  SpecTimeoutError` instead of blocking forever.
* **Pool death spirals**: after ``max_pool_rebuilds`` breakages the
  supervisor stops trusting process isolation: it marks the runner
  ``degraded`` and stops, and the runner finishes the work it leaves
  (:meth:`PoolSupervisor.remaining`) in its own in-process serial loop
  (trapping per-spec Python exceptions), as it does every later batch,
  so a hostile environment slows the run down instead of killing it.

The bounds on all of this are one :class:`RetryPolicy`, handed to the
runner's constructor (the defaults when none is given).

Retried specs are pure functions of their spec (the repo's standing
determinism contract), so no crash/retry/bisection history can change
an outcome, a cache key, or a byte of final output.

The module also provides :func:`run_chunk`, the pool work item, which
traps per-spec Python exceptions into :class:`SpecFailure` proxies (so
one bad spec cannot lose its chunk-mates' results) and gives the chaos
harness (:mod:`repro.sim.chaos`) its injection point.
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import (
    ExecutionError,
    RunInterruptedError,
    SpecFailedError,
    SpecTimeoutError,
    WorkerCrashError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.batch import BatchRunner

#: Upper bound on one wait() round, so stop requests (SIGINT handlers
#: set a flag on the runner) are noticed promptly even with no deadline.
_POLL_S = 0.5


# ----------------------------------------------------------------------
# retry / timeout policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on the supervisor's recovery behaviour, set where the
    runner is built (``BatchRunner(retry_policy=...)``)."""

    #: Dispatch attempts per chunk before it is bisected (multi-spec)
    #: or sent to solo confirmation (single-spec).
    max_dispatches: int = 3
    #: Pool breakages tolerated before degrading to in-process serial.
    max_pool_rebuilds: int = 5
    #: Exponential backoff before each pool rebuild: ``base * 2**n``,
    #: capped.  Deliberately short -- worker crashes are process-local,
    #: not remote-service overload.
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: Watchdog: a chunk may run ``floor + per_cost x estimated_cost``
    #: seconds before it is presumed hung.  ``floor <= 0`` disables
    #: watchdog timeouts entirely.
    timeout_floor_s: float = 60.0
    timeout_per_cost_s: float = 0.05

    def backoff_s(self, failures: int) -> float:
        """Sleep before the ``failures``-th pool rebuild (0-based)."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2.0**failures))

    def chunk_timeout_s(self, cost: float) -> float:
        """The watchdog deadline for a chunk of estimated ``cost``."""
        if self.timeout_floor_s <= 0:
            return math.inf
        return self.timeout_floor_s + self.timeout_per_cost_s * cost


# ----------------------------------------------------------------------
# the pool work item
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpecFailure:
    """Worker-side proxy for an exception raised *inside* one spec.

    Travels back in the chunk's result list in place of the outcome, so
    chunk-mates keep their results and the parent can wrap the failure
    without re-running anything.
    """

    exception_type: str
    message: str


def run_chunk(specs: Sequence["ScenarioSpec"]) -> list:
    """Run a chunk of scenarios in a worker (the pool's work item).

    Per-spec Python exceptions are trapped into :class:`SpecFailure`
    (deterministic by purity, so retrying them is pointless); crashes
    and hangs -- including those injected by :mod:`repro.sim.chaos`
    through the ``maybe_inject`` hook below -- take the whole worker
    down and are the supervisor's problem.
    """
    from repro.sim import chaos

    results: list = []
    for spec in specs:
        chaos.maybe_inject(spec.fingerprint())
        try:
            results.append(spec.run())
        except Exception as exc:
            results.append(SpecFailure(type(exc).__name__, str(exc)))
    return results


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------


class _Work:
    """One dispatchable chunk plus its retry state."""

    __slots__ = ("items", "cost", "dispatches", "timeouts", "solo", "deadline")

    def __init__(self, items, cost: float, dispatches: int = 0):
        self.items = list(items)  #: list of (key, spec)
        self.cost = cost
        self.dispatches = dispatches  #: failed dispatch attempts so far
        self.timeouts = 0  #: of which were watchdog timeouts
        self.solo = False  #: dispatched alone (confirmation round)
        self.deadline = math.inf

    def describe(self) -> str:
        return f"{len(self.items)} spec(s), cost {self.cost:.0f}"


class PoolSupervisor:
    """Drive chunks through the runner's pool, surviving crashes/hangs.

    One supervisor instance serves one pool batch of the runner's
    ``_execute``; it owns the retry queues but borrows the pool (and all
    fault counters) from the runner, so pool reuse across ``run()``
    calls and the runner's ``[fault]`` statistics keep working.
    """

    def __init__(
        self,
        runner: "BatchRunner",
        chunks: Sequence[Sequence[tuple[str, "ScenarioSpec"]]],
        policy: RetryPolicy,
    ):
        from repro.sim.batch import estimate_cost

        self.runner = runner
        self.policy = policy
        self._pending: deque[_Work] = deque(
            _Work(chunk, sum(estimate_cost(spec) for _, spec in chunk))
            for chunk in chunks
        )
        self._suspects: deque[_Work] = deque()
        self._inflight: dict[Future, _Work] = {}
        self._ready: deque[tuple[str, object]] = deque()
        self._rebuilds = 0

    # -- public ---------------------------------------------------------

    def events(self) -> Iterator[tuple[str, object]]:
        """Yield ``(key, outcome | ExecutionError)`` in completion order.

        Raises :class:`RunInterruptedError` after a clean drain when the
        runner's stop flag is set (a signal handler requested shutdown).
        Returns early once the runner is degraded, leaving
        :meth:`remaining` to the runner's serial loop.
        """
        while self._pending or self._suspects or self._inflight or self._ready:
            while self._ready:
                yield self._ready.popleft()
            if self.runner.degraded or not (
                self._pending or self._suspects or self._inflight
            ):
                return
            if self._stopping() and not self._inflight:
                self._interrupt()
            self._dispatch()
            if self._inflight:
                self._reap()
            elif not self._ready and (self._pending or self._suspects):
                # Nothing in flight and nothing dispatched: the pool is
                # refusing work (e.g. submit itself broke it) -- the
                # failure handler has already updated the queues, loop.
                continue

    def remaining(self) -> list[tuple[str, "ScenarioSpec"]]:
        """The ``(key, spec)`` items :meth:`events` left unresolved, in
        the order a serial finish runs them: pending chunks, suspects,
        then chunks that were in flight when the pool was killed."""
        works = [*self._pending, *self._suspects, *self._inflight.values()]
        return [item for work in works for item in work.items]

    # -- stop handling --------------------------------------------------

    def _stopping(self) -> bool:
        return self.runner.stop_requested

    def _interrupt(self) -> None:
        remaining = sum(len(w.items) for w in self._pending) + sum(
            len(w.items) for w in self._suspects
        )
        raise RunInterruptedError.pending(remaining, self.runner.cache_dir)

    # -- dispatch -------------------------------------------------------

    @property
    def _max_inflight(self) -> int:
        # Enough to keep every worker busy plus a small ready margin;
        # small enough that one crash does not taint the whole plan
        # (every in-flight chunk gets a dispatch strike on pool death).
        return self.runner.jobs + 2

    def _dispatch(self) -> None:
        if self._stopping():
            return  # drain only: no new submissions
        if any(work.solo for work in self._inflight.values()):
            return  # a confirmation round owns the pool
        if not self._inflight and self._suspects and not self._pending:
            work = self._suspects.popleft()
            work.solo = True
            self._submit(work)
            return
        while (
            self._pending
            and len(self._inflight) < self._max_inflight
            and not self.runner.degraded
        ):
            self._submit(self._pending.popleft())

    def _submit(self, work: _Work) -> None:
        try:
            pool = self.runner._ensure_pool()
            future = pool.submit(
                run_chunk, [spec for _, spec in work.items]
            )
        except BrokenProcessPool:
            self._pool_failure(struck=[work])
            return
        work.deadline = time.monotonic() + self.policy.chunk_timeout_s(work.cost)
        self._inflight[future] = work

    # -- reaping --------------------------------------------------------

    def _reap(self) -> None:
        timeout = _POLL_S
        finite = [w.deadline for w in self._inflight.values() if w.deadline < math.inf]
        if finite:
            timeout = min(_POLL_S, max(0.01, min(finite) - time.monotonic()))
        done, _ = wait(
            set(self._inflight), timeout=timeout, return_when=FIRST_COMPLETED
        )
        crashed: list[_Work] = []
        for future in done:
            work = self._inflight.pop(future)
            try:
                results = future.result()
            except (BrokenProcessPool, OSError):
                crashed.append(work)
                continue
            self._deliver(work, results)
        if crashed:
            # The pool is broken: every other in-flight chunk is lost
            # with it (and equally suspect -- any of them may hold the
            # culprit, so all get a dispatch strike).
            crashed.extend(self._inflight.values())
            self._inflight.clear()
            self._pool_failure(struck=crashed)
            return
        now = time.monotonic()
        overdue = [w for w in self._inflight.values() if now >= w.deadline]
        if overdue:
            # Presumed hung: kill the workers (a sleeping/hung worker
            # never exits on its own) and retry.  Chunks that were
            # merely sharing the pool are requeued without a strike.
            for work in overdue:
                work.timeouts += 1
            victims = [
                w for w in self._inflight.values() if w not in overdue
            ]
            self._inflight.clear()
            self.runner.spec_timeouts += 1
            self._pool_failure(struck=overdue, requeue=victims, timed_out=True)

    def _deliver(self, work: _Work, results: list) -> None:
        if not isinstance(results, list) or len(results) != len(work.items):
            # A malformed result is as good as a crash of that chunk.
            self._pool_failure(struck=[work])
            return
        for (key, spec), result in zip(work.items, results):
            if isinstance(result, SpecFailure):
                self.runner.specs_failed += 1
                self._ready.append(
                    (
                        key,
                        SpecFailedError.raised(
                            key, spec, result.exception_type, result.message
                        ),
                    )
                )
            else:
                self._ready.append((key, result))

    # -- failure handling ----------------------------------------------

    def _pool_failure(
        self,
        *,
        struck: Sequence[_Work],
        requeue: Sequence[_Work] = (),
        timed_out: bool = False,
    ) -> None:
        """A pool breakage (or watchdog kill): retire, requeue, rebuild."""
        if not timed_out:
            self.runner.worker_crashes += 1
        self.runner._retire_pool(kill=True)
        for work in requeue:
            work.solo = False
            self._pending.appendleft(work)
        for work in struck:
            work.solo, solo = False, work.solo
            work.dispatches += 1
            self._requeue(work, was_solo=solo)
        self._rebuilds += 1
        self.runner.pool_rebuilds += 1
        if self._rebuilds > self.policy.max_pool_rebuilds:
            self.runner.degraded = True
            return
        if not self._stopping():
            time.sleep(self.policy.backoff_s(self._rebuilds - 1))

    def _requeue(self, work: _Work, *, was_solo: bool) -> None:
        """Route one struck chunk: retry, bisect, suspect or fail."""
        if was_solo:
            # It crashed/hung with the pool to itself: definitive.
            self._fail(work)
            return
        if work.dispatches < self.policy.max_dispatches:
            self.runner.chunk_retries += 1
            self._pending.appendleft(work)
            return
        if len(work.items) > 1:
            # Bisect: each half gets exactly one more dispatch before
            # bisecting again, so total dispatches stay O(n + log n)
            # while the poison spec is cornered and its chunk-mates'
            # results are recovered.
            self.runner.chunk_bisections += 1
            mid = len(work.items) // 2
            from repro.sim.batch import estimate_cost

            for part in (work.items[mid:], work.items[:mid]):
                half = _Work(
                    part,
                    sum(estimate_cost(spec) for _, spec in part),
                    dispatches=self.policy.max_dispatches - 1,
                )
                half.timeouts = work.timeouts
                self._pending.appendleft(half)
            return
        # A single spec out of attempts: confirm alone before blaming.
        self._suspects.append(work)

    def _fail(self, work: _Work) -> None:
        (key, spec) = work.items[0]
        self.runner.specs_failed += 1
        if work.timeouts > 0:
            timeout_s = self.policy.chunk_timeout_s(work.cost)
            error: ExecutionError = SpecTimeoutError(
                f"spec {spec.describe()} ({key}) exceeded its "
                f"{timeout_s:.0f}s watchdog deadline on every attempt "
                "(including a solo dispatch)",
                fingerprint=key,
                spec_description=spec.describe(),
                timeout_s=timeout_s,
            )
        else:
            error = WorkerCrashError(
                f"spec {spec.describe()} ({key}) crashed its worker on "
                "every attempt (including a solo dispatch): poison spec",
                fingerprint=key,
                spec_description=spec.describe(),
            )
        self._ready.append((key, error))


__all__ = [
    "PoolSupervisor",
    "RetryPolicy",
    "SpecFailure",
    "run_chunk",
]
