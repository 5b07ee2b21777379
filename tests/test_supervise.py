"""Tests for the fault-tolerance layer: supervised pool recovery,
poison-spec isolation, watchdog timeouts, degraded serial mode and
resuming an interrupted run from the cache.

Worker faults are injected with :mod:`repro.sim.chaos` (the config
rides the environment into forked workers); everything asserts the
standing determinism contract -- no crash/retry/resume history may
change a result.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import (
    ExecutionError,
    RunInterruptedError,
    SpecFailedError,
    SpecTimeoutError,
    WorkerCrashError,
)
from repro.scenarios import ScenarioSpec, TraceSpec
from repro.sim import batch, chaos
from repro.sim.batch import BatchRunner
from repro.sim.supervise import RetryPolicy


def tiny_specs() -> list[ScenarioSpec]:
    base = ScenarioSpec(
        workload="memcached",
        trace=TraceSpec.constant(0.6, 15.0),
        manager="static-big",
    )
    return list(base.sweep(manager=["static-big", "octopus-man"], seed=[1, 2]))


def assert_same_results(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.spec == right.spec
        assert left.manager_stats == right.manager_stats
        assert left.result.observations == right.result.observations


@pytest.fixture(scope="module")
def golden():
    """Fault-free serial outcomes for ``tiny_specs()`` (the reference)."""
    return BatchRunner(jobs=1).run(tiny_specs())


def _collect(runner: BatchRunner, specs):
    """Split an ``on_failure="yield"`` run into outcomes and errors."""
    outcomes, errors = {}, {}
    for index, result in runner.iter_run(specs, on_failure="yield"):
        (errors if isinstance(result, ExecutionError) else outcomes)[
            index
        ] = result
    return outcomes, errors


def _malformed_chunk(specs):
    """A pool work item that returns no results (a malformed chunk)."""
    return []


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.5)
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(10) == 0.5

    def test_watchdog_disabled_by_nonpositive_floor(self):
        assert RetryPolicy(timeout_floor_s=0).chunk_timeout_s(1e9) == math.inf
        policy = RetryPolicy(timeout_floor_s=10, timeout_per_cost_s=0.5)
        assert policy.chunk_timeout_s(100) == pytest.approx(60.0)


class TestSupervisedPool:
    def test_transient_worker_crash_recovered(self, tmp_path, golden):
        """The headline property: a worker crash mid-chunk costs a pool
        rebuild and a retry, never a result."""
        specs = tiny_specs()
        config = chaos.ChaosConfig(
            seed=0,
            state_dir=str(tmp_path / "state"),
            crash_fingerprints=(specs[0].fingerprint(),),
        )
        with chaos.active_config(config):
            with BatchRunner(jobs=2) as runner:
                outcomes = runner.run(specs)
        assert_same_results(golden, outcomes)
        assert runner.worker_crashes >= 1
        assert runner.pool_rebuilds >= 1
        assert chaos.fired_markers(tmp_path / "state")

    def test_poison_spec_isolated_to_worker_crash_error(self, golden):
        """Bisection + solo confirmation blame exactly the poison spec;
        every other spec completes with untouched results."""
        specs = tiny_specs()
        victim = specs[1].fingerprint()
        config = chaos.ChaosConfig(seed=0, poison_fingerprints=(victim,))
        with chaos.active_config(config):
            with BatchRunner(jobs=2) as runner:
                outcomes, errors = _collect(runner, specs)
        assert set(errors) == {1}
        error = errors[1]
        assert isinstance(error, WorkerCrashError)
        assert error.fingerprint == victim
        assert victim in str(error)
        assert sorted(outcomes) == [0, 2, 3]
        assert_same_results(
            [golden[0], golden[2], golden[3]],
            [outcomes[0], outcomes[2], outcomes[3]],
        )
        assert runner.specs_failed == 1

    def test_poison_spec_raises_after_batch_completes(self):
        """Default ``on_failure="raise"``: the error surfaces only after
        every other spec has been yielded."""
        specs = tiny_specs()
        victim = specs[0].fingerprint()
        config = chaos.ChaosConfig(seed=0, poison_fingerprints=(victim,))
        seen = []
        with chaos.active_config(config):
            with BatchRunner(jobs=2) as runner:
                with pytest.raises(WorkerCrashError) as exc_info:
                    for index, _ in runner.iter_run(specs):
                        seen.append(index)
        assert exc_info.value.fingerprint == victim
        assert sorted(seen) == [1, 2, 3]

    def test_transient_hang_tripped_by_watchdog_and_retried(
        self, tmp_path, golden
    ):
        """A hung worker is killed at the watchdog deadline and the
        chunk retried; the once-only hang lets the retry complete."""
        specs = tiny_specs()
        config = chaos.ChaosConfig(
            seed=0,
            state_dir=str(tmp_path / "state"),
            hang_fingerprints=(specs[0].fingerprint(),),
            hang_s=60.0,
        )
        policy = RetryPolicy(
            timeout_floor_s=3.0, timeout_per_cost_s=0.0, backoff_base_s=0.01
        )
        with chaos.active_config(config):
            with BatchRunner(jobs=2, retry_policy=policy) as runner:
                outcomes = runner.run(specs)
        assert_same_results(golden, outcomes)
        assert runner.spec_timeouts >= 1

    def test_repeated_hang_becomes_spec_timeout_error(self, golden):
        """A spec that hangs on *every* dispatch (no once-only marker)
        ends in SpecTimeoutError naming it; batch-mates complete."""
        specs = tiny_specs()
        victim = specs[2].fingerprint()
        config = chaos.ChaosConfig(
            seed=0, hang_fingerprints=(victim,), hang_s=60.0
        )
        policy = RetryPolicy(
            max_dispatches=2,
            timeout_floor_s=1.0,
            timeout_per_cost_s=0.0,
            backoff_base_s=0.01,
        )
        with chaos.active_config(config):
            with BatchRunner(jobs=2, retry_policy=policy) as runner:
                outcomes, errors = _collect(runner, specs)
        assert set(errors) == {2}
        error = errors[2]
        assert isinstance(error, SpecTimeoutError)
        assert error.fingerprint == victim
        assert error.timeout_s == pytest.approx(1.0)
        assert_same_results(
            [golden[0], golden[1], golden[3]],
            [outcomes[0], outcomes[1], outcomes[3]],
        )

    def test_degrades_to_serial_when_pool_keeps_dying(self, golden):
        """Past ``max_pool_rebuilds`` the batch finishes in-process:
        chaos only injects inside pool workers, so degraded serial
        execution completes every spec -- slower, never dead."""
        specs = tiny_specs()
        config = chaos.ChaosConfig(
            seed=0,
            poison_fingerprints=tuple(s.fingerprint() for s in specs),
        )
        policy = RetryPolicy(max_pool_rebuilds=1, backoff_base_s=0.01)
        with chaos.active_config(config):
            with BatchRunner(jobs=2, retry_policy=policy) as runner:
                outcomes = runner.run(specs)
        assert runner.degraded
        assert runner.worker_crashes >= 2
        assert_same_results(golden, outcomes)

    def test_degraded_serial_exception_names_the_mode(self, monkeypatch):
        specs = tiny_specs()
        bad = specs[3].fingerprint()
        real = ScenarioSpec.run

        def flaky(self):
            if self.fingerprint() == bad:
                raise ValueError("boom")
            return real(self)

        monkeypatch.setattr(ScenarioSpec, "run", flaky)
        config = chaos.ChaosConfig(
            seed=0,
            poison_fingerprints=tuple(s.fingerprint() for s in specs),
        )
        policy = RetryPolicy(max_pool_rebuilds=1, backoff_base_s=0.01)
        with chaos.active_config(config):
            with BatchRunner(jobs=2, retry_policy=policy) as runner:
                _outcomes, errors = _collect(runner, specs)
        assert runner.degraded
        assert set(errors) == {3}
        assert isinstance(errors[3], SpecFailedError)
        assert str(errors[3]) == (
            f"spec {specs[3].describe()} ({bad}) raised ValueError: boom "
            "(degraded serial mode)"
        )

    def test_degraded_runner_runs_later_batches_serially(self, golden):
        """Once degraded, a runner stops trusting its pool for good: the
        next batch completes in-process without spawning a pool."""
        specs = tiny_specs()
        config = chaos.ChaosConfig(
            seed=0,
            poison_fingerprints=tuple(s.fingerprint() for s in specs),
        )
        policy = RetryPolicy(max_pool_rebuilds=1, backoff_base_s=0.01)
        with chaos.active_config(config):
            with BatchRunner(jobs=2, retry_policy=policy) as runner:
                first = runner.run(specs[:2])
                assert runner.degraded
                spawns = runner.pool_spawns
                chunks = runner.chunks_dispatched
                second = runner.run(specs[2:])
        assert runner.pool_spawns == spawns
        assert runner.chunks_dispatched == chunks
        assert runner.specs_dispatched == len(specs)
        assert_same_results(golden, first + second)

    def test_pool_refusing_submissions_degrades_at_the_bound(
        self, monkeypatch, golden
    ):
        """A pool that breaks on every submission degrades after exactly
        ``max_pool_rebuilds + 1`` breakages: once degraded, nothing more
        is submitted, and the batch finishes serially."""
        from concurrent.futures.process import BrokenProcessPool

        def refuse(self):
            raise BrokenProcessPool("refused")

        monkeypatch.setattr(BatchRunner, "_ensure_pool", refuse)
        policy = RetryPolicy(max_pool_rebuilds=1, backoff_base_s=0.01)
        with BatchRunner(jobs=2, retry_policy=policy) as runner:
            outcomes = runner.run(tiny_specs())
        assert runner.degraded
        assert runner.pool_rebuilds == 2
        assert_same_results(golden, outcomes)

    def test_degrade_with_chunks_in_flight_finishes_them_serially(
        self, monkeypatch, golden
    ):
        """A malformed chunk result kills the pool while its batch-mates
        are still in flight; when that breakage is the one that degrades
        the runner, the lost in-flight chunks finish serially too."""
        from repro.sim import supervise

        monkeypatch.setattr(supervise, "run_chunk", _malformed_chunk)
        policy = RetryPolicy(max_pool_rebuilds=0, backoff_base_s=0.01)
        with BatchRunner(jobs=2, retry_policy=policy) as runner:
            outcomes = runner.run(tiny_specs())
        assert runner.degraded
        assert_same_results(golden, outcomes)

    def test_stop_during_degraded_drain_counts_unrun_specs(self):
        """A stop requested while a degraded runner finishes serially
        raises after the spec in hand, counting exactly the specs that
        never ran."""
        specs = list(
            tiny_specs()[0].sweep(
                manager=["static-big", "octopus-man"], seed=[1, 2, 3]
            )
        )
        config = chaos.ChaosConfig(
            seed=0,
            poison_fingerprints=tuple(s.fingerprint() for s in specs),
        )
        policy = RetryPolicy(max_pool_rebuilds=1, backoff_base_s=0.01)
        with chaos.active_config(config):
            with BatchRunner(jobs=2, retry_policy=policy) as runner:
                events = runner.iter_run(specs)
                delivered = [next(events), next(events)]
                assert runner.degraded
                runner.request_stop()
                with pytest.raises(RunInterruptedError) as exc_info:
                    delivered.extend(events)
        assert len(delivered) == 2
        assert exc_info.value.remaining == len(specs) - 2


class TestSpecExceptions:
    def test_serial_engine_exception_isolated(self, monkeypatch, golden):
        specs = tiny_specs()
        bad = specs[2].fingerprint()
        real = batch.execute_scenario

        def flaky(spec):
            if spec.fingerprint() == bad:
                raise RuntimeError("engine blew up")
            return real(spec)

        monkeypatch.setattr(batch, "execute_scenario", flaky)
        runner = BatchRunner()
        outcomes, errors = _collect(runner, specs)
        assert set(errors) == {2}
        assert isinstance(errors[2], SpecFailedError)
        assert errors[2].exception_type == "RuntimeError"
        assert str(errors[2]) == (
            f"spec {specs[2].describe()} ({bad}) raised RuntimeError: "
            "engine blew up"
        )
        assert runner.specs_failed == 1
        assert_same_results(
            [golden[0], golden[1], golden[3]],
            [outcomes[0], outcomes[1], outcomes[3]],
        )

    def test_serial_engine_exception_raises_after_batch(self, monkeypatch):
        specs = tiny_specs()
        bad = specs[0].fingerprint()
        real = batch.execute_scenario

        def flaky(spec):
            if spec.fingerprint() == bad:
                raise RuntimeError("engine blew up")
            return real(spec)

        monkeypatch.setattr(batch, "execute_scenario", flaky)
        seen = []
        runner = BatchRunner()
        with pytest.raises(SpecFailedError):
            for index, _ in runner.iter_run(specs):
                seen.append(index)
        assert sorted(seen) == [1, 2, 3]

    def test_pool_engine_exception_isolated(self, monkeypatch, golden):
        """A Python exception inside a pooled spec comes back as a
        SpecFailure proxy, not a lost chunk: chunk-mates keep results
        and nothing is retried (failures are deterministic by purity).
        """
        specs = tiny_specs()
        bad = specs[1].fingerprint()
        real = ScenarioSpec.run

        def flaky(self):
            if self.fingerprint() == bad:
                raise ValueError("boom")
            return real(self)

        monkeypatch.setattr(ScenarioSpec, "run", flaky)
        with BatchRunner(jobs=2) as runner:
            outcomes, errors = _collect(runner, specs)
        assert set(errors) == {1}
        assert isinstance(errors[1], SpecFailedError)
        assert errors[1].exception_type == "ValueError"
        assert str(errors[1]) == (
            f"spec {specs[1].describe()} ({bad}) raised ValueError: boom"
        )
        assert runner.worker_crashes == 0  # the worker survived
        assert_same_results(
            [golden[0], golden[2], golden[3]],
            [outcomes[0], outcomes[2], outcomes[3]],
        )

    def test_failures_are_not_cached(self, monkeypatch, tmp_path, golden):
        specs = tiny_specs()
        bad = specs[0].fingerprint()
        real = batch.execute_scenario

        def flaky(spec):
            if spec.fingerprint() == bad:
                raise RuntimeError("transient infra issue")
            return real(spec)

        monkeypatch.setattr(batch, "execute_scenario", flaky)
        runner = BatchRunner(cache_dir=tmp_path)
        _, errors = _collect(runner, specs)
        assert set(errors) == {0}
        monkeypatch.setattr(batch, "execute_scenario", real)

        healed = BatchRunner(cache_dir=tmp_path)
        outcomes = healed.run(specs)
        assert healed.cache_misses == 1  # only the failed spec re-runs
        assert_same_results(golden, outcomes)


class TestInterruptAndResume:
    def test_stop_request_drains_and_raises(self, tmp_path):
        specs = tiny_specs()
        cache = tmp_path / "cache"
        runner = BatchRunner(cache_dir=cache)
        events = runner.iter_run(specs)
        first_index, _ = next(events)
        runner.request_stop()
        with pytest.raises(RunInterruptedError) as exc_info:
            list(events)
        runner.close()
        assert exc_info.value.remaining == len(specs) - 1
        assert f"cached in {cache}" in str(exc_info.value)
        # Exactly the delivered spec reached the disk tier.
        with BatchRunner(cache_dir=cache) as warm:
            stored = [
                index
                for index, spec in enumerate(specs)
                if warm.disk.load(spec.fingerprint()) is not None
            ]
        assert stored == [first_index]

    def test_interrupt_without_cache_says_nothing_was_kept(self):
        """Without a cache directory completed outcomes live only in the
        process, so the message must not promise a resumable rerun."""
        runner = BatchRunner()
        events = runner.iter_run(tiny_specs())
        next(events)
        runner.request_stop()
        with pytest.raises(RunInterruptedError) as exc_info:
            list(events)
        message = str(exc_info.value)
        assert "cached" not in message
        assert "not kept" in message

    def test_interrupted_then_resumed_matches_uninterrupted(
        self, tmp_path, golden
    ):
        """The acceptance property: an interrupted run, rerun by a fresh
        runner on the same cache, produces results identical to a run
        that was never interrupted (completed outcomes are re-served
        from the cache)."""
        specs = tiny_specs()
        cache = tmp_path / "cache"

        interrupted = BatchRunner(cache_dir=cache)
        events = interrupted.iter_run(specs)
        next(events)
        interrupted.request_stop()
        with pytest.raises(RunInterruptedError):
            list(events)
        interrupted.close()

        resumed = BatchRunner(cache_dir=cache)
        outcomes = resumed.run(specs)
        resumed.close()
        assert_same_results(golden, outcomes)
        assert resumed.cache_hits >= 1  # completed work was not redone
        assert resumed.cache_misses == len(specs) - resumed.cache_hits
        assert sorted(p.name for p in cache.iterdir()) == ["manifest.pack"]

    def test_interrupt_in_pool_mode_preserves_completed_work(self, tmp_path):
        """Pool path: stop after the first completion; in-flight chunks
        drain, their outcomes land in the cache, the rest is counted.

        The batch must be larger than the supervisor's in-flight window
        (jobs + 2), otherwise everything is already dispatched by the
        time the stop lands and the run just finishes."""
        base = tiny_specs()[0]
        specs = list(
            base.sweep(
                manager=["static-big", "octopus-man"], seed=[1, 2, 3, 4]
            )
        )
        runner = BatchRunner(jobs=2, cache_dir=tmp_path / "cache")
        events = runner.iter_run(specs)
        completed = [next(events)]
        runner.request_stop()
        with pytest.raises(RunInterruptedError):
            for item in events:
                completed.append(item)
        runner.close()
        # Everything that was yielded is re-servable from the cache.
        warm = BatchRunner(cache_dir=tmp_path / "cache")
        reread = {
            index: outcome
            for index, outcome in warm.iter_run(
                [specs[index] for index, _ in completed]
            )
        }
        assert warm.cache_misses == 0
        for position, (index, outcome) in enumerate(completed):
            assert_same_results([outcome], [reread[position]])
