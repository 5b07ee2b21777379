"""Tests for the fault-tolerance layer: supervised pool recovery,
poison-spec isolation, watchdog timeouts, degraded serial mode, the
run journal and crash-safe resume.

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
    ResumeMismatchError,
    RunInterruptedError,
    SpecFailedError,
    SpecTimeoutError,
    WorkerCrashError,
)
from repro.scenarios import ScenarioSpec, TraceSpec
from repro.sim import batch, chaos
from repro.sim.batch import BatchRunner
from repro.sim.supervise import RetryPolicy, RunJournal


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


class TestRetryPolicy:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_DISPATCHES", "7")
        monkeypatch.setenv("REPRO_TIMEOUT_FLOOR_S", "12.5")
        policy = RetryPolicy.from_env()
        assert policy.max_dispatches == 7
        assert policy.timeout_floor_s == 12.5
        assert policy.max_pool_rebuilds == 5  # untouched default

    def test_malformed_env_falls_back_to_default(self, monkeypatch, capsys):
        import repro.sim.supervise as supervise

        monkeypatch.setattr(supervise, "_warned_env", set())
        monkeypatch.setenv("REPRO_MAX_DISPATCHES", "not-a-number")
        assert RetryPolicy.from_env().max_dispatches == 3
        assert RetryPolicy.from_env().max_dispatches == 3
        err = capsys.readouterr().err
        assert err.count("[env] malformed REPRO_MAX_DISPATCHES") == 1
        assert "'not-a-number' (ignored) -- using the default 3" in err

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


class TestRunJournal:
    HEADER = {"command": "all", "seed": 1, "quick": True}

    def test_fresh_journal_records_and_reloads(self, tmp_path):
        path = tmp_path / "journal.log"
        journal = RunJournal.open(path, self.HEADER)
        assert not journal.resumed and journal.completed == set()
        journal.record("fp-a")
        journal.record("fp-b")
        journal.record("fp-a")  # idempotent
        assert journal.recorded == 2

        resumed = RunJournal.open(path, self.HEADER, resume=True)
        assert resumed.resumed
        assert resumed.completed == {"fp-a", "fp-b"}

    def test_resume_with_different_header_refuses(self, tmp_path):
        path = tmp_path / "journal.log"
        RunJournal.open(path, self.HEADER).record("fp-a")
        with pytest.raises(ResumeMismatchError):
            RunJournal.open(path, {**self.HEADER, "seed": 2}, resume=True)

    def test_open_without_resume_truncates(self, tmp_path):
        path = tmp_path / "journal.log"
        RunJournal.open(path, self.HEADER).record("fp-a")
        fresh = RunJournal.open(path, self.HEADER)
        assert fresh.completed == set()
        reread = RunJournal.open(path, self.HEADER, resume=True)
        assert reread.completed == set()

    def test_torn_tail_line_ignored(self, tmp_path):
        path = tmp_path / "journal.log"
        journal = RunJournal.open(path, self.HEADER)
        journal.record("fp-a")
        with path.open("ab") as fh:
            fh.write(b"fp-torn-no-newline")
        resumed = RunJournal.open(path, self.HEADER, resume=True)
        assert resumed.completed == {"fp-a"}

    def test_resume_of_missing_journal_starts_fresh(self, tmp_path):
        journal = RunJournal.open(
            tmp_path / "journal.log", self.HEADER, resume=True
        )
        assert not journal.resumed and journal.completed == set()


class TestInterruptAndResume:
    def test_stop_request_drains_and_raises(self, tmp_path):
        specs = tiny_specs()
        runner = BatchRunner(cache_dir=tmp_path / "cache")
        runner.journal = RunJournal.open(
            tmp_path / "journal.log", {"run": "x"}
        )
        events = runner.iter_run(specs)
        first_index, _ = next(events)
        runner.request_stop()
        with pytest.raises(RunInterruptedError) as exc_info:
            list(events)
        runner.close()
        assert exc_info.value.remaining == len(specs) - 1
        assert len(runner.journal.completed) == 1
        assert specs[first_index].fingerprint() in runner.journal.completed

    def test_interrupted_then_resumed_matches_uninterrupted(
        self, tmp_path, golden
    ):
        """The acceptance property: interrupt + ``--resume`` produces
        results identical to a run that was never interrupted (resumed
        outcomes are re-served from the outcome cache)."""
        specs = tiny_specs()
        header = {"command": "all", "seed": 1}
        cache = tmp_path / "cache"
        journal_path = tmp_path / "journal.log"

        interrupted = BatchRunner(cache_dir=cache)
        interrupted.journal = RunJournal.open(journal_path, header)
        events = interrupted.iter_run(specs)
        next(events)
        interrupted.request_stop()
        with pytest.raises(RunInterruptedError):
            list(events)
        interrupted.close()

        resumed = BatchRunner(cache_dir=cache)
        resumed.journal = RunJournal.open(journal_path, header, resume=True)
        assert resumed.journal.resumed
        outcomes = resumed.run(specs)
        resumed.close()
        assert_same_results(golden, outcomes)
        assert resumed.cache_hits >= 1  # completed work was not redone
        assert resumed.journal.completed == {
            spec.fingerprint() for spec in specs
        }

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
