"""The row a manager observes is the row the result stores.

The engine builds one :class:`~repro.sim.records.IntervalObservation`
per scalar interval, stores it in the run's table and passes the same
object to ``manager.observe``; the epoch path replays ``observe`` with
rows rebuilt from the table.  Either way, what a manager saw must equal
what ``result.observations`` reports, field by field, down to each
value's type and exact repr -- a manager fed an ``int`` where the table
reads back a ``float`` (or an ``np.float64`` where it reads a ``float``)
could compute differently from a replay of the stored run.
"""

from __future__ import annotations

import pytest

from repro.core.hipster import Hipster, HipsterParams, Variant
from repro.hardware.soc import KernelConfig
from repro.hardware.topology import Configuration
from repro.loadgen.traces import ConstantTrace, StepTrace
from repro.policies.octopusman import OctopusMan
from repro.policies.table_driven import TableDrivenPolicy
from repro.sim.engine import EngineConfig, IntervalSimulator
from repro.sim.records import IntervalObservation
from repro.workloads.memcached import memcached
from repro.workloads.spec import spec_job_set
from repro.workloads.websearch import websearch


class Recording:
    """Mixin: keep every row ``observe`` receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen: list[IntervalObservation] = []

    def observe(self, observation):
        self.seen.append(observation)
        super().observe(observation)


class RecordingHipster(Recording, Hipster):
    pass


class RecordingOctopusMan(Recording, OctopusMan):
    pass


class RecordingTable(Recording, TableDrivenPolicy):
    pass


def _table_policy() -> RecordingTable:
    return RecordingTable(
        [
            (0.1, Configuration(0, 2, None, 0.65)),
            (0.25, Configuration(0, 4, None, 0.65)),
            (1.0, Configuration(2, 0, 1.15, None)),
        ]
    )


def _hipster(variant: Variant) -> RecordingHipster:
    # A short learning phase, so both phases (and phase switches) run.
    return RecordingHipster(variant, HipsterParams(learning_duration_s=20.0))


def _run(platform, manager, trace, *, workload=None, epoch=True, **kwargs):
    sim = IntervalSimulator(
        platform,
        workload or memcached(),
        trace,
        manager,
        engine_config=EngineConfig(epoch_fast_path=epoch),
        seed=11,
        **kwargs,
    )
    return sim, sim.run()


def assert_same_rows(seen, result):
    stored = result.observations
    assert len(seen) == len(stored)
    for got, want in zip(seen, stored):
        assert type(got) is type(want) is IntervalObservation
        assert repr(got) == repr(want)
        for name in IntervalObservation._fields:
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is type(b), (got.index, name, a, b)
            assert repr(a) == repr(b), (got.index, name, a, b)
        assert got == want


STEP = StepTrace([(30.0, 0.05), (30.0, 0.6), (30.0, 0.15)])


@pytest.mark.parametrize("epoch", [True, False], ids=["epoch-on", "epoch-off"])
class TestRowHandoff:
    def test_hipster_in(self, platform, epoch):
        manager = _hipster(Variant.INTERACTIVE)
        sim, result = _run(platform, manager, STEP, epoch=epoch)
        assert sim.epoch_intervals == 0  # HiPSTER pins the scalar path
        assert manager.phase_switches > 0
        assert_same_rows(manager.seen, result)

    def test_hipster_co_with_armed_counter_bug(self, platform, epoch):
        """Collocation with CPUidle on: the perf-counter bug fires, so
        the counter fields come from the garbage-sample path."""
        manager = _hipster(Variant.COLLOCATED)
        sim, result = _run(
            platform,
            manager,
            StepTrace([(40.0, 0.01), (30.0, 0.3)]),
            workload=websearch(),
            epoch=epoch,
            batch_jobs=spec_job_set("calculix"),
            kernel=KernelConfig(cpuidle_enabled=True),
        )
        assert any(o.counter_garbage for o in result.observations)
        assert_same_rows(manager.seen, result)

    def test_octopus_man(self, platform, epoch):
        manager = RecordingOctopusMan()
        sim, result = _run(
            platform, manager, STEP, workload=websearch(), epoch=epoch
        )
        assert result.migration_events() > 0  # the migration adder ran
        assert_same_rows(manager.seen, result)

    def test_table_driven(self, platform, epoch):
        manager = _table_policy()
        sim, result = _run(platform, manager, ConstantTrace(0.05, 80.0), epoch=epoch)
        assert (sim.epoch_intervals > 0) == epoch
        assert_same_rows(manager.seen, result)

    def test_int_configuration_values_still_reach_managers_as_floats(
        self, platform, epoch
    ):
        """An integer interval length is stored as float64; the row the
        manager observes holds the same float."""
        manager = _table_policy()
        sim = IntervalSimulator(
            platform,
            memcached(),
            ConstantTrace(0.05, 40.0),
            manager,
            engine_config=EngineConfig(interval_s=2, epoch_fast_path=epoch),
            seed=3,
        )
        result = sim.run()
        assert type(manager.seen[0].duration_s) is float
        assert_same_rows(manager.seen, result)
