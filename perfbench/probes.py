"""Where the benchmark attaches to the program: wrappers on public
functions of each layer, installed from outside and removed afterwards.

Two kinds of probe exist:

* :class:`Tally` -- always on, untraced runs included.  It wraps
  ``BatchRunner.iter_run`` (every ``run``/``results`` call goes through
  it) and counts spec requests, the simulated intervals delivered to the
  caller and failed requests.  Its cost is one ``len()`` per outcome.
* :class:`LayerProbes` -- traced runs only.  It wraps the layer
  boundaries named in ``perfbench/README.md`` into a
  :class:`~perfbench.spans.Recorder`.

Nothing under ``src/`` changes: probes are attribute swaps on classes
and modules, undone by :meth:`uninstall`.  Pool workers are forked
after the probes are installed, so they run the same wrappers.
"""

from __future__ import annotations

import pickle
import types
from typing import Any, Callable

from perfbench.spans import Recorder, _clock


class _Patches:
    """A reversible set of ``setattr`` swaps."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def swap(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


class Tally(_Patches):
    """Spec requests, delivered intervals and failures, per pass."""

    def __init__(self) -> None:
        super().__init__()
        self.requests = 0
        self.intervals = 0
        self.failed = 0

    def install(self) -> None:
        from repro.errors import ExecutionError
        from repro.sim.batch import BatchRunner

        original = BatchRunner.__dict__["iter_run"]
        tally = self

        def iter_run(runner, specs, *args, **kwargs):
            spec_list = list(specs)
            tally.requests += len(spec_list)
            try:
                for index, outcome in original(runner, spec_list, *args, **kwargs):
                    if isinstance(outcome, ExecutionError):
                        tally.failed += 1
                    else:
                        tally.intervals += len(outcome.result)
                    yield index, outcome
            except ExecutionError:
                tally.failed += 1
                raise

        self.swap(BatchRunner, "iter_run", iter_run)


def _manager_classes() -> list[type]:
    """``TaskManager`` and every subclass the factories can build."""
    import repro.scenarios.factories  # noqa: F401  (imports every policy)
    from repro.policies.base import TaskManager

    found, todo = [], [TaskManager]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class LayerProbes(_Patches):
    """Every layer boundary of a traced pass, recorded into ``recorder``.

    Layer names (the recorder's frame names) are the prefixes of the
    per-layer metrics in :mod:`perfbench.metrics`.
    """

    #: Engine layers whose per-spec self time is attached to the
    #: ``engine.spec`` span (the per-spec engine stats).
    SPEC_BREAKDOWN = ("engine.manager", "engine.queue", "engine.power")

    def __init__(self, recorder: Recorder):
        super().__init__()
        self.recorder = recorder

    def _wrap(self, owner: Any, attr: str, layer: str, **kwargs) -> None:
        self.swap(
            owner, attr, self.recorder.wrap(layer, owner.__dict__[attr], **kwargs)
        )

    def install(self) -> None:
        import repro.sim.batch as batch
        import repro.sim.engine as engine
        from repro.fleet.aggregate import FleetAccumulator, FleetOutcome
        from repro.fleet.spec import FleetSpec
        from repro.hardware.power import (
            ClusterPowerCoefficients,
            EnergyMeter,
            PowerModel,
        )
        from repro.scenarios.spec import ScenarioSpec
        from repro.sim.queueing import DispatchQueue
        from repro.sim.supervise import PoolSupervisor

        rec = self.recorder
        fingerprint = ScenarioSpec.__dict__["fingerprint"]

        # engine: one kept span per spec run, wherever it runs
        self.swap(ScenarioSpec, "run", self._spec_run(ScenarioSpec.__dict__["run"], fingerprint))
        for cls in _manager_classes():
            for attr in ("decide", "observe"):
                fn = cls.__dict__.get(attr)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    self._wrap(cls, attr, "engine.manager")
        self._wrap(
            DispatchQueue,
            "run_interval",
            "engine.queue",
            after=lambda result, *a, **k: rec.count("engine.scalar_intervals"),
        )
        self._wrap(DispatchQueue, "draw_interval", "engine.queue")
        self._wrap(
            DispatchQueue,
            "run_epoch_drawn",
            "engine.queue",
            after=lambda result, queue, t0s, *a, **k: rec.count(
                "engine.epoch_intervals", len(t0s)
            ),
        )
        self._wrap(ClusterPowerCoefficients, "cluster_power_w", "engine.power")
        self._wrap(engine, "_epoch_cluster_power", "engine.power")
        for attr in ("breakdown", "breakdown_array"):
            self._wrap(PowerModel, attr, "engine.power")
        for attr in ("record", "record_many"):
            self._wrap(EnergyMeter, attr, "engine.power")

        # scenarios: spec fingerprinting
        self._wrap(ScenarioSpec, "fingerprint", "scenarios.fingerprint")

        # batch: disk tier and runner close
        self._wrap(
            batch.DiskCache,
            "load",
            "batch.disk_load",
            keep=True,
            spec_id=lambda cache, key: key,
        )
        self._wrap(
            batch.DiskCache,
            "store_many",
            "batch.disk_store",
            keep=True,
            after=lambda result, cache, payloads: rec.count(
                "batch.disk_store_bytes", sum(len(p) for _, p in payloads)
            ),
        )
        self._wrap(batch.BatchRunner, "close", "batch.close", keep=True)

        def loads(data, *args, **kwargs):
            rec.count("batch.disk_load_bytes", len(data))
            return pickle.loads(data, *args, **kwargs)

        self.swap(
            batch,
            "pickle",
            types.SimpleNamespace(
                loads=loads,
                dumps=pickle.dumps,
                HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
            ),
        )

        # pool: time the parent spends inside supervision
        self.swap(
            PoolSupervisor,
            "events",
            rec.wrap_generator("pool.events", PoolSupervisor.__dict__["events"]),
        )

        # fleet: expansion, fault lowering, timeline split, aggregation
        self._wrap(FleetSpec, "run", "fleet.run", keep=True)
        self._wrap(FleetSpec, "node_specs", "fleet.expand", keep=True)
        self._wrap(FleetSpec, "fault_schedule", "fleet.fault_lower", keep=True)
        self._wrap(FleetSpec, "planned_levels", "fleet.split", keep=True)
        self._wrap(FleetAccumulator, "add", "fleet.aggregate")
        self._wrap(FleetAccumulator, "finish", "fleet.aggregate", keep=True)
        self._wrap(FleetOutcome, "resilience_report", "fleet.aggregate", keep=True)

    def _spec_run(self, original: Callable, fingerprint: Callable) -> Callable:
        rec = self.recorder
        breakdown = self.SPEC_BREAKDOWN

        def run(spec):
            frame = rec._open("engine.spec", fingerprint(spec))
            before = [rec.self_s(layer) for layer in breakdown]
            start = _clock()
            try:
                outcome = original(spec)
                rec.count("engine.intervals", len(outcome.result))
            finally:
                end = _clock()
                args = {
                    f"{layer.split('.')[1]}_ms": round(
                        (rec.self_s(layer) - b) * 1e3, 3
                    )
                    for layer, b in zip(breakdown, before)
                }
                rec._close(frame, start, end, True, args)
                if rec.in_worker:
                    rec.count("pool.worker_busy_s", end - start)
                    if not rec.stack:
                        rec.spill()
            return outcome

        run.__wrapped__ = original  # type: ignore[attr-defined]
        return run
