"""Hardware substrate: a calibrated model of the ARM Juno R1 platform.

The modules here replace the physical board the paper measures on: core and
cluster descriptions (:mod:`~repro.hardware.cores`), per-cluster DVFS
(:mod:`~repro.hardware.dvfs`), the power model and energy meters
(:mod:`~repro.hardware.power`), perf-style counters with the Juno idle bug
(:mod:`~repro.hardware.counters`), the configuration space
(:mod:`~repro.hardware.topology`), core pinning and job control
(:mod:`~repro.hardware.affinity`), the characterization microbenchmark
(:mod:`~repro.hardware.microbench`) and the calibrated Juno R1 factory
(:mod:`~repro.hardware.juno`).
"""

from repro.hardware.affinity import AffinityManager, Placement
from repro.hardware.cores import Cluster, CoreKind, CoreType
from repro.hardware.counters import PerfCounters
from repro.hardware.dvfs import DVFSController
from repro.hardware.juno import juno_r1
from repro.hardware.microbench import (
    CharacterizationRow,
    characterize_cluster,
    characterize_platform,
)
from repro.hardware.power import EnergyMeter, PowerBreakdown, PowerModel
from repro.hardware.soc import KernelConfig, Platform
from repro.hardware.topology import (
    PAPER_FIG2C_LADDER,
    Configuration,
    config_by_label,
    config_capacity_ips,
    config_power_w,
    enumerate_configurations,
    octopus_man_ladder,
    rank_configurations,
    validate_configuration,
)

__all__ = [
    "AffinityManager",
    "CharacterizationRow",
    "Cluster",
    "Configuration",
    "CoreKind",
    "CoreType",
    "DVFSController",
    "EnergyMeter",
    "KernelConfig",
    "PAPER_FIG2C_LADDER",
    "PerfCounters",
    "Placement",
    "Platform",
    "PowerBreakdown",
    "PowerModel",
    "characterize_cluster",
    "characterize_platform",
    "config_by_label",
    "config_capacity_ips",
    "config_power_w",
    "enumerate_configurations",
    "juno_r1",
    "octopus_man_ladder",
    "rank_configurations",
    "validate_configuration",
]
