"""Workload models: latency-critical services and batch programs."""

from repro.workloads.base import (
    LatencyCriticalWorkload,
    capacity_rps,
    lc_server_speeds,
)
from repro.workloads.batch import MEMORY_CEILING_IPS, BatchJobSet, BatchProgram
from repro.workloads.memcached import memcached
from repro.workloads.spec import SPEC_CPU2006, spec_job_set, spec_mix, spec_program
from repro.workloads.websearch import websearch

__all__ = [
    "BatchJobSet",
    "BatchProgram",
    "LatencyCriticalWorkload",
    "MEMORY_CEILING_IPS",
    "SPEC_CPU2006",
    "capacity_rps",
    "lc_server_speeds",
    "memcached",
    "spec_job_set",
    "spec_mix",
    "spec_program",
    "websearch",
]
