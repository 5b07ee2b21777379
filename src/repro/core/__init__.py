"""Hipster: the paper's contribution (Sections 3.1-3.7).

* :mod:`~repro.core.buckets` -- load quantization (the MDP state space);
* :mod:`~repro.core.table` -- the lookup table ``R(w, c)`` and Q-update;
* :mod:`~repro.core.rewards` -- Algorithm 1 (QoS / stochastic /
  power / throughput rewards) as one function on plain floats,
  :func:`~repro.core.rewards.reward_terms`;
* :mod:`~repro.core.heuristic` -- the learning-phase heuristic mapper;
* :mod:`~repro.core.hipster` -- HipsterIn and HipsterCo (Algorithm 2).
"""

from repro.core.buckets import (
    DEFAULT_BUCKET_SIZE,
    PAPER_BUCKET_SWEEP,
    LoadBucketizer,
    default_bucketizer,
)
from repro.core.heuristic import (
    HipsterHeuristicPolicy,
    build_heuristic_mapper,
    hipster_ladder,
    pareto_ladder,
)
from repro.core.hipster import (
    Hipster,
    HipsterParams,
    Phase,
    Variant,
    hipster_co,
    hipster_in,
)
from repro.core.rewards import reward_terms
from repro.core.table import DEFAULT_ALPHA, DEFAULT_GAMMA, LookupTable

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_BUCKET_SIZE",
    "DEFAULT_GAMMA",
    "Hipster",
    "HipsterHeuristicPolicy",
    "HipsterParams",
    "LoadBucketizer",
    "LookupTable",
    "PAPER_BUCKET_SWEEP",
    "Phase",
    "Variant",
    "build_heuristic_mapper",
    "default_bucketizer",
    "hipster_co",
    "hipster_in",
    "hipster_ladder",
    "pareto_ladder",
    "reward_terms",
]
