"""Load quantization into buckets (the MDP state space).

Hipster's state ``w_n`` is the latency-critical workload's load during the
previous interval, quantized into discrete buckets between ``0`` and
``T - 1`` (Section 3.2).  The bucket size trades energy savings against
QoS: small buckets allow fine-grained configurations but react to noise;
large buckets lump distinct loads together (Section 4.2.5, Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bucket sizes used in Figure 10's sweep, by workload (fractions of max).
PAPER_BUCKET_SWEEP = {
    "websearch": (0.03, 0.06, 0.09),
    "memcached": (0.02, 0.03, 0.04),
}

#: Deployment defaults, tuned with the paper's rule -- the bucket size
#: inside Figure 10's sweep that maximizes the QoS guarantee with good
#: energy savings (Section 4.2.5) -- re-applied on the simulated
#: substrate (whose per-interval tail estimates are noisier, favouring
#: the coarser end of each sweep).
DEFAULT_BUCKET_SIZE = {
    "websearch": 0.09,
    "memcached": 0.04,
}


@dataclass(frozen=True)
class LoadBucketizer:
    """Quantizes load fractions into ``ceil(1 / bucket_size)`` buckets."""

    bucket_size: float

    def __post_init__(self) -> None:
        if not 0.0 < self.bucket_size <= 1.0:
            raise ValueError("bucket_size must be a fraction in (0, 1]")

    @property
    def n_buckets(self) -> int:
        """Number of buckets covering loads in ``[0, 1]``."""
        return int(1.0 / self.bucket_size - 1e-9) + 1

    def bucket(self, load_fraction: float) -> int:
        """Bucket index of a load fraction (clamped into ``[0, 1]``)."""
        if load_fraction < 0:
            raise ValueError("load_fraction must be non-negative")
        clamped = min(load_fraction, 1.0)
        return min(int(clamped / self.bucket_size), self.n_buckets - 1)


def default_bucketizer(workload_name: str) -> LoadBucketizer:
    """The paper's tuned bucket size for a known workload (3% / 6%)."""
    try:
        return LoadBucketizer(DEFAULT_BUCKET_SIZE[workload_name])
    except KeyError:
        raise KeyError(
            f"no tuned bucket size for {workload_name!r}; construct a "
            "LoadBucketizer explicitly"
        ) from None
