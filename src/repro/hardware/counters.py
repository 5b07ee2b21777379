"""Hardware performance counters (``perf``-style per-core IPS).

HipsterCo measures batch-workload throughput generically through per-core
instruction counters (paper Section 3.2/3.7).  On Juno there is a known
bug: whenever any core enters an idle state, ``perf`` returns garbage for
*all* cores.  The paper works around it by disabling CPUidle; we model both
the bug and the workaround so the implementation constraint is part of the
reproduction (and is exercised by tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.soc import KernelConfig, Platform

#: Cores busier than this fraction of a cycle per cycle are "non-idle" for
#: the purposes of the Juno idle-entry bug.
_IDLE_UTIL_THRESHOLD = 1e-9


@dataclass(frozen=True)
class PerfCounters:
    """Samples per-core instructions-per-second, with the Juno quirk.

    Parameters
    ----------
    platform:
        The platform whose cores are being sampled.
    kernel:
        Kernel configuration; the Juno bug only manifests while CPUidle is
        enabled, because only then do idle cores enter idle states.
    juno_perf_bug:
        Whether to model the hardware erratum at all (on by default for the
        Juno platform).
    """

    platform: Platform
    kernel: KernelConfig = KernelConfig()
    juno_perf_bug: bool = True

    @property
    def bug_armed(self) -> bool:
        """Whether the erratum can fire at all under this kernel config."""
        return self.juno_perf_bug and self.kernel.cpuidle_enabled

    def read_array(
        self, true_ips: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, bool]:
        """Array-native counter read over the platform's dense core index.

        ``true_ips[i]`` is the ground-truth IPS of core
        ``platform.core_ids[i]``.  Returns the sampled per-core IPS and
        whether the sample is garbage.  The garbage draw is one vectorized
        ``uniform`` over the cores in index order.
        """
        if not self._bug_fires(true_ips):
            return true_ips, False
        drawn = rng.uniform(0.0, 1e13, size=len(true_ips))
        # A garbage sample that exactly reproduces the truth would be
        # indistinguishable from a clean read (measure-zero, but keeps
        # the flag consistent with comparing the two samples).
        return drawn, not np.array_equal(drawn, true_ips)

    def _bug_fires(self, true_ips: np.ndarray) -> bool:
        if not self.bug_armed:
            return False
        return bool((np.asarray(true_ips) <= _IDLE_UTIL_THRESHOLD).any())
