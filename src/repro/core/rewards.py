"""Reward mechanism: Algorithm 1 of the paper, lines 1-15.

The reward ``lambda_n`` for the interval just finished has three parts:

* **QoS reward** -- ``QoS_reward = QoS_curr / QoS_target``.  Below the
  danger zone the reward is ``QoS_reward + 1`` (prefer configurations that
  approach the target from below, i.e. spend less); above the target it is
  ``-QoS_reward - 1`` (violations are punished in proportion to their
  tardiness).
* **Stochastic reward** -- between the danger threshold and the target a
  uniform ``Random(0, 1)`` penalty keeps some exploration pressure on
  configurations that sit close under the target (line 9).
* **Power reward** (HipsterIn) -- ``TDP / Power``: cheaper intervals score
  higher (line 15); or **Throughput reward** (HipsterCo) --
  ``(BIPS + SIPS) / (maxIPS(B) + maxIPS(S))``, the batch clusters'
  aggregate IPS normalized by the platform's peak (lines 12-13).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Danger-zone fraction QoS_D (Section 3.3; shared with the heuristic).
DEFAULT_QOS_DANGER = 0.85


@dataclass(frozen=True)
class RewardInputs:
    """Measurements feeding one reward evaluation."""

    qos_curr_ms: float
    qos_target_ms: float
    power_w: float
    tdp_w: float
    batch_present: bool = False
    big_ips: float = 0.0
    small_ips: float = 0.0
    max_ips_big: float = 1.0
    max_ips_small: float = 1.0

    def __post_init__(self) -> None:
        if self.qos_target_ms <= 0:
            raise ValueError("qos_target_ms must be positive")
        if self.power_w <= 0 or self.tdp_w <= 0:
            raise ValueError("power_w and tdp_w must be positive")
        if self.max_ips_big <= 0 or self.max_ips_small <= 0:
            raise ValueError("max IPS denominators must be positive")


@dataclass(frozen=True)
class RewardBreakdown:
    """The reward and its components, for inspection and tests."""

    total: float
    qos_part: float
    stochastic_penalty: float
    objective_part: float
    violated: bool


def reward_terms(
    qos_curr_ms: float,
    qos_target_ms: float,
    power_w: float,
    tdp_w: float,
    batch_present: bool,
    big_ips: float,
    small_ips: float,
    max_ips_big: float,
    max_ips_small: float,
    rng: np.random.Generator,
    qos_danger: float = DEFAULT_QOS_DANGER,
) -> tuple[float, float, float, float, bool]:
    """Algorithm 1, lines 1-15, on plain floats.

    Returns ``(total, qos_part, stochastic_penalty, objective_part,
    violated)``.  The arithmetic core of :func:`compute_reward`, which
    managers call directly once per interval; it validates its inputs
    exactly as :class:`RewardInputs` and :func:`compute_reward` do.
    """
    if not 0.0 < qos_danger <= 1.0:
        raise ValueError("qos_danger must be within (0, 1]")
    if qos_target_ms <= 0:
        raise ValueError("qos_target_ms must be positive")
    if power_w <= 0 or tdp_w <= 0:
        raise ValueError("power_w and tdp_w must be positive")
    if max_ips_big <= 0 or max_ips_small <= 0:
        raise ValueError("max IPS denominators must be positive")
    qos_reward = qos_curr_ms / qos_target_ms
    stochastic = 0.0
    violated = False
    if qos_curr_ms < qos_target_ms * qos_danger:
        qos_part = qos_reward + 1.0  # line 7
    elif qos_curr_ms < qos_target_ms:
        # Random(0, 1): uniform(0, 1) returns 0.0 + 1.0 * random(), the
        # identical float from the identical draw, through a slower path.
        stochastic = rng.random()  # line 9
        qos_part = qos_reward + 1.0
    else:
        qos_part = -qos_reward - 1.0  # line 11
        violated = True

    if batch_present:
        objective = (big_ips + small_ips) / (max_ips_big + max_ips_small)  # line 13
    else:
        objective = tdp_w / power_w  # line 15

    return qos_part - stochastic + objective, qos_part, stochastic, objective, violated


def compute_reward(
    inputs: RewardInputs,
    rng: np.random.Generator,
    *,
    qos_danger: float = DEFAULT_QOS_DANGER,
) -> RewardBreakdown:
    """Evaluate Algorithm 1, lines 1-15, for one interval."""
    total, qos_part, stochastic, objective, violated = reward_terms(
        inputs.qos_curr_ms,
        inputs.qos_target_ms,
        inputs.power_w,
        inputs.tdp_w,
        inputs.batch_present,
        inputs.big_ips,
        inputs.small_ips,
        inputs.max_ips_big,
        inputs.max_ips_small,
        rng,
        qos_danger,
    )
    return RewardBreakdown(
        total=total,
        qos_part=qos_part,
        stochastic_penalty=stochastic,
        objective_part=objective,
        violated=violated,
    )
