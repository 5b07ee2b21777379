"""Unit tests for Hipster's components: buckets, table, rewards, heuristic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buckets import LoadBucketizer, default_bucketizer
from repro.core.rewards import reward_terms
from repro.core.table import LookupTable
from repro.hardware.topology import Configuration
from repro.policies.octopusman import LadderStateMachine


class TestBucketizer:
    def test_bucket_count(self):
        assert LoadBucketizer(0.05).n_buckets == 20
        assert LoadBucketizer(0.03).n_buckets == 34

    def test_bucket_boundaries(self):
        b = LoadBucketizer(0.10)
        assert b.bucket(0.0) == 0
        assert b.bucket(0.0999) == 0
        assert b.bucket(0.10) == 1
        assert b.bucket(1.0) == b.n_buckets - 1

    def test_overload_clamped(self):
        b = LoadBucketizer(0.10)
        assert b.bucket(1.5) == b.n_buckets - 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LoadBucketizer(0.10).bucket(-0.1)

    def test_bucket_midpoints_map_back(self):
        b = LoadBucketizer(0.06)
        for bucket in range(b.n_buckets):
            mid = min((bucket + 0.5) * b.bucket_size, 1.0)
            assert b.bucket(mid) == bucket

    def test_defaults_by_workload(self):
        assert default_bucketizer("memcached").bucket_size == 0.04
        assert default_bucketizer("websearch").bucket_size == 0.09
        with pytest.raises(KeyError):
            default_bucketizer("nginx")

    @settings(max_examples=50, deadline=None)
    @given(
        size=st.floats(min_value=0.01, max_value=0.5),
        load=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bucket_always_valid(self, size, load):
        b = LoadBucketizer(size)
        assert 0 <= b.bucket(load) < b.n_buckets


class TestLookupTable:
    def test_unvisited_is_zero(self):
        table = LookupTable(n_actions=4)
        assert table.value(3, 2) == 0.0
        assert not table.visited(3, 2)
        assert not table.state_visited(3)

    def test_update_moves_toward_target(self):
        table = LookupTable(n_actions=2, alpha=0.5, gamma=0.0)
        new = table.update(0, 0, reward=10.0, next_state=0)
        assert new == pytest.approx(5.0)  # 0 + 0.5 * (10 - 0)
        assert table.visit_count(0, 0) == 1

    def test_bootstrap_uses_next_state_max(self):
        table = LookupTable(n_actions=2, alpha=1.0, gamma=0.5)
        table.update(1, 0, reward=8.0, next_state=1)  # R(1,0) = 8
        new = table.update(0, 1, reward=1.0, next_state=1)
        assert new == pytest.approx(1.0 + 0.5 * 8.0)

    def test_best_action_tie_break_order(self):
        table = LookupTable(n_actions=3)
        action, value = table.best_action(0, tie_break=[2, 0, 1])
        assert (action, value) == (2, 0.0)

    def test_best_action_prefers_higher_value(self):
        table = LookupTable(n_actions=3, alpha=1.0, gamma=0.0)
        table.update(0, 1, reward=4.0, next_state=0)
        table.update(0, 2, reward=9.0, next_state=0)
        action, value = table.best_action(0)
        assert (action, value) == (2, 9.0)

    def test_decay_schedule_first_visit_jumps_to_target(self):
        table = LookupTable(n_actions=2, alpha_schedule="decay", gamma=0.0)
        new = table.update(0, 0, reward=7.0, next_state=0)
        assert new == pytest.approx(7.0)  # first-visit alpha = 1

    def test_decay_schedule_floors(self):
        table = LookupTable(n_actions=1, alpha_schedule="decay", alpha_min=0.2, gamma=0.0)
        for _ in range(100):
            table.update(0, 0, reward=1.0, next_state=0)
        assert table._effective_alpha(table.visit_count(0, 0)) == pytest.approx(0.2)

    def test_invalid_indices_rejected(self):
        table = LookupTable(n_actions=2)
        with pytest.raises(ValueError):
            table.value(-1, 0)
        with pytest.raises(ValueError):
            table.value(0, 2)

    def test_fixed_point_is_reward_over_one_minus_gamma(self):
        """Repeatedly playing one action converges to r / (1 - gamma)."""
        table = LookupTable(n_actions=1, alpha=0.6, gamma=0.9)
        for _ in range(400):
            table.update(0, 0, reward=2.0, next_state=0)
        assert table.value(0, 0) == pytest.approx(2.0 / 0.1, rel=0.01)

    @settings(max_examples=30, deadline=None)
    @given(
        rewards=st.lists(
            st.floats(min_value=-5, max_value=5), min_size=1, max_size=30
        )
    )
    def test_values_bounded_by_reward_scale(self, rewards):
        """|R| can never exceed max|reward| / (1 - gamma)."""
        table = LookupTable(n_actions=1, alpha=0.6, gamma=0.9)
        for r in rewards:
            table.update(0, 0, reward=r, next_state=0)
        bound = max(abs(r) for r in rewards) / 0.1 + 1e-9
        assert abs(table.value(0, 0)) <= bound


class DictLookupTable:
    """The dict-of-entries table the dense rows replaced, kept as the
    differential oracle: every read and update must match it exactly."""

    def __init__(self, n_actions, alpha, gamma, alpha_schedule, alpha_min=0.10):
        self.n_actions, self.alpha, self.gamma = n_actions, alpha, gamma
        self.alpha_schedule, self.alpha_min = alpha_schedule, alpha_min
        self.table: dict[tuple[int, int], float] = {}
        self.visits: dict[tuple[int, int], int] = {}

    def check(self, state, action):
        if state < 0:
            raise ValueError("state must be non-negative")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action must be within [0, {self.n_actions})")

    def value(self, state, action):
        self.check(state, action)
        return self.table.get((state, action), 0.0)

    def max_value(self, state):
        return max(self.value(state, a) for a in range(self.n_actions))

    def best_action(self, state, tie_break):
        best_action, best_value = None, float("-inf")
        for action in tie_break:
            self.check(state, action)
            value = self.value(state, action)
            if value > best_value:
                best_action, best_value = action, value
        return best_action, best_value

    def update(self, state, action, reward, next_state):
        self.check(state, action)
        self.check(next_state, 0)
        old = self.value(state, action)
        if self.alpha_schedule == "fixed":
            alpha = self.alpha
        else:
            n = self.visits.get((state, action), 0)
            alpha = max(self.alpha_min, 1.0 / (n + 1) ** 0.6)
        new = old + alpha * (reward + self.gamma * self.max_value(next_state) - old)
        self.table[(state, action)] = new
        self.visits[(state, action)] = self.visits.get((state, action), 0) + 1
        return new


class TestDenseLookupTable:
    @settings(max_examples=60, deadline=None)
    @given(
        schedule=st.sampled_from(["fixed", "decay"]),
        steps=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 3),
                st.floats(-10, 10, allow_nan=False),
                st.integers(0, 5),
            ),
            max_size=40,
        ),
        tie_break=st.permutations(range(4)),
    )
    def test_matches_the_dict_table_bit_for_bit(self, schedule, steps, tie_break):
        dense = LookupTable(n_actions=4, alpha_schedule=schedule)
        oracle = DictLookupTable(4, dense.alpha, dense.gamma, schedule)
        for state, action, reward, next_state in steps:
            got = dense.update(state, action, reward, next_state)
            assert repr(got) == repr(oracle.update(state, action, reward, next_state))
        assert dense.snapshot() == oracle.table
        assert list(dense.snapshot()) == list(oracle.table)
        assert len(dense) == len(oracle.table)
        for state in range(7):
            assert repr(dense.max_value(state)) == repr(oracle.max_value(state))
            assert dense.best_action(state, tie_break=tie_break) == (
                oracle.best_action(state, tie_break)
            )
            assert dense.best_action(state) == oracle.best_action(state, range(4))
            assert dense.state_visited(state) == any(
                (state, a) in oracle.table for a in range(4)
            )
            for action in range(4):
                assert repr(dense.value(state, action)) == repr(
                    oracle.value(state, action)
                )
                assert dense.visited(state, action) == (
                    (state, action) in oracle.table
                )
                assert dense.visit_count(state, action) == oracle.visits.get(
                    (state, action), 0
                )

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: t.value(-1, 0),
            lambda t: t.value(0, 4),
            lambda t: t.visited(0, -1),
            lambda t: t.visit_count(-2, 0),
            lambda t: t.state_visited(-1),
            lambda t: t.max_value(-1),
            lambda t: t.best_action(-1),
            lambda t: t.best_action(0, tie_break=[0, 9]),
            # One validation per call still checks every tie-break action,
            # negative ones too, in visited and unvisited states alike.
            lambda t: t.best_action(0, tie_break=[1, -1]),
            lambda t: t.best_action(3, tie_break=[0, -1]),
            lambda t: t.best_action(3, tie_break=[4]),
            lambda t: t.update(0, 4, 1.0, 0),
            lambda t: t.update(0, -1, 1.0, 0),
            lambda t: t.update(-1, 0, 1.0, 0),
            lambda t: t.update(0, 0, 1.0, -1),
        ],
    )
    def test_invalid_indices_raise_value_error(self, call):
        table = LookupTable(n_actions=4)
        table.update(0, 1, 2.0, 0)
        with pytest.raises(ValueError):
            call(table)


class TestRewards:
    def _terms(self, tail, rng, **kwargs):
        """``reward_terms`` as ``(total, qos_part, stochastic_penalty,
        objective_part, violated)`` at a 10 ms target, 2 W of 3 W TDP."""
        args = dict(
            qos_curr_ms=tail,
            qos_target_ms=10.0,
            power_w=2.0,
            tdp_w=3.0,
            batch_present=False,
            big_ips=0.0,
            small_ips=0.0,
            max_ips_big=1.0,
            max_ips_small=1.0,
        )
        args.update(kwargs)
        return reward_terms(**args, rng=rng)

    def test_safe_interval_positive(self, rng):
        total, _, stochastic, _, violated = self._terms(4.0, rng)
        assert total > 0
        assert not violated
        assert stochastic == 0.0

    def test_violation_negative_qos_part(self, rng):
        _, qos_part, _, _, violated = self._terms(15.0, rng)
        assert violated
        assert qos_part == pytest.approx(-(1.5) - 1.0)

    def test_stochastic_zone_applies_penalty(self):
        rng = np.random.default_rng(0)
        penalties = [self._terms(9.0, rng)[2] for _ in range(20)]
        assert all(0.0 <= p <= 1.0 for p in penalties)
        assert any(p > 0.0 for p in penalties)

    def test_power_reward_prefers_low_power(self, rng):
        cheap = self._terms(4.0, rng, power_w=1.5)
        costly = self._terms(4.0, rng, power_w=2.8)
        assert cheap[3] > costly[3]

    def test_throughput_reward_when_batch_present(self, rng):
        objective = self._terms(
            4.0,
            rng,
            batch_present=True,
            big_ips=2e9,
            small_ips=1e9,
            max_ips_big=4e9,
            max_ips_small=2e9,
        )[3]
        assert objective == pytest.approx(0.5)

    def test_qos_reward_prefers_closer_to_target(self, rng):
        near = self._terms(8.0, np.random.default_rng(1))
        far = self._terms(2.0, np.random.default_rng(1))
        assert near[1] > far[1]

    def test_invalid_inputs_rejected(self, rng):
        with pytest.raises(ValueError):
            self._terms(1.0, rng, qos_target_ms=0.0)
        with pytest.raises(ValueError):
            self._terms(1.0, rng, power_w=0.0)

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"qos_target_ms": 0.0}, "qos_target_ms"),
            ({"power_w": 0.0}, "power_w"),
            ({"tdp_w": -1.0}, "tdp_w"),
            ({"max_ips_big": 0.0}, "max IPS"),
            ({"max_ips_small": -1.0}, "max IPS"),
            ({"qos_danger": 0.0}, "qos_danger"),
            ({"qos_danger": 1.5}, "qos_danger"),
        ],
    )
    def test_arithmetic_core_validates_like_reward_inputs(self, override, match):
        """Every reward input the arithmetic can not divide by, and a
        danger threshold outside (0, 1], is rejected by name."""
        with pytest.raises(ValueError, match=match):
            self._terms(4.0, np.random.default_rng(0), **override)

    @pytest.mark.parametrize("tail", [2.0, 9.0, 10.0, 15.0])
    @pytest.mark.parametrize("batch", [False, True])
    def test_reward_terms_follow_algorithm_1(self, tail, batch):
        """Each branch of Algorithm 1, lines 1-15, recomputed by hand."""
        rng, replay = np.random.default_rng(5), np.random.default_rng(5)
        terms = self._terms(
            tail, rng, batch_present=batch, big_ips=2e9, small_ips=1e9,
            max_ips_big=4e9, max_ips_small=2e9,
        )
        ratio = tail / 10.0
        if tail < 8.5:  # below the danger zone
            expected_qos, expected_penalty = ratio + 1.0, 0.0
        elif tail < 10.0:  # danger zone: the Random(0, 1) penalty
            expected_qos, expected_penalty = ratio + 1.0, replay.random()
        else:  # violation
            expected_qos, expected_penalty = -ratio - 1.0, 0.0
        expected_objective = (2e9 + 1e9) / (4e9 + 2e9) if batch else 3.0 / 2.0
        assert terms == (
            expected_qos - expected_penalty + expected_objective,
            expected_qos,
            expected_penalty,
            expected_objective,
            tail >= 10.0,
        )
        assert all(type(t) is float for t in terms[:4])

    def test_stochastic_penalty_is_the_uniform_draw(self):
        """Random(0, 1) is taken as ``rng.random()``: the same float and
        the same stream position as ``rng.uniform(0.0, 1.0)``."""
        rng, replay = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(50):
            penalty = self._terms(9.0, rng)[2]
            assert penalty == float(replay.uniform(0.0, 1.0))
        assert rng.random() == replay.random()

    @settings(max_examples=50, deadline=None)
    @given(
        tail=st.floats(min_value=0.0, max_value=100.0),
        power=st.floats(min_value=0.5, max_value=3.0),
    )
    def test_reward_sign_matches_violation(self, tail, power):
        rng = np.random.default_rng(0)
        _, qos_part, _, _, violated = self._terms(tail, rng, power_w=power)
        assert violated == (tail >= 10.0)
        if violated:
            assert qos_part < 0


def _ladder():
    return tuple(
        Configuration(0, n, None, 0.65) for n in range(1, 5)
    ) + (Configuration(2, 0, 1.15, None),)


class TestLadderStateMachine:
    def test_starts_at_top(self):
        machine = LadderStateMachine(ladder=_ladder())
        assert machine.current.label == "2B-1.15"

    def test_danger_climbs_safe_descends(self):
        machine = LadderStateMachine(
            ladder=_ladder(), qos_danger=0.85, qos_safe=0.30, smoothing=1.0, index=2
        )
        machine.step(9.0, target_ms=10.0)  # danger
        assert machine.index == 3
        machine.step(1.0, target_ms=10.0)
        machine.step(1.0, target_ms=10.0)  # EWMA reset needs two samples
        assert machine.index < 3

    def test_clamps_at_ends(self):
        machine = LadderStateMachine(ladder=_ladder(), smoothing=1.0, index=0)
        machine.step(0.1, target_ms=10.0)
        assert machine.index == 0
        machine.index = len(_ladder()) - 1
        machine.step(99.0, target_ms=10.0)
        assert machine.index == len(_ladder()) - 1

    def test_band_holds_position(self):
        machine = LadderStateMachine(
            ladder=_ladder(), qos_danger=0.85, qos_safe=0.30, smoothing=1.0, index=2
        )
        machine.step(5.0, target_ms=10.0)  # inside [3, 8.5]
        assert machine.index == 2

    def test_smoothing_filters_single_spike(self):
        machine = LadderStateMachine(
            ladder=_ladder(), qos_danger=0.85, qos_safe=0.30, smoothing=0.3, index=2
        )
        machine.step(5.0, target_ms=10.0)
        machine.step(8.0, target_ms=10.0)  # below target: filtered
        assert machine.index == 2

    def test_violation_bypasses_filter(self):
        machine = LadderStateMachine(
            ladder=_ladder(), qos_danger=0.85, qos_safe=0.30, smoothing=0.1, index=2
        )
        machine.step(5.0, target_ms=10.0)
        machine.step(20.0, target_ms=10.0)  # above target: immediate climb
        assert machine.index == 3

    def test_seed_from_exact_and_nearest(self):
        machine = LadderStateMachine(ladder=_ladder())
        machine.seed_from(Configuration(0, 3, None, 0.65))
        assert machine.current.label == "3S-0.65"
        machine.seed_from(Configuration(1, 0, 1.15, None))  # not on ladder
        assert machine.current.label in ("2B-1.15", "1S-0.65")

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            LadderStateMachine(ladder=_ladder(), qos_danger=0.3, qos_safe=0.5)
        with pytest.raises(ValueError):
            LadderStateMachine(ladder=())
