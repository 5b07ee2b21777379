"""The lookup table ``R(w, c)`` and its Q-learning update.

The table estimates the total discounted reward of choosing configuration
``c`` in load bucket ``w`` (Section 3.1).  The paper implements it as a
Python dictionary for O(1) access (Section 3.7); we key a dictionary by
state and keep each state's actions in a dense row, still O(1).  The update
rule is Algorithm 1's line 16:

    R(w_n, c_n) += alpha * (lambda_n + gamma * max_d R(w_n+1, d) - R(w_n, c_n))

with learning rate ``alpha = 0.6`` and discount ``gamma = 0.9``
(Section 3.4, empirically determined).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

#: Discount factor gamma (Section 3.4).
DEFAULT_GAMMA = 0.9

#: Learning rate alpha (Section 3.4).
DEFAULT_ALPHA = 0.6


@dataclass
class LookupTable:
    """``R(w, c)`` over (load bucket, configuration index).

    ``n_actions`` is the size of the configuration space; action indices
    are the caller's concern (Hipster uses the index into its enumerated
    configuration tuple).  Each visited state holds a dense row of
    ``n_actions`` values (unvisited entries 0.0) and a row of visit
    counts, so the bootstrap ``max`` and the greedy ``argmax`` are one
    pass over a list instead of a validated lookup per action.
    """

    n_actions: int
    alpha: float = DEFAULT_ALPHA
    gamma: float = DEFAULT_GAMMA
    alpha_schedule: str = "fixed"
    alpha_min: float = 0.10
    _values: dict[int, list[float]] = field(default_factory=dict)
    _visits: dict[int, list[int]] = field(default_factory=dict)
    #: Updated entries in first-update order (what :meth:`snapshot`
    #: and ``len`` report).
    _entries: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_actions <= 0:
            raise ValueError("n_actions must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be within (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be within [0, 1)")
        if self.alpha_schedule not in ("fixed", "decay"):
            raise ValueError("alpha_schedule must be 'fixed' or 'decay'")
        if not 0.0 < self.alpha_min <= 1.0:
            raise ValueError("alpha_min must be within (0, 1]")

    def value(self, state: int, action: int) -> float:
        """``R(w, c)``; unvisited entries are 0 (Algorithm 2, line 4)."""
        self._check(state, action)
        row = self._values.get(state)
        return row[action] if row is not None else 0.0

    def visited(self, state: int, action: int) -> bool:
        """Whether the entry has ever been updated."""
        return self.visit_count(state, action) > 0

    def state_visited(self, state: int) -> bool:
        """Whether any action has been tried in this state."""
        if state < 0:
            raise ValueError("state must be non-negative")
        return state in self._values

    def best_action(
        self, state: int, *, tie_break: Iterable[int] | None = None
    ) -> tuple[int, float]:
        """``argmax_c R(w, c)`` with its value (Algorithm 2, line 7).

        Unvisited entries count as 0, exactly as in the paper.  Ties are
        broken by ``tie_break`` order (e.g. the heuristic ladder, so equal
        scores prefer lower-power configurations) or by index.  The state
        is validated once; every ``tie_break`` action is range-checked.
        """
        if state < 0:
            raise ValueError("state must be non-negative")
        n_actions = self.n_actions
        order = tie_break if tie_break is not None else range(n_actions)
        row = self._values.get(state)
        best_action, best_value = None, float("-inf")
        for action in order:
            if not 0 <= action < n_actions:
                raise ValueError(f"action must be within [0, {n_actions})")
            value = row[action] if row is not None else 0.0
            if value > best_value:
                best_action, best_value = action, value
        assert best_action is not None
        return best_action, best_value

    def max_value(self, state: int) -> float:
        """``max_d R(w, d)`` -- the bootstrap term of the update."""
        if state < 0:
            raise ValueError("state must be non-negative")
        row = self._values.get(state)
        return max(row) if row is not None else 0.0

    def update(
        self, state: int, action: int, reward: float, next_state: int
    ) -> float:
        """Apply Algorithm 1's line 16; returns the new ``R(w, c)``."""
        self._check(state, action)
        bootstrap = self.max_value(next_state)
        row = self._values.get(state)
        if row is None:
            row = self._values[state] = [0.0] * self.n_actions
            self._visits[state] = [0] * self.n_actions
        visits = self._visits[state]
        n = visits[action]
        old = row[action]
        alpha = self._effective_alpha(n)
        new = old + alpha * (reward + self.gamma * bootstrap - old)
        if not n:
            self._entries.append((state, action))
        row[action] = new
        visits[action] = n + 1
        return new

    def _effective_alpha(self, visits: int) -> float:
        """Learning rate for the next update of an entry visited
        ``visits`` times.

        ``fixed`` is the paper's constant alpha.  ``decay`` uses the
        stochastic-approximation schedule ``1 / (visits + 1) ** 0.6``
        floored at ``alpha_min``: the first visit of an entry jumps
        directly to its bootstrap target (eliminating stale values from
        earlier in the run, when the value scale was still growing), and
        subsequent visits average measurement noise away while the floor
        preserves adaptivity to drift.
        """
        if self.alpha_schedule == "fixed":
            return self.alpha
        return max(self.alpha_min, 1.0 / (visits + 1) ** 0.6)

    def visit_count(self, state: int, action: int) -> int:
        """How many times the entry has been updated."""
        self._check(state, action)
        visits = self._visits.get(state)
        return visits[action] if visits is not None else 0

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> dict[tuple[int, int], float]:
        """A copy of the populated entries (for inspection/tests)."""
        return {(s, a): self._values[s][a] for s, a in self._entries}

    def _check(self, state: int, action: int) -> None:
        if state < 0:
            raise ValueError("state must be non-negative")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action must be within [0, {self.n_actions})")
