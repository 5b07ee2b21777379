"""Task-manager interface and the paper's baseline policies."""

from repro.policies.base import (
    Decision,
    ManagerContext,
    TaskManager,
    resolve_decision,
)
from repro.policies.octopusman import (
    DEFAULT_QOS_DANGER,
    DEFAULT_QOS_SAFE,
    LadderStateMachine,
    OctopusMan,
    default_qos_safe,
)
from repro.policies.static import StaticPolicy, static_all_big, static_all_small
from repro.policies.table_driven import TableDrivenPolicy

__all__ = [
    "DEFAULT_QOS_DANGER",
    "DEFAULT_QOS_SAFE",
    "Decision",
    "LadderStateMachine",
    "ManagerContext",
    "OctopusMan",
    "StaticPolicy",
    "TableDrivenPolicy",
    "TaskManager",
    "default_qos_safe",
    "resolve_decision",
    "static_all_big",
    "static_all_small",
]
