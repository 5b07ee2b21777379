"""The library's user-facing error types.

Every error a caller can trigger by naming or parameterizing something
wrongly derives from :class:`ReproError`, so the public facade
(:mod:`repro.api`) and the CLI can catch one type and surface a clean,
actionable message.  The concrete classes double-inherit from the
builtin exceptions the pre-facade code raised (``KeyError`` /
``TypeError`` / ``ValueError``), so callers written against the old
contracts keep working.

Messages are *actionable* by construction: an unknown name lists the
valid choices and appends a ``difflib``-based "did you mean" suggestion
when one is close enough.
"""

from __future__ import annotations

import difflib
from typing import Any, Iterable, Sequence


def suggest(name: str, choices: Iterable[str]) -> str | None:
    """The closest valid choice to ``name``, if any is plausibly meant."""
    matches = difflib.get_close_matches(name, list(choices), n=1, cutoff=0.5)
    return matches[0] if matches else None


def _choices_clause(name: str, choices: Sequence[str]) -> str:
    clause = f"valid choices: {', '.join(sorted(choices))}"
    best = suggest(name, choices)
    if best is not None:
        clause += f" (did you mean {best!r}?)"
    return clause


class ReproError(Exception):
    """Base class of every error the public API raises on bad input."""


class UnknownNameError(ReproError, KeyError):
    """An unknown registry key: scenario family, workload, manager, ...

    ``str()`` returns the full actionable message (``KeyError``'s default
    ``repr``-of-args rendering is overridden), so the CLI can hand it to
    ``parser.error`` verbatim.
    """

    def __init__(self, kind: str, name: str, choices: Sequence[str]):
        message = f"unknown {kind} {name!r}; {_choices_clause(name, choices)}"
        super().__init__(message)
        self.kind = kind
        self.name = name
        self.choices = tuple(sorted(choices))

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class UnknownParamError(ReproError, TypeError):
    """Unknown keyword argument(s) for a known factory or family."""

    def __init__(
        self, target: str, unknown: Sequence[str], accepted: Sequence[str]
    ):
        parts = []
        for name in sorted(unknown):
            clause = f"unknown parameter {name!r}"
            best = suggest(name, accepted)
            if best is not None:
                clause += f" (did you mean {best!r}?)"
            parts.append(clause)
        message = (
            f"{target}: {'; '.join(parts)}; "
            f"accepted parameters: {', '.join(sorted(accepted))}"
        )
        super().__init__(message)
        self.target = target
        self.unknown = tuple(sorted(unknown))
        self.accepted = tuple(sorted(accepted))


class PackError(ReproError, ValueError):
    """A scenario pack failed to parse, validate or compile.

    ``path`` locates the offending clause inside the pack document
    (e.g. ``scenarios[2].trace.kind``) and is prepended to the message.
    """

    def __init__(self, message: str, *, path: str = ""):
        full = f"{path}: {message}" if path else message
        super().__init__(full)
        self.path = path


class ExecutionError(ReproError, RuntimeError):
    """A scenario could not be executed, after the supervisor's retries.

    Unlike the naming/validation errors above this is a *runtime*
    failure: the spec was well-formed but running it crashed a worker,
    hung past its watchdog deadline, or raised inside the engine.
    ``fingerprint`` identifies the culprit spec (its cache key), so a
    caller can drop or pin exactly that run; everything else in the
    batch completes normally and lands in the cache.
    """

    def __init__(
        self,
        message: str,
        *,
        fingerprint: str = "",
        spec_description: str = "",
    ):
        super().__init__(message)
        self.fingerprint = fingerprint
        self.spec_description = spec_description


class WorkerCrashError(ExecutionError):
    """One spec repeatedly killed its worker process (a *poison spec*).

    The supervisor only raises this after isolating the spec through
    chunk bisection and confirming the crash with a solo dispatch, so
    the named fingerprint really is the culprit, not a victim that
    shared a pool with one.
    """


class SpecTimeoutError(ExecutionError):
    """One spec repeatedly overran its watchdog deadline (hung)."""

    def __init__(self, message: str, *, timeout_s: float = 0.0, **kwargs):
        super().__init__(message, **kwargs)
        self.timeout_s = timeout_s


class SpecFailedError(ExecutionError):
    """The engine raised a Python exception while running one spec.

    Deterministic by the purity contract (a run is a pure function of
    its spec), so it is not retried; ``exception_type`` carries the
    original class name across the process boundary.
    """

    def __init__(self, message: str, *, exception_type: str = "", **kwargs):
        super().__init__(message, **kwargs)
        self.exception_type = exception_type

    @classmethod
    def raised(
        cls, key: str, spec: Any, exception_type: str, message: str, suffix: str = ""
    ) -> "SpecFailedError":
        """The error for ``spec`` (cache key ``key``) having raised
        ``exception_type: message``; ``suffix`` names the execution mode."""
        return cls(
            f"spec {spec.describe()} ({key}) raised "
            f"{exception_type}: {message}{suffix}",
            fingerprint=key,
            spec_description=spec.describe(),
            exception_type=exception_type,
        )


class RunInterruptedError(ReproError):
    """The run was stopped early (SIGINT/SIGTERM) after a clean drain.

    In-flight chunks were allowed to finish and their outcomes were
    flushed to the cache and journal before this was raised, so a
    ``--resume`` rerun continues from exactly this point.
    """

    def __init__(self, message: str, *, remaining: int = 0):
        super().__init__(message)
        self.remaining = remaining


class ResumeMismatchError(ReproError):
    """``--resume`` named a journal written by a *different* run.

    Resuming under changed run parameters (seed, workload, quick mode,
    code version) would silently mix two runs' outputs; starting fresh
    (drop ``--resume`` or the journal file) is always safe.
    """


__all__ = [
    "ExecutionError",
    "PackError",
    "ReproError",
    "ResumeMismatchError",
    "RunInterruptedError",
    "SpecFailedError",
    "SpecTimeoutError",
    "UnknownNameError",
    "UnknownParamError",
    "WorkerCrashError",
    "suggest",
]
