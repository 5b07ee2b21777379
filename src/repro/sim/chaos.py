"""Execution-chaos harness: deterministic fault injection for the runner.

This is fault injection for the *execution substrate itself* -- the
counterpart to the simulated fleet faults in :mod:`repro.fleet.faults`.
Where those model nodes dying inside the simulation, this module makes
the batch runner's own worker processes crash, hang, or find their
cache corrupted, so the supervision layer (:mod:`repro.sim.supervise`)
can be exercised end to end: a chaos run must complete, retry a bounded
number of times, and produce output **byte-identical** to a fault-free
run -- every spec is a pure function of itself, so a retried spec
cannot change the result.

Determinism discipline
----------------------
Faults are selected *per spec fingerprint* from a seed (a salted SHA-256
of ``seed:fingerprint``), never from wall-clock or process identity, so
the same chaos config always targets the same specs no matter how work
is chunked or which worker picks a chunk up.  Rate/fingerprint faults
fire **once** per spec per run: the injector claims a marker file in
``state_dir`` (``os.O_EXCL``, atomic across processes) before injecting,
so a retried spec succeeds and the run converges.  ``poison`` faults
deliberately skip the marker -- they crash on every dispatch, which is
what drives the supervisor's bisection-and-isolate path.

The config travels to pool workers through the :data:`ENV_VAR`
environment variable (inherited at fork/spawn), so no plumbing through
the runner is needed; injection happens only inside
:func:`~repro.sim.supervise.run_chunk` work items, never in the parent
or the serial path.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator

#: Environment variable carrying the encoded chaos config into workers.
ENV_VAR = "REPRO_CHAOS"

#: Exit status of an injected hard crash (distinctive in pool logs).
CRASH_EXIT_STATUS = 37


@dataclass(frozen=True)
class ChaosConfig:
    """Declarative fault plan, hashable and environment-encodable.

    ``*_rate`` faults hit roughly 1-in-N specs (0 disables); the
    ``*_fingerprints`` tuples name exact victims for targeted tests.
    All except ``poison_fingerprints`` fire once per spec (marker files
    under ``state_dir``); poison specs crash on **every** dispatch.
    """

    seed: int = 0
    state_dir: str = ""
    crash_rate: int = 0  #: 1-in-N specs call os._exit mid-chunk (once)
    hang_rate: int = 0  #: 1-in-N specs sleep ``hang_s`` (once)
    hang_s: float = 3600.0
    crash_fingerprints: tuple[str, ...] = ()  #: os._exit victims (once)
    kill_fingerprints: tuple[str, ...] = ()  #: SIGKILL victims (once)
    hang_fingerprints: tuple[str, ...] = ()  #: sleep victims (once)
    poison_fingerprints: tuple[str, ...] = ()  #: crash every dispatch

    def __post_init__(self) -> None:
        for attr in (
            "crash_fingerprints",
            "kill_fingerprints",
            "hang_fingerprints",
            "poison_fingerprints",
        ):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))
        if (self.crash_rate or self.hang_rate) and not self.state_dir:
            raise ValueError("rate-based chaos needs a state_dir for markers")

    # -- wire format ----------------------------------------------------

    def encode(self) -> str:
        """The JSON wire form carried by :data:`ENV_VAR`."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in payload.items():
            if isinstance(value, tuple):
                payload[name] = list(value)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def decode(cls, text: str) -> "ChaosConfig":
        return cls(**json.loads(text))

    # -- fault selection ------------------------------------------------

    def fault_for(self, fingerprint: str) -> str | None:
        """The fault mode this config assigns to one spec, if any.

        Pure function of ``(seed, fingerprint)``: targeted lists win
        over rates, and crash wins over hang so a spec never needs two
        markers.  Returns ``"poison"``, ``"crash"``, ``"kill"``,
        ``"hang"`` or ``None``.
        """
        if fingerprint in self.poison_fingerprints:
            return "poison"
        if fingerprint in self.crash_fingerprints:
            return "crash"
        if fingerprint in self.kill_fingerprints:
            return "kill"
        if fingerprint in self.hang_fingerprints:
            return "hang"
        if self.crash_rate and self._roll("crash", fingerprint, self.crash_rate):
            return "crash"
        if self.hang_rate and self._roll("hang", fingerprint, self.hang_rate):
            return "hang"
        return None

    def _roll(self, salt: str, fingerprint: str, rate: int) -> bool:
        digest = hashlib.sha256(
            f"{salt}:{self.seed}:{fingerprint}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") % rate == 0


# ----------------------------------------------------------------------
# activation (parent side)
# ----------------------------------------------------------------------


@contextmanager
def active_config(config: ChaosConfig) -> Iterator[ChaosConfig]:
    """Activate chaos for the duration of a ``with`` block.

    Sets :data:`ENV_VAR` so worker processes forked/spawned inside the
    block inherit the plan; restores the previous value on exit.
    """
    if config.state_dir:
        Path(config.state_dir).mkdir(parents=True, exist_ok=True)
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = config.encode()
    try:
        yield config
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous


def active() -> ChaosConfig | None:
    """The chaos config in effect for this process, if any."""
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    try:
        return ChaosConfig.decode(text)
    except (ValueError, TypeError):  # malformed env: chaos off
        return None


def fired_markers(state_dir: str | Path) -> list[str]:
    """The marker files of faults that have fired (test/assert helper)."""
    try:
        return sorted(p.name for p in Path(state_dir).iterdir())
    except OSError:
        return []


# ----------------------------------------------------------------------
# injection (worker side)
# ----------------------------------------------------------------------


def maybe_inject(fingerprint: str) -> None:
    """Inject this spec's fault, if chaos is active and it has one left.

    Called by :func:`repro.sim.supervise.run_chunk` immediately before
    each spec executes -- i.e. only ever inside a pool worker, so an
    injected ``os._exit``/SIGKILL takes down a *worker*, exactly the
    failure the supervisor exists to absorb.
    """
    config = active()
    if config is None:
        return
    mode = config.fault_for(fingerprint)
    if mode is None:
        return
    if mode == "poison":
        os._exit(CRASH_EXIT_STATUS)
    if not _claim(config.state_dir, mode, fingerprint):
        return  # this fault already fired once; let the retry succeed
    if mode == "crash":
        os._exit(CRASH_EXIT_STATUS)
    elif mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "hang":
        time.sleep(config.hang_s)


def _claim(state_dir: str, mode: str, fingerprint: str) -> bool:
    """Atomically claim a once-only fault (first claimant injects)."""
    if not state_dir:
        return True  # targeted fault without state: always fires
    path = Path(state_dir) / f"{mode}-{fingerprint}"
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return True  # marker dir unusable: prefer injecting to silence
    os.close(fd)
    return True


# ----------------------------------------------------------------------
# cache corruption (driver side)
# ----------------------------------------------------------------------


@dataclass
class CorruptionReport:
    """What :func:`corrupt_cache` did, for logs and assertions."""

    actions: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.actions)


def corrupt_cache(cache_dir: str | Path, seed: int) -> CorruptionReport:
    """Deterministically damage an on-disk cache directory's pack.

    Two corruption shapes, mirroring what real crashes and bad disks
    leave behind: one mid-pack record gets scribbled bytes (bit rot --
    the CRC check fails and the record is quarantined), and the manifest
    pack loses a tail chunk (a crashed appender's torn record).
    Selection is driven by ``random.Random(seed)`` only, so a chaos
    matrix can replay the exact same damage.
    """
    rng = random.Random(seed)
    manifest = Path(cache_dir) / "manifest.pack"
    report = CorruptionReport()
    try:
        size = manifest.stat().st_size
    except OSError:
        size = 0
    if size > 256:
        # Scribble into the body first (a surviving, quarantinable
        # record), then truncate the tail (a lost suffix).
        offset = rng.randrange(size // 4, size // 2)
        with manifest.open("r+b") as fh:
            fh.seek(offset)
            fh.write(b"\xde\xad\xbe\xef")
            report.actions.append(f"scribbled 4 bytes at {offset} in {manifest.name}")
            cut = rng.randrange(1, min(128, size // 4))
            fh.truncate(size - cut)
            report.actions.append(f"truncated {cut} tail byte(s) of {manifest.name}")
    return report


__all__ = [
    "CRASH_EXIT_STATUS",
    "ChaosConfig",
    "CorruptionReport",
    "ENV_VAR",
    "active",
    "active_config",
    "corrupt_cache",
    "fired_markers",
    "maybe_inject",
]
