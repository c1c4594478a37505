"""Deterministic chaos fault injection for the parallel pipeline.

The chaos test suite needs to *cause* the failures the resilience
layer claims to survive — killed workers, chunks that outlive their
timeout, shared-memory attach failures, transient errors — on demand
and reproducibly.  This module is that switchboard.

Faults are described by a compact spec string, settable from code
(:func:`set_injector`) or from the environment so injected faults
reach worker processes with zero plumbing::

    REPRO_FAULTS="kill_worker:p=0.2,seed=7;transient:p=1,max=1"

Each ``;``-separated clause is ``<kind>[:key=value,...]`` with keys

``p``
    Firing probability per opportunity (default 1).
``max``
    Cap on fires *per process* (default unlimited) — ``max=1`` makes
    "fails once, then succeeds on retry" scenarios deterministic.
``seed``
    Seed of the per-site decision stream.
``delay``
    Sleep seconds for ``delay_chunk`` (default 5).

Supported kinds and their injection sites:

``kill_worker``
    ``os.kill(os.getpid(), SIGKILL)`` at the start of a worker chunk —
    the pool breaks mid-flight.
``delay_chunk``
    Sleep inside the worker chunk, long enough to trip the executor's
    per-chunk timeout.
``fail_attach``
    Raise ``FileNotFoundError`` at shared-memory attach, as if the
    segment vanished.
``transient``
    Raise :class:`~repro.exceptions.TransientFaultError` inside the
    worker chunk (always classified retryable).

Serve-path kinds (PR 8) target the sharded serving tier instead of
the offline pool; their side effects live at the injection sites in
:mod:`repro.serve.cluster` (the decision machinery here is shared):

``kill_shard``
    The shard worker dies abruptly mid-request — listening socket and
    all connections drop without a response (SIGKILL in process
    placement).
``slow_shard``
    The request handler sleeps ``ms`` milliseconds before answering —
    long enough to trip the router's per-attempt timeout.
``drop_conn``
    The connection is closed mid-request without any response bytes.
``flap_health``
    ``/healthz`` reports failing, so the router's prober ejects the
    replica until the flap passes.

Decisions are **deterministic**: each (kind, opportunity-index) pair
maps to a seeded RNG draw, so a given spec produces the same fault
schedule in every run of the same process.  Offline kinds fire **only
inside worker processes** (the executor's pool initializer calls
:func:`mark_worker_process`); the parent — and therefore the serial
fallback path — is immune by construction, which is exactly what makes
"every recovery path converges to correct scores" testable.  Serve
kinds are armed separately (:func:`arm_serve_faults`, called by shard
workers) and draw from **site-keyed** streams — the decision for
opportunity ``i`` of kind ``k`` at site ``"shard-2"`` is keyed by
``(seed, k, site, i)``, so each shard replays its own schedule
independent of request interleaving across shards.
"""

from __future__ import annotations

import logging
import os
import signal
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError, TransientFaultError
from repro.obs.metrics import REGISTRY

log = logging.getLogger(__name__)

#: Environment variable the injector is parsed from.
ENV_VAR = "REPRO_FAULTS"

#: Serve-path fault kinds: armed via :func:`arm_serve_faults` inside
#: shard workers, fired at sites in :mod:`repro.serve.cluster`.
SERVE_FAULT_KINDS: tuple[str, ...] = (
    "kill_shard",
    "slow_shard",
    "drop_conn",
    "flap_health",
)

#: Fault kinds the injector understands.
FAULT_KINDS: tuple[str, ...] = (
    "kill_worker",
    "delay_chunk",
    "fail_attach",
    "transient",
) + SERVE_FAULT_KINDS

#: Default sleep for ``delay_chunk`` (long enough to trip any sane
#: chunk timeout, short enough to keep chaos tests quick).
_DEFAULT_DELAY = 5.0


@dataclass(frozen=True)
class FaultSpec:
    """One configured fault: what fires, how often, how many times."""

    kind: str
    probability: float = 1.0
    max_fires: int | None = None
    seed: int = 0
    delay: float = _DEFAULT_DELAY

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; "
                f"supported: {', '.join(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability}"
            )
        if self.max_fires is not None and self.max_fires < 0:
            raise ReproError(
                f"fault max must be >= 0, got {self.max_fires}"
            )
        if self.delay < 0:
            raise ReproError(f"fault delay must be >= 0, got {self.delay}")


def parse_faults(spec: str) -> tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` spec string into fault specs.

    Raises :class:`~repro.exceptions.ReproError` on malformed clauses
    — a typo'd chaos config must fail loudly, not silently inject
    nothing.
    """
    specs: list[FaultSpec] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, option_str = clause.partition(":")
        kind = kind.strip()
        options: dict[str, float | int] = {}
        if option_str.strip():
            for pair in option_str.split(","):
                key, sep, value = pair.partition("=")
                key = key.strip()
                value = value.strip()
                if not sep or not key or not value:
                    raise ReproError(
                        f"malformed fault option {pair!r} in {clause!r}; "
                        "expected key=value"
                    )
                try:
                    if key == "p":
                        options["probability"] = float(value)
                    elif key == "max":
                        options["max_fires"] = int(value)
                    elif key == "seed":
                        options["seed"] = int(value)
                    elif key == "delay":
                        options["delay"] = float(value)
                    elif key == "ms":
                        # Serve-path idiom: slow_shard:ms=250 — stored
                        # in the same ``delay`` slot, in seconds.
                        options["delay"] = float(value) / 1000.0
                    else:
                        raise ReproError(
                            f"unknown fault option {key!r} in {clause!r}; "
                            "supported: p, max, seed, delay, ms"
                        )
                except ValueError as exc:
                    raise ReproError(
                        f"invalid value for fault option {key!r} in "
                        f"{clause!r}: {value!r}"
                    ) from exc
        specs.append(FaultSpec(kind=kind, **options))
    return tuple(specs)


class FaultInjector:
    """Fires configured faults at named sites, deterministically.

    One injector holds per-kind opportunity counters; the decision for
    opportunity ``i`` of kind ``k`` is a seeded RNG draw keyed by
    ``(seed, kind, i)`` — independent of call timing, identical across
    runs.  Worker processes each build their own injector (from the
    inherited environment), so counters and caps are **per process**.
    """

    def __init__(self, specs: "tuple[FaultSpec, ...] | list[FaultSpec]"):
        self._specs: dict[str, FaultSpec] = {}
        for spec in specs:
            self._specs[spec.kind] = spec
        self._opportunities: dict[str, int] = {k: 0 for k in self._specs}
        self._fired: dict[str, int] = {k: 0 for k in self._specs}
        # Site-keyed streams (serve-path faults): counters and caps are
        # tracked per (kind, site), so each shard replays its own
        # deterministic schedule regardless of cross-shard interleaving.
        self._site_opportunities: dict[tuple[str, str], int] = {}
        self._site_fired: dict[tuple[str, str], int] = {}

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        """Build an injector from a ``REPRO_FAULTS``-style string."""
        return cls(parse_faults(spec))

    @property
    def kinds(self) -> tuple[str, ...]:
        """Fault kinds this injector is armed with."""
        return tuple(self._specs)

    def fired(self, kind: str) -> int:
        """How many times ``kind`` has fired in this process."""
        return self._fired.get(kind, 0)

    def spec(self, kind: str) -> FaultSpec | None:
        """The configured spec for ``kind`` (``None`` when unarmed)."""
        return self._specs.get(kind)

    def fired_at(self, kind: str, site: str) -> int:
        """How many times ``kind`` has fired at ``site``."""
        return self._site_fired.get((kind, site), 0)

    def should_fire_at(self, kind: str, site: str) -> bool:
        """Decide (and record) whether ``kind`` fires at ``site``.

        The site-keyed twin of :meth:`should_fire`: opportunity
        counters, fire caps, and the RNG stream are all per
        ``(kind, site)``, so two shards armed with the same spec each
        see the same schedule their solo run would — deterministic
        per-(shard, opportunity), independent of request interleaving.
        """
        spec = self._specs.get(kind)
        if spec is None:
            return False
        key = (kind, site)
        opportunity = self._site_opportunities.get(key, 0)
        self._site_opportunities[key] = opportunity + 1
        fired = self._site_fired.get(key, 0)
        if spec.max_fires is not None and fired >= spec.max_fires:
            return False
        if spec.probability >= 1.0:
            fire = True
        elif spec.probability <= 0.0:
            fire = False
        else:
            rng = np.random.default_rng(
                (
                    spec.seed,
                    zlib.crc32(kind.encode("utf-8")),
                    zlib.crc32(site.encode("utf-8")),
                    opportunity,
                )
            )
            fire = float(rng.random()) < spec.probability
        if fire:
            self._site_fired[key] = fired + 1
            self._fired[kind] = self._fired.get(kind, 0) + 1
        return fire

    def should_fire(self, kind: str) -> bool:
        """Decide (and record) whether ``kind`` fires at this call."""
        spec = self._specs.get(kind)
        if spec is None:
            return False
        opportunity = self._opportunities[kind]
        self._opportunities[kind] = opportunity + 1
        if spec.max_fires is not None and self._fired[kind] >= spec.max_fires:
            return False
        if spec.probability >= 1.0:
            fire = True
        elif spec.probability <= 0.0:
            fire = False
        else:
            # zlib.crc32 (not hash()) keys the stream: str hashes are
            # salted per process, which would break run-to-run
            # determinism of the fault schedule.
            rng = np.random.default_rng(
                (spec.seed, zlib.crc32(kind.encode("utf-8")), opportunity)
            )
            fire = float(rng.random()) < spec.probability
        if fire:
            self._fired[kind] += 1
        return fire

    def inject(self, kind: str) -> None:
        """Perform the side effect of fault ``kind``."""
        spec = self._specs[kind]
        log.warning(
            "fault injector firing %r (fire %d) in pid %d",
            kind,
            self._fired[kind],
            os.getpid(),
        )
        # Counted before the side effect: a kill_worker fire takes its
        # process (and registry) down with it, but the log line above
        # and this increment are the record that it happened at all.
        # Worker-side increments reach the parent only via the drain
        # shipped with a *successful* chunk, so kill_worker fires are
        # visible parent-side just when a surviving chunk ships them.
        REGISTRY.counter(
            "repro_faults_injected_total",
            "Injected chaos faults fired, by kind",
            kind=kind,
        ).inc()
        if kind == "kill_worker":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "delay_chunk":
            time.sleep(spec.delay)
        elif kind == "fail_attach":
            raise FileNotFoundError(
                "injected fault: shared-memory segment attach failed"
            )
        elif kind == "transient":
            raise TransientFaultError(
                "injected fault: transient worker failure"
            )


#: Sentinel distinguishing "never initialised" from "explicitly None".
_UNSET = object()

#: The process-wide active injector (lazily parsed from the env).
_ACTIVE: "FaultInjector | None | object" = _UNSET

#: True only in pool worker processes (set by the executor's pool
#: initializer).  Faults never fire in the parent, so the serial
#: fallback path is immune by construction.
_IN_WORKER = False


def mark_worker_process() -> None:
    """Pool initializer: arm fault injection for this worker process.

    Also drops any injector state inherited across ``fork`` so the
    worker re-parses the environment with fresh per-process counters.
    """
    global _IN_WORKER, _ACTIVE
    _IN_WORKER = True
    _ACTIVE = _UNSET


def get_injector() -> FaultInjector | None:
    """The active injector, lazily built from ``REPRO_FAULTS``."""
    global _ACTIVE
    if _ACTIVE is _UNSET:
        spec = os.environ.get(ENV_VAR, "").strip()
        _ACTIVE = FaultInjector.from_spec(spec) if spec else None
    return _ACTIVE  # type: ignore[return-value]


def set_injector(injector: FaultInjector | None) -> None:
    """Install (or clear) the process-wide injector.

    Passing ``None`` disarms injection *and* re-enables lazy parsing of
    the environment on the next :func:`get_injector` call — tests use
    this to reset state between scenarios.
    """
    global _ACTIVE
    _ACTIVE = _UNSET if injector is None else injector


def maybe_inject(kind: str) -> None:
    """Injection site hook: fire ``kind`` if armed, else no-op.

    No-ops unless (a) this process is a pool worker and (b) an injector
    is configured with that kind.  The hot-path cost when chaos is off
    is one module-global check.
    """
    if not _IN_WORKER:
        return
    injector = get_injector()
    if injector is not None and injector.should_fire(kind):
        injector.inject(kind)


# ----------------------------------------------------------------------
# Serve-path faults (sharded serving tier)
# ----------------------------------------------------------------------

#: True only in serve-cluster shard workers (thread placement arms the
#: whole process; process placement arms the spawned worker).  The
#: router — and the plain single-process server — never arm, so the
#: recovery machinery under test is immune by construction.
_SERVE_ARMED = False


def arm_serve_faults() -> None:
    """Arm serve-path fault injection for this process.

    Called by cluster shard workers at boot.  Unlike
    :func:`mark_worker_process` it does not reset the injector: in
    thread placement every shard shares one process, and dropping the
    counters at each worker boot would erase sibling shards' streams
    (they are independent anyway — streams are site-keyed).
    """
    global _SERVE_ARMED
    _SERVE_ARMED = True


def disarm_serve_faults() -> None:
    """Disarm serve-path faults (test teardown)."""
    global _SERVE_ARMED
    _SERVE_ARMED = False


def serve_fault_fires(kind: str, site: str) -> FaultSpec | None:
    """Decide whether serve fault ``kind`` fires at ``site``.

    Returns the armed :class:`FaultSpec` when the fault fires (the
    caller performs the side effect — sleeping, crashing, or dropping
    a connection needs the shard server's own asyncio context) and
    ``None`` otherwise.  The fire is counted and logged here so every
    injection shares one audit trail.
    """
    if not _SERVE_ARMED:
        return None
    injector = get_injector()
    if injector is None or not injector.should_fire_at(kind, site):
        return None
    spec = injector.spec(kind)
    log.warning(
        "serve fault injector firing %r at %s (fire %d) in pid %d",
        kind,
        site,
        injector.fired_at(kind, site),
        os.getpid(),
    )
    REGISTRY.counter(
        "repro_faults_injected_total",
        "Injected chaos faults fired, by kind",
        kind=kind,
    ).inc()
    return spec
