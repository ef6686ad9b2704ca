"""Self-healing serving policy: what to do, as functions of values.

The TSP has no hardware arbitration to mask a fault — a failed batch is
a *software* event the serving tier must close the loop on (the paper's
Section II-D fleet-health story, and the datacenter-accelerator stance of
the TPU paper: degradation is a serving concern).  This module decides;
the :class:`~repro.serve.pool.ChipPool` reads the clock, holds the locks
and performs what was decided.  The knobs are :class:`RetryPolicy` and
:class:`HealthPolicy`; the decisions, one function each and none of them
reading a clock, taking a lock or touching a chip: :func:`diagnose` (an
exception → software / degradable / transient), :func:`request_fate`,
:func:`hardware_fate`, :func:`health_flag`, :func:`recheck_due`,
:func:`repair_verdict`, :func:`rehome` and :func:`shed_limit`.  Below
them sit what the decisions are about: the :class:`Hardware` record a
chip's health lives on and the :class:`QuarantineRecord`.  (The repair
policy's two host-level measurements, ``probe_memory`` and
``blacklist_recovered``, live in :mod:`repro.resil.health` and are
re-exported here.)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import ServeError, SimulationError
from ..resil.degrade import Blacklist, blacklist_from_fault
from ..resil.health import blacklist_recovered, probe_memory  # noqa: F401

#: chip ids of pooled ring members look like ``pool0.c2`` / ``spare1.c0``
_RING_CHIP_ID = re.compile(r".*\.c(\d+)$")


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-aware retry budget for failed batches.

    A request is re-enqueued after a retryable failure only while
    ``attempt + 1 < max_attempts`` *and* its deadline still has at least
    one estimated batch latency of slack — retrying work that cannot
    finish in time just burns capacity the healthy requests need.
    ``default_deadline_s`` (relative, applied at submit) gives every
    request a deadline when the caller sets none; None leaves such
    requests deadline-free (retries limited by ``max_attempts`` only).
    """

    max_attempts: int = 3
    default_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ServeError("max_attempts must be >= 1")


@dataclass(frozen=True)
class HealthPolicy:
    """When to quarantine, how to repair, how often to re-check."""

    #: consecutive transient failures before the chip is quarantined
    quarantine_after: int = 2
    #: clean probe passes before quarantined hardware re-enters service
    probes_required: int = 2
    #: successful degraded batches between blacklist re-probes
    recheck_after: int = 8
    #: ECC/FEC counter level that flags a chip at checkout health polls
    wearout_threshold: int = 10

    def __post_init__(self) -> None:
        if self.quarantine_after < 1:
            raise ServeError("quarantine_after must be >= 1")
        if self.probes_required < 1:
            raise ServeError("probes_required must be >= 1")


# ----------------------------------------------------------------------
# Diagnosis


@dataclass(frozen=True)
class Diagnosis:
    """What a batch failure means for the hardware that ran it.

    ``kind`` is ``"software"`` (a bug or contract violation — failing
    again is certain, never retry, never blame the chip),
    ``"degradable"`` (localized to ``blacklist`` — recompile around the
    dead resource and keep the chip serving), or ``"transient"`` (retry
    the requests; repeated strikes quarantine the chip).
    """

    kind: str
    blacklist: Blacklist | None = None
    chip_index: int | None = None
    reason: str = ""


def chip_index_of(error: BaseException) -> int | None:
    """The ring position of the chip an error names, if parseable."""
    chip_id = getattr(error, "chip_id", None)
    if chip_id is None:
        return None
    m = _RING_CHIP_ID.match(str(chip_id))
    return int(m.group(1)) if m else None


def diagnose(error: BaseException, n_chips: int = 1) -> Diagnosis:
    """Classify one batch failure for the retry/quarantine machinery."""
    chip_index, name = chip_index_of(error), type(error).__name__
    if not isinstance(error, SimulationError):
        return Diagnosis(
            "software", None, chip_index, f"{name} is not a hardware fault"
        )
    blacklist = blacklist_from_fault(
        error, chip_index=chip_index or 0, n_chips=n_chips
    )
    if blacklist is None:
        return Diagnosis("transient", None, chip_index, f"unlocalized {name}")
    return Diagnosis(
        "degradable", blacklist, chip_index,
        f"localized to {blacklist.describe()}",
    )


# ----------------------------------------------------------------------
# Decisions


def request_fate(
    kind: str, attempt: int, slack_s: float, estimate_s: float,
    retry: RetryPolicy,
) -> str:
    """What becomes of one request of a failed batch of diagnosis ``kind``:
    ``"failed"`` (a software fault fails again for certain),
    ``"retryable_exhausted"`` (``attempt`` was the last allowed, or the
    deadline's ``slack_s`` will not cover one more batch of
    ``estimate_s``) or ``"requeue"``."""
    if kind == "software":
        return "failed"
    if attempt + 1 >= retry.max_attempts or slack_s < estimate_s:
        return "retryable_exhausted"
    return "requeue"


def hardware_fate(
    diagnosis: Diagnosis, blacklist: Blacklist | None, strikes: int,
    health: HealthPolicy,
) -> tuple[str | None, Blacklist | None]:
    """What becomes of hardware carrying ``blacklist`` and ``strikes`` that
    just failed a batch, as ``(action, blacklist)``: ``"degrade"`` with
    the merged blacklist to recompile around (only when it names something
    new), ``"strike"``, ``"quarantine"`` on the strike that reaches
    ``quarantine_after``, or None (a software fault; a known-dead
    resource failing again)."""
    if diagnosis.kind == "degradable":
        known = blacklist or Blacklist()
        merged = known | diagnosis.blacklist
        if merged != known:
            return "degrade", merged
    elif diagnosis.kind == "transient":
        if strikes + 1 >= health.quarantine_after:
            return "quarantine", blacklist
        return "strike", blacklist
    return None, blacklist


def health_flag(report, health: HealthPolicy) -> str | None:
    """Why the chip a :class:`~repro.resil.HealthReport` describes should
    be quarantined, or None: a failed verdict, or ECC corrections / link
    FEC corrections + retries at the wear-out level."""
    threshold = health.wearout_threshold
    if report.verdict == "failed":
        return f"{report.chip_id}: health verdict failed"
    if report.ecc_corrections >= threshold:
        return (
            f"{report.chip_id}: {report.ecc_corrections} ECC "
            f"corrections >= wearout threshold {threshold}"
        )
    link_trouble = sum(lh.corrected + lh.retries for lh in report.links)
    if link_trouble >= threshold:
        return (
            f"{report.chip_id}: {link_trouble} link FEC "
            f"corrections/retries >= threshold {threshold}"
        )
    return None


def recheck_due(degraded_ok: int, health: HealthPolicy) -> bool:
    """Has degraded hardware served enough clean batches to re-probe the
    resources it routes around?"""
    return degraded_ok >= health.recheck_after


def repair_verdict(
    probes_passed: int, failed: bool, localized: Blacklist | None,
    blacklist: Blacklist | None, health: HealthPolicy,
) -> tuple[str, Blacklist | None]:
    """What a repair's probe results so far mean, with the blacklist the
    hardware carries from here: ``"probe"`` again; back to service
    ``"healthy"`` or ``"degraded"`` (a probe failure ``localized`` to a
    resource joins the blacklist instead of failing the repair); or
    ``"retired"`` — a probe failed and nothing localizes it."""
    if failed:
        if localized is None:
            return "retired", blacklist
        blacklist = (blacklist or Blacklist()) | localized
    elif probes_passed < health.probes_required:
        return "probe", blacklist
    return ("degraded" if blacklist else "healthy"), blacklist


def rehome(parked: list):
    """Where repaired hardware goes: the first ``parked`` worker (capacity
    before comfort), else None — the spare shelf."""
    return parked[0] if parked else None


def shed_limit(capacity: int, n_workers: int, per_worker: int) -> int | None:
    """The queue depth at which admission control starts shedding, or
    None: at full capacity every request queues; with workers quarantined
    the queue holds ``per_worker`` requests for each that still serves."""
    return None if capacity >= n_workers else per_worker * capacity


# ----------------------------------------------------------------------
# Hardware and quarantine accounting


class Hardware:
    """One worker's worth of chips — a single chip or a whole ring, and
    the one place that knows which — with the health that travels with
    them from a worker into quarantine, the spare shelf and back."""

    def __init__(self, chips: list, system=None) -> None:
        self.chips = chips
        self.system = system
        #: what fault hooks are handed and persistent faults are keyed by
        self.device = system if system is not None else chips[0]
        #: resources this hardware's programs are recompiled around
        self.blacklist: Blacklist | None = None
        #: consecutive transient failures since the last clean batch
        self.strikes = 0
        #: clean degraded batches since the last blacklist re-probe
        self.degraded_ok = 0

    def target(self, model):
        """What ``model`` runs on: the ring if it is sharded, else a chip."""
        if self.system is not None and getattr(model, "n_chips", 1) > 1:
            return self.system
        return self.chips[0]

    def scrub(self) -> None:
        """Factory-reset every chip for the next tenant.

        A ring also drops injected link error models:
        :meth:`~repro.sim.c2c.C2cUnit.scrub` keeps them (channel
        configuration on a fixed deployment), but a pooled ring is
        re-tenanted per batch — a dead link injected against one batch
        must not poison the next tenant's transfers.
        """
        self.device.scrub()
        if self.system is not None:
            self.system.clear_error_models()


@dataclass
class QuarantineRecord:
    """One piece of hardware pulled from service, and why."""

    worker: str
    reason: str
    since_s: float
    #: the pool's hardware record (chips + blacklist) under repair
    hardware: object = field(repr=False, default=None)
    probes_passed: int = 0
    repaired_s: float | None = None

    @property
    def active(self) -> bool:
        return self.repaired_s is None
