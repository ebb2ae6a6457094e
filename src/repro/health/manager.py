"""Runtime background-error management (RocksDB's ``BGError`` machinery).

A production LSM store must not crash because one flush hit a transient
EIO or the disk filled up mid-compaction: it classifies the failure,
pauses background work, keeps serving reads, and resumes when the fault
clears.  :class:`ErrorManager` is that policy engine for every simulated
engine in this repository:

* each background failure site (flush, compaction, WAL append, MANIFEST
  commit, hole punch, scrub) reports into :meth:`ErrorManager.report`,
  which classifies the exception into **soft** / **hard** / **fatal**
  via per-site :class:`SitePolicy` entries;
* **hard** errors pause background work and schedule an auto-resume on
  the virtual clock — exponential backoff with seeded jitter, bounded by
  ``Options.bg_error_max_retries`` consecutive failures before
  escalating to fatal;
* ENOSPC (:class:`~repro.storage.DiskFullError`) additionally enters
  **read-only** mode: reads keep flowing, writes are rejected with
  :class:`ReadOnlyError` *before* touching the WAL, and the store exits
  read-only once hole punching / reclaim frees enough space
  (:meth:`poke`);
* **fatal** errors (an exception while the MANIFEST is in doubt, or an
  unclassified failure) latch read-only until manual intervention —
  exactly RocksDB's rule that a failed MANIFEST write requires reopen.

All transitions are observable: ``health.bg_errors`` /
``health.resume_attempts`` counters, a ``health.degraded`` gauge, and
one ``health.degraded`` span per degraded episode (time-in-degraded).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..sim import Environment, Event
from ..storage import DeviceError, DiskFullError

__all__ = ["ErrorManager", "ReadOnlyError", "SitePolicy",
           "SEVERITY_SOFT", "SEVERITY_HARD", "SEVERITY_FATAL",
           "default_policies"]

SEVERITY_SOFT = "soft"    #: counted only; background work continues
SEVERITY_HARD = "hard"    #: pause background work, auto-resume
SEVERITY_FATAL = "fatal"  #: read-only until manual intervention


class ReadOnlyError(OSError):
    """A write was rejected because the store is in read-only mode.

    Raised before the WAL is touched, so a rejected write leaves no
    trace: it is never acknowledged and can never surface in a read.
    """


@dataclass(frozen=True)
class SitePolicy:
    """Severity mapping for one background failure site."""

    #: Severity of a :class:`~repro.storage.DeviceError` (persistent EIO).
    io: str = SEVERITY_HARD
    #: Severity of a :class:`~repro.storage.DiskFullError` (ENOSPC).
    enospc: str = SEVERITY_HARD
    #: Severity of a ``CorruptionError`` (the table is quarantined by the
    #: engine; the job itself is usually re-pickable without it).
    corruption: str = SEVERITY_SOFT


def default_policies() -> Dict[str, SitePolicy]:
    """The stock per-site severity table (see docs/FAULT_MODEL.md)."""
    return {
        "flush": SitePolicy(),
        "compaction": SitePolicy(),
        "wal": SitePolicy(),
        # MANIFEST: an append that fails *before* mutating the file is
        # retryable (SimFS writes are all-or-nothing), so ENOSPC/EIO on
        # the append itself stays hard; failures while the record is
        # already in the file (in-doubt window) are escalated to fatal
        # by the engine reporting site="manifest_in_doubt".
        "manifest": SitePolicy(),
        "manifest_in_doubt": SitePolicy(io=SEVERITY_FATAL,
                                        enospc=SEVERITY_FATAL,
                                        corruption=SEVERITY_FATAL),
        # Hole punching / cleanup frees space; a failure loses only the
        # reclaim, never data.
        "cleanup": SitePolicy(io=SEVERITY_SOFT, enospc=SEVERITY_SOFT),
        "scrub": SitePolicy(io=SEVERITY_SOFT, enospc=SEVERITY_SOFT),
        "read": SitePolicy(io=SEVERITY_SOFT),
    }


class ErrorManager:
    """Severity classification + degraded-mode state machine.

    One instance per engine.  The engine wires three callbacks:
    ``space_check()`` (may we leave ENOSPC read-only?), ``on_pause()``
    (wake stalled writers so they observe the degradation) and
    ``on_resume()`` (kick background workers).
    """

    def __init__(self, env: Environment, options: Any, name: str = "db",
                 policies: Optional[Dict[str, SitePolicy]] = None,
                 space_check: Optional[Callable[[], bool]] = None,
                 on_pause: Optional[Callable[[], None]] = None,
                 on_resume: Optional[Callable[[], None]] = None):
        self.env = env
        self.options = options
        self.name = name
        self.policies = default_policies()
        if policies:
            self.policies.update(policies)
        self.space_check = space_check
        self.on_pause = on_pause
        self.on_resume = on_resume
        self._rng = random.Random(options.seed ^ 0x5EEDBEEF)

        #: True while background work is suspended.
        self.paused = False
        #: True while writes are rejected (ENOSPC or fatal).
        self.read_only = False
        #: Latched by fatal errors; cleared only by :meth:`manual_reset`.
        self.fatal = False
        #: True while the current degradation was caused by ENOSPC.
        self.enospc = False
        #: Human-readable cause of the current degradation.
        self.reason: Optional[str] = None
        self.last_error: Optional[Tuple[str, BaseException]] = None

        self.bg_error_count = 0
        self.errors_by_site: Dict[str, int] = {}
        self.resume_attempts = 0
        #: Consecutive hard failures since the last success.
        self.retries = 0
        self.time_in_degraded = 0.0
        self._degraded_since: Optional[float] = None
        self._degraded_span: Optional[Any] = None
        self._resume_proc: Optional[Any] = None

    # -- classification ----------------------------------------------------

    def classify(self, site: str, exc: BaseException) -> str:
        """Map ``(site, exception)`` to a severity string."""
        from ..lsm.codec import CorruptionError  # avoid import cycle
        policy = self.policies.get(site, SitePolicy())
        if isinstance(exc, DiskFullError):
            return policy.enospc
        if isinstance(exc, CorruptionError):
            return policy.corruption
        if isinstance(exc, DeviceError):
            return policy.io
        return SEVERITY_FATAL  # unclassified: never guess it is benign

    # -- reporting ---------------------------------------------------------

    def report(self, site: str, exc: BaseException) -> str:
        """Record a background failure; returns the assigned severity.

        Hard errors pause background work and (if enabled) schedule the
        auto-resume process; fatal errors latch read-only.
        """
        severity = self.classify(site, exc)
        self.bg_error_count += 1
        self.errors_by_site[site] = self.errors_by_site.get(site, 0) + 1
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant("bg-error", cat="health", site=site,
                           severity=severity, error=repr(exc))
        self.last_error = (site, exc)
        if severity == SEVERITY_SOFT:
            return severity
        is_enospc = isinstance(exc, DiskFullError)
        self._enter_degraded(site, exc, read_only=is_enospc,
                             fatal=severity == SEVERITY_FATAL)
        if (severity == SEVERITY_HARD and not self.fatal
                and self.options.enable_auto_resume
                and self._resume_proc is None):
            self._resume_proc = self.env.process(
                self._auto_resume(), name=f"{self.name}-health-resume")
        return severity

    def record_success(self) -> None:
        """A background job completed cleanly: reset the failure streak."""
        self.retries = 0

    # -- state transitions -------------------------------------------------

    def _enter_degraded(self, site: str, exc: BaseException,
                        read_only: bool, fatal: bool) -> None:
        if self._degraded_since is None:
            self._degraded_since = self.env.now
            self._degraded_span = self.env.tracer.span(
                "health.degraded", cat="health", site=site)
        self.paused = True
        self.read_only = self.read_only or read_only or fatal
        self.fatal = self.fatal or fatal
        self.enospc = self.enospc or isinstance(exc, DiskFullError)
        self.reason = f"{site}: {exc}"
        if self.on_pause is not None:
            self.on_pause()

    def _exit_degraded(self) -> None:
        self.resume_attempts += 1
        self.paused = False
        self.read_only = False
        self.enospc = False
        self.reason = None
        if self._degraded_since is not None:
            self.time_in_degraded += self.env.now - self._degraded_since
            self._degraded_since = None
        if self._degraded_span is not None:
            self._degraded_span.__exit__(None, None, None)
            self._degraded_span = None
        if self.on_resume is not None:
            self.on_resume()

    def _space_ok(self) -> bool:
        if not self.enospc or self.space_check is None:
            return True
        return self.space_check()

    def _auto_resume(self) -> Generator[Event, Any, None]:
        """Backoff-and-retry loop driving the healthy transition."""
        opts = self.options
        try:
            while self.paused and not self.fatal:
                if self.retries >= opts.bg_error_max_retries:
                    # Retries exhausted: escalate.  Read-only (rather
                    # than a silent wedge) so stalled writers error out.
                    self.fatal = True
                    self.read_only = True
                    self.reason = (f"retries exhausted after "
                                   f"{self.retries} attempts: {self.reason}")
                    if self.on_pause is not None:
                        self.on_pause()
                    return
                backoff = min(opts.bg_error_backoff * (2 ** self.retries),
                              opts.bg_error_backoff_max)
                backoff *= 1.0 + opts.bg_error_jitter * self._rng.random()
                self.retries += 1
                yield self.env.timeout(backoff)
                if not self.paused or self.fatal:
                    return
                if not self._space_ok():
                    continue  # still out of space: back off again
                self._exit_degraded()
                return
        finally:
            self._resume_proc = None

    def poke(self) -> None:
        """Re-evaluate an ENOSPC degradation now (space was freed).

        Called by the engine after hole punching / cleanup; an operator
        who freed space externally (:meth:`SimFS.set_capacity`) calls it
        by hand.  Exits read-only immediately — even from the
        retries-exhausted fatal state, since ENOSPC genuinely cleared —
        without waiting for the next backoff tick.
        """
        if not self.paused or not self.enospc:
            return
        if not self._space_ok():
            return
        self.fatal = False
        self.retries = 0
        self._exit_degraded()

    def manual_reset(self) -> None:
        """Operator override: clear any degradation, including fatal."""
        self.fatal = False
        self.retries = 0
        if self.paused:
            self._exit_degraded()

    # -- introspection -----------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while not fully healthy."""
        return self.paused or self.read_only or self.fatal

    def current_degraded_time(self) -> float:
        """Cumulative degraded time including any open episode."""
        total = self.time_in_degraded
        if self._degraded_since is not None:
            total += self.env.now - self._degraded_since
        return total

    def snapshot(self) -> Dict[str, Any]:
        """Flat counters for :func:`repro.bench.unified_snapshot`."""
        return {
            "bg_error_count": self.bg_error_count,
            "resume_attempts": self.resume_attempts,
            "retries": self.retries,
            "paused": int(self.paused),
            "read_only": int(self.read_only),
            "fatal": int(self.fatal),
            "enospc": int(self.enospc),
            "time_in_degraded": self.current_degraded_time(),
            "errors_by_site": dict(self.errors_by_site),
            "reason": self.reason,
        }
