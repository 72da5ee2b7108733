"""Coordinator-side leg recovery: retry policy and degradation.

Alg. GMDJDistribEval's round barrier (Theorem 1 synchronization) needs an
answer from every participating site. When a leg fails — an injected
fault from :mod:`repro.net.faults`, or any transport/codec error — the
coordinator has three choices, selected by ``ExecutionConfig.failure_mode``:

- ``fail_fast`` — propagate the first failure (historic behaviour);
- ``retry`` — re-run the failed leg with exponential backoff until it
  succeeds or the budget (``max_retries`` attempts and the
  ``leg_timeout_s`` wall clock) is spent, then raise
  :class:`~repro.errors.RetryExhaustedError`;
- ``degrade`` — after the same budget, *exclude* the site and let the
  round complete without it. The result is then an under-approximation
  (the excluded site's detail tuples are missing from the aggregates),
  which is recorded loudly in ``ExecutionStats`` rather than hidden.

Only transport-level errors (:class:`~repro.errors.NetworkError`,
:class:`~repro.errors.SerializationError`) are retried; anything else is
a genuine bug and propagates immediately regardless of mode.

A re-run leg must be a clean slate. Between attempts the guard drains the
site's channel queues (a half-delivered fragment must not be consumed by
the next attempt) and discards the sync session's per-source accumulator
bank for the site (an exact undo of any partially absorbed sub-result —
see ``SyncSession.reset_source``). Bytes already charged by failed
attempts stay charged in *both* bookkeepers (channel counters and
``RoundStats``), so ``verify_against_network`` holds under retries: the
traffic really crossed the wire.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import (
    LegDeadlineExceeded,
    NetworkError,
    RetryExhaustedError,
    SerializationError,
)

FAIL_FAST = "fail_fast"
RETRY = "retry"
DEGRADE = "degrade"

FAILURE_MODES = (FAIL_FAST, RETRY, DEGRADE)

#: Error families the retry layer treats as transient. Everything else
#: (schema errors, plan bugs, assertion failures) propagates untouched.
TRANSIENT_ERRORS = (NetworkError, SerializationError)

#: Backoff growth is capped at base * 32 so a long retry budget does not
#: explode into multi-minute sleeps.
_BACKOFF_CAP = 32


class _Excluded:
    """Sentinel a degraded leg returns instead of a result.

    Distinct from ``None`` because streaming (non-merged-base) legs
    legitimately return ``None``.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "EXCLUDED"


EXCLUDED = _Excluded()

#: Backup attempts one round may spend on speculative re-execution.
SPECULATION_MAX_BACKUPS = 1


class SpeculationController:
    """Per-round deadline arming for speculative straggler re-execution.

    Legs report their completion times; once at least half the round's
    legs have finished, a deadline arms at ``median * factor + slack_s``
    (elapsed from round start). From :meth:`abandon_at` on, the engine
    may throw a leg still waiting for its reply a
    :class:`~repro.errors.LegDeadlineExceeded` (:meth:`abandon` spends
    the backup), while the round's budget
    (:data:`SPECULATION_MAX_BACKUPS`) lasts. First result wins: the
    guard simply re-runs the leg, and the abandoned attempt's shipment
    is re-accounted into the speculative bucket so byte parity with the
    wire holds exactly.
    """

    def __init__(
        self,
        site_count: int,
        *,
        factor: float = 3.0,
        slack_s: float = 0.05,
        clock=time.perf_counter,
    ):
        if site_count < 1:
            raise ValueError(f"site_count must be >= 1, got {site_count}")
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1.0, got {factor}")
        if slack_s < 0:
            raise ValueError(f"slack_s must be >= 0, got {slack_s}")
        self.site_count = site_count
        self.factor = factor
        self.slack_s = slack_s
        self._clock = clock
        self._started = clock()
        self._completions: list = []
        #: The armed deadline (elapsed seconds), or None while unarmed.
        self.deadline_s = None
        self._backups_used = 0

    def record_completion(self) -> None:
        """A leg finished; arm the deadline once a quorum has reported."""
        self._completions.append(self._clock() - self._started)
        quorum = (self.site_count + 1) // 2
        if self.deadline_s is None and len(self._completions) >= quorum:
            ordered = sorted(self._completions)
            median = ordered[len(ordered) // 2]
            self.deadline_s = median * self.factor + self.slack_s

    def abandon_at(self):
        """The clock time from which a leg still in flight may be
        abandoned; None while the deadline is unarmed or the round's
        backups are spent."""
        if self.deadline_s is None or self._backups_used >= SPECULATION_MAX_BACKUPS:
            return None
        return self._started + self.deadline_s

    def abandon(self) -> float:
        """Spend one backup; returns the deadline (elapsed seconds) it
        was spent at."""
        self._backups_used += 1
        return self.deadline_s


@dataclass(frozen=True)
class RetryPolicy:
    """How the coordinator reacts to a failing site leg."""

    mode: str = FAIL_FAST
    max_retries: int = 2
    backoff_s: float = 0.05
    leg_timeout_s: float = 0.0  # 0 = no wall-clock budget

    def __post_init__(self):
        if self.mode not in FAILURE_MODES:
            raise ValueError(
                f"unknown failure mode {self.mode!r}; "
                f"expected one of {', '.join(FAILURE_MODES)}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.leg_timeout_s < 0:
            raise ValueError(
                f"leg_timeout_s must be >= 0, got {self.leg_timeout_s}"
            )

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        return cls(
            mode=config.failure_mode,
            max_retries=config.max_retries,
            backoff_s=config.retry_backoff_s,
            leg_timeout_s=config.leg_timeout_s,
        )

    @property
    def attempts(self) -> int:
        """Total leg attempts: the first try plus the retries."""
        return 1 if self.mode == FAIL_FAST else self.max_retries + 1

    def backoff_for(self, retry_number: int) -> float:
        """Sleep before retry ``retry_number`` (0-based): exponential, capped."""
        if self.backoff_s <= 0:
            return 0.0
        return self.backoff_s * min(2 ** retry_number, _BACKOFF_CAP)


def guard_leg(
    leg,
    *,
    policy: RetryPolicy,
    network,
    round_index: int,
    round_stats,
    tracer,
    session=None,
    speculation=None,
    clock=time.perf_counter,
):
    """Wrap a per-site leg with the retry/degrade policy.

    ``leg(site_id)`` returns a leg generator (see
    :mod:`repro.distributed.executor`); so does the wrapper, with the same
    signature, for the execution engine. The wrapper re-runs the leg on
    transient errors per ``policy``; in ``degrade`` mode an exhausted
    site yields the :data:`EXCLUDED` sentinel instead of raising, and the
    exclusion is recorded on ``round_stats``. Each attempt begins with
    ``channel.begin_attempt`` so injected crash schedules advance
    deterministically no matter which engine runs the leg.

    Budget discipline: the exhaustion decision (attempts *and* wall
    clock) is made before any backoff, so a leg never backs off after
    its final attempt's failure; and each backoff is capped by the leg's
    remaining ``leg_timeout_s`` budget, so the total backoff can never
    push the leg past its configured timeout — the remaining slice is
    still spent on one last (shorter-backoff) attempt rather than
    forfeited. A backoff is *yielded* (seconds, a float) for the engine
    to wait out, so a round's other legs run meanwhile. ``clock`` is
    injectable so tests can drive the schedule deterministically.

    With a :class:`SpeculationController` (``speculation``), each
    completion is recorded against the round's deadline. An attempt the
    engine abandons (:class:`~repro.errors.LegDeadlineExceeded`, thrown
    in while it waits) is *not* a failure: its down-bytes move to the
    speculative bucket, the slate is cleaned exactly as for a retry, and
    the leg re-runs immediately without consuming retry budget — first
    result wins. ``LegDeadlineExceeded`` subclasses ``NetworkError``, so
    the abandon branch must (and does) come before the transient-retry
    branch.
    """
    metrics = network.metrics

    def guarded(site_id):
        channel = network.channel(site_id)
        started = clock()
        retry_number = 0
        abandoned = 0
        while True:
            site_stats = round_stats.site(site_id)
            # Snapshot the down-side charges so an abandoned attempt's
            # contribution can be moved to the speculative bucket.
            snap_bytes_down = site_stats.bytes_down
            snap_tuples_down = site_stats.tuples_down
            # Mark where this attempt's spans begin so an abandoned
            # attempt's spans can be tagged speculative (they describe
            # work the backup re-does — profiles must not double-count).
            span_mark = len(tracer.spans)
            channel.begin_attempt(round_index)
            try:
                result = yield from leg(site_id)
            except LegDeadlineExceeded as error:
                # The speculative deadline fired mid-flight. The
                # attempt's shipment really crossed the wire, so its byte
                # charge moves (not vanishes) to the speculative bucket;
                # its reply is recorded whole or not at all, so nothing
                # of it was charged. The tuple charge is rolled back —
                # the backup re-ships them.
                site_stats.speculative_bytes_down += (
                    site_stats.bytes_down - snap_bytes_down
                )
                site_stats.bytes_down = snap_bytes_down
                site_stats.tuples_down = snap_tuples_down
                site_stats.speculative_attempts += 1
                abandoned += 1
                channel.drain_pending()
                if session is not None:
                    session.reset_source(site_id)
                # Tag the abandoned attempt's spans so profiles exclude
                # them: the backup attempt re-records the same work, and
                # counting both would double-charge the stage totals.
                # The site filter keeps interleaved spans from other
                # legs (the round's legs take turns) untouched.
                for span in list(tracer.spans)[span_mark:]:
                    if span.attributes.get("site") == site_id:
                        span.set(speculative=True)
                metrics.counter("net.speculation.abandoned", site=site_id).inc()
                with tracer.span(
                    "leg.speculate",
                    kind="recovery",
                    site=site_id,
                    round=round_index,
                    deadline_s=error.deadline_s,
                ):
                    pass
                continue
            except TRANSIENT_ERRORS as error:
                if policy.mode == FAIL_FAST:
                    raise
                attempts_made = retry_number + 1
                # Clean slate for the next attempt (or for the round's
                # merge if this site ends up excluded): no stale queued
                # messages, no partially absorbed sub-result fragments.
                channel.drain_pending()
                if session is not None:
                    session.reset_source(site_id)
                if policy.leg_timeout_s > 0:
                    remaining = policy.leg_timeout_s - (clock() - started)
                else:
                    remaining = None
                exhausted = attempts_made >= policy.attempts or (
                    remaining is not None and remaining <= 0
                )
                if exhausted:
                    # No trailing backoff: nothing runs after this point,
                    # so backing off would only delay the raise/exclude.
                    metrics.counter(
                        "net.retry.exhausted", site=site_id, mode=policy.mode
                    ).inc()
                    if policy.mode == RETRY:
                        raise RetryExhaustedError(
                            site_id, attempts_made, cause=error
                        ) from error
                    # DEGRADE: complete the round without this site.
                    round_stats.exclude(site_id)
                    metrics.counter("net.degrade.excluded", site=site_id).inc()
                    with tracer.span(
                        "leg.degrade",
                        kind="recovery",
                        site=site_id,
                        round=round_index,
                        attempts=attempts_made,
                        cause=type(error).__name__,
                    ):
                        pass
                    return EXCLUDED
                backoff = policy.backoff_for(retry_number)
                if remaining is not None:
                    # Cap by the remaining wall-clock budget: the leg may
                    # retry once more inside its timeout, never beyond it.
                    backoff = min(backoff, remaining)
                retry_number += 1
                round_stats.site(site_id).retries += 1
                metrics.counter("net.retry.attempts", site=site_id).inc()
                with tracer.span(
                    "leg.retry",
                    kind="recovery",
                    site=site_id,
                    round=round_index,
                    attempt=retry_number,
                    cause=type(error).__name__,
                ):
                    pass
                if backoff > 0:
                    yield float(backoff)
            else:
                if speculation is not None:
                    speculation.record_completion()
                    if abandoned:
                        site_stats.speculation_won = True
                return result

    return guarded
