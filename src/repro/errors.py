"""Exception hierarchy for the repro (Skalla) library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with one handler while still being able to
discriminate specific failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation schema is malformed or two schemas are incompatible."""


class UnknownAttributeError(SchemaError):
    """An expression or operator referenced an attribute not in scope."""

    def __init__(self, attribute, available=()):
        self.attribute = attribute
        self.available = tuple(available)
        message = f"unknown attribute {attribute!r}"
        if self.available:
            message += f"; available: {', '.join(map(str, self.available))}"
        super().__init__(message)


class TypeMismatchError(SchemaError):
    """A value did not match the declared type of its attribute."""


class ExpressionError(ReproError):
    """A scalar expression is malformed or cannot be evaluated."""


class AggregateError(ReproError):
    """An aggregate specification is invalid."""


class HolisticAggregateError(AggregateError):
    """A holistic aggregate (no sub/super decomposition) was used in a
    distributed plan.

    Holistic aggregates such as MEDIAN cannot be computed from partial
    results without shipping detail data, which Skalla never does
    (Section 3 of the paper). They remain available for centralized
    evaluation.
    """


class PlanError(ReproError):
    """A distributed evaluation plan is invalid or cannot be constructed."""


class OptimizationError(PlanError):
    """An optimization was requested whose precondition does not hold."""


class SerializationError(ReproError):
    """A relation or message could not be encoded or decoded."""


class StateMismatch(ReproError):
    """A site holds no answer for the round state a positional fragment
    names: it restarted, is a replica, evicted the entry, or the digest or
    the row count does not match what it answered. Not transient: the
    coordinator resends the keyed fragment on the same leg instead of
    retrying the positional one."""


class ProtocolError(ReproError):
    """A peer would break the wire protocol: a frame longer than the
    reader's cap, or a REQ or REPLY that is not the one message its leg
    carries. Not transient: sending the same again breaks it again."""


class NetworkError(ReproError):
    """A simulated network operation failed (unknown site, closed channel)."""


class SiteUnavailableError(NetworkError):
    """A site did not respond (injected crash or unreachable channel)."""


class FaultSpecError(NetworkError):
    """A fault-injection spec (rule DSL string or JSON document) is malformed."""


class LegDeadlineExceeded(NetworkError):
    """A speculative deadline fired while a site leg was still in flight.

    Thrown into a leg waiting for its reply by the sockets engine when
    the round's :class:`~repro.distributed.recovery.\
SpeculationController` decides the leg is a straggler. It is a
    :class:`NetworkError` so a fail-fast configuration without the
    speculation branch still treats it as a (transient) leg failure, but
    ``guard_leg`` catches it *before* the retry machinery: the abandoned
    attempt costs no retry budget and its shipment's bytes move to the
    speculative account instead of staying charged to the leg. Its reply
    is one frame, recorded whole or not at all, so none of it was.
    """

    def __init__(self, site_id, deadline_s):
        self.site_id = site_id
        self.deadline_s = deadline_s
        super().__init__(
            f"site {site_id!r} exceeded the speculative deadline "
            f"({deadline_s:.3f}s); leg abandoned for a backup"
        )


class RemoteSiteError(ReproError):
    """A site-server process reported a failure of an unknown class.

    Known :class:`ReproError` subclasses survive the socket transport
    with their concrete type (so the retry layer classifies them exactly
    as it would in-process); anything else arrives as this wrapper,
    which is deliberately *not* a :class:`NetworkError` — an unknown
    remote failure is a bug to surface, never something to retry.
    """


class DeploymentError(ReproError):
    """A process-cluster deployment operation failed (store, launch, spec)."""


class RetryExhaustedError(NetworkError):
    """A leg kept failing after its whole retry budget in ``retry`` mode."""

    def __init__(self, site_id, attempts, cause=None):
        self.site_id = site_id
        self.attempts = attempts
        self.cause = cause
        message = f"site {site_id!r} still failing after {attempts} attempt(s)"
        if cause is not None:
            message += f": {type(cause).__name__}: {cause}"
        super().__init__(message)


class MultiLegError(ReproError):
    """More than one site leg of a round failed.

    Carries *every* failed site and its cause (``failures``: site id →
    exception), so a multi-site failure is never reported as just the
    first leg that happened to be collected.
    """

    def __init__(self, failures):
        self.failures = dict(failures)
        parts = [
            f"{site_id}: {type(error).__name__}: {error}"
            for site_id, error in sorted(self.failures.items())
        ]
        super().__init__(
            f"{len(self.failures)} site leg(s) failed — " + "; ".join(parts)
        )

    @property
    def failed_sites(self) -> tuple:
        return tuple(sorted(self.failures))


class CatalogError(ReproError):
    """Distribution catalog lookup or registration failed."""


class WarehouseError(ReproError):
    """A local warehouse operation failed (unknown table, bad partition)."""


class ServiceError(ReproError):
    """A query-service operation failed (bad request, closed service)."""


class AdmissionError(ServiceError):
    """The service's wait queue is full; the query was rejected outright."""

    def __init__(self, queued, max_queue):
        self.queued = queued
        self.max_queue = max_queue
        super().__init__(
            f"admission queue full ({queued} waiting, limit {max_queue}); "
            "query rejected"
        )


class QueryTimeoutError(ServiceError):
    """A queued query waited longer than its admission timeout."""

    def __init__(self, waited_s, timeout_s):
        self.waited_s = waited_s
        self.timeout_s = timeout_s
        super().__init__(
            f"query timed out after waiting {waited_s:.3f}s for an execution "
            f"slot (timeout {timeout_s:.3f}s)"
        )


class ObservabilityError(ReproError):
    """A tracing/metrics operation failed (bad metric, malformed trace)."""


class TraceSchemaError(ObservabilityError):
    """A JSONL trace file is malformed or has an unsupported schema version."""
