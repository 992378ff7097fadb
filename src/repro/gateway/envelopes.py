"""Versioned request/response envelopes of the tenant gateway.

Every interaction with the :class:`~repro.gateway.service.PricingService`
facade is one *request envelope* in, one *reply envelope* out. Envelopes
are frozen dataclasses that round-trip through plain JSON-able
dictionaries — ``request_from_dict(to_dict(req)) == req`` holds exactly,
including after a ``json.dumps``/``json.loads`` hop — so the same
protocol works in-process today and over any wire transport later.

Wire shape
----------
A serialized envelope is a flat JSON object::

    {"api": "1.7", "kind": "SubmitBids", "tenant": "ann", "bids": [...]}

``api`` is :data:`API_VERSION` (checked on decode; a mismatch raises
:class:`~repro.errors.ProtocolError` with code ``"version"``), ``kind``
names the envelope class, and the remaining keys are its fields.

Each envelope's field annotations are its schema
(:mod:`repro.gateway.schema`), coerced exactly on every construction,
in-process or decoded. Anything malformed — unknown kind, unknown,
missing or badly-typed fields — raises
:class:`~repro.errors.ProtocolError`; nothing in this module ever lets a
bare ``KeyError``/``ValueError`` escape (fuzz-tested in
``tests/test_gateway.py``).

Errors travel as data: :meth:`ErrorReply.of` maps the
:class:`~repro.errors.ReproError` hierarchy onto stable structured codes
(:data:`ERROR_CODES`) so remote callers can dispatch on ``code`` without
importing this package's exception classes.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass

from repro.errors import (
    BidError,
    DeadlineError,
    GameConfigError,
    MechanismError,
    OverloadedError,
    ProtocolError,
    QueryError,
    RecoveryError,
    ReproError,
    RevisionError,
    SchemaError,
)
from repro.gateway.schema import Pairs, Schema, build

#: Protocol version every envelope carries. Bumped on any incompatible
#: change to an envelope's fields or semantics; decode rejects mismatches.
#: 1.3 added epoch plumbing: ``RunQuery.as_of`` and the ``epoch`` field on
#: :class:`QueryReply` and :class:`AdviseReply`. 1.4 added the serving
#: layer's load-shedding surface: the ``overloaded``/``deadline_exceeded``
#: error codes and the ``retryable``/``retry_after`` fields on
#: :class:`ErrorReply`. 1.5 added the executor seam: ``Configure.workers``
#: picks the fleet backend (0/1 in-process, N > 1 a shared-nothing
#: multi-process pool) and :class:`ConfigReply` echoes the worker count.
#: 1.6 added the observability surface — the :class:`MetricsRequest`/
#: :class:`MetricsReply` pair reading the process-wide
#: :mod:`repro.obs` registry — and removed the deprecated
#: ``dispatch_many``/``dispatch_dict`` aliases API 1.5 had kept as
#: warning shims. 1.7 removed the multi-process pool and with it
#: ``Configure.workers`` and ``ConfigReply.workers``.
API_VERSION = "1.7"

#: Query kinds :class:`RunQuery` accepts (the astronomy workload surface).
QUERY_KINDS = ("members", "histogram", "top", "chain", "contributors")


_REQUESTS: dict = {}
_REPLIES: dict = {}


class _Envelope:
    """Shared base: every subclass registers its kind and its schema, and
    every construction coerces its fields through that schema."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._schema = Schema(cls, tagged=False, tags=("api", "kind"))
        if "_kinds" not in vars(cls):  # a concrete envelope, not a marker
            cls._kinds[cls.__name__] = cls

    def __post_init__(self) -> None:
        self._schema.coerce(self)
        self._normalize()

    def _normalize(self) -> None:
        """Derive computed fields once coercion is done (ErrorReply only)."""


class Request(_Envelope):
    """Marker base for request envelopes."""

    _kinds = _REQUESTS


class Reply(_Envelope):
    """Marker base for reply envelopes."""

    _kinds = _REPLIES


# ------------------------------------------------------------- requests --


@dataclass(frozen=True)
class Configure(Request):
    """(Re)open a pricing period: catalog of optimizations plus horizon.

    ``optimizations`` is a tuple of ``(opt_id, cost)`` pairs. Traces start
    with one of these so a replay is fully self-contained.
    """

    optimizations: tuple[tuple[Hashable, float], ...]
    horizon: int
    shards: int = 1


@dataclass(frozen=True)
class SubmitBids(Request):
    """One tenant's additive bids: ``(optimization, start, values)`` triples.

    ``values`` is the per-slot value schedule from ``start`` on — exactly
    an :class:`~repro.bids.AdditiveBid`'s constructor arguments.
    ``revisable`` opts out of columnar bulk intake: bulk-ingested bids
    cannot be revised later (the fleet's bulk path trades handles for
    throughput), so a bid a later :class:`ReviseBid` will touch must be
    submitted with ``revisable=True``.
    """

    tenant: Hashable
    bids: tuple[tuple[Hashable, int, tuple[float, ...]], ...]
    revisable: bool = False


@dataclass(frozen=True)
class ReviseBid(Request):
    """Upward revision of one previously submitted bid.

    ``new_values`` is a tuple of ``(slot, value)`` pairs (a mapping is
    accepted and normalized).
    """

    tenant: Hashable
    optimization: Hashable
    new_values: Pairs[int, float]


@dataclass(frozen=True)
class AdvanceSlots(Request):
    """Advance the shared pricing clock by ``slots`` slots."""

    slots: int = 1


@dataclass(frozen=True)
class RunQuery(Request):
    """Execute one workload query against the service's relational catalog.

    ``query`` is one of :data:`QUERY_KINDS`; ``table``/``tables``/``halo``/
    ``pids`` parameterize it (see
    :meth:`repro.gateway.service.PricingService.dispatch`). ``record``
    controls whether the execution feeds the advisor's workload log.
    ``as_of`` pins the query to an earlier catalog epoch the service still
    retains (None — the default — reads the current state); the reply
    echoes the epoch actually served.
    """

    tenant: Hashable
    query: str
    table: str = ""
    tables: tuple[str, ...] = ()
    halo: int | None = None
    pids: tuple[int, ...] = ()
    record: bool = True
    as_of: int | None = None


@dataclass(frozen=True)
class AdviseRequest(Request):
    """Run one closed advising round over the accumulated workload log.

    ``None`` fields fall back to the service's advisor defaults.
    """

    horizon: int | None = None
    dollars_per_byte: float | None = None
    runs_per_slot: float | None = None
    shards: int | None = None


@dataclass(frozen=True)
class LedgerQuery(Request):
    """One tenant's billing statement for the current period."""

    tenant: Hashable


@dataclass(frozen=True)
class MetricsRequest(Request):
    """Read the process-wide :mod:`repro.obs` metrics registry.

    Carries no parameters: the reply is one deterministic dump of every
    family (API 1.6). Read-only — dispatching it never touches service
    state, so it is always safe to retry.
    """


# --------------------------------------------------------------- replies --


@dataclass(frozen=True)
class ConfigReply(Reply):
    """The period is open: game count and horizon echoed back."""

    games: int
    horizon: int
    shards: int


@dataclass(frozen=True)
class BidsReply(Reply):
    """Bids accepted into their games."""

    tenant: Hashable
    accepted: int
    slot: int


@dataclass(frozen=True)
class ReviseReply(Reply):
    """A revision was applied."""

    tenant: Hashable
    optimization: Hashable
    slot: int


@dataclass(frozen=True)
class SlotReply(Reply):
    """The clock advanced; ``implemented`` is the cumulative
    ``(optimization, slot built)`` set, sorted by optimization."""

    slot: int
    implemented: tuple[tuple[Hashable, int], ...]


@dataclass(frozen=True)
class QueryReply(Reply):
    """Rows plus the metered cost units of producing them.

    ``epoch`` is the catalog epoch the query was served at — the snapshot
    all of its rows reflect.
    """

    tenant: Hashable
    query: str
    rows: tuple[tuple, ...]
    units: float
    source: str = ""
    epoch: int = 0


@dataclass(frozen=True)
class AdviseReply(Reply):
    """One advising round's verdict.

    ``epoch`` is the catalog epoch after adoption — queries from this
    epoch on can see the newly funded designs.
    """

    candidates: tuple[str, ...]
    funded: tuple[str, ...]
    adopted: tuple[str, ...]
    build_units: float
    epoch: int = 0


@dataclass(frozen=True)
class LedgerReply(Reply):
    """One tenant's statement: ``(slot, amount, memo)`` invoice lines."""

    tenant: Hashable
    invoices: tuple[tuple[int, float, str], ...]
    total: float
    cloud_balance: float


@dataclass(frozen=True)
class MetricsReply(Reply):
    """One deterministic dump of the metrics registry.

    ``metrics`` is :meth:`repro.obs.MetricsRegistry.wire`'s flat tuple
    form — ``(name, kind, ((label, value), ...), value)`` per series,
    histogram values as ``(buckets, counts, sum, count)`` — tuples and
    JSON scalars only, so the envelope round-trips exactly like every
    other one.
    """

    metrics: tuple = ()


#: Exception class -> structured wire code, most-derived first. The scan
#: order matters: ``RevisionError`` must map to ``"revision"`` although it
#: is also a ``BidError``.
ERROR_CODES: tuple = (
    (RevisionError, "revision"),
    (BidError, "bid"),
    (MechanismError, "mechanism"),
    (GameConfigError, "game-config"),
    (SchemaError, "schema"),
    (QueryError, "query"),
    (ProtocolError, "protocol"),
    (RecoveryError, "recovery"),
    (OverloadedError, "overloaded"),
    (DeadlineError, "deadline_exceeded"),
    (ReproError, "internal"),
)

#: Codes a client may retry without risking a duplicated effect: the
#: request was shed *before* it reached the pricing core. Everything else
#: (a rejected bid, a malformed envelope, a failed query) is a verdict on
#: the request itself — retrying a non-idempotent rejected bid could
#: double-schedule it, so those codes never mark themselves retryable.
RETRYABLE_CODES = frozenset({"overloaded", "deadline_exceeded"})


def error_code(exc: BaseException) -> str:
    """The structured code for one exception (``"internal"`` fallback)."""
    if isinstance(exc, ProtocolError):
        return exc.code
    for cls, code in ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "internal"


@dataclass(frozen=True)
class ErrorReply(Reply):
    """A request failed; ``code`` is stable across releases, ``message``
    is human-oriented and free to change.

    ``retryable`` is *derived* from the code (:data:`RETRYABLE_CODES`) at
    construction — the wire field exists so remote clients can branch on
    one boolean without carrying the code table, but a decoded envelope
    always agrees with its code; a forged mismatch is normalized away.
    ``retry_after`` is the server's back-off hint in seconds (0 when it
    has none), only meaningful on retryable codes.
    """

    code: str
    message: str
    request_kind: str = ""
    retryable: bool = False
    retry_after: float = 0.0

    def _normalize(self) -> None:
        object.__setattr__(self, "retryable", self.code in RETRYABLE_CODES)

    @classmethod
    def of(cls, exc: BaseException, request_kind: str = "") -> "ErrorReply":
        """Map one exception onto its wire reply."""
        return cls(
            code=error_code(exc),
            message=str(exc),
            request_kind=request_kind,
            retry_after=getattr(exc, "retry_after", 0.0),
        )


# --------------------------------------------------------- wire encoding --


def to_dict(envelope) -> dict:
    """One envelope -> its flat JSON-able dictionary."""
    cls = type(envelope)
    if getattr(cls, "_kinds", {}).get(cls.__name__) is not cls:
        raise ProtocolError(f"{cls.__name__} is not a gateway envelope")
    return cls._schema.encode(envelope, {"api": API_VERSION, "kind": cls.__name__})


def _from_dict(d, registry: dict, expected: str):
    if not isinstance(d, Mapping):
        raise ProtocolError(
            f"an envelope must be a JSON object, got {type(d).__name__}"
        )
    api = d.get("api")
    if api != API_VERSION:
        raise ProtocolError(
            f"envelope speaks API {api!r}; this gateway speaks {API_VERSION!r}",
            code="version",
        )
    kind = d.get("kind")
    # Only string tags can name a class; anything else (including
    # unhashable junk) is malformed, not merely unknown.
    cls = registry.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ProtocolError(f"unknown {expected} kind {kind!r}")
    decoded = build(cls, cls._schema.decode(d))
    decoded._normalize()
    return decoded


def request_from_dict(d) -> Request:
    """Decode one request envelope; raises :class:`ProtocolError` on junk."""
    return _from_dict(d, _REQUESTS, "request")


def reply_from_dict(d) -> Reply:
    """Decode one reply envelope; raises :class:`ProtocolError` on junk."""
    return _from_dict(d, _REPLIES, "reply")


def envelope_from_dict(d):
    """Decode either direction (requests tried first)."""
    kind = d.get("kind") if isinstance(d, Mapping) else None
    if isinstance(kind, str) and kind in _REPLIES:
        return reply_from_dict(d)
    return request_from_dict(d)


__all__ = [
    "API_VERSION",
    "Request",
    "Reply",
    *_REQUESTS,
    *_REPLIES,
    "ERROR_CODES",
    "RETRYABLE_CODES",
    "error_code",
    "to_dict",
    "request_from_dict",
    "reply_from_dict",
    "envelope_from_dict",
]
