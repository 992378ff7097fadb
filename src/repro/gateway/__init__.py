"""The unified tenant gateway: one versioned API over every subsystem.

The repo's subsystems — the core mechanisms, the fleet engine, the
relational query engine, the optimization advisor — each grew their own
entry point. This package is the single stable surface in front of all of
them:

* :mod:`repro.gateway.envelopes` — typed, JSON-round-trippable request
  and reply envelopes (``SubmitBids``, ``RunQuery``, ``AdviseRequest``,
  ``LedgerQuery``, ``ReviseBid``, ``AdvanceSlots``, ``Configure``,
  ``MetricsRequest``, and ``ErrorReply`` with structured codes mapped
  from the :class:`~repro.errors.ReproError` hierarchy), versioned by
  :data:`API_VERSION`.
* :mod:`repro.gateway.codec` — ``encode``/``decode`` wire codecs for
  every public value object (:class:`~repro.core.outcome.ShapleyResult`,
  the four mechanism outcomes, :class:`~repro.fleet.engine.FleetReport`,
  :class:`~repro.db.savings.SavingsQuote`,
  :class:`~repro.db.costmodel.CostMeter`,
  :class:`~repro.db.engine.QueryResult`) and for the state a WAL
  checkpoint persists (:class:`~repro.db.catalog.Catalog`, the advisor's
  :class:`~repro.advisor.log.WorkloadLog`, the
  :class:`~repro.cloudsim.ledger.BillingLedger` and the
  :class:`~repro.cloudsim.events.EventLog`).
* :mod:`repro.gateway.schema` — the one wire schema behind both: each
  dataclass's type annotations, compiled once per class into its
  encoder and its exact coercer.
* :mod:`repro.gateway.service` — the :class:`PricingService` facade:
  ``dispatch(request_or_batch) -> reply(s)`` over one
  fleet engine, one relational catalog, one advisor; per-tenant
  :class:`TenantSession` handles; the batched columnar hot path
  preserved bit-for-bit through the boundary.
* :mod:`repro.gateway.trace` — JSONL request traces and the ``replay``
  driver behind the ``python -m repro replay`` command.
* :mod:`repro.gateway.server` / :mod:`repro.gateway.client` — the
  asyncio HTTP serving layer behind ``python -m repro serve`` (admission
  control, deadlines, group commit, graceful drain) and its blocking
  retry-aware client.

``to_dict``/``from_dict`` at this package level dispatch over both
worlds: envelopes (``"kind"``-tagged) and value objects
(``"type"``-tagged).
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ProtocolError
from repro.gateway import codec as _codec
from repro.gateway import envelopes as _envelopes
from repro.gateway.envelopes import (
    API_VERSION,
    AdvanceSlots,
    AdviseReply,
    AdviseRequest,
    BidsReply,
    ConfigReply,
    Configure,
    ERROR_CODES,
    ErrorReply,
    LedgerQuery,
    LedgerReply,
    MetricsReply,
    MetricsRequest,
    QueryReply,
    Reply,
    Request,
    ReviseBid,
    ReviseReply,
    RunQuery,
    SlotReply,
    SubmitBids,
    error_code,
    request_from_dict,
    reply_from_dict,
)
from repro.gateway.client import GatewayClient, GatewayUnavailable
from repro.gateway.envelopes import RETRYABLE_CODES
from repro.gateway.server import GatewayServer, ServerConfig, ServerThread
from repro.gateway.service import BulkAcks, PricingService, TenantSession
from repro.gateway.trace import (
    ReplayResult,
    iter_trace,
    replay,
    replay_path,
    write_trace,
)

__all__ = [
    "API_VERSION",
    "to_dict",
    "from_dict",
    # envelopes
    "Request",
    "Reply",
    "Configure",
    "SubmitBids",
    "ReviseBid",
    "AdvanceSlots",
    "RunQuery",
    "AdviseRequest",
    "LedgerQuery",
    "MetricsRequest",
    "ConfigReply",
    "BidsReply",
    "ReviseReply",
    "SlotReply",
    "QueryReply",
    "AdviseReply",
    "LedgerReply",
    "MetricsReply",
    "ErrorReply",
    "ERROR_CODES",
    "RETRYABLE_CODES",
    "error_code",
    "request_from_dict",
    "reply_from_dict",
    # facade
    "PricingService",
    "TenantSession",
    "BulkAcks",
    # traces
    "ReplayResult",
    "write_trace",
    "iter_trace",
    "replay",
    "replay_path",
    # serving layer
    "GatewayServer",
    "ServerConfig",
    "ServerThread",
    "GatewayClient",
    "GatewayUnavailable",
]


def to_dict(obj) -> dict:
    """Serialize an envelope or a public value object to a JSON-able dict."""
    if isinstance(obj, (Request, Reply)):
        return _envelopes.to_dict(obj)
    return _codec.encode(obj)


def from_dict(d):
    """Inverse of :func:`to_dict`: reconstruct an envelope or value object."""
    if isinstance(d, Mapping):
        # "type" wins: value objects may carry a "kind" *field* (e.g. a
        # SavingsQuote's index kind), but only envelopes are kind-tagged.
        if "type" in d:
            return _codec.decode(dict(d))
        if "kind" in d:
            return _envelopes.envelope_from_dict(d)
    raise ProtocolError(
        "expected a dict with a 'kind' (envelope) or 'type' (value object) tag"
    )
