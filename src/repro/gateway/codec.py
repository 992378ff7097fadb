"""Wire codec for the public value objects.

Every value object the gateway can hand a tenant — :class:`ShapleyResult`,
the four mechanism outcomes, :class:`FleetReport`, :class:`SavingsQuote`,
:class:`CostMeter`, :class:`QueryResult` — and the state a WAL checkpoint
persists — :class:`Catalog`, :class:`WorkloadLog`, :class:`BillingLedger`,
:class:`EventLog` — round-trips through plain JSON-able dictionaries:
``decode(encode(x)) == x`` holds exactly, including after a real
``json.dumps``/``json.loads`` hop (property-tested in
``tests/test_gateway.py``). Every encoded object carries a ``"type"`` tag
naming its class; tuples, frozensets and mappings travel tagged
(:func:`encode_value`), and anything else is rejected with
:class:`~repro.errors.ProtocolError`.

The dataclasses need no code here: their type annotations are their
schema (:mod:`repro.gateway.schema`). Only the codecs below are
hand-written, because they hide a format or rebuild private state.
"""

from __future__ import annotations

from repro.advisor.candidates import ViewSpec
from repro.advisor.log import QueryTemplate, TemplateUsage, WorkloadLog
from repro.cloudsim import events as _ev
from repro.cloudsim.ledger import BillingLedger, LedgerEntry
from repro.core.outcome import (
    AddOffOutcome,
    AddOnOutcome,
    ShapleyResult,
    SubstOffOutcome,
    SubstOnOutcome,
)
from repro.db.catalog import Catalog
from repro.db.costmodel import CostMeter
from repro.db.engine import QueryResult
from repro.db.index import HashIndex, SortedIndex
from repro.db.savings import SavingsQuote
from repro.db.schema import Column, Schema
from repro.db.stats import ColumnStats, TableStats
from repro.db.table import Table
from repro.db.view import MaterializedView
from repro.errors import ProtocolError, QueryError
from repro.fleet.engine import FleetReport
from repro.gateway import schema as wire
from repro.gateway.schema import (
    as_array,
    as_float,
    as_int,
    as_str,
    decode,
    decode_value,
    encode,
    encode_value,
)

__all__ = ["encode", "decode", "encode_value", "decode_value", "CODECS"]


# ------------------------------------------------------- ledger and events --

_ENTRY = wire.Schema(LedgerEntry, tagged=True, tags=())


def _enc_ledger(ledger: BillingLedger) -> dict:
    return {"entries": [_ENTRY.encode(e, {}) for e in ledger.entries]}


def _dec_ledger(d: dict) -> BillingLedger:
    ledger = BillingLedger()
    for raw in d["entries"]:
        entry = LedgerEntry(**_ENTRY.decode(raw))
        if entry.kind == "invoice":
            ledger.invoice(entry.slot, entry.party, entry.amount, entry.memo)
        elif entry.kind == "build":
            ledger.build_outlay(entry.slot, entry.party, -entry.amount, entry.memo)
        else:
            raise ProtocolError(f"unknown ledger entry kind {entry.kind!r}")
    return ledger


#: Event classes that may appear in a serialized event log, by wire tag.
_EVENTS = {
    cls.__name__: wire.Schema(cls, tagged=True, tags=("event",))
    for cls in (
        _ev.BidPlaced,
        _ev.BidRevised,
        _ev.UserGranted,
        _ev.OptimizationImplemented,
        _ev.UserDeparted,
        _ev.UserCharged,
    )
}


def _enc_events(log: _ev.EventLog) -> dict:
    events = []
    for event in log.all():
        name = type(event).__name__
        events.append(_EVENTS[name].encode(event, {"event": name}))
    return {"events": events}


def _dec_events(d: dict) -> _ev.EventLog:
    log = _ev.EventLog()
    for raw in d["events"]:
        event = _EVENTS.get(raw["event"])
        if event is None:
            raise ProtocolError(f"unknown event type {raw['event']!r}")
        log.record(event.cls(**event.decode(raw)))
    return log


# ------------------------------------------ durable state (checkpoints) --
#
# The Catalog and WorkloadLog codecs exist for the WAL checkpoint path
# (:mod:`repro.gateway.wal.checkpoint`): they serialize *internal* engine
# state, so decoding reconstructs the private structures directly instead
# of replaying mutations — replay would bump table versions and the
# catalog epoch, and a recovered service must report the exact epochs
# the crashed one did.


_SPEC = wire.Schema(ViewSpec, tagged=False, tags=())
_COLUMN = wire.Schema(ColumnStats, tagged=True, tags=())
_USAGE = wire.Schema(TemplateUsage, tagged=True, tags=("tenant", "template"))


def _enc_table(t: Table) -> dict:
    return {
        "name": t.name,
        "schema": [[c.name, c.dtype] for c in t.schema.columns],
        "version": t.version,
        "rows": [list(row) for row in t.rows()],
    }


def _dec_table(d: dict) -> Table:
    columns = [Column(as_str(n), as_str(dt)) for n, dt in as_array(d["schema"])]
    table = Table(as_str(d["name"]), Schema(columns))
    table._rows = [table.schema.validate_row(row) for row in as_array(d["rows"])]
    table._version = as_int(d["version"])
    return table


def _unbuildable(name: str):
    def definition():
        raise QueryError(
            f"view {name!r} was restored without a rebuildable definition; "
            "it serves its materialized contents but cannot refresh"
        )

    return definition


def _enc_catalog(c: Catalog) -> dict:
    if c._batch_depth:
        raise ProtocolError("cannot encode a catalog inside an open epoch_batch()")
    views = [
        {
            "name": name,
            "depends_on": list(view.depends_on),
            "spec": None if view.spec is None else _SPEC.encode(view.spec, {}),
            "build_cost_units": view.build_cost_units,
            "table": None if view.table is None else _enc_table(view.table),
        }
        for name, view in c._views.items()
    ]
    return {
        "epoch": c.epoch,
        "tables": [_enc_table(t) for t in c._tables.values()],
        "views": views,
        "hash_indexes": [
            [t, k, ix._covered_rows] for (t, k), ix in c._hash_indexes.items()
        ],
        "sorted_indexes": [
            [t, k, ix._covered_rows] for (t, k), ix in c._sorted_indexes.items()
        ],
        "stats": [
            {
                "table_name": s.table_name,
                "row_count": s.row_count,
                "row_width": s.row_width,
                "columns": [_COLUMN.encode(cs, {}) for cs in s.columns.values()],
            }
            for s in c._stats.values()
        ],
    }


def _dec_catalog(d: dict) -> Catalog:
    catalog = Catalog()
    for raw in as_array(d["tables"]):
        table = _dec_table(raw)
        catalog._tables[table.name] = table
        table._watchers.append(catalog._bump)
    for raw in as_array(d["views"]):
        name = as_str(raw["name"])
        raw_spec = raw["spec"]
        if raw_spec is not None:
            view = ViewSpec(**_SPEC.decode(raw_spec)).build(catalog, name)
        else:
            depends_on = tuple(as_array(raw["depends_on"]))
            view = MaterializedView(name, _unbuildable(name), depends_on=depends_on)
        raw_table = raw["table"]
        view.table = None if raw_table is None else _dec_table(raw_table)
        view.build_cost_units = as_float(raw["build_cost_units"])
        catalog._views[name] = view
    for field_name, cls, registry in (
        ("hash_indexes", HashIndex, catalog._hash_indexes),
        ("sorted_indexes", SortedIndex, catalog._sorted_indexes),
    ):
        for table_name, key, covered in as_array(d[field_name]):
            table = catalog._tables.get(table_name)
            if table is None:
                raise ProtocolError(f"index over unknown table {table_name!r}")
            covered = as_int(covered)
            if not 0 <= covered <= len(table):
                raise ProtocolError(
                    f"index over {table_name!r} claims to cover {covered} "
                    f"of {len(table)} rows"
                )
            key = as_str(key)
            registry[(table_name, key)] = cls(table, key, covered=covered)
    for raw in as_array(d["stats"]):
        columns = {}
        for cs in as_array(raw["columns"]):
            stats = ColumnStats(**_COLUMN.decode(cs))
            columns[stats.name] = stats
        table_name = as_str(raw["table_name"])
        catalog._stats[table_name] = TableStats(
            table_name=table_name,
            row_count=as_int(raw["row_count"]),
            row_width=as_int(raw["row_width"]),
            columns=columns,
        )
    catalog._epoch = as_int(d["epoch"])
    return catalog


def _enc_log(log: WorkloadLog) -> dict:
    entries = []
    for tenant, template, usage in log.entries():
        raw_template = {
            "kind": template.kind,
            "table_name": template.table_name,
            "columns": list(template.columns),
            "key_column": template.key_column,
            "excluded": [[col, encode_value(val)] for col, val in template.excluded],
        }
        entry = {"tenant": encode_value(tenant), "template": raw_template}
        entries.append(_USAGE.encode(usage, entry))
    return {"entries": entries}


def _dec_log(d: dict) -> WorkloadLog:
    log = WorkloadLog()
    for raw in as_array(d["entries"]):
        raw_template = raw["template"]
        key_column = raw_template["key_column"]
        template = QueryTemplate(
            kind=as_str(raw_template["kind"]),
            table_name=as_str(raw_template["table_name"]),
            columns=tuple(as_array(raw_template["columns"])),
            key_column=None if key_column is None else as_str(key_column),
            excluded=tuple(
                (col, decode_value(val)) for col, val in raw_template["excluded"]
            ),
        )
        usage = TemplateUsage(**_USAGE.decode(raw))
        log._usage[(decode_value(raw["tenant"]), template)] = usage
    return log


# ------------------------------------------------------------- dispatch --

#: Every class the codec handles; each one's ``"type"`` tag is its name.
CODECS = [
    ShapleyResult,
    AddOffOutcome,
    AddOnOutcome,
    SubstOffOutcome,
    SubstOnOutcome,
    SavingsQuote,
    CostMeter,
    QueryResult,
    FleetReport,
    BillingLedger,
    _ev.EventLog,
    Catalog,
    WorkloadLog,
]
_HAND_WRITTEN = {
    BillingLedger: (_enc_ledger, _dec_ledger),
    _ev.EventLog: (_enc_events, _dec_events),
    Catalog: (_enc_catalog, _dec_catalog),
    WorkloadLog: (_enc_log, _dec_log),
}
for _cls in CODECS:
    wire.register(_cls, *_HAND_WRITTEN.get(_cls, ()))
