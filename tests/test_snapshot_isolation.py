"""Epoch-versioned copy-on-write snapshots under interleaved mutation.

The PR 6 tentpole contract, verified end to end:

* Under any interleaving of ``SubmitBids``/``AdvanceSlots``/catalog
  mutations/``RunQuery`` dispatches, every query sees exactly one catalog
  epoch and returns rows (and metered units) bit-identical to a fully
  serialized execution at that epoch.
* ``as_of`` re-reads a retained earlier epoch bit-identically even after
  arbitrary later mutation; unretained epochs fail as typed errors.
* ``Table``'s columnar shadow never hands a reader a torn or mutable
  column: arrays and batches captured between mutations stay bit-identical
  to the moment of capture.
* The satellite surfaces: ``drop_table`` view cascade, index retirement,
  all-or-nothing ``extend``, ``epoch_batch`` coalescing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advisor import WorkloadLog
from repro.db import (
    Catalog,
    CatalogSnapshot,
    CostModel,
    MaterializedView,
    QueryEngine,
    Schema,
    Table,
)
from repro.errors import QueryError, SchemaError
from repro.gateway.envelopes import (
    AdvanceSlots,
    AdviseRequest,
    ErrorReply,
    QueryReply,
    RunQuery,
    SubmitBids,
)
from repro.gateway.service import SNAPSHOT_RETENTION, PricingService

# --------------------------------------------------------------- fixtures --


def build_db() -> Catalog:
    """Two deterministic particle snapshots, the workload's usual shape."""
    db = Catalog()
    rng = np.random.default_rng(7)
    for name in ("snap_old", "snap_new"):
        db.create_table(
            Table.from_columns(
                name,
                Schema.of(pid="int", halo="int"),
                {"pid": np.arange(80), "halo": rng.integers(-1, 4, size=80)},
            )
        )
    return db


def build_service() -> PricingService:
    return PricingService(
        catalog={"opt_a": 4.0, "opt_b": 6.0}, horizon=40, db_catalog=build_db()
    )


# The interleaving alphabet: fleet traffic, catalog mutations, and queries.
# Every op is deterministic given the service state it runs against, so a
# prefix replay on a fresh service reproduces the exact same states.
MUTATION_OPS = (
    ("bids", "tycho", "opt_a"),
    ("bids", "vera", "opt_b"),
    ("advance",),
    ("insert", 1),
    ("insert", 3),
    ("hash_index",),
    ("drop_hash_index",),
    ("analyze",),
)

QUERY_OPS = (
    ("q_members", 0),
    ("q_members", 2),
    ("q_histogram",),
)


def apply_mutation(service: PricingService, op) -> None:
    tag = op[0]
    if tag == "bids":
        _, tenant, optimization = op
        service.dispatch(
            SubmitBids(
                tenant=tenant,
                bids=((optimization, service.fleet.slot + 1, (1.5, 2.0)),),
            )
        )
    elif tag == "advance":
        if service.fleet.slot < service.fleet.horizon:
            service.dispatch(AdvanceSlots(slots=1))
    elif tag == "insert":
        table = service.db.table("snap_new")
        base = len(table)
        table.extend(
            [(10_000 + base + i, (base + i) % 5 - 1) for i in range(op[1])]
        )
    elif tag == "hash_index":
        service.db.create_hash_index("snap_new", "halo")
    elif tag == "drop_hash_index":
        if service.db.hash_index("snap_new", "halo") is not None:
            service.db.drop_hash_index("snap_new", "halo")
    elif tag == "analyze":
        service.db.analyze_table("snap_new")
    else:  # pragma: no cover - alphabet and dispatcher must stay in sync
        raise AssertionError(f"unknown op {op!r}")


def query_request(op, as_of=None) -> RunQuery:
    if op[0] == "q_members":
        return RunQuery(
            tenant="reader",
            query="members",
            table="snap_new",
            halo=op[1],
            as_of=as_of,
        )
    return RunQuery(
        tenant="reader",
        query="histogram",
        table="snap_old",
        pids=tuple(range(0, 60, 3)),
        as_of=as_of,
    )


# ----------------------------------------------- interleaving properties --


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.sampled_from(MUTATION_OPS + QUERY_OPS), min_size=1, max_size=10
    )
)
def test_interleaved_queries_match_serialized_execution(ops):
    """Every query under interleaving == the same query run serialized.

    Each captured reply is replayed against a fresh service that executes
    only the prefix of ops before it; rows, metered units, plan source and
    epoch must all be bit-identical. Epochs across the run must be
    monotonic — a query can never see an older state than its predecessor.
    """
    service = build_service()
    captured = []
    last_epoch = -1
    for position, op in enumerate(ops):
        if op[0].startswith("q_"):
            reply = service.dispatch(query_request(op))
            assert isinstance(reply, QueryReply), reply
            assert reply.epoch >= last_epoch
            last_epoch = reply.epoch
            captured.append((position, op, reply))
        else:
            apply_mutation(service, op)

    for position, op, reply in captured:
        fresh = build_service()
        for earlier in ops[:position]:
            if earlier[0].startswith("q_"):
                fresh.dispatch(query_request(earlier))
            else:
                apply_mutation(fresh, earlier)
        serialized = fresh.dispatch(query_request(op))
        assert serialized.rows == reply.rows
        assert serialized.units == reply.units
        assert serialized.source == reply.source
        assert serialized.epoch == reply.epoch

    # Time travel on the fully mutated service: every epoch a query pinned
    # is still retained (the alphabet is shorter than the retention window)
    # and re-reads bit-identically.
    for _, op, reply in captured:
        again = service.dispatch(query_request(op, as_of=reply.epoch))
        assert isinstance(again, QueryReply), again
        assert again.rows == reply.rows
        assert again.units == reply.units
        assert again.epoch == reply.epoch


def test_queries_see_fresh_rows_after_direct_table_mutation():
    """Row inserts move the epoch, so the snapshot cache can never serve
    stale rows for a current-state read."""
    service = build_service()
    before = service.dispatch(query_request(("q_members", 1)))
    assert isinstance(before, QueryReply)

    service.db.table("snap_new").insert((90_001, 1))
    after = service.dispatch(query_request(("q_members", 1)))
    assert after.epoch > before.epoch
    assert len(after.rows) == len(before.rows) + 1
    assert (90_001,) in after.rows

    # ... while the pinned earlier epoch still reads the old rows.
    pinned = service.dispatch(query_request(("q_members", 1), as_of=before.epoch))
    assert pinned.rows == before.rows
    assert pinned.epoch == before.epoch


def test_as_of_unknown_epoch_is_a_typed_query_error():
    service = build_service()
    reply = service.dispatch(query_request(("q_members", 0), as_of=10_000))
    assert isinstance(reply, ErrorReply)
    assert reply.code == "query"
    assert "not retained" in reply.message


def test_snapshot_retention_evicts_oldest_epoch():
    service = build_service()
    first = service.dispatch(query_request(("q_members", 0)))
    assert isinstance(first, QueryReply)
    for i in range(SNAPSHOT_RETENTION + 1):
        service.db.table("snap_new").insert((50_000 + i, 0))
        pinned = service.dispatch(query_request(("q_members", 0)))
        assert isinstance(pinned, QueryReply)
    evicted = service.dispatch(query_request(("q_members", 0), as_of=first.epoch))
    assert isinstance(evicted, ErrorReply)
    assert evicted.code == "query"


def test_advise_reply_echoes_post_adoption_epoch():
    service = build_service()
    for _ in range(6):
        service.dispatch(query_request(("q_members", 1)))
    before = service.db.epoch
    reply = service.dispatch(AdviseRequest(horizon=6, dollars_per_byte=1e-9))
    assert not isinstance(reply, ErrorReply), reply
    assert reply.epoch == service.db.epoch
    if reply.adopted:
        # The round moves the epoch at most twice — once for its ANALYZE
        # side effect, once for the whole adoption batch — no matter how
        # many designs were installed.
        assert before < service.db.epoch <= before + 2


# -------------------------------------------------- exactly-one-epoch --


class _MutatingLog(WorkloadLog):
    """A workload log that mutates the catalog from inside ``record_query``
    — the worst-case re-entrant writer a multi-step query can meet."""

    def __init__(self, catalog: Catalog, table_name: str, row) -> None:
        super().__init__()
        self._catalog = catalog
        self._table_name = table_name
        self._row = row

    def record_query(self, **kwargs):
        self._catalog.table(self._table_name).insert(self._row)
        return super().record_query(**kwargs)


def test_multistep_query_pins_one_epoch_under_reentrant_mutation():
    """``halo_chain`` runs members + histogram steps; a writer sneaking a
    *result-changing* row in between the steps must not be visible."""
    clean = QueryEngine(build_db(), CostModel())
    members = clean.halo_members("snap_new", 0)
    target_pid = int(members.rows[0][0])
    expected_chain, expected_meter = clean.halo_chain(
        ["snap_new", "snap_old"], 0
    )

    db = build_db()
    # Each log record lands a snap_old row whose pid IS a member of the
    # probed halo: without snapshot pinning the histogram step would count
    # it and the chain could flip.
    log = _MutatingLog(db, "snap_old", (target_pid, 3))
    engine = QueryEngine(db, CostModel(), log=log)
    epoch_before = db.epoch
    chain, meter = engine.halo_chain(["snap_new", "snap_old"], 0)

    assert db.epoch > epoch_before  # the writer really ran mid-query
    assert chain == expected_chain
    assert CostModel().units(meter) == CostModel().units(expected_meter)

    # Serialized-after semantics: a fresh query at the new epoch does see
    # the inserted rows.
    after = QueryEngine(db, CostModel()).progenitor_histogram(
        "snap_old", frozenset({target_pid})
    )
    counts = dict(after.rows)
    assert counts.get(3, 0) >= 1


def test_catalog_snapshot_survives_drop_table():
    db = build_db()
    snap = db.snapshot()
    assert isinstance(snap, CatalogSnapshot)
    pinned_rows = QueryEngine(snap, CostModel()).halo_members("snap_new", 0).rows

    db.drop_table("snap_new")
    with pytest.raises(QueryError):
        db.table("snap_new")
    # The pinned snapshot still serves the dropped table, bit-identically.
    again = QueryEngine(snap, CostModel()).halo_members("snap_new", 0)
    assert again.rows == pinned_rows
    assert snap.snapshot() is snap  # snapshotting a snapshot is identity


# ------------------------------------------------ torn-column properties --


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.sampled_from(("insert", "extend", "column", "batch", "snapshot")),
        max_size=24,
    )
)
def test_readers_never_observe_torn_columns(ops):
    """Arrays, batches and snapshots captured between mutations stay
    bit-identical to the moment of capture and are never writable."""
    table = Table.from_columns(
        "t",
        Schema.of(x="int", y="float"),
        {"x": np.arange(4), "y": np.linspace(0.0, 1.0, 4)},
    )
    captured = []
    next_x = 4
    for op in ops:
        if op == "insert":
            table.insert((next_x, next_x / 2.0))
            next_x += 1
        elif op == "extend":
            table.extend([(next_x + i, float(next_x + i)) for i in range(3)])
            next_x += 3
        elif op == "column":
            array = table.column_array("x")
            captured.append(("column", array, array.copy(), len(table)))
        elif op == "batch":
            batch = table.as_batch()
            frozen = [column.copy() for column in batch.columns]
            captured.append(("batch", batch, frozen, len(table)))
        else:
            snap = table.snapshot()
            captured.append(("snapshot", snap, list(snap.rows()), len(table)))

    for kind, obj, expected, n in captured:
        if kind == "column":
            assert not obj.flags.writeable
            assert len(obj) == n
            np.testing.assert_array_equal(obj, expected)
        elif kind == "batch":
            assert len(obj) == n
            for column, frozen in zip(obj.columns, expected):
                assert not column.flags.writeable
                np.testing.assert_array_equal(column, frozen)
        else:
            assert len(obj) == n
            assert list(obj.rows()) == expected
            batch = obj.as_batch()
            assert len(batch) == n
            assert batch.epoch == obj.version


def test_lazy_snapshot_columns_are_bit_identical_across_growth():
    """A snapshot's column arrays are derived lazily; buffer growth after
    the pin must not change what the snapshot reads."""
    table = Table.from_columns(
        "t", Schema.of(x="int"), {"x": np.arange(5)}
    )
    snap = table.snapshot()
    eager = snap.column_array("x").copy()
    # Force several buffer doublings past the pinned length.
    table.extend([(100 + i,) for i in range(200)])
    np.testing.assert_array_equal(snap.column_array("x"), eager)
    assert len(snap.as_batch()) == 5


class _CountingRows(list):
    """A row store that counts indexed reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("rounds", [100, 1_000])
def test_interleaved_insert_and_scan_seals_only_the_delta(rounds):
    """Each seal copies only the rows appended since the last one: N
    interleaved insert + column_array rounds read the row store exactly
    N x columns times, where a rebuild per scan would read O(N^2)."""
    table = Table("t", Schema.of(pid="int", halo="int"))
    table._rows = rows = _CountingRows()
    for i in range(rounds):
        table.insert((i, i % 7))
        assert table.column_array("pid")[-1] == i
    assert rows.reads == rounds * 2
    np.testing.assert_array_equal(table.column_array("pid"), np.arange(rounds))
    np.testing.assert_array_equal(table.column_array("halo"), np.arange(rounds) % 7)


# ------------------------------------------------------------ satellites --


def test_drop_table_cascades_dependent_views():
    db = build_db()
    engine = QueryEngine(db, CostModel())
    db.create_view(
        MaterializedView.projection_of(
            "v_members", db.table("snap_new"), ("pid", "halo")
        )
    )
    db.create_view(
        MaterializedView.projection_of(
            "v_other", db.table("snap_old"), ("pid", "halo")
        )
    )

    epoch = db.epoch
    db.drop_table("snap_new")
    assert db.epoch == epoch + 1
    assert not db.has_view("v_members")  # cascaded with its base table
    assert db.has_view("v_other")  # unrelated view untouched
    # The planner can never be offered a view over a missing base table.
    with pytest.raises(QueryError):
        engine.halo_members("snap_new", 0)


def test_index_retirement_bumps_epoch_and_planner_falls_back():
    db = build_db()
    db.analyze_table("snap_new")
    db.create_hash_index("snap_new", "halo")
    engine = QueryEngine(db, CostModel())

    with_index = engine.halo_members("snap_new", 2)
    assert with_index.source == "index"

    epoch = db.epoch
    db.drop_hash_index("snap_new", "halo")
    assert db.epoch == epoch + 1
    assert db.hash_index("snap_new", "halo") is None

    without = engine.halo_members("snap_new", 2)
    assert without.source != "index"
    assert without.rows == with_index.rows
    assert without.epoch > with_index.epoch

    with pytest.raises(QueryError, match="no hash index"):
        db.drop_hash_index("snap_new", "halo")


def test_sorted_index_retirement():
    db = build_db()
    db.create_sorted_index("snap_new", "pid")
    epoch = db.epoch
    db.drop_sorted_index("snap_new", "pid")
    assert db.epoch == epoch + 1
    assert db.sorted_index("snap_new", "pid") is None
    with pytest.raises(QueryError, match="no sorted index"):
        db.drop_sorted_index("snap_new", "pid")


def test_extend_is_all_or_nothing():
    table = Table("t", Schema.of(x="int"))
    table.insert((1,))
    version = table.version
    with pytest.raises(SchemaError):
        table.extend([(2,), ("not an int",), (3,)])
    assert len(table) == 1  # nothing from the bad batch landed
    assert table.version == version
    table.extend([(2,), (3,)])
    assert table.version == version + 1  # one bump for the whole batch
    table.extend([])
    assert table.version == version + 1  # empty batch is a no-op


def test_registered_table_mutations_move_the_catalog_epoch():
    db = Catalog()
    table = db.create_table(Table("t", Schema.of(x="int")))
    epoch = db.epoch
    table.insert((1,))
    assert db.epoch == epoch + 1
    table.extend([(2,), (3,)])
    assert db.epoch == epoch + 2
    db.drop_table("t")
    after_drop = db.epoch
    table.insert((4,))  # unregistered again: no catalog to notify
    assert db.epoch == after_drop


def test_epoch_batch_coalesces_to_one_boundary():
    db = Catalog()
    epoch = db.epoch
    with db.epoch_batch():
        db.create_table(
            Table.from_columns("t", Schema.of(x="int"), {"x": np.arange(3)})
        )
        with db.epoch_batch():  # nested batches join the outermost
            db.create_hash_index("t", "x")
            db.analyze_table("t")
        assert db.epoch == epoch  # nothing lands until the batch closes
    assert db.epoch == epoch + 1

    with db.epoch_batch():
        pass  # an empty batch must not move the epoch
    assert db.epoch == epoch + 1
