"""Seeded envelope streams for the three workloads.

Everything a workload sends is drawn here from its ``--seed``; the same
seed yields the same catalog, tenants, bids, queries and arrival times.
Streams are built as wire dictionaries (``to_dict`` of the program's own
envelope classes) and serialized once, before any phase is timed.

Each stream also records what the correctness checks need: every
tenant's final declared value (after revisions) and the catalog costs.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "GAMES",
    "catalog",
    "Stream",
    "bids_stream",
    "MixedStream",
    "universe_facts",
    "period_population",
]

#: Pricing games (optimizations) in every workload's catalog.
GAMES = 200
#: Mean catalog cost; costs are uniform on [0, 2 * MEAN_COST].
MEAN_COST = 2.0


def catalog(seed: int) -> dict:
    from repro.workloads.fleet import fleet_game_costs

    return fleet_game_costs(seed, GAMES, MEAN_COST)


def _wire(envelope) -> dict:
    from repro.gateway.envelopes import to_dict

    return to_dict(envelope)


class Stream:
    """Wire envelopes in send order plus the facts the checks need."""

    def __init__(self) -> None:
        self.paths: list[str] = []
        self.bodies: list[bytes] = []
        self.bid_totals: dict = {}  # tenant -> final declared total value
        self.tenants: list = []  # tenants with a bid, in submission order
        self.tenant_index: list[int] = []  # stream index of each tenant's bid

    def add(self, path: str, envelope) -> None:
        self.paths.append(path)
        self.bodies.append(json.dumps(_wire(envelope)).encode())

    def __len__(self) -> int:
        return len(self.bodies)


def _bid(rng, games: int, first: int, horizon: int, max_duration: int):
    """One bid on a uniform game: it fits between ``first`` and the
    horizon, starts uniformly where it fits, and splits a U[0, 1) total
    evenly over its duration."""
    duration = min(int(rng.integers(1, max_duration + 1)), horizon - first + 1)
    start = int(rng.integers(first, horizon - duration + 2))
    per_slot = float(rng.random()) / duration
    return f"game-{int(rng.integers(games))}", start, (per_slot,) * duration


def bids_stream(rng, count: int, horizon: int) -> Stream:
    """``count`` online arrivals from distinct tenants, all after slot 1."""
    from repro.gateway.envelopes import SubmitBids

    stream = Stream()
    for i in range(count):
        tenant = f"t{i}"
        optimization, start, values = _bid(rng, GAMES, 2, horizon, 4)
        stream.add("/v1/bids", SubmitBids(tenant=tenant, bids=((optimization, start, values),)))
        stream.bid_totals[tenant] = sum(values)
        stream.tenants.append(tenant)
        stream.tenant_index.append(i)
    return stream


class MixedStream(Stream):
    """Reads beside writes, every envelope valid when it arrives.

    Requests go out in order over at most two connections, so two
    neighbours may be served in either order, never more. Bids therefore
    start two or more slots past the slot the stream believes is current,
    revisions touch tenants that bid at least ``GAP`` requests earlier
    and whose bid ends two or more slots ahead, and ledger reads name
    tenants that bid earlier.
    """

    ADVANCE_EVERY = 40  # one AdvanceSlots per this many envelopes
    GAP = 8
    WEIGHTS = (("bid", 0.42), ("revise", 0.10), ("query", 0.37), ("ledger", 0.11))
    QUERIES = ("members", "histogram", "top", "chain", "contributors")

    def __init__(self, rng, universe, horizon: int) -> None:
        super().__init__()
        self.rng = rng
        self.horizon = horizon
        self.slot = 1  # set-up advanced slot 1
        self.tables = universe["tables"]  # oldest first
        self.halos = universe["halos"]  # halo -> member pids, final snapshot
        self.halo_ids = sorted(self.halos)
        self._revisable: list = []  # (index, tenant, optimization, start, values)
        self._names = [name for name, _ in self.WEIGHTS]
        self._probs = np.array([w for _, w in self.WEIGHTS]) / sum(w for _, w in self.WEIGHTS)

    @staticmethod
    def horizon_for(count: int) -> int:
        return 2 + count // MixedStream.ADVANCE_EVERY + 24

    def warmup(self, queries: int, bids: int) -> None:
        """Set-up traffic: queries of every kind, then some bids."""
        for i in range(queries):
            self._query(self.QUERIES[i % len(self.QUERIES)])
        for _ in range(bids):
            self._submit()

    def extend(self, count: int) -> None:
        for _ in range(count):
            if len(self) % self.ADVANCE_EVERY == self.ADVANCE_EVERY - 1:
                self._advance()
                continue
            kind = self._names[int(self.rng.choice(len(self._names), p=self._probs))]
            if kind == "revise" and self._revise():
                continue
            if kind == "ledger" and len(self.tenants) > self.GAP:
                self._ledger()
                continue
            if kind == "query":
                self._query(self.QUERIES[int(self.rng.integers(len(self.QUERIES)))])
                continue
            self._submit()

    def _advance(self) -> None:
        from repro.gateway.envelopes import AdvanceSlots

        self.add("/v1/slots", AdvanceSlots(slots=1))
        self.slot += 1

    def _submit(self) -> None:
        from repro.gateway.envelopes import SubmitBids

        tenant = f"m{len(self.tenants)}"
        optimization, start, values = _bid(self.rng, GAMES, self.slot + 2, self.horizon, 6)
        self.add(
            "/v1/bids",
            SubmitBids(tenant=tenant, bids=((optimization, start, values),), revisable=True),
        )
        self.bid_totals[tenant] = sum(values)
        self.tenants.append(tenant)
        self.tenant_index.append(len(self) - 1)
        self._revisable.append((len(self), tenant, optimization, start, values))

    def _revise(self) -> bool:
        from repro.gateway.envelopes import ReviseBid

        for _ in range(4):
            if not self._revisable:
                return False
            pick = int(self.rng.integers(len(self._revisable)))
            index, tenant, optimization, start, values = self._revisable[pick]
            end = start + len(values) - 1
            if index > len(self) - self.GAP:
                continue
            self._revisable[pick] = self._revisable[-1]
            self._revisable.pop()
            if end < self.slot + 3:
                continue  # ends too soon to revise safely; drop it
            self.add(
                "/v1/bids",
                ReviseBid(tenant=tenant, optimization=optimization, new_values=((end, values[-1] + 0.25),)),
            )
            self.bid_totals[tenant] += 0.25
            return True
        return False

    def _ledger(self) -> None:
        from repro.gateway.envelopes import LedgerQuery

        tenant = self.tenants[int(self.rng.integers(len(self.tenants) - self.GAP))]
        self.add("/v1/ledger", LedgerQuery(tenant=tenant))

    def _query(self, kind: str) -> None:
        from repro.gateway.envelopes import RunQuery

        rng = self.rng
        tenant = f"astro-{int(rng.integers(8))}"
        halo = self.halo_ids[int(rng.integers(len(self.halo_ids)))]
        newest_first = tuple(reversed(self.tables))
        if kind == "members":
            query = RunQuery(tenant=tenant, query=kind, table=newest_first[0], halo=halo)
        elif kind == "histogram":
            members = self.halos[halo]
            pids = rng.choice(members, size=min(64, len(members)), replace=False)
            query = RunQuery(tenant=tenant, query=kind, table=newest_first[1],
                             pids=tuple(int(p) for p in pids))
        elif kind == "top":
            query = RunQuery(tenant=tenant, query=kind, tables=newest_first[:2], halo=halo)
        else:  # chain / contributors walk every snapshot
            query = RunQuery(tenant=tenant, query=kind, tables=newest_first, halo=halo)
        self.add("/v1/query", query)


def universe_facts(particles: int, snapshots: int, seed: int) -> dict:
    """Table names and final-snapshot halo membership of the universe the
    server simulates from the same arguments (``repro serve --particles``)."""
    from repro.astro.simulator import UniverseConfig, UniverseSimulator

    snaps = list(
        UniverseSimulator(UniverseConfig(particles=particles, snapshots=snapshots), rng=seed).run()
    )
    final = snaps[-1]
    halos: dict = {}
    for pid, halo in zip(final.pids.tolist(), final.halo.tolist()):
        if halo >= 0:
            halos.setdefault(int(halo), []).append(int(pid))
    return {"tables": [s.table_name for s in snaps], "halos": halos}


def period_population(seed: int, users: int, horizon: int):
    """The bulk population of ``period``: ``fleet_arrival_trace`` tenants
    as one-bid ``SubmitBids`` envelopes, with their declared totals."""
    from repro.gateway.envelopes import SubmitBids
    from repro.workloads.fleet import fleet_arrival_trace

    requests, totals = [], {}
    for arrival in fleet_arrival_trace(seed, users, GAMES, horizon):
        values = arrival.bid.schedule.values
        requests.append(
            SubmitBids(tenant=arrival.user, bids=((arrival.optimization, arrival.bid.start, values),))
        )
        totals[arrival.user] = sum(values)
    return requests, totals
