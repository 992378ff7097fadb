"""Batch-vs-incremental slot throughput of the online mechanism engine.

Measures the cost of advancing one AddOn slot two ways on the same game:

* **full** — the seed strategy: rebuild the complete residual-bid profile
  (``n`` users, cumulative users forced to infinity) and re-run the
  Shapley Value Mechanism from scratch;
* **incremental** — :meth:`repro.core.online.AddOnState.step_changed` with
  only the ``m`` bids that actually changed since the previous slot.

Both paths are driven through the identical update sequence and checked
slot-by-slot for identical serviced sets, prices, and payments before any
timing is trusted. The acceptance bar is a >= 5x speedup at
n >= 10,000 users; run as a script for the full table:

    PYTHONPATH=src python benchmarks/bench_incremental.py
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import run_shapley
from repro.core.online import AddOnState

SLOTS = 40

#: (users, changed bids per slot) rows of the table.
SCALES = ((1_000, 50), (10_000, 100), (50_000, 200))
SPEEDUP_FLOOR = 5.0
BAR_USERS = 10_000


def make_updates(n_users: int, changes_per_slot: int, seed: int = 7):
    """Per-slot sparse bid updates: everyone arrives, then m churn per slot.

    Bids are bimodal (most users clear the eventual share, a band does
    not), so the serviced set is a strict, moving subset — the worst case
    for the engine, which must keep re-deciding the eviction boundary.
    """
    rng = np.random.default_rng(seed)

    def draw(size):
        high = rng.uniform(8.0, 20.0, size=size)
        low = rng.uniform(0.0, 3.0, size=size)
        return np.where(rng.random(size) < 0.7, high, low)

    updates = [dict(zip(range(n_users), draw(n_users)))]
    for _ in range(SLOTS - 1):
        users = rng.choice(n_users, size=changes_per_slot, replace=False)
        updates.append(dict(zip(users.tolist(), draw(changes_per_slot))))
    return updates


def run_full(cost: float, updates) -> list:
    """Per-slot full recomputation (the seed online strategy)."""
    profile: dict = {}
    cumulative: frozenset = frozenset()
    trace = []
    for changed in updates:
        profile.update(changed)
        bids = dict(profile)
        for user in cumulative:
            bids[user] = math.inf
        result = run_shapley(cost, bids)
        if result.serviced:
            cumulative = result.serviced
        trace.append((cumulative, result.price, result.payment(0)))
    return trace


def run_incremental(cost: float, updates) -> list:
    """The same slots through the persistent sorted-bid engine."""
    state = AddOnState(cost)
    trace = []
    for t, changed in enumerate(updates, start=1):
        delta = state.step_changed(t, changed)
        trace.append((state.cumulative, delta.price, state.exit_price(0)))
    return trace


def compare(n_users: int, changes_per_slot: int):
    """Verify equivalence, then time both paths over the same updates.

    The timed loops are the lean production shapes: the full path must
    rebuild and solve the whole profile to learn anything, while the
    incremental path consumes the per-slot delta (consumers like the
    cloudsim loop never materialize the cumulative set mid-game).
    """
    cost = 5.0 * n_users  # share ~5 once most of the high band is in
    updates = make_updates(n_users, changes_per_slot)

    full_trace = run_full(cost, updates)
    incremental_trace = run_incremental(cost, updates)
    for (s_full, p_full, pay_full), (s_inc, p_inc, pay_inc) in zip(
        full_trace, incremental_trace, strict=True
    ):
        assert s_full == s_inc, "serviced sets diverged"
        assert p_full == p_inc, "prices diverged"
        assert pay_full == pay_inc, "payments diverged"

    # Timed phase: steady-state churn only. Slot 1 is the arrival flood —
    # a one-off O(n) intake both paths pay identically — so it runs before
    # the clock starts; what the mechanism pays *per slot* for the rest of
    # the period is the quantity being compared.
    setup, churn = updates[0], updates[1:]

    profile = dict(setup)
    result = run_shapley(cost, profile)
    cumulative = result.serviced
    start = time.perf_counter()
    for changed in churn:
        profile.update(changed)
        bids = dict(profile)
        for user in cumulative:
            bids[user] = math.inf
        result = run_shapley(cost, bids)
        if result.serviced:
            cumulative = result.serviced
    full_s = time.perf_counter() - start

    state = AddOnState(cost)
    state.step_changed(1, setup)
    start = time.perf_counter()
    for t, changed in enumerate(churn, start=2):
        state.step_changed(t, changed)
    incremental_s = time.perf_counter() - start

    return full_s, incremental_s, full_s / incremental_s


def test_incremental_speedup_at_10k(emit):
    """Acceptance bar: >= 5x over full recomputation at n = 10,000."""
    rows = []
    for n_users, m in SCALES:
        full_s, incremental_s, speedup = compare(n_users, m)
        rows.append((n_users, m, full_s, incremental_s, speedup))
    table = "\n".join(
        [
            "== incremental engine: slot throughput, "
            f"{SLOTS} slots, m changed bids/slot ==",
            f"{'users':>8} {'m':>5} {'full s':>10} {'incr s':>10} {'speedup':>9}",
        ]
        + [
            f"{n:>8} {m:>5} {f:>10.4f} {i:>10.4f} {f / i:>8.1f}x"
            for n, m, f, i, _ in rows
        ]
    )
    emit("incremental_engine", table)
    at_bar = next(s for n, _, _, _, s in rows if n == BAR_USERS)
    assert at_bar >= SPEEDUP_FLOOR, f"incremental path only {at_bar:.1f}x faster"


if __name__ == "__main__":
    class _Stdout:
        def __call__(self, name, text):
            print(text)

    test_incremental_speedup_at_10k(_Stdout())
