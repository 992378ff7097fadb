"""Fleet engine vs N independent CloudService runs, at fleet scale.

Races the same multi-game workload two ways:

* **services** — one :class:`repro.cloudsim.CloudService` per
  optimization, each fed its own users through the object API and advanced
  through every slot: N independent per-game loops.
* **fleet** — one :class:`repro.fleet.FleetEngine` over the whole catalog,
  bulk-ingesting the identical population as columnar batches and making
  one pass over the fleet's arrivals/departures per slot.

Outcomes are checked identical (payments, grants, implementation slots,
exact equality — no tolerance) on every point before any timing is
trusted; timings are best-of-3 per side to absorb scheduler noise. The
acceptance bar is a >= 5x wall-clock speedup at 200 concurrent games and
50,000 users; run as a script for the full table:

    PYTHONPATH=src python benchmarks/bench_fleet.py
"""

from __future__ import annotations

from repro.experiments import measure_fleet_point

#: (games, users, slots) rows of the table; the last row is the bar.
SCALES = (
    (50, 12_500, 1000),
    (100, 25_000, 2000),
    (200, 50_000, 6000),
)

SPEEDUP_FLOOR = 5.0
SEED = 2012


def test_fleet_speedup_at_200_games(emit):
    """Acceptance bar: >= 5x over independent services at 200 games."""
    rows = []
    for games, users, slots in SCALES:
        services_s, fleet_s = measure_fleet_point(
            games=games, users=users, slots=slots, repeats=3, seed=SEED
        )
        rows.append((games, users, slots, services_s, fleet_s))
    table = "\n".join(
        [
            "== fleet engine vs N independent CloudService runs "
            "(identical outcomes asserted) ==",
            f"{'games':>6} {'users':>7} {'slots':>6} "
            f"{'services s':>11} {'fleet s':>9} {'speedup':>9}",
        ]
        + [
            f"{g:>6} {u:>7} {z:>6} {s:>11.3f} {f:>9.3f} {s / f:>8.1f}x"
            for g, u, z, s, f in rows
        ]
    )
    emit("fleet_engine", table)
    games, users, _, services_s, fleet_s = rows[-1]
    speedup = services_s / fleet_s
    assert speedup >= SPEEDUP_FLOOR, (
        f"fleet only {speedup:.1f}x faster at {games} games / {users} users"
    )


if __name__ == "__main__":

    class _Stdout:
        def __call__(self, name, text):
            print(text)

    test_fleet_speedup_at_200_games(_Stdout())
