"""Correctness checks on a workload's final state.

Each check returns a list of violation strings (empty when it holds), so
a run can report every violation at once; :func:`run.main` fails the run
if any check reports one. The benchmark's tests feed each check a
deliberately corrupted input to prove it trips.
"""

from __future__ import annotations

import hashlib
import json

__all__ = [
    "EPS",
    "cost_recovery",
    "no_overcharge",
    "same_ledgers",
    "same_digest",
    "report_digest",
    "ledger_view",
]

#: Absolute tolerance on money comparisons (float sums of many invoices).
EPS = 1e-6


def cost_recovery(report, costs: dict) -> list[str]:
    """Every implemented optimization's revenue covers its catalog cost."""
    problems = []
    for optimization in report.implemented:
        revenue = report.revenue_of(optimization)
        cost = costs[optimization]
        if revenue + EPS < cost:
            problems.append(
                f"cost recovery: {optimization} earned {revenue:.6f} "
                f"< cost {cost:.6f}"
            )
    return problems


def no_overcharge(report, bid_totals: dict) -> list[str]:
    """No tenant is charged more than the total value they declared.

    ``bid_totals`` maps each tenant to the sum over its bids of the bid's
    final (post-revision) declared value.
    """
    problems = []
    for tenant, paid in report.payments.items():
        declared = bid_totals.get(tenant)
        if declared is None:
            problems.append(f"overcharge: unknown tenant {tenant!r} paid {paid}")
        elif paid > declared + EPS:
            problems.append(
                f"overcharge: tenant {tenant!r} paid {paid:.6f} "
                f"> declared {declared:.6f}"
            )
    return problems


def ledger_view(reply: dict) -> dict:
    """The comparable part of one wire ``LedgerReply``."""
    return {
        "tenant": reply.get("tenant"),
        "invoices": [list(map(_plain, e)) for e in reply.get("invoices", ())],
        "total": reply.get("total"),
        "cloud_balance": reply.get("cloud_balance"),
    }


def _plain(value):
    return list(value) if isinstance(value, tuple) else value


def same_ledgers(live: dict, recovered: dict) -> list[str]:
    """Recovered state equals live state: ledgers, balance, WAL position.

    Both arguments map a key (a tenant's ledger view, ``"wal_seq"``,
    ``"cloud_balance"``) to its value as read from one service.
    """
    problems = []
    for key in sorted(set(live) | set(recovered), key=str):
        if live.get(key) != recovered.get(key):
            problems.append(
                f"recovery: {key} live={live.get(key)!r} "
                f"recovered={recovered.get(key)!r}"
            )
    return problems


def report_digest(report) -> str:
    """sha256 of the full :class:`FleetReport` in its wire codec form."""
    from repro.gateway import codec

    text = json.dumps(codec.encode(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def same_digest(label: str, expected: str, actual: str) -> list[str]:
    if expected == actual:
        return []
    return [f"{label}: report digest {actual[:16]} != {expected[:16]}"]
