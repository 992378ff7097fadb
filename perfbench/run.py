#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload bids|mixed|period --seed N \\
        --seconds S --trace 0|1 [--rates bids=LO,HI --rates mixed=LO,HI]

Run from the repository root. ``bids`` and ``mixed`` start ``python -m
repro serve`` as their own process and drive it over HTTP from this one
process; ``period`` runs a durable ``PricingService`` in this process.
Every run checks the program's outputs (see :mod:`checks`) and prints,
as its last stdout line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then with spans around every layer call, and
reports the per-layer metrics, a self-time table and a reconciliation of
layer means against the end-to-end mean. Spans and a full record of the
run (seed, nproc, Python version, source digest) go to
``.perfbench_out/``.

Exit codes: 0 on a correct run; 1 when a correctness check failed (the
JSON line still prints, with ``"correct": false``); 2 when the program
under test is missing; 3 when the load generator ran too late in half of
the ``lo`` windows for its latencies to be valid (nothing is reported as
a number then); 4 when a traced run's layer means do not reconcile with
the end-to-end mean.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: name -> (unit, better, bound). Every workload reports every metric;
#: README.md defines each one per workload.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "lo.p50_ms": ("ms", "lower", 0.25),
    "capacity_rps": ("1/s", "higher", 0.25),
    "period_s": ("s", "lower", 0.25),
    "checkpoint_s": ("s", "lower", 0.25),
    "recover_s": ("s", "lower", 0.25),
    "rss_mb": ("MiB", "lower", 0.15),
}

ENDPOINTS = ("bids", "slots", "query", "ledger")
KINDS = ("SubmitBids", "ReviseBid", "RunQuery", "LedgerQuery", "AdvanceSlots")
QUERIES = ("members", "histogram", "top", "chain", "contributors")

#: name -> (unit, better, the end-to-end metric it should move, on which
#: workload). A layer a workload does not exercise reports 0 there.
PER_LAYER = {
    "client.late_p99_ms": ("ms", "lower", "validity of lo.p50_ms on bids, mixed"),
    "server.request_ms.bids": ("ms", "lower", "lo.p50_ms on bids, mixed"),
    "server.request_ms.slots": ("ms", "lower", "lo.p50_ms, capacity_rps on mixed"),
    "server.request_ms.query": ("ms", "lower", "lo.p50_ms, capacity_rps on mixed"),
    "server.request_ms.ledger": ("ms", "lower", "lo.p50_ms, capacity_rps on mixed"),
    "server.outside_ms": ("ms", "lower", "lo.p50_ms, capacity_rps on bids"),
    "server.commit_wait_ms": ("ms", "lower", "lo.p50_ms on bids"),
    "server.batch_size": ("count", "higher", "capacity_rps on bids"),
    "server.sheds": ("count", "lower", "failed (of attempted) on bids, mixed"),
    "envelopes.json_us": ("us", "lower", "capacity_rps on bids; no change on period"),
    "envelopes.decode_us": ("us", "lower", "capacity_rps on bids; no change on period"),
    "envelopes.encode_us": ("us", "lower", "capacity_rps on bids; no change on period"),
    "service.dispatch_ms.SubmitBids": ("ms", "lower", "lo.p50_ms on bids, period"),
    "service.dispatch_ms.ReviseBid": ("ms", "lower", "lo.p50_ms on mixed, period"),
    "service.dispatch_ms.RunQuery": ("ms", "lower", "lo.p50_ms, capacity_rps on mixed"),
    "service.dispatch_ms.LedgerQuery": ("ms", "lower", "lo.p50_ms, capacity_rps on mixed"),
    "service.dispatch_ms.AdvanceSlots": ("ms", "lower", "capacity_rps on mixed; period_s on period"),
    "wal.append_ms": ("ms", "lower", "lo.p50_ms, capacity_rps on bids"),
    "wal.fsync_ms": ("ms", "lower", "lo.p50_ms, capacity_rps on bids"),
    "wal.fsyncs_per_request": ("count", "lower", "lo.p50_ms, capacity_rps on bids"),
    "wal.bytes_per_request": ("B", "lower", "lo.p50_ms, capacity_rps on bids"),
    "wal.capture_s": ("s", "lower", "checkpoint_s on period"),
    "wal.write_s": ("s", "lower", "checkpoint_s on period"),
    "wal.checkpoint_bytes": ("B", "lower", "checkpoint_s on period"),
    "wal.read_s": ("s", "lower", "recover_s on bids, mixed"),
    "wal.load_s": ("s", "lower", "recover_s on period"),
    "wal.restore_s": ("s", "lower", "recover_s on period"),
    "wal.replay_s": ("s", "lower", "recover_s on bids, mixed"),
    "fleet.ingest_s": ("s", "lower", "period_s, capacity_rps on period"),
    "fleet.slot_ms": ("ms", "lower", "period_s on all"),
    "fleet.slot_p99_ms": ("ms", "lower", "capacity_rps on mixed; period_s on period"),
    "core.solves_per_slot": ("count", "lower", "period_s on period"),
    "core.solve_us": ("us", "lower", "period_s on period"),
    **{
        f"db.query_ms.{q}": ("ms", "lower", "lo.p50_ms, capacity_rps on mixed")
        for q in QUERIES
    },
    "db.units_per_query": ("count", "lower", "lo.p50_ms, capacity_rps on mixed"),
    "astro.load_s": ("s", "lower", "setup_s on mixed"),
    "advisor.advise_s": ("s", "lower", "setup_s on mixed"),
    "trace.overhead": ("ratio", "lower", "none: traced over untraced wall time, same seed"),
    "trace.unattributed": ("ratio", "lower", "none: reconciliation gap"),
}


class InvalidPhase(Exception):
    """The generator could not keep its schedule; latencies are void."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("bids", "mixed", "period"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rates", action="append", default=[],
        help="fixed offered loads in req/s, e.g. bids=150,400 (lo,hi)",
    )
    args = parser.parse_args(argv)
    rates = {}
    for item in args.rates:
        name, _, pair = item.partition("=")
        lo, _, hi = pair.partition(",")
        rates[name] = (float(lo), float(hi))
    args.lo, args.hi = rates.get(args.workload, (0.0, 0.0))
    if args.workload != "period" and not (0 < args.lo < args.hi):
        parser.error(f"--rates {args.workload}=LO,HI with 0 < LO < HI is required")
    return args


def source_digest() -> str:
    """What "the commit" is when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def end_to_end(workload: str, result) -> dict:
    """Every end-to-end metric, as this workload defines it (README.md)."""
    import loadgen

    median = statistics.median
    if workload == "period":
        reps = [r for r in result.reps if not r["traced"]]
        return {
            "setup_s": median(result.setup_s),
            "lo.p50_ms": median(r["light_p50_ms"] for r in reps),
            "capacity_rps": median(r["bulk"] / r["bulk_s"] for r in reps),
            "period_s": median(r["period_s"] for r in reps),
            "checkpoint_s": median(r["checkpoint_s"] for r in reps),
            "recover_s": median(r["recover_s"] for r in reps),
            "rss_mb": result.rss_mb,
        }
    phase = result.phases["lo"]
    if not phase["valid"]:
        raise InvalidPhase(
            f"phase lo: the generator ran late in {phase['windows'] - phase['valid_windows']} "
            f"of {phase['windows']} windows"
        )
    return {
        "setup_s": median(result.setup_s),
        "lo.p50_ms": loadgen.better_quartile(result.lo_p50_ms, "lower") * result.host_speed,
        "capacity_rps": loadgen.better_quartile(result.capacity_rps, "higher") / result.host_speed,
        "period_s": median(result.period_s),
        "checkpoint_s": median(result.checkpoint_s),
        "recover_s": median(result.recover_s),
        "rss_mb": result.rss_mb,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # A terminated run still reaps its server and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    import trace_report
    from spans import Tracer

    nproc = len(os.sched_getaffinity(0))
    args.connections = min(2, nproc)
    args.root = ROOT
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    args.tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(args.tmp, ignore_errors=True)
    args.tmp.mkdir(parents=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rates": [args.lo, args.hi],
        "connections": args.connections,
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": source_digest(),
    }
    print("# " + json.dumps(meta))
    if args.workload == "period":
        from period import run_period as run_workload
    else:
        from httpwork import run_http as run_workload
    tracer = Tracer("b") if args.trace else None
    reconciled = True
    started = time.perf_counter()
    try:
        # A traced HTTP run first runs the same seed untraced, for the
        # tracing overhead; ``period`` leaves its earlier repetitions
        # untraced instead.
        plain = run_workload(args, None) if args.trace and args.workload != "period" else None
        result = run_workload(args, tracer)
        if tracer is not None:
            tracer.uninstall()
        try:
            e2e = end_to_end(args.workload, plain or result)
        except InvalidPhase as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 3
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-s{args.seed}.jsonl"
            spans_path.unlink(missing_ok=True)
            ratio = trace_report.overhead(args.workload, plain, result)
            metrics, lines, reconciled = trace_report.per_layer(
                args, result, tracer, spans_path, ratio
            )
            units = PER_LAYER
        else:
            metrics, lines, units = e2e, [], END_TO_END
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
        if not any(args.tmp.parent.iterdir()):
            args.tmp.parent.rmdir()
    wall = time.perf_counter() - started

    attempted, failed = result.attempted, result.failed
    phases = getattr(plain or result, "phases", {})
    for line in lines:
        print(line)
    for name, phase in phases.items():
        tail = (f", p{100 * phase['tail_q']:.1f} {phase['tail_ms']:.4f} ms"
                if "tail_q" in phase and name != "cap" else "")
        late = f", generator late p99 {phase['late_p99_ms']:.3f} ms" if "late_p99_ms" in phase else ""
        p50 = f", p50 {phase['p50_ms']:.4f} ms" if "p50_ms" in phase else ""
        if "windows" in phase:
            late += f", {phase['valid_windows']} of {phase['windows']} windows valid"
        print(f"phase {name}: {phase['samples']} samples, {phase['failed']} failed"
              f"{p50}{tail}{late}")
    for name, value in e2e.items():
        print(f"{name:<16}{value:>14.4f} {END_TO_END[name][0]}")
    print(f"{'failed_frac':<16}{failed / max(attempted, 1):>14.4f} ({failed}/{attempted})")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    record = {**meta, "wall_s": wall, "end_to_end": e2e, "metrics": metrics,
              "attempted": attempted, "failed": failed, "problems": result.problems,
              "phases": phases, "raw": raw_timings(plain or result)}
    if getattr(result, "digest", ""):
        record["digest"] = result.digest
    suffix = "-trace" if args.trace else ""
    (out_dir / f"{args.workload}-s{args.seed}{suffix}.json").write_text(json.dumps(record, indent=1))
    correct = not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }))
    if not correct:
        return 1
    return 0 if reconciled else 4


def raw_timings(result) -> dict:
    """Every repetition's timing, scaled and as measured, for the run record."""
    names = ("setup_s", "lo_p50_ms", "capacity_rps", "ref_rps", "period_s", "checkpoint_s",
             "recover_s", "raw_s", "reps")
    return {name: getattr(result, name) for name in names if hasattr(result, name)}


if __name__ == "__main__":
    sys.exit(main())
