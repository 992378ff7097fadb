"""Per-layer metrics of a traced run, its self-time table and reconciliation.

Inputs: the benchmark process's spans (recovery, checkpoint, the period
loop), the traced server's spans (``bids``/``mixed``), client spans made
from the load generator's own timestamps, and the server's ``/v1/metrics``
scrapes taken between load windows. Every layer a workload does not exercise
reports 0 (no calls, no time).

The reconciliation adds up the self time of every measured layer and
compares it with the end-to-end mean. Time no span measures is left
out of that sum: the root's own time and the part of the client's
send-to-reply interval that neither the server's spans nor the client's
reply read cover (loopback transfer, event-loop wake-ups).
"""

from __future__ import annotations

import json
import statistics

import layers
from spans import Tracer, self_time_table, self_times

__all__ = ["per_layer"]

#: Layer self-time means must add up to the end-to-end mean within this
#: share of it. On ``bids`` about 4% of a request's time is unmeasured.
RECONCILE_TOLERANCE = 0.10
#: Span names whose self time no layer call measures.
UNMEASURED = ("request", "client.send", "period")
#: Wire bodies replayed through the codec for the envelopes layer.
CODEC_BODIES = 5000


def _load(path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _inside(span, windows) -> bool:
    return any(lo <= span["start"] and span["end"] <= hi for lo, hi in windows)


def _named(spans, name, windows=None):
    return [
        s for s in spans
        if s["name"] == name and (windows is None or _inside(s, windows))
    ]


def _mean(spans, scale) -> float:
    return scale * sum(s["end"] - s["start"] for s in spans) / len(spans) if spans else 0.0


def _total(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _p99(spans, scale) -> float:
    if not spans:
        return 0.0
    import loadgen

    return scale * loadgen.tail_percentile([s["end"] - s["start"] for s in spans])[1]


def _delta(before: dict, after: dict, prefix: str) -> float:
    keys = {k for k in (*before, *after) if k.startswith(prefix)}
    return sum(after.get(k, 0.0) - before.get(k, 0.0) for k in keys)


def _lo_delta(pairs, prefix: str) -> float:
    """:func:`_delta` summed over the ``(before, after)`` scrapes of every
    ``lo`` window."""
    return sum(_delta(before, after, prefix) for before, after in pairs)


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def _codec(bodies) -> dict:
    """Envelope-layer means, in µs per envelope, of a traced replay."""
    bodies = bodies[:CODEC_BODIES]
    tracer = Tracer("r")
    layers.CodecReplay(tracer).run(bodies)
    return {
        name: _ratio(_total(_named(tracer.spans, f"envelopes.{name}")), len(bodies), 1e6)
        for name in ("json", "decode", "encode")
    }


def _span_of(window) -> float:
    return window[1] - window[0]


def overhead(workload, plain, traced) -> float:
    """Traced over untraced wall time of the same work on the same seed:
    the closed-loop windows (a fixed request count) on ``bids``/``mixed``,
    bulk dispatch to last slot on ``period``."""
    if workload == "period":
        untraced = [r["raw_period_s"] for r in traced.reps if not r["traced"]]
        return traced.reps[-1]["raw_period_s"] / statistics.median(untraced)
    return (sum(map(_span_of, traced.windows["cap"]))
            / sum(map(_span_of, plain.windows["cap"])))


def _client_spans(samples) -> tuple[list, list]:
    roots, spans = [], []
    for s in samples:
        root = {"id": f"c{s.rid}", "name": "request", "start": s.due, "end": s.done,
                "parent": None, "rid": s.rid}
        roots.append(root)
        spans += [
            root,
            {"id": f"w{s.rid}", "name": "client.wait", "start": s.due, "end": s.sent,
             "parent": root["id"], "rid": s.rid},
            {"id": f"n{s.rid}", "name": "client.send", "start": s.sent, "end": s.done,
             "parent": root["id"], "rid": s.rid},
            {"id": f"r{s.rid}", "name": "client.read", "start": s.first, "end": s.done,
             "parent": f"n{s.rid}", "rid": s.rid},
        ]
    return roots, spans


def reconcile(spans, roots, e2e_mean_s, extra=None) -> tuple[float, list[str]]:
    """``(gap, printable lines)``: how far the measured layers' mean self
    times fall from the end-to-end mean, as a share of it."""
    totals = self_times(spans, roots, extra)
    n = len(roots)
    unmeasured = sum(totals[name][1] for name in UNMEASURED if name in totals) / n
    layer_sum = sum(sec for name, (_, sec) in totals.items() if name not in UNMEASURED) / n
    gap = abs(e2e_mean_s - layer_sum) / e2e_mean_s if e2e_mean_s else 0.0
    lines = [f"self time per {roots[0]['name']} ({n} of them):"]
    lines += self_time_table(totals, n)
    lines.append(
        f"  measured layer means add to {layer_sum * 1e3:.4f} ms; end-to-end mean "
        f"{e2e_mean_s * 1e3:.4f} ms; gap {gap:.2%} (tolerance "
        f"{RECONCILE_TOLERANCE:.0%}); unmeasured ({', '.join(UNMEASURED)}) "
        f"{unmeasured * 1e3:.4f} ms"
    )
    return gap, lines


def per_layer(args, result, tracer, spans_path, overhead_ratio):
    """Returns ``(metrics, printable lines, reconciled)``; also writes
    every span."""
    from run import PER_LAYER

    metrics = {name: 0.0 for name in PER_LAYER}
    local = tracer.spans
    lines: list[str] = []
    if args.workload == "period":
        window = [result.windows["period"]]
        served = [s for s in local if _inside(s, window)]
        slots_src = served
        envelopes = result.attempted // len(result.reps)
        metrics["fleet.ingest_s"] = _total(_named(served, "fleet.ingest"))
        metrics["wal.fsyncs_per_request"] = _ratio(len(_named(served, "wal.fsync")), envelopes)
        metrics["wal.bytes_per_request"] = _ratio(result.wal_bytes, envelopes)
        lo, hi = window[0]
        root = {"id": "period", "name": "period", "start": lo, "end": hi, "parent": None, "rid": None}
        tops = [dict(s, parent="period") for s in served if s["parent"] is None]
        nested = [s for s in served if s["parent"] is not None]
        gap, rec = reconcile([root, *tops, *nested], [root], hi - lo)
        all_spans = local
        bodies = result.bodies
    else:
        remote = _load(result.spans_path)
        windows = [w for p in ("lo", "hi", "cap") for w in result.windows[p]]
        served = [s for s in remote if _inside(s, windows)]
        finish = [s for s in local if _inside(s, [result.windows["finish"]])]
        slots_src = served + finish
        sc, lo = result.scrapes, result.lo_scrapes
        req = "repro_server_request_seconds_"
        lo_count = _lo_delta(lo, req + "count{")
        server_mean = _ratio(_lo_delta(lo, req + "sum{"), lo_count, 1e3)
        for e in ("bids", "slots", "query", "ledger"):
            label = f'{{endpoint="/v1/{e}"}}'
            metrics[f"server.request_ms.{e}"] = _ratio(
                _lo_delta(lo, req + "sum" + label), _lo_delta(lo, req + "count" + label), 1e3,
            )
        lo_phase = result.phases["lo"]
        metrics["client.late_p99_ms"] = lo_phase["late_p99_ms"]
        metrics["server.outside_ms"] = lo_phase["service_mean_ms"] - server_mean
        shared = _lo_delta(lo, "repro_wal_append_seconds_sum") + _lo_delta(
            lo, "repro_dispatch_seconds_sum{"
        )
        metrics["server.commit_wait_ms"] = server_mean - _ratio(shared, lo_count, 1e3)
        metrics["server.batch_size"] = _ratio(
            _delta(sc[0], sc[-1], "repro_server_batch_size_sum"),
            _delta(sc[0], sc[-1], "repro_server_batch_size_count"),
        )
        metrics["server.sheds"] = _delta(sc[0], sc[-1], "repro_server_sheds_total")
        requests = _delta(sc[0], sc[-1], req + "count{")
        metrics["wal.fsyncs_per_request"] = _ratio(
            _delta(sc[0], sc[-1], "repro_wal_fsync_seconds_count"), requests
        )
        metrics["wal.bytes_per_request"] = _ratio(result.wal_bytes, requests)
        queries = [s for s in served if s["name"].startswith("db.query:")]
        for q in ("members", "histogram", "top", "chain", "contributors"):
            metrics[f"db.query_ms.{q}"] = _mean(_named(served, f"db.query:{q}"), 1e3)
        metrics["db.units_per_query"] = _ratio(sum(s.get("units", 0) for s in queries), len(queries))
        metrics["astro.load_s"] = _total(_named(remote, "astro.load"))
        metrics["advisor.advise_s"] = _total(_named(remote, "advisor.advise"))
        lo_samples = [s for s in result.samples["lo"] if s.ok]
        roots, client = _client_spans(lo_samples)
        rids = {s.rid for s in lo_samples}
        flushes = [s for s in remote if s["name"] == "server.flush"]
        by_rid: dict = {}
        for flush in flushes:
            for rid in flush.get("rids", ()):
                by_rid.setdefault(rid, []).append(flush)
        extra = {
            s["id"]: [f for f in by_rid.get(s["rid"], ()) if s["start"] <= f["start"] <= s["end"]]
            for s in remote
            if s["name"] == "server.admit" and s["rid"] in rids
        }
        gap, rec = reconcile(client + remote, roots, lo_phase["mean_ms"] / 1e3, extra)
        all_spans = client + remote + local
        bodies = result.stream.bodies
    for kind in ("SubmitBids", "ReviseBid", "RunQuery", "LedgerQuery", "AdvanceSlots"):
        metrics[f"service.dispatch_ms.{kind}"] = _mean(_named(served, f"service.dispatch:{kind}"), 1e3)
    metrics["wal.append_ms"] = _mean(_named(served, "wal.append"), 1e3)
    metrics["wal.fsync_ms"] = _mean(_named(served, "wal.fsync"), 1e3)
    slots = _named(slots_src, "fleet.slot")
    metrics["fleet.slot_ms"] = _mean(slots, 1e3)
    metrics["fleet.slot_p99_ms"] = _p99(slots, 1e3)
    solves = _named(slots_src, "core.solve")
    metrics["core.solves_per_slot"] = _ratio(len(solves), len(slots))
    metrics["core.solve_us"] = _mean(solves, 1e6)
    timed = result.checkpoints  # the timed checkpoint() calls
    for name in ("capture", "write"):
        metrics[f"wal.{name}_s"] = _total(_named(local, f"wal.{name}", timed)) / len(timed)
    metrics["wal.checkpoint_bytes"] = result.checkpoint_bytes
    recover = [result.windows["recover"]]
    for name in ("read", "load", "restore", "replay"):
        metrics[f"wal.{name}_s"] = _total(_named(local, f"wal.{name}", recover))
    for name, value in _codec(bodies).items():
        metrics[f"envelopes.{name}_us"] = value
    metrics["trace.overhead"] = overhead_ratio
    metrics["trace.unattributed"] = gap
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in all_spans:
            handle.write(json.dumps(span) + "\n")
    reconciled = gap <= RECONCILE_TOLERANCE
    lines += rec
    lines.append(
        "reconciliation " + ("holds" if reconciled else "FAILED")
        + f"; spans written to {spans_path}"
    )
    lines.append(f"tracing overhead: traced/untraced wall time {overhead_ratio:.3f}")
    return metrics, lines, reconciled
