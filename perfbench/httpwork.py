"""The ``bids`` and ``mixed`` workloads: a served gateway, driven over HTTP.

One run: set the server up ``SETUP_REPS`` times (the last one is kept),
then drive ``ROUNDS`` rounds of four windows: a closed loop against the
reference server (:mod:`refserver`), an open loop at the ``lo`` rate,
one at the ``hi`` rate, and a closed loop of a fixed request count. Then
read sampled ledgers, SIGKILL the server, and ``RECOVER_REPS`` times
recover, checkpoint and finish the period in this process, each from
its own copy of the WAL (a traced run sets up and recovers once). Every
recovery must finish with the same report. The recovered state is
checked against what the live server answered before the kill.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time

import numpy as np

import checks
import hostspeed
import loadgen
import streams
from proc import ReferenceServer, ServerProcess, peak_rss_mb

__all__ = ["run_http", "PHASE_SHARES", "SETUP_REPS", "PARTICLES"]

#: Shares of ``--seconds`` given to the lo, hi and closed-loop phases.
PHASE_SHARES = (0.40, 0.45, 0.15)
#: Each phase is cut into this many windows, and the rounds run one
#: window of each phase in turn, so every phase spreads over the whole
#: load time. A slow phase of the host that lasts a few seconds then moves
#: only some of a phase's windows, and the phase's figure is the better
#: quartile over its windows (:func:`loadgen.better_quartile`).
ROUNDS = 8
#: Requests of each round's closed-loop window against the reference
#: server, and the rate the reference completes them at on the host the
#: benchmark was defined on (2-core Intel Xeon, CPython 3.11) when the
#: host is not busy. The run's median reference rate over ``REF_RPS`` is
#: the host's speed at serving; HTTP figures are scaled by it.
REF_REQUESTS = 100
REF_RPS = 600.0
#: Set-ups per run (the last one is measured); ``mixed`` loads a universe.
SETUP_REPS = {"bids": 5, "mixed": 2}
#: Recoveries from copies of the killed server's WAL, each checkpointed
#: (``mixed`` replays its queries, so each recovery costs seconds).
RECOVER_REPS = {"bids": 5, "mixed": 3}
#: Timed checkpoints of each recovered service.
CHECKPOINT_REPS = {"bids": 3, "mixed": 2}
#: Tenants whose ledgers are compared between live and recovered state.
LEDGER_SAMPLE = 40
#: Requests per second of closed-loop phase: the phase sends a fixed
#: number of requests (this many per second of its share of --seconds),
#: so every run of one seed ends in the same state.
CLOSED_LOOP_RATE = {"bids": 650, "mixed": 500}
BIDS_HORIZON = 24
#: The ``mixed`` server's universe: particles per snapshot, snapshots.
PARTICLES = 10_000
SNAPSHOTS = 4
#: The astronomy universe is the workload's data set, the same for every
#: seed; the seed varies the traffic over it.
UNIVERSE_SEED = 2012
WARMUP_QUERIES, WARMUP_BIDS = 100, 40


class Served:
    """What one HTTP run measured, for :mod:`run` to report."""

    def __init__(self) -> None:
        # In-process timings are scaled to the reference host speed (see
        # hostspeed); raw_s keeps them as measured.
        self.setup_s: list[float] = []
        self.phases: dict = {}
        self.scrapes: list[dict] = []  # before the first window and after each
        self.lo_scrapes: list[tuple] = []  # (before, after) each lo window
        # phase -> [(start, end)] perf_counter instants of its windows;
        # "recover" and "finish" -> (start, end) of one call
        self.windows: dict = {}
        self.samples: dict = {}
        self.lo_p50_ms: list[float] = []  # per lo window
        self.capacity_rps: list[float] = []  # per closed-loop window
        self.ref_rps: list[float] = []  # per reference window
        self.rss_mb = 0.0
        self.recover_s: list[float] = []
        self.checkpoint_s: list[float] = []
        self.checkpoint_bytes = 0
        self.checkpoints: list = []  # (start, end) of each timed checkpoint
        self.period_s: list[float] = []
        self.raw_s: dict = {name: [] for name in
                            ("setup_s", "recover_s", "checkpoint_s", "period_s")}
        self.wal_bytes = 0
        self.problems: list[str] = []
        self.stream = None
        self.spans_path = None  # the traced server's spans

    @property
    def host_speed(self) -> float:
        """The host's speed at serving: the median reference rate over
        ``REF_RPS`` (above 1 on a faster host)."""
        return statistics.median(self.ref_rps) / REF_RPS

    @property
    def attempted(self) -> int:
        return sum(len(self.samples[p]) for p in ("lo", "hi", "cap"))

    @property
    def failed(self) -> int:
        return sum(1 for p in ("lo", "hi", "cap") for s in self.samples[p] if not s.ok)


def _build_stream(workload, rng, counts):
    total = sum(counts)
    if workload == "bids":
        return streams.bids_stream(rng, total, BIDS_HORIZON), BIDS_HORIZON, None
    universe = streams.universe_facts(PARTICLES, SNAPSHOTS, UNIVERSE_SEED)
    horizon = streams.MixedStream.horizon_for(total)
    stream = streams.MixedStream(rng, universe, horizon)
    stream.warmup(WARMUP_QUERIES, WARMUP_BIDS)
    warm = len(stream)
    stream.extend(total)
    return stream, horizon, warm


def _requests(stream, lo, hi):
    return [
        (i, loadgen.http_request(stream.paths[i], stream.bodies[i], i))
        for i in range(lo, hi)
    ]


def _setup(cfg, stream, warm, costs, horizon, wal_dir, spans_path):
    """Spawn a server and bring it to the measured starting state."""
    from repro.gateway.envelopes import AdviseRequest, AdvanceSlots, Configure, to_dict

    args = []
    if cfg.workload == "mixed":
        args = ["--particles", str(PARTICLES), "--snapshots", str(SNAPSHOTS),
                "--seed", str(UNIVERSE_SEED)]
    server = ServerProcess(cfg.root, wal_dir, args, spans_path=spans_path)
    try:
        for envelope in (
            Configure(optimizations=tuple(costs.items()), horizon=horizon),
            AdvanceSlots(slots=1),
        ):
            reply = server.post("/v1/slots", to_dict(envelope))
            if reply.get("kind") == "ErrorReply":
                raise RuntimeError(f"set-up failed: {reply}")
        if warm:
            samples = loadgen.closed_loop(
                server.host, server.port, _requests(stream, 0, warm), cfg.connections
            )
            bad = [s for s in samples if not s.ok]
            if len(samples) != warm or bad:
                raise RuntimeError(f"warm-up failed: {len(bad)} error replies")
            reply = server.post("/v1/advise", to_dict(AdviseRequest()))
            if reply.get("kind") != "AdviseReply":
                raise RuntimeError(f"advice failed: {reply}")
    except BaseException:
        server.kill()
        raise
    return server


def run_http(cfg, tracer=None) -> Served:
    """Run ``bids`` or ``mixed`` end to end; see the module docstring."""
    from repro.gateway.envelopes import LedgerQuery, to_dict
    from repro.gateway.service import PricingService

    out = Served()
    rng = np.random.default_rng(cfg.seed)
    costs = streams.catalog(cfg.seed)
    lo_s, hi_s, cap_s = (share * cfg.seconds / ROUNDS for share in PHASE_SHARES)
    cap_count = max(1, int(CLOSED_LOOP_RATE[cfg.workload] * cap_s))
    plan = []  # (phase, due offsets or None for the closed loop, requests)
    for _ in range(ROUNDS):
        for name, rate, seconds in (("lo", cfg.lo, lo_s), ("hi", cfg.hi, hi_s)):
            due = loadgen.poisson_due_times(rng, rate, seconds)
            plan.append((name, due, len(due)))
        plan.append(("cap", None, cap_count))
    stream, horizon, warm = _build_stream(cfg.workload, rng, [count for *_, count in plan])
    out.stream, warm = stream, warm or 0

    # A traced run's untraced twin runs in the same scratch directory.
    tmp = cfg.tmp / ("traced" if tracer is not None else "untraced")
    tmp.mkdir()
    server = None
    # A traced run reports no set-up or recovery time: one of each will do.
    reps = 1 if cfg.trace else SETUP_REPS[cfg.workload]
    for rep in range(reps):
        wal_dir = tmp / f"wal-{rep}"
        last = rep == reps - 1
        spans_path = tmp / "server-spans.jsonl" if (tracer is not None and last) else None
        server, seconds, scaled = hostspeed.timed(
            _setup, cfg, stream, warm, costs, horizon, wal_dir, spans_path
        )
        out.setup_s.append(scaled)
        out.raw_s["setup_s"].append(seconds)
        if not last:
            server.kill()
    reference = None
    try:
        reference = ReferenceServer(cfg.root, tmp / "reference.jsonl")
        ref_requests = _requests(stream, warm, min(len(stream), warm + REF_REQUESTS))
        first = warm
        wal_file = wal_dir / "wal.jsonl"
        wal_before = wal_file.stat().st_size
        out.scrapes.append(server.scrape())
        for name in ("lo", "hi", "cap"):
            out.windows[name], out.samples[name] = [], []
        late = {"lo": [], "hi": []}
        valid = {"lo": [], "hi": []}  # per open-loop window
        for name, due, count in plan:
            if name == "lo":
                samples = loadgen.closed_loop(
                    reference.host, reference.port, ref_requests, cfg.connections
                )
                out.ref_rps.append(loadgen.completion_rate(samples))
            requests = _requests(stream, first, first + count)
            begin = time.perf_counter()
            if due is None:
                samples = loadgen.closed_loop(server.host, server.port, requests, cfg.connections)
                out.capacity_rps.append(loadgen.completion_rate(samples))
            else:
                samples, window_late = loadgen.open_loop(
                    server.host, server.port, requests, due, cfg.connections
                )
                late[name] += window_late
                window = loadgen.summarize(samples, window_late)
                if samples:  # a short window may see no arrival
                    valid[name].append(window["valid"])
                    if name == "lo" and window["valid"]:
                        out.lo_p50_ms.append(window["p50_ms"])
            out.windows[name].append((begin, time.perf_counter()))
            out.samples[name] += samples
            out.scrapes.append(server.scrape())
            if name == "lo":
                out.lo_scrapes.append((out.scrapes[-2], out.scrapes[-1]))
            first += count
        out.phases = {
            "lo": loadgen.summarize(out.samples["lo"], late["lo"]),
            "hi": loadgen.summarize(out.samples["hi"], late["hi"]),
            "cap": loadgen.summarize(out.samples["cap"]),
        }
        for name, flags in valid.items():
            # A window whose generator ran late is left out of the
            # phase's figure; the phase is void when half of them are.
            out.phases[name].update(
                windows=len(flags), valid_windows=sum(flags), valid=2 * sum(flags) > len(flags)
            )
        sent = first
        out.wal_bytes = wal_file.stat().st_size - wal_before

        # Live state, read before the kill: sampled ledgers + WAL position.
        tenants = [t for t, i in zip(stream.tenants, stream.tenant_index) if i < sent]
        picks = rng.choice(len(tenants), size=min(LEDGER_SAMPLE, len(tenants)), replace=False)
        sampled = [tenants[int(k)] for k in sorted(picks)]
        live = {}
        for tenant in sampled:
            reply = server.post("/v1/ledger", to_dict(LedgerQuery(tenant=tenant)))
            live[f"ledger:{tenant}"] = checks.ledger_view(reply)
            live["cloud_balance"] = reply.get("cloud_balance")
        live["wal_seq"] = server.health()["wal_seq"]
        out.rss_mb = peak_rss_mb(server.pid)
        if tracer is not None:
            server.dump_spans()
            out.spans_path = server.spans_path
    finally:
        server.kill()
        if reference is not None:
            reference.kill()

    if tracer is not None:
        import layers

        layers.install(tracer)

    def timed(name, call, *args):
        gc.collect()
        started = time.perf_counter()
        result, seconds, scaled = hostspeed.timed(call, *args)
        getattr(out, name).append(scaled)
        out.raw_s[name].append(seconds)
        return result, (started, time.perf_counter())

    for rep in range(1 if cfg.trace else RECOVER_REPS[cfg.workload]):
        # Each rep recovers its own copy: the service appends to its WAL.
        replica = tmp / f"recover-{rep}"
        shutil.copytree(wal_dir, replica)
        service, window = timed("recover_s", PricingService.recover, replica)
        out.windows.setdefault("recover", window)
        try:
            if rep == 0:
                recovered = {"wal_seq": service._wal.last_seq}
                for tenant in sampled:
                    reply = to_dict(service.dispatch(LedgerQuery(tenant=tenant)))
                    recovered[f"ledger:{tenant}"] = checks.ledger_view(reply)
                    recovered["cloud_balance"] = reply.get("cloud_balance")
                out.problems += checks.same_ledgers(live, recovered)
            for _ in range(CHECKPOINT_REPS[cfg.workload]):
                path, window = timed("checkpoint_s", service.checkpoint)
                out.checkpoints.append(window)
            out.checkpoint_bytes = path.stat().st_size
            report, window = timed("period_s", service.run_to_end)
            out.windows.setdefault("finish", window)
        finally:
            service.close()
        # Every recovery must finish the period with the same report.
        digest = checks.report_digest(report)
        if rep == 0:
            first = digest
            out.problems += checks.cost_recovery(report, costs)
            out.problems += checks.no_overcharge(report, stream.bid_totals)
        out.problems += checks.same_digest(f"finished recovery {rep}", first, digest)
    return out
