"""The ``period`` workload: one long, durable pricing period in-process.

50,000 tenants from ``fleet_arrival_trace`` arrive as one batched
``dispatch`` before slot 1; then every slot of the horizon is advanced,
each after a few online arrivals and a revision, dispatched together as
one group commit (one WAL record and fsync), as the gateway batches
concurrent requests.
A checkpoint is taken at the end, the service is closed, and
``PricingService.recover`` restores it. The sequence repeats once per
``REP_SECONDS`` of ``--seconds`` on a fresh service and a fresh data
set (catalog, population and online traffic drawn from the seed and the
repetition's number), so one run's figures are medians over several
inputs. A non-durable service replays the first repetition's envelopes:
its report digest must equal the durable run's, as must the recovered
service's. A traced run has at least three repetitions, all on one data
set, and traces only the last, so the others give the untraced times
it is compared with; their digests must agree.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

import checks
import hostspeed
import streams
from proc import peak_rss_mb

__all__ = ["run_period", "USERS", "HORIZON"]

#: Tenants of the bulk dispatch before slot 1.
USERS = 50_000
HORIZON = 96
ONLINE_PER_SLOT = 8  # online SubmitBids before each advance
SETUP_REPS = 15
#: One repetition of the whole sequence per this many seconds of --seconds.
REP_SECONDS = 5


class Period:
    """What one ``period`` run measured, for :mod:`run` to report."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []  # scaled (see hostspeed)
        self.raw_s: dict = {"setup_s": []}  # as measured
        self.reps: list[dict] = []  # one per repetition; see _repetition
        self.attempted = 0
        self.failed = 0
        self.wal_bytes = 0
        self.checkpoint_bytes = 0
        self.checkpoints: list = []  # (start, end) of the traced checkpoint
        self.problems: list[str] = []
        self.digest = ""  # of the first repetition's report
        self.digests: dict = {}  # data set seed -> report digest
        self.windows: dict = {}  # of the traced repetition
        self.bodies: list[bytes] = []
        self.rss_mb = 0.0


def _online(rng, slot: int, count: int, horizon: int, taken: list):
    """This slot's online arrivals plus one revision of an earlier one."""
    from repro.gateway.envelopes import ReviseBid, SubmitBids

    requests = []
    for k in range(count):
        tenant = f"online-{slot}-{k}"
        start = slot + 1 + int(rng.integers(0, 3))
        duration = max(1, min(int(rng.integers(1, 5)), horizon - start + 1))
        if start > horizon:
            break
        values = (float(rng.random()) / duration,) * duration
        optimization = f"game-{int(rng.integers(streams.GAMES))}"
        requests.append(SubmitBids(tenant=tenant, bids=((optimization, start, values),), revisable=True))
        taken.append((tenant, optimization, start + duration - 1, values[-1]))
    for index in range(len(taken) - count - 1, -1, -1):
        tenant, optimization, end, value = taken[index]
        if end >= slot + 2:
            requests.append(ReviseBid(tenant=tenant, optimization=optimization,
                                      new_values=((end, value + 0.25),)))
            taken.pop(index)
            break
    return requests


def _envelopes(seed: int, users: int):
    """The whole seeded stream: bulk population, then per-slot traffic."""
    from repro.gateway.envelopes import AdvanceSlots, ReviseBid, SubmitBids

    bulk, totals = streams.period_population(seed, users, HORIZON)
    rng = np.random.default_rng(seed + 1)
    taken: list = []
    slots = []
    for slot in range(HORIZON):
        online = _online(rng, slot, ONLINE_PER_SLOT, HORIZON, taken)
        for request in online:
            if isinstance(request, SubmitBids):
                totals[request.tenant] = sum(request.bids[0][2])
            elif isinstance(request, ReviseBid):
                totals[request.tenant] += 0.25
        slots.append((online, AdvanceSlots(slots=1)))
    return bulk, slots, totals


def _drive(service, bulk, slots, light_ms=None, probes=None):
    """Dispatch the stream; returns (period seconds, bulk seconds,
    failures, window). ``(slot index, latency)`` of each slot's online
    dispatch goes to ``light_ms``. With ``probes``,
    the reference loop of :mod:`hostspeed` runs before the bulk dispatch,
    before every slot and after the last; its times go to ``probes`` and
    are left out of the period."""
    from repro.gateway.envelopes import ErrorReply

    def probe():
        if probes is not None:
            probes.append(hostspeed.loop_s())

    failed = 0
    probe()
    started = time.perf_counter()
    acks = service.dispatch(bulk)
    if len(acks) and isinstance(acks[0], ErrorReply):
        failed += len(bulk)
    bulk_done = time.perf_counter()
    for k, (online, advance) in enumerate(slots):
        probe()
        if online:
            t = time.perf_counter()
            replies = service.dispatch(online)
            if light_ms is not None:
                light_ms.append((k, (time.perf_counter() - t) * 1e3))
            failed += sum(isinstance(reply, ErrorReply) for reply in replies)
        reply = service.dispatch(advance)
        failed += isinstance(reply, ErrorReply)
    ended = time.perf_counter()
    probing = sum(probes[1:]) if probes else 0.0
    probe()
    return ended - started - probing, bulk_done - started, failed, (started, ended)


def _service(wal_dir, costs):
    from repro.gateway.envelopes import Configure
    from repro.gateway.service import PricingService

    service = PricingService()
    service.attach_wal(wal_dir)
    service.dispatch(Configure(optimizations=tuple(costs.items()), horizon=HORIZON))
    return service


def _setup(out, wal_dir, costs):
    """A durable, configured service; its set-up time goes to ``out``."""
    service, seconds, scaled = hostspeed.timed(_service, wal_dir, costs)
    out.setup_s.append(scaled)
    out.raw_s["setup_s"].append(seconds)
    return service


def _dataset(seed: int):
    """Catalog costs, bulk population, per-slot traffic, bid totals."""
    return (streams.catalog(seed), *_envelopes(seed, USERS))


def run_period(cfg, tracer=None) -> Period:
    from repro.gateway.envelopes import to_dict

    out = Period()
    reps = max(1, round(cfg.seconds / REP_SECONDS))
    if tracer is not None:
        reps = max(reps, 3)
    data_seeds = [cfg.seed * 100 + (0 if tracer is not None else rep) for rep in range(reps)]
    data = _dataset(data_seeds[0])
    costs, bulk, slots, _ = data
    out.bodies = [
        json.dumps(to_dict(r)).encode()
        for r in bulk[:2000] + [r for online, adv in slots for r in (*online, adv)]
    ]
    del bulk, slots
    spare = []
    for rep in range(SETUP_REPS):
        spare.append(_setup(out, cfg.tmp / f"setup-{rep}", costs))
    service = spare.pop()
    for idle in spare:
        idle.close()
    del spare, idle
    wal_dir = cfg.tmp / f"setup-{SETUP_REPS - 1}"
    for rep, data_seed in enumerate(data_seeds):
        if rep:
            if data_seed != data_seeds[rep - 1]:
                del data
                data = _dataset(data_seed)
            wal_dir = cfg.tmp / f"rep-{rep}"
            service = _service(wal_dir, data[0])
        traced = tracer is not None and rep == reps - 1
        if traced:
            import layers

            layers.install(tracer)
        _repetition(out, service, wal_dir, data, data_seed,
                    check_replica=rep == 0, traced=traced)
        del service
    out.rss_mb = peak_rss_mb()
    return out


def _repetition(out, service, wal_dir, data, data_seed, check_replica, traced):
    """Drive one period, checkpoint, close, recover; check the outcome."""
    from repro.gateway.envelopes import Configure
    from repro.gateway.service import PricingService

    costs, bulk, slots, totals = data
    wal_file = wal_dir / "wal.jsonl"
    before = wal_file.stat().st_size
    light_ms = []
    probes = None if traced else []  # a traced period is compared as measured
    gc.collect()
    period_raw_s, bulk_s, failed, window = _drive(service, bulk, slots, light_ms, probes)

    def speed(i):
        """Host-speed scale between reference loops ``i`` and ``i + 1``."""
        return 2 * hostspeed.REF_LOOP_S / (probes[i] + probes[i + 1]) if probes else 1.0

    period_s = period_raw_s * (hostspeed.REF_LOOP_S / statistics.mean(probes) if probes else 1.0)
    # The bulk dispatch and each slot scale with the loops on either side.
    scaled_ms = [ms * speed(k + 1) for k, ms in light_ms]
    out.wal_bytes = wal_file.stat().st_size - before
    out.attempted += len(bulk) + sum(len(o) + 1 for o, _ in slots)
    out.failed += failed
    report = service.report()
    digest = checks.report_digest(report)
    out.problems += checks.cost_recovery(report, costs)
    out.problems += checks.no_overcharge(report, totals)
    del report

    gc.collect()
    started = time.perf_counter()
    path, checkpoint_raw_s, checkpoint_s = hostspeed.timed(service.checkpoint)
    checkpoint_window = (started, time.perf_counter())
    out.checkpoint_bytes = path.stat().st_size
    service.close()
    gc.collect()
    started = time.perf_counter()
    recovered, recover_raw_s, recover_s = hostspeed.timed(PricingService.recover, wal_dir)
    if traced:
        out.windows = {"period": window, "recover": (started, time.perf_counter())}
        out.checkpoints.append(checkpoint_window)
    out.problems += checks.same_digest("recovered period", digest, checks.report_digest(recovered.report()))
    recovered.close()
    if data_seed in out.digests:
        out.problems += checks.same_digest("period repetition", out.digests[data_seed], digest)
    out.digests[data_seed] = digest
    out.digest = out.digest or digest
    if check_replica:
        # An independent, non-durable run of the same stream.
        replica = PricingService()
        replica.dispatch(Configure(optimizations=tuple(costs.items()), horizon=HORIZON))
        _drive(replica, bulk, slots)
        out.problems += checks.same_digest("replica period", digest, checks.report_digest(replica.report()))
        replica.close()
    out.reps.append({  # scaled to the reference host speed; raw_* as measured
        "traced": traced,
        "period_s": period_s,
        "bulk_s": bulk_s * speed(0),
        "bulk": len(bulk),
        "checkpoint_s": checkpoint_s,
        "recover_s": recover_s,
        "light_p50_ms": statistics.median(scaled_ms),
        "raw_period_s": period_raw_s,
        "raw_checkpoint_s": checkpoint_raw_s,
        "raw_recover_s": recover_raw_s,
    })
