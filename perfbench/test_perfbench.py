"""The benchmark's own tests.

Run from the repository root: ``python -m pytest perfbench -q``.

* A tiny-scale run of every workload, untraced and traced, emits every
  named metric with its unit and passes its correctness checks.
* Every correctness check trips on a deliberately corrupted input: a
  truncated copy of a WAL, a tampered ledger, an underfunded or
  overcharging report, a differing period digest.
* The reconciliation of a traced run fails when time passes outside
  every wrapped layer call.
* In-process timings scale with the host-speed reference loop; the HTTP
  figures leave out a minority of slow load windows.
* The command refuses to report anything without the program under test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import httpwork  # noqa: E402
import loadgen  # noqa: E402
import period  # noqa: E402
import run  # noqa: E402
import trace_report  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {
    "bids": ["--seconds", "1.5", "--rates", "bids=40,80"],
    "mixed": ["--seconds", "1.5", "--rates", "mixed=30,60"],
    "period": ["--seconds", "0.1"],
}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the data sets the benchmark otherwise fixes."""
    monkeypatch.setattr(period, "USERS", 400)
    monkeypatch.setattr(httpwork, "PARTICLES", 600)


def _bench(capsys, workload: str, trace: int, seed: int = 5):
    """Run the command in this process; returns its exit code, its
    stdout and its last line parsed."""
    code = run.main(["--workload", workload, "--seed", str(seed), "--trace", str(trace),
                     *TINY[workload]])
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["bids", "mixed", "period"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(tiny, capsys, workload, trace):
    code, out, result = _bench(capsys, workload, trace)
    assert code == 0, out[-3000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: spec[0] for name, spec in expected.items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    if workload != "period" and not trace:
        record = json.loads((ROOT / ".perfbench_out" / f"{workload}-s5.json").read_text())
        assert len(record["raw"]["capacity_rps"]) == httpwork.ROUNDS
    if trace:
        assert "reconciliation holds" in out
        assert result["metrics"]["trace.unattributed"]["value"] <= trace_report.RECONCILE_TOLERANCE
        assert result["metrics"]["trace.overhead"]["value"] > 0


def test_period_digest_is_identical_across_runs(tiny, capsys):
    digests = []
    for _ in range(2):
        assert _bench(capsys, "period", 0, seed=9)[0] == 0
        record = json.loads((ROOT / ".perfbench_out" / "period-s9.json").read_text())
        digests.append(record["digest"])
    assert digests[0] == digests[1] and len(digests[0]) == 64


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: layer[:2] for name, layer in run.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == ["bids", "mixed", "period"]


def test_refuses_to_report_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    for workload in ("bids", "period"):
        command = [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", "5", "--trace", "0", *TINY[workload]]
        done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout


# ------------------------------------------------------- reconciliation --


def test_reconciliation_fails_on_an_unwrapped_delay():
    class Layer:
        def work(self):
            time.sleep(0.02)

    def period_tree(unwrapped_s):
        tracer = Tracer("t")
        tracer.wrap(Layer, "work", "toy.work")
        try:
            start = time.perf_counter()
            for _ in range(3):
                Layer().work()
                time.sleep(unwrapped_s)
            end = time.perf_counter()
        finally:
            tracer.uninstall()
        root = {"id": "p", "name": "period", "start": start, "end": end, "parent": None, "rid": None}
        spans = [dict(s, parent="p") for s in tracer.spans]
        return trace_report.reconcile([root, *spans], [root], end - start)[0]

    assert period_tree(0.0) <= trace_report.RECONCILE_TOLERANCE
    assert period_tree(0.01) > trace_report.RECONCILE_TOLERANCE


def test_a_request_is_unmeasured_where_no_span_covers_it():
    sample = loadgen.Sample(rid=1, due=0.0, sent=0.001, first=0.009, done=0.010, status=200, body=b"")
    roots, client = trace_report._client_spans([sample])
    read = {"id": "s1", "name": "server.read", "start": -1.0, "end": 0.002, "parent": "n1", "rid": 1}
    handle = {"id": "s2", "name": "server.request", "start": 0.002, "end": 0.008, "parent": "n1", "rid": 1}
    # wait 1 + read 1 (clipped at the send) + request 6 + client read 1 of 10 ms
    gap, _ = trace_report.reconcile(client + [read, handle], roots, 0.010)
    assert gap == pytest.approx(0.1)
    gap, _ = trace_report.reconcile(client + [read, dict(handle, end=0.009)], roots, 0.010)
    assert gap == pytest.approx(0.0, abs=1e-9)


def test_traced_run_exits_4_when_layers_do_not_reconcile(tiny, capsys, monkeypatch):
    monkeypatch.setattr(trace_report, "RECONCILE_TOLERANCE", -1.0)
    code, out, _ = _bench(capsys, "period", 1)
    assert code == 4 and "reconciliation FAILED" in out


# ----------------------------------------------------- corrupted inputs --


def _durable_service(directory):
    from repro.gateway import AdvanceSlots, Configure, PricingService, SubmitBids

    service = PricingService()
    service.attach_wal(directory)
    service.dispatch(Configure(optimizations=(("g0", 0.5), ("g1", 0.8)), horizon=6))
    service.dispatch(AdvanceSlots(slots=1))
    for i in range(6):
        service.dispatch(SubmitBids(tenant=f"t{i}", bids=((f"g{i % 2}", 2, (0.4, 0.4)),)))
    service.dispatch(AdvanceSlots(slots=3))
    return service


def _ledgers(service, tenants):
    from repro.gateway import LedgerQuery, to_dict

    state = {}
    for tenant in tenants:
        reply = to_dict(service.dispatch(LedgerQuery(tenant=tenant)))
        state[f"ledger:{tenant}"] = checks.ledger_view(reply)
        state["cloud_balance"] = reply["cloud_balance"]
    return state


def _recovered_state(directory, tenants):
    """As the benchmark reads it: WAL position first, then the ledgers."""
    from repro.gateway import PricingService

    service = PricingService.recover(directory)
    seq = service._wal.last_seq
    state = {**_ledgers(service, tenants), "wal_seq": seq}
    service.close()
    return state


def test_recovery_check_trips_on_a_truncated_wal_copy(tmp_path):
    service = _durable_service(tmp_path / "live")
    tenants = ["t0", "t3"]
    live = _ledgers(service, tenants)
    live["wal_seq"] = service._wal.last_seq  # read after the ledgers, as live
    service.close()
    tampered = tmp_path / "tampered"
    shutil.copytree(tmp_path / "live", tampered)
    assert checks.same_ledgers(live, _recovered_state(tmp_path / "live", tenants)) == []

    wal = tampered / "wal.jsonl"
    lines = wal.read_text().splitlines(keepends=True)
    wal.write_text("".join(lines[:-3]))  # lose the last advance and the reads
    assert checks.same_ledgers(live, _recovered_state(tampered, tenants))


def test_recovery_check_trips_on_a_tampered_ledger():
    live = {"ledger:t0": {"tenant": "t0", "invoices": [[4, 0.25, "x"]], "total": 0.25,
                          "cloud_balance": 1.0}, "wal_seq": 9}
    tampered = json.loads(json.dumps(live))
    tampered["ledger:t0"]["invoices"][0][1] = 0.2
    assert checks.same_ledgers(live, live) == []
    assert checks.same_ledgers(live, tampered)


def test_cost_recovery_trips_on_an_underfunded_game():
    report = SimpleNamespace(implemented={"g0": 2}, revenue_of=lambda j: 0.49)
    assert checks.cost_recovery(report, {"g0": 0.49}) == []
    assert checks.cost_recovery(report, {"g0": 0.5})


def test_no_overcharge_trips_on_a_charge_above_the_bid():
    report = SimpleNamespace(payments={"t0": 0.8, "t1": 0.1})
    assert checks.no_overcharge(report, {"t0": 0.8, "t1": 0.3}) == []
    assert checks.no_overcharge(report, {"t0": 0.79, "t1": 0.3})
    assert checks.no_overcharge(report, {"t1": 0.3})  # unknown tenant paid


def test_digest_check_trips_on_a_different_report(tmp_path):
    from repro.gateway import SubmitBids

    a = _durable_service(tmp_path / "a")
    b = _durable_service(tmp_path / "b")
    assert checks.same_digest("x", checks.report_digest(a.report()), checks.report_digest(b.report())) == []
    b.dispatch(SubmitBids(tenant="late", bids=(("g1", 5, (0.3,)),)))
    assert checks.same_digest("x", checks.report_digest(a.report()), checks.report_digest(b.report()))
    a.close()
    b.close()


def test_live_checks_pass_on_a_real_period(tmp_path):
    service = _durable_service(tmp_path / "p")
    report = service.run_to_end()
    assert report.implemented
    assert checks.cost_recovery(report, {"g0": 0.5, "g1": 0.8}) == []
    assert checks.no_overcharge(report, {f"t{i}": 0.8 for i in range(6)}) == []
    service.close()


def test_run_exits_nonzero_when_a_check_fails(tiny, monkeypatch, capsys):
    monkeypatch.setattr(checks, "cost_recovery", lambda report, costs: ["cost recovery: forced"])
    code, _, result = _bench(capsys, "period", 0, seed=3)
    assert code == 1 and result["correct"] is False


# ------------------------------------------------------ load generator --


def test_timings_scale_with_the_reference_loop(monkeypatch):
    monkeypatch.setattr(hostspeed, "loop_s", lambda: 2 * hostspeed.REF_LOOP_S)
    result, seconds, scaled = hostspeed.timed(lambda x: x + 1, 1)
    assert result == 2 and scaled == pytest.approx(seconds / 2)


def test_arrivals_come_from_the_seed():
    import numpy as np

    a = loadgen.poisson_due_times(np.random.default_rng(4), 200.0, 2.0)
    b = loadgen.poisson_due_times(np.random.default_rng(4), 200.0, 2.0)
    c = loadgen.poisson_due_times(np.random.default_rng(5), 200.0, 2.0)
    assert a == b and a != c
    assert 300 < len(a) < 500 and all(x < y for x, y in zip(a, a[1:]))


def test_tail_percentile_keeps_ten_samples_beyond_it():
    values = list(range(1, 201))
    q, tail = loadgen.tail_percentile(values)
    assert q == pytest.approx(0.95) and tail == 190
    assert sum(v > tail for v in values) == 10
    q, _ = loadgen.tail_percentile(list(range(5000)))
    assert q == 0.99


def test_window_figures_leave_out_a_minority_of_slow_windows():
    fast, slow = [5.0, 5.1, 5.2, 5.3, 5.4], [12.0, 13.0, 30.0]
    assert loadgen.better_quartile(fast + slow, "lower") < 5.3
    rates = [400.0, 410.0, 420.0, 190.0, 200.0, 150.0]
    assert loadgen.better_quartile(rates, "higher") >= 400.0
    assert loadgen.better_quartile([7.0], "lower") == 7.0


def test_a_run_with_half_its_lo_windows_late_reports_no_number():
    late = SimpleNamespace(phases={"lo": {"valid": False, "windows": 8, "valid_windows": 4}})
    with pytest.raises(run.InvalidPhase, match="4 of 8 windows"):
        run.end_to_end("bids", late)
