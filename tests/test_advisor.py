"""The advisor loop: workload mining, enumeration, pricing, adoption."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GameConfigError, QueryError
from repro.advisor import (
    AdvisorConfig,
    OptimizationAdvisor,
    QueryTemplate,
    WorkloadLog,
    enumerate_candidates,
)
from repro.db import (
    CandidateIndex,
    CandidateView,
    Catalog,
    CostModel,
    QueryEngine,
    Schema,
    Table,
)
from repro.db.planner import view_name_for


def make_catalog(rows: int = 300, halos: int = 6) -> Catalog:
    """Two snapshot-shaped tables with deterministic halo labels."""
    catalog = Catalog()
    rng = np.random.default_rng(9)
    for name in ("snap_01", "snap_02"):
        halo = rng.integers(-1, halos, size=rows)
        catalog.create_table(
            Table.from_columns(
                name,
                Schema.of(
                    pid="int", x="float", y="float", z="float", vx="float",
                    vy="float", vz="float", mass="float", halo="int",
                ),
                {
                    "pid": np.arange(rows),
                    "x": rng.normal(size=rows),
                    "y": rng.normal(size=rows),
                    "z": rng.normal(size=rows),
                    "vx": rng.normal(size=rows),
                    "vy": rng.normal(size=rows),
                    "vz": rng.normal(size=rows),
                    "mass": rng.uniform(1, 2, size=rows),
                    "halo": halo,
                },
            )
        )
    return catalog


def logged_engine(catalog) -> tuple[QueryEngine, WorkloadLog]:
    log = WorkloadLog()
    return QueryEngine(catalog, log=log), log


class TestWorkloadLog:
    def test_engine_records_normalized_templates(self):
        catalog = make_catalog()
        engine, log = logged_engine(catalog)
        with log.tenant("ada"):
            engine.halo_members("snap_02", 0)
            engine.halo_members("snap_02", 1)  # same template, new constant
            engine.progenitor_histogram("snap_01", {1, 2, 3})
        assert len(log) == 2, "constants must not split templates"
        members = [t for t in log.templates_of("snap_02") if t.kind == "members"]
        assert members[0].key_column == "halo"
        assert members[0].excluded == (("halo", -1),)
        usage = log.usage_of("ada", members[0])
        assert usage.passes == 2.0 and usage.probes == 2.0
        histogram = log.templates_of("snap_01")[0]
        assert log.usage_of("ada", histogram).probes == 3.0

    def test_tenant_attribution_and_defaults(self):
        catalog = make_catalog()
        engine, log = logged_engine(catalog)
        engine.halo_members("snap_01", 0)  # outside any tenant block
        with log.tenant("bea"):
            engine.halo_members("snap_01", 0)
        assert set(log.tenants) == {"tenant-0", "bea"}

    def test_validation(self):
        log = WorkloadLog()
        with pytest.raises(GameConfigError):
            log.record_query(kind="members", table_name="t", columns=())
        template = QueryTemplate("members", "t", ("a",))
        with pytest.raises(GameConfigError):
            log.record(template, passes=0.0)
        with pytest.raises(GameConfigError):
            log.record(template, probes=-1.0)


class TestEnumeration:
    def test_views_and_indexes_enumerated(self):
        catalog = make_catalog()
        engine, log = logged_engine(catalog)
        with log.tenant("ada"):
            engine.top_contributor("snap_02", 0, "snap_01")
        candidates = enumerate_candidates(catalog, log)
        names = {c.name for c in candidates.candidates}
        assert view_name_for("snap_02") in names
        assert "ix_snap_02_halo" in names
        assert "ix_snap_01_pid" in names
        view = candidates.by_name(view_name_for("snap_02"))
        assert isinstance(view, CandidateView)
        assert set(view.columns) == {"pid", "halo"}
        assert 0.0 < view.keep_fraction <= 1.0
        index = candidates.by_name("ix_snap_01_pid")
        assert isinstance(index, CandidateIndex)
        assert index.kind == "hash" and index.probes_per_run > 1.0

    def test_enumeration_registers_stats(self):
        catalog = make_catalog()
        engine, log = logged_engine(catalog)
        with log.tenant("ada"):
            engine.halo_members("snap_02", 0)
        assert catalog.stats("snap_02") is None
        enumerate_candidates(catalog, log)
        stats = catalog.stats("snap_02")
        assert stats is not None
        assert stats.column("halo").distinct > 0

    def test_range_templates_yield_sorted_candidates(self):
        catalog = make_catalog()
        log = WorkloadLog()
        log.record_query(
            kind="range",
            table_name="snap_01",
            columns=("pid", "mass"),
            key_column="mass",
        )
        candidates = enumerate_candidates(catalog, log)
        sorted_ix = candidates.by_name("ix_snap_01_mass_sorted")
        assert sorted_ix.kind == "sorted"

    def test_unknown_candidate_name_raises(self):
        catalog = make_catalog()
        candidates = enumerate_candidates(catalog, WorkloadLog())
        with pytest.raises(GameConfigError):
            candidates.by_name("nope")


class TestAdvisor:
    def advise(self, dollars_per_byte: float = 1e-6):
        catalog = make_catalog()
        engine, log = logged_engine(catalog)
        with log.tenant("ada"):
            engine.top_contributor("snap_02", 0, "snap_01")
        with log.tenant("bea"):
            engine.top_contributor("snap_02", 1, "snap_01")
        advisor = OptimizationAdvisor(
            catalog,
            config=AdvisorConfig(horizon=6, dollars_per_byte=dollars_per_byte),
        )
        return catalog, engine, advisor.advise(log)

    def test_funded_designs_are_adopted(self):
        catalog, engine, outcome = self.advise()
        assert outcome.adopted, "cheap storage must fund something"
        assert outcome.adopted == outcome.funded
        for name in outcome.adopted:
            candidate = outcome.candidates.by_name(name)
            if isinstance(candidate, CandidateIndex):
                lookup = (
                    catalog.sorted_index
                    if candidate.kind == "sorted"
                    else catalog.hash_index
                )
                assert lookup(candidate.table_name, candidate.column) is not None
            else:
                assert catalog.has_view(name)
        assert outcome.build_meter.build_bytes > 0, "adoption is metered work"

    def test_adopted_design_changes_plans(self):
        catalog, engine, outcome = self.advise()
        assert view_name_for("snap_02") in outcome.adopted
        result = engine.halo_members("snap_02", 0)
        assert result.source in ("view", "index")

    def test_expensive_storage_funds_nothing(self):
        catalog, engine, outcome = self.advise(dollars_per_byte=1e6)
        assert outcome.funded == ()
        assert outcome.adopted == ()
        assert catalog.view_names == []

    def test_empty_log_yields_empty_outcome(self):
        catalog = make_catalog()
        advisor = OptimizationAdvisor(catalog)
        outcome = advisor.advise(WorkloadLog())
        assert outcome.report is None
        assert outcome.adopted == ()

    def test_config_validation(self):
        with pytest.raises(GameConfigError):
            AdvisorConfig(horizon=0)
        with pytest.raises(GameConfigError):
            AdvisorConfig(runs_per_slot=0.0)


class TestCandidateIndexPricing:
    def test_index_quote_matches_per_candidate_methods(self):
        catalog = make_catalog()
        catalog.analyze_table("snap_01", ["pid", "halo"])
        from repro.db import SavingsEstimator

        estimator = SavingsEstimator(catalog, CostModel())
        candidate = CandidateIndex(
            "ix", "snap_01", "halo", kind="hash", probes_per_run=2.0
        )
        quotes = estimator.price_many([candidate])
        quote = quotes["ix"]
        assert quote.kind == "hash"
        assert quote.view_rows == estimator.index_rows(candidate)
        assert quote.view_bytes == estimator.index_bytes(candidate)
        assert quote.build_units == estimator.index_build_units(candidate)
        assert quote.saving_units_per_run == estimator.index_saving_units_per_run(
            candidate
        )

    def test_expected_matches_use_stats(self):
        catalog = make_catalog()
        from repro.db import SavingsEstimator

        estimator = SavingsEstimator(catalog, CostModel())
        candidate = CandidateIndex("ix", "snap_01", "halo")
        # Without stats: the conservative unique-key fallback.
        assert estimator.expected_matches_per_run(candidate) == 1.0
        stats = catalog.analyze_table("snap_01", ["halo"])
        expected = stats.estimated_rows_eq("halo")
        assert estimator.expected_matches_per_run(candidate) == pytest.approx(
            expected
        )

    def test_sorted_candidate_uses_range_selectivity(self):
        catalog = make_catalog()
        catalog.analyze_table("snap_01", ["mass"])
        from repro.db import SavingsEstimator

        estimator = SavingsEstimator(catalog, CostModel())
        full = CandidateIndex("ix_full", "snap_01", "mass", kind="sorted")
        stats = catalog.stats("snap_01")
        lo = stats.column("mass").minimum
        hi = stats.column("mass").maximum
        half = CandidateIndex(
            "ix_half", "snap_01", "mass", kind="sorted",
            low=lo, high=(lo + hi) / 2,
        )
        assert estimator.expected_matches_per_run(half) < (
            estimator.expected_matches_per_run(full)
        )

    def test_candidate_index_validation(self):
        with pytest.raises(GameConfigError):
            CandidateIndex("ix", "t", "c", kind="btree")
        with pytest.raises(GameConfigError):
            CandidateIndex("ix", "t", "c", probes_per_run=0.0)


class TestAnalyzeErrorHygiene:
    def test_unknown_column_raises_query_error_with_table_name(self):
        catalog = make_catalog()
        with pytest.raises(QueryError, match="snap_01"):
            catalog.analyze_table("snap_01", ["nope"])

    def test_no_bare_keyerror(self):
        from repro.db.stats import analyze

        table = Table("orders", Schema.of(total="float"))
        try:
            analyze(table, ["customer"])
        except QueryError as exc:
            assert "orders" in str(exc)
            assert "customer" in str(exc)
        else:
            pytest.fail("expected QueryError")


class TestAdvisorLoopDriver:
    def test_loop_cuts_cost_and_reports_series(self):
        from repro.experiments import AdvisorLoopConfig, run_advisor_loop

        loop = run_advisor_loop(
            AdvisorLoopConfig(particles=800, snapshots=2, horizon=4)
        )
        assert loop.outcome.adopted
        assert loop.cost_ratio > 1.0
        assert loop.result.names == [
            "baseline [units]", "advised [units]", "ratio [x]",
        ]
        baseline = loop.result.get("baseline [units]")
        advised = loop.result.get("advised [units]")
        assert all(b >= a for b, a in zip(baseline.y, advised.y))

    @staticmethod
    def _astronomy_loop(particles: int):
        from repro.experiments import AdvisorLoopConfig, run_advisor_loop

        return run_advisor_loop(
            AdvisorLoopConfig(
                particles=particles,
                halos=30,
                snapshots=4,
                min_halo_members=10,
                seed=2012,
            )
        )

    def test_loop_cuts_metered_cost_at_least_3x(self):
        # Metered units are simulated cost, not machine timing, so the
        # ratio is deterministic: 29.81x at 2,000 particles. The second
        # floor lets it fall by at most a fifth.
        loop = self._astronomy_loop(2_000)
        assert loop.outcome.adopted
        assert loop.cost_ratio >= 3.0
        assert loop.cost_ratio >= 23.85

    @pytest.mark.slow
    def test_loop_cuts_metered_cost_at_least_3x_at_40k_particles(self):
        loop = self._astronomy_loop(40_000)
        assert loop.outcome.adopted
        assert loop.cost_ratio >= 3.0

    def test_cli_advise_command(self, capsys):
        from repro.cli import main

        assert main(
            ["advise", "--particles", "800", "--snapshots", "2", "--slots", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "adopted:" in out
        assert "cheaper" in out

    def test_cli_list_mentions_advise(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "advise" in capsys.readouterr().out
