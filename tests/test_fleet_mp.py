"""Structured intake errors of the fleet engine.

Ragged or misaligned :class:`~repro.fleet.FleetBatch` columns, bulk
intake after the first slot, and advancing past the horizon each raise
their own typed error. The ``executor`` fixture builds an in-process
:class:`~repro.fleet.engine.FleetEngine`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GameConfigError, MechanismError, ProtocolError
from repro.cloudsim import OptimizationCatalog
from repro.fleet import FleetBatch, FleetEngine
from repro.workloads.fleet import fleet_batches, fleet_game_costs


def make_catalog(games: int, seed: int = 2012) -> OptimizationCatalog:
    return OptimizationCatalog.from_costs(fleet_game_costs(seed, games, 30.0))


@pytest.fixture(params=["in-process"])
def executor(request):
    return FleetEngine(make_catalog(4), horizon=6, shards=2)


class TestIntakeErrors:
    def test_ragged_batch_values_are_protocol_errors(self):
        with pytest.raises(ProtocolError):
            FleetBatch(
                users=("a", "b"),
                opt_ranks=np.array([0, 1]),
                starts=np.array([1, 1]),
                values=[[1.0, 2.0], [3.0]],
            )

    def test_misaligned_batch_columns_are_config_errors(self):
        with pytest.raises(GameConfigError):
            FleetBatch(
                users=("a", "b", "c"),
                opt_ranks=np.array([0, 1]),
                starts=np.array([1, 1]),
                values=np.ones((2, 2)),
            )

    def test_ingest_after_first_slot_is_mechanism_error(self, executor):
        executor.advance_slot()
        batch = fleet_batches(3, 10, 4, 6, 2)[0]
        with pytest.raises(MechanismError):
            executor.ingest_many([batch])

    def test_advance_past_horizon_is_mechanism_error(self, executor):
        with pytest.raises(GameConfigError):
            executor.advance_slots(0)
        executor.advance_slots(executor.horizon)
        with pytest.raises(MechanismError):
            executor.advance_slot()
