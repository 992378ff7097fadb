"""repro — a reproduction of "How to Price Shared Optimizations in the Cloud".

Upadhyaya, Balazinska, Suciu. PVLDB 5(6), 2012.

The package implements the paper's four cost-sharing mechanisms for shared
database optimizations (AddOff, AddOn, SubstOff, SubstOn, all built on the
Shapley Value Mechanism), the regret-amortization baseline it compares
against, the astronomy use-case substrate (universe simulator, halo finder,
merger-tree workload, mini relational engine with materialized views), the
fleet engine (:mod:`repro.fleet`) that batches hundreds of concurrent
pricing games into one slot-synchronized scheduler with workload-derived
bids, the closed optimization loop (:mod:`repro.advisor`) that mines
executed workloads into priceable view and index candidates and adopts
whatever the pricing games fund, the unified tenant gateway
(:mod:`repro.gateway`) that fronts all of it with one versioned,
JSON-round-trippable ``dispatch(request) -> reply`` surface
(:class:`~repro.gateway.PricingService`), and experiment drivers that
regenerate every figure in the paper's evaluation.

Quickstart
----------
>>> from repro import run_shapley
>>> result = run_shapley(cost=100.0, bids={"ann": 60.0, "bob": 55.0, "eve": 20.0})
>>> sorted(result.serviced), result.price
(['ann', 'bob'], 50.0)

`API.md` at the repository root documents the public surface with one
runnable snippet per entry.
"""

from repro import obs
from repro.bids import AdditiveBid, RevisableBid, SlotValues, SubstitutableBid
from repro.core import (
    AddOffOutcome,
    AddOnOutcome,
    ShapleyResult,
    SubstOffOutcome,
    SubstOnOutcome,
    accounting,
    run_addoff,
    run_addon,
    run_shapley,
    run_substoff,
    run_subston,
)
from repro.advisor import OptimizationAdvisor
from repro.db import Catalog, QueryEngine, SavingsEstimator
from repro.errors import (
    BidError,
    GameConfigError,
    MechanismError,
    ProtocolError,
    QueryError,
    ReproError,
    RevisionError,
    SchemaError,
)
from repro.fleet import FleetBatch, FleetEngine, FleetReport
from repro.gateway import API_VERSION, PricingService, TenantSession

__version__ = "1.7.0"

__all__ = [
    "__version__",
    # observability
    "obs",
    # bids
    "SlotValues",
    "AdditiveBid",
    "SubstitutableBid",
    "RevisableBid",
    # mechanisms
    "run_shapley",
    "run_addoff",
    "run_addon",
    "run_substoff",
    "run_subston",
    # outcomes
    "ShapleyResult",
    "AddOffOutcome",
    "AddOnOutcome",
    "SubstOffOutcome",
    "SubstOnOutcome",
    "accounting",
    # fleet
    "FleetBatch",
    "FleetEngine",
    "FleetReport",
    # gateway (the public service surface)
    "API_VERSION",
    "PricingService",
    "TenantSession",
    # relational substrate and the closed loop
    "Catalog",
    "QueryEngine",
    "SavingsEstimator",
    "OptimizationAdvisor",
    # errors
    "ReproError",
    "BidError",
    "RevisionError",
    "MechanismError",
    "GameConfigError",
    "SchemaError",
    "QueryError",
    "ProtocolError",
]
