"""Markovian traffic equilibria for multi-strata road networks with tolls,
an outside (transit) option, and congestion-pricing evaluation."""

from .network import (
    Arc,
    InstanceError,
    Network,
    NetworkError,
    Node,
    build_network,
    default_capacity,
    extract_core,
    shortest_costs,
    strongly_connected,
)
from .instance import (
    AreaAssignment,
    DemandEntry,
    Instance,
    OutsideOption,
    Stratum,
    assign_areas,
    instance_to_document,
    load_instance,
    outside_costs,
    save_instance,
)
from .equilibrium import (
    EquilibriumSolution,
    FeasibilityError,
    SolverError,
    SolverOptions,
    StratumDestinationSolution,
    equilibrium_residuals,
    flows_for_destination,
    solve_equilibria,
    solve_equilibrium,
    solve_tau,
)
from .pricing import (
    PriceGrid,
    SchemeSpec,
    area_of_arc,
    enumerate_grid,
    expand_scheme,
    stratum_price_order,
    zero_prices,
)
from .metrics import (
    MetricsReport,
    SimulationReport,
    TripStats,
    all_trip_stats,
    compute_metrics,
    primary_flow_share,
    revenue,
    simulate_trips,
)
from .experiments import (
    ResultRow,
    ScalarizedObjective,
    SweepConfig,
    best_scalarized,
    load_results,
    pareto_frontier,
    persist_results,
    run_sweep,
    value_of,
)
from .synthgen import GridGenSpec, gen_grid, gen_single_od

__version__ = "0.1.0"
