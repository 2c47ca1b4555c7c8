import pytest

from mteq import (
    Arc,
    DemandEntry,
    Instance,
    Node,
    OutsideOption,
    SolverOptions,
    Stratum,
    build_network,
)
from mteq.equilibrium import solution_to_dict


def flat_arc(aid, tail, head, hours, road_class="secondary", length=None):
    """Arc with constant travel time (gamma = 0); length defaults to the
    time value so expected costs can be read straight off the fixture."""
    length = hours if length is None else length
    speed = length / hours
    return Arc(id=aid, tail=tail, head=head, length_km=length,
               free_speed_kmh=speed, road_class=road_class,
               capacity=1.0, bpr_gamma=0.0)


@pytest.fixture
def line_network():
    """0 -> 1 -> 2 with times 3 and 4 plus a closing arc 2 -> 0."""
    nodes = [Node("0", 0, 0), Node("1", 1, 0), Node("2", 2, 0)]
    arcs = [flat_arc("a01", "0", "1", 3.0),
            flat_arc("a12", "1", "2", 4.0),
            flat_arc("a20", "2", "0", 100.0)]
    return build_network(nodes, arcs)


@pytest.fixture
def parallel_network():
    """Two equal-cost parallel arcs 0 -> 1 plus a closing arc."""
    nodes = [Node("0", 0, 0), Node("1", 1, 0)]
    arcs = [flat_arc("top", "0", "1", 5.0),
            flat_arc("bot", "0", "1", 5.0),
            flat_arc("back", "1", "0", 50.0)]
    return build_network(nodes, arcs)


def two_route_instance(beta_t=1.0, outside_time=4.0, ticket=1.0, trips=10.0,
                       congestible=True):
    """Primary/secondary route pair 0 -> 1 with an attractive outside option.

    The primary arc is faster but tolled when priced; churn between the two
    and the outside option is visible at unit sensitivities.
    """
    nodes = [Node("0", 0.0, 0.0), Node("1", 1.0, 0.0)]
    gamma = 0.15 if congestible else 0.0
    arcs = [
        Arc(id="prim", tail="0", head="1", length_km=2.0, free_speed_kmh=1.0,
            lanes=2, road_class="primary", capacity=8.0, bpr_gamma=gamma),
        Arc(id="sec", tail="0", head="1", length_km=3.0, free_speed_kmh=1.0,
            lanes=1, road_class="secondary", capacity=5.0, bpr_gamma=gamma),
        Arc(id="back", tail="1", head="0", length_km=3.0, free_speed_kmh=1.0,
            lanes=1, road_class="secondary", capacity=5.0, bpr_gamma=0.0),
    ]
    net = build_network(nodes, arcs)
    strata = [Stratum(name="solo", beta_t=beta_t, beta_p=1.0,
                      beta_t_out=beta_t, beta_p_out=1.0)]
    demand = [DemandEntry(stratum="solo", origin="0", destination="1", trips=trips)]
    outside = OutsideOption(mode="per_od_table", ticket=ticket,
                            times={("0", "1"): outside_time})
    return Instance(network=net, strata=strata, demand=demand, outside=outside,
                    solver=SolverOptions(inner_tol=1e-10, outer_tol=1e-8, outer_max_iters=3000))


@pytest.fixture
def two_route():
    return two_route_instance()


@pytest.fixture
def tight_options():
    return SolverOptions(inner_tol=1e-8, outer_tol=1e-6, outer_max_iters=5000)


def schema_1_document(solution, network) -> dict:
    """The solution in the schema-1 form: the schema-2 document with the
    three fields schema 2 drops as redundant, and without the ``strata``
    list, which schema 1 did not have."""
    doc = solution_to_dict(solution, network)
    del doc["strata"]
    doc["schema_version"] = 1
    doc["arc_time"] = solution.arc_time.tolist()
    doc["stratum_flow"] = {k: v.tolist() for k, v in solution.stratum_flow.items()}
    for key, entry in doc["sub"].items():
        entry["arc_flow"] = solution.sub[tuple(key.split("|", 1))].arc_flow.tolist()
    return doc
