import base64
import math

import numpy as np
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
from mteq import instance_to_document
from mteq.choice import logit_nodes
from mteq.synthgen import gen_single_od


def flat_arc(aid, tail, head, hours, road_class="secondary", length=None):
    """Arc with constant travel time (gamma = 0); length defaults to the
    time value so expected costs can be read straight off the fixture."""
    length = hours if length is None else length
    speed = length / hours
    return Arc(id=aid, tail=tail, head=head, length_km=length,
               free_speed_kmh=speed, road_class=road_class,
               capacity=1.0, bpr_gamma=0.0)


def logit(z, beta):
    """(phi, probs, log_denom) of the alternatives ``z`` at sensitivity
    ``beta`` from choice.logit_nodes, as one row of one segment."""
    z = np.asarray(z, dtype=float)
    phi, probs, log_denom = logit_nodes(z, beta, np.array([0, z.size]))
    return float(phi[0]), probs, float(log_denom[0])


def logit_stacked(draws, chunk=100):
    """(phi, probs, log_denom) of each draw (z, beta) from choice.logit_nodes
    on multi-segment rows with a (k, 1) beta: a chunk of draws is one row of
    segments, the i-th draw's z the i-th segment, repeated once per draw at
    that draw's beta, so the i-th draw's answer is segment i of row i."""
    for lo in range(0, len(draws), chunk):
        part = draws[lo:lo + chunk]
        out_start = np.cumsum([0] + [len(z) for z, _beta in part])
        z = np.tile(np.concatenate([z for z, _beta in part]), (len(part), 1))
        phi, probs, log_denom = logit_nodes(z, np.array([[beta] for _z, beta in part]),
                                            out_start)
        for i in range(len(part)):
            yield (float(phi[i, i]), probs[i, out_start[i]:out_start[i + 1]],
                   float(log_denom[i, i]))


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
                    solver=SolverOptions(outer_tol=1e-8, outer_max_iters=3000))


@pytest.fixture
def two_route():
    return two_route_instance()


def table_rows(inst) -> dict:
    """{(stratum, origin, destination): (trips, outside time, ticket,
    outside cost)} of every row of the instance's DemandTable, the outside
    cost as the routing plan prices it (_RoutingPlan.outside)."""
    from mteq.equilibrium import _RoutingPlan
    t, ids = inst.demand_table, inst.network.node_ids
    plan = _RoutingPlan(inst, np.zeros((1, len(inst.strata), inst.network.n_arcs)))
    pair = np.repeat(np.arange(len(t.destination)), np.diff(t.bounds))
    keys = [(inst.strata[t.stratum[p]].name, ids[o], ids[t.destination[p]])
            for p, o in zip(pair, t.origin)]
    return dict(zip(keys, zip(*(c.tolist() for c in (t.trips, t.outside_time, t.ticket,
                                                     plan.outside)))))


def outside_costs(inst) -> dict:
    """{(stratum, origin, destination): outside cost} (table_rows)."""
    return {key: row[3] for key, row in table_rows(inst).items()}


def outside_times(inst) -> dict:
    """{(origin, destination): outside time} of the demanded OD pairs (table_rows)."""
    return {(o, d): row[1] for (_s, o, d), row in table_rows(inst).items()}


def singular_pair_instance():
    """Nodes 0, 1 and 2: four flat arcs each way between 0 and 1 at ln 4
    hours, one each way between 0-2 and 1-2 at 0.25 hours; one stratum,
    every beta 1, 5 trips from 0 to 2.  The weights exp(-cost) toward 2
    give 0 <-> 1 a cycle of weight exactly 1, so I - W_2 is exactly
    singular, scaled by the shortest-cost bound or not: no equilibrium."""
    nodes = [Node(i, float(i), 0.0) for i in "012"]
    arcs = [flat_arc(f"{a}{t}{h}", t, h, math.log(4.0))
            for a in "abcd" for t, h in (("0", "1"), ("1", "0"))]
    arcs += [flat_arc(f"{t}{h}", t, h, 0.25)
             for t, h in (("0", "2"), ("2", "0"), ("1", "2"), ("2", "1"))]
    s = Stratum(name="s", beta_t=1.0, beta_p=1.0, beta_t_out=1.0, beta_p_out=1.0)
    return Instance(network=build_network(nodes, arcs), strata=[s],
                    demand=[DemandEntry("s", "0", "2", 5.0)],
                    outside=OutsideOption(mode="per_od_table", ticket=0.0,
                                          times={("0", "2"): 5.0}))


def dead_end_instance(mode="per_od_table"):
    """Nodes 0, 1 and 2: flat arcs 0 <-> 1, 0 -> 2 and 1 -> 2 of an hour,
    so the destination 2 has no outgoing arc; one stratum, every beta 1,
    demand 0 -> 2 and 1 -> 2, the outside option in ``mode``."""
    nodes = [Node(i, float(i), 0.0) for i in "012"]
    arcs = [flat_arc(t + h, t, h, 1.0) for t, h in ("01", "10", "02", "12")]
    s = Stratum(name="s", beta_t=1.0, beta_p=1.0, beta_t_out=1.0, beta_p_out=1.0)
    times = {("0", "2"): 5.0, ("1", "2"): 5.0} if mode == "per_od_table" else None
    return Instance(network=build_network(nodes, arcs), strata=[s],
                    demand=[DemandEntry("s", "0", "2", 5.0), DemandEntry("s", "1", "2", 3.0)],
                    outside=OutsideOption(mode=mode, ticket=0.0, times=times))


def record_factorizations(monkeypatch) -> list:
    """The shape of every matrix the routing kernel (chain._StackLU)
    factors from now on, for the solver or for trip statistics, with
    whether its factorization raised."""
    import mteq.chain
    factored, real = [], mteq.chain.splu

    def splu(A, *args, **kwargs):
        try:
            lu = real(A, *args, **kwargs)
        except RuntimeError:
            factored.append((A.shape, "singular"))
            raise
        factored.append((A.shape, "ok"))
        return lu

    monkeypatch.setattr(mteq.chain, "splu", splu)
    return factored


@pytest.fixture
def tight_options():
    return SolverOptions(outer_tol=1e-6, outer_max_iters=5000)


#: the per-pair arrays that a solution file stores packed
PACKED = ("tau", "entering_flow", "arc_probs")


def pack(values) -> str:
    """An array as a solution file packs it: the base64 of its
    little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def unpack(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8").copy()


def single_od_document():
    return instance_to_document(gen_single_od())


def per_od_outside_document():
    """single_od_document with per-OD outside times and fares."""
    doc = single_od_document()
    ods = sorted({(e["origin"], e["destination"]) for e in doc["demand"]})
    doc["outside_option"] = {
        "mode": "per_od_table",
        "times": [{"origin": o, "destination": d, "time": 2.0} for o, d in ods],
        "ticket": [{"origin": o, "destination": d, "ticket": 0.5} for o, d in ods],
    }
    return doc


def default_bpr_document():
    """single_od_document whose arcs take bpr_gamma and bpr_nu from defaults."""
    doc = single_od_document()
    for arc in doc["arcs"]:
        del arc["bpr_gamma"], arc["bpr_nu"]
    doc["defaults"].update(bpr_gamma=0.02, bpr_nu=2.0)
    return doc


#: Every numeric field of an instance document: (document, path to the
#: field, the name its error message gives, which of the values "zero",
#: "negative", "missing" and "null" are valid for it).  An arc's bpr_gamma
#: and bpr_nu come from defaults when missing, its capacity from lanes,
#: length and car length when missing or null.
INSTANCE_FIELDS = [
    (single_od_document, ("nodes", 0, "x"), "node 0: x", {"zero", "negative"}),
    (single_od_document, ("nodes", 1, "y"), "node 1: y", {"zero", "negative"}),
    *[(single_od_document, ("arcs", 0, key), f"arc s01: {key}", valid) for key, valid in (
        ("length_km", set()), ("free_speed_kmh", set()), ("lanes", {"missing"}),
        ("capacity", {"missing", "null"}), ("bpr_gamma", {"zero", "missing"}),
        ("bpr_nu", {"missing"}))],
    *[(single_od_document, ("strata", 1, key), f"stratum 'mid': {key}", valid)
      for key, valid in (("beta_t", set()), ("beta_t_out", set()), ("beta_p", {"zero"}),
                         ("beta_p_out", {"zero"}))],
    (single_od_document, ("demand", 0, "trips"), "demand (high, 0 -> 3): trips", set()),
    (single_od_document, ("outside_option", "multiplier"), "outside_option.multiplier",
     {"missing"}),
    (single_od_document, ("outside_option", "ticket"), "outside_option.ticket",
     {"zero", "missing"}),
    (per_od_outside_document, ("outside_option", "ticket", 0, "ticket"),
     "outside_option.ticket[(0, 3)]", {"zero"}),
    (per_od_outside_document, ("outside_option", "times", 0, "time"),
     "outside_option.times[(0, 3)]", {"zero"}),
    (single_od_document, ("defaults", "car_length_km"), "defaults.car_length_km", {"missing"}),
    (default_bpr_document, ("defaults", "bpr_gamma"), "arc s01: bpr_gamma",
     {"zero", "missing"}),
    (default_bpr_document, ("defaults", "bpr_nu"), "arc s01: bpr_nu", {"missing"}),
    *[(single_od_document, ("solver", key), f"solver.{key}", {"missing"})
      for key in ("outer_tol", "outer_max_iters")],
]


def set_field(doc: dict, path: tuple, value) -> dict:
    """``doc`` with the field at ``path`` set to ``value``, or deleted when
    ``value`` is "missing".  An element of a packed array is set in its
    decoded values, which are packed again."""
    *parents, key = path
    section = doc
    for step in parents:
        if type(section[step]) is str:  # a packed array; key indexes its values
            values = unpack(section[step])
            values[key] = value
            section[step] = pack(values)
            return doc
        section = section[step]
    if value == "missing":
        del section[key]
    else:
        section[key] = value
    return doc
