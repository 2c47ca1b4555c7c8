"""Generators for the synthetic benchmark instances.

Two families: a four-node single-OD network with one tolled (primary) route
and one free (secondary) route, and an r x c lattice whose primary one-way
couplets overlay a bidirectional secondary mesh.  Both use the default
stratum set (high/mid/low income) whose price sensitivities are 0.5 / 0.7 /
1.0 and whose outside-option time sensitivities keep the 1.2 / 1.1 / 1.0
ratios.

The logit time-sensitivity scale is a generator parameter.  Arc times are
hours, so a scale of 60 values cost gaps per minute, 120 per half minute.
The defaults keep every generated instance strictly inside the feasible
regime of the equilibrium fixed point (expected costs stay finite) with a
comfortable spectral margin, while leaving route mixing visible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .network import (Arc, InstanceError, Node, build_network, check_number,
                      default_capacity, read_section, PRIMARY, SECONDARY)
from .instance import Instance, Stratum, DemandEntry, OutsideOption, SolverOptions, assign_areas

STRATUM_PRICE_SENSITIVITY = {"high": 0.5, "mid": 0.7, "low": 1.0}
STRATUM_OUTSIDE_TIME_RATIO = {"high": 1.2, "mid": 1.1, "low": 1.0}


def default_strata(time_sensitivity: float) -> list[Stratum]:
    time_sensitivity = check_number("time_sensitivity", time_sensitivity, 0)
    return [
        Stratum(
            name=name,
            beta_t=time_sensitivity,
            beta_p=STRATUM_PRICE_SENSITIVITY[name],
            beta_t_out=STRATUM_OUTSIDE_TIME_RATIO[name] * time_sensitivity,
            beta_p_out=1.0,
        )
        for name in ("high", "mid", "low")
    ]


def gen_single_od(time_sensitivity: float = 60.0,
                  car_length_km: float = 0.005) -> Instance:
    """Four nodes, six arcs: a secondary pair 0<->1, a two-arc primary route
    0->2->1, and two secondary connector arcs 1->3 and 3->0 that close the
    cycle.  All three strata send 500 trips from node 0 to node 3; the
    outside option costs 1.2x the free-flow drive time plus a 300 ticket.

    Both primary arcs enter from nodes in the top-left (N) quadrant of the
    2x2 area split, so pricing that single area replicates uniform pricing
    on this network.
    """
    car = car_length_km
    nodes = [
        Node("0", 0.0, 0.0),
        Node("1", 4.0, 0.0),
        Node("2", 1.0, 2.0),
        Node("3", 2.0, -2.0),
    ]

    rows = [  # id, tail, head, length_km, free_speed_kmh, lanes, road_class
        ("s01", "0", "1", 3.0, 40.0, 1, SECONDARY),
        ("s10", "1", "0", 3.0, 40.0, 1, SECONDARY),
        ("p02", "0", "2", 5.0, 80.0, 3, PRIMARY),
        ("p21", "2", "1", 5.0, 80.0, 3, PRIMARY),
        ("s13", "1", "3", 3.0, 40.0, 1, SECONDARY),
        ("s30", "3", "0", 3.0, 40.0, 1, SECONDARY),
    ]
    capacity = default_capacity(*(np.array([row[k] for row in rows]) for k in (5, 3)), car)
    arcs = [Arc(*row, capacity=c) for row, c in zip(rows, capacity.tolist())]
    network = build_network(nodes, arcs)
    strata = default_strata(time_sensitivity)
    demand = [DemandEntry(stratum=s.name, origin="0", destination="3", trips=500.0)
              for s in strata]
    outside = OutsideOption(mode="free_time_multiplier", multiplier=1.2, ticket=300.0)
    return Instance(network=network, strata=strata, demand=demand, outside=outside,
                    car_length_km=car, solver=SolverOptions())


@dataclass(frozen=True)
class GridGenSpec:
    """Parameters of the lattice generator.

    A row or column line carries one-way primary arcs when its index is not
    a multiple of 3 and it is not the last line of its axis; consecutive
    primary lines alternate direction (index % 3 == 1 runs east/north,
    == 2 runs west/south).  Every other lattice edge carries a bidirectional
    secondary pair, which keeps the network strongly connected.  At 10x10
    this yields 252 arcs, 108 of them primary.
    """

    rows: int = 10
    cols: int = 10
    primary_length_km: float = 1.2
    primary_speed_kmh: float = 80.0
    primary_lanes: int = 3
    secondary_length_km: float = 0.6
    secondary_speed_kmh: float = 30.0
    min_od_distance_km: float = 5.0
    pairs_per_group: int = 10
    trips_per_pair: float = 10.0
    seed: int = 0
    ticket: float = 400.0
    outside_multiplier: float = 3.0
    time_sensitivity: float = 120.0
    car_length_km: float = 0.005

    def __post_init__(self):
        # the other fields are checked where they land: in arcs, demand,
        # strata and the outside option
        for key, low, integer in (("rows", 2, True), ("cols", 2, True),
                                  ("pairs_per_group", 1, True), ("seed", 0, True),
                                  ("min_od_distance_km", 0, False)):
            object.__setattr__(self, key, check_number(
                f"grid spec {key}", getattr(self, key), low, strict=False, integer=integer))

    @staticmethod
    def from_dict(d: dict) -> "GridGenSpec":
        unknown = set(read_section(d, "grid spec")) - {f.name for f in fields(GridGenSpec)}
        if unknown:
            raise InstanceError(f"unknown grid spec fields: {sorted(unknown)}")
        return GridGenSpec(**d)


def _primary_line(idx: int, count: int) -> bool:
    return idx % 3 != 0 and idx != count - 1


def gen_grid(spec: GridGenSpec = GridGenSpec()) -> Instance:
    """Lattice instance with seeded OD sampling.

    Demand: among node pairs at least ``min_od_distance_km`` apart by
    shortest path, grouped by 2x2 area-to-area pair, sample
    ``pairs_per_group`` pairs uniformly; every stratum gets the same pairs
    and ``trips_per_pair`` trips.  Groups with no qualifying pair are
    skipped with a warning; a lattice with none at all is an InstanceError.
    """
    R, C = spec.rows, spec.cols
    # one arc per road class, in a network of one node, checks the spec's
    # road fields (its capacity of 1 stands in until they give the real one);
    # every lattice arc of the class copies it, and the node spacing is the
    # secondary length
    car = check_number("car_length_km", spec.car_length_km, 0)
    roads = build_network([Node("", 0.0, 0.0)], [
        Arc(PRIMARY, "", "", spec.primary_length_km, spec.primary_speed_kmh, spec.primary_lanes,
            PRIMARY, capacity=1.0),
        Arc(SECONDARY, "", "", spec.secondary_length_km, spec.secondary_speed_kmh, capacity=1.0)])
    p, s = (replace(road, capacity=c) for road, c in zip(
        roads.arcs, default_capacity(roads.lanes, roads.length, car).tolist()))

    def nid(r: int, c: int) -> str:
        return str(r * C + c)

    def copy(road: Arc, tail: str, head: str) -> Arc:  # ids p<tail>_<head>, s<tail>_<head>
        return Arc(f"{road.id[0]}{tail}_{head}", tail, head, road.length_km,
                   road.free_speed_kmh, road.lanes, road.road_class, road.capacity)

    nodes = [Node(nid(r, c), c * s.length_km, r * s.length_km)
             for r in range(R) for c in range(C)]
    arcs = []
    for r in range(R):
        for c in range(C - 1):
            a, b = nid(r, c), nid(r, c + 1)
            if _primary_line(r, R):
                arcs.append(copy(p, a, b) if r % 3 == 1 else copy(p, b, a))
            else:
                arcs += [copy(s, a, b), copy(s, b, a)]
    for c in range(C):
        for r in range(R - 1):
            a, b = nid(r, c), nid(r + 1, c)
            if _primary_line(c, C):
                arcs.append(copy(p, a, b) if c % 3 == 1 else copy(p, b, a))
            else:
                arcs += [copy(s, a, b), copy(s, b, a)]

    network = build_network(nodes, arcs)
    demand = _sample_demand(network, spec)
    strata = default_strata(spec.time_sensitivity)
    outside = OutsideOption(mode="free_time_multiplier",
                            multiplier=spec.outside_multiplier, ticket=spec.ticket)
    return Instance(network=network, strata=strata, demand=demand, outside=outside,
                    car_length_km=car, solver=SolverOptions())


def _secondary_served(network) -> np.ndarray:
    """Nodes with secondary access in both directions; trips start and end
    on the local-street mesh, never on a highway segment."""
    sec = ~network.is_primary
    out_ok = np.zeros(network.n_nodes, dtype=bool)
    in_ok = np.zeros(network.n_nodes, dtype=bool)
    out_ok[network.tail[sec]] = True
    in_ok[network.head[sec]] = True
    return out_ok & in_ok


def _sample_demand(network, spec: GridGenSpec) -> list[DemandEntry]:
    areas = assign_areas(network, 2, 2)
    n = network.n_nodes
    adj = network.reversed_graph(network.length).T
    dist = dijkstra(adj)
    served = _secondary_served(network)

    groups: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for o in range(n):
        for d in range(n):
            if o == d or not (served[o] and served[d]):
                continue
            if dist[o, d] < spec.min_od_distance_km:
                continue
            key = (areas.area_of(network.node_id(o)), areas.area_of(network.node_id(d)))
            groups.setdefault(key, []).append((o, d))

    labels = areas.area_names
    rng = np.random.default_rng(spec.seed)
    chosen: list[tuple[int, int]] = []
    for ko in labels:
        for kd in labels:
            cand = sorted(groups.get((ko, kd), []))
            if not cand:
                warnings.warn(f"no OD pair qualifies for area group {ko}->{kd}; skipped")
                continue
            take = min(spec.pairs_per_group, len(cand))
            if take < spec.pairs_per_group:
                warnings.warn(
                    f"area group {ko}->{kd} has only {take} qualifying pairs "
                    f"(requested {spec.pairs_per_group})")
            picks = rng.choice(len(cand), size=take, replace=False)
            chosen.extend(cand[i] for i in sorted(picks))
    if not chosen:
        raise InstanceError(
            f"grid spec min_od_distance_km: no OD pair of the {spec.rows}x{spec.cols} "
            f"lattice is at least {spec.min_od_distance_km:g} km apart")

    names = ("high", "mid", "low")
    return [
        DemandEntry(stratum=s, origin=network.node_id(o),
                    destination=network.node_id(d), trips=spec.trips_per_pair)
        for s in names for (o, d) in chosen
    ]
