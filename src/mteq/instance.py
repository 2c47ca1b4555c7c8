"""Problem instances: strata, OD demand, the outside (transit) option, solver
defaults, and the geographic area partition used by area pricing.

An instance is a single JSON document with sections ``nodes``, ``arcs``,
``strata``, ``demand``, ``outside_option``, ``solver`` and ``defaults``.
The network section may instead point at a CSV pair via ``network_csv``.
Loading validates every invariant and materializes derived quantities
(capacities, free times, outside-option travel times).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from .network import (
    Arc,
    Node,
    Network,
    NetworkError,
    build_network,
    default_capacity,
    shortest_costs,
    DEFAULT_BPR_GAMMA,
    DEFAULT_BPR_NU,
    DEFAULT_CAR_LENGTH_KM,
)
from .equilibrium import SolverOptions

MODE_MULTIPLIER = "free_time_multiplier"
MODE_TABLE = "per_od_table"


class InstanceError(ValueError):
    """Invalid instance document; the message names the offending field."""


@dataclass(frozen=True)
class Stratum:
    name: str
    beta_t: float
    beta_p: float
    beta_t_out: float
    beta_p_out: float

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("beta_t", "beta_t_out"):
            if not getattr(self, name) > 0:
                raise InstanceError(f"stratum {self.name!r}: {name} must be > 0")
        for name in ("beta_p", "beta_p_out"):
            if not getattr(self, name) >= 0:
                raise InstanceError(f"stratum {self.name!r}: {name} must be >= 0")

    @property
    def wtp(self) -> float:
        """Willingness to pay: time units given up per money unit."""
        return self.beta_t / self.beta_p if self.beta_p > 0 else float("inf")


@dataclass(frozen=True)
class DemandEntry:
    stratum: str
    origin: str
    destination: str
    trips: float

    def __post_init__(self):
        if self.origin == self.destination:
            raise InstanceError(
                f"demand ({self.stratum}, {self.origin} -> {self.destination}): "
                "origin equals destination")
        if not self.trips > 0:
            raise InstanceError(
                f"demand ({self.stratum}, {self.origin} -> {self.destination}): trips must be > 0")


@dataclass(frozen=True)
class OutsideOption:
    """Transit alternative evaluated at trip start.

    In ``free_time_multiplier`` mode the outside travel time of an OD pair is
    ``multiplier`` times its zero-flow shortest drive time.  In
    ``per_od_table`` mode the times come from an explicit table.  The ticket
    is either one global fare or a per-OD table.
    """

    mode: str = MODE_MULTIPLIER
    multiplier: float = 3.0
    ticket: float | dict[tuple[str, str], float] = 0.0
    times: dict[tuple[str, str], float] | None = None

    def __post_init__(self):
        if self.mode not in (MODE_MULTIPLIER, MODE_TABLE):
            raise InstanceError(f"outside_option.mode: unknown mode {self.mode!r}")
        if self.mode == MODE_MULTIPLIER and not self.multiplier > 0:
            raise InstanceError("outside_option.multiplier must be > 0")
        if self.mode == MODE_TABLE and self.times is None:
            raise InstanceError("outside_option.times required in per_od_table mode")
        fares = self.ticket.values() if isinstance(self.ticket, dict) else [self.ticket]
        if not all(v >= 0 for v in fares):
            raise InstanceError("outside_option.ticket must be nonnegative")

    def ticket_for(self, origin: str, destination: str) -> float:
        if isinstance(self.ticket, dict):
            try:
                return self.ticket[(origin, destination)]
            except KeyError:
                raise InstanceError(
                    f"outside_option.ticket: no fare for OD ({origin}, {destination})")
        return self.ticket


@dataclass
class Instance:
    network: Network
    strata: list[Stratum]
    demand: list[DemandEntry]
    outside: OutsideOption
    car_length_km: float = DEFAULT_CAR_LENGTH_KM
    solver: SolverOptions = field(default_factory=SolverOptions)
    #: materialized outside travel time per demanded OD pair (node ids)
    outside_time: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        names = [s.name for s in self.strata]
        if len(set(names)) != len(names):
            raise InstanceError("strata: duplicate names")
        by_name = {s.name: s for s in self.strata}
        seen = set()
        for k, e in enumerate(self.demand):
            if e.stratum not in by_name:
                raise InstanceError(f"demand[{k}].stratum: unknown stratum {e.stratum!r}")
            for fld in ("origin", "destination"):
                if getattr(e, fld) not in self.network.node_index:
                    raise InstanceError(
                        f"demand[{k}].{fld}: unknown node {getattr(e, fld)!r}")
            key = (e.stratum, e.origin, e.destination)
            if key in seen:
                raise InstanceError(f"demand[{k}]: duplicate entry for {key}")
            seen.add(key)
        if not self.car_length_km > 0:
            raise InstanceError("defaults.car_length_km must be > 0")
        if not self.outside_time:
            self.outside_time = materialize_outside_times(self)

    @property
    def stratum_names(self) -> list[str]:
        return [s.name for s in self.strata]

    def stratum(self, name: str) -> Stratum:
        for s in self.strata:
            if s.name == name:
                return s
        raise KeyError(name)

    def demand_by_destination(self, stratum: str) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per destination index: (origin indices, trips), positive demand only."""
        idx = self.network.node_index
        out: dict[int, tuple[list, list]] = {}
        for e in self.demand:
            if e.stratum != stratum:
                continue
            out.setdefault(idx[e.destination], ([], []))
            out[idx[e.destination]][0].append(idx[e.origin])
            out[idx[e.destination]][1].append(e.trips)
        return {
            d: (np.array(o, dtype=np.int64), np.array(g, dtype=float))
            for d, (o, g) in sorted(out.items())
        }

    def od_pairs(self, stratum: str) -> list[tuple[str, str]]:
        """The positive-demand OD set of one stratum, in document order."""
        return [(e.origin, e.destination) for e in self.demand if e.stratum == stratum]


def materialize_outside_times(instance: Instance) -> dict[tuple[str, str], float]:
    """Outside travel time for every demanded OD pair.

    Multiplier mode scales the zero-flow shortest drive time; one Dijkstra
    call over the distinct destinations covers all origins.
    """
    net = instance.network
    ods = sorted({(e.origin, e.destination) for e in instance.demand})
    if instance.outside.mode == MODE_TABLE:
        times = {}
        for o, d in ods:
            try:
                times[(o, d)] = instance.outside.times[(o, d)]
            except KeyError:
                raise InstanceError(f"outside_option.times: missing OD ({o}, {d})")
            if not times[(o, d)] >= 0:
                raise InstanceError(f"outside_option.times[({o}, {d})] must be >= 0")
        return times
    dests = sorted({d for _, d in ods})
    index = np.array([net.node_index[d] for d in dests], dtype=np.int64)
    dist = shortest_costs(net, net.free_time, index)
    row = {d: i for i, d in enumerate(dests)}
    return {(o, d): instance.outside.multiplier * float(dist[row[d], net.node_index[o]])
            for o, d in ods}


def outside_costs(instance: Instance) -> dict[tuple[str, str, str], float]:
    """Generalized outside-option cost per (stratum, origin, destination):
    travel time plus the fare weighted by the stratum's outside price/time
    sensitivity ratio."""
    out = {}
    for s in instance.strata:
        ratio = s.beta_p_out / s.beta_t_out
        for o, d in instance.od_pairs(s.name):
            t_out = instance.outside_time[(o, d)]
            out[(s.name, o, d)] = t_out + ratio * instance.outside.ticket_for(o, d)
    return out


# ---------------------------------------------------------------------------
# Area partition

@dataclass(frozen=True)
class AreaAssignment:
    """Total node -> area-label map from an equal rows x cols grid over the
    coordinate bounding box."""

    rows: int
    cols: int
    labels: dict[str, str]

    def area_of(self, node_id: str) -> str:
        try:
            return self.labels[node_id]
        except KeyError:
            raise InstanceError(f"node {node_id!r} has no area label")

    @property
    def area_names(self) -> list[str]:
        return sorted(set(self.labels.values()))


def _grid_label(row: int, col: int, rows: int, cols: int) -> str:
    if rows == 2 and cols == 2:
        return [["N", "E"], ["W", "S"]][row][col]
    return f"r{row}c{col}"


def assign_areas(instance_or_network, rows: int, cols: int) -> AreaAssignment:
    """Partition nodes into an equal grid over their bounding box.

    Cells are half-open along each axis except the last row/column, which is
    closed; row 0 is the top band.  The 2x2 case uses the compass labels
    N (top-left), E (top-right), S (bottom-right), W (bottom-left); other
    shapes use ``r{i}c{j}``.
    """
    net = instance_or_network.network if hasattr(instance_or_network, "network") else instance_or_network
    if rows < 1 or cols < 1:
        raise InstanceError("area grid must have rows >= 1 and cols >= 1")
    x, y = net.x, net.y
    if cols > 1 and x.max() == x.min():
        raise InstanceError("degenerate bounding box: zero x extent cannot be split")
    if rows > 1 and y.max() == y.min():
        raise InstanceError("degenerate bounding box: zero y extent cannot be split")

    def bins(vals, n, lo, hi):
        if n == 1:
            return np.zeros(len(vals), dtype=int)
        edges = np.linspace(lo, hi, n + 1)
        return np.clip(np.searchsorted(edges, vals, side="right") - 1, 0, n - 1)

    col_idx = bins(x, cols, x.min(), x.max())
    row_from_bottom = bins(y, rows, y.min(), y.max())
    row_idx = (rows - 1) - row_from_bottom  # row 0 on top
    labels = {
        net.nodes[i].id: _grid_label(int(row_idx[i]), int(col_idx[i]), rows, cols)
        for i in range(net.n_nodes)
    }
    return AreaAssignment(rows=rows, cols=cols, labels=labels)


# ---------------------------------------------------------------------------
# Document I/O

def _req(section: dict, key: str, path: str):
    if key not in section:
        raise InstanceError(f"{path}.{key}: missing required field")
    return section[key]


def _parse_od_table(entries, value_key: str, path: str) -> dict[tuple[str, str], float]:
    table = {}
    for k, row in enumerate(entries):
        o = _req(row, "origin", f"{path}[{k}]")
        d = _req(row, "destination", f"{path}[{k}]")
        table[(o, d)] = float(_req(row, value_key, f"{path}[{k}]"))
    return table


def _network_from_sections(node_rows, arc_rows, defaults) -> Network:
    car_len = float(defaults.get("car_length_km", DEFAULT_CAR_LENGTH_KM))
    gamma0 = float(defaults.get("bpr_gamma", DEFAULT_BPR_GAMMA))
    nu0 = float(defaults.get("bpr_nu", DEFAULT_BPR_NU))
    nodes = []
    for k, row in enumerate(node_rows):
        try:
            nodes.append(Node(
                id=str(_req(row, "id", f"nodes[{k}]")),
                x=float(_req(row, "x", f"nodes[{k}]")),
                y=float(_req(row, "y", f"nodes[{k}]")),
            ))
        except NetworkError as e:
            raise InstanceError(f"nodes[{k}]: {e}")
    arcs = []
    for k, row in enumerate(arc_rows):
        try:
            length = float(_req(row, "length_km", f"arcs[{k}]"))
            lanes = int(row.get("lanes", 1))
            cap = row.get("capacity")
            arcs.append(Arc(
                id=str(_req(row, "id", f"arcs[{k}]")),
                tail=str(_req(row, "tail", f"arcs[{k}]")),
                head=str(_req(row, "head", f"arcs[{k}]")),
                length_km=length,
                free_speed_kmh=float(_req(row, "free_speed_kmh", f"arcs[{k}]")),
                lanes=lanes,
                road_class=str(row.get("road_class", "secondary")),
                capacity=float(cap) if cap is not None else default_capacity(lanes, length, car_len),
                bpr_gamma=float(row.get("bpr_gamma", gamma0)),
                bpr_nu=float(row.get("bpr_nu", nu0)),
            ))
        except NetworkError as e:
            raise InstanceError(f"arcs[{k}]: {e}")
    try:
        return build_network(nodes, arcs)
    except NetworkError as e:
        raise InstanceError(str(e))


def _read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # empty optional cells come through as "" from csv
    return [{k: v for k, v in row.items() if v not in ("", None)} for row in rows]


def solver_from_document(section: dict) -> SolverOptions:
    """SolverOptions from the ``solver`` section of an instance or sweep
    config.  Options of replaced solvers (``step_rule`` and ``norm`` of the
    damped outer loop, ``inner_max_iters`` and ``divergence_*`` of the iterated
    expected costs) are dropped; other unknown keys are errors."""
    legacy = ("step_rule", "norm", "inner_max_iters", "divergence_guard",
              "divergence_window", "divergence_decay")
    section = {k: v for k, v in section.items() if k not in legacy}
    unknown = sorted(set(section) - {f.name for f in fields(SolverOptions)})
    if unknown:
        raise InstanceError(f"solver: unknown option(s) {', '.join(unknown)}")
    return SolverOptions(**section)


def load_instance(source) -> Instance:
    """Build a validated Instance from a JSON document (dict) or a file path."""
    base = Path(".")
    if isinstance(source, (str, Path)):
        base = Path(source).parent
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source

    defaults = doc.get("defaults", {})
    if "network_csv" in doc:
        spec = doc["network_csv"]
        node_rows = _read_csv_rows(base / _req(spec, "nodes", "network_csv"))
        arc_rows = _read_csv_rows(base / _req(spec, "arcs", "network_csv"))
    else:
        node_rows = _req(doc, "nodes", "document")
        arc_rows = _req(doc, "arcs", "document")
    network = _network_from_sections(node_rows, arc_rows, defaults)

    strata = []
    for k, row in enumerate(doc.get("strata", [])):
        strata.append(Stratum(
            name=str(_req(row, "name", f"strata[{k}]")),
            beta_t=float(_req(row, "beta_t", f"strata[{k}]")),
            beta_p=float(_req(row, "beta_p", f"strata[{k}]")),
            beta_t_out=float(_req(row, "beta_t_out", f"strata[{k}]")),
            beta_p_out=float(_req(row, "beta_p_out", f"strata[{k}]")),
        ))
    if not strata:
        raise InstanceError("strata: at least one stratum required")

    demand = []
    for k, row in enumerate(doc.get("demand", [])):
        demand.append(DemandEntry(
            stratum=str(_req(row, "stratum", f"demand[{k}]")),
            origin=str(_req(row, "origin", f"demand[{k}]")),
            destination=str(_req(row, "destination", f"demand[{k}]")),
            trips=float(_req(row, "trips", f"demand[{k}]")),
        ))

    oo = doc.get("outside_option", {"mode": MODE_MULTIPLIER, "multiplier": 3.0, "ticket": 0.0})
    ticket = oo.get("ticket", 0.0)
    if isinstance(ticket, list):
        ticket = _parse_od_table(ticket, "ticket", "outside_option.ticket")
    times = oo.get("times")
    if times is not None:
        times = _parse_od_table(times, "time", "outside_option.times")
    outside = OutsideOption(
        mode=oo.get("mode", MODE_MULTIPLIER),
        multiplier=float(oo.get("multiplier", 3.0)),
        ticket=ticket,
        times=times,
    )

    solver = solver_from_document(doc.get("solver", {}))
    return Instance(
        network=network,
        strata=strata,
        demand=demand,
        outside=outside,
        car_length_km=float(defaults.get("car_length_km", DEFAULT_CAR_LENGTH_KM)),
        solver=solver,
    )


def instance_to_document(instance: Instance) -> dict:
    """Serialize back to the JSON document shape; load(to_document(x)) == x."""
    net = instance.network
    doc = {
        "nodes": [{"id": n.id, "x": n.x, "y": n.y} for n in net.nodes],
        "arcs": [
            {
                "id": a.id, "tail": a.tail, "head": a.head,
                "length_km": a.length_km, "free_speed_kmh": a.free_speed_kmh,
                "lanes": a.lanes, "road_class": a.road_class,
                "capacity": a.capacity, "bpr_gamma": a.bpr_gamma, "bpr_nu": a.bpr_nu,
            }
            for a in net.arcs
        ],
        "strata": [asdict(s) for s in instance.strata],
        "demand": [asdict(e) for e in instance.demand],
        "outside_option": _outside_to_doc(instance.outside),
        "solver": asdict(instance.solver),
        "defaults": {"car_length_km": instance.car_length_km},
    }
    return doc


def _outside_to_doc(oo: OutsideOption) -> dict:
    doc = {"mode": oo.mode, "multiplier": oo.multiplier}
    if isinstance(oo.ticket, dict):
        doc["ticket"] = [
            {"origin": o, "destination": d, "ticket": v}
            for (o, d), v in sorted(oo.ticket.items())
        ]
    else:
        doc["ticket"] = oo.ticket
    if oo.times is not None:
        doc["times"] = [
            {"origin": o, "destination": d, "time": v}
            for (o, d), v in sorted(oo.times.items())
        ]
    return doc


def save_instance(instance: Instance, path) -> None:
    write_json(path, instance_to_document(instance))


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON with sorted keys and a final newline.
    NaN is refused (it is not JSON): reports map it to null first, with
    ``nan_to_null``."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def nan_to_null(value):
    """``value`` with every NaN float, also inside dicts and lists, as None."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: nan_to_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [nan_to_null(v) for v in value]
    return value


def instances_equal(a: Instance, b: Instance) -> bool:
    return instance_to_document(a) == instance_to_document(b)
