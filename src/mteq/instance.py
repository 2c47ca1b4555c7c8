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
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .network import (
    SECONDARY,
    Arc,
    InstanceError,
    Node,
    Network,
    build_network,
    check_name,
    check_number,
    default_capacity,
    read_fields,
    read_json,
    read_section,
    shortest_costs,
    write_json,
    DEFAULT_BPR_GAMMA,
    DEFAULT_BPR_NU,
    DEFAULT_CAR_LENGTH_KM,
)
from .equilibrium import SolverOptions

MODE_MULTIPLIER = "free_time_multiplier"
MODE_TABLE = "per_od_table"


@dataclass(frozen=True)
class Stratum:
    name: str
    beta_t: float
    beta_p: float
    beta_t_out: float
    beta_p_out: float

    def __post_init__(self):
        if type(self.name) is not str:
            object.__setattr__(self, "name", check_name("stratum name", self.name))
        for name, strict in (("beta_t", True), ("beta_p", False),
                             ("beta_t_out", True), ("beta_p_out", False)):
            object.__setattr__(self, name, check_number(
                f"stratum {self.name!r}: {name}", getattr(self, name), 0, strict=strict))

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
        for name in ("stratum", "origin", "destination"):
            value = getattr(self, name)
            if type(value) is not str:
                object.__setattr__(self, name, check_name(f"demand {name}", value))
        if self.origin == self.destination:
            raise InstanceError(
                f"demand ({self.stratum}, {self.origin} -> {self.destination}): "
                "origin equals destination")
        object.__setattr__(self, "trips", check_number(
            f"demand ({self.stratum}, {self.origin} -> {self.destination}): trips",
            self.trips, 0))


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
        if self.mode == MODE_TABLE and self.times is None:
            raise InstanceError("outside_option.times required in per_od_table mode")
        object.__setattr__(self, "multiplier",
                           check_number("outside_option.multiplier", self.multiplier, 0))
        if isinstance(self.ticket, dict):
            object.__setattr__(self, "ticket", _checked_od_table("ticket", self.ticket))
        else:
            object.__setattr__(self, "ticket", check_number(
                "outside_option.ticket", self.ticket, 0, strict=False))
        if self.times is not None:
            object.__setattr__(self, "times", _checked_od_table("times", self.times))

    def ticket_for(self, origin: str, destination: str) -> float:
        """The fare of an OD pair; a per-OD table has every demanded pair
        (Instance checks it)."""
        return self.ticket[(origin, destination)] if isinstance(self.ticket, dict) else self.ticket


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
        if isinstance(self.outside.ticket, dict):
            missing = sorted({(e.origin, e.destination) for e in self.demand}
                             - set(self.outside.ticket))
            if missing:
                raise InstanceError(f"outside_option.ticket: missing OD ({', '.join(missing[0])})")
        self.car_length_km = check_number("defaults.car_length_km", self.car_length_km, 0)
        if not self.outside_time:
            self.outside_time = materialize_outside_times(self)

    @property
    def stratum_names(self) -> list[str]:
        return [s.name for s in self.strata]

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
    rows = check_number("area rows", rows, 1, strict=False, integer=True)
    cols = check_number("area cols", cols, 1, strict=False, integer=True)
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

def _records(section, path: str, keys, optional=None) -> list[list]:
    """read_fields of each record of the list ``section``; the keys are
    given in the order of the fields of the dataclass the record becomes."""
    return [read_fields(row, f"{path}[{k}]", keys, optional)
            for k, row in enumerate(read_section(section, path, list))]


def _parse_od_table(entries, value_key: str, path: str) -> dict[tuple[str, str], float]:
    return {(check_name(f"{path}[{k}].origin", o), check_name(f"{path}[{k}].destination", d)): v
            for k, (o, d, v) in enumerate(_records(entries, path,
                                                   ("origin", "destination", value_key)))}


def _checked_od_table(key: str, table: dict) -> dict[tuple[str, str], float]:
    """A per-OD table of outside_option with every value checked >= 0."""
    return {(o, d): check_number(f"outside_option.{key}[({o}, {d})]", v, 0, strict=False)
            for (o, d), v in table.items()}


def _read_csv_rows(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise InstanceError(f"{path}: cannot read: {exc.strerror}") from None
    except (ValueError, csv.Error) as exc:  # not UTF-8, or not CSV
        raise InstanceError(f"{path}: not valid CSV: {exc}") from None
    # empty optional cells come through as "" from csv
    return [{k: v for k, v in row.items() if v not in ("", None)} for row in rows]


def solver_from_document(section: dict) -> SolverOptions:
    """SolverOptions from the ``solver`` section of an instance or sweep
    config.  Options of replaced solvers (``step_rule`` and ``norm`` of the
    damped outer loop, ``inner_tol``, ``inner_max_iters`` and ``divergence_*``
    of the iterated expected costs) are dropped; other unknown keys are errors."""
    legacy = ("step_rule", "norm", "inner_tol", "inner_max_iters", "divergence_guard",
              "divergence_window", "divergence_decay")
    section = {k: v for k, v in read_section(section, "solver").items() if k not in legacy}
    unknown = sorted(set(section) - {f.name for f in fields(SolverOptions)})
    if unknown:
        raise InstanceError(f"solver: unknown option(s) {', '.join(unknown)}")
    return SolverOptions(**section)


def load_instance(source) -> Instance:
    """Build a validated Instance from a JSON document (dict) or a file path."""
    if isinstance(source, (str, Path)):
        return read_json(source, lambda doc: _instance_from(doc, Path(source).parent))
    return _instance_from(source, Path("."))


def _instance_from(doc, base: Path) -> Instance:
    """The Instance of a document whose ``network_csv`` paths are relative to ``base``."""
    defaults, strata, demand, oo, solver = read_fields(doc, "document", (), {
        "defaults": {}, "strata": [], "demand": [], "outside_option": {}, "solver": {}})
    if "network_csv" in doc:
        node_rows, arc_rows = (
            _read_csv_rows(base / check_name(f"network_csv.{key}", name, numbers=False))
            for key, name in zip(("nodes", "arcs"), read_fields(
                doc["network_csv"], "network_csv", ("nodes", "arcs"))))
    else:
        node_rows, arc_rows = read_fields(doc, "document", ("nodes", "arcs"))
    car_len, gamma0, nu0 = read_fields(defaults, "defaults", (), {
        "car_length_km": DEFAULT_CAR_LENGTH_KM, "bpr_gamma": DEFAULT_BPR_GAMMA,
        "bpr_nu": DEFAULT_BPR_NU})
    car_len = check_number("defaults.car_length_km", car_len, 0)
    nodes = [Node(*row) for row in _records(node_rows, "nodes", ("id", "x", "y"))]
    arcs = []
    for row in _records(arc_rows, "arcs", ("id", "tail", "head", "length_km", "free_speed_kmh"), {
            "lanes": 1, "road_class": SECONDARY, "capacity": None, "bpr_gamma": gamma0,
            "bpr_nu": nu0}):
        arc = Arc(*row)
        if arc.capacity is None:
            arc = replace(arc, capacity=default_capacity(arc.lanes, arc.length_km, car_len))
        arcs.append(arc)
    network = build_network(nodes, arcs)

    strata = [Stratum(*row) for row in _records(
        strata, "strata", ("name", "beta_t", "beta_p", "beta_t_out", "beta_p_out"))]
    if not strata:
        raise InstanceError("strata: at least one stratum required")
    demand = [DemandEntry(*row) for row in _records(
        demand, "demand", ("stratum", "origin", "destination", "trips"))]

    mode, multiplier, ticket, times = read_fields(oo, "outside_option", (), {
        "mode": MODE_MULTIPLIER, "multiplier": 3.0, "ticket": 0.0, "times": None})
    if isinstance(ticket, dict):  # OutsideOption takes a dict keyed by OD pairs
        raise InstanceError("outside_option.ticket must be a number or a list, got an object")
    if isinstance(ticket, list):
        ticket = _parse_od_table(ticket, "ticket", "outside_option.ticket")
    if times is not None:
        times = _parse_od_table(times, "time", "outside_option.times")
    return Instance(network=network, strata=strata, demand=demand,
                    outside=OutsideOption(mode, multiplier, ticket, times),
                    car_length_km=car_len, solver=solver_from_document(solver))


def instance_to_document(instance: Instance) -> dict:
    """Serialize back to the JSON document shape; load(to_document(x)) == x."""
    net = instance.network
    return {  # a record's fields are its instance dict (asdict would deep-copy each)
        "nodes": [dict(vars(n)) for n in net.nodes],
        "arcs": [dict(vars(a)) for a in net.arcs],
        "strata": [dict(vars(s)) for s in instance.strata],
        "demand": [dict(vars(e)) for e in instance.demand],
        "outside_option": _outside_to_doc(instance.outside),
        "solver": dict(vars(instance.solver)),
        "defaults": {"car_length_km": instance.car_length_km},
    }


def _outside_to_doc(oo: OutsideOption) -> dict:
    def rows(table: dict, key: str) -> list[dict]:
        return [{"origin": o, "destination": d, key: v} for (o, d), v in sorted(table.items())]

    doc = {"mode": oo.mode, "multiplier": oo.multiplier,
           "ticket": rows(oo.ticket, "ticket") if isinstance(oo.ticket, dict) else oo.ticket}
    if oo.times is not None:
        doc["times"] = rows(oo.times, "time")
    return doc


def save_instance(instance: Instance, path) -> None:
    write_json(path, instance_to_document(instance))


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
