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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .network import (ARC_FIELDS, DEFAULT_BPR_GAMMA, DEFAULT_BPR_NU, DEFAULT_CAR_LENGTH_KM,
                      NODE_FIELDS, SECONDARY, InstanceError, Network, check_name, check_number,
                      default_capacity, read_fields, read_json, read_section, shortest_costs,
                      write_json)

MODE_MULTIPLIER = "free_time_multiplier"
MODE_TABLE = "per_od_table"


@dataclass
class SolverOptions:
    """The outer loop's tolerance and iteration cap: it stops once the
    sup-norm gap between the flow iterate and its response is at most
    ``outer_tol``, or after ``outer_max_iters`` routing passes.  Expected
    costs are an exact solve, certified against equilibrium.TAU_TOLERANCE."""

    outer_tol: float = 10.0
    outer_max_iters: int = 10

    def __post_init__(self):
        self.outer_tol = check_number("solver.outer_tol", self.outer_tol, 0)
        self.outer_max_iters = check_number("solver.outer_max_iters", self.outer_max_iters, 1,
                                            strict=False, integer=True)


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


@dataclass(frozen=True)
class Stratum:
    """A stratum record; Instance checks its fields."""

    name: str
    beta_t: float
    beta_p: float
    beta_t_out: float
    beta_p_out: float

    @property
    def wtp(self) -> float:
        """Willingness to pay: time units given up per money unit."""
        return self.beta_t / self.beta_p if self.beta_p > 0 else float("inf")


#: each sensitivity of a Stratum and whether it must be > 0 (else >= 0)
_BETAS = (("beta_t", True), ("beta_p", False), ("beta_t_out", True), ("beta_p_out", False))


@dataclass(frozen=True)
class DemandEntry:
    """A demand record; Instance checks its fields."""

    stratum: str
    origin: str
    destination: str
    trips: float


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
    #: outside travel time per demanded OD pair (node ids), built from the
    #: other fields by every constructor call, dataclasses.replace included
    outside_time: dict[tuple[str, str], float] = field(init=False)

    def __post_init__(self):
        """Checks each stratum, then each demand row, then the rows against
        each other, the network and a per-OD ticket table.  A numeric string
        counts as its number and an int name as its digits."""
        if not self.strata:
            raise InstanceError("strata: at least one stratum required")
        strata = {}
        for s in self.strata:
            name = check_name("stratum name", s.name)
            strata[name] = Stratum(name, *(
                check_number(f"stratum {name!r}: {key}", getattr(s, key), 0, strict=strict)
                for key, strict in _BETAS))
        if len(strata) != len(self.strata):
            raise InstanceError("strata: duplicate names")
        self.strata = list(strata.values())
        self.demand, nodes, seen = list(self.demand), self.network.node_index, set()
        for k, e in enumerate(self.demand):
            stratum = check_name("demand stratum", e.stratum)
            origin = check_name("demand origin", e.origin)
            destination = check_name("demand destination", e.destination)
            pair = f"demand ({stratum}, {origin} -> {destination})"
            if origin == destination:
                raise InstanceError(f"{pair}: origin equals destination")
            trips = check_number(f"{pair}: trips", e.trips, 0)
            if stratum not in strata:
                raise InstanceError(f"demand[{k}].stratum: unknown stratum {stratum!r}")
            for key, node in (("origin", origin), ("destination", destination)):
                if node not in nodes:
                    raise InstanceError(f"demand[{k}].{key}: unknown node {node!r}")
            key = (stratum, origin, destination)
            if key in seen:
                raise InstanceError(f"demand[{k}]: duplicate entry for {key}")
            seen.add(key)
            if trips is not e.trips or key != (e.stratum, e.origin, e.destination):  # converted
                self.demand[k] = DemandEntry(*key, trips)
        if isinstance(self.outside.ticket, dict):
            missing = sorted({(o, d) for _s, o, d in seen} - set(self.outside.ticket))
            if missing:
                raise InstanceError(f"outside_option.ticket: missing OD ({', '.join(missing[0])})")
        self.car_length_km = check_number("defaults.car_length_km", self.car_length_km, 0)
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
        node: _grid_label(row, col, rows, cols)
        for node, row, col in zip(net.node_ids, row_idx.tolist(), col_idx.tolist())
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


def _columns(section, path: str, keys, optional=None) -> list[list]:
    """The values of the records of the list ``section`` under each of
    ``keys`` then of ``optional`` (key -> default), one list per key.  A
    section that is not a list, and a record that is not an object or lacks
    one of ``keys``, raise InstanceError naming it (_records)."""
    if type(section) is list and set(map(type, section)) <= {dict}:
        try:
            return [[row[key] for row in section] for key in keys] + [
                [row.get(key, default) for row in section]
                for key, default in (optional or {}).items()]
        except KeyError:
            pass
    _records(section, path, keys, optional)  # raises, naming the record at fault
    raise AssertionError(f"{path}: read as records but not as columns")


def _fill_capacity(arcs: list[list], car_length_km: float) -> None:
    """Set each None capacity of the ARC_FIELDS columns ``arcs`` to
    default_capacity of its arc's lanes and length.  If one of those is not
    a number above 0, none is set: Network names that value."""
    _ids, _tails, _heads, length, _speed, lanes, _classes, capacity, *_bpr = arcs
    missing = [k for k, c in enumerate(capacity) if c is None]
    if not missing:
        return
    try:
        filled = default_capacity(*(np.array([column[k] for k in missing], dtype=float)
                                    for column in (lanes, length)), car_length_km)
    except (TypeError, ValueError):
        return
    for k, c in zip(missing, filled.tolist()):
        capacity[k] = c


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
    nodes = _columns(node_rows, "nodes", NODE_FIELDS)
    arcs = _columns(arc_rows, "arcs", ARC_FIELDS[:5], {
        "lanes": 1, "road_class": SECONDARY, "capacity": None, "bpr_gamma": gamma0,
        "bpr_nu": nu0})
    _fill_capacity(arcs, car_len)
    network = Network(*nodes, *arcs)

    strata = list(map(Stratum, *_columns(
        strata, "strata", ("name", "beta_t", "beta_p", "beta_t_out", "beta_p_out"))))
    demand = list(map(DemandEntry, *_columns(
        demand, "demand", ("stratum", "origin", "destination", "trips"))))

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
    net, arcs = instance.network, instance.network.arc_table()
    return {  # a record's fields are its instance dict (asdict would deep-copy each)
        "nodes": [{"id": i, "x": x, "y": y}
                  for i, x, y in zip(net.node_ids, net.x.tolist(), net.y.tolist())],
        "arcs": [dict(zip(arcs, row)) for row in zip(*arcs.values())],
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
