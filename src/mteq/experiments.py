"""Grid-search orchestration: evaluate every pricing scheme on a grid,
extract Pareto frontiers and scalarized optima, persist and reload results.

A sweep solves the toll-free baseline once, then one equilibrium per
enumerated scheme.  Detail files are flushed per scheme as they complete,
so an interrupted sweep resumes by scheme id; the flat ``results.csv`` is
rewritten at the end in enumeration order, which makes its bytes
independent of worker count and completion order.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .equilibrium import solve_equilibrium
from .instance import (Instance, SolverOptions, assign_areas, instance_to_document,
                       load_instance, nan_to_null, solver_from_document)
from .metrics import (STRATUM_METRICS, TOTAL_METRICS, all_trip_stats,
                      compute_metrics, simulate_trips)
from .network import (InstanceError, check_flag, check_name, check_number, read_fields,
                      read_json, read_section, write_csv, write_json)
from .pricing import (
    PER_AREA,
    PER_STRATUM,
    UNIFORM,
    PriceGrid,
    SchemeSpec,
    enumerate_grid,
    expand_scheme,
    stratum_price_order,
    zero_prices,
)

RESULTS_SCHEMA_VERSION = 1


class ResultSchemaError(InstanceError):
    """A results manifest or detail file of another schema version."""


@dataclass
class ScalarizedObjective:
    """lambda * W^s + (1 - lambda) * (total welfare | total revenue)."""

    stratum: str
    lam: float
    mode: str = "welfare_vs_total_welfare"

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if self.mode not in ("welfare_vs_total_welfare", "welfare_vs_revenue"):
            raise ValueError(f"unknown objective mode {self.mode!r}")

    def value(self, row: "ResultRow") -> float:
        partner = row.total_welfare if self.mode == "welfare_vs_total_welfare" else row.total_revenue
        return self.lam * row.welfare[self.stratum] + (1.0 - self.lam) * partner


@dataclass
class ResultRow:
    scheme_id: str
    family: str
    rates_label: str
    rate_vector: tuple
    welfare: dict
    welfare_delta: dict
    revenue: dict
    trips_started: dict
    primary_share_distance: dict
    primary_share_flow: dict
    avg_speed_trip: dict
    avg_speed_flow: dict
    total_welfare: float
    total_welfare_delta: float
    total_revenue: float
    trips_started_overall: float
    converged: bool
    inner_converged: bool
    outer_residual: float
    error: str | None = None
    sim: dict | None = None

    def to_dict(self) -> dict:
        """JSON-ready form: an undefined or failed value (NaN) is written as
        null, since NaN is not JSON.  nan_to_null rebuilds every dict and
        list, so the fields are not deep-copied first."""
        d = nan_to_null({f.name: getattr(self, f.name) for f in fields(self)})
        d["rate_vector"] = list(self.rate_vector)
        d["schema_version"] = RESULTS_SCHEMA_VERSION
        return d

    @staticmethod
    def from_dict(d: dict, scheme_id: str, strata) -> "ResultRow":
        """The row of ``scheme_id``'s detail file, as to_dict writes it, with
        a value for exactly the ``strata`` in each per-stratum metric and
        ``sim`` table, in their order (a fresh row's), and rates finite and
        >= 0; raises InstanceError naming a field."""
        version, = read_fields(d, "result", (), {"schema_version": None})
        if version != RESULTS_SCHEMA_VERSION:
            raise ResultSchemaError(
                f"result schema version {version} != {RESULTS_SCHEMA_VERSION}")
        names = [f.name for f in fields(ResultRow)]
        row = dict(zip(names, read_fields(d, "result", names[:-2],
                                          {"error": None, "sim": None})))
        if row["scheme_id"] != scheme_id:
            raise InstanceError(f"result.scheme_id is {row['scheme_id']!r}, not {scheme_id!r}")
        for name in ("family", "rates_label"):
            check_name(f"result.{name}", row[name], numbers=False)
        for name in ("converged", "inner_converged"):
            check_flag(f"result.{name}", row[name])
        if not (row["error"] is None or type(row["error"]) is str):
            raise InstanceError(f"result.error must be null or a string, got {row['error']!r}")
        if row["sim"] is not None:
            *tables, truncated = read_fields(row["sim"], "result.sim",
                                             (*_SIM_METRICS, "truncated"))
            row["sim"] = {**{key: _per_stratum(f"result.sim.{key}", table, strata)
                             for key, table in zip(_SIM_METRICS, tables)},
                          "truncated": check_number("result.sim.truncated", truncated, 0,
                                                    strict=False, integer=True)}
        for name in STRATUM_METRICS:
            row[name] = _per_stratum(f"result.{name}", row[name], strata)
        for name in (*TOTAL_METRICS, "outer_residual"):
            row[name] = _metric(f"result.{name}", row[name])
        row["rate_vector"] = tuple(
            check_number(f"result.rate_vector[{i}]", rate, 0, strict=False)
            for i, rate in enumerate(read_section(row["rate_vector"], "result.rate_vector", list)))
        return ResultRow(**row)


#: the per-stratum tables of a row's ``sim`` block, each from its field of
#: SimulationReport.summary; the block also holds the ``truncated`` trip count
_SIM_METRICS = {"trips_started": "started_proportion", "mean_time": "mean_time",
                "primary_share": "primary_share"}


def _per_stratum(name: str, values, strata) -> dict:
    """A stored per-stratum table: a value (_metric) for exactly the
    ``strata``, in their order; raises InstanceError naming ``name``."""
    values = read_section(values, name)
    if sorted(values) != sorted(strata):
        raise InstanceError(f"{name} has strata {sorted(values)}, not "
                            f"{sorted(strata)}: a file of another instance")
    return {s: _metric(f"{name}.{s}", values[s]) for s in strata}


def _metric(name: str, value) -> float:
    """A stored metric value: a finite number, or null, which reads back as
    NaN (an undefined or failed value)."""
    return math.nan if value is None else check_number(name, value)


#: the short names of per-stratum metrics that value_of also accepts
_METRIC_ALIASES = {"primary_share": "primary_share_distance", "speed": "avg_speed_trip"}


def value_of(row: ResultRow, name: str) -> float:
    """Resolve an objective column: a total by name (``TOTAL_METRICS``), a
    per-stratum entry as '<metric>:<stratum>' (e.g. 'welfare:low'), with a
    metric of ``STRATUM_METRICS`` or its short name 'primary_share' or
    'speed'."""
    metric, colon, stratum = name.partition(":")
    metric = _METRIC_ALIASES.get(metric, metric)
    if colon and metric in STRATUM_METRICS and stratum in getattr(row, metric):
        return getattr(row, metric)[stratum]
    if not colon and name in TOTAL_METRICS:
        return getattr(row, name)
    raise InstanceError(f"unknown objective {name!r}: expected one of "
                        f"{', '.join(TOTAL_METRICS)} or <metric>:<stratum>")


#: check_number's lower bound for each whole-number field of a SweepConfig
_SWEEP_COUNTS = (("workers", 1), ("area_rows", 1), ("area_cols", 1), ("runs_per_unit", 0),
                 ("seed", 0))


@dataclass
class SweepConfig:
    instance: str
    grid: PriceGrid
    solver: SolverOptions | None = None
    output: str = "sweep_out"
    workers: int = 1
    area_rows: int = 2
    area_cols: int = 2
    simulate: bool = False
    runs_per_unit: int = 10
    seed: int = 0

    def __post_init__(self):
        for key, low in _SWEEP_COUNTS:
            setattr(self, key, check_number(f"sweep config: {key}", getattr(self, key), low,
                                            strict=False, integer=True))
        check_flag("sweep config: simulate", self.simulate)

    @staticmethod
    def from_file(path) -> "SweepConfig":
        return read_json(path, lambda doc: SweepConfig.from_dict(doc, base=Path(path).parent))

    @staticmethod
    def from_dict(doc: dict, base: Path = Path(".")) -> "SweepConfig":
        grid, instance, output, simulate = read_fields(
            doc, "sweep config", ("grid", "instance"), {"output": "sweep_out", "simulate": False})
        family, lo, hi, step, strata_order, areas, ordered = read_fields(
            grid, "sweep config.grid", ("family", "lo", "hi", "step"),
            {"strata_order": [], "areas": [], "ordered": True})
        strata_order, areas = (tuple(read_section(names, f"sweep config.grid.{key}", list))
                               for key, names in (("strata_order", strata_order),
                                                  ("areas", areas)))
        grid = PriceGrid(family, lo, hi, step, strata_order, areas, ordered)
        solver = solver_from_document(doc["solver"]) if "solver" in doc else None
        counts = {key: doc[key] for key, _low in _SWEEP_COUNTS if key in doc}
        return SweepConfig(
            instance=str(base / check_name("sweep config.instance", instance, numbers=False)),
            grid=grid, solver=solver, simulate=simulate, **counts,
            output=str(base / check_name("sweep config.output", output, numbers=False)))


def _complete_grid(grid: PriceGrid, instance: Instance, areas) -> PriceGrid:
    if grid.family == PER_STRATUM and not grid.strata_order:
        grid = replace(grid, strata_order=stratum_price_order(instance))
    if grid.family == PER_AREA and not grid.areas:
        grid = replace(grid, areas=tuple(areas.area_names))
    return grid


def _evaluate_scheme(instance, spec: SchemeSpec, areas, solver, baseline_stats,
                     simulate: bool, runs_per_unit: int, seed: int) -> ResultRow:
    prices = expand_scheme(spec, instance, areas)
    names = list(instance.stratum_names)
    nan = float("nan")
    try:
        sol = solve_equilibrium(instance, prices, solver)
        rep = compute_metrics(instance, sol, baseline_stats, scheme_id=spec.scheme_id)
        metrics = {name: getattr(rep, name) for name in STRATUM_METRICS + TOTAL_METRICS}
        status = dict(converged=sol.converged, inner_converged=sol.inner_converged,
                      outer_residual=sol.outer_residual)
        if simulate:
            sim = simulate_trips(instance, sol, runs_per_unit=runs_per_unit, seed=seed)
            summary = sim.summary(names)
            status["sim"] = {**{key: {s: summary[s][field] for s in names}
                                for key, field in _SIM_METRICS.items()},
                             "truncated": sim.truncated_count}
    except RuntimeError as exc:  # FeasibilityError, SolverError: the sweep goes on
        metrics = {name: dict.fromkeys(names, nan) for name in STRATUM_METRICS}
        metrics.update(dict.fromkeys(TOTAL_METRICS, nan))
        status = dict(converged=False, inner_converged=False, outer_residual=nan,
                      error=f"{type(exc).__name__}: {exc}")
    return ResultRow(scheme_id=spec.scheme_id, family=spec.family,
                     rates_label=_rates_label(spec), rate_vector=spec.rate_vector(),
                     **metrics, **status)


def _rates_label(spec: SchemeSpec) -> str:
    if spec.family == UNIFORM:
        return f"p={spec.rate:g}"
    pairs = spec.stratum_rates if spec.family == PER_STRATUM else tuple(sorted(spec.area_rates))
    return "|".join(f"{n}={r:g}" for n, r in pairs)


_WORKER_STATE: dict = {}


def _init_worker(payload):
    """Keep the instance and the rest of _evaluate_scheme's arguments but the scheme."""
    instance_doc, *rest = payload
    _WORKER_STATE["args"] = load_instance(instance_doc), rest


def _run_worker(spec: SchemeSpec) -> ResultRow:
    instance, rest = _WORKER_STATE["args"]
    return _evaluate_scheme(instance, spec, *rest)


def run_sweep(config: SweepConfig, instance: Instance | None = None) -> list[ResultRow]:
    """Evaluate every scheme of the configured grid plus the toll-free
    baseline row.  Per-scheme failures land in the row's ``error`` field."""
    instance = instance or load_instance(config.instance)
    solver = config.solver or instance.solver
    areas = None
    if config.grid.family == PER_AREA:
        areas = assign_areas(instance, config.area_rows, config.area_cols)
    grid = _complete_grid(config.grid, instance, areas)

    schemes = enumerate_grid(grid)
    baseline_spec = SchemeSpec(family=UNIFORM, rate=0.0)
    ids = {s.scheme_id for s in schemes}
    if baseline_spec.scheme_id not in ids:
        schemes = [baseline_spec] + schemes

    sol0 = solve_equilibrium(instance, zero_prices(instance), solver)
    baseline_stats = all_trip_stats(instance, sol0)
    out = Path(config.output)
    detail_dir = out / "schemes"  # made once the baseline stands: a failed one writes nothing
    detail_dir.mkdir(parents=True, exist_ok=True)

    done: dict[str, ResultRow] = {}
    pending = []
    for spec in schemes:
        path = detail_dir / f"{spec.scheme_id}.json"
        if path.exists():
            done[spec.scheme_id] = read_json(path, lambda d: ResultRow.from_dict(
                d, spec.scheme_id, instance.stratum_names))
        else:
            pending.append(spec)

    def flush(row: ResultRow):
        _write_detail(row, detail_dir)
        done[row.scheme_id] = row

    if config.workers > 1 and len(pending) > 1:
        payload = (instance_to_document(instance), areas, solver, baseline_stats,
                   config.simulate, config.runs_per_unit, config.seed)
        with ProcessPoolExecutor(max_workers=config.workers,
                                 initializer=_init_worker, initargs=(payload,)) as pool:
            for row in pool.map(_run_worker, pending):
                flush(row)
    else:
        for spec in pending:
            flush(_evaluate_scheme(instance, spec, areas, solver, baseline_stats,
                                   config.simulate, config.runs_per_unit, config.seed))

    rows = [done[s.scheme_id] for s in schemes]
    _write_tables(rows, out)  # flush has written each detail file
    return rows


# ---------------------------------------------------------------------------
# Frontier extraction and ranking

def pareto_frontier(rows: list[ResultRow], objective_x: str, objective_y: str) -> list[ResultRow]:
    """Nondominated subset when maximizing both objectives.

    A row survives iff no other row is at least as good in both coordinates
    and strictly better in one.  Rows with failed solves (NaN objectives)
    are excluded; duplicated (x, y) points keep their first occurrence.
    The result is sorted by ascending x.
    """
    pts = []
    seen_vals = set()
    for r in rows:
        x, y = value_of(r, objective_x), value_of(r, objective_y)
        if math.isnan(x) or math.isnan(y):
            continue
        if (x, y) in seen_vals:
            continue
        seen_vals.add((x, y))
        pts.append((x, y, r))
    pts.sort(key=lambda p: (-p[0], -p[1]))
    kept = []
    best_y = -math.inf
    for x, y, r in pts:
        if y > best_y:
            kept.append((x, y, r))
            best_y = y
    kept.sort(key=lambda p: p[0])
    return [r for _x, _y, r in kept]


def best_scalarized(rows: list[ResultRow], objective: ScalarizedObjective) -> ResultRow:
    """Argmax of the scalarized objective over the evaluated schemes; ties
    break toward the lexicographically smallest rate vector."""
    candidates = [r for r in rows if not math.isnan(objective.value(r))]
    if not candidates:
        raise ValueError("no rows with finite objective values")
    return min(candidates, key=lambda r: (-objective.value(r), r.rate_vector))


# ---------------------------------------------------------------------------
# Persistence

#: the columns of results.csv after the per-stratum metrics
_TAIL_COLUMNS = (*TOTAL_METRICS, "converged", "inner_converged", "outer_residual", "error")


def csv_columns(stratum_names: list[str]) -> list[str]:
    return ["scheme_id", "family", "rates",
            *(f"{name}_{s}" for name in STRATUM_METRICS for s in stratum_names),
            *_TAIL_COLUMNS]


def _row_to_csv(row: ResultRow, stratum_names: list[str]) -> list:
    return [row.scheme_id, row.family, row.rates_label,
            *(getattr(row, name)[s] for name in STRATUM_METRICS for s in stratum_names),
            *(getattr(row, name) for name in _TAIL_COLUMNS)]


def persist_results(rows: list[ResultRow], directory) -> None:
    """Write manifest, per-scheme detail JSON, and the flat results.csv."""
    out = Path(directory)
    (out / "schemes").mkdir(parents=True, exist_ok=True)
    for r in rows:
        _write_detail(r, out / "schemes")
    _write_tables(rows, out)


def _write_tables(rows: list[ResultRow], out: Path) -> None:
    """The manifest and the flat results.csv of persist_results."""
    stratum_names = list(rows[0].welfare.keys()) if rows else []
    write_json(out / "manifest.json", {"schema_version": RESULTS_SCHEMA_VERSION,
                                       "scheme_ids": [r.scheme_id for r in rows],
                                       "strata": stratum_names})
    write_csv(out / "results.csv", csv_columns(stratum_names),
              (_row_to_csv(r, stratum_names) for r in rows))


def _write_detail(row: ResultRow, detail_dir: Path) -> None:
    write_json(detail_dir / f"{row.scheme_id}.json", row.to_dict())


def load_results(directory) -> list[ResultRow]:
    """Reload a persisted sweep; inverse of persist_results."""
    out = Path(directory)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        warnings.warn(f"no results manifest in {out}; returning empty table")
        return []
    ids, strata = read_json(manifest_path, _manifest)
    return [read_json(out / "schemes" / f"{sid}.json",
                      lambda d: ResultRow.from_dict(d, sid, strata)) for sid in ids]


def _manifest(manifest: dict) -> list[list[str]]:
    """The scheme ids and the strata a results manifest lists."""
    version, = read_fields(manifest, "manifest", (), {"schema_version": None})
    if version != RESULTS_SCHEMA_VERSION:
        raise ResultSchemaError(
            f"results use schema version {version}, expected {RESULTS_SCHEMA_VERSION}")
    return [[check_name(f"manifest.{key}[{k}]", name)
             for k, name in enumerate(read_section(names, f"manifest.{key}", list))]
            for key, names in zip(("scheme_ids", "strata"),
                                  read_fields(manifest, "manifest", ("scheme_ids", "strata")))]


def write_frontier_csv(rows: list[ResultRow], objective_x: str, objective_y: str,
                       directory) -> Path:
    frontier = pareto_frontier(rows, objective_x, objective_y)
    safe = lambda s: s.replace(":", "_")
    path = Path(directory) / f"frontier_{safe(objective_x)}_{safe(objective_y)}.csv"
    write_csv(path, ["scheme_id", "rates", objective_x, objective_y],
              ([r.scheme_id, r.rates_label, value_of(r, objective_x), value_of(r, objective_y)]
               for r in frontier))
    return path
