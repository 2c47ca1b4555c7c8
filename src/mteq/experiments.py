"""Grid-search orchestration: evaluate every pricing scheme on a grid,
extract Pareto frontiers and scalarized optima, persist and reload results.

A sweep solves the toll-free baseline once, then one equilibrium per
enumerated scheme.  Detail files are flushed per scheme as they complete,
so an interrupted sweep resumes by scheme id; the flat ``results.csv`` is
rewritten at the end in enumeration order, which makes its bytes
independent of worker count and completion order.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .equilibrium import SolverOptions, solve_equilibrium
from .instance import (Instance, InstanceError, assign_areas, load_instance,
                       nan_to_null, solver_from_document, write_json)
from .metrics import (STRATUM_METRICS, TOTAL_METRICS, all_trip_stats,
                      compute_metrics, simulate_trips)
from .pricing import (
    PER_AREA,
    PER_STRATUM,
    UNIFORM,
    PriceGrid,
    SchemeSpec,
    enumerate_grid,
    expand_scheme,
    stratum_price_order,
)

RESULTS_SCHEMA_VERSION = 1


class ResultSchemaError(RuntimeError):
    pass


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
        null, since NaN is not JSON."""
        d = nan_to_null(asdict(self))
        d["rate_vector"] = list(self.rate_vector)
        d["schema_version"] = RESULTS_SCHEMA_VERSION
        return d

    @staticmethod
    def from_dict(d: dict) -> "ResultRow":
        if d.get("schema_version") != RESULTS_SCHEMA_VERSION:
            raise ResultSchemaError(
                f"result schema version {d.get('schema_version')} != {RESULTS_SCHEMA_VERSION}")
        # null reads back as NaN, except where the field itself is optional
        d = {k: v if v is None and k in ("error", "sim") else _null_to_nan(v)
             for k, v in d.items() if k != "schema_version"}
        d["rate_vector"] = tuple(d["rate_vector"])
        return ResultRow(**d)


def _null_to_nan(value):
    if value is None:
        return float("nan")
    if isinstance(value, dict):
        return {k: _null_to_nan(v) for k, v in value.items()}
    return value


def value_of(row: ResultRow, name: str) -> float:
    """Resolve an objective column: totals by name, per-stratum entries as
    '<metric>:<stratum>' (e.g. 'welfare:low')."""
    if ":" in name:
        metric, stratum = name.split(":", 1)
        table = {
            "welfare": row.welfare,
            "welfare_delta": row.welfare_delta,
            "revenue": row.revenue,
            "trips_started": row.trips_started,
            "primary_share": row.primary_share_distance,
            "speed": row.avg_speed_trip,
        }.get(metric)
        if table is None or stratum not in table:
            raise KeyError(f"unknown objective {name!r}")
        return table[stratum]
    try:
        return getattr(row, name)
    except AttributeError:
        raise KeyError(f"unknown objective {name!r}")


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

    @staticmethod
    def from_file(path) -> "SweepConfig":
        with open(path) as fh:
            doc = json.load(fh)
        return SweepConfig.from_dict(doc, base=Path(path).parent)

    @staticmethod
    def from_dict(doc: dict, base: Path = Path(".")) -> "SweepConfig":
        g = doc["grid"]
        grid = PriceGrid(
            family=g["family"], lo=float(g["lo"]), hi=float(g["hi"]),
            step=float(g["step"]),
            strata_order=tuple(g.get("strata_order", ())),
            areas=tuple(g.get("areas", ())),
            ordered=bool(g.get("ordered", True)),
        )
        solver = solver_from_document(doc["solver"]) if "solver" in doc else None
        runs, seed = int(doc.get("runs_per_unit", 10)), int(doc.get("seed", 0))
        for key, value in (("runs_per_unit", runs), ("seed", seed)):
            if value < 0:
                raise InstanceError(f"sweep config: {key} must be >= 0, got {value}")
        return SweepConfig(
            instance=str(base / doc["instance"]),
            grid=grid,
            solver=solver,
            output=str(base / doc.get("output", "sweep_out")),
            workers=int(doc.get("workers", 1)),
            area_rows=int(doc.get("area_rows", 2)),
            area_cols=int(doc.get("area_cols", 2)),
            simulate=bool(doc.get("simulate", False)),
            runs_per_unit=runs,
            seed=seed,
        )


def _complete_grid(grid: PriceGrid, instance: Instance, areas) -> PriceGrid:
    if grid.family == PER_STRATUM and not grid.strata_order:
        grid = PriceGrid(family=grid.family, lo=grid.lo, hi=grid.hi, step=grid.step,
                         strata_order=stratum_price_order(instance),
                         ordered=grid.ordered)
    if grid.family == PER_AREA and not grid.areas:
        grid = PriceGrid(family=grid.family, lo=grid.lo, hi=grid.hi, step=grid.step,
                         areas=tuple(areas.area_names), ordered=grid.ordered)
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
            status["sim"] = {
                "trips_started": {s: summary[s]["started_proportion"] for s in names},
                "mean_time": {s: summary[s]["mean_time"] for s in names},
                "primary_share": {s: summary[s]["primary_share"] for s in names},
                "truncated": sim.truncated_count,
            }
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
    instance_doc, areas, solver, baseline_stats, simulate, runs, seed = payload
    _WORKER_STATE["instance"] = load_instance(instance_doc)
    _WORKER_STATE["areas"] = areas
    _WORKER_STATE["solver"] = solver
    _WORKER_STATE["baseline"] = baseline_stats
    _WORKER_STATE["sim"] = (simulate, runs, seed)


def _run_worker(spec: SchemeSpec) -> ResultRow:
    simulate, runs, seed = _WORKER_STATE["sim"]
    return _evaluate_scheme(
        _WORKER_STATE["instance"], spec, _WORKER_STATE["areas"],
        _WORKER_STATE["solver"], _WORKER_STATE["baseline"], simulate, runs, seed)


def run_sweep(config: SweepConfig, instance: Instance | None = None) -> list[ResultRow]:
    """Evaluate every scheme of the configured grid plus the toll-free
    baseline row.  Per-scheme failures land in the row's ``error`` field."""
    from .instance import instance_to_document

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

    out = Path(config.output)
    detail_dir = out / "schemes"
    detail_dir.mkdir(parents=True, exist_ok=True)

    sol0 = solve_equilibrium(
        instance, np.zeros((len(instance.strata), instance.network.n_arcs)), solver)
    baseline_stats = all_trip_stats(instance, sol0)

    done: dict[str, ResultRow] = {}
    pending = []
    for spec in schemes:
        path = detail_dir / f"{spec.scheme_id}.json"
        if path.exists():
            with open(path) as fh:
                done[spec.scheme_id] = ResultRow.from_dict(json.load(fh))
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
    candidates = [r for r in rows
                  if not math.isnan(objective.value(r))]
    if not candidates:
        raise ValueError("no rows with finite objective values")
    best = None
    best_val = -math.inf
    for r in candidates:
        v = objective.value(r)
        if v > best_val or (v == best_val and r.rate_vector < best.rate_vector):
            best, best_val = r, v
    return best


# ---------------------------------------------------------------------------
# Persistence

def _g17(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def csv_columns(stratum_names: list[str]) -> list[str]:
    cols = ["scheme_id", "family", "rates"]
    for name in STRATUM_METRICS:
        cols += [f"{name}_{s}" for s in stratum_names]
    return cols + [*TOTAL_METRICS, "converged", "inner_converged", "outer_residual",
                   "error"]


def _row_to_csv(row: ResultRow, stratum_names: list[str]) -> list[str]:
    vals = [row.scheme_id, row.family, row.rates_label]
    for name in STRATUM_METRICS:
        table = getattr(row, name)
        vals += [_g17(table[s]) for s in stratum_names]
    vals += [_g17(getattr(row, name)) for name in TOTAL_METRICS]
    return vals + [str(row.converged), str(row.inner_converged),
                   _g17(row.outer_residual), row.error or ""]


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
    manifest = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "scheme_ids": [r.scheme_id for r in rows],
        "strata": stratum_names,
    }
    write_json(out / "manifest.json", manifest)
    with open(out / "results.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(csv_columns(stratum_names))
        for r in rows:
            w.writerow(_row_to_csv(r, stratum_names))


def _write_detail(row: ResultRow, detail_dir: Path) -> None:
    write_json(detail_dir / f"{row.scheme_id}.json", row.to_dict())


def load_results(directory) -> list[ResultRow]:
    """Reload a persisted sweep; inverse of persist_results."""
    out = Path(directory)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        warnings.warn(f"no results manifest in {out}; returning empty table")
        return []
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("schema_version") != RESULTS_SCHEMA_VERSION:
        raise ResultSchemaError(
            f"results at {out} use schema version {manifest.get('schema_version')}, "
            f"expected {RESULTS_SCHEMA_VERSION}")
    rows = []
    for sid in manifest["scheme_ids"]:
        with open(out / "schemes" / f"{sid}.json") as fh:
            rows.append(ResultRow.from_dict(json.load(fh)))
    return rows


def write_frontier_csv(rows: list[ResultRow], objective_x: str, objective_y: str,
                       directory) -> Path:
    frontier = pareto_frontier(rows, objective_x, objective_y)
    safe = lambda s: s.replace(":", "_")
    path = Path(directory) / f"frontier_{safe(objective_x)}_{safe(objective_y)}.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["scheme_id", "rates", objective_x, objective_y])
        for r in frontier:
            w.writerow([r.scheme_id, r.rates_label,
                        _g17(value_of(r, objective_x)), _g17(value_of(r, objective_y))])
    return path
