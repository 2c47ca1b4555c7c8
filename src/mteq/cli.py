"""Command-line surface.

Subcommands: ``solve`` one scheme to equilibrium plus metrics, ``sweep`` a
price grid, ``pareto`` post-process a results directory, ``simulate`` Monte
Carlo on a stored solution, ``generate`` synthetic instances, ``validate``
an instance file.  Exit codes: 0 success, 1 invalid input (a flag, or a file
that cannot be read or is malformed, naming it) or an output path that cannot
be written, 2 solver non-convergence (outputs are still written), 3 solver failure
(``FeasibilityError``: no finite equilibrium at the given costs, or
``SolverError``: a numerically failed subproblem; nothing is written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import synthgen
from .chain import FeasibilityError
from .equilibrium import SolverError, read_solution, solution_to_dict, solve_equilibria
from .experiments import SweepConfig, load_results, run_sweep, write_frontier_csv
from .instance import SolverOptions, assign_areas, load_instance, nan_to_null, save_instance
from .metrics import (all_trip_stats, compute_metrics, simulate_trips,
                      write_metrics_csvs)
from .network import InstanceError, read_json, strongly_connected, write_json
from .pricing import (PER_AREA, PER_STRATUM, UNIFORM, PriceGrid, SchemeSpec,
                      expand_scheme)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_CONVERGED = 2
EXIT_SOLVER_FAILED = 3


def _parse_rates(text: str) -> dict[str, str]:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise InstanceError(f"--rates: bad entry {part!r}; expected name=value")
        name, val = part.split("=", 1)
        out[name.strip()] = val
    return out


def _scheme_from_args(args) -> SchemeSpec:
    if args.scheme == "uniform":
        if args.rate is None:
            raise InstanceError("--scheme uniform needs --rate")
        return SchemeSpec(family=UNIFORM, rate=args.rate)
    if args.rates is None:
        raise InstanceError(f"--scheme {args.scheme} needs --rates name=value,...")
    rates = tuple(sorted(_parse_rates(args.rates).items()))
    if args.scheme == "stratum":
        return SchemeSpec(family=PER_STRATUM, stratum_rates=rates)
    return SchemeSpec(family=PER_AREA, area_rates=rates)


def _solver_from_args(args, base: SolverOptions) -> SolverOptions:
    flags = {"outer_tol": args.tol_outer, "outer_max_iters": args.max_outer}
    return replace(base, **{key: value for key, value in flags.items() if value is not None})


def _split(text: str, sep: str, count: int, flag: str, form: str) -> list[str]:
    """The ``count`` parts of ``text`` between ``sep``, as ``form`` describes them."""
    parts = text.split(sep)
    if len(parts) != count:
        raise InstanceError(f"{flag} must be {form}, got {text!r}")
    return parts


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    solver = _solver_from_args(args, instance.solver)
    scheme = _scheme_from_args(args)
    areas = None
    if scheme.family == PER_AREA:
        areas = assign_areas(instance, *_split(args.areas, "x", 2, "--areas", "ROWSxCOLS"))
    prices = expand_scheme(scheme, instance, areas)

    log_fn = None
    if args.verbose:
        log_fn = lambda rec: print(json.dumps(rec), file=sys.stderr)

    # the toll-free baseline (scheme 0) and the priced scheme (1) in one outer loop
    sol0, sol = solve_equilibria(instance, [np.zeros_like(prices), prices], solver,
                                 log_fn=log_fn)
    report = compute_metrics(instance, sol, all_trip_stats(instance, sol0),
                             scheme_id=scheme.scheme_id)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "solution.json", solution_to_dict(sol, instance.network))
    write_json(out / "metrics.json", report.to_dict())
    write_metrics_csvs(report, out)
    print(f"scheme {scheme.scheme_id}: converged={sol.converged} "
          f"residual={sol.outer_residual:.6g} -> {out}")
    return EXIT_OK if sol.converged and sol0.converged else EXIT_NOT_CONVERGED


def _cmd_sweep(args) -> int:
    if args.config is not None:
        config = SweepConfig.from_file(args.config)
    else:
        if args.instance is None or args.scheme is None or args.grid is None:
            raise InstanceError("sweep needs --config, or --instance with --scheme and --grid")
        family = {"uniform": UNIFORM, "stratum": PER_STRATUM, "area": PER_AREA}[args.scheme]
        lo, hi, step = _split(args.grid, ":", 3, "--grid", "LO:HI:STEP")
        rows_, cols_ = _split(args.areas, "x", 2, "--areas", "ROWSxCOLS")
        config = SweepConfig(instance=args.instance,
                             grid=PriceGrid(family=family, lo=lo, hi=hi, step=step),
                             area_rows=rows_, area_cols=cols_)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    if args.out is not None:
        config.output = args.out
    rows = run_sweep(config)
    bad = [r for r in rows if r.error]
    unconverged = [r for r in rows if not r.error and not r.converged]
    print(f"sweep: {len(rows)} schemes -> {config.output} "
          f"({len(bad)} failed, {len(unconverged)} not converged)")
    return EXIT_NOT_CONVERGED if (bad or unconverged) else EXIT_OK


def _cmd_pareto(args) -> int:
    rows = load_results(args.results)
    if not rows:
        raise InstanceError(f"no results found in {args.results}")
    path = write_frontier_csv(rows, args.x, args.y, args.results)
    print(f"frontier ({args.x} vs {args.y}): {path}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    instance = load_instance(args.instance)
    sol = read_solution(args.solution, instance.network)
    sol.check_strata(instance.stratum_names, args.solution)
    report = simulate_trips(instance, sol, runs_per_unit=args.runs, seed=args.seed,
                            keep_paths=args.keep_paths)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "seed": report.seed,
        "runs_per_unit": report.runs_per_unit,
        "step_cap": report.step_cap,
        "truncated": report.truncated_count,
        # an undefined aggregate (NaN: the stratum never drives) is written as null
        "per_stratum": nan_to_null(report.summary(instance.stratum_names)),
    }
    write_json(out / "simulation.json", doc)
    if args.keep_paths:
        # every field of a simulated trip but its primary distance
        trips = [{k: v for k, v in vars(t).items() if k != "primary_distance"}
                 for t in report.trips]
        write_json(out / "trips.json", trips)
    print(f"simulated {len(report.started)} trips -> {out}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.kind == "single-od":
        instance = synthgen.gen_single_od()
    else:
        if args.spec is not None:
            instance = read_json(args.spec, lambda doc: synthgen.gen_grid(
                synthgen.GridGenSpec.from_dict(doc)))
        else:
            instance = synthgen.gen_grid(synthgen.GridGenSpec(rows=args.rows, cols=args.cols,
                                                              seed=args.seed))
    save_instance(instance, args.out)
    net = instance.network
    print(f"wrote {args.out}: {net.n_nodes} nodes, {net.n_arcs} arcs "
          f"({int(net.is_primary.sum())} primary), {len(instance.demand)} demand entries")
    return EXIT_OK


def _cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    net = instance.network
    problems = []
    if not strongly_connected(net):
        problems.append("network is not strongly connected (run extract_core)")
    if int(net.out_degree.min()) < 1:
        problems.append("some node has no outgoing arc")
    if problems:
        for p in problems:
            print(f"INVALID: {p}", file=sys.stderr)
        return EXIT_INVALID
    print(f"ok: {net.n_nodes} nodes, {net.n_arcs} arcs, "
          f"{len(instance.strata)} strata, {len(instance.demand)} demand entries")
    return EXIT_OK


@functools.cache  # built once: run parses with it, never changes it
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mteq",
                                description="Markovian traffic equilibria and congestion pricing")
    sub = p.add_subparsers(dest="command", required=True)

    sv = sub.add_parser("solve", help="solve one pricing scheme to equilibrium")
    sv.add_argument("--instance", required=True)
    sv.add_argument("--scheme", choices=["uniform", "stratum", "area"], required=True)
    sv.add_argument("--rate", help="uniform rate (money/km)")
    sv.add_argument("--rates", help="per-stratum or per-area rates: name=value,...")
    sv.add_argument("--areas", default="2x2", help="area grid RxC for --scheme area")
    sv.add_argument("--out", default="solve_out")
    sv.add_argument("--seed", help="ignored: solving draws no random numbers")
    sv.add_argument("--tol-outer", dest="tol_outer")
    sv.add_argument("--max-outer", dest="max_outer")
    # kept: perfbench/workloads.py passes them; see ROADMAP "The benchmark reads the program"
    sv.add_argument("--tol-inner", help="ignored: expected costs meet a fixed tolerance")
    sv.add_argument("--max-inner", help="ignored: expected costs need no iteration cap")
    sv.add_argument("--verbose", action="store_true",
                    help="stream iteration log as JSON lines on stderr")
    sv.set_defaults(fn=_cmd_solve)

    sw = sub.add_parser("sweep", help="grid-search pricing schemes")
    sw.add_argument("--config", help="sweep config JSON")
    sw.add_argument("--instance", help="instance path (config-free mode)")
    sw.add_argument("--scheme", choices=["uniform", "stratum", "area"])
    sw.add_argument("--grid", help="price grid LO:HI:STEP")
    sw.add_argument("--areas", default="2x2")
    sw.add_argument("--workers")
    sw.add_argument("--out")
    sw.set_defaults(fn=_cmd_sweep)

    pa = sub.add_parser("pareto", help="extract a Pareto frontier from sweep results")
    pa.add_argument("--results", required=True)
    pa.add_argument("--x", required=True, help="objective column, e.g. total_welfare")
    pa.add_argument("--y", required=True, help="objective column, e.g. welfare:low")
    pa.set_defaults(fn=_cmd_pareto)

    si = sub.add_parser("simulate", help="Monte Carlo trips on a stored solution")
    si.add_argument("--instance", required=True)
    si.add_argument("--solution", required=True, help="solution.json from solve")
    si.add_argument("--runs", default=10, help="runs per demand unit")
    si.add_argument("--seed", default=0)
    si.add_argument("--out", default="simulate_out")
    si.add_argument("--keep-paths", action="store_true", dest="keep_paths")
    si.set_defaults(fn=_cmd_simulate)

    ge = sub.add_parser("generate", help="emit a synthetic instance")
    ge.add_argument("kind", choices=["single-od", "grid"])
    ge.add_argument("--out", required=True)
    ge.add_argument("--rows", default=10)
    ge.add_argument("--cols", default=10)
    ge.add_argument("--seed", default=0)
    ge.add_argument("--spec", help="grid spec JSON file (overrides flags)")
    ge.set_defaults(fn=_cmd_generate)

    va = sub.add_parser("validate", help="check an instance file")
    va.add_argument("--instance", required=True)
    va.set_defaults(fn=_cmd_validate)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (InstanceError, OSError) as exc:  # invalid input, or an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (FeasibilityError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
