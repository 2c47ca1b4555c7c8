"""Uniform vs per-stratum vs per-area pricing, compared by sweep.

Evaluates full price grids for the three scheme families on the single-OD
instance, then extracts Pareto frontiers (low-income welfare against total
revenue) and the revenue-optimal scheme per family.  On this network area
pricing replicates uniform pricing exactly, because every tolled arc enters
from the same area; per-stratum pricing genuinely expands the frontier.
"""

import tempfile
from pathlib import Path

from mteq import (
    PriceGrid,
    ScalarizedObjective,
    SolverOptions,
    SweepConfig,
    best_scalarized,
    gen_single_od,
    pareto_frontier,
    run_sweep,
    save_instance,
    stratum_price_order,
    value_of,
)

instance = gen_single_od()
solver = SolverOptions(outer_tol=1e-5, outer_max_iters=3000)

grids = {
    "uniform": PriceGrid(family="uniform", lo=0, hi=1, step=0.125),
    "per_stratum": PriceGrid(family="per_stratum", lo=0, hi=1, step=0.25,
                             strata_order=stratum_price_order(instance)),
    "per_area": PriceGrid(family="per_area", lo=0, hi=1, step=0.5),
}

tables = {}
with tempfile.TemporaryDirectory() as tmp:  # the sweeps' files go with it
    workdir = Path(tmp)
    save_instance(instance, workdir / "single_od.json")
    for family, grid in grids.items():
        config = SweepConfig(instance=str(workdir / "single_od.json"), grid=grid,
                             solver=solver, output=str(workdir / family))
        tables[family] = run_sweep(config)
        print(f"{family}: evaluated {len(tables[family])} schemes")

print("\nrevenue-optimal scheme per family:")
for family, rows in tables.items():
    best = max((r for r in rows if not r.error), key=lambda r: r.total_revenue)
    print(f"  {family:>12}: {best.rates_label:<28} revenue {best.total_revenue:10.1f} "
          f"low-income dW {best.welfare_delta['low']:8.3f}")

print("\nbest low-income welfare (lambda = 1 scalarization):")
obj = ScalarizedObjective(stratum="low", lam=1.0)
for family, rows in tables.items():
    best = best_scalarized(rows, obj)
    print(f"  {family:>12}: {best.rates_label:<28} low-income W {best.welfare['low']:8.3f}")

print("\nPareto frontier (x = total_revenue, y = welfare:low):")
for family, rows in tables.items():
    frontier = pareto_frontier(rows, "total_revenue", "welfare:low")
    pts = sorted((round(value_of(r, "total_revenue"), 1),
                  round(value_of(r, "welfare:low"), 3)) for r in frontier)
    print(f"  {family:>12}: {len(frontier)} points: {pts}")

print("\npricing only the entry area replicates the uniform toll exactly:")
uniform_by_rate = {r.rate_vector[0]: r for r in tables["uniform"] if r.family == "uniform"}
for row in tables["per_area"]:
    if row.family != "per_area":
        continue
    rates = dict(zip(("E", "N", "S"), row.rate_vector))
    if rates["E"] == rates["S"] == 0.0 and rates["N"] in uniform_by_rate:
        uni = uniform_by_rate[rates["N"]]
        match = abs(row.total_revenue - uni.total_revenue) < 1e-9
        print(f"  N={rates['N']:<4} revenue {row.total_revenue:8.3f} "
              f"== uniform p={rates['N']:<5} revenue {uni.total_revenue:8.3f}  ({match})")
print("(both primary arcs enter from the N cell; with spatially separated")
print("demand, per-area pricing would instead expand the frontier)")
