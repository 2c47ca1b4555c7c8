"""Tolling one of two routes: who keeps driving on the highway?

A four-node network carries 1500 trips (500 per income stratum) from node 0
to node 3 over two routes: a free secondary street and a faster-per-km but
longer primary route that gets tolled.  Sweeping the uniform per-km toll
shows the classic inequity pattern: the most price-sensitive stratum
abandons the tolled road first, while welfare losses mount fastest for it.
"""

import numpy as np

from mteq import (
    SchemeSpec,
    SolverOptions,
    all_trip_stats,
    compute_metrics,
    expand_scheme,
    gen_single_od,
    primary_flow_share,
    solve_equilibrium,
    zero_prices,
)

instance = gen_single_od()
options = SolverOptions(inner_tol=1e-9, outer_tol=1e-5, outer_max_iters=3000)

print("network:", instance.network.n_nodes, "nodes,",
      instance.network.n_arcs, "arcs,",
      int(instance.network.is_primary.sum()), "primary arcs")
print("demand: 500 trips per stratum from node 0 to node 3\n")

baseline_solution = solve_equilibrium(instance, zero_prices(instance), options)
baseline = all_trip_stats(instance, baseline_solution)

header = f"{'toll/km':>8} | " + " | ".join(
    f"{s:>5} share" for s in instance.stratum_names) + " | " + " | ".join(
    f"{s:>8} dW" for s in instance.stratum_names) + f" | {'revenue':>10}"
print(header)
print("-" * len(header))

for p in [0, 0.25, 0.5, 1, 1.5, 2, 3, 5]:
    prices = expand_scheme(SchemeSpec(family="uniform", rate=float(p)), instance)
    sol = solve_equilibrium(instance, prices, options)
    report = compute_metrics(instance, sol, baseline)
    shares = [primary_flow_share(sol, s, instance) for s in instance.stratum_names]
    deltas = [report.welfare_delta[s] for s in instance.stratum_names]
    print(f"{p:>8.2f} | " + " | ".join(f"{x:11.4f}" for x in shares)
          + " | " + " | ".join(f"{x:11.4f}" for x in deltas)
          + f" | {report.total_revenue:>10.1f}")

print("""
Reading the table: the 'high' stratum (price sensitivity 0.5) keeps using
the tolled primary route well past the point where the 'low' stratum
(sensitivity 1.0) has fled to the secondary street, and the welfare drop
per trip is steepest for the strata that keep paying.  Revenue rises and
then falls as the toll chokes off primary traffic.
""")
