"""Primary-road usage on a lattice city orders by willingness to pay.

A 6x6 lattice mixes one-way primary couplets with a bidirectional secondary
mesh.  All strata share the same OD demand, so any usage differences under
a uniform toll are purely behavioral.  The stratum ordering of primary-road
usage follows the willingness-to-pay ordering, whichever stratum it is
assigned to.
"""

import warnings

from mteq import (
    GridGenSpec,
    Instance,
    SchemeSpec,
    SolverOptions,
    Stratum,
    expand_scheme,
    gen_grid,
    primary_flow_share,
    solve_equilibrium,
)

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    instance = gen_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7))

options = SolverOptions(outer_tol=1e-4, outer_max_iters=2000)
net = instance.network
print(f"lattice: {net.n_nodes} nodes, {net.n_arcs} arcs "
      f"({int(net.is_primary.sum())} primary), "
      f"{len(instance.demand) // 3} OD pairs per stratum\n")


def shares(inst, toll):
    prices = expand_scheme(SchemeSpec(family="uniform", rate=toll), inst)
    sol = solve_equilibrium(inst, prices, options)
    return {s: primary_flow_share(sol, s, inst) for s in inst.stratum_names}


print("primary-flow share by stratum (price sensitivities 0.5/0.7/1.0):")
print(f"{'toll/km':>8} | {'low':>8} | {'mid':>8} | {'high':>8}")
for toll in [0.0, 1.0, 2.0, 3.0, 5.0, 8.0]:
    sh = shares(instance, toll)
    print(f"{toll:>8.0f} | {sh['low']:8.4f} | {sh['mid']:8.4f} | {sh['high']:8.4f}")

print("\nswapping the sensitivities moves the disadvantage with them:")
flipped = Instance(
    network=instance.network,
    strata=[Stratum(name=s.name,
                    beta_t=s.beta_t,
                    beta_p={"high": 1.0, "mid": 0.7, "low": 0.5}[s.name],
                    beta_t_out=s.beta_t_out, beta_p_out=s.beta_p_out)
            for s in instance.strata],
    demand=instance.demand, outside=instance.outside,
    car_length_km=instance.car_length_km, solver=instance.solver)
for toll in [2.0, 5.0]:
    sh = shares(flipped, toll)
    print(f"{toll:>8.0f} | {sh['low']:8.4f} | {sh['mid']:8.4f} | {sh['high']:8.4f}"
          "   (low now least price-sensitive)")

print("""
With the default sensitivities the low-income stratum always uses primary
roads the least once tolls bind.  After swapping sensitivities the ordering
flips with them: the pattern tracks willingness to pay, not the label.
""")
