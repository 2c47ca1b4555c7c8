"""Monte Carlo trips against the analytic expectations.

Replays every demand unit ten times through the equilibrium transition
probabilities and compares simulated trip statistics to the closed-form
absorbing-chain expectations.  The two agree within sampling error, which
is the point: the simulator gives trajectory-level detail, the linear
systems give the exact means.

The standard error of the mean time comes from the chain's exact second
moment rather than from the sample: detours with a few expected
occurrences in 5000 trips often do not occur at all, and the sample spread
then understates the noise.
"""

import math

import numpy as np

from mteq import (
    SchemeSpec,
    SolverOptions,
    expand_scheme,
    gen_single_od,
    primary_flow_share,
    simulate_trips,
    solve_equilibrium,
)
from mteq.metrics import all_trip_stats

instance = gen_single_od()
options = SolverOptions(outer_tol=1e-6, outer_max_iters=3000)
prices = expand_scheme(SchemeSpec(family="uniform", rate=0.5), instance)
solution = solve_equilibrium(instance, prices, options)
stats = all_trip_stats(instance, solution)

net = instance.network


def time_sd(stratum, destination="3", origin="0"):
    """Exact standard deviation of one trip's drive time: the mean T and the
    second moment S solve T_i = sum_a P_ia (t_a + T_head) and
    S_i = sum_a P_ia (t_a^2 + 2 t_a T_head + S_head), both 0 at the
    destination; four nodes make them small dense systems."""
    sd = solution.sub[(stratum, destination)]
    d, o = net.node_index[destination], net.node_index[origin]
    live, t = net.tail != d, solution.arc_time
    chain = np.eye(net.n_nodes)  # I - P, the destination absorbing
    np.add.at(chain, (net.tail[live], net.head[live]), -sd.arc_probs[live])

    def expected(weight):  # of the summed arc weight of a walk to d
        step = np.zeros(net.n_nodes)
        np.add.at(step, net.tail[live], sd.arc_probs[live] * weight[live])
        return np.linalg.solve(chain, step)

    mean = expected(t)
    second = expected(t * t + 2 * t * mean[net.head])
    return math.sqrt(second[o] - mean[o] ** 2)


report = simulate_trips(instance, solution, runs_per_unit=10, seed=42)
print(f"simulated {len(report.started)} trips "
      f"({report.truncated_count} truncated)\n")

print(f"{'stratum':>8} | {'metric':>14} | {'analytic':>10} | {'simulated':>10} | {'gap/se':>7}")
print("-" * 64)
completed = report.started & ~report.truncated
for s in instance.stratum_names:
    row = stats[(s, "0", "3")]
    done = completed & (report.stratum == report.stratum_names.index(s))
    times, dist, prim = report.time[done], report.distance[done], report.primary_distance[done]

    mean_t = times.mean()
    se_t = time_sd(s) / math.sqrt(len(times))
    share_sim = prim.sum() / dist.sum()
    share_ana = primary_flow_share(solution, s, instance)
    se_share = math.sqrt(np.sum((prim - share_sim * dist) ** 2)) / dist.sum()

    print(f"{s:>8} | {'mean time (h)':>14} | {row.time:10.5f} | {mean_t:10.5f} | "
          f"{abs(mean_t - row.time) / se_t:7.2f}")
    print(f"{s:>8} | {'primary share':>14} | {share_ana:10.5f} | {share_sim:10.5f} | "
          f"{(abs(share_sim - share_ana) / se_share if se_share else 0.0):7.2f}")

print("""
Gaps sit within a few standard errors of the replication noise.  Analytic
values come from the absorbing-chain solves of all_trip_stats; the
simulator exists for trajectory output and as an independent cross-check.
""")
