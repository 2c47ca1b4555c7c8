"""Independent reference implementations used to freeze expected values.

Deliberately dumb: dense matrices, per-node Python loops, explicit Q-matrix
products, zero-initialized fixed points, no shared code with the library's
vectorized solvers.
"""

import numpy as np
import mpmath

from mteq.network import latency, monetary_cost


def phi_mp(z, beta, dps=60):
    with mpmath.workdps(dps):
        total = mpmath.fsum(mpmath.exp(-beta * mpmath.mpf(v)) for v in z)
        return float(-mpmath.log(total) / beta)


def probs_mp(z, beta, dps=60):
    with mpmath.workdps(dps):
        ws = [mpmath.exp(-beta * mpmath.mpf(v)) for v in z]
        total = mpmath.fsum(ws)
        return [float(w / total) for w in ws]


def outside_prob_mp(outside_cost, z, beta, beta_out, dps=60):
    with mpmath.workdps(dps):
        top = mpmath.exp(-beta_out * mpmath.mpf(outside_cost))
        bottom = top + mpmath.fsum(mpmath.exp(-beta * mpmath.mpf(v)) for v in z)
        return float(top / bottom)


def naive_tau(network, costs, dest, beta, tol=1e-13, max_iters=200000):
    """Zero-initialized fixed point, per-node loops, float128 accumulation."""
    n = network.n_nodes
    tau = np.zeros(n, dtype=np.longdouble)
    out_arcs = [np.nonzero(network.tail == i)[0] for i in range(n)]
    for _ in range(max_iters):
        new = np.zeros(n, dtype=np.longdouble)
        for i in range(n):
            if i == dest:
                continue
            z = [costs[a] + tau[network.head[a]] for a in out_arcs[i]]
            m = min(z)
            new[i] = m - np.log(sum(np.exp(-beta * (np.longdouble(v) - m)) for v in z)) / beta
        if np.max(np.abs(new - tau)) < tol:
            return np.asarray(new, dtype=float)
        tau = new
    raise RuntimeError("naive tau did not converge")


def naive_equilibrium(instance, rates, tol=1e-8, max_outer=20000):
    """Dense reference of the damped flow iteration; returns (f, per-pair v).

    Routing uses the explicit restricted matrix inverse and the Q-transpose
    product rather than the library's tail-probability shortcut.
    """
    net = instance.network
    n, m = net.n_nodes, net.n_arcs
    f = np.zeros(m)
    from mteq.instance import outside_costs
    oc = outside_costs(instance)

    for k in range(max_outer):
        t = np.array([latency(arc, f[j]) for j, arc in enumerate(net.arcs)])
        resp = np.zeros(m)
        vs = {}
        for s_idx, s in enumerate(instance.strata):
            kappa = np.array([monetary_cost(arc, rates[s_idx, j])
                              for j, arc in enumerate(net.arcs)])
            costs = t + (s.beta_p / s.beta_t) * kappa
            for d, (origins, trips) in instance.demand_by_destination(s.name).items():
                tau = naive_tau(net, costs, d, s.beta_t)
                P = np.zeros((n, n))
                p_arc = np.zeros(m)
                for i in range(n):
                    arcs_i = np.nonzero(net.tail == i)[0]
                    z = costs[arcs_i] + tau[net.head[arcs_i]]
                    w = np.exp(-s.beta_t * (z - z.min()))
                    w /= w.sum()
                    p_arc[arcs_i] = w
                    for a, p in zip(arcs_i, w):
                        P[i, net.head[a]] += p
                keep = np.array([i for i in range(n) if i != d])
                y = np.zeros(n)
                for o, g in zip(origins, trips):
                    z = costs[net.tail == o] + tau[net.head[net.tail == o]]
                    key = (s.name, net.node_id(int(o)), net.node_id(d))
                    denom = np.exp(-s.beta_t_out * oc[key]) + np.sum(np.exp(-s.beta_t * z))
                    p_out = np.exp(-s.beta_t_out * oc[key]) / denom
                    y[o] += g * (1.0 - p_out)
                A = np.eye(len(keep)) - P[np.ix_(keep, keep)].T
                x_sub = np.linalg.solve(A, y[keep])
                x = np.zeros(n)
                x[keep] = x_sub
                Q = np.zeros((n, m))
                for a in range(m):
                    if net.tail[a] != d:
                        Q[net.tail[a], a] = p_arc[a]
                v = Q.T @ x
                vs[(s.name, net.node_id(d))] = v
                resp += v
        gap = np.max(np.abs(f - resp))
        if gap <= tol:
            return f, vs
        alpha = max(0.125, 1.0 / (k + 1))
        f = (1 - alpha) * f + alpha * resp
    raise RuntimeError("naive equilibrium did not converge")


def simulate_reference(instance, solution, runs_per_unit=10, seed=0, step_cap=None,
                       keep_paths=False):
    """Monte Carlo trips one (stratum, origin, destination) at a time, each
    walked in lockstep from its own substream: the start uniforms of all its
    replicates, then one uniform per step for each started trip still
    walking, in trip order.  Returns ``SimulatedTrip`` rows in trip order
    (pair, then origin, then replicate); a trip's arcs are empty unless
    ``keep_paths``."""
    from mteq.metrics import SimulatedTrip

    net = instance.network
    if step_cap is None:
        step_cap = 50 * net.n_nodes
    arc_ids = np.array([a.id for a in net.arcs], dtype=object)
    # arc_of[i, k]: node i's k-th out-arc, clipped to its last
    width = int(net.out_degree.max())
    arc_of = np.minimum(net.out_start[:-1, None] + np.arange(width + 1),
                        net.out_start[1:, None] - 1)
    slot = np.arange(net.n_arcs) - net.out_start[net.tail]
    trips = []
    for (s_name, d_id), sd in sorted(solution.sub.items()):
        s_idx = instance.stratum_names.index(s_name)
        d = net.node_index[d_id]
        weights = np.column_stack([solution.arc_time,
                                   solution.price_rates[s_idx] * net.primary_length,
                                   net.length, net.primary_length])
        # cum[i, k]: cumulative probability of node i's first k+1 out-arcs
        # (one running sum minus its value before each node's first arc)
        cum = np.full((net.n_nodes, width), np.inf)
        run = np.cumsum(sd.arc_probs)
        before = np.concatenate(([0.0], run[net.out_start[1:-1] - 1]))
        cum[net.tail, slot] = run - np.repeat(before, np.diff(net.out_start))
        for pos, origin_idx in enumerate(sd.origins):
            o = int(origin_idx)
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(s_idx, o, d)))
            n_reps = int(round(sd.trips[pos])) * runs_per_unit
            started = rng.random(n_reps) < float(sd.start_prob[pos])
            n_walk = int(started.sum())
            live = np.arange(n_walk)
            node = np.full(n_walk, o)
            walker, arcs = [live[:0]], [live[:0]]
            for _ in range(step_cap):
                if not live.size:
                    break
                r = rng.random(live.size)
                a = arc_of[node, (cum[node] <= r[:, None]).sum(axis=1)]
                walker.append(live)
                arcs.append(a)
                node = net.head[a]
                moving = node != d
                live, node = live[moving], node[moving]
            truncated = np.zeros(n_walk, dtype=bool)
            truncated[live] = True
            walker, arcs = np.concatenate(walker), np.concatenate(arcs)
            time, money, dist, prim = (
                np.bincount(walker, weights=weights[arcs, j], minlength=n_walk).tolist()
                for j in range(4))
            if keep_paths:
                ids = arc_ids[arcs[np.argsort(walker, kind="stable")]].tolist()
                ends = np.cumsum(np.bincount(walker, minlength=n_walk)).tolist()
                paths = [ids[lo:hi] for lo, hi in zip([0] + ends, ends)]
            else:
                paths = [[] for _ in range(n_walk)]
            walks = zip(paths, time, money, dist, prim, truncated.tolist())
            o_id = net.node_id(o)
            for is_started in started.tolist():
                trips.append(
                    SimulatedTrip(s_name, o_id, d_id, True, *next(walks)) if is_started else
                    SimulatedTrip(s_name, o_id, d_id, False, [], 0.0, 0.0, 0.0, 0.0, False))
    return trips
