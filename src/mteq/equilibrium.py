"""Equilibrium flow computation.

The arc flows of a Markovian traffic equilibrium reproduce themselves: flows
determine congested times, times determine per-stratum expected optimal
costs (a logit fixed point per stratum and destination), costs determine
choice and trip-start probabilities, and those probabilities route the
demand back onto the arcs.  The solver's outer loop runs Anderson mixing on
the flow vector.  Given the arc costs, the (stratum, destination) routings
are independent, so each routing pass batches all of them: one Dijkstra call
for the shortest-cost bounds, then one sparse LU factorization per block of
pairs (``network.MAX_BLOCK_ROWS``) that gives both the expected costs and the
node throughputs.  ``solve_tau`` and ``flows_for_destination`` are the
one-pair case.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu, spsolve  # noqa: F401 (perfbench traces spsolve)

from . import choice
from .network import Network, shortest_costs


class FeasibilityError(RuntimeError):
    """No finite expected optimal costs at the given costs (the arc weights
    exp(-beta_t * cost) have spectral radius >= 1), so no equilibrium exists;
    typically the logit time sensitivity is too small for the arc costs."""


class SolverError(RuntimeError):
    """Numerical failure inside a subproblem (singular routing system)."""


@dataclass
class SolverOptions:
    """Tolerances and the outer iteration cap.

    Expected costs are an exact linear solve; ``inner_tol`` only bounds the
    fixed-point residual that certifies them (``TauResult.converged``) and
    never changes the solution.  The outer loop stops once the sup-norm gap
    between the flow iterate and its response is at most ``outer_tol``, or
    after ``outer_max_iters`` routing passes.
    """

    inner_tol: float = 1e-1
    outer_tol: float = 10.0
    outer_max_iters: int = 10

    def __post_init__(self):
        if self.inner_tol <= 0 or self.outer_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.outer_max_iters < 1:
            raise ValueError("outer_max_iters must be >= 1")


@dataclass
class TauResult:
    tau: np.ndarray
    converged: bool
    iterations: int
    residual: float


@dataclass
class StratumDestinationSolution:
    """Routing of one stratum toward one destination at fixed arc times."""

    stratum: str
    destination: str
    tau: np.ndarray            # expected optimal cost per node, tau[dest] = 0
    entering_flow: np.ndarray  # x per node
    arc_flow: np.ndarray       # v per arc (storage order)
    arc_probs: np.ndarray      # choice probability per arc at its tail node
    origins: np.ndarray        # node indices with positive demand
    trips: np.ndarray          # demand per origin
    start_prob: np.ndarray     # 1 - P_outside per origin
    tau_converged: bool
    tau_residual: float
    tau_iterations: int

    def started_demand(self) -> float:
        return float(np.sum(self.trips * self.start_prob))


@dataclass
class EquilibriumSolution:
    """Converged (or capped, see ``converged``) equilibrium state.

    ``total_flow`` is the outer iterate at which the final routing pass was
    solved and ``arc_time`` its congested times; ``response_flow`` is the
    demand-weighted flow those times induce.  At convergence the two agree
    to within ``outer_residual <= outer_tol``.
    """

    total_flow: np.ndarray
    arc_time: np.ndarray
    response_flow: np.ndarray
    sub: dict
    stratum_flow: dict
    price_rates: np.ndarray
    converged: bool
    inner_converged: bool
    outer_iterations: int
    outer_residual: float
    iteration_log: list = field(default_factory=list)

    def subsolution(self, stratum: str, destination: str) -> StratumDestinationSolution:
        return self.sub[(stratum, destination)]


def solve_tau(network: Network, costs: np.ndarray, destination: int, beta_t: float,
              tau_init: np.ndarray, options: SolverOptions) -> TauResult:
    """Expected optimal costs at fixed arc costs, by one sparse linear solve.

    The recursion tau = phi(costs + tau[head]), tau[destination] = 0, is
    linear in exp-space (Akamatsu 1996; Fosgerau, Frejinger & Karlstrom
    2013): X = exp(-beta_t * (tau - tau_init)) solves (I - W) X = e_d, with
    w_a = exp(-beta_t * (costs_a + tau_init[head] - tau_init[tail])) and the
    destination's row of W zero.  Scaled by the shortest-cost bound, every
    weight is at most 1 and X at least 1, so nothing underflows.

    ``converged`` means the fixed-point residual, certified after at most one
    iterative-refinement retry, is at most ``inner_tol``; ``iterations``
    counts the solves.  Raises FeasibilityError when X is not finite and
    positive, which (every node reaching the destination) happens exactly
    when exp(-beta_t * costs) has spectral radius >= 1.
    """
    if not np.all(np.isfinite(tau_init)):
        raise ValueError("tau_init must be finite")
    costs = np.asarray(costs, dtype=float)[None]
    tau, residual, _probs, _log_denom, solves, _lu, _x = _expected_costs(
        network, costs, np.array([destination]), beta_t, np.asarray(tau_init, dtype=float)[None],
        options.inner_tol, network.chain_matrix(np.zeros_like(costs), destination).T)
    return TauResult(tau=tau[0], converged=bool(residual[0] <= options.inner_tol),
                     iterations=solves, residual=float(residual[0]))


def _expected_costs(network: Network, costs: np.ndarray, dest: np.ndarray, beta,
                    tau_init: np.ndarray, inner_tol: float, chain):
    """solve_tau for k (cost row, destination) pairs at once: ``costs`` is
    (k, m), ``beta`` a scalar or (k, 1) column and ``tau_init`` the (k, n)
    shortest-cost bounds.  Their block-diagonal (I - W)^T is refilled into
    ``chain``, its CSC pattern, and factored once; a residual above
    ``inner_tol`` in any pair refines the whole block once with the same
    factors.  Returns tau (k, n), the per-pair residual, the logit choice
    probabilities and log-denominators at tau, the number of solves, and the
    factors with their solution X (k, n)."""
    k, n = tau_init.shape
    pair = np.arange(k)
    tau_ref = tau_init.copy()
    tau_ref[pair, dest] = 0.0
    weights = np.exp(-beta * (costs + tau_ref[:, network.head] - tau_ref[:, network.tail]))
    lu = splu(network.chain_matrix(weights, dest, out=chain))
    e_d = np.zeros(k * n)
    e_d[pair * n + dest] = 1.0

    def certify(x):
        x = x.reshape(k, n)
        if not (np.all(np.isfinite(x)) and float(x.min()) > 0.0):
            raise FeasibilityError(
                "expected optimal costs are unbounded (spectral radius of the arc "
                "weights >= 1); agents do not reach the destination in finite "
                "expected cost")
        tau = tau_ref - np.log(x) / beta
        tau[pair, dest] = 0.0
        return (tau, *_fixed_point(network, costs, dest, beta, tau))

    x = lu.solve(e_d, trans="T")
    certified = certify(x)
    solves = 1
    if np.any(certified[1] > inner_tol):
        x = x + lu.solve(e_d - chain.T @ x, trans="T")
        certified = certify(x)
        solves = 2
    return (*certified, solves, lu, x.reshape(k, n))


def _fixed_point(network: Network, costs: np.ndarray, dest: np.ndarray, beta,
                 tau: np.ndarray):
    """Per-row sup-norm residual of tau = phi(costs + tau[head]),
    tau[dest] = 0, for (k, n) ``tau``, with the choice probabilities and
    log-denominators of the same kernel pass."""
    phi, probs, log_denom = choice.logit_nodes(
        costs + tau[:, network.head], beta, network.out_start)
    phi[np.arange(len(dest)), dest] = 0.0
    return np.max(np.abs(phi - tau), axis=1), probs, log_denom


def flows_for_destination(network: Network, tau: np.ndarray, costs: np.ndarray,
                          beta_t: float, origins: np.ndarray, trips: np.ndarray,
                          outside_cost: np.ndarray, beta_t_out: float,
                          destination: int, *, stratum: str = "",
                          tau_result: TauResult | None = None) -> StratumDestinationSolution:
    """Route one (stratum, destination) demand column at fixed costs.

    Demand at each origin is first scaled by the start probability against
    the outside option, then pushed through the choice chain: node
    throughputs x solve (I - P^T) x = y, with the destination absorbing
    (x = 0 there), and arc flows follow as v = x[tail] * P: _route with X = 1.
    """
    _phi, probs, log_denom = choice.logit_nodes(
        costs + tau[network.head], beta_t, network.out_start)
    origins = np.asarray(origins)
    trips = np.asarray(trips, dtype=float)
    lu = splu(network.chain_matrix(probs, destination).T)
    p_start, x, v = _route(network, probs[None], log_denom[None], np.array([destination]),
                           np.zeros(len(origins), dtype=np.int64), origins, trips,
                           outside_cost, beta_t_out, lu, np.ones((1, network.n_nodes)))
    tr = tau_result or TauResult(tau, True, 0, 0.0)
    return StratumDestinationSolution(
        stratum=stratum,
        destination=network.node_id(destination),
        tau=tau,
        entering_flow=x[0],
        arc_flow=v[0],
        arc_probs=probs,
        origins=origins,
        trips=trips,
        start_prob=p_start,
        tau_converged=tr.converged,
        tau_residual=tr.residual,
        tau_iterations=tr.iterations,
    )


def _route(network: Network, probs: np.ndarray, log_denom: np.ndarray, dest: np.ndarray,
           pair: np.ndarray, origins: np.ndarray, trips: np.ndarray, outside_cost,
           beta_t_out, lu, X: np.ndarray):
    """flows_for_destination for k demand columns at once, from their (k, m)
    choice probabilities and (k, n) log-denominators.  ``pair``, ``origins``,
    ``trips``, ``outside_cost`` and ``beta_t_out`` run over the origins of
    all columns, ``pair`` naming each one's column.  ``lu`` factors (I - W)^T
    and ``X`` (k, n) solves (I - W) X = e_d, so P = D^-1 W D, D = diag(X), and
    (I - P^T) x = y is (I - W)^T (x / X) = y / X.  Returns the start
    probability per origin, throughputs x (k, n) and arc flows v (k, m)."""
    k, n = log_denom.shape
    column = np.arange(k)
    _p_out, p_start = choice.outside_prob_from_log_denominator(
        outside_cost, log_denom[pair, origins], beta_t_out)

    y = np.zeros((k, n))
    np.add.at(y, (pair, origins), trips * p_start)
    y[column, dest] = 0.0

    live = np.where(network.tail == dest[:, None], 0.0, probs)  # absorbed at dest
    into = (network.head + n * column[:, None]).ravel()

    def residual(x):  # y - (I - P^T) x as arc-flow conservation under probs
        inflow = np.bincount(into, (x[:, network.tail] * live).ravel(), minlength=k * n)
        return y - x + inflow.reshape(k, n)

    def solve(rhs):
        return X * lu.solve((rhs / X).ravel()).reshape(k, n)

    x = solve(y)
    scale = np.maximum(1.0, np.max(np.abs(y), axis=1))
    r = residual(x)
    resid = np.max(np.abs(r), axis=1)
    if np.any(resid > 1e-8 * scale):
        x = x + solve(r)
        resid = np.max(np.abs(residual(x)), axis=1)
        worst = int(np.argmax(resid / scale))
        if resid[worst] > 1e-6 * scale[worst]:
            raise SolverError(
                f"routing system ill-conditioned for destination "
                f"{network.node_id(dest[worst])!r} (residual {resid[worst]:.3e})")
    worst = int(np.argmin(x.min(axis=1) / scale))
    if float(x[worst].min()) < -1e-7 * scale[worst]:
        raise SolverError(
            f"negative node throughput for destination "
            f"{network.node_id(dest[worst])!r}; routing matrix not substochastic")
    x = np.maximum(x, 0.0)
    x[column, dest] = 0.0  # the trips it absorbs leave the network
    return p_start, x, x[:, network.tail] * probs


def _arc_costs(strata, net: Network, rates: np.ndarray, arc_time: np.ndarray) -> np.ndarray:
    """Generalized arc costs, (n_strata, n_arcs): time plus each stratum's
    toll ``rates * net.primary_length`` at its beta_p / beta_t."""
    ratio = np.array([[s.beta_p / s.beta_t] for s in strata])
    return arc_time + ratio * (rates * net.primary_length)


class _RoutingPlan:
    """Every (stratum, destination) demand column of a solve, flattened once
    so that a routing pass is one batched call: the pair order (strata in
    instance order, destinations ascending), each pair's stratum index,
    destination and sensitivities, the origins, trips and outside costs of
    all pairs laid end to end, and each ``Network.solve_blocks`` slice with
    the CSC pattern of its (I - W)^T, refilled every pass."""

    def __init__(self, instance, rates: np.ndarray):
        net = instance.network
        self.network, self.strata, self.rates = net, instance.strata, rates
        from .instance import outside_costs
        oc = outside_costs(instance)
        stratum, dest, counts, origins, trips, outside = [], [], [], [], [], []
        for s_idx, s in enumerate(self.strata):
            for d, (o, g) in instance.demand_by_destination(s.name).items():
                stratum.append(s_idx)
                dest.append(d)
                counts.append(len(o))
                origins.extend(o)
                trips.extend(g)
                outside.extend(oc[(s.name, net.node_id(i), net.node_id(d))] for i in o)
        self.stratum = np.array(stratum, dtype=np.int64)
        self.dest = np.array(dest, dtype=np.int64)
        self.beta = np.array([self.strata[i].beta_t for i in stratum], dtype=float)[:, None]
        self.bounds = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        self.pair = np.repeat(np.arange(len(counts)), counts)
        self.origins = np.array(origins, dtype=np.int64)
        self.trips = np.array(trips, dtype=float)
        self.outside = np.array(outside, dtype=float)
        self.beta_out = np.array([self.strata[i].beta_t_out for i in stratum],
                                 dtype=float)[self.pair]
        self.blocks = [(b, net.chain_matrix(np.zeros((b.stop - b.start, net.n_arcs)),
                                            self.dest[b]).T)
                       for b in net.solve_blocks(len(self.dest))]

    def route(self, arc_time: np.ndarray, inner_tol: float):
        """One routing pass at fixed arc times over every pair: the
        shortest-cost bounds from one Dijkstra call, then expected costs and
        throughputs from one LU factorization per block, released before the
        next block's.  Returns a _PassResult, or None when there is no
        demand."""
        if not len(self.dest):
            return None
        net = self.network
        costs = _arc_costs(self.strata, net, self.rates, arc_time)
        tau_hat = shortest_costs(net, costs, self.dest, rows=self.stratum)
        blocks = [self._route_block(b, chain, costs, tau_hat, inner_tol)
                  for b, chain in self.blocks]
        return _PassResult(*(np.concatenate(part) for part in zip(*blocks)))

    def _route_block(self, b: slice, chain, costs: np.ndarray, tau_hat: np.ndarray,
                     inner_tol: float):
        """Expected costs and flows of the pairs in slice ``b``."""
        o = slice(self.bounds[b.start], self.bounds[b.stop])
        tau, residual, probs, log_denom, solves, lu, X = _expected_costs(
            self.network, costs[self.stratum[b]], self.dest[b], self.beta[b], tau_hat[b],
            inner_tol, chain)
        start_prob, x, v = _route(self.network, probs, log_denom, self.dest[b],
                                  self.pair[o] - b.start, self.origins[o], self.trips[o],
                                  self.outside[o], self.beta_out[o], lu, X)
        return tau, residual, np.full(len(tau), solves), probs, start_prob, x, v

    def subsolutions(self, result, inner_tol: float) -> dict:
        """The per-pair StratumDestinationSolution views of one pass."""
        if result is None:
            return {}
        net, sub = self.network, {}
        for p, (s_idx, d) in enumerate(zip(self.stratum, self.dest)):
            name, lo, hi = self.strata[s_idx].name, self.bounds[p], self.bounds[p + 1]
            sub[(name, net.node_id(d))] = StratumDestinationSolution(
                stratum=name,
                destination=net.node_id(d),
                tau=result.tau[p],
                entering_flow=result.x[p],
                arc_flow=result.v[p],
                arc_probs=result.probs[p],
                origins=self.origins[lo:hi],
                trips=self.trips[lo:hi],
                start_prob=result.start_prob[lo:hi],
                tau_converged=bool(result.residual[p] <= inner_tol),
                tau_residual=float(result.residual[p]),
                tau_iterations=int(result.solves[p]),
            )
        return sub


@dataclass
class _PassResult:
    tau: np.ndarray         # (pairs, n_nodes)
    residual: np.ndarray    # (pairs,) fixed-point residual of tau
    solves: np.ndarray      # (pairs,) expected-cost solves of each pair's block
    probs: np.ndarray       # (pairs, n_arcs)
    start_prob: np.ndarray  # per origin, pairs laid end to end
    x: np.ndarray           # (pairs, n_nodes) node throughputs
    v: np.ndarray           # (pairs, n_arcs) arc flows


class _AndersonMixer:
    """Outer-loop update: Anderson mixing of depth 5 (Walker & Ni, SIAM J.
    Numer. Anal. 2011), safeguarded.  Whenever the sup-norm residual rises,
    the history restarts and the mixing share ``beta`` halves; otherwise
    ``beta`` grows back by a quarter, up to 1.  Iterates are projected onto
    f >= 0, the domain of the latency functions."""

    def __init__(self):
        self.history, self.beta = [], 1.0

    def step(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Next iterate from ``f`` and its residual ``g = R(f) - f``."""
        if self.history and np.max(np.abs(g)) > np.max(np.abs(self.history[-1][1])):
            self.history, self.beta = [], 0.5 * self.beta
        else:
            self.beta = min(1.0, 1.25 * self.beta)
        self.history = (self.history + [(f, g)])[-6:]  # 5 differences: depth 5
        nxt = f + self.beta * g
        if len(self.history) > 1:
            d_f, d_g = (np.diff(np.array(h), axis=0).T for h in zip(*self.history))
            # least squares by the normal equations with a relative ridge, never
            # singular: they touch less of LAPACK than lstsq (0.5 MB less RSS)
            gram = d_g.T @ d_g
            gram += (1e-14 * np.trace(gram) + np.finfo(float).tiny) * np.eye(len(gram))
            nxt -= (d_f + self.beta * d_g) @ np.linalg.solve(gram, d_g.T @ g)
        return np.maximum(nxt, 0.0)


def solve_equilibrium(instance, prices, options: SolverOptions | None = None, *,
                      initial_flow: np.ndarray | None = None,
                      log_fn=None) -> EquilibriumSolution:
    """Anderson-mixed fixed-point iteration on the arc-flow vector.

    ``prices`` carries per-stratum per-arc toll rates (money per km); an
    object with a ``rates`` attribute or a plain (n_strata, n_arcs) array.
    The returned solution snapshots the last routing pass, so its costs,
    probabilities and subflows are mutually consistent at ``arc_time``.
    """
    opts = options or instance.solver
    net = instance.network
    rates = np.asarray(getattr(prices, "rates", prices), dtype=float)
    if rates.shape != (len(instance.strata), net.n_arcs):
        raise ValueError(
            f"price rates must have shape ({len(instance.strata)}, {net.n_arcs})")
    if np.any(rates < 0):
        raise ValueError("price rates must be nonnegative")

    plan = _RoutingPlan(instance, rates)

    f = np.zeros(net.n_arcs) if initial_flow is None else np.array(initial_flow, dtype=float)
    if f.shape != (net.n_arcs,) or np.any(f < 0) or not np.all(np.isfinite(f)):
        raise ValueError("initial_flow must be a finite nonnegative arc vector")

    t0_wall = _time.perf_counter()
    result = None
    response = np.zeros(net.n_arcs)
    gap = np.inf
    converged = False
    iteration_log: list[dict] = []
    mixer = _AndersonMixer()

    for k in range(opts.outer_max_iters):
        result = plan.route(net.latency_all(f), opts.inner_tol)
        # summed over pairs in plan order, row by row: reproducible sums
        response = np.zeros(net.n_arcs) if result is None else result.v.sum(axis=0)

        if not np.all(np.isfinite(response)):
            raise SolverError("non-finite flow response")
        gap = float(np.max(np.abs(f - response))) if response.size else 0.0
        rec = {"iteration": k, "residual": gap,
               "wall_time": _time.perf_counter() - t0_wall}
        iteration_log.append(rec)
        if log_fn is not None:
            log_fn(rec)
        if gap <= opts.outer_tol:
            converged = True
            break
        if k == opts.outer_max_iters - 1:
            break
        f = mixer.step(f, response - f)

    sub = plan.subsolutions(result, opts.inner_tol)
    return EquilibriumSolution(
        total_flow=f,
        arc_time=net.latency_all(f),
        response_flow=response,
        sub=sub,
        stratum_flow=_stratum_flows(instance.stratum_names, sub, net.n_arcs),
        price_rates=rates,
        converged=converged,
        inner_converged=all(sd.tau_converged for sd in sub.values()),
        outer_iterations=len(iteration_log),
        outer_residual=gap,
        iteration_log=iteration_log,
    )


def _stratum_flows(names, sub: dict, n_arcs: int) -> dict:
    """Each stratum's arc flows: its pairs' flows summed in key order from
    zero, so that a solved and a loaded solution give the same bits."""
    return {name: sum((sd.arc_flow for (s, _d), sd in sorted(sub.items()) if s == name),
                      np.zeros(n_arcs))
            for name in names}


SOLUTION_SCHEMA_VERSION = 2
"""Version of the solution file.  Schema 2 stores each number once: it drops
schema 1's ``arc_time``, ``stratum_flow`` and per-pair ``arc_flow``, which
are exact functions of the other fields, and lists the ``strata``.  Both
versions load."""

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _solution_head(solution: EquilibriumSolution, network: Network) -> dict:
    """Every top-level field of the solution file but ``sub``."""
    return {
        "schema_version": SOLUTION_SCHEMA_VERSION,
        "arc_ids": [a.id for a in network.arcs],
        "strata": sorted(solution.stratum_flow),
        "total_flow": solution.total_flow.tolist(),
        "response_flow": solution.response_flow.tolist(),
        "price_rates": solution.price_rates.tolist(),
        "converged": solution.converged,
        "inner_converged": solution.inner_converged,
        "outer_iterations": solution.outer_iterations,
        "outer_residual": solution.outer_residual,
        # wall times are dropped so identical runs serialize identically
        "iteration_log": [
            {"iteration": r["iteration"], "residual": r["residual"]}
            for r in solution.iteration_log
        ],
    }


def _sub_entries(solution: EquilibriumSolution):
    """Each pair's ``sub`` entry, keyed ``stratum|destination``, in key order."""
    keyed = {f"{s}|{d}": sd for (s, d), sd in solution.sub.items()}
    for key in sorted(keyed):
        sd = keyed[key]
        yield key, {
            "tau": sd.tau.tolist(),
            "entering_flow": sd.entering_flow.tolist(),
            "arc_probs": sd.arc_probs.tolist(),
            "origins": sd.origins.tolist(),
            "trips": sd.trips.tolist(),
            "start_prob": sd.start_prob.tolist(),
            "tau_converged": sd.tau_converged,
            "tau_residual": sd.tau_residual,
            "tau_iterations": sd.tau_iterations,
        }


def solution_to_dict(solution: EquilibriumSolution, network: Network) -> dict:
    """JSON-ready form of a solution, schema 2; inverse of solution_from_dict.

    Arc times, per-pair arc flows and per-stratum flows are left out:
    solution_from_dict rebuilds them bit for bit from ``total_flow``,
    ``entering_flow`` with ``arc_probs``, and ``strata``."""
    return {**_solution_head(solution, network), "sub": dict(_sub_entries(solution))}


def _json_object(members):
    """Compact JSON text of an object, chunk by chunk, from (key, chunks of
    the value's text) pairs given in sorted key order."""
    yield "{"
    for i, (key, chunks) in enumerate(members):
        yield ("," if i else "") + json.dumps(key) + ":"
        yield from chunks
    yield "}"


def write_solution(path, solution: EquilibriumSolution, network: Network) -> None:
    """Write the solution file: byte for byte ``json.dumps(solution_to_dict(
    solution, network), sort_keys=True, separators=(",", ":")) + "\\n"``,
    but encoded one top-level value and one ``sub`` entry at a time.  Each
    piece goes through the C encoder, which ``json.dump`` to a file never
    uses, and only one pair's lists are alive at once."""
    members = {key: [_ENCODER.encode(value)]
               for key, value in _solution_head(solution, network).items()}
    members["sub"] = _json_object((key, [_ENCODER.encode(entry)])
                                  for key, entry in _sub_entries(solution))
    with open(path, "w") as fh:
        fh.writelines(_json_object((key, members[key]) for key in sorted(members)))
        fh.write("\n")


def read_solution(path, network: Network) -> EquilibriumSolution:
    """Load a solution file of either schema; see solution_from_dict."""
    with open(path) as fh:
        return solution_from_dict(json.load(fh), network)


def solution_from_dict(doc: dict, network: Network) -> EquilibriumSolution:
    """Solution from its JSON form, schema 2 or 1; inverse of solution_to_dict.

    The derived arrays are rebuilt as the solver computes them, so they equal
    the solved ones bit for bit: ``arc_time`` is the latency of
    ``total_flow``, each pair's ``arc_flow`` is ``entering_flow[tail] *
    arc_probs``, and ``stratum_flow`` sums the pairs' flows per stratum in
    key order from zero.  Schema 1's stored copies of them are ignored.
    Raises ValueError for another schema version or another network."""
    version = doc.get("schema_version")
    if version not in (1, SOLUTION_SCHEMA_VERSION):
        raise ValueError(f"solution schema version {version!r} is not 1 or "
                         f"{SOLUTION_SCHEMA_VERSION}")
    if doc["arc_ids"] != [a.id for a in network.arcs]:
        raise ValueError("solution was computed on a different network (arc ids differ)")
    sub = {}
    for key, sd in doc["sub"].items():
        s, d = key.split("|", 1)
        entering_flow, arc_probs = np.array(sd["entering_flow"]), np.array(sd["arc_probs"])
        sub[(s, d)] = StratumDestinationSolution(
            stratum=s,
            destination=d,
            tau=np.array(sd["tau"]),
            entering_flow=entering_flow,
            arc_flow=entering_flow[network.tail] * arc_probs,
            arc_probs=arc_probs,
            origins=np.array(sd["origins"], dtype=np.int64),
            trips=np.array(sd["trips"]),
            start_prob=np.array(sd["start_prob"]),
            tau_converged=sd["tau_converged"],
            tau_residual=sd["tau_residual"],
            tau_iterations=sd["tau_iterations"],
        )
    # schema 1 names the strata only as the keys of its stratum flows
    strata = doc["strata"] if version == SOLUTION_SCHEMA_VERSION else sorted(doc["stratum_flow"])
    total_flow = np.array(doc["total_flow"])
    return EquilibriumSolution(
        total_flow=total_flow,
        arc_time=network.latency_all(total_flow),
        response_flow=np.array(doc["response_flow"]),
        sub=sub,
        stratum_flow=_stratum_flows(strata, sub, network.n_arcs),
        price_rates=np.array(doc["price_rates"]),
        converged=doc["converged"],
        inner_converged=doc["inner_converged"],
        outer_iterations=doc["outer_iterations"],
        outer_residual=doc["outer_residual"],
        iteration_log=list(doc["iteration_log"]),
    )


@dataclass
class EquilibriumDiagnostics:
    flow_residual: float
    tau_residuals: dict
    phi_gradient_residual: float
    tau_bound_violation: float
    fd_checks: dict | None = None

    @property
    def max_tau_residual(self) -> float:
        return max(self.tau_residuals.values()) if self.tau_residuals else 0.0


def equilibrium_residuals(instance, prices, solution: EquilibriumSolution, *,
                          fd_arcs=None, fd_step: float = 1e-5,
                          fd_options: SolverOptions | None = None) -> EquilibriumDiagnostics:
    """Self-consistency residuals of a solution, all evaluated at its
    ``arc_time``:

    - flow residual: sup gap between the flow iterate and the aggregated
      per-(stratum, destination) arc flows;
    - per-(stratum, destination) fixed-point residual of the expected costs;
    - stationarity residual max_a |inverse_latency(t_a) - sum v_a|, which
      coincides with the flow residual whenever t = latency(flow) (kept as a
      cross-check of the latency inverse);
    - worst violation of the shortest-cost upper bound on expected costs;
    - optionally, for each arc in ``fd_arcs``, a central finite-difference
      check that the demand-weighted sensitivity of expected costs to that
      arc's time reproduces its flow.  The expected costs are re-solved with
      the perturbed time while flows (and hence start probabilities) stay
      frozen; demand enters scaled by the frozen start probabilities.
    """
    net = instance.network
    rates = np.asarray(getattr(prices, "rates", prices), dtype=float)
    t = solution.arc_time

    agg = sum((sd.arc_flow for _key, sd in sorted(solution.sub.items())), np.zeros(net.n_arcs))
    flow_residual = float(np.max(np.abs(solution.total_flow - agg))) if agg.size else 0.0

    congestible = net.bpr_gamma > 0  # flat arcs have no latency inverse
    grad = (net.inverse_latency_all(t) - agg)[congestible]
    phi_gradient_residual = float(np.max(np.abs(grad))) if grad.size else 0.0

    strata = {s.name: (i, s) for i, s in enumerate(instance.strata)}
    keys = sorted(solution.sub)
    tau_residuals, bound_violation = {}, 0.0
    if keys:  # all pairs in one Dijkstra call and one kernel pass
        costs = _arc_costs(instance.strata, net, rates, t)
        rows = np.array([strata[s_name][0] for s_name, _d in keys])
        dest = np.array([net.node_index[d_id] for _s, d_id in keys])
        beta = np.array([[instance.strata[r].beta_t] for r in rows])
        tau = np.array([solution.sub[key].tau for key in keys])
        residual = _fixed_point(net, costs[rows], dest, beta, tau)[0]
        tau_residuals = {key: float(r) for key, r in zip(keys, residual)}
        bound = shortest_costs(net, costs, dest, rows=rows)
        bound_violation = max(bound_violation, float(np.max(tau - bound)))

    fd_checks = None
    if fd_arcs is not None:
        fd_checks = {}
        fd_opts = fd_options or SolverOptions(
            inner_tol=min(1e-10, fd_step * 1e-3),
            outer_tol=instance.solver.outer_tol, outer_max_iters=1)
        for arc_pos in fd_arcs:
            arc_id = net.arcs[arc_pos].id
            for (s_name, d_id), sd in sorted(solution.sub.items()):
                s_idx, s = strata[s_name]
                d = net.node_index[d_id]
                weighted = np.zeros(net.n_nodes)
                np.add.at(weighted, sd.origins, sd.trips * sd.start_prob)
                est = 0.0
                for sign in (+1.0, -1.0):
                    tp = t.copy()
                    tp[arc_pos] += sign * fd_step
                    costs = _arc_costs(instance.strata, net, rates, tp)[s_idx]
                    tr = solve_tau(net, costs, d, s.beta_t, sd.tau, fd_opts)
                    est += sign * float(weighted @ tr.tau)
                fd_checks[(arc_id, s_name, d_id)] = (
                    est / (2.0 * fd_step), float(sd.arc_flow[arc_pos]))

    return EquilibriumDiagnostics(
        flow_residual=flow_residual,
        tau_residuals=tau_residuals,
        phi_gradient_residual=phi_gradient_residual,
        tau_bound_violation=bound_violation,
        fd_checks=fd_checks,
    )
