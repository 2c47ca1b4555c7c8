"""Equilibrium flow computation.

The arc flows of a Markovian traffic equilibrium reproduce themselves: flows
determine congested times, times determine per-stratum expected optimal
costs (a logit fixed point per stratum and destination), costs determine
choice and trip-start probabilities, and those probabilities route the
demand back onto the arcs.  The solver's outer loop runs Anderson mixing on
the flow vector, one per pricing scheme: ``solve_equilibria`` iterates
several schemes in one loop, and ``solve_equilibrium`` is its one-scheme
case.  Given the arc costs, the (scheme, stratum, destination) routings are
independent, so each routing pass batches all of them into stacks of the
absorbing-chain kernels (``chain``): a stratum with several destinations is
tried in the stratum layout, and every other pair is a block of its own,
scaled by its shortest costs at free-flow times.  A pass runs no Dijkstra:
the free-flow bounds come from one call per solve, made only if some pair
needs them, and the pass's own shortest costs only for a pair whose answer
leaves range under them.
A pass writes every pair's routing into the columns of one PairTable.  A
solution takes its scheme's rows once, in key order (the sorted (stratum,
destination) pairs, the row order of a solution file), with the trip
statistics that the stop step solved on the last pass's stratum LUs, and
every reader indexes those columns; ``EquilibriumSolution.sub`` views them.
``solve_tau`` and ``flows_for_destination``, the one-pair case, are kept
only for the benchmark's tracer (ROADMAP, "The benchmark reads the program"):
nothing here calls them.
"""

from __future__ import annotations

import base64
import math
import time as _time
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np
# kept: perfbench/tracing.py wraps spsolve by name; see ROADMAP "The benchmark reads the program"
from scipy.sparse.linalg import spsolve  # noqa: F401

from . import choice
from .chain import (_UNBOUNDED, FeasibilityError, _arc_costs, _expected_costs,
                    _fixed_point, _route, _StackLU, _stratum_stacks, _stratum_trip_stats,
                    _tolls)
from .instance import SolverOptions, outside_costs
from .network import (InstanceError, Network, NetworkError, check_flag, check_name,
                      check_number, number_column, read_fields, read_json, read_section,
                      shortest_costs)


class SolverError(RuntimeError):
    """Numerical failure inside a subproblem (singular routing system)."""


TAU_TOLERANCE = 1e-10
"""Hours: the fixed-point residual that certifies a pair's expected costs
(``TauResult.converged``, ``tau_converged``).  A larger residual refines the
solve once with the same factors, and a stratum stack that keeps one is
routed per pair in that pass: either can move the solution by rounding.
The exact solve leaves residuals of order 1e-14 hours, far below it."""


# kept: perfbench/tracing.py wraps it by name; see ROADMAP "The benchmark reads the program"
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


@dataclass
class PairTable:
    """The routing of (stratum, destination) pairs as columns: row p is pair
    ``keys[p]``.  The fields are StratumDestinationSolution's, with the
    origins, trips and start probabilities of all pairs laid end to end, pair
    p's at ``bounds[p]:bounds[p + 1]``.  A solution's rows are in key order,
    the keys sorted, which is also the row order of a solution file; a
    routing pass's are in plan order (_RoutingPlan)."""

    keys: list                  # (stratum, destination id) per row
    tau: np.ndarray             # (pairs, n_nodes)
    entering_flow: np.ndarray   # (pairs, n_nodes)
    arc_flow: np.ndarray        # (pairs, n_arcs)
    arc_probs: np.ndarray       # (pairs, n_arcs)
    tau_converged: np.ndarray   # (pairs,) bool
    tau_residual: np.ndarray    # (pairs,)
    tau_iterations: np.ndarray  # (pairs,) int
    bounds: np.ndarray          # (pairs + 1,)
    origins: np.ndarray         # node index per origin
    trips: np.ndarray
    start_prob: np.ndarray

    @cached_property
    def owner(self) -> np.ndarray:
        """The row of each origin."""
        return np.repeat(np.arange(len(self.keys)), self.bounds[1:] - self.bounds[:-1])

    def ends(self, rows):
        """The entries of the pairs ``rows`` (a slice or an index array) in
        the columns of one entry per origin, laid end to end (a slice, or an
        index array), and the position in ``rows`` of each one's pair."""
        if isinstance(rows, slice):
            o = slice(self.bounds[rows.start], self.bounds[rows.stop])
            return o, self.owner[o] - rows.start
        counts = self.bounds[rows + 1] - self.bounds[rows]
        owner = np.repeat(np.arange(len(rows)), counts)
        offset = self.bounds[rows] - (np.cumsum(counts) - counts)
        return np.arange(len(owner)) + offset[owner], owner

    def indices(self, names, network: Network):
        """Each row's stratum, an index into ``names``, and destination node."""
        return (np.array([names.index(s) for s, _d in self.keys], dtype=np.int64),
                np.array([network.node_index[d] for _s, d in self.keys], dtype=np.int64))

    def take(self, rows: np.ndarray) -> PairTable:
        """The table of the pairs ``rows`` (an index array), in that order."""
        ends, owner = self.ends(rows)
        bounds = np.searchsorted(owner, np.arange(len(rows) + 1))  # each pair's first entry
        return PairTable([self.keys[p] for p in rows], *(getattr(self, f)[rows] for f in _ROWS),
                         bounds, *(getattr(self, f)[ends] for f in _ENDS))


@dataclass
class EquilibriumSolution:
    """Converged (or capped, see ``converged``) equilibrium state.

    ``total_flow`` is the outer iterate at which the final routing pass was
    solved and ``arc_time`` its congested times; ``response_flow`` is the
    demand-weighted flow those times induce.  At convergence the two agree
    to within ``outer_residual <= outer_tol``.  ``pairs`` holds the routing
    of every (stratum, destination) pair; ``sub`` views its rows.
    ``stratum_flow`` lists the strata in the order of the rows of
    ``price_rates``.  Only the solve sets ``held_trip_stats``, its stop
    step's (held, trip) (_RoutingPlan): a copy by dataclasses.replace holds none.
    """

    total_flow: np.ndarray
    arc_time: np.ndarray
    response_flow: np.ndarray
    pairs: PairTable
    stratum_flow: dict
    price_rates: np.ndarray
    converged: bool
    inner_converged: bool
    outer_iterations: int
    outer_residual: float
    iteration_log: list = field(default_factory=list)
    held_trip_stats: tuple | None = field(default=None, init=False)

    @cached_property
    def sub(self):
        """Read-only {(stratum, destination): StratumDestinationSolution} of
        views of the rows of ``pairs`` (no copies), built on first access."""
        t, b = self.pairs, self.pairs.bounds.tolist()
        return MappingProxyType({key: StratumDestinationSolution(
            *key, t.tau[p], t.entering_flow[p], t.arc_flow[p], t.arc_probs[p],
            t.origins[b[p]:b[p + 1]], t.trips[b[p]:b[p + 1]], t.start_prob[b[p]:b[p + 1]],
            bool(t.tau_converged[p]), float(t.tau_residual[p]), int(t.tau_iterations[p]))
            for p, key in enumerate(t.keys)})

    def check_strata(self, names, where: str = "solution") -> None:
        """Raise InstanceError, prefixed with ``where``, naming the strata of
        the solution that the instance's ``names`` lack, or else the strata
        of ``names`` that the solution lacks, or else both orders when the
        rows of ``price_rates`` are strata in another order than ``names``:
        readers index those rows by the instance's order."""
        solved = set(self.stratum_flow).union(s for s, _d in self.pairs.keys)
        unknown = sorted(solved - set(names))
        if unknown:
            raise InstanceError(f"{where}: strata {unknown} are not in the instance")
        missing = sorted(set(names) - solved)
        if missing:
            raise InstanceError(f"{where}: strata {missing} of the instance are not in the "
                                f"solution")
        if list(self.stratum_flow) != list(names):
            raise InstanceError(f"{where}: the price_rates rows are strata "
                                f"{list(self.stratum_flow)}, the instance lists {list(names)}")


# kept: perfbench/tracing.py wraps it by name; see ROADMAP "The benchmark reads the program"
def solve_tau(network: Network, costs: np.ndarray, destination: int, beta_t: float,
              tau_init: np.ndarray) -> TauResult:
    """Expected optimal costs of one (cost row, destination) pair: the
    _expected_costs of one row, scaled by ``tau_init``.  ``converged`` means
    the fixed-point residual, certified after at most one refinement, is at
    most TAU_TOLERANCE; ``iterations`` counts the solves.  FeasibilityError
    when the expected costs are unbounded (_expected_costs' ``low``)."""
    if not np.all(np.isfinite(tau_init)):
        raise ValueError("tau_init must be finite")
    costs, dest = np.asarray(costs, dtype=float)[None], np.array([destination])
    tau, residual, _probs, _log_denom, solves, _low, _through, _stack, usable = _expected_costs(
        network, costs, dest, beta_t, np.asarray(tau_init, dtype=float)[None], TAU_TOLERANCE)
    if not usable[0]:
        raise FeasibilityError(_UNBOUNDED)
    return TauResult(tau=tau[0], converged=bool(residual[0] <= TAU_TOLERANCE),
                     iterations=int(solves[0]), residual=float(residual[0]))


# kept: perfbench/tracing.py wraps it by name; see ROADMAP "The benchmark reads the program"
def flows_for_destination(network: Network, tau: np.ndarray, costs: np.ndarray,
                          beta_t: float, origins: np.ndarray, trips: np.ndarray,
                          outside_cost: np.ndarray, beta_t_out: float,
                          destination: int, *, stratum: str = "",
                          tau_result: TauResult | None = None) -> StratumDestinationSolution:
    """Route one (stratum, destination) demand column at fixed costs: the
    _route of one column with X = 1, solving with I - P_d by its own
    _StackLU (FeasibilityError if singular)."""
    _phi, probs, log_denom = choice.logit_nodes(
        costs + tau[network.head], beta_t, network.out_start)
    origins = np.asarray(origins)
    trips = np.asarray(trips, dtype=float)
    dest = np.array([destination])
    p_start, x, v, _failed, error = _route(
        network, probs[None], log_denom[None], dest, np.zeros(len(origins), dtype=np.int64),
        origins, trips, outside_cost, beta_t_out,
        _StackLU(network, probs[None], dest).solve_transposed)
    if error:
        raise SolverError(error)
    tr = tau_result or TauResult(tau, True, 0, 0.0)
    return StratumDestinationSolution(stratum, network.node_id(destination), tau, x[0], v[0],
                                      probs, origins, trips, p_start, tr.converged,
                                      tr.residual, tr.iterations)


class _RoutingPlan:
    """Every (scheme, stratum, destination) demand column of a batch of
    solves, flattened once so that a routing pass is one batched call.  A
    scheme is one (n_strata, n_arcs) array of price rates.  Its cost rows
    are the (scheme, stratum) rows ``scheme * n_strata + stratum`` and its
    pairs the rows ``scheme * pairs : (scheme + 1) * pairs``, in one order
    for every scheme: strata in instance order, destinations ascending.
    The price-independent parts (each pair's destination and
    sensitivities, and the origins, trips and outside costs of all pairs
    laid end to end) are built once and tiled across the schemes, as are
    the pair keys.  ``order`` is the pair, in plan order, of each row of a
    scheme's PairTable in key order.  The stop step (trip_stats) flags in
    ``held`` the pairs whose trip statistics it solved, and writes each
    origin's time, money and distance into ``trip`` (3, origins).

    A pass serves every pair of the schemes it routes by _expected_costs
    and _route, one stack at a time of at most ``network.MAX_BLOCK_ROWS``
    unknowns.  A (scheme, stratum) with several destinations is tried in
    the stratum layout, accepted when every pair is usable, keeps a
    fixed-point residual of at most TAU_TOLERANCE and passes the routing
    checks.  A block whose X is finite and nonnegative but below X_MIN
    takes the per-pair layout for the rest of the solve (``per_pair``, one
    flag per (scheme, stratum)); one that fails otherwise falls back in
    that pass only.  Every other pair is a block of its own, scaled by its
    shortest costs at free-flow times, computed for every pair by one
    Dijkstra call the first time a pair needs them.  Times never fall below
    free flow, so every weight stays at most 1; a pair whose X still leaves
    range (heavy congestion) or fails a routing check is solved again in
    the same pass, scaled by its shortest costs at the pass's costs.
    FeasibilityError and SolverError come from that last layout only.

    A stack holds the blocks of any schemes (_stratum_stacks, and
    network.solve_blocks of the pairs left to route), and a singular
    stratum stack is tried again one (scheme, stratum) block at a time.
    _StackLU factors every block of a stack as it factors the block alone,
    and refinement is per pair, so a scheme's answer is bit for bit the one
    it gets alone.
    """

    def __init__(self, instance, rates: np.ndarray):
        net = instance.network
        self.network, self.strata = net, instance.strata
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
        schemes, n_strata = len(rates), len(self.strata)
        self.pairs = len(dest)  # of each scheme
        self.keys = [(self.strata[s].name, net.node_id(d)) for s, d in zip(stratum, dest)]
        self.order = np.array(sorted(range(self.pairs), key=self.keys.__getitem__), dtype=np.int64)
        self.keys *= schemes

        def tile(values, dtype):  # one copy per scheme
            values = np.array(values, dtype=dtype)
            return values if schemes == 1 else np.tile(values, schemes)

        self.toll = _tolls(self.strata, net, rates)  # (schemes, n_strata, n_arcs)
        self.money = (rates * net.primary_length).reshape(-1, net.n_arcs)  # per (scheme, stratum)
        self.stratum = tile(stratum, np.int64)  # the (scheme, stratum) row of each pair
        if schemes > 1:
            self.stratum += np.repeat(n_strata * np.arange(schemes), self.pairs)
        self.dest = tile(dest, np.int64)
        self.stratum_beta = tile([s.beta_t for s in self.strata], float)[:, None]
        self.beta = self.stratum_beta[self.stratum]
        counts = tile(counts, np.int64)
        self.bounds = np.concatenate(([0], np.cumsum(counts)))
        pair = np.repeat(np.arange(len(counts)), counts)
        self.origins = tile(origins, np.int64)
        self.trips = tile(trips, float)
        self.outside = tile(outside, float)
        self.beta_out = tile([s.beta_t_out for s in self.strata], float)[self.stratum[pair]]
        # each (scheme, stratum) row's pairs are self.first[s] : self.first[s] + self.count[s]
        self.count = np.bincount(self.stratum, minlength=schemes * n_strata)
        self.first = np.cumsum(self.count) - self.count
        self.per_pair = self.count < 2  # (scheme, stratum) rows kept off the stratum layout
        k, n, m = len(self.dest), net.n_nodes, net.n_arcs  # the table that route fills
        self.result = PairTable(self.keys, np.empty((k, n)), np.empty((k, n)), np.empty((k, m)),
                                np.empty((k, m)), np.empty(k, bool), np.empty(k),
                                np.empty(k, np.int64), self.bounds, self.origins, self.trips,
                                np.empty(len(self.origins)))
        self.held, self.trip = np.zeros(k, bool), np.full((3, len(self.origins)), np.nan)
        self.free_flow_bounds = None
        dead = np.flatnonzero(net.out_degree == 0)
        if len(dead):  # the choice kernel's per-node segments need an arc each
            raise NetworkError(f"node {net.node_id(int(dead[0]))!r} has no outgoing arc")

    def route(self, arc_time: np.ndarray, active=None):
        """One routing pass at fixed arc times, (schemes, n_arcs), of the
        schemes ``active`` (a boolean mask; None routes every scheme): one
        LU per stack of the stratum layout, then of the per-pair layout,
        each stack's accepted pairs written into ``result``, the plan's
        PairTable of every pair in plan order, which the next pass
        overwrites.  The rows of the other schemes are left as they were.
        ``stacks`` keeps each stratum-layout stack that served some pair."""
        net, k, result = self.network, len(self.dest), self.result
        self.stacks, self.arc_time = [], arc_time
        costs = (arc_time[:, None] + self.toll).reshape(-1, net.n_arcs)
        todo = np.ones(k, dtype=bool) if active is None else np.repeat(active, self.pairs)

        def serve(pairs, block, weights, tau_ref, final) -> bool:
            """Route one stack, pairs a slice or an index array, and write
            its accepted pairs; False if a stratum-layout stack is singular."""
            dest, (o, owner) = self.dest[pairs], result.ends(pairs)
            try:
                tau, residual, probs, log_denom, solves, low, through, stack, ok = _expected_costs(
                    net, costs[self.stratum[pairs]], dest, self.beta[pairs], tau_ref,
                    TAU_TOLERANCE, block, weights)
            except FeasibilityError:
                if block is None:
                    raise
                return False
            trips = self.trips[o]
            if block is not None:  # a stratum passes when each of its pairs passes every check
                self.per_pair[self.stratum[pairs[(low >= 0.0) & ~ok]]] = True
                ok &= residual <= TAU_TOLERANCE
            if not ok.all():
                if final:
                    raise FeasibilityError(_UNBOUNDED)
                trips = np.where(ok[owner], trips, 0.0)  # a failed pair routes none: no overflow
            start_prob, x, v, failed, error = _route(
                net, probs, log_denom, dest, owner, self.origins[o], trips, self.outside[o],
                self.beta_out[o], through)
            if error:
                if final:
                    raise SolverError(error)
                ok &= ~failed
            if block is not None:
                ok = (np.bincount(block, ~ok) == 0)[block]
                if ok.any():
                    self.stacks.append((stack, pairs, ok))
            fields = [tau, x, v, probs, residual <= TAU_TOLERANCE, residual, solves]  # _ROWS
            if not ok.all():  # slices of pairs and origins become index arrays
                kept = ok[owner]
                pairs, o = np.arange(k)[pairs][ok], np.arange(len(self.origins))[o][kept]
                start_prob, fields = start_prob[kept], [f[ok] for f in fields]
            todo[pairs] = False
            for f, name in zip(fields, _ROWS):
                getattr(result, name)[pairs] = f
            result.start_prob[o] = start_prob
            return True

        tried = ~self.per_pair
        if active is not None:
            tried &= np.repeat(active, len(self.strata))
        rows = np.flatnonzero(tried)  # (scheme, stratum) rows
        stacks = _stratum_stacks(net, self.first[rows], self.count[rows]) if len(rows) else ()
        for g, pairs, block in stacks:
            weights = np.exp(-self.stratum_beta[rows[g]] * costs[rows[g]])
            if not serve(pairs, block, weights, 0.0, False) and len(weights) > 1:
                for j in range(len(weights)):  # a singular stack: each block alone
                    mine = block == j
                    serve(pairs[mine], block[mine] - j, weights[j:j + 1], 0.0, False)
        for final in (False, True):
            rest = np.flatnonzero(todo)
            if not len(rest):
                break
            if self.free_flow_bounds is None:  # every pair's, from one Dijkstra call per solve
                self.free_flow_bounds = shortest_costs(
                    net, (net.free_time + self.toll).reshape(-1, net.n_arcs), self.dest,
                    rows=self.stratum)
            bounds = self.free_flow_bounds
            if final:
                bounds = np.empty_like(bounds)
                bounds[rest] = shortest_costs(net, costs, self.dest[rest], rows=self.stratum[rest])
            for b in net.solve_blocks(len(rest)):
                pairs = b if len(rest) == k else rest[b]  # slices: views, no copies
                serve(pairs, None, None, bounds[pairs], final)
        return result

    def trip_stats(self, stopped: list) -> None:
        """The stop step of the schemes ``stopped`` (indices): their pairs'
        trip statistics into ``held`` and ``trip``, one _stratum_trip_stats
        solve per last-pass stack that holds no other scheme, as all_trip_stats
        solves them, so with their bits: _StackLU factors each I - W_s as alone."""
        result = self.result
        for stack, pairs, ok in self.stacks:
            scheme = pairs // self.pairs
            if not np.isin(scheme, stopped).all():
                continue
            passed, T = _stratum_trip_stats(
                self.network, stack, self.beta[pairs], result.tau[pairs],
                result.arc_probs[pairs], self.arc_time[scheme], self.money[self.stratum[pairs]])
            ok = ok & passed
            o, owner = result.ends(pairs[ok])
            self.trip[:, o] = T[:, ok][:, owner, result.origins[o]]
            self.held[pairs[ok]] = True


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
    """Anderson-mixed fixed-point iteration on the arc-flow vector of one
    pricing scheme: solve_equilibria of ``[prices]``.

    ``prices`` is the (n_strata, n_arcs) array of per-stratum per-arc toll
    rates (money per km), finite and nonnegative, as
    ``pricing.expand_scheme`` returns it.
    The returned solution snapshots the last routing pass, so its costs,
    probabilities and subflows are mutually consistent at ``arc_time``.
    """
    return solve_equilibria(instance, [prices], options, log_fn=log_fn,
                            initial_flows=None if initial_flow is None else [initial_flow])[0]


def solve_equilibria(instance, prices_list, options: SolverOptions | None = None, *,
                     initial_flows=None, log_fn=None) -> list[EquilibriumSolution]:
    """The equilibria of several pricing schemes, one per entry of
    ``prices_list`` (each as ``solve_equilibrium`` takes it), from one
    outer loop.

    Every scheme has its own flow iterate (zero, or its entry of
    ``initial_flows``), _AndersonMixer and stop test.  A pass routes the
    schemes that have not stopped in one _RoutingPlan pass; a scheme that
    stops keeps its last pass as its snapshot, with the trip statistics the
    stop step solved on that pass's LUs (_RoutingPlan.trip_stats).  Each
    scheme's solution is the one it gets solved alone, bit for bit.
    ``log_fn`` receives every pass record of every scheme, its position in
    ``prices_list`` under ``"scheme"``."""
    opts = options or instance.solver
    net = instance.network
    shape = (len(instance.strata), net.n_arcs)
    rates = [np.asarray(prices, dtype=float) for prices in prices_list]
    for r in rates:
        if r.shape != shape:
            raise ValueError(f"price rates must have shape {shape}")
        if not np.all(np.isfinite(r) & (r >= 0)):
            raise ValueError("price rates must be finite and nonnegative")
    if not rates:
        return []

    plan = _RoutingPlan(instance, np.array(rates))

    flows = ([np.zeros(net.n_arcs) for _ in rates] if initial_flows is None
             else [np.array(f, dtype=float) for f in initial_flows])
    if len(flows) != len(rates):
        raise ValueError("initial_flows must give one arc vector per scheme")
    for f in flows:
        if f.shape != (net.n_arcs,) or np.any(f < 0) or not np.all(np.isfinite(f)):
            raise ValueError("initial_flow must be a finite nonnegative arc vector")

    t0_wall = _time.perf_counter()
    mixers = [_AndersonMixer() for _ in rates]
    logs = [[] for _ in rates]
    last = [None] * len(rates)  # each stopped scheme's pairs, response and gap
    converged = [False] * len(rates)
    live = list(range(len(rates)))  # the schemes still iterating

    for k in range(opts.outer_max_iters):
        active = None
        if len(live) < len(rates):
            active = np.zeros(len(rates), dtype=bool)
            active[live] = True
        result = plan.route(net.latency_all(np.array(flows)), active)
        stopping = []
        for s in live:  # its pairs' flows, summed row by row in plan order: reproducible
            response = result.arc_flow[s * plan.pairs:(s + 1) * plan.pairs].sum(axis=0)
            f = flows[s]
            if not np.all(np.isfinite(response)):
                raise SolverError("non-finite flow response")
            gap = float(np.max(np.abs(f - response))) if response.size else 0.0
            rec = {"scheme": s, "iteration": k, "residual": gap,
                   "wall_time": _time.perf_counter() - t0_wall}
            logs[s].append(rec)
            if log_fn is not None:
                log_fn(rec)
            converged[s] = gap <= opts.outer_tol
            if converged[s] or k == opts.outer_max_iters - 1:
                stopping.append(s)
                last[s] = response, gap
            else:
                flows[s] = mixers[s].step(f, response - f)
        if stopping:  # the stop step, then the stopped schemes' rows, before the next pass
            plan.trip_stats(stopping)
            for s in stopping:  # its rows in key order, with the trip statistics held
                rows = s * plan.pairs + plan.order
                held = plan.held[rows], plan.trip[:, result.ends(rows)[0]]
                last[s] = (result.take(rows), held, *last[s])
                live.remove(s)
        if not live:
            break

    solutions = []
    for s, (pairs, held, response, gap) in enumerate(last):
        solutions.append(EquilibriumSolution(
            total_flow=flows[s],
            arc_time=net.latency_all(flows[s]),
            response_flow=response,
            pairs=pairs,
            stratum_flow=_stratum_flows(instance.stratum_names, pairs, net.n_arcs),
            price_rates=rates[s],
            converged=converged[s],
            inner_converged=bool(pairs.tau_converged.all()),
            outer_iterations=len(logs[s]),
            outer_residual=gap,
            iteration_log=logs[s],
        ))
        solutions[-1].held_trip_stats = held
    return solutions


def _stratum_flows(names, pairs: PairTable, n_arcs: int) -> dict:
    """Each stratum's arc flows: its pairs' flows summed in key order from
    zero, so that a solved and a loaded solution give the same bits."""
    return {name: sum((v for (s, _d), v in zip(pairs.keys, pairs.arc_flow) if s == name),
                      np.zeros(n_arcs))
            for name in names}


SOLUTION_SCHEMA_VERSION = 5
"""Version of the solution file, the only one solution_from_dict reads (a file
of another version is solved again): 5 stores per-pair fields as columns."""

_PACKED = ("tau", "entering_flow", "arc_probs")  # one row of nodes or arcs per pair
_ENDS = ("origins", "trips", "start_prob")  # one entry per origin, pairs end to end
_STATUS = ("tau_converged", "tau_residual", "tau_iterations")  # one entry per pair
_ROWS = ("tau", "entering_flow", "arc_flow", "arc_probs", *_STATUS)  # PairTable's, per pair
_OUTER_STATUS = ("converged", "inner_converged", "outer_iterations", "outer_residual")


def _pack(a: np.ndarray) -> str:
    """The base64 of the array's little-endian IEEE-754 float64 bytes
    (``"<f8"``): exact, where decimal text costs a conversion per number."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _unpack(name: str, value, shape: tuple) -> np.ndarray:
    """The float64 array of ``shape`` that _pack packed into ``value``;
    raises InstanceError naming ``name`` unless ``value`` is such a string."""
    size, text = math.prod(shape), check_name(name, value, numbers=False)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # not base64, or not ASCII
        raw = None
    if raw is None or len(raw) != 8 * size:
        got = "text that is not base64" if raw is None else f"{len(raw)} bytes"
        raise InstanceError(f"{name} must be the base64 of {size} little-endian float64 "
                            f"values ({8 * size} bytes), got {got}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


def solution_to_dict(solution: EquilibriumSolution, network: Network) -> dict:
    """JSON-ready form of a solution, schema 5; inverse of solution_from_dict.

    Arc times, per-pair arc flows and per-stratum flows are left out:
    solution_from_dict rebuilds them bit for bit from ``total_flow``,
    ``entering_flow`` with ``arc_probs``, and ``strata``.  ``sub`` holds the
    columns of the PairTable, a row per pair ``"stratum|destination"`` of
    ``pairs`` (in key order): ``tau``, ``entering_flow`` (pairs x nodes) and
    ``arc_probs`` (pairs x arcs) packed whole (_pack); ``origins``, ``trips``
    and ``start_prob`` of the pairs end to end, each pair's count in
    ``origin_counts``; and a list per status field."""
    table = solution.pairs
    sub = {"pairs": [f"{s}|{d}" for s, d in table.keys],
           "origin_counts": (table.bounds[1:] - table.bounds[:-1]).tolist(),
           **{key: _pack(getattr(table, key)) for key in _PACKED},
           **{key: getattr(table, key).tolist() for key in _ENDS + _STATUS}}
    return {
        "schema_version": SOLUTION_SCHEMA_VERSION,
        "arc_ids": list(network.arc_ids),
        "strata": list(solution.stratum_flow),  # in price_rates' row order
        "total_flow": solution.total_flow.tolist(),
        "response_flow": solution.response_flow.tolist(),
        "price_rates": solution.price_rates.tolist(),
        **{key: getattr(solution, key) for key in _OUTER_STATUS},
        # wall times are dropped so identical runs serialize identically
        "iteration_log": [{key: r[key] for key in ("iteration", "residual")}
                          for r in solution.iteration_log],
        "sub": sub,
    }


def read_solution(path, network: Network) -> EquilibriumSolution:
    """Load a solution file; see solution_from_dict."""
    return read_json(path, lambda doc: solution_from_dict(doc, network))


# the values each array of a solution file may hold, besides being finite
_VALUE_RANGES = {"tau": (-np.inf, np.inf), "arc_probs": (0.0, 1.0), "start_prob": (0.0, 1.0),
                 **dict.fromkeys(("entering_flow", "trips", "total_flow", "response_flow",
                                  "price_rates"), (0.0, np.inf))}


def _arrays(section, path: str, shapes: dict, packed=(), name=None) -> list:
    """The values of the object ``section`` under the keys of ``shapes``:
    float arrays of those shapes, unpacked (_unpack) under ``packed`` and
    else from lists of numbers, every value finite and in the key's
    _VALUE_RANGES.  Raises InstanceError naming the key otherwise, or
    ``name(key, i)`` for a bad value at index ``i`` of the first axis."""
    arrays = []
    for key, value in zip(shapes, read_fields(section, path, tuple(shapes))):
        if key in packed:
            array = _unpack(f"{path}.{key}", value, shapes[key])
        else:
            try:
                array = np.array(value, dtype=float)
            except (TypeError, ValueError, OverflowError):
                array = None
            if getattr(array, "shape", None) != shapes[key]:
                raise InstanceError(f"{path}.{key} must be "
                                    f"{' x '.join(map(str, shapes[key]))} numbers")
        low, high = _VALUE_RANGES[key]
        bad = ~(np.isfinite(array) & (array >= low) & (array <= high))
        if bad.any():
            first = tuple(np.argwhere(bad)[0])
            kind = ("finite numbers" if low == -np.inf else f"finite numbers >= {low:g}"
                    if high == np.inf else f"numbers in [{low:g}, {high:g}]")
            raise InstanceError(f"{name(key, first[0]) if name else f'{path}.{key}'} must be "
                                f"{kind}, got {float(array[first])!r}")
        arrays.append(array)
    return arrays


def solution_from_dict(doc: dict, network: Network) -> EquilibriumSolution:
    """Solution from its JSON form, schema SOLUTION_SCHEMA_VERSION only;
    inverse of solution_to_dict.

    Each column of ``sub`` is decoded and checked once and kept as a column
    of the PairTable, its rows taken into key order if the file lists the
    pairs in another.  The derived arrays are rebuilt as the solver computes
    them, so they equal the solved ones bit for bit: ``arc_time`` is the
    latency of ``total_flow``, ``arc_flow`` is ``entering_flow[:, tail] *
    arc_probs``, and ``stratum_flow`` sums the pairs' flows per stratum in
    key order from zero.
    Raises InstanceError for another schema version, another network, an
    array that does not fit the network or is not stored as solution_to_dict
    stores it, a pair listed twice, an origin listed twice for its pair or
    at the pair's destination, or a value out of range, naming its pair:
    flows, trips and price rates must be finite and nonnegative,
    probabilities in [0, 1], expected costs finite, flags true or false and
    iteration counts and residuals nonnegative (_status)."""
    version, = read_fields(doc, "solution", (), {"schema_version": None})
    if type(version) is not int or version != SOLUTION_SCHEMA_VERSION:
        raise InstanceError(f"solution schema version {version!r} is not "
                            f"{SOLUTION_SCHEMA_VERSION}: solve again to write it")
    arc_ids, sub_doc, strata, log = read_fields(doc, "solution", (
        "arc_ids", "sub", "strata", "iteration_log"))
    if arc_ids != list(network.arc_ids):
        raise InstanceError("solution was computed on a different network (arc ids differ)")
    strata = [check_name(f"solution.strata[{k}]", s)
              for k, s in enumerate(read_section(strata, "solution.strata", list))]
    n, m, at = network.n_nodes, network.n_arcs, "solution.sub"
    pairs, counts, origins, *status = read_fields(sub_doc, at, (
        "pairs", "origin_counts", "origins", *_STATUS))
    rows, k = {}, len(read_section(pairs, f"{at}.pairs", list))  # (stratum, destination) -> row
    for i, pair in enumerate(pairs):
        s, _, d = check_name(f"{at}.pairs[{i}]", pair, numbers=False).partition("|")
        if s not in strata or d not in network.node_index or (s, d) in rows:
            raise InstanceError(f"{at}.pairs[{i}]: {pair!r} is listed twice or is not a "
                                f"stratum|destination pair of the solution")
        rows[(s, d)] = i
    for key, column in zip(("origin_counts", *_STATUS), (counts, *status)):
        if type(column) is not list or len(column) != k:
            raise InstanceError(f"{at}.{key} must be a list of {k} entries, one per pair")
    if not all(type(c) is int and c >= 0 for c in counts):
        raise InstanceError(f"{at}.origin_counts must be whole numbers >= 0")
    owner = np.repeat(np.arange(k), counts)  # the row of each origin
    if type(origins) is not list or len(origins) != len(owner):
        raise InstanceError(f"{at}.origins must be a list of {len(owner)} node indices")
    for j, o in enumerate(origins):
        if not (type(o) is int and 0 <= o < n):
            raise InstanceError(f"{at}.{pairs[owner[j]]}.origins must be node indices below "
                                f"{n}, got {o!r}")
    origins = np.array(origins, dtype=np.int64)
    node, dest = owner * n + origins, [network.node_index[d] for _s, d in rows]
    twice = np.sort(node)[1:][np.diff(np.sort(node)) == 0]  # a pair's origin listed again
    bad = np.flatnonzero((origins == np.array(dest, dtype=np.int64)[owner]) | np.isin(node, twice))
    if len(bad):
        raise InstanceError(f"{at}.{pairs[owner[bad[0]]]}.origins must be distinct nodes other "
                            f"than the destination, got {origins[bad[0]]}")
    tau, entering_flow, arc_probs, trips, start_prob = _arrays(sub_doc, at, {
        "tau": (k, n), "entering_flow": (k, n), "arc_probs": (k, m), "trips": owner.shape,
        "start_prob": owner.shape}, _PACKED,
        lambda key, i: f"{at}.{pairs[owner[i] if key in _ENDS else i]}.{key}")
    table = PairTable(list(rows), tau, entering_flow, entering_flow[:, network.tail] * arc_probs,
                      arc_probs, *_status_columns(status, pairs, at), np.cumsum([0] + counts),
                      origins, trips, start_prob)
    if list(rows) != sorted(rows):  # pairs out of key order, as solution_to_dict never writes
        table = table.take(np.array(sorted(range(k), key=table.keys.__getitem__), dtype=int))
    total_flow, response_flow, price_rates = _arrays(doc, "solution", {
        "total_flow": (m,), "response_flow": (m,), "price_rates": (len(strata), m)})
    return EquilibriumSolution(
        total_flow, network.latency_all(total_flow), response_flow, table,
        _stratum_flows(strata, table, m), price_rates,
        *_status(doc, "solution", _OUTER_STATUS),
        iteration_log=[dict(zip(("iteration", "residual"), _status(
            entry, f"solution.iteration_log[{k}]", ("iteration", "residual"))))
            for k, entry in enumerate(read_section(log, "solution.iteration_log", list))])


def _status_columns(columns, pairs, at: str) -> list:
    """The status lists (_STATUS) as arrays, each checked whole as _status
    checks a value, or else pair by pair to name the first bad entry's pair."""
    flags, residuals, counts = columns
    checked = [np.array(flags, dtype=bool) if set(map(type, flags)) <= {bool} else None,
               number_column(residuals, 0, False), number_column(counts, 0, False, True)]
    if all(column is not None for column in checked):
        return checked
    status = [_status(dict(zip(_STATUS, row)), f"{at}.{pair}", _STATUS)
              for pair, row in zip(pairs, zip(*columns))]
    return [np.array(c, dtype=t) for c, t in zip(zip(*status), (bool, float, np.int64))]


def _status(section, path: str, keys) -> list:
    """The values of the object ``section`` under the status ``keys``: a
    flag (``*converged``) true or false, an iteration number or count a
    whole number >= 0 and a residual a finite number >= 0; raises
    InstanceError naming the key otherwise."""
    return [check_flag(f"{path}.{key}", value) if key.endswith("converged") else
            check_number(f"{path}.{key}", value, 0, strict=False, integer="iteration" in key)
            for key, value in zip(keys, read_fields(section, path, keys))]


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
                          fd_arcs=None, fd_step: float = 1e-5) -> EquilibriumDiagnostics:
    """Self-consistency residuals of a solution, all evaluated at its
    ``arc_time``:

    - flow residual: sup gap between the flow iterate and the aggregated
      per-(stratum, destination) arc flows;
    - per-(stratum, destination) fixed-point residual of the expected costs;
    - stationarity residual max_a |inverse_latency_all(t)_a - sum v_a| over
      the congestible arcs, which coincides with the flow residual whenever
      t = latency_all(flow) (kept as a cross-check of the latency inverse);
    - worst violation of the shortest-cost upper bound on expected costs;
    - optionally, for each arc in ``fd_arcs``, a central finite-difference
      check that the demand-weighted sensitivity of expected costs to that
      arc's time reproduces its flow.  The expected costs are re-solved with
      the perturbed time while flows (and hence start probabilities) stay
      frozen; demand enters scaled by the frozen start probabilities.  Every
      (arc, sign, pair) is a row of one _expected_costs call per stack of
      ``net.solve_blocks``, from the solution's tau; FeasibilityError if the
      expected costs of a row are unbounded.
    """
    solution.check_strata(instance.stratum_names)
    net = instance.network
    rates = np.asarray(prices, dtype=float)
    t = solution.arc_time

    table, k = solution.pairs, len(solution.pairs.keys)
    agg = sum(table.arc_flow, np.zeros(net.n_arcs))
    flow_residual = float(np.max(np.abs(solution.total_flow - agg))) if agg.size else 0.0

    congestible = net.bpr_gamma > 0  # flat arcs have no latency inverse
    grad = (net.inverse_latency_all(t) - agg)[congestible]
    phi_gradient_residual = float(np.max(np.abs(grad))) if grad.size else 0.0

    rows, dest = table.indices(instance.stratum_names, net)
    beta, tau = np.array([[instance.strata[r].beta_t] for r in rows]), table.tau
    tau_residuals, bound_violation = {}, 0.0
    if k:  # all pairs in one Dijkstra call and one kernel pass
        costs = _arc_costs(instance.strata, net, rates, t)
        residual = _fixed_point(net, costs[rows], dest, beta, tau)[0]
        tau_residuals = {key: float(r) for key, r in zip(table.keys, residual)}
        bound = shortest_costs(net, costs, dest, rows=rows)
        bound_violation = max(bound_violation, float(np.max(tau - bound)))

    fd_checks = None
    if fd_arcs is not None:
        arcs = np.array(list(fd_arcs), dtype=np.int64)
        weighted = np.zeros((k, net.n_nodes))  # started demand per origin
        np.add.at(weighted, (table.owner, table.origins), table.trips * table.start_prob)
        # row r: arc r // (2 * k), pair r // 2 % k, time +h (even r) or -h
        tolls, tau_sum = _tolls(instance.strata, net, rates), np.zeros(2 * len(arcs) * k)
        for b in net.solve_blocks(len(tau_sum)):
            r = np.arange(b.start, b.stop)
            pair, tp = r // 2 % k, np.tile(t, (len(r), 1))
            tp[np.arange(len(r)), arcs[r // (2 * k)]] += (1.0 - 2.0 * (r % 2)) * fd_step
            tau_fd, *_rest, usable = _expected_costs(
                net, tp + tolls[rows[pair]], dest[pair], beta[pair], tau[pair],
                min(1e-10, fd_step * 1e-3))
            if not usable.all():
                raise FeasibilityError(_UNBOUNDED)
            tau_sum[b] = [weighted[p] @ x for p, x in zip(pair, tau_fd)]
        est = iter((tau_sum[0::2] - tau_sum[1::2]) / (2.0 * fd_step))
        fd_checks = {(net.arc_ids[a], *key): (float(next(est)), float(table.arc_flow[p, a]))
                     for a in arcs for p, key in enumerate(table.keys)}

    return EquilibriumDiagnostics(
        flow_residual=flow_residual,
        tau_residuals=tau_residuals,
        phi_gradient_residual=phi_gradient_residual,
        tau_bound_violation=bound_violation,
        fd_checks=fd_checks,
    )
