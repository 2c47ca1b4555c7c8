"""Equilibrium flow computation.

The arc flows of a Markovian traffic equilibrium reproduce themselves: flows
determine congested times, times determine per-stratum expected optimal
costs (a logit fixed point per stratum and destination), costs determine
choice and trip-start probabilities, and those probabilities route the
demand back onto the arcs.  The solver's outer loop runs Anderson mixing on
the flow vector, one per pricing scheme: ``solve_equilibria`` iterates
several schemes in one loop, and ``solve_equilibrium`` is its one-scheme
case.  Given the arc costs, the (scheme, stratum, destination) routings are
independent, so each routing pass batches all of them in sparse LU
factorizations by one kernel, ``_expected_costs``, each serving the
expected costs and node throughputs of its pairs.  No pair's bits depend on
the other pairs of its pass: refinement is per pair, and every block of a
stack is factored in the network's one column order (``chain_order``).  A
stratum with several destinations is tried as one block, I - W for all of
them (Sherman-Morrison on the destination's row, one right-hand-side column
per destination), and kept there while its answer stays in double range
(``STRATUM_RANGE``); every other pair is a block of its own system, scaled
by its shortest costs at free-flow times.  A pass runs no Dijkstra: the
free-flow bounds come from one call per solve, made only if some pair needs
them, and the pass's own shortest costs only for a pair whose answer leaves
range under them.
``solve_tau`` and ``flows_for_destination``, the one-pair case, are kept
only for the benchmark's tracer (ROADMAP, "The benchmark reads the program"):
nothing here calls them.
"""

from __future__ import annotations

import base64
import math
import time as _time
from dataclasses import dataclass, field

import numpy as np
# kept: perfbench/tracing.py wraps spsolve by name; see ROADMAP "The benchmark reads the program"
from scipy.sparse.linalg import splu, spsolve  # noqa: F401

from . import choice
from .network import (InstanceError, Network, NetworkError, check_flag, check_name,
                      check_number, read_fields, read_json, read_section, shortest_costs)


class FeasibilityError(RuntimeError):
    """No finite expected optimal costs at the given costs, so no equilibrium
    exists: for some destination d the arc weights exp(-beta_t * cost), d's
    row zeroed, have spectral radius >= 1.  Typically the logit time
    sensitivity is too small for the arc costs."""


class SolverError(RuntimeError):
    """Numerical failure inside a subproblem (singular routing system)."""


TAU_TOLERANCE = 1e-10
"""Hours: the fixed-point residual that certifies a pair's expected costs
(``TauResult.converged``, ``tau_converged``).  A larger residual refines the
solve once with the same factors, and a stratum stack that keeps one is
routed per pair in that pass: either can move the solution by rounding.
The exact solve leaves residuals of order 1e-14 hours, far below it."""


@dataclass
class SolverOptions:
    """The outer loop's tolerance and iteration cap: it stops once the
    sup-norm gap between the flow iterate and its response is at most
    ``outer_tol``, or after ``outer_max_iters`` routing passes.  Expected
    costs are an exact linear solve, certified against TAU_TOLERANCE.
    """

    outer_tol: float = 10.0
    outer_max_iters: int = 10

    def __post_init__(self):
        self.outer_tol = check_number("solver.outer_tol", self.outer_tol, 0)
        self.outer_max_iters = check_number("solver.outer_max_iters", self.outer_max_iters, 1,
                                            strict=False, integer=True)


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
class EquilibriumSolution:
    """Converged (or capped, see ``converged``) equilibrium state.

    ``total_flow`` is the outer iterate at which the final routing pass was
    solved and ``arc_time`` its congested times; ``response_flow`` is the
    demand-weighted flow those times induce.  At convergence the two agree
    to within ``outer_residual <= outer_tol``.  ``stratum_flow`` lists the
    strata in the order of the rows of ``price_rates``.
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

    def check_strata(self, names, where: str = "solution") -> None:
        """Raise InstanceError, prefixed with ``where``, naming the strata of
        the solution that the instance's ``names`` lack, or else the strata
        of ``names`` that the solution lacks, or else both orders when the
        rows of ``price_rates`` are strata in another order than ``names``:
        readers index those rows by the instance's order."""
        solved = set(self.stratum_flow).union(s for s, _d in self.sub)
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
    tau, residual, _probs, _log_denom, solves, low, _through = _expected_costs(
        network, costs, dest, beta_t, np.asarray(tau_init, dtype=float)[None], TAU_TOLERANCE)
    if not low[0] >= X_MIN:
        raise FeasibilityError(_UNBOUNDED)
    return TauResult(tau=tau[0], converged=bool(residual[0] <= TAU_TOLERANCE),
                     iterations=int(solves[0]), residual=float(residual[0]))


_UNBOUNDED = ("expected optimal costs are unbounded (spectral radius of the arc weights "
              "exp(-beta_t * cost), the destination's row zeroed, >= 1); agents do not "
              "reach the destination in finite expected cost")


class _StackLU:
    """One LU of a stack of blocks serving k (block, destination) pairs, and
    each pair's solves with I - W_d, its block's weights with the row of its
    destination d zeroed, for (..., k, n) arrays, pair p's in ``[..., p, :]``.
    An exactly singular stack raises FeasibilityError.  The block layout,
    SuperLU's columns and its orientation flags are private to the class:

    - ``block`` None: pair p's own block, ``weights[p]`` with the row of
      ``dest[p]`` zeroed, so A = I - W_d itself; right-hand sides are reshaped.
    - ``block`` a nondecreasing array: pair p is served by the block of
      ``weights[block[p]]``, A = I - W_b with no row zeroed, and the j-th
      pair of each block takes right-hand-side column j.  By Sherman-Morrison
      on I - W_d = A + e_d w_d^T, (I - W_d)^-1 b = U - Z (U[d] - b[d]) / Z[d, d]
      and (I - W_d)^-T b = G - R G[d] / Z[d, d], with U = A^-1 b, G = A^-T b,
      Z = A^-1 E_D and R = A^-T w_d = A^-T E_D - E_D (Akamatsu, Transp. Res.
      B 1996; Mai, Bastin & Frejinger, EURO J. Transp. Logist. 2018).

    Every block is factored in one order, the network's chain_order (the
    COLAMD order of a single block, Davis et al., ACM TOMS 2004), tiled
    down the stack with SuperLU in NATURAL mode: the stack is then factored
    block by block, so no block's bits depend on its stack-mates."""

    def __init__(self, network: Network, weights: np.ndarray, dest: np.ndarray, block=None):
        self.dest, self.block, self.n = dest, block, network.n_nodes
        self.column = np.arange(len(dest))
        self._diag = self.column * self.n + dest  # flat index of (p, dest[p]) in (k, n)
        self._e = np.zeros((len(dest), self.n))  # e_d per pair
        self._e.put(self._diag, 1.0)
        if block is not None:  # (columns, blocks, n) packed, pair p at (slot[p], block[p])
            self._slot = self.column - np.searchsorted(block, block)
            self._shape = (int(self._slot.max()) + 1, len(weights), self.n)
            self._rows = self._slot * len(weights) + block  # its row of (columns * blocks, n)
        self._order, self._inverse = network.chain_order()
        self._chain = network.chain_matrix(weights, dest if block is None else -1)
        try:
            self._lu = splu(self._chain, permc_spec="NATURAL")
        except RuntimeError:  # exactly singular
            raise FeasibilityError(_UNBOUNDED) from None
        if block is not None:
            self._Z, self._R = self._solve(self._e, "T"), None

    def _pack(self, v: np.ndarray) -> np.ndarray:
        """(..., k, n) right-hand sides as SuperLU's columns."""
        if self.block is None:  # one pair per block, in order
            return v.reshape(*v.shape[:-2], -1).T
        packed = np.zeros((*v.shape[:-2], *self._shape))
        packed[..., self._slot, self.block, :] = v
        return packed.reshape(-1, self._shape[1] * self.n).T

    def _unpack(self, V: np.ndarray, lead=()) -> np.ndarray:
        """Inverse of _pack for right-hand sides of leading shape ``lead``."""
        V = V.T.reshape(*lead, -1, self.n)
        return V if self.block is None else V.take(self._rows, -2)

    def _solve(self, v: np.ndarray, trans: str) -> np.ndarray:
        """A^-1 v per pair with ``trans`` "T", A^-T v with "N": the factored
        matrix is A^T with the columns of every block in chain_order."""
        lead = v.shape[:-2]  # take: three times as fast as a fancy index on small arrays
        if trans == "T":
            V = self._lu.solve(self._pack(v.take(self._order, -1)), trans="T")
            return self._unpack(V, lead)
        return self._unpack(self._lu.solve(self._pack(v), trans="N"), lead).take(self._inverse, -1)

    def reach(self) -> np.ndarray:
        """X = (I - W_d)^-1 e_d per pair, (k, n)."""
        if self.block is None:
            return self._solve(self._e, "T")
        with np.errstate(all="ignore"):  # a zero or non-finite Z[d, d] leaves X non-finite
            return self._Z / self._Z.take(self._diag)[:, None]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(I - W_d)^-1 b per pair."""
        U, c, d = self._solve(b, "T"), self.column, self.dest
        if self.block is None:
            return U
        with np.errstate(all="ignore"):  # non-finite values fail the callers' checks
            return U - self._Z * ((U[..., c, d] - b[..., c, d]) / self._Z[c, d])[..., None]

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """(I - W_d)^-T b per pair."""
        G, c, d = self._solve(b, "N"), self.column, self.dest
        if self.block is None:
            return G
        if self._R is None:
            self._R = self._solve(self._e, "N") - self._e
        with np.errstate(all="ignore"):  # non-finite values fail the callers' checks
            return G - self._R * (G[..., c, d] / self._Z[c, d])[..., None]

    def residual(self, X: np.ndarray) -> np.ndarray:
        """e_d - (I - W_d) X per pair, (k, n)."""
        r = self._e - self._unpack(self._chain.T @ self._pack(X)).take(self._inverse, -1)
        r.put(self._diag, 1.0 - X.take(self._diag))  # row d of I - W_d is e_d
        return r


def _expected_costs(network: Network, costs: np.ndarray, dest: np.ndarray, beta,
                    tau_ref, tol: float, block=None, weights=None):
    """Expected costs tau = tau_ref - log(X) / beta of k (cost row,
    destination) pairs from one _StackLU, X = (I - W_d)^-1 e_d; ``costs`` is
    (k, m), ``beta`` a scalar or (k, 1) column.  The recursion tau =
    phi(costs + tau[head]), tau[d] = 0, is linear in exp-space (Akamatsu
    1996; Fosgerau, Frejinger & Karlstrom 2013): X solves (I - W_d) X = e_d,
    w_a = exp(-beta * (costs_a + tau_ref[head] - tau_ref[tail])).  With
    ``block`` None each pair's weights are scaled by ``tau_ref`` (k, n):
    shortest costs at these costs or at lower ones make every weight at most
    1 and X at least 1 (the routing passes), and the solution's own tau
    keeps X near 1 (equilibrium_residuals).  Otherwise pair p is served by
    the unscaled ``weights[block[p]]`` and tau_ref is 0.

    A pair is usable when its least X, ``low``, is at least X_MIN: X is
    finite, positive if rho(W_d) < 1, and X and y / X stay in double range.
    Any other pair gets X = 1.  Short of underflow, X fails to be finite and
    positive (every node reaching d) exactly when W_d, exp(-beta * costs)
    with the row of d zeroed, has spectral radius >= 1.  A singular stack
    raises FeasibilityError.
    A usable pair whose residual is above ``tol`` hours is refined once with
    the same factors; the other pairs keep their first X.  With _StackLU's
    blocks independent, no pair's bits depend on its stack-mates.  Returns
    tau (k, n), the per-pair fixed-point residual, the logit probabilities
    and log-denominators at tau, the solves of each pair (1, or 2 when
    refined), ``low`` (NaN where X is not finite, and never above the
    unrefined one), and ``through``: (k, n) right-hand sides y ->
    X * (I - W_d)^-T (y / X), the routing solve of _route."""
    column = np.arange(len(dest))
    if block is None:
        tau_ref = tau_ref.copy()
        tau_ref[column, dest] = 0.0
        weights = np.exp(-beta * (costs + tau_ref[:, network.head] - tau_ref[:, network.tail]))
    stack = _StackLU(network, weights, dest, block)

    def certify(X, low=np.inf):  # -> low, usable, tau, residual, probs, log_denom
        low = np.minimum(low, np.where(np.isfinite(X).all(axis=1), X.min(axis=1), np.nan))
        usable = low >= X_MIN
        if not usable.all():
            X[~usable] = 1.0
        tau = tau_ref - np.log(X) / beta
        tau[column, dest] = 0.0
        return (low, usable, tau, *_fixed_point(network, costs, dest, beta, tau))

    X = stack.reach()
    low, usable, tau, residual, probs, log_denom = certify(X)
    refine = usable & ~(residual <= tol)
    if refine.any():  # refine (I - W_d) X = e_d once in those pairs
        X[refine] += stack.solve(stack.residual(X))[refine]
        low, usable, tau, residual, probs, log_denom = certify(X, low)
    return (tau, residual, probs, log_denom, 1 + refine, low,
            lambda y: X * stack.solve_transposed(y / X))


def _fixed_point(network: Network, costs: np.ndarray, dest: np.ndarray, beta,
                 tau: np.ndarray):
    """Per-row sup-norm residual of tau = phi(costs + tau[head]),
    tau[dest] = 0, for (k, n) ``tau``, with the choice probabilities and
    log-denominators of the same kernel pass."""
    phi, probs, log_denom = choice.logit_nodes(
        costs + tau[:, network.head], beta, network.out_start)
    phi[np.arange(len(dest)), dest] = 0.0
    return np.max(np.abs(phi - tau), axis=1), probs, log_denom


# kept: perfbench/tracing.py wraps it by name; see ROADMAP "The benchmark reads the program"
def flows_for_destination(network: Network, tau: np.ndarray, costs: np.ndarray,
                          beta_t: float, origins: np.ndarray, trips: np.ndarray,
                          outside_cost: np.ndarray, beta_t_out: float,
                          destination: int, *, stratum: str = "",
                          tau_result: TauResult | None = None) -> StratumDestinationSolution:
    """Route one (stratum, destination) demand column at fixed costs.

    Demand at each origin is first scaled by the start probability against
    the outside option, then pushed through the choice chain: node
    throughputs x solve (I - P^T) x = y, with the destination absorbing
    (x = 0 there), and arc flows follow as v = x[tail] * P: _route with X = 1,
    solving with I - P_d by its own _StackLU (FeasibilityError if singular).
    """
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
           beta_t_out, solve):
    """flows_for_destination for k demand columns at once, from their (k, m)
    choice probabilities and (k, n) log-denominators.  ``pair``, ``origins``,
    ``trips``, ``outside_cost`` and ``beta_t_out`` run over the origins of
    all columns, ``pair`` naming each one's column.  ``solve`` maps (k, n)
    right-hand sides y to the solutions x of (I - P^T) x = y; with P =
    D^-1 W D, D = diag(X), that is x = X * (I - W)^-T (y / X).

    A column whose residual is above 1e-8 of its scale is refined once; the
    others keep their first solve.  Returns the start probability per
    origin, throughputs x (k, n), arc flows v (k, m), the columns that fail
    the routing-residual check after that or have a negative throughput,
    and the SolverError
    message of the worst of them (None when none fails).  A non-finite
    residual or throughput fails too."""
    k, n = log_denom.shape
    column = np.arange(k)
    diag = column * n + dest  # flat index of (p, dest[p]) in (k, n)
    _p_out, p_start = choice.outside_prob_from_log_denominator(
        outside_cost, log_denom[pair, origins], beta_t_out)

    y = np.zeros((k, n))
    np.add.at(y, (pair, origins), trips * p_start)
    y.put(diag, 0.0)

    live = np.where(network.tail == dest[:, None], 0.0, probs)  # absorbed at dest
    into = (network.head + n * column[:, None]).ravel()

    def residual(x):  # y - (I - P^T) x as arc-flow conservation under probs
        inflow = np.bincount(into, (x[:, network.tail] * live).ravel(), minlength=k * n)
        return y - x + inflow.reshape(k, n)

    scale = np.maximum(1.0, np.max(np.abs(y), axis=1))
    with np.errstate(all="ignore"):  # a non-finite x fails the checks
        x = solve(y)
        r = residual(x)
        resid = np.max(np.abs(r), axis=1)
        refine = ~(resid <= 1e-8 * scale)
        if refine.any():  # refine those columns once (a NaN refines too)
            x[refine] += solve(r)[refine]
            resid = np.max(np.abs(residual(x)), axis=1)
        lowest = x.min(axis=1)
        failed, error = ~((resid <= 1e-6 * scale) & (lowest >= -1e-7 * scale)), None
        x = np.maximum(x, 0.0)
        x.put(diag, 0.0)  # the trips it absorbs leave the network
        v = x[:, network.tail] * probs
    if failed.any():
        ill = ~(resid <= 1e-6 * scale)
        if ill.any():
            worst = int(np.argmax(np.where(ill, resid / scale, -np.inf)))
            error = (f"routing system ill-conditioned for destination "
                     f"{network.node_id(dest[worst])!r} (residual {resid[worst]:.3e})")
        else:
            worst = int(np.argmin(lowest / scale))
            error = (f"negative node throughput for destination "
                     f"{network.node_id(dest[worst])!r}; routing matrix not substochastic")
    return p_start, x, v, failed, error


def _arc_costs(strata, net: Network, rates: np.ndarray, arc_time: np.ndarray) -> np.ndarray:
    """Generalized arc costs, (n_strata, n_arcs): time plus _tolls."""
    return arc_time + _tolls(strata, net, rates)


def _tolls(strata, net: Network, rates: np.ndarray) -> np.ndarray:
    """Each stratum's toll in hours, (..., n_strata, n_arcs): ``rates *
    net.primary_length`` at its beta_p / beta_t."""
    ratio = np.array([[s.beta_p / s.beta_t] for s in strata])
    return ratio * (rates * net.primary_length)


STRATUM_RANGE = 0.5 * float(np.log(np.finfo(float).max))
"""Largest beta_t * max tau (about 354.9) at which a stratum's answer from
the stratum layout is accepted: its unscaled X = exp(-beta_t * tau) is then
at least X_MIN = 1 / sqrt(DBL_MAX), so X and y / X both stay in double
range.  The test is made on the computed X, after the solve."""

X_MIN = math.exp(-STRATUM_RANGE)
"""The least X of a usable pair (_expected_costs), in either layout."""


def _stratum_stacks(network: Network, first: np.ndarray, count: np.ndarray):
    """The stacks of the stratum layout for strata whose pairs are
    ``first[s]:first[s] + count[s]``, as many to a stack as
    ``network.solve_blocks`` allows (a stratum has n unknowns, as a pair):
    each stack's strata (an index into ``first``), pairs and the block of
    each pair, for _StackLU."""
    for g in network.solve_blocks(len(first)):
        sizes = count[g]
        pairs = np.concatenate([np.arange(f, f + c) for f, c in zip(first[g], sizes)])
        yield g, pairs, np.repeat(np.arange(len(sizes)), sizes)


class _RoutingPlan:
    """Every (scheme, stratum, destination) demand column of a batch of
    solves, flattened once so that a routing pass is one batched call.  A
    scheme is one (n_strata, n_arcs) array of price rates.  Its cost rows
    are the (scheme, stratum) rows ``scheme * n_strata + stratum`` and its
    pairs the rows ``scheme * pairs : (scheme + 1) * pairs``, in one order
    for every scheme: strata in instance order, destinations ascending.
    The price-independent parts (each pair's destination and
    sensitivities, and the origins, trips and outside costs of all pairs
    laid end to end) are built once and tiled across the schemes.

    A pass serves every pair of the schemes it routes from
    ``_expected_costs``, one stack at a time of at most
    ``network.MAX_BLOCK_ROWS`` unknowns, in two block layouts.  The stratum
    layout gives each (scheme, stratum) with several destinations one
    unscaled block for all of them, I - W_s with no row zeroed, its j-th
    destination in the stack's j-th right-hand-side column.  It needs no
    bound: a block is tried and its answer accepted when every pair is
    usable (beta_t * max tau <= STRATUM_RANGE), keeps a fixed-point residual
    of at most TAU_TOLERANCE and passes the routing checks.  A block whose
    X is finite and nonnegative but below X_MIN takes the per-pair layout
    for the rest of the solve (``per_pair``, one flag per (scheme,
    stratum)); one that fails otherwise falls back in that pass only.  The
    per-pair layout gives every other pair its own block, scaled by its
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
        schemes, n_strata = len(rates), len(self.strata)
        self.pairs = len(dest)  # of each scheme

        def tile(values, dtype):  # one copy per scheme
            values = np.array(values, dtype=dtype)
            return values if schemes == 1 else np.tile(values, schemes)

        self.toll = _tolls(self.strata, net, rates)  # (schemes, n_strata, n_arcs)
        self.stratum = tile(stratum, np.int64)  # the (scheme, stratum) row of each pair
        if schemes > 1:
            self.stratum += np.repeat(n_strata * np.arange(schemes), self.pairs)
        self.dest = tile(dest, np.int64)
        self.stratum_beta = tile([s.beta_t for s in self.strata], float)[:, None]
        self.beta = self.stratum_beta[self.stratum]
        counts = tile(counts, np.int64)
        self.bounds = np.concatenate(([0], np.cumsum(counts)))
        self.pair = np.repeat(np.arange(len(counts)), counts)
        self.origins = tile(origins, np.int64)
        self.trips = tile(trips, float)
        self.outside = tile(outside, float)
        self.beta_out = tile([s.beta_t_out for s in self.strata], float)[self.stratum[self.pair]]
        # each (scheme, stratum) row's pairs are self.first[s] : self.first[s] + self.count[s]
        self.count = np.bincount(self.stratum, minlength=schemes * n_strata)
        self.first = np.cumsum(self.count) - self.count
        self.per_pair = self.count < 2  # (scheme, stratum) rows kept off the stratum layout
        self.free_flow_bounds = None
        dead = np.flatnonzero(net.out_degree == 0)
        if len(dead):  # the choice kernel's per-node segments need an arc each
            raise NetworkError(f"node {net.node_id(int(dead[0]))!r} has no outgoing arc")

    def _free_flow_bounds(self) -> np.ndarray:
        """Every pair's shortest costs at free-flow times, (pairs, n_nodes),
        from one Dijkstra call made the first time they are needed."""
        if self.free_flow_bounds is None:
            net = self.network
            costs = (net.free_time + self.toll).reshape(-1, net.n_arcs)
            self.free_flow_bounds = shortest_costs(net, costs, self.dest, rows=self.stratum)
        return self.free_flow_bounds

    def _origins_of(self, pairs):
        """The rows of the origins of ``pairs`` (a slice or an index array),
        laid end to end, and the position in ``pairs`` of each one's pair."""
        if isinstance(pairs, slice):
            o = slice(self.bounds[pairs.start], self.bounds[pairs.stop])
            return o, self.pair[o] - pairs.start
        counts = self.bounds[pairs + 1] - self.bounds[pairs]
        owner = np.repeat(np.arange(len(pairs)), counts)
        offset = self.bounds[pairs] - (np.cumsum(counts) - counts)
        return np.arange(len(owner)) + offset[owner], owner

    def route(self, arc_time: np.ndarray, active=None):
        """One routing pass at fixed arc times, (schemes, n_arcs), of the
        schemes ``active`` (a boolean mask; None routes every scheme): one
        LU per stack of the stratum layout, then of the per-pair layout,
        each stack's accepted pairs written into the _PassResult of every
        pair (None when there is no demand).  The rows of the other schemes
        are left unset."""
        if not len(self.dest):
            return None
        net, k = self.network, len(self.dest)
        costs = (arc_time[:, None] + self.toll).reshape(-1, net.n_arcs)
        todo = np.ones(k, dtype=bool) if active is None else np.repeat(active, self.pairs)
        result = None

        def serve(pairs, block, weights, tau_ref, final) -> bool:
            """Route one stack, pairs a slice or an index array, and write
            its accepted pairs; False if a stratum-layout stack is singular."""
            nonlocal result
            dest, (o, owner) = self.dest[pairs], self._origins_of(pairs)
            try:
                tau, residual, probs, log_denom, solves, low, through = _expected_costs(
                    net, costs[self.stratum[pairs]], dest, self.beta[pairs], tau_ref,
                    TAU_TOLERANCE, block, weights)
            except FeasibilityError:
                if block is None:
                    raise
                return False
            ok, trips = low >= X_MIN, self.trips[o]
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
            fields = [tau, residual, solves, probs, x, v]
            if not ok.all():  # slices of pairs and origins become index arrays
                kept = ok[owner]
                pairs, o = np.arange(k)[pairs][ok], np.arange(len(self.origins))[o][kept]
                start_prob, fields = start_prob[kept], [f[ok] for f in fields]
            todo[pairs] = False
            if result is None and len(fields[1]) == k:  # one stack served every pair, in order
                result = _PassResult(*fields, start_prob)
                return True
            if result is None:
                result = _PassResult(*(np.empty((k, *f.shape[1:]), f.dtype) for f in fields),
                                     np.empty(len(self.origins)))
            for f, into in zip(fields, vars(result).values()):  # the fields before start_prob
                into[pairs] = f
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
            if final:
                bounds = np.empty_like(self.free_flow_bounds)
                bounds[rest] = shortest_costs(net, costs, self.dest[rest], rows=self.stratum[rest])
            else:
                bounds = self._free_flow_bounds()
            for b in net.solve_blocks(len(rest)):
                pairs = b if len(rest) == k else rest[b]  # slices: views, no copies
                serve(pairs, None, None, bounds[pairs], final)
        return result

    def response(self, result, scheme: int) -> np.ndarray:
        """The arc flows of one scheme's pairs in a pass, summed over its
        pairs in plan order, row by row: reproducible sums."""
        if result is None:
            return np.zeros(self.network.n_arcs)
        return result.v[scheme * self.pairs:(scheme + 1) * self.pairs].sum(axis=0)

    def subsolutions(self, result, scheme: int) -> dict:
        """The per-pair StratumDestinationSolution views of one scheme's pairs in a pass."""
        if result is None:
            return {}
        net, sub = self.network, {}
        for p in range(scheme * self.pairs, (scheme + 1) * self.pairs):
            d, lo, hi = self.dest[p], self.bounds[p], self.bounds[p + 1]
            name = self.strata[self.stratum[p] % len(self.strata)].name
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
                tau_converged=bool(result.residual[p] <= TAU_TOLERANCE),
                tau_residual=float(result.residual[p]),
                tau_iterations=int(result.solves[p]),
            )
        return sub


@dataclass
class _PassResult:
    tau: np.ndarray         # (pairs, n_nodes)
    residual: np.ndarray    # (pairs,) fixed-point residual of tau
    solves: np.ndarray      # (pairs,) expected-cost solves of each pair
    probs: np.ndarray       # (pairs, n_arcs)
    x: np.ndarray           # (pairs, n_nodes) node throughputs
    v: np.ndarray           # (pairs, n_arcs) arc flows
    start_prob: np.ndarray  # per origin, pairs laid end to end


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
    stops keeps its last pass as its snapshot.  Each scheme's solution is
    the one it gets solved alone, bit for bit.  ``log_fn`` receives every
    pass record of every scheme, its position in ``prices_list`` under
    ``"scheme"``.
    """
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
    last = [None] * len(rates)  # each scheme's last pass, response and gap
    converged = [False] * len(rates)
    live = list(range(len(rates)))  # the schemes still iterating

    for k in range(opts.outer_max_iters):
        active = result = None  # the last pass of a live scheme is not needed any more
        if len(live) < len(rates):
            active = np.zeros(len(rates), dtype=bool)
            active[live] = True
        for s in live:
            last[s] = None
        result = plan.route(net.latency_all(np.array(flows)), active)
        for s in list(live):
            response, f = plan.response(result, s), flows[s]
            if not np.all(np.isfinite(response)):
                raise SolverError("non-finite flow response")
            gap = float(np.max(np.abs(f - response))) if response.size else 0.0
            rec = {"scheme": s, "iteration": k, "residual": gap,
                   "wall_time": _time.perf_counter() - t0_wall}
            logs[s].append(rec)
            if log_fn is not None:
                log_fn(rec)
            last[s] = result, response, gap
            converged[s] = gap <= opts.outer_tol
            if converged[s] or k == opts.outer_max_iters - 1:
                live.remove(s)
            else:
                flows[s] = mixers[s].step(f, response - f)
        if not live:
            break

    solutions = []
    for s, (result, response, gap) in enumerate(last):
        sub = plan.subsolutions(result, s)
        solutions.append(EquilibriumSolution(
            total_flow=flows[s],
            arc_time=net.latency_all(flows[s]),
            response_flow=response,
            sub=sub,
            stratum_flow=_stratum_flows(instance.stratum_names, sub, net.n_arcs),
            price_rates=rates[s],
            converged=converged[s],
            inner_converged=all(sd.tau_converged for sd in sub.values()),
            outer_iterations=len(logs[s]),
            outer_residual=gap,
            iteration_log=logs[s],
        ))
    return solutions


def _stratum_flows(names, sub: dict, n_arcs: int) -> dict:
    """Each stratum's arc flows: its pairs' flows summed in key order from
    zero, so that a solved and a loaded solution give the same bits."""
    return {name: sum((sd.arc_flow for (s, _d), sd in sorted(sub.items()) if s == name),
                      np.zeros(n_arcs))
            for name in names}


SOLUTION_SCHEMA_VERSION = 5
"""Version of the solution file, the only one solution_from_dict reads (a file
of another version is solved again): 5 stores per-pair fields as columns."""

_PACKED = ("tau", "entering_flow", "arc_probs")  # one row of nodes or arcs per pair
_ENDS = ("origins", "trips", "start_prob")  # one entry per origin, pairs end to end
_STATUS = ("tau_converged", "tau_residual", "tau_iterations")  # one entry per pair
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
    per-pair fields as columns, a row per pair ``"stratum|destination"`` of
    ``pairs`` (in ``sorted(sub)`` order): ``tau``, ``entering_flow`` (pairs
    x nodes) and ``arc_probs`` (pairs x arcs) packed whole (_pack);
    ``origins``, ``trips`` and ``start_prob`` of the pairs end to end, each
    pair's count in ``origin_counts``; and a list per status field."""
    keys = sorted(solution.sub)
    rows = [solution.sub[key] for key in keys]
    sub = {"pairs": [f"{s}|{d}" for s, d in keys],
           "origin_counts": [len(sd.origins) for sd in rows],
           **{key: _pack(np.array([getattr(sd, key) for sd in rows])) for key in _PACKED},
           **{key: [v for sd in rows for v in getattr(sd, key).tolist()] for key in _ENDS},
           **{key: [getattr(sd, key) for sd in rows] for key in _STATUS}}
    return {
        "schema_version": SOLUTION_SCHEMA_VERSION,
        "arc_ids": [a.id for a in network.arcs],
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

    Each column of ``sub`` is decoded and checked once; each pair's arrays
    are views of its rows.  The derived arrays are rebuilt as the solver
    computes them, so they equal the solved ones bit for bit: ``arc_time``
    is the latency of ``total_flow``, each pair's ``arc_flow`` is
    ``entering_flow[tail] * arc_probs``, and ``stratum_flow`` sums the
    pairs' flows per stratum in key order from zero.
    Raises InstanceError for another schema version, another network, an
    array that does not fit the network or is not stored as solution_to_dict
    stores it, a pair listed twice, or a value out of range, naming its pair:
    flows, trips and price rates must be finite and nonnegative,
    probabilities in [0, 1], expected costs finite, flags true or false and
    iteration counts and residuals nonnegative (_status)."""
    version, = read_fields(doc, "solution", (), {"schema_version": None})
    if type(version) is not int or version != SOLUTION_SCHEMA_VERSION:
        raise InstanceError(f"solution schema version {version!r} is not "
                            f"{SOLUTION_SCHEMA_VERSION}: solve again to write it")
    arc_ids, sub_doc, strata, log = read_fields(doc, "solution", (
        "arc_ids", "sub", "strata", "iteration_log"))
    if arc_ids != [a.id for a in network.arcs]:
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
    tau, entering_flow, arc_probs, trips, start_prob = _arrays(sub_doc, at, {
        "tau": (k, n), "entering_flow": (k, n), "arc_probs": (k, m), "trips": owner.shape,
        "start_prob": owner.shape}, _PACKED,
        lambda key, i: f"{at}.{pairs[owner[i] if key in _ENDS else i]}.{key}")
    arc_flow = entering_flow[:, network.tail] * arc_probs
    origins, ends = np.array(origins, dtype=np.int64), np.cumsum([0] + counts).tolist()
    sub = {key: StratumDestinationSolution(
        *key, tau[i], entering_flow[i], arc_flow[i], arc_probs[i], origins[lo:hi], trips[lo:hi],
        start_prob[lo:hi], *_status({f: column[i] for f, column in zip(_STATUS, status)},
                                    f"{at}.{pairs[i]}", _STATUS))
        for (key, i), lo, hi in zip(rows.items(), ends, ends[1:])}
    total_flow, response_flow, price_rates = _arrays(doc, "solution", {
        "total_flow": (m,), "response_flow": (m,), "price_rates": (len(strata), m)})
    return EquilibriumSolution(
        total_flow, network.latency_all(total_flow), response_flow, sub,
        _stratum_flows(strata, sub, m), price_rates,
        *_status(doc, "solution", _OUTER_STATUS),
        iteration_log=[dict(zip(("iteration", "residual"), _status(
            entry, f"solution.iteration_log[{k}]", ("iteration", "residual"))))
            for k, entry in enumerate(read_section(log, "solution.iteration_log", list))])


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

    agg = sum((sd.arc_flow for _key, sd in sorted(solution.sub.items())), np.zeros(net.n_arcs))
    flow_residual = float(np.max(np.abs(solution.total_flow - agg))) if agg.size else 0.0

    congestible = net.bpr_gamma > 0  # flat arcs have no latency inverse
    grad = (net.inverse_latency_all(t) - agg)[congestible]
    phi_gradient_residual = float(np.max(np.abs(grad))) if grad.size else 0.0

    keys = sorted(solution.sub)
    tau_residuals, bound_violation = {}, 0.0
    if keys:  # all pairs in one Dijkstra call and one kernel pass
        costs = _arc_costs(instance.strata, net, rates, t)
        rows = np.array([instance.stratum_names.index(s_name) for s_name, _d in keys])
        dest = np.array([net.node_index[d_id] for _s, d_id in keys])
        beta = np.array([[instance.strata[r].beta_t] for r in rows])
        tau = np.array([solution.sub[key].tau for key in keys])
        residual = _fixed_point(net, costs[rows], dest, beta, tau)[0]
        tau_residuals = {key: float(r) for key, r in zip(keys, residual)}
        bound = shortest_costs(net, costs, dest, rows=rows)
        bound_violation = max(bound_violation, float(np.max(tau - bound)))

    fd_checks = None
    if fd_arcs is not None:
        arcs, k = np.array(list(fd_arcs), dtype=np.int64), len(keys)
        weighted = np.zeros((k, net.n_nodes))  # started demand per origin
        for p, sd in enumerate(solution.sub[key] for key in keys):
            np.add.at(weighted[p], sd.origins, sd.trips * sd.start_prob)
        # row r: arc r // (2 * k), pair r // 2 % k, time +h (even r) or -h
        tolls, tau_sum = _tolls(instance.strata, net, rates), np.zeros(2 * len(arcs) * k)
        for b in net.solve_blocks(len(tau_sum)):
            r = np.arange(b.start, b.stop)
            pair, tp = r // 2 % k, np.tile(t, (len(r), 1))
            tp[np.arange(len(r)), arcs[r // (2 * k)]] += (1.0 - 2.0 * (r % 2)) * fd_step
            tau_fd, *_rest, low, _through = _expected_costs(
                net, tp + tolls[rows[pair]], dest[pair], beta[pair], tau[pair],
                min(1e-10, fd_step * 1e-3))
            if not np.all(low >= X_MIN):
                raise FeasibilityError(_UNBOUNDED)
            tau_sum[b] = [weighted[p] @ x for p, x in zip(pair, tau_fd)]
        est = iter((tau_sum[0::2] - tau_sum[1::2]) / (2.0 * fd_step))
        fd_checks = {(net.arcs[a].id, *key): (float(next(est)), float(solution.sub[key].arc_flow[a]))
                     for a in arcs for key in keys}

    return EquilibriumDiagnostics(
        flow_residual=flow_residual,
        tau_residuals=tau_residuals,
        phi_gradient_residual=phi_gradient_residual,
        tau_bound_violation=bound_violation,
        fd_checks=fd_checks,
    )
