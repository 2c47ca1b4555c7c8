"""The absorbing chain of a (stratum, destination) routing, and its kernels.

Every pair routes on the arc weights W = exp(-beta_t * cost) of its stratum,
its destination d absorbing: W_d is W with the row of d zeroed.  Expected
optimal costs, node throughputs and expected trip time, toll and distance
are each a solve with I - W_d or its transpose (Akamatsu, Transp. Res. B
1996), so one sparse LU serves all of them.  _StackLU factors a stack of
blocks in one of two layouts: a pair's own block, scaled by a bound on its
expected costs, or one unscaled block I - W_s for every destination of a
stratum (Sherman-Morrison on the destination's row), accepted while its
answer stays in double range (STRATUM_RANGE).  On it, _expected_costs solves
the logit fixed point tau, _route pushes demand through the choice
probabilities, and _stratum_trip_stats solves a stratum's trip statistics,
each stacked answer checked against its pair's probabilities
(STACK_RESIDUAL).  No pair's bits depend on the other pairs of its stack.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse.linalg import splu

from . import choice
from .network import Network


class FeasibilityError(RuntimeError):
    """No finite expected optimal costs at the given costs, so no equilibrium
    exists: for some destination d the arc weights exp(-beta_t * cost), d's
    row zeroed, have spectral radius >= 1.  Typically the logit time
    sensitivity is too small for the arc costs."""


_UNBOUNDED = ("expected optimal costs are unbounded (spectral radius of the arc weights "
              "exp(-beta_t * cost), the destination's row zeroed, >= 1); agents do not "
              "reach the destination in finite expected cost")

STRATUM_RANGE = 0.5 * float(np.log(np.finfo(float).max))
"""Largest beta_t * max tau (about 354.9) at which a stratum's answer from
the stratum layout is accepted: its unscaled X = exp(-beta_t * tau) is then
at least X_MIN = 1 / sqrt(DBL_MAX), so X and y / X both stay in double
range.  Routing tests the computed X; trip statistics the stored tau."""

X_MIN = math.exp(-STRATUM_RANGE)
"""The least X of a usable pair (_expected_costs), in either layout."""

#: The largest residual of T = r + P T[head] that a stacked pair's answer
#: may leave, relative to max(1, |T|), before the pair is solved on its own.
STACK_RESIDUAL = 1e-10


def _arc_costs(strata, net: Network, rates: np.ndarray, arc_time: np.ndarray) -> np.ndarray:
    """Generalized arc costs, (n_strata, n_arcs): time plus _tolls."""
    return arc_time + _tolls(strata, net, rates)


def _tolls(strata, net: Network, rates: np.ndarray) -> np.ndarray:
    """Each stratum's toll in hours, (..., n_strata, n_arcs): ``rates *
    net.primary_length`` at its beta_p / beta_t."""
    ratio = np.array([[s.beta_p / s.beta_t] for s in strata])
    return ratio * (rates * net.primary_length)


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
    unrefined one), ``through``: (k, n) right-hand sides y ->
    X * (I - W_d)^-T (y / X), the routing solve of _route, the stack, and
    ``usable``, the one test of ``low`` against X_MIN."""
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
            lambda y: X * stack.solve_transposed(y / X), stack, usable)


def _fixed_point(network: Network, costs: np.ndarray, dest: np.ndarray, beta,
                 tau: np.ndarray):
    """Per-row sup-norm residual of tau = phi(costs + tau[head]),
    tau[dest] = 0, for (k, n) ``tau``, with the choice probabilities and
    log-denominators of the same kernel pass."""
    phi, probs, log_denom = choice.logit_nodes(
        costs + tau[:, network.head], beta, network.out_start)
    phi[np.arange(len(dest)), dest] = 0.0
    return np.max(np.abs(phi - tau), axis=1), probs, log_denom


def _absorbed(network: Network, probs: np.ndarray, dest: np.ndarray) -> np.ndarray:
    """The (k, m) choice probabilities ``probs`` with the out-arcs of each
    pair's destination zeroed: P_d, under which a walk ends at d."""
    return np.where(network.tail == dest[:, None], 0.0, probs)


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
    and the SolverError message of the worst of them (None when none
    fails).  A non-finite residual or throughput fails too."""
    k, n = log_denom.shape
    column = np.arange(k)
    diag = column * n + dest  # flat index of (p, dest[p]) in (k, n)
    _p_out, p_start = choice.outside_prob_from_log_denominator(
        outside_cost, log_denom[pair, origins], beta_t_out)

    y = np.zeros((k, n))
    np.add.at(y, (pair, origins), trips * p_start)
    y.put(diag, 0.0)

    live = _absorbed(network, probs, dest)
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


def _trip_sums(net: Network, arc_probs: np.ndarray, dest: np.ndarray, time, money):
    """P_d (k, m) of _absorbed and r (3, k, n): each node's expected time,
    money and distance of one step under it, for arc ``time`` and ``money``
    of shape (m,) or (k, m)."""
    live = _absorbed(net, arc_probs, dest)
    step = np.empty((3, *live.shape))
    for out, weight in zip(step, (time, money, net.length)):
        np.multiply(live, weight, out=out)
    return live, _node_sums(net, step)


def _node_sums(net: Network, arc_values: np.ndarray) -> np.ndarray:
    """(..., m) values per arc summed over each node's out-arcs: (..., n)."""
    *lead, _m = arc_values.shape
    rows, n = math.prod(lead), net.n_nodes
    sums = np.bincount((net.tail + n * np.arange(rows)[:, None]).ravel(), arc_values.ravel(),
                       minlength=rows * n)
    return sums.reshape(*lead, n)


def _in_range(beta: np.ndarray, tau: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Whether each stratum, the pairs ``first[j]:first[j + 1]`` (the last
    to the end) of (k, 1) ``beta`` and (k, n) ``tau``, keeps beta_t * max
    tau <= STRATUM_RANGE: its trip statistics may take the stratum layout."""
    return np.maximum.reduceat((beta * tau).max(axis=1), first) <= STRATUM_RANGE


def _stratum_trip_stats(net: Network, stack: _StackLU, beta: np.ndarray, tau: np.ndarray,
                        arc_probs: np.ndarray, time, money):
    """Expected time, money and distance T (3, k, n) of the k pairs of a
    stratum-layout ``stack``, (I - P_d) T = r (_trip_sums) under their
    ``arc_probs``, and whether each pair's T is kept: with X = exp(-beta
    tau), P = D^-1 W D for D = diag(X), so T = (I - W_d)^-1 (X r) / X.  A
    pair is kept when its stratum is _in_range and T = r + P T[head], T[d]
    = 0, holds within STACK_RESIDUAL * max(1, |T|): the one rule of the
    solve's stop step and all_trip_stats."""
    first = np.flatnonzero(np.diff(stack.block, prepend=-1))  # each block's first pair
    live, r = _trip_sums(net, arc_probs, stack.dest, time, money)
    with np.errstate(all="ignore"):  # a non-finite value fails the check
        X = np.exp(-beta * tau)
        T = stack.solve(X * r) / X
        T[:, np.arange(len(tau)), stack.dest] = 0.0
        resid = np.abs(T - r - _node_sums(net, live * T[..., net.head])).max(axis=2)
        scale = np.maximum(1.0, np.abs(T).max(axis=2))
        ok = (resid <= STACK_RESIDUAL * scale).all(axis=0)
    return ok & _in_range(beta, tau, first)[stack.block], T
