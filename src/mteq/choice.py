"""Logit choice kernels: expected-minimum operator, arc choice probabilities,
and the trip-start probability against an outside alternative.

All kernels are pure functions of cost vectors.  The expected minimum of
``n`` alternatives with i.i.d. Gumbel perturbations at sensitivity ``beta``
has the closed form -log(sum exp(-beta z)) / beta, evaluated here with a
max shift so that arbitrarily large cost gaps neither overflow nor lose the
finite alternatives.  The solver's per-node kernel, ``logit_nodes``, returns
the expected minimum, the choice probabilities and the log-denominators of
many cost rows from one max/exp/sum pass.
"""

from __future__ import annotations

import numpy as np


def phi(z, beta_t: float) -> float:
    """Expected minimum cost over the alternatives ``z``.

    Satisfies min(z) - log(len(z))/beta <= phi <= min(z), equals z[0] for a
    single alternative, and shifts by k when every entry shifts by k.
    """
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise ValueError("phi of an empty alternative set")
    if beta_t <= 0:
        raise ValueError("beta_t must be positive")
    w = -beta_t * z
    m = w.max()
    return float(-(m + np.log(np.exp(w - m).sum())) / beta_t)


def transition_probs(z, beta_t: float) -> np.ndarray:
    """Multinomial-logit choice probabilities over the alternatives ``z``."""
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise ValueError("transition_probs of an empty alternative set")
    if beta_t <= 0:
        raise ValueError("beta_t must be positive")
    w = -beta_t * z
    w -= w.max()
    e = np.exp(w)
    return e / e.sum()


def outside_prob(outside_cost: float, z, beta_t: float, beta_t_out: float) -> float:
    """Probability of not starting the trip, given the outside-option cost and
    the cost-to-go vector of the origin's outgoing arcs."""
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise ValueError("outside_prob needs at least one driving alternative")
    if beta_t <= 0 or beta_t_out <= 0:
        raise ValueError("sensitivities must be positive")
    a = -beta_t_out * outside_cost
    w = -beta_t * z
    m = max(a, w.max())
    ea = np.exp(a - m)
    return float(ea / (ea + np.exp(w - m).sum()))


# Segmented kernels used by the equilibrium solver: one call evaluates the
# logit at every node, with out_start[i]:out_start[i+1] slicing the per-arc
# costs along the last axis of z.  Every segment must be nonempty (positive
# out-degree).

def logit_nodes(z: np.ndarray, beta, out_start: np.ndarray):
    """Fused segmented logit kernel: (phi, probs, log_denom) from one
    max/exp/sum pass.

    ``z`` holds per-arc costs-to-go, shape (m,) or (k, m) for k independent
    rows; ``beta`` is a scalar or a (k, 1) column of sensitivities.  Returns
    the expected minimum per node, the choice probability of each arc at its
    tail node (summing to 1 per node), and log sum exp(-beta * z) per node,
    the driving side of the start logit.
    """
    w = -beta * z
    starts = out_start[:-1]
    reps = np.diff(out_start)
    m = np.maximum.reduceat(w, starts, axis=-1)
    e = np.exp(w - np.repeat(m, reps, axis=-1))
    s = np.add.reduceat(e, starts, axis=-1)
    log_denom = m + np.log(s)
    return -log_denom / beta, e / np.repeat(s, reps, axis=-1), log_denom


def phi_nodes(z: np.ndarray, beta_t: float, out_start: np.ndarray) -> np.ndarray:
    """Expected minimum cost per node."""
    return logit_nodes(z, beta_t, out_start)[0]


def probs_nodes(z: np.ndarray, beta_t: float, out_start: np.ndarray) -> np.ndarray:
    """Per-arc choice probability at the arc's tail node; sums to 1 per node."""
    return logit_nodes(z, beta_t, out_start)[1]


def log_denominator_nodes(z: np.ndarray, beta_t: float,
                          out_start: np.ndarray) -> np.ndarray:
    """log sum exp(-beta_t * z) per node; the driving side of the start logit."""
    return logit_nodes(z, beta_t, out_start)[2]


def outside_prob_from_log_denominator(outside_cost, log_denom, beta_t_out: float):
    """Stable start/stay-out split given precomputed per-node log denominators.

    Returns (p_out, p_start) with p_out + p_start == 1.
    """
    a = -beta_t_out * np.asarray(outside_cost, dtype=float)
    d = np.asarray(log_denom, dtype=float)
    m = np.maximum(a, d)
    ea = np.exp(a - m)
    ed = np.exp(d - m)
    tot = ea + ed
    return ea / tot, ed / tot
