"""Logit choice kernel: expected minimum, arc choice probabilities and the
log-denominators of the trip-start logit, from one pass.

The expected minimum of ``n`` alternatives with i.i.d. Gumbel perturbations
at sensitivity ``beta`` has the closed form -log(sum exp(-beta z)) / beta,
evaluated here with a max shift so that arbitrarily large cost gaps neither
overflow nor lose the finite alternatives.  ``logit_nodes`` is the one
implementation, for every node of many cost rows (a set of alternatives is
one row of one segment); ``outside_prob_from_log_denominator`` splits trips
between starting and the outside option.
"""

from __future__ import annotations

import numpy as np


def logit_nodes(z: np.ndarray, beta, out_start: np.ndarray):
    """Fused segmented logit kernel: (phi, probs, log_denom) from one
    max/exp/sum pass.

    ``z`` holds per-arc costs-to-go, shape (m,) or (k, m) for k independent
    rows, and out_start[i]:out_start[i+1] slices node i's arcs along its last
    axis (every segment nonempty: a positive out-degree); ``beta`` is a
    scalar or a (k, 1) column of sensitivities.  Returns the expected
    minimum per node, the choice probability of each arc at its tail node
    (summing to 1 per node), and log sum exp(-beta * z) per node, the
    driving side of the start logit.
    """
    w = -beta * z
    starts = out_start[:-1]
    reps = np.diff(out_start)
    m = np.maximum.reduceat(w, starts, axis=-1)
    e = np.exp(w - np.repeat(m, reps, axis=-1))
    s = np.add.reduceat(e, starts, axis=-1)
    log_denom = m + np.log(s)
    return -log_denom / beta, e / np.repeat(s, reps, axis=-1), log_denom


# kept: perfbench/tracing.py wraps it by name; see ROADMAP "The benchmark reads the program"
def phi_nodes(z: np.ndarray, beta_t: float, out_start: np.ndarray) -> np.ndarray:
    """Expected minimum cost per node."""
    return logit_nodes(z, beta_t, out_start)[0]


# kept: perfbench/tracing.py wraps it by name; see ROADMAP "The benchmark reads the program"
def probs_nodes(z: np.ndarray, beta_t: float, out_start: np.ndarray) -> np.ndarray:
    """Per-arc choice probability at the arc's tail node; sums to 1 per node."""
    return logit_nodes(z, beta_t, out_start)[1]


# kept: perfbench/tracing.py wraps it by name; see ROADMAP "The benchmark reads the program"
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
