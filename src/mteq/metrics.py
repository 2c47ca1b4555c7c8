"""Welfare, revenue, and traffic metrics of an equilibrium solution.

Expected per-trip quantities (time, money, distance) come from the
absorbing-chain linear systems of the (stratum, destination) routings,
stacked into block-diagonal solves; the
Monte Carlo simulator replays individual trips against the same transition
probabilities and serves as an independent cross-check and the source of
trajectory-level output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import spsolve

from .equilibrium import EquilibriumSolution
from .instance import Instance
from .network import Network


@dataclass(frozen=True)
class TripStats:
    stratum: str
    origin: str
    destination: str
    time: float          # expected drive time (hours)
    money: float         # expected toll paid
    distance: float      # expected distance (km)
    start_prob: float    # probability the trip starts (1 - P_outside)


@dataclass
class MetricsReport:
    scheme_id: str
    stratum_names: list[str]
    welfare: dict            # stratum -> W (literal definition)
    welfare_delta: dict      # stratum -> W(p) - W(0)
    total_welfare: float
    total_welfare_delta: float
    revenue: dict            # stratum -> R
    total_revenue: float
    trips_started: dict      # stratum -> proportion of demand that drives
    trips_started_overall: float
    primary_share_distance: dict   # stratum -> share, NaN when stratum has no flow
    primary_share_flow: dict
    avg_speed_trip: dict     # km/h, trip-weighted (headline)
    avg_speed_flow: dict     # km/h, arc-flow weighted
    per_od: list             # TripStats rows
    provenance: str = "analytic"
    seed: int | None = None
    runs: int | None = None

    def to_dict(self) -> dict:
        def clean(d):
            return {k: (None if isinstance(v, float) and math.isnan(v) else v)
                    for k, v in d.items()}
        return {
            "scheme_id": self.scheme_id,
            "strata": self.stratum_names,
            "welfare": self.welfare,
            "welfare_delta": self.welfare_delta,
            "total_welfare": self.total_welfare,
            "total_welfare_delta": self.total_welfare_delta,
            "revenue": self.revenue,
            "total_revenue": self.total_revenue,
            "trips_started": self.trips_started,
            "trips_started_overall": self.trips_started_overall,
            "primary_share_distance": clean(self.primary_share_distance),
            "primary_share_flow": clean(self.primary_share_flow),
            "avg_speed_trip": clean(self.avg_speed_trip),
            "avg_speed_flow": clean(self.avg_speed_flow),
            "per_od": [vars(t) for t in self.per_od],
            "provenance": self.provenance,
            "seed": self.seed,
            "runs": self.runs,
        }


# ---------------------------------------------------------------------------
# Analytic expectations

def _absorbing_block(net: Network, probs: np.ndarray, weights: np.ndarray,
                     dest: np.ndarray) -> np.ndarray:
    """Solve T_i = sum_a P_ia (w_a + T_head(a)) with T_dest = 0 for several
    weight columns and k (stratum, destination) pairs at once, from one
    block-diagonal solve: ``probs`` is (k, n_arcs), ``weights``
    (k, n_arcs, c); returns (k, n_nodes, c)."""
    k, n, c = len(dest), net.n_nodes, weights.shape[-1]
    live = (net.tail != dest[:, None])[..., None]
    # arcs are stored grouped by tail: each node's terms are one segment
    rhs = np.add.reduceat(np.where(live, probs[..., None] * weights, 0.0),
                          net.out_start[:-1], axis=1)
    out = spsolve(net.chain_matrix(probs, dest), rhs.reshape(k * n, c))
    return np.asarray(out).reshape(k, n, c)


def all_trip_stats(instance: Instance, solution: EquilibriumSolution) -> dict:
    """TripStats for every demanded (stratum, origin, destination): expected
    time, money and distance from block-diagonal solves over all pairs
    (``Network.solve_blocks``), plus the start probabilities."""
    keys = sorted(solution.sub)
    if not keys:
        return {}
    net = instance.network
    subs = [solution.sub[key] for key in keys]
    s_idx = [instance.stratum_names.index(s) for s, _ in keys]
    kappa = solution.price_rates[s_idx] * net.primary_length
    W = np.stack(np.broadcast_arrays(solution.arc_time, kappa, net.length), axis=-1)
    probs = np.array([sd.arc_probs for sd in subs])
    dest = np.array([net.node_index[d] for _, d in keys])
    exp = np.concatenate([_absorbing_block(net, probs[b], W[b], dest[b])
                          for b in net.solve_blocks(len(keys))])
    stats = {}
    for (stratum, destination), sd, e in zip(keys, subs, exp):
        for pos, origin_idx in enumerate(sd.origins):
            origin = net.node_id(int(origin_idx))
            stats[(stratum, origin, destination)] = TripStats(
                stratum=stratum,
                origin=origin,
                destination=destination,
                time=float(e[origin_idx, 0]),
                money=float(e[origin_idx, 1]),
                distance=float(e[origin_idx, 2]),
                start_prob=float(sd.start_prob[pos]),
            )
    return stats


def total_welfare(per_stratum) -> float:
    """Total welfare: plain sum over strata."""
    vals = per_stratum.values() if isinstance(per_stratum, dict) else per_stratum
    return float(sum(vals))


def revenue(solution: EquilibriumSolution, prices, stratum: str,
            instance: Instance) -> float:
    """Expected toll revenue collected from one stratum:
    sum over arcs of stratum flow times the arc's toll."""
    net = instance.network
    rates = np.asarray(getattr(prices, "rates", prices), dtype=float)
    s_idx = instance.stratum_names.index(stratum)
    kappa = rates[s_idx] * net.primary_length
    return float(np.dot(solution.stratum_flow[stratum], kappa))


def primary_flow_share(solution: EquilibriumSolution, stratum: str,
                       instance: Instance, weight: str = "distance") -> float:
    """Fraction of a stratum's flow on primary roads.

    Distance-weighted (flow * length) by default; ``weight="flow"`` uses raw
    arc flow.  NaN when the stratum moves no flow at all (undefined, not 0).
    """
    net = instance.network
    f = solution.stratum_flow[stratum]
    w = f * net.length if weight == "distance" else f
    tot = float(w.sum())
    if tot <= 0.0:
        return float("nan")
    return float(w[net.is_primary].sum()) / tot


# ---------------------------------------------------------------------------
# Report assembly

def baseline_trip_stats(instance: Instance,
                        solution_0: EquilibriumSolution) -> dict:
    """Trip stats of the toll-free equilibrium, computed once and shared by
    every welfare evaluation of the same instance."""
    return all_trip_stats(instance, solution_0)


def compute_metrics(instance: Instance, solution: EquilibriumSolution,
                    baseline, prices=None, scheme_id: str = "") -> MetricsReport:
    """Analytic MetricsReport for one equilibrium against its toll-free
    baseline (an EquilibriumSolution or precomputed baseline_trip_stats).

    Welfare is averaged over each stratum's positive-demand OD pairs:
    drivers weigh the toll-free expected time against their current time
    plus money (converted at the stratum's price/time sensitivity ratio);
    agents on the outside option weigh it against the outside time plus
    fare.  ``welfare_delta`` subtracts the same expression evaluated at the
    toll-free equilibrium itself, making the no-toll scheme worth exactly
    zero.
    """
    net = instance.network
    prices = solution.price_rates if prices is None else prices
    stats_p = all_trip_stats(instance, solution)
    stats_0 = baseline if isinstance(baseline, dict) else baseline_trip_stats(instance, baseline)
    trips_of = {(e.stratum, e.origin, e.destination): e.trips for e in instance.demand}

    w, dw, rev, started, share_d, share_f, v_trip, v_flow = {}, {}, {}, {}, {}, {}, {}, {}
    per_od = []
    for s in instance.strata:
        ratio, ratio_out = s.beta_p / s.beta_t, s.beta_p_out / s.beta_t_out
        pairs = instance.od_pairs(s.name)
        w_sum = w0_sum = g_tot = g_started = t_tot = d_tot = 0.0
        for (o, d) in pairs:
            key = (s.name, o, d)
            if key not in stats_p or key not in stats_0:
                raise ValueError(f"missing trip stats for {key}; mismatched instances?")
            row, base = stats_p[key], stats_0[key]
            out = (base.time - instance.outside_time[(o, d)]
                   - ratio_out * instance.outside.ticket_for(o, d))
            w_sum += ((base.time - row.time - ratio * row.money) * row.start_prob
                      + out * (1.0 - row.start_prob))
            # w0: the same expression with the baseline as the current state
            w0_sum += ((base.time - base.time - ratio * base.money) * base.start_prob
                       + out * (1.0 - base.start_prob))
            g = trips_of[key]
            g_tot += g
            g_started += g * row.start_prob
            t_tot += g * row.start_prob * row.time
            d_tot += g * row.start_prob * row.distance
            per_od.append(row)
        n_pairs = max(len(pairs), 1)  # a stratum without demand has welfare 0
        w[s.name] = w_sum / n_pairs
        dw[s.name] = w[s.name] - w0_sum / n_pairs
        rev[s.name] = revenue(solution, prices, s.name, instance)
        started[s.name] = g_started / g_tot if g_tot > 0 else float("nan")
        share_d[s.name] = primary_flow_share(solution, s.name, instance, "distance")
        share_f[s.name] = primary_flow_share(solution, s.name, instance, "flow")
        v_trip[s.name] = d_tot / t_tot if t_tot > 0 else float("nan")
        fl = solution.stratum_flow[s.name]
        tsum = float(np.dot(fl, solution.arc_time))
        v_flow[s.name] = float(np.dot(fl, net.length)) / tsum if tsum > 0 else float("nan")

    g_all = sum(e.trips for e in instance.demand)
    started_all = sum(
        e.trips * stats_p[(e.stratum, e.origin, e.destination)].start_prob
        for e in instance.demand)
    return MetricsReport(
        scheme_id=scheme_id,
        stratum_names=list(instance.stratum_names),
        welfare=w,
        welfare_delta=dw,
        total_welfare=total_welfare(w),
        total_welfare_delta=total_welfare(dw),
        revenue=rev,
        total_revenue=total_welfare(rev),
        trips_started=started,
        trips_started_overall=started_all / g_all if g_all > 0 else float("nan"),
        primary_share_distance=share_d,
        primary_share_flow=share_f,
        avg_speed_trip=v_trip,
        avg_speed_flow=v_flow,
        per_od=per_od,
    )


def write_metrics_csvs(report: MetricsReport, out_dir) -> None:
    """Flat CSV serialization: one row per stratum and one per OD pair."""
    import csv
    from pathlib import Path

    out_dir = Path(out_dir)
    with open(out_dir / "metrics_strata.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["scheme_id", "stratum", "welfare", "welfare_delta", "revenue",
                    "trips_started", "primary_share_distance", "primary_share_flow",
                    "avg_speed_trip", "avg_speed_flow"])
        for s in report.stratum_names:
            w.writerow([report.scheme_id, s,
                        repr(report.welfare[s]), repr(report.welfare_delta[s]),
                        repr(report.revenue[s]), repr(report.trips_started[s]),
                        repr(report.primary_share_distance[s]),
                        repr(report.primary_share_flow[s]),
                        repr(report.avg_speed_trip[s]), repr(report.avg_speed_flow[s])])
    with open(out_dir / "metrics_od.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["scheme_id", "stratum", "origin", "destination",
                    "expected_time", "expected_money", "expected_distance",
                    "start_prob"])
        for t in report.per_od:
            w.writerow([report.scheme_id, t.stratum, t.origin, t.destination,
                        repr(t.time), repr(t.money), repr(t.distance),
                        repr(t.start_prob)])


# ---------------------------------------------------------------------------
# Monte Carlo trip simulation

@dataclass
class SimulatedTrip:
    stratum: str
    origin: str
    destination: str
    started: bool
    arcs: list
    time: float
    money: float
    distance: float
    primary_distance: float
    truncated: bool


@dataclass
class SimulationReport:
    seed: int
    runs_per_unit: int
    step_cap: int
    trips: list = field(default_factory=list)
    truncated_count: int = 0

    def by_stratum(self, stratum: str) -> list:
        return [t for t in self.trips if t.stratum == stratum]

    def summary(self, strata) -> dict:
        """Per stratum of ``strata``: trip count, started proportion, and the
        mean time, primary-distance share and average speed of completed
        trips (NaN where undefined), grouping the trips in one pass."""
        groups = {s: [] for s in strata}
        for t in self.trips:
            if t.stratum in groups:
                groups[t.stratum].append(t)
        return {s: _aggregate(mine) for s, mine in groups.items()}

    def completed(self, stratum: str) -> list:
        return _completed(self.by_stratum(stratum))


def _completed(trips: list) -> list:
    return [t for t in trips if t.started and not t.truncated]


def _aggregate(trips: list) -> dict:
    """Trip count and started proportion of a stratum's trips, plus mean
    time, primary-distance share and average speed of its completed trips;
    NaN where undefined."""
    nan = float("nan")
    done = _completed(trips)
    dist = sum(t.distance for t in done)
    tt = sum(t.time for t in done)
    return {
        "trips": len(trips),
        "started_proportion": sum(t.started for t in trips) / len(trips) if trips else nan,
        "mean_time": float(np.mean([t.time for t in done])) if done else nan,
        "primary_share": sum(t.primary_distance for t in done) / dist if dist > 0 else nan,
        "avg_speed": dist / tt if tt > 0 else nan,
    }


def simulate_trips(instance: Instance, solution: EquilibriumSolution,
                   runs_per_unit: int = 10, seed: int = 0,
                   step_cap: int | None = None,
                   keep_paths: bool = False) -> SimulationReport:
    """Replay individual trips against the equilibrium probabilities.

    Each demand unit of each OD pair is simulated ``runs_per_unit`` times: a
    Bernoulli start decision against the outside option, then a random walk
    over outgoing arcs until the destination absorbs the trip or the step
    cap trips the truncation flag (truncated trips are counted, never
    dropped).  Each (stratum, origin, destination) draws from one substream
    keyed by (seed, stratum, origin, destination): first the start uniforms
    of all its replicates, then the walk of the started ones in lockstep
    (``_lockstep_walk``).  Results therefore do not depend on scheduling
    order; trips are listed by pair, then origin, then replicate.
    """
    net = instance.network
    if step_cap is None:
        step_cap = 50 * net.n_nodes
    if step_cap <= net.n_nodes:
        raise ValueError("step_cap must exceed the node count")
    report = SimulationReport(seed=seed, runs_per_unit=runs_per_unit, step_cap=step_cap)
    arc_ids = np.array([a.id for a in net.arcs], dtype=object)
    # arc_of[i, k]: node i's k-th out-arc, clipped to its last
    width = int(net.out_degree.max())
    arc_of = np.minimum(net.out_start[:-1, None] + np.arange(width + 1),
                        net.out_start[1:, None] - 1)
    slot = np.arange(net.n_arcs) - net.out_start[net.tail]

    for (s_name, d_id), sd in sorted(solution.sub.items()):
        s_idx = instance.stratum_names.index(s_name)
        d = net.node_index[d_id]
        weights = np.column_stack([solution.arc_time,
                                   solution.price_rates[s_idx] * net.primary_length,
                                   net.length, net.primary_length])
        # cum[i, k]: cumulative probability of node i's first k+1 out-arcs
        cum = np.full((net.n_nodes, width), np.inf)
        cum[net.tail, slot] = _segment_cumsum(sd.arc_probs, net.out_start)
        for pos, origin_idx in enumerate(sd.origins):
            o = int(origin_idx)
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(s_idx, o, d)))
            n_reps = int(round(sd.trips[pos])) * runs_per_unit
            started = rng.random(n_reps) < float(sd.start_prob[pos])
            n_walk = int(started.sum())
            walker, arcs, truncated = _lockstep_walk(net, cum, arc_of, o, d, n_walk,
                                                     step_cap, rng)
            time, money, dist, prim = (
                np.bincount(walker, weights=weights[arcs, j], minlength=n_walk).tolist()
                for j in range(4))
            if keep_paths:
                ids = arc_ids[arcs[np.argsort(walker, kind="stable")]].tolist()
                ends = np.cumsum(np.bincount(walker, minlength=n_walk)).tolist()
                paths = [ids[lo:hi] for lo, hi in zip([0] + ends, ends)]
            else:
                paths = [[] for _ in range(n_walk)]
            report.truncated_count += int(truncated.sum())
            walks = zip(paths, time, money, dist, prim, truncated.tolist())
            o_id = net.node_id(o)
            for is_started in started.tolist():
                report.trips.append(
                    SimulatedTrip(s_name, o_id, d_id, True, *next(walks)) if is_started else
                    SimulatedTrip(s_name, o_id, d_id, False, [], 0.0, 0.0, 0.0, 0.0, False))
    return report


def _segment_cumsum(probs: np.ndarray, out_start: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs)
    seg_offsets = np.concatenate(([0.0], cum[out_start[1:-1] - 1]))
    return cum - np.repeat(seg_offsets, np.diff(out_start))


def _lockstep_walk(net: Network, cum: np.ndarray, arc_of: np.ndarray, origin: int,
                   dest: int, n: int, step_cap: int, rng):
    """Walk ``n`` trips from ``origin`` in lockstep until ``dest`` absorbs
    them or ``step_cap`` steps pass.

    Each step draws one uniform ``r`` per trip still walking, in trip order,
    and moves the trip at node ``i`` along ``arc_of[i, k]``, where ``k``
    counts the entries of ``cum[i]`` that are <= ``r``: the arc that
    ``searchsorted(cum[i], r, side="right")`` picks, clipped to the node's
    last arc.  Returns the steps taken as (trip, arc) index arrays in step
    order, and the mask of trips still walking at the cap (truncated).
    """
    live = np.arange(n)
    node = np.full(n, origin)
    walkers, arcs = [live[:0]], [live[:0]]
    for _ in range(step_cap):
        if not live.size:
            break
        r = rng.random(live.size)
        a = arc_of[node, (cum[node] <= r[:, None]).sum(axis=1)]
        walkers.append(live)
        arcs.append(a)
        node = net.head[a]
        moving = node != dest
        live, node = live[moving], node[moving]
    truncated = np.zeros(n, dtype=bool)
    truncated[live] = True
    return np.concatenate(walkers), np.concatenate(arcs), truncated
