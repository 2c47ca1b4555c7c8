"""Welfare, revenue, and traffic metrics of an equilibrium solution.

Expected per-trip quantities (time, money, distance) come from the
absorbing-chain linear systems of the (stratum, destination) routings,
stacked into block-diagonal solves; the
Monte Carlo simulator replays individual trips against the same transition
probabilities and serves as an independent cross-check and the source of
trajectory-level output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import spsolve

from .equilibrium import EquilibriumSolution
from .instance import Instance, nan_to_null
from .network import Network

#: The per-stratum metrics of a pricing scheme and their totals, in the
#: column order of every table that lists them.
STRATUM_METRICS = ("welfare", "welfare_delta", "revenue", "trips_started",
                   "primary_share_distance", "primary_share_flow",
                   "avg_speed_trip", "avg_speed_flow")
TOTAL_METRICS = ("total_welfare", "total_welfare_delta", "total_revenue",
                 "trips_started_overall")


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
    strata: list[str]
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
        """JSON-ready form: an undefined value (NaN) is null."""
        return nan_to_null(asdict(self))


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

def compute_metrics(instance: Instance, solution: EquilibriumSolution,
                    baseline_stats: dict, scheme_id: str = "") -> MetricsReport:
    """Analytic MetricsReport for one equilibrium, tolled at its own
    ``price_rates``, against ``baseline_stats``: the ``all_trip_stats`` of
    the toll-free equilibrium, computed once per instance.

    Welfare is averaged over each stratum's positive-demand OD pairs:
    drivers weigh the toll-free expected time against their current time
    plus money (converted at the stratum's price/time sensitivity ratio);
    agents on the outside option weigh it against the outside time plus
    fare.  ``welfare_delta`` subtracts the same expression evaluated at the
    toll-free equilibrium itself, making the no-toll scheme worth exactly
    zero.
    """
    net = instance.network
    stats_p = all_trip_stats(instance, solution)
    trips_of = {(e.stratum, e.origin, e.destination): e.trips for e in instance.demand}

    w, dw, rev, started, share_d, share_f, v_trip, v_flow = {}, {}, {}, {}, {}, {}, {}, {}
    per_od = []
    for s in instance.strata:
        ratio, ratio_out = s.beta_p / s.beta_t, s.beta_p_out / s.beta_t_out
        pairs = instance.od_pairs(s.name)
        w_sum = w0_sum = g_tot = g_started = t_tot = d_tot = 0.0
        for (o, d) in pairs:
            key = (s.name, o, d)
            if key not in stats_p or key not in baseline_stats:
                raise ValueError(f"missing trip stats for {key}; mismatched instances?")
            row, base = stats_p[key], baseline_stats[key]
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
        rev[s.name] = revenue(solution, solution.price_rates, s.name, instance)
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
        strata=list(instance.stratum_names),
        welfare=w,
        welfare_delta=dw,
        total_welfare=sum(w.values()),
        total_welfare_delta=sum(dw.values()),
        revenue=rev,
        total_revenue=sum(rev.values()),
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
        w.writerow(["scheme_id", "stratum", *STRATUM_METRICS])
        for s in report.strata:
            w.writerow([report.scheme_id, s,
                        *(repr(getattr(report, name)[s]) for name in STRATUM_METRICS)])
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


@dataclass(eq=False)
class SimulationReport:
    """Simulated trips as columns, one entry per trip in trip order (pair,
    then origin, then replicate).

    ``stratum`` indexes ``stratum_names``; ``origin`` and ``destination``
    index ``node_ids``.  An unstarted trip has zero time, money and
    distances and is never truncated.  ``paths`` holds each trip's arc ids
    (empty when it did not start) under ``keep_paths``, else None.
    ``trips`` is the same data as ``SimulatedTrip`` rows, built on first
    access.
    """

    seed: int
    runs_per_unit: int
    step_cap: int
    stratum_names: list
    node_ids: list
    stratum: np.ndarray
    origin: np.ndarray
    destination: np.ndarray
    started: np.ndarray
    time: np.ndarray
    money: np.ndarray
    distance: np.ndarray
    primary_distance: np.ndarray
    truncated: np.ndarray
    paths: list | None = None

    @property
    def truncated_count(self) -> int:
        return int(self.truncated.sum())

    @cached_property
    def trips(self) -> list:
        paths = self.paths if self.paths is not None else [[] for _ in self.started]
        return list(map(SimulatedTrip,
                        map(self.stratum_names.__getitem__, self.stratum.tolist()),
                        map(self.node_ids.__getitem__, self.origin.tolist()),
                        map(self.node_ids.__getitem__, self.destination.tolist()),
                        self.started.tolist(), paths, self.time.tolist(),
                        self.money.tolist(), self.distance.tolist(),
                        self.primary_distance.tolist(), self.truncated.tolist()))

    def by_stratum(self, stratum: str) -> list:
        return [t for t in self.trips if t.stratum == stratum]

    def completed(self, stratum: str) -> list:
        return [t for t in self.by_stratum(stratum) if t.started and not t.truncated]

    def summary(self, strata) -> dict:
        """Per stratum of ``strata``: trip count and started proportion, plus
        the mean time, primary-distance share and average speed of its
        completed trips (started, not truncated); NaN where undefined.
        Sums run over the completed trips in trip order."""
        nan = float("nan")
        index = {s: i for i, s in enumerate(self.stratum_names)}
        done = self.started & ~self.truncated
        out = {}
        for s in strata:
            mine = self.stratum == index.get(s, -1)
            n, n_started = int(mine.sum()), int(self.started[mine].sum())
            mine &= done
            time = self.time[mine]
            dist = sum(self.distance[mine].tolist())
            tt = sum(time.tolist())
            out[s] = {
                "trips": n,
                "started_proportion": n_started / n if n else nan,
                "mean_time": float(np.mean(time)) if time.size else nan,
                "primary_share": (sum(self.primary_distance[mine].tolist()) / dist
                                  if dist > 0 else nan),
                "avg_speed": dist / tt if tt > 0 else nan,
            }
        return out


# Uniforms buffered per walking trip between refills of its substream.
_UNIFORMS_PER_WALKER = 4


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
    of all its replicates, then one uniform per step for each of its
    started trips still walking, in trip order.

    Every started trip of the solution walks in one lockstep loop over the
    pairs' stacked cumulative choice tables: at node ``i`` of its pair a
    uniform ``r`` picks the out-arc that ``searchsorted(cum[i], r,
    side="right")`` picks, clipped to the node's last arc.  Each substream's
    uniforms are drawn ahead into a bounded buffer; PCG64 doubles do not
    depend on how the draws are split, so every trip reads the values it
    would read walking alone.  Results therefore do not depend on which
    other pairs are simulated.  Time, money and distances add up per trip
    in step order.  Returns the trips as columns in trip order (pair, then
    origin, then replicate).
    """
    net = instance.network
    if runs_per_unit < 0:
        raise ValueError(f"runs_per_unit must be >= 0, got {runs_per_unit}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if step_cap is None:
        step_cap = 50 * net.n_nodes
    if step_cap <= net.n_nodes:
        raise ValueError("step_cap must exceed the node count")
    n, m = net.n_nodes, net.n_arcs
    keys = sorted(solution.sub)

    # one substream per (stratum, origin, destination), in trip order
    rngs, started, streams = [], [], []
    for p, (s_name, d_id) in enumerate(keys):
        sd = solution.sub[(s_name, d_id)]
        s, d = instance.stratum_names.index(s_name), net.node_index[d_id]
        for o, trips, prob in zip(sd.origins.tolist(), sd.trips.tolist(),
                                  sd.start_prob.tolist()):
            rngs.append(np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(s, o, d))))
            started.append(rngs[-1].random(int(round(trips)) * runs_per_unit) < prob)
            streams.append((s, o, d, p * n, s * m))
    stratum, origin, dest, row, wrow = np.array(streams, dtype=np.int64).reshape(-1, 5).T
    trip_stream = np.repeat(np.arange(len(rngs)), [len(x) for x in started])
    started = np.concatenate([np.zeros(0, dtype=bool), *started])

    # cum[k, p * n + i]: cumulative probability of node i's first k+1
    # out-arcs in pair p; arc_of[i * (width + 1) + k]: node i's k-th out-arc,
    # clipped to its last; weights[s * m + a]: time, money, distance and
    # primary distance of arc a in stratum s
    width = int(net.out_degree.max())
    probs = np.array([solution.sub[key].arc_probs for key in keys]).reshape(-1, m)
    cum = np.full((len(keys), n, width), np.inf)
    cum[:, net.tail, np.arange(m) - net.out_start[net.tail]] = _segment_cumsum(
        probs, net.out_start)
    cum = cum.reshape(-1, width).T.copy()
    arc_of = np.minimum(net.out_start[:-1, None] + np.arange(width + 1),
                        net.out_start[1:, None] - 1).ravel()
    weights = np.stack(np.broadcast_arrays(solution.arc_time,
                                           solution.price_rates * net.primary_length,
                                           net.length, net.primary_length),
                       axis=-1).reshape(-1, 4)

    # each stream reads its uniforms from buf[lo:hi] at ``at``; empty at first
    live = np.flatnonzero(started)
    stream = trip_stream[live]
    cap = _UNIFORMS_PER_WALKER * np.bincount(stream, minlength=len(rngs))
    hi = np.cumsum(cap)
    lo, at = hi - cap, hi.copy()
    buf = np.empty(int(cap.sum()))

    # the trips still walking, their nodes, streams and running sums
    node = origin[stream]
    acc = np.zeros((live.size, 4))
    totals = np.zeros((len(started), 4))  # per trip: time, money, distance, primary
    walkers, arcs = [live[:0]], [live[:0]]
    for _ in range(step_cap):
        if not live.size:
            break
        count = np.bincount(stream, minlength=len(rngs))
        for g in np.flatnonzero(at + count > hi).tolist():
            unread = hi[g] - at[g]
            buf[lo[g]:lo[g] + unread] = buf[at[g]:hi[g]]
            rngs[g].random(out=buf[lo[g] + unread:hi[g]])
            at[g] = lo[g]
        # live walkers are grouped by stream: the j-th of a stream reads at[g] + j
        r = buf.take((at - (np.cumsum(count) - count)).take(stream) + np.arange(live.size))
        at += count
        state = row.take(stream) + node
        k = np.zeros(live.size, dtype=np.intp)
        for col in cum:
            k += col.take(state) <= r
        a = arc_of.take(node * (width + 1) + k)
        acc += weights.take(wrow.take(stream) + a, axis=0)
        if keep_paths:
            walkers.append(live)
            arcs.append(a)
        node = net.head.take(a)
        moving = node != dest.take(stream)
        if not moving.all():
            totals[live[~moving]] = acc[~moving]
            live, node, stream, acc = (x.compress(moving, axis=0)
                                       for x in (live, node, stream, acc))
    totals[live] = acc
    truncated = np.zeros(len(started), dtype=bool)
    truncated[live] = True
    paths = None
    if keep_paths:
        trip, arc = np.concatenate(walkers), np.concatenate(arcs)
        arc_ids = np.array([a.id for a in net.arcs], dtype=object)
        ids = arc_ids[arc[np.argsort(trip, kind="stable")]].tolist()
        bounds = np.cumsum(np.bincount(trip, minlength=len(started))).tolist()
        paths = [ids[first:last] for first, last in zip([0] + bounds, bounds)]
    time, money, distance, primary_distance = totals.T.copy()
    return SimulationReport(
        seed=seed, runs_per_unit=runs_per_unit, step_cap=step_cap,
        stratum_names=list(instance.stratum_names),
        node_ids=[net.node_id(i) for i in range(n)],
        stratum=stratum[trip_stream], origin=origin[trip_stream],
        destination=dest[trip_stream],
        started=started, time=time, money=money, distance=distance,
        primary_distance=primary_distance, truncated=truncated, paths=paths)


def _segment_cumsum(probs: np.ndarray, out_start: np.ndarray) -> np.ndarray:
    """Cumulative sums of ``probs`` along its last axis, restarting at each
    node's first out-arc."""
    cum = np.cumsum(probs, axis=-1)
    seg_offsets = np.concatenate((np.zeros(probs.shape[:-1] + (1,)),
                                  cum[..., out_start[1:-1] - 1]), axis=-1)
    return cum - np.repeat(seg_offsets, np.diff(out_start), axis=-1)
