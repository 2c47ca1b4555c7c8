"""Welfare, revenue, and traffic metrics of an equilibrium solution.

Expected per-trip quantities (time, money, distance) come from the
absorbing-chain systems of the (stratum, destination) routings (``chain``):
a fresh solution holds most of them, solved on its last routing pass's LUs,
and all_trip_stats solves the rest.  The Monte Carlo
simulator replays individual trips against the same transition
probabilities and serves as an independent cross-check and the source of
trajectory-level output.  Both read the routings as the columns of the
solution's PairTable, one row per pair.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from pathlib import Path

import numpy as np
# kept: perfbench/tracing.py wraps spsolve by name; see ROADMAP "The benchmark reads the program"
from scipy.sparse.linalg import spsolve  # noqa: F401

from .chain import (FeasibilityError, _arc_costs, _in_range, _StackLU, _stratum_stacks,
                    _stratum_trip_stats, _trip_sums)
from .equilibrium import EquilibriumSolution
from .instance import Instance, nan_to_null
from .network import check_number, write_csv

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

    def to_dict(self) -> dict:
        """JSON-ready form, NaN as null; nan_to_null rebuilds every dict and list."""
        return nan_to_null({**vars(self), "per_od": [vars(t) for t in self.per_od]})


# ---------------------------------------------------------------------------
# Analytic expectations

def all_trip_stats(instance: Instance, solution: EquilibriumSolution) -> dict:
    """TripStats for every demanded (stratum, origin, destination): expected
    time, money and distance T, the solutions of (I - P_d) T = r under each
    pair's stored ``arc_probs`` P (r: the expected arc weight of one step),
    plus the start probabilities.

    A freshly solved scheme's pairs mostly hold T already, with these bits:
    the pass that stopped it solved them on its LUs (EquilibriumSolution
    ``held_trip_stats``).  The rest, and all of a solution read from a file,
    are solved in the routing kernel's block layouts (chain._StackLU), one
    LU per stack of at most MAX_BLOCK_ROWS unknowns.  A stratum with several
    destinations, none held, that is in range (chain._in_range) shares one
    unscaled block I - W_s, W_s = exp(-beta_t * cost) at the solution's
    times and prices, each pair kept as chain._stratum_trip_stats keeps it.
    Every other pair, and every pair of a singular stack, takes the per-pair
    layout; FeasibilityError there means some pair's walks are never
    absorbed."""
    solution.check_strata(instance.stratum_names)
    table, net = solution.pairs, instance.network
    k, n = len(table.keys), net.n_nodes
    if not k:
        return {}
    pair, origin = table.owner, table.origins
    held, trip = solution.held_trip_stats or (np.zeros(k, dtype=bool), None)
    if not held.all():
        T, todo = np.empty((3, k, n)), ~held
        s_idx, dest = table.indices(instance.stratum_names, net)
        money = solution.price_rates[s_idx] * net.primary_length

        # each stratum's pairs are a run of keys: first[j] : first[j] + count[j]
        first = np.array([p for p in range(k)
                          if p == 0 or table.keys[p][0] != table.keys[p - 1][0]])
        count = np.diff(first, append=k)
        if count.max() > 1:
            beta = np.array([[instance.strata[i].beta_t] for i in s_idx])
            tried = np.flatnonzero((count > 1) & _in_range(beta, table.tau, first)
                                   & np.logical_and.reduceat(todo, first))
            costs = _arc_costs(instance.strata, net, solution.price_rates, solution.arc_time)
            for g, pairs, block in _stratum_stacks(net, first[tried], count[tried]):
                weights = np.exp(-beta[first[tried[g]]] * costs[s_idx[first[tried[g]]]])
                try:
                    stack = _StackLU(net, weights, dest[pairs], block)
                except FeasibilityError:  # a singular stack passes no pair
                    continue
                ok, T_p = _stratum_trip_stats(net, stack, beta[pairs], table.tau[pairs],
                                              table.arc_probs[pairs], solution.arc_time,
                                              money[pairs])
                T[:, pairs[ok]] = T_p[:, ok]
                todo[pairs[ok]] = False

        rest = np.flatnonzero(todo)
        blocks = (net.solve_blocks(k) if len(rest) == k  # slices: views, no copies
                  else [rest[b] for b in net.solve_blocks(len(rest))])
        for pairs in blocks:
            _live, r = _trip_sums(net, table.arc_probs[pairs], dest[pairs], solution.arc_time,
                                  money[pairs])
            T[:, pairs] = _StackLU(net, table.arc_probs[pairs], dest[pairs]).solve(r)
        T = T[:, pair, origin]
        if held.any():  # the pairs that the solve's stop step served
            T[:, held[pair]] = trip[:, held[pair]]
        trip = T

    stats = {}
    for p, o, t, c, x, q in zip(pair.tolist(), origin.tolist(), *(v.tolist() for v in trip),
                                table.start_prob.tolist()):
        (stratum, destination), o_id = table.keys[p], net.node_id(o)
        stats[(stratum, o_id, destination)] = TripStats(stratum, o_id, destination, t, c, x, q)
    return stats


def revenue(solution: EquilibriumSolution, stratum: str, instance: Instance) -> float:
    """Expected toll revenue collected from one stratum: sum over arcs of
    stratum flow times the arc's toll at the solution's ``price_rates``."""
    rates = solution.price_rates[list(solution.stratum_flow).index(stratum)]
    return float(np.dot(solution.stratum_flow[stratum], rates * instance.network.primary_length))


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
    net, table, ids = instance.network, instance.demand_table, instance.network.node_ids
    stats_p = all_trip_stats(instance, solution)
    # the rows by stratum, each stratum's in document order: rows[ends[j]:ends[j + 1]]
    row_stratum, row_dest = (np.repeat(c, np.diff(table.bounds))
                             for c in (table.stratum, table.destination))
    order = np.lexsort((table.position, row_stratum))
    ends = np.searchsorted(row_stratum, np.arange(len(instance.strata) + 1)).tolist()
    rows = list(zip(*(c[order].tolist() for c in (
        row_dest, table.origin, table.trips, table.outside_time, table.ticket, table.position))))
    overall = np.zeros((2, len(rows)))  # per row in document order: trips, trips started

    w, dw, rev, started, share_d, share_f, v_trip, v_flow = {}, {}, {}, {}, {}, {}, {}, {}
    per_od = []
    for j, s in enumerate(instance.strata):
        ratio, ratio_out = s.beta_p / s.beta_t, s.beta_p_out / s.beta_t_out
        w_sum = w0_sum = g_tot = g_started = t_tot = d_tot = 0.0
        for d, o, g, t_out, ticket, position in rows[ends[j]:ends[j + 1]]:
            key = (s.name, ids[o], ids[d])
            if key not in stats_p or key not in baseline_stats:
                raise ValueError(f"missing trip stats for {key}; mismatched instances?")
            row, base = stats_p[key], baseline_stats[key]
            out = base.time - t_out - ratio_out * ticket
            w_sum += ((base.time - row.time - ratio * row.money) * row.start_prob
                      + out * (1.0 - row.start_prob))
            # w0: the same expression with the baseline as the current state
            w0_sum += ((base.time - base.time - ratio * base.money) * base.start_prob
                       + out * (1.0 - base.start_prob))
            g_tot += g
            g_started += g * row.start_prob
            overall[:, position] = g, g * row.start_prob
            t_tot += g * row.start_prob * row.time
            d_tot += g * row.start_prob * row.distance
            per_od.append(row)
        n_pairs = max(ends[j + 1] - ends[j], 1)  # a stratum without demand has welfare 0
        w[s.name] = w_sum / n_pairs
        dw[s.name] = w[s.name] - w0_sum / n_pairs
        rev[s.name] = revenue(solution, s.name, instance)
        started[s.name] = g_started / g_tot if g_tot > 0 else float("nan")
        share_d[s.name] = primary_flow_share(solution, s.name, instance, "distance")
        share_f[s.name] = primary_flow_share(solution, s.name, instance, "flow")
        v_trip[s.name] = d_tot / t_tot if t_tot > 0 else float("nan")
        fl = solution.stratum_flow[s.name]
        tsum = float(np.dot(fl, solution.arc_time))
        v_flow[s.name] = float(np.dot(fl, net.length)) / tsum if tsum > 0 else float("nan")

    # each total adds left to right from 0.0, the same bits on every Python:
    # sum() of floats is compensated from 3.12 on
    g_all, started_all, total_w, total_dw, total_rev = (
        reduce(operator.add, x, 0.0) for x in (*overall.tolist(), *map(dict.values, (w, dw, rev))))
    return MetricsReport(
        scheme_id=scheme_id,
        strata=list(instance.stratum_names),
        welfare=w,
        welfare_delta=dw,
        total_welfare=total_w,
        total_welfare_delta=total_dw,
        revenue=rev,
        total_revenue=total_rev,
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
    write_csv(Path(out_dir) / "metrics_strata.csv", ["scheme_id", "stratum", *STRATUM_METRICS],
              ([report.scheme_id, s, *(getattr(report, name)[s] for name in STRATUM_METRICS)]
               for s in report.strata))
    write_csv(Path(out_dir) / "metrics_od.csv",
              ["scheme_id", "stratum", "origin", "destination", "expected_time",
               "expected_money", "expected_distance", "start_prob"],
              ([report.scheme_id, t.stratum, t.origin, t.destination, t.time, t.money,
                t.distance, t.start_prob] for t in report.per_od))


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

    def summary(self, strata) -> dict:
        """Per stratum of ``strata``: trip count and started proportion, plus
        the mean time, primary-distance share and average speed of its
        completed trips (started, not truncated); NaN where undefined.
        Sums add the completed trips one at a time in trip order, from 0.0,
        on every Python: sum() of floats is compensated from 3.12 on."""
        nan = float("nan")
        index = {s: i for i, s in enumerate(self.stratum_names)}
        done = self.started & ~self.truncated
        bins = len(self.stratum_names) + 1  # the last one empty, for a stratum not simulated
        dist, tt, primary = (np.bincount(self.stratum[done], weights=x[done], minlength=bins)
                             .tolist() for x in (self.distance, self.time, self.primary_distance))
        out = {}
        for s in strata:
            mine = self.stratum == (i := index.get(s, bins - 1))
            n, n_started = int(mine.sum()), int(self.started[mine].sum())
            mine &= done
            out[s] = {
                "trips": n,
                "started_proportion": n_started / n if n else nan,
                "mean_time": float(np.mean(self.time[mine])) if mine.any() else nan,
                "primary_share": primary[i] / dist[i] if dist[i] > 0 else nan,
                "avg_speed": dist[i] / tt[i] if tt[i] > 0 else nan,
            }
        return out


# Uniforms buffered per walking trip between refills of its substream.
_UNIFORMS_PER_WALKER = 4

def _substream_states(seed: int, keys: np.ndarray) -> np.ndarray:
    """(K, 4) uint64: row j is ``SeedSequence(entropy=seed, spawn_key=keys[j])
    .generate_state(4, np.uint64)`` for the (K, 3) int ``keys``, every row
    hashed at once in uint32 arithmetic with NumPy's constants (NEP 19) and
    pool of 4 words.  The seed's 32-bit words, least significant first, are
    zero-padded to the pool; a key component must fit one word, as
    SeedSequence would split a larger one."""
    if (keys >= 2**32).any():
        raise ValueError(f"substream key components must be below 2**32, got {keys.max()}")
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.uint32([w]) for w in words + [0] * (4 - len(words))] + [*keys.T.astype("u4")]
    hash_const = 0x43B0D7E5

    def hashmix(value, mult=0x931E8875):  # MULT_A; generate_state passes MULT_B
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ value >> 16

    def mix(x, y):
        value = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:  # the seed's words past the pool, then the key's
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD  # generate_state: 8 words from the pool, paired little-endian
    state = np.stack([hashmix(pool[i % 4], 0x58F38DED) for i in range(8)], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SubstreamSeed(np.random.bit_generator.ISeedSequence):
    """One row of _substream_states, the seed sequence of one PCG64."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a substream seed holds only PCG64's 4 uint64 words")
        return self.state


def simulate_trips(instance: Instance, solution: EquilibriumSolution,
                   runs_per_unit: int = 10, seed: int = 0,
                   step_cap: int | None = None,
                   keep_paths: bool = False) -> SimulationReport:
    """Replay individual trips against the equilibrium probabilities.

    Each demand unit of each OD pair is simulated ``runs_per_unit`` times: a
    Bernoulli start decision against the outside option, then a random walk
    over outgoing arcs until the destination absorbs the trip or the step
    cap trips the truncation flag (truncated trips are counted, never
    dropped).  Each (stratum, origin, destination) draws from one PCG64
    substream seeded as ``SeedSequence(entropy=seed, spawn_key=(stratum,
    origin, destination))`` would seed it, every substream's state hashed
    in one vectorized pass (_substream_states): first the start uniforms of
    all its replicates, then one uniform per step for each of its started
    trips still walking, in trip order.

    Every started trip of the solution walks in one lockstep loop over the
    pairs' stacked cumulative choice tables: at node ``i`` of its pair a
    uniform ``r`` picks the out-arc that ``searchsorted(cum[i], r,
    side="right")`` picks, clipped to the node's last arc.  A substream's
    first draw holds its start uniforms and then _UNIFORMS_PER_WALKER walk
    uniforms per trip, a buffer refilled as its walkers read it; PCG64
    doubles do not depend on how the draws are split, so every trip reads
    the values it would read walking alone, whichever other pairs are
    simulated.  Time, money and distances add up per trip in step order.
    Returns the trips as columns in trip order (pair, then origin, then
    replicate).
    """
    solution.check_strata(instance.stratum_names)
    net = instance.network
    runs_per_unit = check_number("runs_per_unit", runs_per_unit, 0, strict=False, integer=True)
    seed = check_number("seed", seed, 0, strict=False, integer=True)
    # the cap allows more steps than any path that repeats no node
    step_cap = check_number("step_cap", 50 * net.n_nodes if step_cap is None else step_cap,
                            net.n_nodes, integer=True)
    n, m = net.n_nodes, net.n_arcs
    table = solution.pairs

    # one substream per (stratum, origin, destination), in trip order
    s_idx, d_idx = table.indices(instance.stratum_names, net)
    owner, origin = table.owner, table.origins
    stratum, dest, row = s_idx[owner], d_idx[owner], owner * n
    wrow, units = stratum * m, np.round(table.trips).astype(np.int64) * runs_per_unit
    rngs = [np.random.Generator(np.random.PCG64(_SubstreamSeed(state)))
            for state in _substream_states(seed, np.stack([stratum, origin, dest], axis=1))]
    trip_stream = np.repeat(np.arange(len(rngs)), units)

    # stream g's first draw fills buf[lo[g] - units[g]:hi[g]]: a start uniform
    # per trip, then the walk buffer buf[lo[g]:hi[g]] it reads at at[g]
    cap = _UNIFORMS_PER_WALKER * units
    hi = np.cumsum(units + cap)
    lo, buf = hi - cap, np.empty(int((units + cap).sum()))
    for rng, first, last in zip(rngs, (lo - units).tolist(), hi.tolist()):
        rng.random(out=buf[first:last])
    started = (buf.take(np.arange(len(trip_stream)) + (np.cumsum(cap) - cap).repeat(units))
               < table.start_prob.repeat(units))

    # cum[k, p * n + i]: cumulative probability of node i's first k+1
    # out-arcs in pair p; arc_of[i * (width + 1) + k]: node i's k-th out-arc,
    # clipped to its last; weights[s * m + a]: time, money, distance and
    # primary distance of arc a in stratum s
    width = int(net.out_degree.max())
    cum = np.full((len(table.keys), n, width), np.inf)
    cum[:, net.tail, np.arange(m) - net.out_start[net.tail]] = _segment_cumsum(
        table.arc_probs, net.out_start)
    cum = cum.reshape(-1, width).T.copy()
    arc_of = np.minimum(net.out_start[:-1, None] + np.arange(width + 1),
                        net.out_start[1:, None] - 1).ravel()
    weights = np.stack(np.broadcast_arrays(solution.arc_time,
                                           solution.price_rates * net.primary_length,
                                           net.length, net.primary_length),
                       axis=-1).reshape(-1, 4)

    # the trips still walking, their nodes, streams and running sums
    live = np.flatnonzero(started)
    stream = trip_stream[live]
    node = origin[stream]
    at, starts, ends = lo.copy(), lo.tolist(), hi.tolist()
    acc = np.zeros((live.size, 4))
    totals = np.zeros((len(started), 4))  # per trip: time, money, distance, primary
    walkers, arcs = [live[:0]], [live[:0]]
    edges = np.arange(len(rngs) + 1)
    for _ in range(step_cap):
        if not live.size:
            break
        # live walkers stay sorted by stream: stream g's are begin[g]:begin[g + 1]
        begin = stream.searchsorted(edges)
        count = np.diff(begin)
        for g in np.flatnonzero(at + count > hi).tolist():  # unread to the front, refill
            first, last, read = starts[g], ends[g], int(at[g])
            buf[first:first + last - read] = buf[read:last]
            rngs[g].random(out=buf[first + last - read:last])
            at[g] = first
        # the j-th walker of stream g reads at[g] + j
        r = buf.take((at - begin[:-1]).take(stream) + np.arange(live.size))
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
            done = np.flatnonzero(~moving)
            totals[live.take(done)] = acc.take(done, axis=0)
            keep = np.flatnonzero(moving)
            live, node, stream, acc = (x.take(keep, axis=0) for x in (live, node, stream, acc))
    totals[live] = acc
    truncated = np.zeros(len(started), dtype=bool)
    truncated[live] = True
    paths = None
    if keep_paths:
        trip, arc = np.concatenate(walkers), np.concatenate(arcs)
        arc_ids = np.array(net.arc_ids, dtype=object)
        ids = arc_ids[arc[np.argsort(trip, kind="stable")]].tolist()
        bounds = np.cumsum(np.bincount(trip, minlength=len(started))).tolist()
        paths = [ids[first:last] for first, last in zip([0] + bounds, bounds)]
    time, money, distance, primary_distance = totals.T.copy()
    return SimulationReport(
        seed=seed, runs_per_unit=runs_per_unit, step_cap=step_cap,
        stratum_names=list(instance.stratum_names),
        node_ids=list(net.node_ids),
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
