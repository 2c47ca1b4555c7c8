"""Directed road network with congestible travel times and per-arc toll costs.

Nodes carry planar coordinates; arcs carry geometry (length, free speed,
lanes), a road class (primary roads are tollable, secondary are not), a
capacity, and the two volume-delay parameters of the BPR latency function.
All times are hours, distances km, speeds km/h.  Money is a dimensionless
currency unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

PRIMARY = "primary"
SECONDARY = "secondary"

#: Default BPR volume-delay parameters.
DEFAULT_BPR_GAMMA = 0.02
DEFAULT_BPR_NU = 2.0

#: Default average car length (km) used to derive arc capacities.
DEFAULT_CAR_LENGTH_KM = 0.005


class NetworkError(ValueError):
    """Structural problem with a network definition."""


@dataclass(frozen=True)
class Node:
    id: str
    x: float
    y: float


@dataclass(frozen=True)
class Arc:
    """A directed road segment.

    ``free_time`` is derived as length/speed and must not be supplied
    inconsistently.  ``capacity`` is in vehicle units.
    """

    id: str
    tail: str
    head: str
    length_km: float
    free_speed_kmh: float
    lanes: int = 1
    road_class: str = SECONDARY
    capacity: float | None = None
    bpr_gamma: float = DEFAULT_BPR_GAMMA
    bpr_nu: float = DEFAULT_BPR_NU

    def __post_init__(self):
        if self.length_km <= 0:
            raise NetworkError(f"arc {self.id}: length_km must be > 0")
        if self.free_speed_kmh <= 0:
            raise NetworkError(f"arc {self.id}: free_speed_kmh must be > 0")
        if self.lanes < 1:
            raise NetworkError(f"arc {self.id}: lanes must be >= 1")
        if self.road_class not in (PRIMARY, SECONDARY):
            raise NetworkError(f"arc {self.id}: unknown road_class {self.road_class!r}")
        if self.capacity is not None and self.capacity <= 0:
            raise NetworkError(f"arc {self.id}: capacity must be > 0")
        if self.bpr_gamma < 0:
            raise NetworkError(f"arc {self.id}: bpr_gamma must be >= 0")
        if self.bpr_nu <= 0:
            raise NetworkError(f"arc {self.id}: bpr_nu must be > 0")

    @property
    def free_time(self) -> float:
        """Zero-flow traversal time in hours."""
        return self.length_km / self.free_speed_kmh

    @property
    def is_primary(self) -> bool:
        return self.road_class == PRIMARY


def default_capacity(lanes: float, length_km: float, car_length_km: float) -> float:
    """Vehicles that fit on the arc: lanes * length / average car length."""
    if lanes <= 0 or length_km <= 0 or car_length_km <= 0:
        raise NetworkError("default_capacity requires positive lanes, length and car length")
    return lanes * length_km / car_length_km


def latency(arc: Arc, flow) -> float | np.ndarray:
    """BPR travel time t0 * (1 + gamma * (flow/capacity)^nu), hours."""
    flow = np.asarray(flow, dtype=float)
    if np.any(flow < 0):
        raise ValueError("flow must be nonnegative")
    if arc.capacity is None:
        raise NetworkError(f"arc {arc.id} has no capacity")
    t0 = arc.free_time
    out = t0 * (1.0 + arc.bpr_gamma * (flow / arc.capacity) ** arc.bpr_nu)
    return float(out) if out.ndim == 0 else out


def inverse_latency(arc: Arc, time) -> float | np.ndarray:
    """Flow level at which the arc's BPR time equals ``time``.

    Closed form capacity * ((time/t0 - 1) / gamma)^(1/nu).  Requires
    time >= free_time and gamma > 0 (gamma = 0 is non-invertible except
    exactly at the free-flow time).
    """
    time = np.asarray(time, dtype=float)
    t0 = arc.free_time
    if np.any(time < t0 * (1.0 - 1e-12)):
        raise ValueError(f"arc {arc.id}: time below free-flow time is outside the latency range")
    if arc.bpr_gamma == 0.0:
        if np.allclose(time, t0):
            out = np.zeros_like(time)
            return float(out) if out.ndim == 0 else out
        raise ValueError(f"arc {arc.id}: constant latency (gamma=0) cannot be inverted")
    ratio = np.maximum(time / t0 - 1.0, 0.0)
    out = arc.capacity * (ratio / arc.bpr_gamma) ** (1.0 / arc.bpr_nu)
    return float(out) if out.ndim == 0 else out


def monetary_cost(arc: Arc, price: float) -> float:
    """Toll for one traversal: price per km * length, primary roads only."""
    if price < 0:
        raise ValueError("price must be nonnegative")
    return price * arc.length_km if arc.is_primary else 0.0


class Network:
    """Immutable directed network with array views for the solvers.

    Arcs are re-ordered so that all outgoing arcs of a node are contiguous;
    ``out_start[i]:out_start[i+1]`` slices the arc arrays per node, in the
    style of a CSR index.  ``arc_order`` maps storage position -> position
    in the original arc list.
    """

    def __init__(self, nodes: list[Node], arcs: list[Arc]):
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise NetworkError("duplicate node ids")
        arc_ids = [a.id for a in arcs]
        if len(set(arc_ids)) != len(arc_ids):
            raise NetworkError("duplicate arc ids")
        self.nodes = list(nodes)
        self.node_index = {n.id: i for i, n in enumerate(nodes)}
        n = len(nodes)

        for a in arcs:
            if a.tail not in self.node_index:
                raise NetworkError(f"arc {a.id}: unknown tail node {a.tail!r}")
            if a.head not in self.node_index:
                raise NetworkError(f"arc {a.id}: unknown head node {a.head!r}")
            if a.capacity is None:
                raise NetworkError(f"arc {a.id}: capacity not set (apply default_capacity first)")

        tails = np.array([self.node_index[a.tail] for a in arcs], dtype=np.int64)
        order = np.argsort(tails, kind="stable")
        self.arcs = [arcs[k] for k in order]
        self.arc_order = order
        self.arc_index = {a.id: i for i, a in enumerate(self.arcs)}

        self.tail = tails[order]
        self.head = np.array([self.node_index[a.head] for a in self.arcs], dtype=np.int64)
        self.length = np.array([a.length_km for a in self.arcs])
        self.capacity = np.array([a.capacity for a in self.arcs])
        self.free_time = np.array([a.free_time for a in self.arcs])
        self.bpr_gamma = np.array([a.bpr_gamma for a in self.arcs])
        self.bpr_nu = np.array([a.bpr_nu for a in self.arcs])
        self.is_primary = np.array([a.is_primary for a in self.arcs], dtype=bool)
        self.x = np.array([nd.x for nd in self.nodes])
        self.y = np.array([nd.y for nd in self.nodes])

        counts = np.bincount(self.tail, minlength=n)
        self.out_start = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self.out_degree = counts

        # CSR pattern of chain_matrix: the diagonal plus one entry per
        # distinct (tail, head) pair, and where each arc and diagonal lands.
        keys, pos = np.unique(np.concatenate((self.tail * n + self.head,
                                              np.arange(n) * (n + 1))),
                              return_inverse=True)
        self._chain_indices = (keys % n).astype(np.int32)
        self._chain_indptr = np.searchsorted(keys // n, np.arange(n + 1)).astype(np.int32)
        self._chain_arc, self._chain_diag = pos[:len(arcs)], pos[len(arcs):]

        for arr in (self.tail, self.head, self.length, self.capacity, self.free_time,
                    self.bpr_gamma, self.bpr_nu, self.is_primary, self.out_start,
                    self.out_degree, self.x, self.y, self._chain_indices,
                    self._chain_indptr, self._chain_arc, self._chain_diag):
            arr.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    def node_id(self, idx: int) -> str:
        return self.nodes[idx].id

    def latency_all(self, flows: np.ndarray) -> np.ndarray:
        """Vectorized BPR time for every arc at the given flow vector."""
        flows = np.asarray(flows, dtype=float)
        if np.any(flows < 0):
            raise ValueError("flows must be nonnegative")
        return self.free_time * (1.0 + self.bpr_gamma * (flows / self.capacity) ** self.bpr_nu)

    def inverse_latency_all(self, times: np.ndarray) -> np.ndarray:
        """Per-arc latency inverse; arcs with gamma = 0 are flat and map any
        admissible time back to zero flow."""
        ratio = np.maximum(np.asarray(times, dtype=float) / self.free_time - 1.0, 0.0)
        out = np.zeros_like(ratio)
        pos = self.bpr_gamma > 0
        out[pos] = self.capacity[pos] * (ratio[pos] / self.bpr_gamma[pos]) ** (1.0 / self.bpr_nu[pos])
        return out

    def incoming_arcs(self, node_idx: int) -> np.ndarray:
        return np.nonzero(self.head == node_idx)[0]

    def chain_matrix(self, weights: np.ndarray, destination: int) -> sp.csr_matrix:
        """I - W for a walk absorbed at ``destination``: W[tail, head] sums
        the per-arc ``weights`` over parallel arcs, and the destination's
        row of W is zero.  ``.T`` gives I - W^T on the same arrays (CSC)."""
        w = np.array(weights, dtype=float)
        w[self.out_start[destination]:self.out_start[destination + 1]] = 0.0
        data = -np.bincount(self._chain_arc, weights=w, minlength=len(self._chain_indices))
        data[self._chain_diag] += 1.0
        return sp.csr_matrix((data, self._chain_indices, self._chain_indptr),
                             shape=(self.n_nodes, self.n_nodes))

    def _min_weight_csr(self, weights: np.ndarray, transpose: bool) -> sp.csr_matrix:
        # Parallel arcs must collapse to the cheapest one, not the sum that
        # sparse constructors produce for duplicate entries.
        r, c = (self.head, self.tail) if transpose else (self.tail, self.head)
        key = r * self.n_nodes + c
        srt = np.lexsort((weights, key))
        key_s, w_s = key[srt], weights[srt]
        first = np.concatenate(([True], key_s[1:] != key_s[:-1]))
        key_u, w_u = key_s[first], w_s[first]
        rows, cols = key_u // self.n_nodes, key_u % self.n_nodes
        return sp.csr_matrix((w_u, (rows, cols)), shape=(self.n_nodes, self.n_nodes))


def build_network(nodes: list[Node], arcs: list[Arc]) -> Network:
    """Assemble a network, checking id uniqueness and endpoint references."""
    return Network(nodes, arcs)


def shortest_costs(network: Network, arc_costs: np.ndarray, destination: int) -> np.ndarray:
    """Minimum cost-to-destination from every node, Bellman-consistent.

    ``arc_costs`` is per arc in storage order, nonnegative.  The value at the
    destination is 0.  Raises if some node cannot reach the destination
    (cannot happen on a strongly connected core).
    """
    arc_costs = np.asarray(arc_costs, dtype=float)
    if arc_costs.shape != (network.n_arcs,):
        raise ValueError("arc_costs must have one entry per arc")
    if np.any(arc_costs < 0):
        raise ValueError("arc costs must be nonnegative")
    if not 0 <= destination < network.n_nodes:
        raise ValueError(f"destination index {destination} out of range")
    # Distances to the destination = distances from it on the reversed graph.
    rev = network._min_weight_csr(arc_costs, transpose=True)
    dist = dijkstra(rev, indices=destination)
    if not np.all(np.isfinite(dist)):
        bad = network.node_id(int(np.nonzero(~np.isfinite(dist))[0][0]))
        raise NetworkError(f"node {bad!r} cannot reach the destination")
    return dist


def strongly_connected(network: Network) -> bool:
    """Oracle check: is every node reachable from every other node?"""
    adj = sp.csr_matrix(
        (np.ones(network.n_arcs), (network.tail, network.head)),
        shape=(network.n_nodes, network.n_nodes),
    )
    ncomp, _ = connected_components(adj, connection="strong")
    return ncomp == 1


def extract_core(network: Network) -> Network:
    """Restrict to the largest strongly connected component.

    Within an SCC of size >= 2 every node keeps at least one outgoing arc,
    so the result also satisfies the positive out-degree requirement.  Ties
    between equally large components break toward the smallest node index.
    """
    adj = sp.csr_matrix(
        (np.ones(network.n_arcs), (network.tail, network.head)),
        shape=(network.n_nodes, network.n_nodes),
    )
    ncomp, labels = connected_components(adj, connection="strong")
    sizes = np.bincount(labels, minlength=ncomp)
    best_size = sizes.max()
    if best_size < 2:
        raise NetworkError("no strongly connected component with more than one node")
    candidates = np.nonzero(sizes == best_size)[0]
    first_node = [np.nonzero(labels == c)[0][0] for c in candidates]
    chosen = candidates[int(np.argmin(first_node))]
    keep = labels == chosen
    kept_ids = {network.nodes[i].id for i in np.nonzero(keep)[0]}
    nodes = [n for n in network.nodes if n.id in kept_ids]
    arcs = [a for a in network.arcs if a.tail in kept_ids and a.head in kept_ids]
    return Network(nodes, arcs)
