"""Directed road network with congestible travel times and per-arc toll costs.

Nodes carry planar coordinates; arcs carry geometry (length, free speed,
lanes), a road class (primary roads are tollable, secondary are not), a
capacity, and the two volume-delay parameters of the BPR latency function.
All times are hours, distances km, speeds km/h.  Money is a dimensionless
currency unit.
"""

from __future__ import annotations

import math
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

#: Most unknowns in one block-diagonal system handed to the sparse solver.
#: Its LU workspace grows with the unknowns, and one 15,600-unknown block
#: (every pair of the 10x10 lattice) raised a process's peak RSS by 8 MB.
MAX_BLOCK_ROWS = 2048


class NetworkError(ValueError):
    """Structural problem with a network definition."""


@dataclass(frozen=True)
class Node:
    id: str
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise NetworkError(f"node {self.id}: x and y must be finite")


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
        # written so that NaN fails every check
        if not self.length_km > 0:
            raise NetworkError(f"arc {self.id}: length_km must be > 0")
        if not self.free_speed_kmh > 0:
            raise NetworkError(f"arc {self.id}: free_speed_kmh must be > 0")
        if not self.lanes >= 1:
            raise NetworkError(f"arc {self.id}: lanes must be >= 1")
        if self.road_class not in (PRIMARY, SECONDARY):
            raise NetworkError(f"arc {self.id}: unknown road_class {self.road_class!r}")
        if self.capacity is not None and not self.capacity > 0:
            raise NetworkError(f"arc {self.id}: capacity must be > 0")
        if not self.bpr_gamma >= 0:
            raise NetworkError(f"arc {self.id}: bpr_gamma must be >= 0")
        if not self.bpr_nu > 0:
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
    if not (lanes > 0 and length_km > 0 and car_length_km > 0):
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
    in the original arc list.  The sparsity patterns of ``chain_matrix`` and
    ``reversed_graph`` are computed once here; each call only fills in the
    values, tiled block-diagonally for many (weights, destination) rows.
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
        # toll per unit rate: rates * primary_length is every arc's toll
        self.primary_length = self.length * self.is_primary
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

        # CSR pattern of reversed_graph: arcs grouped by (head, tail), one
        # entry per group, so parallel arcs collapse to a single edge.
        rev_key = self.head * n + self.tail
        self._rev_perm = np.argsort(rev_key, kind="stable")
        rev_key = rev_key[self._rev_perm]
        self._rev_starts = np.flatnonzero(np.diff(rev_key, prepend=-1))
        rev_key = rev_key[self._rev_starts]
        self._rev_indices = (rev_key % n).astype(np.int32)
        self._rev_indptr = np.searchsorted(rev_key // n, np.arange(n + 1)).astype(np.int32)

        for arr in (self.tail, self.head, self.length, self.capacity, self.free_time,
                    self.bpr_gamma, self.bpr_nu, self.is_primary, self.primary_length,
                    self.out_start, self.out_degree, self.x, self.y, self._chain_indices,
                    self._chain_indptr, self._chain_arc, self._chain_diag,
                    self._rev_perm, self._rev_starts, self._rev_indices, self._rev_indptr):
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

    def chain_matrix(self, weights: np.ndarray, destination, out=None) -> sp.csr_matrix:
        """Block-diagonal I - W for walks absorbed at their destinations.

        ``weights`` is (m,) with an int ``destination``, or (k, m) with k
        destinations: block i is I - W_i, where W_i[tail, head] sums row i
        of the per-arc weights over parallel arcs and the row of the i-th
        destination is zero (explicit zeros: the pattern depends on k alone).
        One block gives the (n, n) matrix, and ``.T`` I - W^T on the same
        arrays (CSC).  ``out``, an earlier k-block result or its ``.T``, is
        refilled in place and returned."""
        w = np.atleast_2d(np.asarray(weights, dtype=float))
        dest = np.atleast_1d(destination)
        k, n, nnz = len(w), self.n_nodes, len(self._chain_indices)
        w = np.where(self.tail == dest[:, None], 0.0, w)
        block = np.arange(k)[:, None]
        data = -np.bincount((self._chain_arc + nnz * block).ravel(), weights=w.ravel(),
                            minlength=k * nnz)
        data[(self._chain_diag + nnz * block).ravel()] += 1.0
        if out is not None:
            out.data[:] = data
            return out
        indices = (self._chain_indices + n * block).ravel()
        indptr = np.append((self._chain_indptr[:-1] + nnz * block).ravel(), k * nnz)
        return sp.csr_matrix((data, indices, indptr), shape=(k * n, k * n))

    def solve_blocks(self, k: int) -> list[slice]:
        """Consecutive slices of k stacked per-destination systems, each of
        at most MAX_BLOCK_ROWS unknowns (and at least one system)."""
        step = max(1, MAX_BLOCK_ROWS // self.n_nodes)
        return [slice(lo, min(k, lo + step)) for lo in range(0, k, step)]

    def reversed_graph(self, weights: np.ndarray) -> sp.csr_matrix:
        """Block-diagonal reversed graph for Dijkstra: block i has an edge
        head -> tail weighted by the cheapest of the parallel arcs under row
        i of ``weights``, (m,) or (k, m).  ``.T`` is the forward graph."""
        w = np.atleast_2d(np.asarray(weights, dtype=float))
        k, n, nnz = len(w), self.n_nodes, len(self._rev_indices)
        data = np.minimum.reduceat(w[:, self._rev_perm], self._rev_starts, axis=1)
        block = np.arange(k)[:, None]
        indices = (self._rev_indices + n * block).ravel()
        indptr = np.append((self._rev_indptr[:-1] + nnz * block).ravel(), k * nnz)
        return sp.csr_matrix((data.ravel(), indices, indptr), shape=(k * n, k * n))


def build_network(nodes: list[Node], arcs: list[Arc]) -> Network:
    """Assemble a network, checking id uniqueness and endpoint references."""
    return Network(nodes, arcs)


def shortest_costs(network: Network, arc_costs: np.ndarray, destination,
                   rows=None) -> np.ndarray:
    """Minimum cost-to-destination from every node, Bellman-consistent.

    ``arc_costs`` is per arc in storage order, nonnegative: one vector (m,),
    or a stack (S, m) with ``rows[i]`` naming the cost row that destination
    i is routed under.  An int ``destination`` returns (n,); an array of k
    destinations returns (k, n) from a single Dijkstra call over the
    block-diagonal reversed graph of the cost rows.  The value at each
    destination is 0.  Raises if some node cannot reach a destination
    (cannot happen on a strongly connected core).
    """
    costs = np.atleast_2d(np.asarray(arc_costs, dtype=float))
    if costs.ndim != 2 or costs.shape[1] != network.n_arcs:
        raise ValueError("arc_costs must have one entry per arc")
    if np.any(costs < 0):
        raise ValueError("arc costs must be nonnegative")
    dest = np.atleast_1d(np.asarray(destination, dtype=np.int64))
    n = network.n_nodes
    bad = dest[(dest < 0) | (dest >= n)]
    if bad.size:
        raise ValueError(f"destination index {bad[0]} out of range")
    if rows is None:
        if len(costs) != 1:
            raise ValueError("a stack of cost rows needs rows= per destination")
        rows = np.zeros(len(dest), dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape != dest.shape or np.any((rows < 0) | (rows >= len(costs))):
        raise ValueError("rows must name one cost row per destination")
    # Distances to a destination = distances from it on the reversed graph.
    dist = dijkstra(network.reversed_graph(costs), indices=rows * n + dest)
    dist = dist.reshape(len(dest), len(costs), n)[np.arange(len(dest)), rows]
    if not np.all(np.isfinite(dist)):
        node = network.node_id(int(np.nonzero(~np.isfinite(dist))[1][0]))
        raise NetworkError(f"node {node!r} cannot reach the destination")
    return dist[0] if np.ndim(destination) == 0 else dist


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
