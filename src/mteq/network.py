"""Directed road network with congestible travel times and per-arc toll costs.

Nodes carry planar coordinates; arcs carry geometry (length, free speed,
lanes), a road class (primary roads are tollable, secondary are not), a
capacity, and the two volume-delay parameters of the BPR latency function.
``Network`` evaluates them for every arc at once: BPR times (``latency_all``),
the flows giving those times (``inverse_latency_all``) and the toll per unit
rate (``primary_length``).  All times are hours, distances km, speeds km/h.
Money is a dimensionless currency unit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.sparse.linalg import splu

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


class InstanceError(ValueError):
    """Invalid input: a document, config, spec or flag; the message names the field."""


class NetworkError(InstanceError):
    """Structural problem with a network definition."""


def check_number(name: str, value, low=None, *, strict: bool = True,
                 integer: bool = False):
    """``value`` as a float (an int when ``integer``) once it is a finite
    number, numeric strings included (CSV cells arrive as strings), above
    ``low`` (at least ``low`` unless ``strict``) and whole when ``integer``;
    otherwise raises InstanceError naming ``name`` and the value."""
    try:  # an int stays exact at any size
        number = value if integer and type(value) is int else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if number - number != 0 or type(value) is bool:  # NaN, infinite or not a number
        problem = "a finite number"
    elif low is not None and not (number > low or (not strict and number == low)):
        problem = f"{'>' if strict else '>='} {low}"
    elif integer and number != int(number):
        problem = "a whole number"
    else:
        return int(number) if integer else number
    raise InstanceError(f"{name} must be {problem}, got {value!r}")


def check_name(name: str, value, *, numbers: bool = True) -> str:
    """``value`` once it is a string, or an int as its digits when ``numbers``
    (JSON may give an id as a number); otherwise raises InstanceError naming
    ``name`` and the value."""
    if type(value) is str or numbers and type(value) is int:
        return str(value)
    kind = "a string or a whole number" if numbers else "a string"
    raise InstanceError(f"{name} must be {kind}, got {_describe(value)}")


def check_flag(name: str, value) -> bool:
    """``value`` once it is JSON true or false; otherwise raises
    InstanceError naming ``name`` and the value."""
    if type(value) is bool:
        return value
    raise InstanceError(f"{name} must be true or false, got {_describe(value)}")


def _describe(value) -> str:
    kinds = {dict: "an object", list: "a list", type(None): "null"}
    return kinds.get(type(value)) or repr(value)


def read_json(path, parse):
    """``parse`` of the JSON document in the file at ``path``.  A file that
    cannot be read or is not JSON, and every InstanceError of ``parse``,
    raise InstanceError naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"{path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:  # JSON syntax, or not UTF-8
        raise InstanceError(f"{path}: not valid JSON: {exc}") from None
    try:
        return parse(doc)
    except InstanceError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_section(section, path: str, kind: type = dict):
    """``section`` once it is a ``kind``: dict (a JSON object) or list;
    otherwise raises InstanceError naming ``path``."""
    if type(section) is not kind:
        raise InstanceError(f"{path} must be {_describe(kind())}, got {_describe(section)}")
    return section


def read_fields(section, path: str, required=(), optional=None) -> list:
    """The values of the object ``section`` under the ``required`` keys, then
    under the keys of ``optional`` (key -> default when absent), in order.
    Raises InstanceError naming ``path`` when ``section`` is not an object or
    lacks a required key; other keys are left alone."""
    read_section(section, path)
    try:
        values = [section[key] for key in required]
    except KeyError as exc:
        raise InstanceError(f"{path}.{exc.args[0]}: missing required field") from None
    if optional:
        values += [section.get(key, default) for key, default in optional.items()]
    return values


def write_json(path, doc) -> None:
    """Write ``doc`` as one compact line of JSON with sorted keys and a final
    newline, through the C encoder: dumping to a stream would take the
    pure-Python one.  NaN is refused, not being JSON: reports map it to null
    first (nan_to_null)."""
    text = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode(doc)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):  # repr of np.float64 names its type
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write the table ``header`` then ``rows``, one line each: a cell of None
    is empty, a float (numpy's too) its shortest round-trip ``repr`` and
    anything else ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


@dataclass(frozen=True)
class Node:
    id: str
    x: float
    y: float

    def __post_init__(self):
        if type(self.id) is not str:
            object.__setattr__(self, "id", check_name("node id", self.id))
        for name in ("x", "y"):
            object.__setattr__(self, name,
                               check_number(f"node {self.id}: {name}", getattr(self, name)))


#: check_number's (low, strict, integer) for each numeric field of an Arc;
#: ``capacity`` may also be None until default_capacity sets it
_ARC_NUMBERS = (("length_km", 0, True, False), ("free_speed_kmh", 0, True, False),
                ("lanes", 1, False, True), ("capacity", 0, True, False),
                ("bpr_gamma", 0, False, False), ("bpr_nu", 0, True, False))


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
        if type(self.id) is not str:
            object.__setattr__(self, "id", check_name("arc id", self.id))
        prefix = f"arc {self.id}: "
        for name in ("tail", "head"):  # road_class must be one of two names
            value = getattr(self, name)
            if type(value) is not str:
                object.__setattr__(self, name, check_name(prefix + name, value))
        for name, low, strict, integer in _ARC_NUMBERS:
            value = getattr(self, name)
            if value is not None or name != "capacity":
                number = check_number(prefix + name, value, low, strict=strict, integer=integer)
                if number is not value:  # given as the checked type: nothing to store
                    object.__setattr__(self, name, number)
        if self.road_class not in (PRIMARY, SECONDARY):
            raise NetworkError(f"arc {self.id}: unknown road_class {self.road_class!r}")

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


class Network:
    """Immutable directed network with array views for the solvers.

    Arcs are re-ordered so that all outgoing arcs of a node are contiguous;
    ``out_start[i]:out_start[i+1]`` slices the arc arrays per node, in the
    style of a CSR index.  The network owns the block-diagonal matrices of
    ``chain_matrix`` and ``reversed_graph`` (_block_matrix): their patterns,
    and the column order of ``chain_order``, are computed once, and each
    call only refills the values.
    """

    def __init__(self, nodes: list[Node], arcs: list[Arc]):
        self.nodes = list(nodes)
        self.node_index = {n.id: i for i, n in enumerate(nodes)}
        if len(self.node_index) != len(nodes):
            raise NetworkError("duplicate node ids")
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
        self.arc_index = {a.id: i for i, a in enumerate(self.arcs)}
        if len(self.arc_index) != len(arcs):
            raise NetworkError("duplicate arc ids")

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

        # CSR pattern of I - W, read as CSC by chain_matrix: the diagonal plus
        # one entry per distinct (tail, head) pair, and where each arc and diagonal lands.
        keys, pos = np.unique(np.concatenate((self.tail * n + self.head,
                                              np.arange(n) * (n + 1))),
                              return_inverse=True)
        self._chain = ((keys % n).astype(np.int32),
                       np.searchsorted(keys // n, np.arange(n + 1)).astype(np.int32),
                       pos[:len(arcs)], pos[len(arcs):])

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
                    self.out_start, self.out_degree, self.x, self.y, *self._chain,
                    self._rev_perm, self._rev_starts, self._rev_indices, self._rev_indptr):
            arr.flags.writeable = False
        # (name, k) -> the k-block matrix of _block_matrix; "order" and
        # "pattern", chain_order and its ordered pattern
        self._matrices = {}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    def node_id(self, idx: int) -> str:
        return self.nodes[idx].id

    def latency_all(self, flows: np.ndarray) -> np.ndarray:
        """BPR time t0 * (1 + gamma * (flow / capacity)^nu) of every arc, hours."""
        flows = np.asarray(flows, dtype=float)
        if np.any(flows < 0):
            raise ValueError("flows must be nonnegative")
        return self.free_time * (1.0 + self.bpr_gamma * (flows / self.capacity) ** self.bpr_nu)

    def inverse_latency_all(self, times: np.ndarray) -> np.ndarray:
        """The flow capacity * ((time / t0 - 1) / gamma)^(1 / nu) at which each
        arc's BPR time is ``times``; a time below free flow maps to zero flow,
        and so does any time on a flat arc (gamma = 0), which has no inverse."""
        ratio = np.maximum(np.asarray(times, dtype=float) / self.free_time - 1.0, 0.0)
        out = np.zeros_like(ratio)
        pos = self.bpr_gamma > 0
        out[pos] = self.capacity[pos] * (ratio[pos] / self.bpr_gamma[pos]) ** (1.0 / self.bpr_nu[pos])
        return out

    def chain_matrix(self, weights: np.ndarray, destination) -> sp.csc_matrix:
        """Block-diagonal (I - W)^T for walks absorbed at their destinations,
        as CSC, the form ``splu`` factors, with the columns of every block in
        chain_order(): block i is (I - W_i)^T[:, order].

        ``weights`` is (m,) with an int ``destination``, or (k, m) with k
        destinations: block i of I - W is I - W_i, where W_i[tail, head] sums
        row i of the per-arc weights over parallel arcs and the row of the
        i-th destination is zero (explicit zeros: the pattern depends on k);
        a destination of -1 zeroes no row.  The network owns the result:
        the next call with k blocks refills it (_block_matrix)."""
        w = np.atleast_2d(np.asarray(weights, dtype=float))
        pattern = self._chain_pattern()
        return self._block_matrix("chain", sp.csc_matrix, *pattern[:2],
                                  self._chain_data(w, destination, pattern), len(w))

    def _chain_data(self, w: np.ndarray, destination, pattern) -> np.ndarray:
        """The values of chain_matrix's k blocks laid end to end in
        ``pattern``: indices, indptr and where each arc's and each
        diagonal's entry lands."""
        indices, _indptr, arc, diag = pattern
        k, nnz = len(w), len(indices)
        w = np.where(self.tail == np.atleast_1d(destination)[:, None], 0.0, w)
        block = np.arange(k)[:, None]
        data = -np.bincount((arc + nnz * block).ravel(), weights=w.ravel(), minlength=k * nnz)
        data[(diag + nnz * block).ravel()] += 1.0
        return data

    def chain_order(self) -> tuple[np.ndarray, np.ndarray]:
        """SuperLU's COLAMD column order of one block of chain_matrix, its
        column j ``order[j]``, and the inverse permutation.  COLAMD reads
        only the pattern, so the order is computed once, from a regular
        matrix of that pattern (every weight half over the largest
        out-degree: a dominant diagonal)."""
        if "order" not in self._matrices:
            w = np.full((1, self.n_arcs), 0.5 / max(1, int(self.out_degree.max())))
            template = sp.csc_matrix((self._chain_data(w, -1, self._chain), *self._chain[:2]),
                                     shape=(self.n_nodes, self.n_nodes))
            inverse = splu(template, permc_spec="COLAMD").perm_c
            self._matrices["order"] = np.argsort(inverse), inverse
        return self._matrices["order"]

    def _chain_pattern(self):
        """chain_matrix's pattern of one block with its columns in
        chain_order(), built once: indices, indptr and where each arc's and
        each diagonal's entry lands."""
        if "pattern" not in self._matrices:
            indices, indptr, arc, diag = self._chain
            (order, _inverse), nnz = self.chain_order(), len(indices)
            tag = sp.csc_matrix((np.arange(1.0, nnz + 1), indices, indptr),
                                shape=(self.n_nodes, self.n_nodes))[:, order]
            where = np.empty(nnz, dtype=np.int64)  # old position -> new
            where[tag.data.astype(np.int64) - 1] = np.arange(nnz)
            self._matrices["pattern"] = (tag.indices.astype(np.int32),
                                         tag.indptr.astype(np.int32), where[arc], where[diag])
        return self._matrices["pattern"]

    def solve_blocks(self, k: int) -> list[slice]:
        """Consecutive slices of k stacked per-destination systems, each of
        at most MAX_BLOCK_ROWS unknowns (and at least one system)."""
        step = max(1, MAX_BLOCK_ROWS // self.n_nodes)
        return [slice(lo, min(k, lo + step)) for lo in range(0, k, step)]

    def reversed_graph(self, weights: np.ndarray) -> sp.csr_matrix:
        """Block-diagonal reversed graph for Dijkstra: block i has an edge
        head -> tail weighted by the cheapest of the parallel arcs under row
        i of ``weights``, (m,) or (k, m).  ``.T`` is the forward graph.  The
        network owns it: the next call with k rows refills it (_block_matrix)."""
        w = np.atleast_2d(np.asarray(weights, dtype=float))
        data = np.minimum.reduceat(w[:, self._rev_perm], self._rev_starts, axis=1)
        return self._block_matrix("graph", sp.csr_matrix, self._rev_indices, self._rev_indptr,
                                  data, len(w))

    def _block_matrix(self, name, kind, indices: np.ndarray, indptr: np.ndarray,
                      data: np.ndarray, k: int):
        """The k-block ``kind`` (CSR or CSC) matrix of the (n, n) pattern
        ``indices``/``indptr`` tiled down its diagonal, holding ``data``, the
        k blocks' values laid end to end.  The network builds it the first
        time (name, k) is asked for and refills it in place after that, so
        it stays valid only until the next such call."""
        n, nnz, matrix = self.n_nodes, len(indices), self._matrices.get((name, k))
        if matrix is None:
            block = np.arange(k)[:, None]
            indptr = np.append((indptr[:-1] + nnz * block).ravel(), k * nnz)
            matrix = self._matrices[name, k] = kind(
                (data.ravel(), (indices + n * block).ravel(), indptr), shape=(k * n, k * n))
        else:
            matrix.data[:] = data.ravel()
        return matrix


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
    graph = network.reversed_graph(np.ones(network.n_arcs))  # reversed: same components
    return connected_components(graph, connection="strong")[0] == 1


def extract_core(network: Network) -> Network:
    """Restrict to the largest strongly connected component.

    Within an SCC of size >= 2 every node keeps at least one outgoing arc,
    so the result also satisfies the positive out-degree requirement.  Ties
    between equally large components break toward the smallest node index.
    """
    graph = network.reversed_graph(np.ones(network.n_arcs))  # reversed: same components
    ncomp, labels = connected_components(graph, connection="strong")
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
