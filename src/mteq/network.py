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
from functools import cached_property

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
    try:  # an int, or a string of its digits, stays exact at any size
        number = int(value) if integer and type(value) in (int, str) else float(value)
    except (TypeError, ValueError, OverflowError):
        try:  # a string such as "1e3" or "2.0"
            number = float(value)
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
    """A node record; Network checks its fields."""

    id: str
    x: float
    y: float


#: check_number's (low, strict, integer) for each numeric field of an Arc
_ARC_NUMBERS = (("length_km", 0, True, False), ("free_speed_kmh", 0, True, False),
                ("lanes", 1, False, True), ("capacity", 0, True, False),
                ("bpr_gamma", 0, False, False), ("bpr_nu", 0, True, False))


@dataclass(frozen=True)
class Arc:
    """A directed road segment; ``capacity`` is in vehicle units, None for
    Network to fill with default_capacity.  Network checks its fields."""

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

    @property
    def is_primary(self) -> bool:
        return self.road_class == PRIMARY


def default_capacity(lanes: float, length_km: float, car_length_km: float) -> float:
    """Vehicles that fit on the arc: lanes * length / average car length,
    of numbers or of arrays of them."""
    if not np.all((lanes > 0) & (length_km > 0) & (car_length_km > 0)):
        raise NetworkError("default_capacity requires positive lanes, length and car length")
    return lanes * length_km / car_length_km


#: Network's columns in parameter order: Node's fields, then Arc's
NODE_FIELDS = ("id", "x", "y")
ARC_FIELDS = ("id", "tail", "head", "length_km", "free_speed_kmh", "lanes", "road_class",
              "capacity", "bpr_gamma", "bpr_nu")


def record_columns(records, names) -> list[list]:
    """The field of every record under each of ``names``, one list per name."""
    return [[getattr(record, name) for record in records] for name in names]


def number_column(values, low=None, strict=True, integer=False):
    """``values`` as an array (int64 when ``integer``) once each is an int
    or a float, never a bool, that check_number takes, a whole one below
    2**53 in size (exact as a float); None otherwise."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        array = np.array(values, dtype=float)
    except OverflowError:  # an int past the float range
        return None
    ok = np.isfinite(array)
    if low is not None:
        ok &= array > low if strict else array >= low
    if integer:
        ok &= (array == np.floor(array)) & (np.abs(array) < 2.0 ** 53)
    return None if not ok.all() else array.astype(np.int64) if integer else array


def _names(values, name) -> list:
    """``values`` once each is a string, else each through check_name, the
    k-th named ``name(k)``."""
    if set(map(type, values)) <= {str}:
        return list(values)
    return [check_name(name(k), value) for k, value in enumerate(values)]


def _numbers(values, name, low=None, strict=True, integer=False):
    """number_column of ``values``, else each through check_number, the
    k-th named ``name(k)``."""
    column = number_column(values, low, strict, integer)
    if column is None:
        column = [check_number(name(k), value, low, strict=strict, integer=integer)
                  for k, value in enumerate(values)]
    return column


def _fill_capacity(capacity, arc_ids, length_km, lanes, car_length_km) -> list:
    """``capacity`` with each None set to default_capacity of its arc's
    checked ``lanes`` and ``length_km``.  Raises InstanceError naming the
    first such arc whose default is past the float range, as it is when its
    lanes are."""
    capacity = list(capacity)
    for k in [k for k, c in enumerate(capacity) if c is None]:
        try:  # of Python floats: a product past the range is inf, with no warning
            capacity[k] = default_capacity(float(lanes[k]), float(length_km[k]), car_length_km)
        except OverflowError:  # an int lanes past the float range
            capacity[k] = math.inf
        if capacity[k] == math.inf:
            raise InstanceError(f"arc {arc_ids[k]}: lanes * length_km / car_length_km is past "
                                "the float range: give its capacity")
    return capacity


class Network:
    """Immutable directed network stored as columns; ``nodes`` and ``arcs``
    are record views of them, built on first access.

    Arcs are re-ordered so that all outgoing arcs of a node are contiguous;
    ``out_start[i]:out_start[i+1]`` slices the arc arrays per node, in the
    style of a CSR index.  The network owns the block-diagonal matrices of
    ``chain_matrix`` and ``reversed_graph`` (_block_matrix): their patterns,
    and the column order of ``chain_order``, are computed once, and each
    call only refills the values.
    """

    def __init__(self, node_ids, x, y, arc_ids, tail, head, length_km, free_speed_kmh,
                 lanes, road_class, capacity, bpr_gamma, bpr_nu,
                 car_length_km=DEFAULT_CAR_LENGTH_KM):
        """The network of the columns NODE_FIELDS then ARC_FIELDS, each
        checked once, in that order, after the car length, which it keeps
        as ``car_length_km`` (the instance document's): whole when its
        values are plain (str ids and ends, int and float numbers), else
        value by value, so a numeric string counts as its number and an int
        id as its digits.  A capacity of None is filled with
        default_capacity of its arc's lanes and length (_fill_capacity).
        Raises InstanceError naming the first value of the first column
        that fails check_name or check_number, and NetworkError on no
        nodes, an unknown road class, an id given twice or an unknown tail
        or head."""
        self.car_length_km = check_number("defaults.car_length_km", car_length_km, 0)
        if not len(node_ids):
            raise NetworkError("nodes: at least one node required")
        node_ids = _names(node_ids, lambda k: "node id")
        x, y = (_numbers(values, lambda k, key=key: f"node {node_ids[k]}: {key}")
                for key, values in (("x", x), ("y", y)))
        arc_ids = _names(arc_ids, lambda k: "arc id")
        tail, head = (_names(values, lambda k, key=key: f"arc {arc_ids[k]}: {key}")
                      for key, values in (("tail", tail), ("head", head)))
        numbers = []
        for values, (key, *spec) in zip(
                (length_km, free_speed_kmh, lanes, capacity, bpr_gamma, bpr_nu), _ARC_NUMBERS):
            if key == "capacity" and None in values:  # lanes and length are checked
                values = _fill_capacity(values, arc_ids, numbers[0], numbers[2],
                                        self.car_length_km)
            numbers.append(_numbers(values, lambda k, key=key: f"arc {arc_ids[k]}: {key}", *spec))
        length_km, free_speed_kmh, lanes, capacity, bpr_gamma, bpr_nu = numbers
        for k, c in enumerate(road_class):
            if c not in (PRIMARY, SECONDARY):
                raise NetworkError(f"arc {arc_ids[k]}: unknown road_class {c!r}")

        self.node_ids = tuple(node_ids)
        n = len(self.node_ids)
        self.node_index = dict(zip(self.node_ids, range(n)))
        if len(self.node_index) != n:
            raise NetworkError("duplicate node ids")

        tails, heads = (np.array([self.node_index.get(v, -1) for v in ends], dtype=np.int64)
                        for ends in (tail, head))
        bad = np.flatnonzero((tails < 0) | (heads < 0))
        if len(bad):  # the first arc with an unknown end
            k = int(bad[0])
            end, node = ("tail", tail[k]) if tails[k] < 0 else ("head", head[k])
            raise NetworkError(f"arc {arc_ids[k]}: unknown {end} node {node!r}")

        order = np.argsort(tails, kind="stable")
        self.arc_ids = tuple(arc_ids[k] for k in order.tolist())
        self.arc_index = dict(zip(self.arc_ids, range(len(self.arc_ids))))
        if len(self.arc_index) != len(self.arc_ids):
            raise NetworkError("duplicate arc ids")

        self.tail = tails[order]
        self.head = heads[order]
        self.length = np.asarray(length_km, dtype=float)[order]
        self.free_speed = np.asarray(free_speed_kmh, dtype=float)[order]
        self.lanes = np.asarray(lanes)[order]  # ints (object dtype past int64)
        self.is_primary = np.array([c == PRIMARY for c in road_class], dtype=bool)[order]
        self.capacity = np.asarray(capacity, dtype=float)[order]
        self.bpr_gamma = np.asarray(bpr_gamma, dtype=float)[order]
        self.bpr_nu = np.asarray(bpr_nu, dtype=float)[order]
        self.free_time = self.length / self.free_speed  # zero-flow time, hours
        # toll per unit rate: rates * primary_length is every arc's toll
        self.primary_length = self.length * self.is_primary
        self.x, self.y = np.array(x, dtype=float), np.array(y, dtype=float)

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
                       pos[:len(tails)], pos[len(tails):])

        # CSR pattern of reversed_graph: arcs grouped by (head, tail), one
        # entry per group, so parallel arcs collapse to a single edge.
        rev_key = self.head * n + self.tail
        self._rev_perm = np.argsort(rev_key, kind="stable")
        rev_key = rev_key[self._rev_perm]
        self._rev_starts = np.flatnonzero(np.diff(rev_key, prepend=-1))
        rev_key = rev_key[self._rev_starts]
        self._rev_indices = (rev_key % n).astype(np.int32)
        self._rev_indptr = np.searchsorted(rev_key // n, np.arange(n + 1)).astype(np.int32)

        for arr in (*vars(self).values(), *self._chain):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        # (name, k) -> the k-block matrix of _block_matrix; "order" and
        # "pattern", chain_order and its ordered pattern
        self._matrices = {}

    def arc_table(self) -> dict:
        """Each field of Arc as a list of Python values, arcs in storage order."""
        ids = self.node_ids
        return {"id": list(self.arc_ids), "tail": [ids[t] for t in self.tail.tolist()],
                "head": [ids[h] for h in self.head.tolist()], "length_km": self.length.tolist(),
                "free_speed_kmh": self.free_speed.tolist(), "lanes": self.lanes.tolist(),
                "road_class": [PRIMARY if p else SECONDARY for p in self.is_primary.tolist()],
                "capacity": self.capacity.tolist(), "bpr_gamma": self.bpr_gamma.tolist(),
                "bpr_nu": self.bpr_nu.tolist()}

    @cached_property
    def nodes(self) -> tuple:
        """Node records of the columns, in index order, built on first access."""
        return tuple(map(Node, self.node_ids, self.x.tolist(), self.y.tolist()))

    @cached_property
    def arcs(self) -> tuple:
        """Arc records of arc_table, in storage order, built on first access."""
        return tuple(map(Arc, *self.arc_table().values()))

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_arcs(self) -> int:
        return len(self.arc_ids)

    def node_id(self, idx: int) -> str:
        return self.node_ids[idx]

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


def build_network(nodes: list[Node], arcs: list[Arc],
                  car_length_km: float = DEFAULT_CAR_LENGTH_KM) -> Network:
    """The network of Node and Arc records, their fields as its columns."""
    return Network(*record_columns(nodes, NODE_FIELDS), *record_columns(arcs, ARC_FIELDS),
                   car_length_km)


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
    node = np.flatnonzero(keep).tolist()
    arc = np.flatnonzero(keep[network.tail] & keep[network.head]).tolist()
    return Network([network.node_ids[i] for i in node], network.x[node].tolist(),
                   network.y[node].tolist(),
                   *([column[k] for k in arc] for column in network.arc_table().values()),
                   network.car_length_km)
