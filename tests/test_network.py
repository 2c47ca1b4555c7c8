import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mteq import (
    Arc,
    InstanceError,
    NetworkError,
    Node,
    build_network,
    default_capacity,
    extract_core,
    shortest_costs,
    strongly_connected,
)
from mteq.synthgen import GridGenSpec, gen_grid, gen_single_od

from conftest import flat_arc


def bpr_network():
    """A ring 0 -> 1 -> 2 -> 0 of three BPR arcs: a (free time 10 h, gamma
    0.02, nu 2, capacity 100), the primary arc b (4 km at 2 km/h, gamma 0.15,
    nu 4, capacity 50) and the flat arc c (3 h, gamma 0)."""
    nodes = [Node(str(i), i, 0) for i in range(3)]
    arcs = [Arc(id="a", tail="0", head="1", length_km=10.0, free_speed_kmh=1.0,
                capacity=100.0, bpr_gamma=0.02, bpr_nu=2.0),
            Arc(id="b", tail="1", head="2", length_km=4.0, free_speed_kmh=2.0,
                road_class="primary", capacity=50.0, bpr_gamma=0.15, bpr_nu=4.0),
            flat_arc("c", "2", "0", 3.0)]
    return build_network(nodes, arcs)


class TestBuild:
    def test_minimal_cycle_adjacency(self):
        net = build_network(
            [Node("0", 0, 0), Node("1", 1, 0)],
            [flat_arc("f", "0", "1", 1.0), flat_arc("b", "1", "0", 1.0)])
        assert net.out_degree.tolist() == [1, 1]

    def test_single_od_instance_counts(self):
        net = gen_single_od().network
        assert net.n_nodes == 4
        assert net.n_arcs == 6
        assert int(net.is_primary.sum()) == 2
        assert net.primary_length.tolist() == [a.length_km if a.road_class == "primary" else 0.0
                                               for a in net.arcs]
        assert not net.primary_length.flags.writeable

    def test_a_record_is_checked_when_its_network_is_built(self):
        arc = Arc("a", "0", "1", length_km=-1.0, free_speed_kmh="abc")  # any value is held
        with pytest.raises(InstanceError, match="arc a: length_km must be > 0, got -1.0"):
            build_network([Node("0", 0, 0), Node("1", 1, 0)], [arc])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(NetworkError, match="99"):
            build_network([Node("0", 0, 0)], [flat_arc("bad", "0", "99", 1.0)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(NetworkError):
            build_network([Node("0", 0, 0), Node("0", 1, 0)], [])
        with pytest.raises(NetworkError):
            build_network(
                [Node("0", 0, 0), Node("1", 1, 0)],
                [flat_arc("a", "0", "1", 1.0), flat_arc("a", "1", "0", 1.0)])


class TestExtractCore:
    def cycle(self, ids):
        nodes = [Node(i, k, 0) for k, i in enumerate(ids)]
        arcs = [flat_arc(f"c{a}{b}", a, b, 1.0) for a, b in zip(ids, ids[1:] + ids[:1])]
        return nodes, arcs

    def test_strongly_connected_is_fixpoint(self):
        nodes, arcs = self.cycle(["0", "1", "2"])
        net = build_network(nodes, arcs)
        core = extract_core(net)
        assert {n.id for n in core.nodes} == {"0", "1", "2"}
        assert {a.id for a in core.arcs} == {a.id for a in net.arcs}

    def test_dangling_sink_removed(self):
        # 3-cycle plus a sink node reachable from it; by hand the only SCC
        # with >1 node is the cycle.
        nodes, arcs = self.cycle(["0", "1", "2"])
        nodes.append(Node("sink", 5, 5))
        arcs.append(flat_arc("toSink", "0", "sink", 1.0))
        core = extract_core(build_network(nodes, arcs))
        assert {n.id for n in core.nodes} == {"0", "1", "2"}
        assert strongly_connected(core)

    def test_larger_of_two_cycles_kept(self):
        n3, a3 = self.cycle(["0", "1", "2"])
        n2, a2 = self.cycle(["x", "y"])
        core = extract_core(build_network(n3 + n2, a3 + a2))
        assert {n.id for n in core.nodes} == {"0", "1", "2"}

    def test_no_nontrivial_scc_is_error(self):
        nodes = [Node("0", 0, 0), Node("1", 1, 0)]
        with pytest.raises(NetworkError):
            extract_core(build_network(nodes, [flat_arc("a", "0", "1", 1.0)]))

    def test_connectivity_oracle_bfs_both_directions(self):
        nodes, arcs = self.cycle(["0", "1", "2", "3"])
        core = extract_core(build_network(nodes, arcs))
        # hand BFS forward and backward from node 0
        fwd = {e: set() for e in range(core.n_nodes)}
        rev = {e: set() for e in range(core.n_nodes)}
        for a in range(core.n_arcs):
            fwd[core.tail[a]].add(core.head[a])
            rev[core.head[a]].add(core.tail[a])
        for adj in (fwd, rev):
            seen, stack = {0}, [0]
            while stack:
                for nxt in adj[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            assert seen == set(range(core.n_nodes))


class TestLatency:
    """Network.latency_all and inverse_latency_all on bpr_network."""

    def test_zero_flow_gives_free_time(self):
        assert bpr_network().latency_all(np.zeros(3)).tolist() == [10.0, 2.0, 3.0]

    def test_bpr_values(self):
        # t0 (1 + gamma (f / capacity)^nu): a 10 (1 + 0.02 (f/100)^2),
        # b 2 (1 + 0.15 (f/50)^4), c flat at 3
        net = bpr_network()
        assert net.latency_all([100.0, 50.0, 7.0]) == pytest.approx([10.2, 2.3, 3.0], rel=1e-12)
        assert net.latency_all([200.0, 100.0, 0.0]) == pytest.approx([10.8, 6.8, 3.0], rel=1e-12)

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError):
            bpr_network().latency_all([1.0, -1.0, 0.0])

    def test_strictly_monotone(self):
        net = bpr_network()
        vals = net.latency_all(np.linspace(0, 500, 40)[:, None] * np.ones(3))
        assert np.all(np.diff(vals[:, :2], axis=0) > 0)
        assert np.all(vals[:, 2] == 3.0)  # the flat arc

    def test_inverse_round_trip(self):
        net = bpr_network()
        for f in [0.0, 1.0, 57.3, 100.0, 4000.0]:
            flows = np.full(3, f)
            assert net.inverse_latency_all(net.latency_all(flows)) == pytest.approx(
                [f, f, 0.0], rel=1e-9, abs=1e-9)

    def test_inverse_values(self):
        net = bpr_network()
        assert net.inverse_latency_all([10.0, 2.0, 3.0]).tolist() == [0.0, 0.0, 0.0]
        # closed form capacity ((t/t0 - 1)/gamma)^(1/nu): a 100 ((1.02-1)/0.02)^0.5,
        # b 50 ((1.15-1)/0.15)^0.25
        assert net.inverse_latency_all([10.2, 2.3, 3.0]) == pytest.approx(
            [100.0, 50.0, 0.0], rel=1e-10)

    def test_inverse_below_free_time_is_zero_flow(self):
        assert bpr_network().inverse_latency_all([9.0, 1.0, 2.0]).tolist() == [0.0, 0.0, 0.0]

    def test_flat_arc_not_invertible(self):
        # every time of the flat arc c maps back to zero flow
        net = bpr_network()
        for t in (3.0, 4.0, 100.0):
            assert net.inverse_latency_all([10.2, 2.3, t])[2] == 0.0


class TestMonetaryCost:
    """Tolls as rates * Network.primary_length."""

    def test_secondary_is_free(self):
        net = bpr_network()
        assert (1000.0 * net.primary_length)[~net.is_primary].tolist() == [0.0, 0.0]

    def test_primary_charges_per_km(self):
        net = bpr_network()
        assert (100.0 * net.primary_length).tolist() == [0.0, 400.0, 0.0]

    def test_zero_price(self):
        assert (0.0 * bpr_network().primary_length).tolist() == [0.0, 0.0, 0.0]


class TestDefaultCapacity:
    def test_value(self):
        assert default_capacity(3, 5.0, 0.005) == pytest.approx(3000.0)

    def test_one_car_fits(self):
        assert default_capacity(1, 0.005, 0.005) == pytest.approx(1.0)

    def test_zero_car_length_rejected(self):
        with pytest.raises(NetworkError):
            default_capacity(1, 5.0, 0.0)

    def test_network_fills_a_missing_capacity_from_its_car_length(self):
        # only the arc without a capacity takes the default, and the core
        # keeps the car length
        nodes = [Node("0", 0, 0), Node("1", 1, 0)]
        arcs = [Arc("f", "0", "1", 5.0, 40.0, lanes=3), Arc("b", "1", "0", 5.0, 40.0, capacity=7.0)]
        net = build_network(nodes, arcs, 0.004)
        assert net.car_length_km == extract_core(net).car_length_km == 0.004
        assert net.capacity.tolist() == [default_capacity(3, 5.0, 0.004), 7.0]

    @pytest.mark.parametrize("car_length_km", [0, -1.0, float("nan"), "abc"])
    def test_network_refuses_a_bad_car_length(self, car_length_km):
        with pytest.raises(InstanceError, match="defaults.car_length_km must be"):
            build_network([Node("0", 0, 0)], [], car_length_km)

    def test_network_refuses_no_node(self):
        with pytest.raises(NetworkError, match="nodes: at least one node required"):
            build_network([], [])


class TestShortestCosts:
    def test_line_graph(self, line_network):
        costs = shortest_costs(line_network, line_network.free_time, 2)
        assert costs.tolist() == [7.0, 4.0, 0.0]

    def test_parallel_arcs_take_min(self):
        net = build_network(
            [Node("0", 0, 0), Node("1", 1, 0)],
            [flat_arc("slow", "0", "1", 9.0), flat_arc("fast", "0", "1", 5.0),
             flat_arc("back", "1", "0", 1.0)])
        costs = shortest_costs(net, net.free_time, net.node_index["1"])
        assert costs[net.node_index["0"]] == 5.0

    def test_destination_zero_with_self_loop(self):
        net = build_network(
            [Node("0", 0, 0), Node("1", 1, 0)],
            [flat_arc("a", "0", "1", 3.0), flat_arc("loop", "1", "1", 2.0),
             flat_arc("back", "1", "0", 4.0)])
        costs = shortest_costs(net, net.free_time, net.node_index["1"])
        assert costs[net.node_index["1"]] == 0.0

    def test_bellman_fixed_point(self, line_network):
        net = line_network
        w = net.free_time
        costs = shortest_costs(net, w, 2)
        for i in range(net.n_nodes):
            if i == 2:
                continue
            lo, hi = net.out_start[i], net.out_start[i + 1]
            best = min(w[a] + costs[net.head[a]] for a in range(lo, hi))
            assert costs[i] == best

    def test_unreachable_destination_reported(self):
        net = build_network(
            [Node("0", 0, 0), Node("1", 1, 0)],
            [flat_arc("a", "0", "1", 1.0), flat_arc("loop", "0", "0", 1.0),
             flat_arc("loop1", "1", "1", 1.0)])
        with pytest.raises(NetworkError, match="cannot reach"):
            shortest_costs(net, net.free_time, net.node_index["0"])


def parallel_lattice():
    """3-node ring with two-way arcs and a slower parallel twin on two of
    them, so the cheapest-of-parallel-arcs rule matters."""
    nodes = [Node(str(i), i, 0) for i in range(3)]
    arcs = [flat_arc("a01", "0", "1", 2.0), flat_arc("b01", "0", "1", 1.5),
            flat_arc("a10", "1", "0", 2.0), flat_arc("a12", "1", "2", 1.0),
            flat_arc("a21", "2", "1", 4.0), flat_arc("b21", "2", "1", 6.0),
            flat_arc("a20", "2", "0", 3.0), flat_arc("a02", "0", "2", 5.0)]
    return build_network(nodes, arcs)


class TestBatchedShortestCosts:
    @pytest.mark.parametrize("make", [parallel_lattice, lambda: gen_single_od().network])
    def test_array_of_destinations_equals_loop(self, make):
        net = make()
        rng = np.random.default_rng(3)
        costs = rng.uniform(0.0, 2.0, size=(3, net.n_arcs))
        dest = np.array([2, 0, 1, 2, 0])
        rows = np.array([0, 1, 2, 2, 0])
        got = shortest_costs(net, costs, dest, rows=rows)
        for i, (d, r) in enumerate(zip(dest, rows)):
            assert got[i].tolist() == shortest_costs(net, costs[r], int(d)).tolist()
        one_row = shortest_costs(net, costs[1], dest)
        for i, d in enumerate(dest):
            assert one_row[i].tolist() == shortest_costs(net, costs[1], int(d)).tolist()

    def test_parallel_arcs_take_min_in_every_row(self):
        net = parallel_lattice()
        costs = np.vstack([net.free_time, 2.0 * net.free_time])
        got = shortest_costs(net, costs, np.array([1, 1]), rows=np.array([0, 1]))
        assert got[:, net.node_index["0"]].tolist() == [1.5, 3.0]  # b01, not a01
        assert got[:, net.node_index["2"]].tolist() == [4.0, 8.0]  # a21, not b21

    def test_stack_without_rows_rejected(self):
        net = parallel_lattice()
        with pytest.raises(ValueError, match="rows"):
            shortest_costs(net, np.vstack([net.free_time] * 2), np.array([0, 1]))

    def test_unreachable_destination_reported_in_batch(self):
        net = build_network(
            [Node("0", 0, 0), Node("1", 1, 0)],
            [flat_arc("a", "0", "1", 1.0), flat_arc("loop", "0", "0", 1.0),
             flat_arc("loop1", "1", "1", 1.0)])
        with pytest.raises(NetworkError, match="cannot reach"):
            shortest_costs(net, net.free_time, np.array([1, 0]))


def chain_reference(net, weights, destination):
    """Dense I - W by a loop over arcs, the destination's row of W zero."""
    a = np.eye(net.n_nodes)
    for k in range(net.n_arcs):
        if net.tail[k] != destination:
            a[net.tail[k], net.head[k]] -= weights[k]
    return a


def ordered_reference(net, weights, destination):
    """Dense block of chain_matrix: (I - W)^T with its columns in chain_order()."""
    return chain_reference(net, weights, destination).T[:, net.chain_order()[0]]


def _quiet(make):
    def build():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return make()
    return build


# The three-node lattice (chain order the identity), single-OD (chain order
# [2, 1, 0, 3]) and a 6x6 lattice: a test on the first alone cannot tell a
# column-ordered matrix from the natural one.
CHAIN_NETWORKS = [parallel_lattice, _quiet(lambda: gen_single_od().network),
                  _quiet(lambda: gen_grid(GridGenSpec(rows=6, cols=6)).network)]


def chain_networks():
    """CHAIN_NETWORKS as (make, id) parameters."""
    return pytest.mark.parametrize("make", CHAIN_NETWORKS,
                                   ids=["parallel", "single_od", "grid6"])


class TestChainMatrix:
    def test_single_block_equals_loop(self):
        for make in CHAIN_NETWORKS:
            net = make()
            w = np.random.default_rng(5).uniform(0.0, 0.5, size=net.n_arcs)
            for d in range(net.n_nodes):
                ref = ordered_reference(net, w, d)
                assert net.chain_matrix(w, d).toarray().tolist() == ref.tolist()
                assert net.chain_matrix(w[None], np.array([d])).toarray().tolist() \
                    == ref.tolist()

    def test_blocks_are_the_single_matrices(self):
        for make in CHAIN_NETWORKS:
            net = make()
            n = net.n_nodes
            w = np.random.default_rng(6).uniform(0.0, 0.5, size=(4, net.n_arcs))
            dest = np.array([2, 0, 2, 1])
            full = net.chain_matrix(w, dest).toarray()
            assert full.shape == (4 * n, 4 * n)
            for i, d in enumerate(dest):
                block = full[:, i * n:(i + 1) * n]
                assert block[i * n:(i + 1) * n].tolist() \
                    == ordered_reference(net, w[i], d).tolist()
                assert not np.any(np.delete(block, np.s_[i * n:(i + 1) * n], axis=0))

    @chain_networks()
    def test_ordered_blocks_are_the_blocks_in_chain_order(self, make):
        net = make()
        n, (order, inverse) = net.n_nodes, net.chain_order()
        assert order[inverse].tolist() == list(range(n))
        w = np.random.default_rng(11).uniform(0.0, 0.5, size=(3, net.n_arcs))
        dest = np.array([2, 0, -1])
        # COLAMD reads the pattern only: any regular values of it give the order
        natural = sp.csc_matrix(chain_reference(net, w[0], -1).T)
        assert np.argsort(splu(natural).perm_c).tolist() == order.tolist()
        full = sp.block_diag([chain_reference(net, w[i], d).T
                              for i, d in enumerate(dest)]).toarray()
        ordered = net.chain_matrix(w, dest)
        assert ordered.format == "csc" and net.chain_matrix(w, dest) is ordered
        cols = (order + n * np.arange(3)[:, None]).ravel()
        assert ordered.toarray().tolist() == full[:, cols].tolist()

    def test_blocks_cover_every_system_within_the_row_bound(self, monkeypatch):
        import mteq.network as network
        net = parallel_lattice()
        monkeypatch.setattr(network, "MAX_BLOCK_ROWS", 7)  # two 3-node systems per block
        assert net.solve_blocks(5) == [slice(0, 2), slice(2, 4), slice(4, 5)]
        monkeypatch.setattr(network, "MAX_BLOCK_ROWS", 1)  # never fewer than one system
        assert net.solve_blocks(2) == [slice(0, 1), slice(1, 2)]
        assert net.solve_blocks(0) == []


def blocks_reference(net, weights, dest):
    """Dense chain_matrix: block i is ordered_reference of row i of ``weights``."""
    n, k = net.n_nodes, len(dest)
    full = np.zeros((k * n, k * n))
    for i, d in enumerate(dest):
        full[i * n:(i + 1) * n, i * n:(i + 1) * n] = ordered_reference(net, weights[i], d)
    return full


class TestOwnedBlockMatrices:
    """chain_matrix and reversed_graph return the network's own k-block
    matrix, built once per k and refilled by every later call."""

    def test_same_k_returns_the_same_matrix_refilled(self):
        net = parallel_lattice()
        w1, w2 = np.random.default_rng(9).uniform(0.0, 0.5, size=(2, 3, net.n_arcs))
        dest = np.array([0, 2, 1])
        chain, graph = net.chain_matrix(w1, dest), net.reversed_graph(w1)
        assert chain.format == "csc" and graph.format == "csr"
        assert net.chain_matrix(w2, dest) is chain
        assert net.reversed_graph(w2) is graph
        assert chain.toarray().tolist() == blocks_reference(net, w2, dest).tolist()
        fresh = build_network(list(net.nodes), list(net.arcs))
        assert graph.toarray().tolist() == fresh.reversed_graph(w2).toarray().tolist()

    def test_refills_with_other_weights_and_k_equal_fresh_references(self):
        net = parallel_lattice()
        rng = np.random.default_rng(10)
        for k in (3, 1, 3, 2, 1, 2, 3):
            w = rng.uniform(0.0, 0.5, size=(k, net.n_arcs))
            dest = rng.integers(-1, net.n_nodes, size=k)
            shortest_costs(net, w, np.arange(k) % net.n_nodes, rows=np.arange(k))
            fresh = build_network(list(net.nodes), list(net.arcs))  # nothing built yet
            for got, want in ((net.chain_matrix(w, dest), fresh.chain_matrix(w, dest)),
                              (net.reversed_graph(w), fresh.reversed_graph(w))):
                assert got.shape == want.shape == (k * net.n_nodes, k * net.n_nodes)
                assert got.indices.tolist() == want.indices.tolist()
                assert got.indptr.tolist() == want.indptr.tolist()
                assert got.data.tolist() == want.data.tolist()
            assert net.chain_matrix(w, dest).toarray().tolist() == \
                blocks_reference(net, w, dest).tolist()

    def test_factor_taken_before_a_refill_solves_its_own_system(self):
        from scipy.sparse.linalg import splu
        net = parallel_lattice()
        lu = splu(net.chain_matrix(np.full(net.n_arcs, 0.2), 2))
        net.chain_matrix(np.full(net.n_arcs, 0.4), 2)  # refills the factored matrix
        b = np.array([1.0, 2.0, 3.0])
        x = lu.solve(b)
        assert np.max(np.abs(ordered_reference(net, np.full(net.n_arcs, 0.2), 2) @ x - b)) \
            <= 1e-14


class TestRebuiltNetwork:
    def test_patterns_follow_the_arc_subset(self):
        full = parallel_lattice()
        sub = build_network(list(full.nodes), [a for a in full.arcs if not a.id.startswith("b")])
        assert sub.n_arcs == full.n_arcs - 2
        assert sub.reversed_graph(sub.free_time).nnz == sub.n_arcs
        got = shortest_costs(sub, sub.free_time, np.array([1, 1]))
        assert got[0, sub.node_index["0"]] == 2.0  # b01 is gone
        w = np.full(sub.n_arcs, 0.25)
        assert sub.chain_matrix(w, 2).toarray().tolist() == ordered_reference(sub, w, 2).tolist()
