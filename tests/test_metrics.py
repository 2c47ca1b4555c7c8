import json
import math
import operator
import re
from dataclasses import fields, replace
from functools import reduce

import numpy as np
import pytest

from mteq import (
    InstanceError,
    SchemeSpec,
    SolverOptions,
    all_trip_stats,
    compute_metrics,
    equilibrium_residuals,
    expand_scheme,
    primary_flow_share,
    revenue,
    simulate_trips,
    solve_equilibrium,
)
from mteq.equilibrium import solution_from_dict, solution_to_dict
from mteq.metrics import (SimulationReport, _segment_cumsum, _substream_states,
                          _SubstreamSeed)
from mteq.network import Node, build_network
from mteq.synthgen import GridGenSpec, gen_grid, gen_single_od

from conftest import flat_arc, record_factorizations, two_route_instance
from oracle import simulate_reference

OPTS = SolverOptions(outer_tol=1e-8, outer_max_iters=3000)
MEDIUM = SolverOptions(outer_tol=1e-4, outer_max_iters=5000)
LOOSE = SolverOptions(outer_tol=10.0, outer_max_iters=10)


def solved(instance, rate=0.0):
    prices = expand_scheme(SchemeSpec(family="uniform", rate=rate), instance)
    return solve_equilibrium(instance, prices, OPTS), prices


def bouncing_instance():
    """0 -> 1 -> 2 with a way back 1 -> 0: near-uniform choice at the middle
    node bounces walks back toward the origin, so a tight step cap
    truncates a visible fraction of them."""
    from mteq import DemandEntry, Instance, OutsideOption, Stratum
    nodes = [Node("0", 0, 0), Node("1", 1, 0), Node("2", 2, 0)]
    arcs = [flat_arc("f01", "0", "1", 1.0), flat_arc("b10", "1", "0", 1.0),
            flat_arc("f12", "1", "2", 1.0), flat_arc("ret", "2", "0", 1.0)]
    return Instance(
        network=build_network(nodes, arcs),
        strata=[Stratum("s", beta_t=0.01, beta_p=1.0, beta_t_out=0.01, beta_p_out=1.0)],
        demand=[DemandEntry("s", "0", "2", 10.0)],
        outside=OutsideOption(mode="per_od_table", ticket=0.0,
                              times={("0", "2"): 1e6}),
        solver=OPTS)


@pytest.fixture(scope="module")
def grid6_solved():
    """The acceptance lattice at rate 2, solved loosely: node out-degrees
    of 2 to 4 and 30 (stratum, destination) pairs."""
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = gen_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7))
    prices = expand_scheme(SchemeSpec(family="uniform", rate=2.0), inst)
    opts = SolverOptions(outer_tol=1e-2, outer_max_iters=500)
    return inst, solve_equilibrium(inst, prices, opts)


def dense_trip_stats(net, probs, weights, dest):
    """The expected summed weights of a walk absorbed at ``dest`` under the
    arc probabilities ``probs``: the solution T of (I - P_d) T = r, with P_d
    the dense node transition matrix, dest's row zeroed, and r_i the sum
    over i's out-arcs of P_a w_a; ``weights`` is (m, c), the result (n, c).

    T is summed as its Neumann series r + P r + P^2 r + ..., doubling the
    terms with each squaring of P.  Every term is nonnegative, so each entry
    keeps its relative accuracy however small it is next to the others;
    pivoted elimination does not (a toll of 1e-11 beside tolls of order 1
    came out 2e-4 off)."""
    n, live = net.n_nodes, net.tail != dest
    P, T = np.zeros((n, n)), np.zeros((n, weights.shape[1]))
    np.add.at(P, (net.tail[live], net.head[live]), probs[live])
    np.add.at(T, net.tail[live], probs[live, None] * weights[live])
    for _ in range(40):  # T = sum of P^j r for j < 2^i after i steps
        if P.sum(axis=1).max() < 1e-18:  # the walks left are absorbed
            return T
        T, P = T + P @ T, P @ P
    raise AssertionError("walks are not absorbed after 2^40 steps")


def assert_trip_stats_match_dense(inst, sol, rel=1e-12):
    """all_trip_stats against dense_trip_stats, pair by pair."""
    net = inst.network
    stats = all_trip_stats(inst, sol)
    assert len(stats) == len(inst.demand)
    for (s_name, d_id), sd in sol.sub.items():
        s_idx = inst.stratum_names.index(s_name)
        W = np.column_stack([sol.arc_time, sol.price_rates[s_idx] * net.primary_length,
                             net.length])
        ref = dense_trip_stats(net, sd.arc_probs, W, net.node_index[d_id])
        for pos, o in enumerate(sd.origins):
            row = stats[(s_name, net.node_id(int(o)), d_id)]
            got = [row.time, row.money, row.distance]
            assert got == pytest.approx(ref[o].tolist(), rel=rel, abs=1e-300), (s_name, d_id, o)
            assert row.start_prob == sd.start_prob[pos]
    return stats


class TestExpectedTripStats:
    def test_deterministic_chain(self, line_network):
        inst = two_route_instance()  # only for strata shape; network replaced
        from mteq import DemandEntry, Instance, OutsideOption, Stratum
        chain = Instance(
            network=line_network,
            strata=[Stratum("s", 1.0, 1.0, 1.0, 1.0)],
            demand=[DemandEntry("s", "0", "2", 5.0)],
            outside=OutsideOption(mode="per_od_table", ticket=0.0,
                                  times={("0", "2"): 1e6}),
            solver=OPTS)
        sol, _ = solved(chain)
        stats = all_trip_stats(chain, sol)
        assert len(stats) == 1
        row = stats[("s", "0", "2")]
        assert row.time == pytest.approx(7.0, rel=1e-12)
        assert row.distance == pytest.approx(7.0, rel=1e-12)
        assert row.start_prob == pytest.approx(1.0, abs=1e-12)

    def test_two_equal_parallel_arcs(self, parallel_network):
        from mteq import DemandEntry, Instance, OutsideOption, Stratum
        inst = Instance(
            network=parallel_network,
            strata=[Stratum("s", 1.0, 1.0, 1.0, 1.0)],
            demand=[DemandEntry("s", "0", "1", 4.0)],
            outside=OutsideOption(mode="per_od_table", ticket=0.0,
                                  times={("0", "1"): 1e6}),
            solver=OPTS)
        sol, _ = solved(inst)
        row = all_trip_stats(inst, sol)[("s", "0", "1")]
        assert row.time == pytest.approx(5.0, rel=1e-12)

    def test_even_split_weighted_average(self, parallel_network):
        # hand-built 50/50 split over direct arcs with times 4 and 6
        net = parallel_network
        probs = np.array([[0.5, 0.5, 1.0]])
        times = np.array([[[4.0], [6.0], [1.0]]])
        exp = dense_trip_stats(net, probs[0], times[0], net.node_index["1"])
        assert exp[net.node_index["0"], 0] == pytest.approx(5.0, rel=1e-12)


    @pytest.mark.parametrize("block_rows", [None, 72])  # 72: two pairs per block
    def test_all_pairs_in_one_solve_match_per_pair_solves(self, grid6_solved, block_rows,
                                                          monkeypatch):
        import mteq.network
        if block_rows is not None:
            monkeypatch.setattr(mteq.network, "MAX_BLOCK_ROWS", block_rows)
        inst, sol = grid6_solved
        assert_trip_stats_match_dense(inst, sol)


@pytest.fixture(scope="module")
def lattices():
    """The acceptance lattice (grid6, 30 pairs) and the default 10x10 one
    (grid10: 100 nodes, 156 pairs in 3 strata of 52 destinations each)."""
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # area groups the generator skips
        return {"grid6": gen_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7)),
                "grid10": gen_grid(GridGenSpec(rows=10, cols=10, seed=0))}


def perturbed(sol, key, node, by):
    """``sol`` with the stored tau of pair ``key`` moved by ``by`` at ``node``."""
    tau = sol.sub[key].tau.copy()
    tau[node] += by
    return replace(sol, sub={**sol.sub, key: replace(sol.sub[key], tau=tau)})


class TestStackedTripStats:
    """The stratum layout of all_trip_stats against dense_trip_stats."""

    @pytest.mark.parametrize("tol", ["MEDIUM", "LOOSE"])
    @pytest.mark.parametrize("rate", [0.0, 2.0, 25.0, 100.0])
    @pytest.mark.parametrize("name", ["grid6", "grid10"])
    def test_lattices_match_the_dense_solve(self, lattices, name, rate, tol):
        inst = lattices[name]
        prices = expand_scheme(SchemeSpec(family="uniform", rate=rate), inst)
        sol = solve_equilibrium(inst, prices, {"MEDIUM": MEDIUM, "LOOSE": LOOSE}[tol])
        assert_trip_stats_match_dense(inst, sol)

    def test_one_lu_serves_every_stratum_in_range(self, lattices, monkeypatch):
        # grid10 at rate 2: 3 strata of 100 nodes in one stack; at rate 300
        # beta_t * max tau leaves range in every stratum, so no stack is
        # built and the 156 pairs take 8 per-pair stacks of 20 or fewer
        inst = lattices["grid10"]
        for rate, want in ((2.0, [((300, 300), "ok")]),
                           (300.0, [((2000, 2000), "ok")] * 7 + [((1600, 1600), "ok")])):
            sol = solve_equilibrium(
                inst, expand_scheme(SchemeSpec(family="uniform", rate=rate), inst), LOOSE)
            factored = record_factorizations(monkeypatch)
            all_trip_stats(inst, sol)
            assert factored == want, rate
            monkeypatch.undo()

    def test_pair_off_its_stored_probabilities_is_solved_on_its_own(self, grid6_solved,
                                                                    monkeypatch):
        # tau moved by 1e-6 h at one origin: X = exp(-beta_t tau) there no
        # longer matches the stored probabilities, so the stacked answer
        # fails the residual check and the pair is solved in its own block
        inst, sol = grid6_solved
        net = inst.network
        key = sorted(sol.sub)[3]
        bad = perturbed(sol, key, int(sol.sub[key].origins[0]), 1e-6)
        factored = record_factorizations(monkeypatch)
        assert_trip_stats_match_dense(inst, bad)
        assert factored == [((3 * net.n_nodes,) * 2, "ok"), ((net.n_nodes,) * 2, "ok")]

    def test_singular_stratum_stack_falls_back_per_pair(self, monkeypatch):
        # four parallel arcs each way between 0 and 1 at ln 4 hours: W_s is
        # [[0, 1], [1, 0]], so I - W_s is exactly singular, and each pair's
        # I - P_d is not
        nodes = [Node("0", 0, 0), Node("1", 1, 0)]
        arcs = [flat_arc(f"{a}{t}{h}", t, h, math.log(4.0))
                for a in "abcd" for t, h in (("0", "1"), ("1", "0"))]
        from mteq import DemandEntry, Instance, OutsideOption, Stratum
        inst = Instance(
            network=build_network(nodes, arcs),
            strata=[Stratum("s", 1.0, 1.0, 1.0, 1.0)],
            demand=[DemandEntry("s", "0", "1", 5.0), DemandEntry("s", "1", "0", 3.0)],
            outside=OutsideOption(mode="per_od_table", ticket=0.0,
                                  times={("0", "1"): 5.0, ("1", "0"): 5.0}),
            solver=OPTS)
        sol, _ = solved(inst)
        factored = record_factorizations(monkeypatch)
        stats = assert_trip_stats_match_dense(inst, sol)
        assert factored == [((2, 2), "singular"), ((4, 4), "ok")]
        assert stats[("s", "0", "1")].time == pytest.approx(math.log(4.0), rel=1e-15)

    def test_monte_carlo_mean_times_agree(self, grid6_solved):
        # per stratum, the completed trips' times less their pairs' expected
        # times average to zero within 4 standard errors, as criterion 7
        # checks on the single-OD instance
        inst, sol = grid6_solved
        net = inst.network
        stats = all_trip_stats(inst, sol)
        rep = simulate_trips(inst, sol, runs_per_unit=10, seed=20240801)
        assert rep.truncated_count == 0
        expected = {(inst.stratum_names.index(s), net.node_index[o], net.node_index[d]): t.time
                    for (s, o, d), t in stats.items()}
        done = rep.started & ~rep.truncated
        for s_idx, s in enumerate(inst.stratum_names):
            mine = done & (rep.stratum == s_idx)
            want = np.array([expected[key] for key in zip(
                rep.stratum[mine].tolist(), rep.origin[mine].tolist(),
                rep.destination[mine].tolist())])
            gap = rep.time[mine] - want
            assert len(gap) > 1000, s
            assert abs(gap.mean()) <= 4 * gap.std(ddof=1) / math.sqrt(len(gap)), s


@pytest.mark.parametrize("entry", ["all_trip_stats", "compute_metrics", "simulate_trips",
                                   "equilibrium_residuals"])
def test_solution_stratum_missing_from_instance_is_named(entry):
    # a solution with stratum "high" against the instance without it
    inst = gen_single_od()
    sol, prices = solved(inst)
    other = replace(inst, strata=inst.strata[1:], outside_time={},
                    demand=[e for e in inst.demand if e.stratum != "high"])
    call = {"all_trip_stats": lambda: all_trip_stats(other, sol),
            "compute_metrics": lambda: compute_metrics(other, sol, {}),
            "simulate_trips": lambda: simulate_trips(other, sol, runs_per_unit=1),
            "equilibrium_residuals": lambda: equilibrium_residuals(other, prices[1:], sol)}
    with pytest.raises(InstanceError, match=r"^solution: strata \['high'\] are not in the "
                                            r"instance$"):
        call[entry]()


@pytest.mark.parametrize("entry", ["all_trip_stats", "compute_metrics", "simulate_trips",
                                   "equilibrium_residuals"])
def test_instance_stratum_missing_from_solution_is_named(entry):
    # a solution without stratum "high" against the instance with it: the
    # instance's stratum order would index past its price rates
    inst = gen_single_od()
    other = replace(inst, strata=inst.strata[1:], outside_time={},
                    demand=[e for e in inst.demand if e.stratum != "high"])
    sol, _prices = solved(other)
    prices = expand_scheme(SchemeSpec(family="uniform", rate=0.0), inst)
    call = {"all_trip_stats": lambda: all_trip_stats(inst, sol),
            "compute_metrics": lambda: compute_metrics(inst, sol, {}),
            "simulate_trips": lambda: simulate_trips(inst, sol, runs_per_unit=1),
            "equilibrium_residuals": lambda: equilibrium_residuals(inst, prices, sol)}
    with pytest.raises(InstanceError, match=r"^solution: strata \['high'\] of the instance "
                                            r"are not in the solution$"):
        call[entry]()


def reversed_strata_case():
    """The single-OD solution of the per-stratum scheme high=0, mid=50,
    low=100, and the same instance with its strata listed in reverse."""
    inst = gen_single_od()
    prices = expand_scheme(SchemeSpec(family="per_stratum", stratum_rates=(
        ("high", 0.0), ("mid", 50.0), ("low", 100.0))), inst)
    return inst, solve_equilibrium(inst, prices, OPTS), replace(inst, strata=inst.strata[::-1])


@pytest.mark.parametrize("entry", ["all_trip_stats", "compute_metrics", "simulate_trips",
                                   "equilibrium_residuals"])
@pytest.mark.parametrize("source", ["solved", "file"])
def test_price_rows_of_another_stratum_order_are_refused(entry, source):
    # the rows of price_rates are high, mid, low; read by the reversed
    # instance's order, high would pay low's toll (an expected 78.24)
    inst, sol, flipped = reversed_strata_case()
    if source == "file":
        doc = json.loads(json.dumps(solution_to_dict(sol, inst.network)))
        assert doc["schema_version"] == 5 and doc["strata"] == ["high", "mid", "low"]
        sol = solution_from_dict(doc, inst.network)
    assert all_trip_stats(inst, sol)[("high", "0", "3")].money == 0.0
    call = {"all_trip_stats": lambda: all_trip_stats(flipped, sol),
            "compute_metrics": lambda: compute_metrics(flipped, sol, {}),
            "simulate_trips": lambda: simulate_trips(flipped, sol, runs_per_unit=1),
            "equilibrium_residuals": lambda: equilibrium_residuals(flipped, sol.price_rates, sol)}
    with pytest.raises(InstanceError, match=re.escape(
            "solution: the price_rates rows are strata ['high', 'mid', 'low'], the instance "
            "lists ['low', 'mid', 'high']")):
        call[entry]()


class TestWelfare:
    def test_no_pricing_has_zero_delta(self):
        inst = gen_single_od()
        sol0, _ = solved(inst)
        rep = compute_metrics(inst, sol0, all_trip_stats(inst, sol0))
        for s in inst.stratum_names:
            assert rep.welfare_delta[s] == 0.0

    def test_money_only_loss(self):
        # single tolled route and flat latency: t(p) = t(0) exactly, so the
        # welfare is minus the sensitivity-weighted toll: 0.5 * 50 * 2km = 50
        from mteq import DemandEntry, Instance, OutsideOption, Stratum
        from mteq.network import Arc
        arcs = [
            Arc(id="prim", tail="0", head="1", length_km=2.0, free_speed_kmh=1.0,
                lanes=2, road_class="primary", capacity=8.0, bpr_gamma=0.0),
            Arc(id="back", tail="1", head="0", length_km=3.0, free_speed_kmh=1.0,
                capacity=5.0, bpr_gamma=0.0),
        ]
        inst = Instance(
            network=build_network([Node("0", 0, 0), Node("1", 1, 0)], arcs),
            strata=[Stratum("s", beta_t=1.0, beta_p=0.5, beta_t_out=1.0, beta_p_out=1.0)],
            demand=[DemandEntry("s", "0", "1", 10.0)],
            outside=OutsideOption(mode="per_od_table", ticket=0.0,
                                  times={("0", "1"): 1e9}),
            solver=OPTS)
        sol0, _ = solved(inst)
        solp, _prices = solved(inst, rate=50.0)
        sd = solp.sub[("s", "1")]
        assert sd.start_prob[0] == pytest.approx(1.0, abs=1e-12)
        stats = all_trip_stats(inst, solp)[("s", "0", "1")]
        assert stats.money == pytest.approx(100.0, rel=1e-12)
        w = compute_metrics(inst, solp, all_trip_stats(inst, sol0)).welfare["s"]
        assert w == pytest.approx(-50.0, rel=1e-9)

    def test_all_outside_degenerates_to_outside_term(self):
        # drive cost is astronomically above the outside option
        inst = two_route_instance(outside_time=1.0, ticket=0.5, congestible=False)
        huge = [
            type(a)(id=a.id, tail=a.tail, head=a.head, length_km=1e5,
                    free_speed_kmh=1.0, lanes=a.lanes, road_class=a.road_class,
                    capacity=a.capacity, bpr_gamma=0.0)
            for a in inst.network.arcs
        ]
        slow = type(inst)(network=build_network(list(inst.network.nodes), huge),
                          strata=inst.strata, demand=inst.demand,
                          outside=inst.outside, solver=inst.solver)
        sol0, _ = solved(slow)
        sd = sol0.sub[("solo", "1")]
        assert sd.start_prob[0] == pytest.approx(0.0, abs=1e-12)
        w = compute_metrics(slow, sol0, all_trip_stats(slow, sol0)).welfare["solo"]
        stats0 = all_trip_stats(slow, sol0)[("solo", "0", "1")]
        expected = stats0.time - 1.0 - 0.5  # t0 - outside time - fare
        assert w == pytest.approx(expected, rel=1e-12)


class TestRevenue:
    def test_zero_prices_zero_revenue(self):
        inst = two_route_instance()
        sol, _prices = solved(inst)
        assert revenue(sol, "solo", inst) == 0.0

    def test_flow_times_toll(self):
        # all 10 trips forced over the 2 km primary arc at rate 100
        inst = two_route_instance(outside_time=1e9, congestible=False)
        only_prim = [a for a in inst.network.arcs if a.id != "sec"]
        net = build_network(list(inst.network.nodes), only_prim)
        forced = type(inst)(network=net, strata=inst.strata, demand=inst.demand,
                            outside=inst.outside, solver=inst.solver)
        sol, _prices = solved(forced, rate=100.0)
        assert sol.stratum_flow["solo"][net.arc_index["prim"]] == pytest.approx(10.0, rel=1e-9)
        assert revenue(sol, "solo", forced) == pytest.approx(2000.0, rel=1e-9)
        report = compute_metrics(forced, sol, all_trip_stats(forced, sol))
        assert report.total_revenue == pytest.approx(2000.0, rel=1e-9)

    def test_secondary_only_flow_earns_nothing(self):
        inst = two_route_instance(outside_time=1e9, congestible=False)
        only_sec = [a for a in inst.network.arcs if a.id != "prim"]
        net = build_network(list(inst.network.nodes), only_sec)
        forced = type(inst)(network=net, strata=inst.strata, demand=inst.demand,
                            outside=inst.outside, solver=inst.solver)
        sol, _prices = solved(forced, rate=500.0)
        assert revenue(sol, "solo", forced) == 0.0

    def test_linear_in_price_at_frozen_flows(self):
        inst = two_route_instance(outside_time=1e9)
        sol, prices = solved(inst, rate=10.0)
        r1 = revenue(sol, "solo", inst)
        r2 = revenue(replace(sol, price_rates=2.0 * prices), "solo", inst)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_revenue_equals_demand_weighted_expected_money(self):
        inst = two_route_instance()
        sol, _prices = solved(inst, rate=3.0)
        stats = all_trip_stats(inst, sol)[("solo", "0", "1")]
        paid = 10.0 * stats.start_prob * stats.money
        assert revenue(sol, "solo", inst) == pytest.approx(paid, rel=1e-8)

    @pytest.mark.parametrize("name", ["single_od", "grid6"])
    def test_trip_stats_reproduce_each_stratum_flow(self, name, grid6_solved):
        # per stratum, the started trips of its OD pairs times their expected
        # time, money and distance are its flow dotted with the arc times,
        # tolls and lengths; so the trip- and flow-weighted speeds coincide
        if name == "grid6":
            inst, sol = grid6_solved
        else:
            inst = gen_single_od()
            sol, _prices = solved(inst, rate=20.0)
        net = inst.network
        stats = all_trip_stats(inst, sol)
        report = compute_metrics(inst, sol, stats)
        trips = {(e.stratum, e.origin, e.destination): e.trips for e in inst.demand}
        for s_idx, s in enumerate(inst.stratum_names):
            started = [(trips[key] * t.start_prob, t) for key, t in stats.items() if key[0] == s]
            flow = sol.stratum_flow[s]
            for field, per_arc in (("time", sol.arc_time), ("distance", net.length),
                                   ("money", sol.price_rates[s_idx] * net.primary_length)):
                total = sum(g * getattr(t, field) for g, t in started)
                assert total == pytest.approx(float(flow @ per_arc), rel=1e-12), (s, field)
                assert total > 0.0
            assert report.avg_speed_trip[s] == pytest.approx(report.avg_speed_flow[s], rel=1e-12)


class TestPrimaryShare:
    def test_extremes_and_ratio(self):
        inst = two_route_instance(congestible=False)
        sol, _ = solved(inst)
        net = inst.network
        f = sol.stratum_flow["solo"]
        prim, sec = net.arc_index["prim"], net.arc_index["sec"]
        share = primary_flow_share(sol, "solo", inst)
        expect = f[prim] * 2.0 / (f[prim] * 2.0 + f[sec] * 3.0)
        assert share == pytest.approx(expect, rel=1e-12)

    def test_equal_flows_equal_lengths_is_half(self):
        inst = two_route_instance()
        sol, _ = solved(inst)
        sol.stratum_flow["solo"] = np.array([7.0, 7.0, 0.0])  # prim, sec, back
        net = inst.network
        fake_lengths = net.length.copy()
        share = primary_flow_share(sol, "solo", inst, weight="flow")
        assert share == pytest.approx(0.5, rel=1e-12)

    def test_zero_flow_is_undefined(self):
        inst = two_route_instance()
        sol, _ = solved(inst)
        sol.stratum_flow["solo"] = np.zeros(inst.network.n_arcs)
        assert math.isnan(primary_flow_share(sol, "solo", inst))


class TestSimulation:
    def test_never_started_when_outside_dominates(self):
        inst = two_route_instance(outside_time=0.0, ticket=0.0, congestible=False)
        # make driving hopeless so the start probability collapses to zero
        huge = [
            type(a)(id=a.id, tail=a.tail, head=a.head, length_km=1e5,
                    free_speed_kmh=1.0, lanes=a.lanes, road_class=a.road_class,
                    capacity=a.capacity, bpr_gamma=0.0)
            for a in inst.network.arcs
        ]
        slow = type(inst)(network=build_network(list(inst.network.nodes), huge),
                          strata=inst.strata, demand=inst.demand,
                          outside=inst.outside, solver=inst.solver)
        sol, _ = solved(slow)
        rep = simulate_trips(slow, sol, runs_per_unit=5, seed=1)
        assert rep.summary(["solo"])["solo"]["started_proportion"] == 0.0
        assert len(rep.trips) == 50

    def test_deterministic_chain_times_exact(self, line_network):
        from mteq import DemandEntry, Instance, OutsideOption, Stratum
        chain = Instance(
            network=line_network,
            strata=[Stratum("s", 1.0, 1.0, 1.0, 1.0)],
            demand=[DemandEntry("s", "0", "2", 3.0)],
            outside=OutsideOption(mode="per_od_table", ticket=0.0,
                                  times={("0", "2"): 1e6}),
            solver=OPTS)
        sol, _ = solved(chain)
        rep = simulate_trips(chain, sol, runs_per_unit=4, seed=0)
        done = rep.completed("s")
        assert len(done) == 12
        assert all(t.time == pytest.approx(7.0, rel=1e-12) for t in done)

    def test_two_route_shares_within_3_sigma(self):
        inst = two_route_instance(outside_time=1e9, congestible=False, trips=100.0)
        sol, _ = solved(inst)
        sd = sol.sub[("solo", "1")]
        net = inst.network
        p_prim = sd.arc_probs[net.arc_index["prim"]]
        rep = simulate_trips(inst, sol, runs_per_unit=100, seed=3)
        done = rep.completed("solo")
        n = len(done)
        assert n == 10000
        frac = sum(net.arcs[net.arc_index["prim"]].id in ("prim",) and t.primary_distance > 0
                   for t in done) / n
        se = math.sqrt(p_prim * (1 - p_prim) / n)
        assert abs(frac - p_prim) <= 3 * se

    def test_step_cap_truncates_and_keeps_trips(self):
        inst = bouncing_instance()
        sol, _ = solved(inst)
        rep = simulate_trips(inst, sol, runs_per_unit=10, seed=5,
                             step_cap=inst.network.n_nodes + 1)
        assert rep.truncated_count > 0
        assert len(rep.trips) == 100
        truncated = [t for t in rep.trips if t.truncated]
        assert len(truncated) == rep.truncated_count
        assert all(t.started for t in truncated)

    def test_seed_reproducibility(self):
        inst = two_route_instance()
        sol, _ = solved(inst)
        a = simulate_trips(inst, sol, runs_per_unit=3, seed=11)
        b = simulate_trips(inst, sol, runs_per_unit=3, seed=11)
        c = simulate_trips(inst, sol, runs_per_unit=3, seed=12)
        assert [(t.time, t.started) for t in a.trips] == [(t.time, t.started) for t in b.trips]
        assert [(t.time, t.started) for t in a.trips] != [(t.time, t.started) for t in c.trips]

    def test_aggregates_invariant_to_trip_order(self):
        inst = two_route_instance()
        sol, _ = solved(inst)
        rep = simulate_trips(inst, sol, runs_per_unit=5, seed=2)
        before = rep.summary(["solo"])["solo"]
        speed, share = before["avg_speed"], before["primary_share"]
        columns = {f.name: getattr(rep, f.name)[::-1] for f in fields(rep)
                   if isinstance(getattr(rep, f.name), np.ndarray)}
        assert len(columns) == 9
        after = replace(rep, **columns).summary(["solo"])["solo"]
        assert after["avg_speed"] == speed
        assert after["primary_share"] == share

    def test_summary_matches_per_stratum_aggregates(self, grid6_solved):
        inst, sol = grid6_solved
        rep = simulate_trips(inst, sol, runs_per_unit=2, seed=4)
        summary = rep.summary(inst.stratum_names)
        assert list(summary) == list(inst.stratum_names)
        for s in inst.stratum_names:
            mine = rep.by_stratum(s)
            done = [t for t in mine if t.started and not t.truncated]
            # left to right: sum() of floats is compensated from Python 3.12 on
            dist = reduce(operator.add, [t.distance for t in done])
            time = reduce(operator.add, [t.time for t in done])
            assert summary[s] == {
                "trips": len(mine),
                "started_proportion": sum(t.started for t in mine) / len(mine),
                "mean_time": float(np.mean([t.time for t in done])),
                "primary_share": reduce(operator.add, [t.primary_distance for t in done]) / dist,
                "avg_speed": dist / time,
            }

    def test_summary_sums_left_to_right(self):
        # 1.0 then a thousand 1e-16: added one at a time, each 1e-16 is lost
        # next to 1.0, while a pairwise or compensated sum (np.sum, math.fsum,
        # sum() from Python 3.12 on) keeps them
        n = 1001
        dist, primary = [1.0] + [1e-16] * 1000, [0.5] + [1e-16] * 1000
        time = [1.0] * n
        rep = SimulationReport(
            seed=0, runs_per_unit=1, step_cap=4, stratum_names=["s"], node_ids=["0", "1"],
            stratum=np.zeros(n, dtype=np.int64), origin=np.zeros(n, dtype=np.int64),
            destination=np.ones(n, dtype=np.int64), started=np.ones(n, dtype=bool),
            time=np.array(time), money=np.zeros(n), distance=np.array(dist),
            primary_distance=np.array(primary), truncated=np.zeros(n, dtype=bool))
        got = rep.summary(["s"])["s"]
        left = {name: reduce(operator.add, xs) for name, xs in
                (("dist", dist), ("primary", primary), ("time", time))}
        assert left["dist"] == 1.0 < math.fsum(dist) and left["primary"] != math.fsum(primary)
        assert got["avg_speed"] == left["dist"] / left["time"] != math.fsum(dist) / n
        assert got["primary_share"] == left["primary"] / left["dist"]
        assert got["primary_share"] != math.fsum(primary) / math.fsum(dist)

    @pytest.mark.parametrize("case", ["grid6", "long_walks", "no_runs", "never_starts"])
    def test_walk_does_not_depend_on_the_buffer_size(self, grid6_solved, case, monkeypatch):
        # a stream's first draw holds its start uniforms, then a walk buffer of
        # _UNIFORMS_PER_WALKER uniforms per trip; a refill moves what is unread
        # to the buffer's front.  A buffer of 1 refills at almost every step,
        # one of 64 almost never, and every trip reads the same uniforms
        if case in ("grid6", "never_starts"):
            inst, sol = grid6_solved
            kw = dict(runs_per_unit=2, seed=17)
            if case == "never_starts":  # the first pair's walk buffer is drawn, never read
                sub, first = dict(sol.sub), sorted(sol.sub)[0]
                sub[first] = replace(sub[first], start_prob=np.zeros_like(sub[first].start_prob))
                sol = replace(sol, sub=sub)
        else:  # walks of 2 to ~20 steps outrun the default buffer
            inst = bouncing_instance()
            sol, _ = solved(inst)
            kw = dict(runs_per_unit=50 if case == "long_walks" else 0, seed=19)

        def simulate(size):
            monkeypatch.setattr("mteq.metrics._UNIFORMS_PER_WALKER", size)
            return simulate_trips(inst, sol, keep_paths=True, **kw)

        want = simulate(4)
        columns = [f.name for f in fields(want) if isinstance(getattr(want, f.name), np.ndarray)]
        for size in (1, 64):
            got = simulate(size)
            assert all(getattr(got, c).tolist() == getattr(want, c).tolist() for c in columns)
            assert got.paths == want.paths
        if case == "no_runs":
            assert len(want.started) == 0
        elif case == "never_starts":
            first = (want.stratum == want.stratum[0]) & (want.destination == want.destination[0])
            assert first.any() and not want.started[first].any() and want.started.any()
        elif case == "long_walks":
            assert max(len(path) for path in want.paths) > 4

    def test_pair_streams_are_independent(self, grid6_solved):
        # every (stratum, origin, destination) owns its substream, so removing
        # one pair leaves every other pair's trips as they were
        inst, sol = grid6_solved
        full = simulate_trips(inst, sol, runs_per_unit=2, seed=8)
        dropped = sorted(sol.sub)[len(sol.sub) // 2]
        sub = dict(sol.sub)
        del sub[dropped]
        part = simulate_trips(inst, replace(sol, sub=sub), runs_per_unit=2, seed=8)
        rest = [t for t in full.trips if (t.stratum, t.destination) != dropped]
        assert len(rest) < len(full.trips)
        assert part.trips == rest

    def test_kept_paths_join_origin_to_destination(self, grid6_solved):
        inst, sol = grid6_solved
        net = inst.network
        rep = simulate_trips(inst, sol, runs_per_unit=2, seed=6, keep_paths=True)
        done = [t for t in rep.trips if t.started and not t.truncated]
        assert done
        for t in done:
            idx = [net.arc_index[a] for a in t.arcs]
            assert net.node_id(int(net.tail[idx[0]])) == t.origin
            assert net.node_id(int(net.head[idx[-1]])) == t.destination
            assert np.array_equal(net.head[idx[:-1]], net.tail[idx[1:]])
            assert sum(sol.arc_time[i] for i in idx) == pytest.approx(t.time, rel=1e-12)
            assert sum(net.length[i] for i in idx) == pytest.approx(t.distance, rel=1e-12)
        assert all(t.arcs == [] for t in rep.trips if not t.started)

    def test_zero_probability_arc_never_chosen(self, grid6_solved):
        # move the whole choice mass of one out-arc at every branching node
        # onto a sibling: the middle arc where there is one, else the first,
        # so the zero sits inside or at the start of the node's cumulative row
        inst, sol = grid6_solved
        net = inst.network
        sub = {}
        zeroed = set()
        for key, sd in sol.sub.items():
            probs = sd.arc_probs.copy()
            for i in range(net.n_nodes):
                lo, hi = int(net.out_start[i]), int(net.out_start[i + 1])
                if hi - lo < 2:
                    continue
                a = lo + 1 if hi - lo >= 3 else lo
                probs[a + 1 if a + 1 < hi else lo] += probs[a]
                probs[a] = 0.0
                zeroed.add(net.arcs[a].id)
            sub[key] = replace(sd, arc_probs=probs)
        rep = simulate_trips(inst, replace(sol, sub=sub), runs_per_unit=3, seed=13,
                             keep_paths=True)
        used = {a for t in rep.trips for a in t.arcs}
        assert used and not used & zeroed

    @pytest.mark.parametrize("case", ["grid6_seed_31", "grid6_seed_32", "grid6_seed_wide",
                                      "truncating", "long_walks", "outside_option"])
    def test_columns_match_the_per_origin_reference(self, grid6_solved, case):
        # the lockstep walk over all trips reads each substream exactly as a
        # walk of one (stratum, origin, destination) at a time does, from
        # NumPy's own SeedSequence; the wide seed spans three 32-bit words
        if case.startswith("grid6"):
            inst, sol = grid6_solved
            kw = dict(runs_per_unit=2, seed=2**64 + 5 if case.endswith("wide") else int(case[-2:]))
            if case.endswith("32"):  # a toll rate per stratum, so money tells strata apart
                scale = np.arange(1.0, len(inst.strata) + 1)[:, None]
                sol = replace(sol, price_rates=sol.price_rates * scale)
        elif case == "truncating":
            inst = bouncing_instance()
            sol, _ = solved(inst)
            kw = dict(runs_per_unit=10, seed=5, step_cap=inst.network.n_nodes + 1)
        elif case == "long_walks":  # walks of 2 to ~20 steps outrun the uniform buffer
            inst = bouncing_instance()
            sol, _ = solved(inst)
            kw = dict(runs_per_unit=50, seed=7)
        else:
            inst = two_route_instance()
            sol, _ = solved(inst, rate=1.0)
            kw = dict(runs_per_unit=20, seed=9)
        rep = simulate_trips(inst, sol, keep_paths=True, **kw)
        ref = simulate_reference(inst, sol, keep_paths=True, **kw)
        names, nodes = rep.stratum_names, rep.node_ids
        assert [names[i] for i in rep.stratum.tolist()] == [t.stratum for t in ref]
        assert [nodes[i] for i in rep.origin.tolist()] == [t.origin for t in ref]
        assert [nodes[i] for i in rep.destination.tolist()] == [t.destination for t in ref]
        for column in ("started", "time", "money", "distance", "primary_distance",
                       "truncated"):
            assert getattr(rep, column).tolist() == [getattr(t, column) for t in ref]
        assert rep.paths == [t.arcs for t in ref]
        assert rep.trips == ref
        started = rep.started.tolist()
        if case == "truncating":
            assert rep.truncated_count > 0
        if case == "outside_option":  # unstarted trips sit between started ones
            assert any(a and not b for a, b in zip(started, started[1:]))
            assert any(b and not a for a, b in zip(started, started[1:]))

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3])
    def test_substream_states_match_seed_sequence(self, seed):
        # keys with zeros, grid10's largest node index (99) and the largest
        # one-word component; 2**130 + 3 has more words than the pool
        keys = np.array([[0, 0, 0], [2, 99, 99], [1, 0, 99], [0, 57, 3], [2**32 - 1, 2**31, 1]])
        want = [np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(4, np.uint64)
                for key in keys.tolist()]
        got = _substream_states(seed, keys)
        assert got.dtype == np.uint64 and got.tolist() == np.array(want).tolist()
        rng = np.random.Generator(np.random.PCG64(_SubstreamSeed(got[1])))
        ref = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, 99, 99)))
        assert rng.random(8).tolist() == ref.random(8).tolist()

    def test_substream_seed_refuses_what_it_cannot_give(self):
        # SeedSequence would read a component >= 2**32 as several words
        with pytest.raises(ValueError, match="below 2\\*\\*32"):
            _substream_states(0, np.array([[0, 2**32, 1]]))
        seed = _SubstreamSeed(_substream_states(0, np.zeros((1, 3), dtype=int))[0])
        for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
            with pytest.raises(ValueError, match="4 uint64 words"):
                seed.generate_state(n_words, dtype)

    def test_lockstep_walk_matches_scalar_searchsorted(self, grid6_solved):
        # reference: the same substream replayed one trip at a time with
        # searchsorted on the node's cumulative slice, clipped to its last arc
        inst, sol = grid6_solved
        net = inst.network
        seed, runs = 21, 2
        rep = simulate_trips(inst, sol, runs_per_unit=runs, seed=seed, keep_paths=True)
        trips = iter(rep.trips)
        for (s_name, d_id), sd in sorted(sol.sub.items()):
            s_idx = inst.stratum_names.index(s_name)
            d = net.node_index[d_id]
            cum = _segment_cumsum(sd.arc_probs, net.out_start)
            for pos, o in enumerate(sd.origins):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(s_idx, int(o), d)))
                n = int(round(sd.trips[pos])) * runs
                started = rng.random(n) < sd.start_prob[pos]
                paths = [[] for _ in range(int(started.sum()))]
                node = [int(o)] * len(paths)
                live = list(range(len(paths)))
                for _ in range(rep.step_cap):
                    if not live:
                        break
                    for j, r in zip(live, rng.random(len(live))):
                        lo, hi = net.out_start[node[j]], net.out_start[node[j] + 1]
                        a = min(lo + int(np.searchsorted(cum[lo:hi], r, side="right")),
                                hi - 1)
                        paths[j].append(net.arcs[a].id)
                        node[j] = int(net.head[a])
                    live = [j for j in live if node[j] != d]
                walks = iter(paths)
                for is_started in started:
                    t = next(trips)
                    assert (t.stratum, t.origin, t.started) == (
                        s_name, net.node_id(int(o)), bool(is_started))
                    assert t.arcs == (next(walks) if is_started else [])
        assert next(trips, None) is None


class TestReport:
    def test_report_assembles_and_serializes(self):
        inst = gen_single_od()
        sol0, _ = solved(inst)
        solp, prices = solved(inst, rate=25.0)
        rep = compute_metrics(inst, solp, all_trip_stats(inst, sol0),
                              scheme_id="uniform_p25")
        assert rep.total_welfare == pytest.approx(sum(rep.welfare.values()), rel=1e-12)
        assert set(rep.trips_started) == {"high", "mid", "low"}
        d = rep.to_dict()
        assert d["scheme_id"] == "uniform_p25"
        assert len(d["per_od"]) == 3
        # toll-free baseline against itself: exact zero deltas
        rep0 = compute_metrics(inst, sol0, all_trip_stats(inst, sol0),
                               scheme_id="uniform_p0")
        assert all(v == 0.0 for v in rep0.welfare_delta.values())
        assert rep0.total_revenue == 0.0
