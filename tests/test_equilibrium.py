import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from mteq import (
    DemandEntry,
    FeasibilityError,
    Instance,
    OutsideOption,
    Stratum,
    SolverOptions,
    equilibrium_residuals,
    expand_scheme,
    extract_core,
    flows_for_destination,
    outside_costs,
    solve_equilibrium,
    solve_tau,
    zero_prices,
)
from mteq import choice
from mteq.equilibrium import solution_from_dict, solution_to_dict
from mteq.network import Node, build_network, shortest_costs
from mteq.pricing import SchemeSpec
from mteq.synthgen import GridGenSpec, gen_grid, gen_single_od

import oracle
from conftest import flat_arc, schema_1_document, two_route_instance

OPTS = SolverOptions(inner_tol=1e-10, outer_tol=1e-8, outer_max_iters=3000)
MEDIUM = SolverOptions(inner_tol=1e-9, outer_tol=1e-4, outer_max_iters=5000)


def rate_2(inst):
    return expand_scheme(SchemeSpec(family="uniform", rate=2.0), inst)


def assert_same_solution(got, want):
    """Every array of two solutions equal bit for bit, every scalar equal."""
    def same(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for name in ("total_flow", "arc_time", "response_flow", "price_rates"):
        same(getattr(got, name), getattr(want, name))
    assert got.stratum_flow.keys() == want.stratum_flow.keys()
    for name, flow in want.stratum_flow.items():
        same(got.stratum_flow[name], flow)
    assert got.sub.keys() == want.sub.keys()
    for key, sd in want.sub.items():
        for f in fields(sd):
            a, b = getattr(got.sub[key], f.name), getattr(sd, f.name)
            if isinstance(b, np.ndarray):
                same(a, b)
            else:
                assert a == b, (key, f.name)
    for name in ("converged", "inner_converged", "outer_iterations", "outer_residual"):
        assert getattr(got, name) == getattr(want, name)
    assert got.iteration_log == [{"iteration": r["iteration"], "residual": r["residual"]}
                                 for r in want.iteration_log]


class TestWarmStart:
    def test_zero_flow_zero_price_is_free_flow_shortest(self, line_network):
        tau = shortest_costs(line_network, line_network.free_time, 2)
        assert tau.tolist() == [7.0, 4.0, 0.0]

    def test_toll_shifts_tail_value(self):
        inst = gen_single_od()
        net = inst.network
        s = inst.strata[0]  # high
        t = net.free_time
        kappa = 200.0 * net.length * net.is_primary
        costs = t + (s.beta_p / s.beta_t) * kappa
        base = shortest_costs(net, t, net.node_index["1"])
        tolled = shortest_costs(net, costs, net.node_index["1"])
        # from node 2 the only route to 1 is the primary arc p21
        shift = (s.beta_p / s.beta_t) * 200.0 * 5.0
        assert tolled[net.node_index["2"]] == pytest.approx(
            base[net.node_index["2"]] + shift, rel=1e-12)


class TestSolveTau:
    def test_chain_is_exact_in_one_sweep(self, line_network):
        net = line_network
        init = shortest_costs(net, net.free_time, 2)
        res = solve_tau(net, net.free_time, 2, 1.0, init, OPTS)
        assert res.converged
        assert res.iterations == 1
        assert res.tau.tolist() == [7.0, 4.0, 0.0]

    def test_two_parallel_arcs_closed_form(self, parallel_network):
        net = parallel_network
        d = net.node_index["1"]
        init = shortest_costs(net, net.free_time, d)
        res = solve_tau(net, net.free_time, d, 1.0, init, OPTS)
        assert res.tau[net.node_index["0"]] == pytest.approx(5.0 - math.log(2.0), rel=1e-12)

    def test_negative_drift_cycle_raises(self):
        # complete digraph on three nodes with near-zero costs: the number of
        # usable walks grows faster than their cost, so expected minima sink
        # without bound
        ids = ["0", "1", "2"]
        nodes = [Node(i, k, 0) for k, i in enumerate(ids)] + [Node("d", 5, 0)]
        arcs = [flat_arc(f"c{a}{b}", a, b, 1e-6)
                for a in ids for b in ids if a != b]
        arcs.append(flat_arc("exit", "2", "d", 1.0))
        arcs.append(flat_arc("ret", "d", "0", 1.0))
        net = build_network(nodes, arcs)
        d = net.node_index["d"]
        init = shortest_costs(net, net.free_time, d)
        with pytest.raises(FeasibilityError):
            solve_tau(net, net.free_time, d, 1.0, init, SolverOptions(
                inner_tol=1e-10, outer_tol=1.0))

    def test_returned_point_is_true_fixed_point(self, parallel_network):
        # the certificate holds when recomputed outside the solver
        net = parallel_network
        d = net.node_index["1"]
        init = shortest_costs(net, net.free_time, d)
        res = solve_tau(net, net.free_time, d, 1.0, init, OPTS)
        from mteq.choice import phi_nodes
        z = net.free_time + res.tau[net.head]
        again = phi_nodes(z, 1.0, net.out_start)
        again[d] = 0.0
        assert np.max(np.abs(again - res.tau)) <= OPTS.inner_tol

    def test_unmet_tolerance_flags_not_converged_after_one_retry(self):
        # no double-precision residual meets 1e-300: one refinement, then the flag
        inst = gen_single_od()
        net = inst.network
        d = net.node_index["3"]
        init = shortest_costs(net, net.free_time, d)
        res = solve_tau(net, net.free_time, d, inst.strata[0].beta_t, init,
                        SolverOptions(inner_tol=1e-300))
        assert not res.converged
        assert res.iterations == 2
        assert 0.0 < res.residual <= 1e-12

    def test_matches_oracle_where_unscaled_weights_underflow(self):
        # rate 100 on single-OD: primary-route shares are 3.5e-219 and below,
        # where the terms of an unscaled exp-space solve underflow
        inst = gen_single_od()
        net = inst.network
        rates = expand_scheme(SchemeSpec(family="uniform", rate=100.0), inst).rates
        d = net.node_index["3"]
        for s_idx, s in enumerate(inst.strata):
            kappa = rates[s_idx] * net.length * net.is_primary
            costs = net.free_time + (s.beta_p / s.beta_t) * kappa
            res = solve_tau(net, costs, d, s.beta_t, shortest_costs(net, costs, d), OPTS)
            assert res.converged and res.iterations == 1
            ref = oracle.naive_tau(net, costs, d, s.beta_t)
            assert res.tau == pytest.approx(ref, rel=1e-12, abs=1e-12), s.name


class TestFlowsForDestination:
    def run(self, net, dest, origins, trips, outside_cost, beta=1.0, beta_out=1.0):
        init = shortest_costs(net, net.free_time, dest)
        res = solve_tau(net, net.free_time, dest, beta, init, OPTS)
        return flows_for_destination(
            net, res.tau, net.free_time, beta,
            np.array(origins), np.array(trips, dtype=float),
            np.array(outside_cost, dtype=float), beta_out, dest, tau_result=res)

    def test_deterministic_chain(self, line_network):
        sd = self.run(line_network, 2, [0], [5.0], [np.inf])
        assert sd.entering_flow[0] == pytest.approx(5.0, rel=1e-12)
        assert sd.entering_flow[1] == pytest.approx(5.0, rel=1e-12)
        a01 = line_network.arc_index["a01"]
        a12 = line_network.arc_index["a12"]
        assert sd.arc_flow[a01] == pytest.approx(5.0, rel=1e-12)
        assert sd.arc_flow[a12] == pytest.approx(5.0, rel=1e-12)

    def test_symmetric_split(self, parallel_network):
        net = parallel_network
        sd = self.run(net, net.node_index["1"], [0], [10.0], [np.inf])
        top, bot = net.arc_index["top"], net.arc_index["bot"]
        assert sd.arc_flow[top] == pytest.approx(5.0, rel=1e-12)
        assert sd.arc_flow[bot] == pytest.approx(5.0, rel=1e-12)

    def test_outside_option_scales_started_demand(self, line_network):
        # engineered outside cost makes the start split exactly 0.6/0.4:
        # driving weight e^{-tau0}, outside weight e^{-(tau0 + ln(2/3))}
        net = line_network
        init = shortest_costs(net, net.free_time, 2)
        tau0 = solve_tau(net, net.free_time, 2, 1.0, init, OPTS).tau[0]
        oc = tau0 - math.log(2.0 / 3.0)
        sd = self.run(net, 2, [0], [10.0], [oc])
        assert sd.start_prob[0] == pytest.approx(0.6, rel=1e-12)
        a01 = net.arc_index["a01"]
        assert sd.arc_flow[a01] == pytest.approx(6.0, rel=1e-12)

    def test_mass_balance_at_destination(self, two_route):
        inst = two_route
        sol = solve_equilibrium(inst, zero_prices(inst), OPTS)
        sd = sol.subsolution("solo", "1")
        net = inst.network
        into_dest = sum(sd.arc_flow[a] for a in range(net.n_arcs)
                        if net.head[a] == net.node_index["1"])
        assert into_dest == pytest.approx(sd.started_demand(), rel=1e-9)


class TestSolveEquilibrium:
    def test_zero_demand_is_immediate_fixpoint(self, two_route):
        inst = two_route
        empty = type(inst)(network=inst.network, strata=inst.strata, demand=[],
                           outside=inst.outside, solver=inst.solver)
        sol = solve_equilibrium(empty, zero_prices(inst), OPTS)
        assert sol.converged
        assert sol.outer_iterations == 1
        assert np.all(sol.total_flow == 0.0)
        assert sol.arc_time.tolist() == inst.network.free_time.tolist()

    def test_symmetric_routes_get_equal_flow(self):
        # identical parallel primary/secondary geometry, no prices
        inst = two_route_instance()
        net = inst.network
        sym_arcs = []
        for a in net.arcs:
            kw = dict(id=a.id, tail=a.tail, head=a.head, length_km=a.length_km,
                      free_speed_kmh=a.free_speed_kmh, lanes=a.lanes,
                      road_class=a.road_class, capacity=a.capacity,
                      bpr_gamma=a.bpr_gamma, bpr_nu=a.bpr_nu)
            if a.id in ("prim", "sec"):
                kw.update(length_km=2.0, free_speed_kmh=1.0, capacity=8.0)
            sym_arcs.append(type(a)(**kw))
        sym = type(inst)(network=build_network(list(net.nodes), sym_arcs),
                         strata=inst.strata, demand=inst.demand,
                         outside=inst.outside, solver=inst.solver)
        sol = solve_equilibrium(sym, zero_prices(sym), OPTS)
        prim = sol.total_flow[sym.network.arc_index["prim"]]
        sec = sol.total_flow[sym.network.arc_index["sec"]]
        assert prim == pytest.approx(sec, rel=1e-9)

    def test_single_od_price_lowers_primary_flow_and_matches_oracle(self):
        inst = gen_single_od()
        net = inst.network
        rates0 = np.zeros((3, net.n_arcs))
        rates200 = expand_scheme(SchemeSpec(family="uniform", rate=200.0), inst).rates
        sol0 = solve_equilibrium(inst, rates0, OPTS)
        sol200 = solve_equilibrium(inst, rates200, OPTS)
        p02 = net.arc_index["p02"]
        assert sol200.total_flow[p02] < sol0.total_flow[p02]

        f0_ref, _ = oracle.naive_equilibrium(inst, rates0, tol=1e-8)
        f200_ref, _ = oracle.naive_equilibrium(inst, rates200, tol=1e-8)
        assert sol0.total_flow == pytest.approx(f0_ref, rel=1e-5, abs=1e-4)
        assert sol200.total_flow == pytest.approx(f200_ref, rel=1e-5, abs=1e-4)

    def test_nonnegative_flows_everywhere(self, two_route):
        sol = solve_equilibrium(two_route, zero_prices(two_route), OPTS)
        assert np.all(sol.total_flow >= 0)
        assert np.all(sol.response_flow >= 0)
        for sd in sol.sub.values():
            assert np.all(sd.arc_flow >= 0)
            assert np.all(sd.entering_flow >= 0)

    def test_iteration_log_emitted(self, two_route):
        records = []
        solve_equilibrium(two_route, zero_prices(two_route), OPTS,
                          log_fn=records.append)
        assert records
        assert {"iteration", "residual", "wall_time"} <= set(records[0])
        assert [r["iteration"] for r in records] == list(range(len(records)))

    @pytest.mark.parametrize("rate", [0.0, 2.0])
    def test_congested_lattice_converges_in_100_passes(self, rate):
        # the acceptance lattice at 16x its demand: the busiest arcs run at
        # 2.6-2.7x their free-flow time (1.01x at the shipped demand), and
        # plain undamped Anderson mixing fails to converge at rate 2
        medium = SolverOptions(inner_tol=1e-9, outer_tol=1e-4, outer_max_iters=5000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = gen_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7,
                                        trips_per_pair=160))
        prices = expand_scheme(SchemeSpec(family="uniform", rate=rate), inst)
        sol = solve_equilibrium(inst, prices, medium)
        assert sol.converged and sol.outer_iterations <= 100
        diag = equilibrium_residuals(inst, prices, sol)
        assert diag.flow_residual <= medium.outer_tol
        assert diag.max_tau_residual <= medium.inner_tol

    def test_flows_do_not_depend_on_inner_tol(self):
        # inner_tol only certifies the expected costs; it never truncates them
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = gen_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7))
        prices = expand_scheme(SchemeSpec(family="uniform", rate=2.0), inst)
        flows = [solve_equilibrium(inst, prices, SolverOptions(
                     inner_tol=tol, outer_tol=1e-4, outer_max_iters=5000)).total_flow
                 for tol in (0.1, 1e-9)]
        assert flows[0].tolist() == flows[1].tolist()

    def test_solution_round_trips_through_dict(self, two_route, lattice):
        # the dropped fields are rebuilt as the solver computes them: bit for bit
        for inst in (two_route, lattice):
            sol = solve_equilibrium(inst, rate_2(inst), MEDIUM)
            doc = json.loads(json.dumps(solution_to_dict(sol, inst.network)))
            assert_same_solution(solution_from_dict(doc, inst.network), sol)
            assert not {"arc_time", "stratum_flow"} & doc.keys()
            assert all("arc_flow" not in entry for entry in doc["sub"].values())

    def test_schema_1_document_loads_to_the_same_arrays(self, two_route, lattice):
        for inst in (two_route, lattice):
            sol = solve_equilibrium(inst, rate_2(inst), MEDIUM)
            doc = json.loads(json.dumps(schema_1_document(sol, inst.network)))
            assert_same_solution(solution_from_dict(doc, inst.network), sol)


class TestDiagnostics:
    def test_converged_solution_residuals(self, two_route):
        inst = two_route
        sol = solve_equilibrium(inst, zero_prices(inst), OPTS)
        diag = equilibrium_residuals(inst, zero_prices(inst), sol)
        assert diag.flow_residual <= OPTS.outer_tol
        assert diag.max_tau_residual <= OPTS.inner_tol
        assert diag.phi_gradient_residual <= OPTS.outer_tol * (1 + 1e-9)
        assert diag.tau_bound_violation <= 1e-9

    def test_truncated_run_reports_nonzero_residual(self):
        inst = gen_single_od()
        loose = SolverOptions(inner_tol=1e-10, outer_tol=1e-12, outer_max_iters=1)
        sol = solve_equilibrium(inst, zero_prices(inst), loose)
        assert not sol.converged
        diag = equilibrium_residuals(inst, zero_prices(inst), sol)
        assert diag.flow_residual > loose.outer_tol

    def test_fd_sensitivity_identity(self):
        inst = gen_single_od()
        sol = solve_equilibrium(inst, zero_prices(inst), OPTS)
        diag = equilibrium_residuals(inst, zero_prices(inst), sol,
                                     fd_arcs=range(inst.network.n_arcs))
        for (arc, s, d), (fd, v) in diag.fd_checks.items():
            assert abs(fd - v) / max(1.0, v) <= 1e-3

    def test_uniqueness_from_different_starts(self):
        inst = gen_single_od()
        rates = expand_scheme(SchemeSpec(family="uniform", rate=30.0), inst).rates
        a = solve_equilibrium(inst, rates, OPTS)
        rng = np.random.default_rng(0)
        start = rng.uniform(0.0, 500.0, size=inst.network.n_arcs)
        b = solve_equilibrium(inst, rates, OPTS, initial_flow=start)
        assert a.converged and b.converged
        assert np.max(np.abs(a.total_flow - b.total_flow)) <= 10 * OPTS.outer_tol


def one_pass(inst, rates, initial_flow=None, inner_tol=1e-9):
    """The routing pass of solve_equilibrium at one flow iterate."""
    opts = SolverOptions(inner_tol=inner_tol, outer_tol=1e-12, outer_max_iters=1)
    return solve_equilibrium(inst, rates, opts, initial_flow=initial_flow)


def per_pair_reference(inst, rates, arc_time, inner_tol=1e-9):
    """Every (stratum, destination) routed on its own: solve_tau from the
    Dijkstra bound, then flows_for_destination."""
    net = inst.network
    opts = SolverOptions(inner_tol=inner_tol)
    oc = outside_costs(inst)
    out = {}
    for s_idx, s in enumerate(inst.strata):
        costs = arc_time + (s.beta_p / s.beta_t) * (rates[s_idx] * net.length * net.is_primary)
        for d, (origins, trips) in inst.demand_by_destination(s.name).items():
            tr = solve_tau(net, costs, d, s.beta_t, shortest_costs(net, costs, d), opts)
            outside = np.array([oc[(s.name, net.node_id(o), net.node_id(d))] for o in origins])
            out[(s.name, net.node_id(d))] = flows_for_destination(
                net, tr.tau, costs, s.beta_t, origins, trips, outside, s.beta_t_out, d,
                stratum=s.name, tau_result=tr)
    return out


def assert_matches_per_pair(inst, rates, sol):
    ref = per_pair_reference(inst, rates, sol.arc_time)
    assert sorted(sol.sub) == sorted(ref)
    for key, want in ref.items():
        got = sol.sub[key]
        assert got.tau == pytest.approx(want.tau, rel=1e-12, abs=1e-12), key
        assert got.arc_flow == pytest.approx(want.arc_flow, rel=1e-9, abs=1e-9), key
        assert got.entering_flow == pytest.approx(want.entering_flow, rel=1e-9, abs=1e-9), key
        assert got.start_prob == pytest.approx(want.start_prob, rel=1e-12, abs=1e-15), key
        assert got.origins.tolist() == want.origins.tolist()
        assert got.trips.tolist() == want.trips.tolist()
        assert got.tau_converged == want.tau_converged
    total = sum(sd.arc_flow for sd in ref.values())
    assert sol.response_flow == pytest.approx(total, rel=1e-9, abs=1e-9)


@pytest.fixture(scope="module")
def lattice():
    """The acceptance lattice: 36 nodes, 30 (stratum, destination) pairs."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return gen_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7))


class TestBatchedRouting:
    @pytest.mark.parametrize("block_rows", [None, 72])  # 72: two pairs per block
    @pytest.mark.parametrize("rate", [0.0, 2.0, 300.0])
    def test_pass_matches_per_pair_routing(self, lattice, rate, block_rows, monkeypatch):
        import mteq.network
        if block_rows is not None:
            monkeypatch.setattr(mteq.network, "MAX_BLOCK_ROWS", block_rows)
        rates = expand_scheme(SchemeSpec(family="uniform", rate=rate), lattice).rates
        flow = np.random.default_rng(8).uniform(0.0, 400.0, size=lattice.network.n_arcs)
        sol = one_pass(lattice, rates, initial_flow=flow)
        assert len(sol.sub) == 30
        assert_matches_per_pair(lattice, rates, sol)

    def test_single_od_pairs_match_oracle(self):
        inst = gen_single_od()
        net = inst.network
        rates = expand_scheme(SchemeSpec(family="uniform", rate=100.0), inst).rates
        sol = one_pass(inst, rates, inner_tol=1e-12)
        assert len(sol.sub) == len(inst.strata)
        for s_idx, s in enumerate(inst.strata):
            costs = sol.arc_time + (s.beta_p / s.beta_t) * (
                rates[s_idx] * net.length * net.is_primary)
            for (name, d_id), sd in sol.sub.items():
                if name == s.name:
                    ref = oracle.naive_tau(net, costs, net.node_index[d_id], s.beta_t)
                    assert sd.tau == pytest.approx(ref, rel=1e-12, abs=1e-12), name

    def test_one_infeasible_pair_fails_the_batch(self):
        # the 0 <-> 1 cycle has spectral radius sqrt(2e^-b * e^-b) = 1.4 at b = 0.01
        net = build_network(
            [Node(str(i), i, 0) for i in range(3)],
            [flat_arc("a01", "0", "1", 1.0), flat_arc("b01", "0", "1", 1.0),
             flat_arc("a10", "1", "0", 1.0), flat_arc("a12", "1", "2", 1.0),
             flat_arc("a20", "2", "0", 1.0)])
        calm = Stratum(name="calm", beta_t=10.0, beta_p=1.0, beta_t_out=1.0, beta_p_out=1.0)
        reckless = Stratum(name="reckless", beta_t=0.01, beta_p=1.0,
                           beta_t_out=1.0, beta_p_out=1.0)

        def instance(strata):
            return Instance(
                network=net, strata=strata,
                demand=[DemandEntry(s.name, "0", "2", 5.0) for s in strata],
                outside=OutsideOption(mode="per_od_table", ticket=0.0,
                                      times={("0", "2"): 5.0}))

        feasible = instance([calm])
        assert one_pass(feasible, zero_prices(feasible)).sub[("calm", "2")].started_demand() > 0
        both = instance([calm, reckless])
        with pytest.raises(FeasibilityError):
            one_pass(both, zero_prices(both))

    def test_network_rebuilt_from_arc_subset(self, lattice):
        net = lattice.network
        one_pass(lattice, zero_prices(lattice))
        core = extract_core(build_network(list(net.nodes),
                                          [a for a in net.arcs if not a.is_primary]))
        assert core.n_nodes < net.n_nodes
        rebuilt = Instance(network=core, strata=lattice.strata, demand=lattice.demand,
                           outside=lattice.outside)
        rates = zero_prices(rebuilt).rates
        sol = one_pass(rebuilt, rates)
        assert sol.response_flow.shape == (core.n_arcs,)
        assert_matches_per_pair(rebuilt, rates, sol)

    @pytest.mark.parametrize("rate", [0.0, 2.0, 300.0])
    def test_throughputs_match_dense_solve_of_kernel_probabilities(self, lattice, rate):
        # independent of the shared factorization: I - P^T assembled arc by
        # arc from the kernel's probabilities and solved densely
        net = lattice.network
        rates = expand_scheme(SchemeSpec(family="uniform", rate=rate), lattice).rates
        flow = np.random.default_rng(8).uniform(0.0, 400.0, size=net.n_arcs)
        sol = one_pass(lattice, rates, initial_flow=flow)
        for key, sd in sol.sub.items():
            d = net.node_index[sd.destination]
            M = np.eye(net.n_nodes)
            for a in range(net.n_arcs):
                if net.tail[a] != d:
                    M[net.head[a], net.tail[a]] -= sd.arc_probs[a]
            y = np.zeros(net.n_nodes)
            np.add.at(y, sd.origins, sd.trips * sd.start_prob)
            y[d] = 0.0
            x = np.linalg.solve(M, y)
            x[d] = 0.0
            scale = np.max(np.abs(x))
            assert np.max(np.abs(sd.entering_flow - x)) <= 1e-12 * scale, key
            assert np.max(np.abs(sd.arc_flow - x[net.tail] * sd.arc_probs)) <= 1e-12 * scale, key

    @pytest.mark.parametrize("inner_tol", [1e-9, 1e-300])  # 1e-300: every block refines
    def test_one_factorization_per_block_per_pass(self, lattice, inner_tol, monkeypatch):
        import mteq.equilibrium
        import mteq.network
        monkeypatch.setattr(mteq.network, "MAX_BLOCK_ROWS", 72)  # 2 pairs a block
        factored = []
        real = mteq.equilibrium.splu
        monkeypatch.setattr(mteq.equilibrium, "splu",
                            lambda A, *a, **kw: factored.append(A.shape) or real(A, *a, **kw))
        rates = expand_scheme(SchemeSpec(family="uniform", rate=2.0), lattice).rates
        sol = solve_equilibrium(lattice, rates, SolverOptions(
            inner_tol=inner_tol, outer_tol=1e-4, outer_max_iters=50))
        assert sol.outer_iterations > 1
        assert len(factored) == 15 * sol.outer_iterations
        assert set(factored) == {(72, 72)}
        iterations = {sd.tau_iterations for sd in sol.sub.values()}
        assert iterations == ({2} if inner_tol == 1e-300 else {1})

    @pytest.mark.parametrize("passes", [1, 50])
    def test_residuals_match_per_pair_loop(self, lattice, passes):
        net = lattice.network
        rates = expand_scheme(SchemeSpec(family="uniform", rate=2.0), lattice).rates
        sol = solve_equilibrium(lattice, rates, SolverOptions(
            inner_tol=1e-9, outer_tol=1e-4, outer_max_iters=passes))
        diag = equilibrium_residuals(lattice, rates, sol)
        strata = {s.name: (i, s) for i, s in enumerate(lattice.strata)}
        want, violation = {}, 0.0
        for (name, d_id), sd in sorted(sol.sub.items()):
            s_idx, s = strata[name]
            costs = sol.arc_time + (s.beta_p / s.beta_t) * (
                rates[s_idx] * net.length * net.is_primary)
            d = net.node_index[d_id]
            phi = choice.phi_nodes(costs + sd.tau[net.head], s.beta_t, net.out_start)
            phi[d] = 0.0
            want[(name, d_id)] = float(np.max(np.abs(phi - sd.tau)))
            violation = max(violation, float(np.max(sd.tau - shortest_costs(net, costs, d))))
        assert diag.tau_residuals == want
        assert diag.tau_bound_violation == violation
