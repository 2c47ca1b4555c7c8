import json
import math
import re
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
import mteq.equilibrium
from mteq import choice
from mteq.equilibrium import (STRATUM_RANGE, TAU_TOLERANCE, X_MIN, _arc_costs,
                              _expected_costs, _route, _StackLU, read_solution,
                              solution_from_dict, solution_to_dict, solve_equilibria)
from mteq.network import (InstanceError, NetworkError, Node, build_network, shortest_costs,
                          write_json)
from mteq.pricing import SchemeSpec
from mteq.synthgen import GridGenSpec, gen_grid, gen_single_od

import oracle
from conftest import (PACKED, dead_end_instance, flat_arc, record_factorizations,
                      singular_pair_instance, two_route_instance)

OPTS = SolverOptions(outer_tol=1e-8, outer_max_iters=3000)
MEDIUM = SolverOptions(outer_tol=1e-4, outer_max_iters=5000)


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
        res = solve_tau(net, net.free_time, 2, 1.0, init)
        assert res.converged
        assert res.iterations == 1
        assert res.tau.tolist() == [7.0, 4.0, 0.0]

    def test_two_parallel_arcs_closed_form(self, parallel_network):
        net = parallel_network
        d = net.node_index["1"]
        init = shortest_costs(net, net.free_time, d)
        res = solve_tau(net, net.free_time, d, 1.0, init)
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
            solve_tau(net, net.free_time, d, 1.0, init)

    def test_exactly_singular_system_raises(self):
        inst = singular_pair_instance()
        net = inst.network
        d = net.node_index["2"]
        with pytest.raises(FeasibilityError):
            solve_tau(net, net.free_time, d, 1.0, shortest_costs(net, net.free_time, d))
        with pytest.raises(FeasibilityError):
            one_pass(inst, zero_prices(inst))

    def test_returned_point_is_true_fixed_point(self, parallel_network):
        # the certificate holds when recomputed outside the solver
        net = parallel_network
        d = net.node_index["1"]
        init = shortest_costs(net, net.free_time, d)
        res = solve_tau(net, net.free_time, d, 1.0, init)
        from mteq.choice import phi_nodes
        z = net.free_time + res.tau[net.head]
        again = phi_nodes(z, 1.0, net.out_start)
        again[d] = 0.0
        assert np.max(np.abs(again - res.tau)) <= TAU_TOLERANCE

    def test_unmet_tolerance_flags_not_converged_after_one_retry(self, monkeypatch):
        # no double-precision residual meets 0: one refinement, then the flag
        monkeypatch.setattr(mteq.equilibrium, "TAU_TOLERANCE", 0.0)
        inst = gen_single_od()
        net = inst.network
        d = net.node_index["3"]
        init = shortest_costs(net, net.free_time, d)
        res = solve_tau(net, net.free_time, d, inst.strata[0].beta_t, init)
        assert not res.converged
        assert res.iterations == 2
        assert 0.0 < res.residual <= 1e-12

    def test_matches_oracle_where_unscaled_weights_underflow(self):
        # rate 100 on single-OD: primary-route shares are 3.5e-219 and below,
        # where the terms of an unscaled exp-space solve underflow
        inst = gen_single_od()
        net = inst.network
        rates = expand_scheme(SchemeSpec(family="uniform", rate=100.0), inst)
        d = net.node_index["3"]
        for s_idx, s in enumerate(inst.strata):
            kappa = rates[s_idx] * net.length * net.is_primary
            costs = net.free_time + (s.beta_p / s.beta_t) * kappa
            res = solve_tau(net, costs, d, s.beta_t, shortest_costs(net, costs, d))
            assert res.converged and res.iterations == 1
            ref = oracle.naive_tau(net, costs, d, s.beta_t)
            assert res.tau == pytest.approx(ref, rel=1e-12, abs=1e-12), s.name


class TestFlowsForDestination:
    def run(self, net, dest, origins, trips, outside_cost, beta=1.0, beta_out=1.0):
        init = shortest_costs(net, net.free_time, dest)
        res = solve_tau(net, net.free_time, dest, beta, init)
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
        tau0 = solve_tau(net, net.free_time, 2, 1.0, init).tau[0]
        oc = tau0 - math.log(2.0 / 3.0)
        sd = self.run(net, 2, [0], [10.0], [oc])
        assert sd.start_prob[0] == pytest.approx(0.6, rel=1e-12)
        a01 = net.arc_index["a01"]
        assert sd.arc_flow[a01] == pytest.approx(6.0, rel=1e-12)

    def test_mass_balance_at_destination(self, two_route):
        inst = two_route
        sol = solve_equilibrium(inst, zero_prices(inst), OPTS)
        sd = sol.sub[("solo", "1")]
        net = inst.network
        into_dest = sum(sd.arc_flow[a] for a in range(net.n_arcs)
                        if net.head[a] == net.node_index["1"])
        assert into_dest == pytest.approx(float(np.sum(sd.trips * sd.start_prob)), rel=1e-9)


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
        rates200 = expand_scheme(SchemeSpec(family="uniform", rate=200.0), inst)
        sol0 = solve_equilibrium(inst, rates0, OPTS)
        sol200 = solve_equilibrium(inst, rates200, OPTS)
        p02 = net.arc_index["p02"]
        assert sol200.total_flow[p02] < sol0.total_flow[p02]

        f0_ref, _ = oracle.naive_equilibrium(inst, rates0, tol=1e-8)
        f200_ref, _ = oracle.naive_equilibrium(inst, rates200, tol=1e-8)
        assert sol0.total_flow == pytest.approx(f0_ref, rel=1e-5, abs=1e-4)
        assert sol200.total_flow == pytest.approx(f200_ref, rel=1e-5, abs=1e-4)

    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf, -math.inf])
    def test_prices_must_be_finite_and_nonnegative(self, two_route, rate):
        rates = zero_prices(two_route)
        rates[0, 0] = rate
        with pytest.raises(ValueError, match="price rates"):
            solve_equilibrium(two_route, rates, OPTS)

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
        medium = SolverOptions(outer_tol=1e-4, outer_max_iters=5000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = gen_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7,
                                        trips_per_pair=160))
        prices = expand_scheme(SchemeSpec(family="uniform", rate=rate), inst)
        sol = solve_equilibrium(inst, prices, medium)
        assert sol.converged and sol.outer_iterations <= 100
        diag = equilibrium_residuals(inst, prices, sol)
        assert diag.flow_residual <= medium.outer_tol
        assert diag.max_tau_residual <= TAU_TOLERANCE

    def test_flows_do_not_depend_on_inner_tol(self, monkeypatch):
        # the expected-cost tolerance only certifies the exact solve; it never
        # truncates it, so a loose certificate leaves the flows bit for bit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = gen_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7))
        prices = expand_scheme(SchemeSpec(family="uniform", rate=2.0), inst)
        flows = []
        for tol in (0.1, TAU_TOLERANCE):
            monkeypatch.setattr(mteq.equilibrium, "TAU_TOLERANCE", tol)
            flows.append(solve_equilibrium(inst, prices, MEDIUM).total_flow)
        assert flows[0].tolist() == flows[1].tolist()

    def test_solution_round_trips_through_dict(self, two_route, lattice):
        # the dropped fields are rebuilt as the solver computes them: bit for bit
        for inst in (two_route, lattice):
            sol = solve_equilibrium(inst, rate_2(inst), MEDIUM)
            doc = json.loads(json.dumps(solution_to_dict(sol, inst.network)))
            assert_same_solution(solution_from_dict(doc, inst.network), sol)
            assert not {"arc_time", "stratum_flow"} & doc.keys()
            # per-pair fields as columns, a row per pair in key order: node and
            # arc arrays packed whole, every other array a list
            sub = doc["sub"]
            assert sub["pairs"] == [f"{s}|{d}" for s, d in sorted(sol.sub)]
            assert sorted(sub) == sorted(["pairs", "origin_counts", *PACKED, "origins", "trips",
                                          "start_prob", "tau_converged", "tau_residual",
                                          "tau_iterations"])
            assert all(type(sub[key]) is str for key in PACKED)
            assert sub["origin_counts"] == [len(sol.sub[key].origins) for key in sorted(sol.sub)]
            assert len(sub["trips"]) == sum(sub["origin_counts"])
            assert type(doc["total_flow"]) is list

    def test_solution_file_loads_back_bit_for_bit(self, tmp_path, lattice):
        # single-OD solves in the per-pair layout, the lattice at rate 2 in
        # the stratum layout; each pair's arrays load as views of its row
        for inst in (gen_single_od(), lattice):
            sol = solve_equilibrium(inst, rate_2(inst), MEDIUM)
            write_json(tmp_path / "solution.json", solution_to_dict(sol, inst.network))
            got = read_solution(tmp_path / "solution.json", inst.network)
            assert_same_solution(got, sol)
            for key in ("tau", "entering_flow", "arc_flow", "arc_probs", "origins", "trips",
                        "start_prob"):
                bases = [getattr(sd, key).base for sd in got.sub.values()]
                assert bases[0] is not None and all(b is bases[0] for b in bases), key

    @pytest.mark.parametrize("key, value, kind", [
        ("origins", -1, "node indices below 36"), ("trips", -1.0, "finite numbers >= 0"),
        ("start_prob", 1.5, "numbers in [0, 1]")])
    def test_bad_entry_of_a_column_names_its_pair(self, lattice, key, value, kind):
        # the lattice's pairs have several origins each: an entry of a column
        # of one per origin is named by the pair whose run holds it
        sol = solve_equilibrium(lattice, rate_2(lattice), MEDIUM)
        doc = solution_to_dict(sol, lattice.network)
        sub = doc["sub"]
        counts = sub["origin_counts"]
        pair = counts.index(max(counts))
        entry = sum(counts[:pair + 1]) - 1  # the pair's last origin
        assert counts[pair] > 1 and entry != pair
        sub[key][entry] = value
        with pytest.raises(InstanceError, match=re.escape(
                f"solution.sub.{sub['pairs'][pair]}.{key} must be {kind}, got {value!r}")):
            solution_from_dict(doc, lattice.network)


class TestDiagnostics:
    def test_converged_solution_residuals(self, two_route):
        inst = two_route
        sol = solve_equilibrium(inst, zero_prices(inst), OPTS)
        diag = equilibrium_residuals(inst, zero_prices(inst), sol)
        assert diag.flow_residual <= OPTS.outer_tol
        assert diag.max_tau_residual <= TAU_TOLERANCE
        assert diag.phi_gradient_residual <= OPTS.outer_tol * (1 + 1e-9)
        assert diag.tau_bound_violation <= 1e-9

    def test_truncated_run_reports_nonzero_residual(self):
        inst = gen_single_od()
        loose = SolverOptions(outer_tol=1e-12, outer_max_iters=1)
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

    def test_batched_fd_checks_match_the_per_arc_loop(self, lattice):
        single_od = gen_single_od()
        for inst, rate, arcs in ((single_od, 25.0, range(single_od.network.n_arcs)),
                                 (lattice, 2.0, range(0, lattice.network.n_arcs, 7))):
            prices = expand_scheme(SchemeSpec(family="uniform", rate=rate), inst)
            sol = solve_equilibrium(inst, prices, MEDIUM)
            got = equilibrium_residuals(inst, prices, sol, fd_arcs=arcs).fd_checks
            want = fd_loop_reference(inst, prices, sol, arcs)
            assert list(got) == list(want)
            for key, (fd, v) in want.items():
                assert got[key][0] == pytest.approx(fd, rel=1e-12, abs=0.0), key
                assert got[key][1] == v

    def test_unbounded_fd_row_is_infeasible(self):
        # lowering arc s01 by 1 h makes the cycle s01, s10 cost -0.85 h
        inst = gen_single_od()
        sol = solve_equilibrium(inst, zero_prices(inst), OPTS)
        with pytest.raises(FeasibilityError):
            fd_loop_reference(inst, zero_prices(inst), sol, [0], fd_step=1.0)
        with pytest.raises(FeasibilityError):
            equilibrium_residuals(inst, zero_prices(inst), sol, fd_arcs=[0], fd_step=1.0)

    def test_uniqueness_from_different_starts(self):
        inst = gen_single_od()
        rates = expand_scheme(SchemeSpec(family="uniform", rate=30.0), inst)
        a = solve_equilibrium(inst, rates, OPTS)
        rng = np.random.default_rng(0)
        start = rng.uniform(0.0, 500.0, size=inst.network.n_arcs)
        b = solve_equilibrium(inst, rates, OPTS, initial_flow=start)
        assert a.converged and b.converged
        assert np.max(np.abs(a.total_flow - b.total_flow)) <= 10 * OPTS.outer_tol


def fd_loop_reference(inst, prices, sol, fd_arcs, fd_step=1e-5):
    """equilibrium_residuals' finite-difference checks by one solve_tau per
    (arc, sign, pair): at TAU_TOLERANCE, their tolerance for an fd_step of at
    least 1e-7."""
    net = inst.network
    out = {}
    for arc_pos in fd_arcs:
        for (s_name, d_id), sd in sorted(sol.sub.items()):
            s_idx = inst.stratum_names.index(s_name)
            weighted = np.zeros(net.n_nodes)
            np.add.at(weighted, sd.origins, sd.trips * sd.start_prob)
            est = 0.0
            for sign in (+1.0, -1.0):
                tp = sol.arc_time.copy()
                tp[arc_pos] += sign * fd_step
                costs = _arc_costs(inst.strata, net, prices, tp)[s_idx]
                tr = solve_tau(net, costs, net.node_index[d_id], inst.strata[s_idx].beta_t,
                               sd.tau)
                est += sign * float(weighted @ tr.tau)
            out[(net.arcs[arc_pos].id, s_name, d_id)] = (est / (2.0 * fd_step),
                                                         float(sd.arc_flow[arc_pos]))
    return out


def one_pass(inst, rates, initial_flow=None):
    """The routing pass of solve_equilibrium at one flow iterate."""
    opts = SolverOptions(outer_tol=1e-12, outer_max_iters=1)
    return solve_equilibrium(inst, rates, opts, initial_flow=initial_flow)


def per_pair_reference(inst, rates, arc_time):
    """Every (stratum, destination) routed on its own: solve_tau from the
    Dijkstra bound, then flows_for_destination."""
    net = inst.network
    oc = outside_costs(inst)
    out = {}
    for s_idx, s in enumerate(inst.strata):
        costs = arc_time + (s.beta_p / s.beta_t) * (rates[s_idx] * net.length * net.is_primary)
        for d, (origins, trips) in inst.demand_by_destination(s.name).items():
            tr = solve_tau(net, costs, d, s.beta_t, shortest_costs(net, costs, d))
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


# uniform 0 and 2 take the stratum path for every stratum, uniform 300 the
# per-pair path for every stratum (beta_t * max tau 376-737 at zero flow,
# above STRATUM_RANGE); the per-stratum schemes put two strata below the
# range limit (19-24) and one above it (376 or 737) in the same pass, the
# one above last and first in pair order
LATTICE_SCHEMES = [SchemeSpec(family="uniform", rate=0.0),
                   SchemeSpec(family="uniform", rate=2.0),
                   SchemeSpec(family="uniform", rate=300.0),
                   SchemeSpec(family="per_stratum",
                              stratum_rates=(("high", 0.0), ("mid", 2.0), ("low", 300.0))),
                   SchemeSpec(family="per_stratum",
                              stratum_rates=(("high", 300.0), ("mid", 0.0), ("low", 2.0)))]


def scheme_id(scheme) -> str:
    return str(scheme.rate) if scheme.family == "uniform" else scheme.scheme_id


def record_solves(monkeypatch) -> list:
    """The shape of every right-hand side the solver's LUs solve from now on."""
    import mteq.equilibrium
    shapes, real = [], mteq.equilibrium.splu

    class Recorded:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs, trans="N"):
            shapes.append(np.shape(rhs))
            return self.lu.solve(rhs, trans=trans)

    monkeypatch.setattr(mteq.equilibrium, "splu", lambda A, **kwargs: Recorded(real(A, **kwargs)))
    return shapes


def record_bound_calls(monkeypatch) -> list:
    """The destinations of every shortest-cost call the solver makes from now on."""
    import mteq.equilibrium
    calls, real = [], mteq.equilibrium.shortest_costs

    def shortest_costs(network, arc_costs, destination, rows=None):
        calls.append(np.atleast_1d(destination).tolist())
        return real(network, arc_costs, destination, rows=rows)

    monkeypatch.setattr(mteq.equilibrium, "shortest_costs", shortest_costs)
    return calls


def with_destinations(inst, counts):
    """``inst`` with each stratum's demand cut to its first ``counts[i]``
    destinations in node order."""
    index = inst.network.node_index
    keep = {s.name: sorted({e.destination for e in inst.demand if e.stratum == s.name},
                           key=index.get)[:c] for s, c in zip(inst.strata, counts)}
    return Instance(network=inst.network, strata=inst.strata, outside=inst.outside,
                    demand=[e for e in inst.demand if e.destination in keep[e.stratum]])


def two_destination_instance(arcs, beta_t, outside_time=5.0):
    """One stratum on nodes 0 and 1 with demand both ways: one stratum,
    two destinations."""
    net = build_network([Node("0", 0, 0), Node("1", 1, 0)], arcs)
    s = Stratum(name="s", beta_t=beta_t, beta_p=1.0, beta_t_out=1.0, beta_p_out=1.0)
    return Instance(
        network=net, strata=[s],
        demand=[DemandEntry("s", "0", "1", 5.0), DemandEntry("s", "1", "0", 3.0)],
        outside=OutsideOption(mode="per_od_table", ticket=0.0,
                              times={("0", "1"): outside_time, ("1", "0"): outside_time}))


class TestBatchedRouting:
    @pytest.mark.parametrize("block_rows", [None, 72])  # 72: two pairs (strata) per block
    @pytest.mark.parametrize("scheme", LATTICE_SCHEMES, ids=scheme_id)
    def test_pass_matches_per_pair_routing(self, lattice, scheme, block_rows, monkeypatch):
        import mteq.network
        if block_rows is not None:
            monkeypatch.setattr(mteq.network, "MAX_BLOCK_ROWS", block_rows)
        rates = expand_scheme(scheme, lattice)
        flow = np.random.default_rng(8).uniform(0.0, 400.0, size=lattice.network.n_arcs)
        sol = one_pass(lattice, rates, initial_flow=flow)
        assert len(sol.sub) == 30
        assert_matches_per_pair(lattice, rates, sol)

    @pytest.mark.parametrize("scheme", LATTICE_SCHEMES[3:], ids=scheme_id)
    def test_mixed_pass_routes_each_stratum_by_its_path(self, lattice, scheme, monkeypatch):
        factored = record_factorizations(monkeypatch)
        solve_equilibrium(lattice, expand_scheme(scheme, lattice), SolverOptions(
            outer_tol=1e-12, outer_max_iters=2))
        # the first pass tries the three strata stacked (3 x 36 unknowns) and
        # routes the one out of range per pair (10 x 36); from the second pass
        # on only the other two are stacked (2 x 36)
        assert factored == [((108, 108), "ok"), ((360, 360), "ok"),
                            ((72, 72), "ok"), ((360, 360), "ok")]

    def test_pairs_of_both_paths_come_back_in_pair_order(self, monkeypatch):
        # pair 0 (stratum lone, one destination) takes the per-pair path after
        # pairs 1 and 2 (stratum s) took the stratum path; the outside option
        # binds, so every origin has its own start probability
        net = build_network([Node("0", 0, 0), Node("1", 1, 0)],
                            [flat_arc("a01", "0", "1", 1.0), flat_arc("b01", "0", "1", 1.5),
                             flat_arc("a10", "1", "0", 1.0)])
        lone, s = (Stratum(name=name, beta_t=beta_t, beta_p=1.0, beta_t_out=1.0,
                           beta_p_out=1.0) for name, beta_t in (("lone", 2.0), ("s", 1.0)))
        inst = Instance(
            network=net, strata=[lone, s],
            demand=[DemandEntry("lone", "0", "1", 5.0), DemandEntry("s", "0", "1", 4.0),
                    DemandEntry("s", "1", "0", 3.0)],
            outside=OutsideOption(mode="per_od_table", ticket=0.0,
                                  times={("0", "1"): 2.0, ("1", "0"): 3.0}))
        factored = record_factorizations(monkeypatch)
        rates = zero_prices(inst)
        sol = one_pass(inst, rates)
        assert factored == [((2, 2), "ok"), ((2, 2), "ok")]  # stratum s, then pair lone|1
        assert len({float(sd.start_prob[0]) for sd in sol.sub.values()}) == 3
        assert_matches_per_pair(inst, rates, sol)

    def test_stratum_matrix_with_spectral_radius_above_one(self, monkeypatch):
        # W_s = [[0, 2w], [w, 0]], w = e^-0.01, has spectral radius 1.40 but
        # A_s = I - W_s is nonsingular; each W_d, its row d zeroed, is nilpotent
        inst = two_destination_instance(
            [flat_arc("a01", "0", "1", 1.0), flat_arc("b01", "0", "1", 1.0),
             flat_arc("a10", "1", "0", 1.0)], beta_t=0.01)
        assert max(abs(np.linalg.eigvals(np.array([[0.0, 2.0], [1.0, 0.0]])
                                         * math.exp(-0.01)))) > 1.0
        factored = record_factorizations(monkeypatch)
        rates = zero_prices(inst)
        sol = one_pass(inst, rates)
        assert factored == [((2, 2), "ok")]  # one stratum LU, no fallback
        assert_matches_per_pair(inst, rates, sol)

    def test_singular_stratum_matrix_falls_back(self, monkeypatch):
        # four arcs each way at cost ln 4 and beta_t = 1: W_s = [[0, 1], [1, 0]]
        # exactly, so A_s is singular while each W_d is nilpotent
        arcs = [flat_arc(f"{a}{t}{h}", t, h, math.log(4.0))
                for a in "abcd" for t, h in (("0", "1"), ("1", "0"))]
        inst = two_destination_instance(arcs, beta_t=1.0)
        factored = record_factorizations(monkeypatch)
        rates = zero_prices(inst)
        sol = one_pass(inst, rates)
        assert factored == [((2, 2), "singular"), ((4, 4), "ok")]  # then both pairs per pair
        assert_matches_per_pair(inst, rates, sol)

    def test_stratum_in_range_by_its_answer_takes_the_stratum_path(self, monkeypatch):
        # four parallel arcs each way at cost 356 and beta_t = 1: the shortest
        # cost puts the stratum out of range (356 > 354.9), but its expected
        # cost, 356 - ln 4 = 354.6, is in range
        arcs = [flat_arc(f"{a}{t}{h}", t, h, 356.0)
                for a in "abcd" for t, h in (("0", "1"), ("1", "0"))]
        inst = two_destination_instance(arcs, beta_t=1.0, outside_time=1000.0)
        net = inst.network
        factored = record_factorizations(monkeypatch)
        rates = zero_prices(inst)
        sol = one_pass(inst, rates)
        assert factored == [((2, 2), "ok")]  # one stratum LU, no fallback
        assert shortest_costs(net, net.free_time, np.array([0, 1])).max() > STRATUM_RANGE
        assert max(sd.tau.max() for sd in sol.sub.values()) <= STRATUM_RANGE
        assert min(sd.start_prob.min() for sd in sol.sub.values()) > 0.99
        assert_matches_per_pair(inst, rates, sol)

    @pytest.mark.parametrize("load", [60.0, 100.0])  # X below X_MIN, and X underflowing to 0
    def test_congested_pairs_leave_range_and_are_solved_again(self, load, monkeypatch):
        # every arc at `load` times its capacity: the free-flow bounds are
        # hours below the expected costs, so X = exp(-beta_t * (tau - bound))
        # leaves range and each pair is solved again at the pass's shortest costs
        inst = gen_single_od()
        net = inst.network
        rates = expand_scheme(SchemeSpec(family="uniform", rate=100.0), inst)
        calls = record_bound_calls(monkeypatch)
        factored = record_factorizations(monkeypatch)
        sol = one_pass(inst, rates, initial_flow=load * net.capacity)
        assert calls == [[3, 3, 3], [3, 3, 3]]  # free-flow bounds, then the pass's
        assert factored == [((12, 12), "ok")] * 2
        for s_idx, s in enumerate(inst.strata):  # X under the free-flow bounds
            free = shortest_costs(net, net.free_time + (s.beta_p / s.beta_t) * (
                rates[s_idx] * net.length * net.is_primary), 3)
            assert math.exp(-s.beta_t * np.max(sol.sub[(s.name, "3")].tau - free)) < X_MIN
        assert_matches_per_pair(inst, rates, sol)

    def test_dead_end_is_named_before_any_block_is_factored(self, monkeypatch):
        # node 2 has no outgoing arc, so it reaches neither destination
        net = build_network([Node(str(i), i, 0) for i in range(3)],
                            [flat_arc("a01", "0", "1", 1.0), flat_arc("a10", "1", "0", 1.0),
                             flat_arc("a02", "0", "2", 1.0)])
        s = Stratum(name="s", beta_t=1.0, beta_p=1.0, beta_t_out=1.0, beta_p_out=1.0)
        inst = Instance(network=net, strata=[s],
                        demand=[DemandEntry("s", "0", "1", 5.0), DemandEntry("s", "1", "0", 3.0)],
                        outside=OutsideOption(mode="per_od_table", ticket=0.0,
                                              times={("0", "1"): 5.0, ("1", "0"): 5.0}))
        factored = record_factorizations(monkeypatch)
        with pytest.raises(NetworkError, match="node '2' has no outgoing arc"):
            one_pass(inst, zero_prices(inst))
        assert factored == []

    @pytest.mark.parametrize("mode", ["per_od_table", "free_time_multiplier"])
    def test_dead_end_destination_is_refused(self, mode, monkeypatch):
        # the destination, last in storage order, has no outgoing arc: every
        # node reaches it, so only the arc count can refuse it
        inst = dead_end_instance(mode)
        calls = record_bound_calls(monkeypatch)
        with pytest.raises(NetworkError, match="node '2' has no outgoing arc"):
            solve_equilibrium(inst, zero_prices(inst), MEDIUM)
        assert calls == []

    def test_dead_end_inside_the_storage_order_is_refused(self):
        # node 1 has no outgoing arc and node 2 does: the choice kernel's
        # segment of node 1 would be empty, and node 2's first arc read in
        # its place; the solve is refused instead
        net = build_network([Node(str(i), i, 0) for i in range(3)],
                            [flat_arc("a01", "0", "1", 1.0), flat_arc("a02", "0", "2", 1.0),
                             flat_arc("a20", "2", "0", 1.0), flat_arc("a21", "2", "1", 1.0)])
        assert net.out_degree.tolist() == [2, 0, 2]
        s = Stratum(name="s", beta_t=1.0, beta_p=1.0, beta_t_out=1.0, beta_p_out=1.0)
        inst = Instance(network=net, strata=[s],
                        demand=[DemandEntry("s", "0", "1", 5.0), DemandEntry("s", "2", "1", 3.0)],
                        outside=OutsideOption(mode="per_od_table", ticket=0.0,
                                              times={("0", "1"): 5.0, ("2", "1"): 5.0}))
        with pytest.raises(NetworkError, match="node '1' has no outgoing arc"):
            solve_equilibrium(inst, zero_prices(inst), MEDIUM)

    def test_one_shortest_cost_call_per_solve(self, lattice, monkeypatch):
        # a single-destination stratum takes the per-pair layout, scaled by
        # free-flow bounds from one call; the lattice at rate 2 needs none
        inst = gen_single_od()
        calls = record_bound_calls(monkeypatch)
        for rate in (0.0, 100.0, 400.0):
            sol = solve_equilibrium(inst, expand_scheme(
                SchemeSpec(family="uniform", rate=rate), inst), MEDIUM)
            assert sol.converged and sol.outer_iterations > 1
        assert calls == [[3, 3, 3]] * 3
        calls.clear()
        sol = solve_equilibrium(lattice, rate_2(lattice), MEDIUM)
        assert sol.converged and sol.outer_iterations > 3
        assert calls == []

    def test_stratum_path_matches_oracle(self, lattice, monkeypatch):
        net = lattice.network
        factored = record_factorizations(monkeypatch)
        rates = rate_2(lattice)
        sol = one_pass(lattice, rates)
        assert factored == [((108, 108), "ok")]  # every pair by the stratum path
        s_idx, s = 2, lattice.strata[2]
        costs = sol.arc_time + (s.beta_p / s.beta_t) * (rates[s_idx] * net.primary_length)
        d_id, sd = next((d, sd) for (name, d), sd in sorted(sol.sub.items()) if name == s.name)
        ref = oracle.naive_tau(net, costs, net.node_index[d_id], s.beta_t)
        assert sd.tau == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("counts", [(10, 10, 10), (10, 4, 2)])
    def test_stacked_strata_share_right_hand_side_columns(self, lattice, counts, monkeypatch):
        # the j-th destination of every stacked stratum takes column j, so
        # each solve has as many columns as the largest stratum has destinations
        inst = with_destinations(lattice, counts)
        factored = record_factorizations(monkeypatch)
        solves = record_solves(monkeypatch)
        rates = rate_2(inst)
        sol = one_pass(inst, rates)
        assert factored == [((108, 108), "ok")] and set(solves) == {(108, 10)}
        assert_matches_per_pair(inst, rates, sol)

    def test_single_od_pairs_match_oracle(self):
        inst = gen_single_od()
        net = inst.network
        rates = expand_scheme(SchemeSpec(family="uniform", rate=100.0), inst)
        sol = one_pass(inst, rates)
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
        sd = one_pass(feasible, zero_prices(feasible)).sub[("calm", "2")]
        assert float(np.sum(sd.trips * sd.start_prob)) > 0
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
        rates = zero_prices(rebuilt)
        sol = one_pass(rebuilt, rates)
        assert sol.response_flow.shape == (core.n_arcs,)
        assert_matches_per_pair(rebuilt, rates, sol)

    @pytest.mark.parametrize("scheme", LATTICE_SCHEMES, ids=scheme_id)
    def test_throughputs_match_dense_solve_of_kernel_probabilities(self, lattice, scheme):
        # independent of the shared factorization: I - P^T assembled arc by
        # arc from the kernel's probabilities and solved densely
        net = lattice.network
        rates = expand_scheme(scheme, lattice)
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

    @pytest.mark.parametrize("tolerance", [1e-9, 1e-300])  # 1e-300: every block refines
    def test_one_factorization_per_block_per_pass(self, lattice, tolerance, monkeypatch):
        import mteq.network
        monkeypatch.setattr(mteq.network, "MAX_BLOCK_ROWS", 108)  # 3 pairs (strata) a block
        monkeypatch.setattr(mteq.equilibrium, "TAU_TOLERANCE", tolerance)
        factored = record_factorizations(monkeypatch)
        rates = expand_scheme(SchemeSpec(family="uniform", rate=2.0), lattice)
        sol = solve_equilibrium(lattice, rates, SolverOptions(outer_tol=1e-4, outer_max_iters=50))
        assert sol.outer_iterations > 1
        per_pass = [((108, 108), "ok")]  # the three strata, all in range, in one LU
        if tolerance == 1e-300:
            # no residual reaches 1e-300, so after its refinement every stratum
            # falls back in the same pass: 30 pairs, 3 a block
            per_pass += [((108, 108), "ok")] * 10
        assert factored == per_pass * sol.outer_iterations
        iterations = {sd.tau_iterations for sd in sol.sub.values()}
        assert iterations == ({2} if tolerance == 1e-300 else {1})
        assert sol.inner_converged == (tolerance == 1e-9)

    @pytest.mark.parametrize("passes", [1, 50])
    def test_residuals_match_per_pair_loop(self, lattice, passes):
        net = lattice.network
        rates = expand_scheme(SchemeSpec(family="uniform", rate=2.0), lattice)
        sol = solve_equilibrium(lattice, rates, SolverOptions(
            outer_tol=1e-4, outer_max_iters=passes))
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


class TestRouteSafetyPaths:
    """_route's refinement and its two SolverError messages, with the
    routing solve given as a closure."""

    @staticmethod
    def setup_route(probs):
        # 0 <-> 1, each with an arc to 2 (the destination) and a way back
        net = build_network([Node(str(i), i, 0) for i in range(3)],
                            [flat_arc(f"a{t}{h}", t, h, 1.0)
                             for t, h in ("01", "02", "10", "12", "20")])
        probs = np.array([[probs[a.id] for a in net.arcs]])
        live = np.where(net.tail == 2, 0.0, probs[0])
        M = np.eye(3)
        np.add.at(M, (net.head, net.tail), -live)  # I - P^T, row 2 of P zero

        def route(solve):
            return _route(net, probs, np.zeros((1, 3)), np.array([2]), np.array([0]),
                          np.array([0]), np.array([5.0]), np.array([np.inf]),
                          np.array([1.0]), solve)

        return route, lambda rhs: np.linalg.solve(M, rhs[0])[None]

    def test_inexact_solve_is_refined_once(self):
        route, exact = self.setup_route({"a01": 0.5, "a02": 0.5, "a10": 0.25, "a12": 0.75,
                                         "a20": 1.0})
        calls = []

        def solve(rhs):  # the first solve is off by 1e-7
            calls.append(rhs)
            return exact(rhs) + (1e-7 if len(calls) == 1 else 0.0)

        _p, x, _v, failed, error = route(solve)
        assert len(calls) == 2
        assert not failed.any() and error is None
        want = exact(np.array([[5.0, 0.0, 0.0]]))
        want[0, 2] = 0.0
        assert np.max(np.abs(x - want)) <= 1e-14 * 5.0

    def test_non_finite_solve_fails_as_ill_conditioned(self):
        route, _exact = self.setup_route({"a01": 0.5, "a02": 0.5, "a10": 0.25, "a12": 0.75,
                                          "a20": 1.0})
        _p, _x, _v, failed, error = route(lambda rhs: np.full(rhs.shape, np.nan))
        assert failed.tolist() == [True]
        assert error.startswith("routing system ill-conditioned for destination '2'")

    def test_superstochastic_probabilities_fail_as_negative_throughput(self):
        # rows of 1.5: the 0 <-> 1 cycle alone has weight 1.2 each way
        route, exact = self.setup_route({"a01": 1.2, "a02": 0.3, "a10": 1.2, "a12": 0.3,
                                         "a20": 1.5})
        _p, x, _v, failed, error = route(exact)
        assert failed.tolist() == [True]
        assert error == ("negative node throughput for destination '2'; routing matrix "
                         "not substochastic")


def complete_digraph_instance():
    """Four nodes, every ordered pair an arc of 0.1 km at 1 km/h, constant
    time; one stratum (beta_t 1) with destinations 2 and 3.  Each W_d, its
    row zeroed, has spectral radius 2 exp(-0.1) > 1: no equilibrium."""
    nodes = [Node(str(i), float(i), 0.0) for i in range(4)]
    arcs = [flat_arc(f"a{t}{h}", str(t), str(h), 0.1)
            for t in range(4) for h in range(4) if t != h]
    s = Stratum(name="s", beta_t=1.0, beta_p=1.0, beta_t_out=1.0, beta_p_out=1.0)
    return Instance(network=build_network(nodes, arcs), strata=[s],
                    demand=[DemandEntry("s", "0", "2", 5.0), DemandEntry("s", "1", "3", 4.0)],
                    outside=OutsideOption(mode="per_od_table", ticket=0.0,
                                          times={("0", "2"): 5.0, ("1", "3"): 5.0}))


class TestUnusableStratumPairs:
    def test_stratum_block_marks_pairs_unusable(self):
        inst = complete_digraph_instance()
        net = inst.network
        costs = np.tile(net.free_time, (2, 1))
        tau, _residual, _probs, _log_denom, solves, low, _through = _expected_costs(
            net, costs, np.array([2, 3]), np.ones((2, 1)), 0.0, 1e-9,
            np.array([0, 0]), np.exp(-net.free_time)[None])
        assert (low >= X_MIN).tolist() == [False, False]
        assert tau.tolist() == np.zeros((2, 4)).tolist()  # X = 1 where unusable
        assert solves.tolist() == [1, 1]  # an unusable pair is not refined

    def test_unusable_pairs_fall_back_and_fail_per_pair(self, monkeypatch):
        inst = complete_digraph_instance()
        factored = record_factorizations(monkeypatch)
        with pytest.raises(FeasibilityError, match="unbounded"):
            solve_equilibrium(inst, zero_prices(inst), OPTS)
        # the stratum, per pair at free-flow bounds, then per pair at the pass's
        assert factored == [((4, 4), "ok"), ((8, 8), "ok"), ((8, 8), "ok")]


def dense_chain(net, weights, d):
    """I - W_d as a dense matrix: W_d[tail, head] sums ``weights`` over
    parallel arcs, and the row of ``d`` is zero."""
    W = np.zeros((net.n_nodes, net.n_nodes))
    np.add.at(W, (net.tail, net.head), np.where(net.tail == d, 0.0, weights))
    return np.eye(net.n_nodes) - W


def assert_close(got, want):
    """``got`` within 1e-12 of ``want``, relative to its largest entry."""
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestStackLU:
    """Each per-pair operation of _StackLU, in both block layouts, against
    dense solves of I - W_d and of its transpose, and against the block's
    own stack, bit for bit."""

    @pytest.mark.parametrize("block", [None, np.array([0, 0, 0, 1, 2, 2])],
                             ids=["per_pair", "stratum"])
    def test_operations_match_dense_solves(self, lattice, block):
        # the stratum layout stacks blocks of 3, 1 and 2 destinations, which
        # share right-hand-side columns; every node's weights sum to at most
        # 0.9, so every I - W_b and I - W_d is regular
        net, dest = lattice.network, np.array([5, 17, 30, 8, 0, 35])
        rng = np.random.default_rng(5)
        owner = np.arange(len(dest)) if block is None else block
        weights = (rng.uniform(0.1, 0.9, (owner.max() + 1, net.n_arcs))
                   / net.out_degree[net.tail])
        stack = _StackLU(net, weights, dest, block)
        b = rng.standard_normal((2, len(dest), net.n_nodes))
        X = rng.uniform(0.5, 1.5, (len(dest), net.n_nodes))
        reach, solved, transposed = stack.reach(), stack.solve(b), stack.solve_transposed(b[0])
        residual = stack.residual(X)
        for p, d in enumerate(dest):
            A, e = dense_chain(net, weights[owner[p]], d), np.eye(net.n_nodes)[d]
            assert_close(reach[p], np.linalg.solve(A, e))
            for j in range(2):
                assert_close(solved[j, p], np.linalg.solve(A, b[j, p]))
            assert_close(transposed[p], np.linalg.solve(A.T, b[0, p]))
            assert_close(residual[p], e - A @ X[p])

    def test_refined_stratum_stack_matches_the_per_pair_layout(self, lattice):
        # at tolerance 1e-300 no residual passes, so both layouts refine
        # once; the stack of three strata (10, 4 and 2 destinations) still
        # gives each pair the tau and routing solve of its own scaled block
        inst = with_destinations(lattice, (10, 4, 2))
        net = inst.network
        dest = np.concatenate([list(inst.demand_by_destination(s.name)) for s in inst.strata])
        block = np.repeat(np.arange(3), (10, 4, 2))
        beta = np.array([[s.beta_t] for s in inst.strata])
        costs = _arc_costs(inst.strata, net, rate_2(inst), net.free_time)
        stacked = _expected_costs(net, costs[block], dest, beta[block], 0.0, 1e-300, block,
                                  np.exp(-beta * costs))
        per_pair = _expected_costs(net, costs[block], dest, beta[block],
                                   shortest_costs(net, costs, dest, rows=block), 1e-300)
        y = np.random.default_rng(6).uniform(0.0, 100.0, (len(dest), net.n_nodes))
        for got in (stacked, per_pair):
            tau, _residual, _probs, _log_denom, solves, low, _through = got
            assert solves.tolist() == [2] * len(dest) and (low >= X_MIN).all()
        assert stacked[0] == pytest.approx(per_pair[0], rel=1e-12, abs=1e-12)
        assert_close(stacked[6](y), per_pair[6](y))

    @staticmethod
    def operations(stack, b, X):
        """Every per-pair operation of ``stack``, on right-hand sides ``b``
        (2, k, n) and iterates ``X`` (k, n)."""
        return stack.reach(), stack.solve(b), stack.solve_transposed(b[0]), stack.residual(X)

    @pytest.mark.parametrize("layout", ["per_pair", "stratum"])
    def test_every_block_gets_the_bits_of_its_own_stack(self, lattice, layout):
        # per pair: the single-OD pairs of three strata at four rates, scaled
        # by their shortest costs as the solver scales them (weights of
        # exactly 1 tie the diagonal), where one COLAMD order of the whole
        # stack rounds each pair by its stack-mates; stratum: lattice blocks
        # of 2 and 10 destinations, the narrow one solved in a stack ten
        # right-hand-side columns wide
        if layout == "per_pair":
            inst = gen_single_od()
            net = inst.network
            beta = np.array([[s.beta_t] for s in inst.strata] * 4)
            costs = np.concatenate([_arc_costs(inst.strata, net, expand_scheme(
                SchemeSpec(family="uniform", rate=rate), inst), net.free_time)
                for rate in (0.0, 25.0, 100.0, 400.0)])
            dest = np.full(len(costs), 3)
            bound = shortest_costs(net, costs, dest, rows=np.arange(len(costs)))
            weights = np.exp(-beta * (costs + bound[:, net.head] - bound[:, net.tail]))
            owner, block = np.arange(len(dest)), None
        else:
            inst = with_destinations(lattice, (10, 4, 2))
            net = inst.network
            rows = np.array([2, 0])  # low (2 destinations), then high (10)
            dest = np.concatenate([list(inst.demand_by_destination(inst.strata[r].name))
                                   for r in rows])
            beta = np.array([[inst.strata[r].beta_t] for r in rows])
            weights = np.exp(-beta * _arc_costs(inst.strata, net, rate_2(inst),
                                                net.free_time)[rows])
            owner = block = np.repeat([0, 1], [2, 10])
        rng = np.random.default_rng(7)
        b = rng.standard_normal((2, len(dest), net.n_nodes))
        X = rng.uniform(0.5, 1.5, (len(dest), net.n_nodes))
        stacked = self.operations(_StackLU(net, weights, dest, block), b, X)
        for j in np.unique(owner):
            pairs = np.flatnonzero(owner == j)
            alone = None if block is None else np.zeros(len(pairs), dtype=np.int64)
            own = self.operations(_StackLU(net, weights[[j]], dest[pairs], alone),
                                  b[:, pairs], X[pairs])
            for got, want in zip(stacked, own):
                assert got[..., pairs, :].tobytes() == want.tobytes(), (j, layout)


def lattice_stack(lattice, layout):
    """Every pair of the lattice's first stratum at rate 25 and free flow,
    as _expected_costs' arguments after its tolerance: one block for all of them
    (the stratum layout) or one block each, scaled by shortest costs.  Its
    fixed-point residuals take three levels in either layout."""
    net = lattice.network
    rates = expand_scheme(SchemeSpec(family="uniform", rate=25.0), lattice)
    costs = _arc_costs(lattice.strata, net, rates, net.free_time)[:1]
    dest = np.array(list(lattice.demand_by_destination(lattice.strata[0].name)))
    beta, rows = lattice.strata[0].beta_t, np.zeros(len(dest), dtype=np.int64)
    if layout == "stratum":
        return net, costs[rows], dest, beta, 0.0, rows, np.exp(-beta * costs)
    return net, costs[rows], dest, beta, shortest_costs(net, costs, dest, rows=rows)


class TestPerPairRefinement:
    """A refinement touches only the pairs (or routing columns) that need
    it, so that no pair's bits depend on its stack-mates."""

    @pytest.mark.parametrize("layout", ["per_pair", "stratum"])
    def test_a_stack_mate_keeps_its_unrefined_bits(self, lattice, layout):
        args = lattice_stack(lattice, layout)
        y = np.random.default_rng(3).uniform(0.0, 100.0, (len(args[2]), lattice.network.n_nodes))
        nobody = _expected_costs(*args[:5], np.inf, *args[5:])
        everybody = _expected_costs(*args[:5], -1.0, *args[5:])
        assert nobody[4].tolist() == [1] * len(y) and everybody[4].tolist() == [2] * len(y)
        levels = np.unique(nobody[1])
        assert len(levels) > 1
        tol = float(levels[-2])  # the pairs of the largest residual refine, the others not
        got = _expected_costs(*args[:5], tol, *args[5:])
        refined = got[4] == 2
        assert refined.tolist() == (nobody[1] > tol).tolist() and 0 < refined.sum() < len(y)
        for run, pairs in ((nobody, ~refined), (everybody, refined)):
            for a, b in zip(got[:6] + (got[6](y),), run[:6] + (run[6](y),)):
                assert a[pairs].tobytes() == b[pairs].tobytes()

    @pytest.mark.parametrize("layout", ["per_pair", "stratum"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_an_inexact_first_solve_is_refined(self, lattice, layout, sign, monkeypatch):
        # the first X is off by up to 1e-6 relative, so tau is off by about
        # 1e-8 h and its fixed-point residual is above 1e-9 h: the
        # refinement (I - W_d)^-1 (e_d - (I - W_d) X) must bring it back
        args = lattice_stack(lattice, layout)
        exact = _expected_costs(*args[:5], np.inf, *args[5:])
        real = _StackLU.reach
        noise = 1.0 + sign * 1e-6 * np.random.default_rng(4).uniform(
            0.0, 1.0, (len(args[2]), lattice.network.n_nodes))
        monkeypatch.setattr(_StackLU, "reach", lambda stack: real(stack) * noise)
        tau, residual, _probs, _log_denom, solves, _low, _through = _expected_costs(
            *args[:5], 1e-9, *args[5:])
        assert solves.tolist() == [2] * len(args[2])
        assert (residual <= 1e-9).all()
        assert tau == pytest.approx(exact[0], rel=1e-12, abs=1e-12)

    def test_a_routing_column_mate_keeps_its_bits(self):
        # two columns of one network; the first solve of column 0 is off by
        # 1e-7, column 1's is exact: only column 0 is solved again
        net = build_network([Node(str(i), i, 0) for i in range(3)],
                            [flat_arc(f"a{t}{h}", t, h, 1.0)
                             for t, h in ("01", "02", "10", "12", "20")])
        probs = np.array([[0.5, 0.5, 0.25, 0.75, 1.0], [0.3, 0.7, 0.6, 0.4, 1.0]])
        dense = []
        for row in probs:
            M = np.eye(3)
            np.add.at(M, (net.head, net.tail), -np.where(net.tail == 2, 0.0, row))
            dense.append(M)

        def route(columns, off=0.0):
            calls = []

            def solve(rhs):  # exact but for column 0's first solve, off by ``off``
                calls.append(rhs)
                x = np.array([np.linalg.solve(dense[c], b) for c, b in zip(columns, rhs)])
                x[np.array(columns) == 0] += off if len(calls) == 1 else 0.0
                return x

            k = len(columns)
            out = _route(net, probs[columns], np.zeros((k, 3)), np.full(k, 2), np.arange(k),
                         np.zeros(k, dtype=np.int64), np.array([5.0, 3.0])[columns],
                         np.full(k, np.inf), np.ones(k), solve)
            return (*out, len(calls))

        _p, x, v, failed, error, solves = route([0, 1], off=1e-7)
        assert solves == 2 and not failed.any() and error is None
        _p, x1, v1, _failed, _error, solves = route([1])
        assert solves == 1
        assert x[1].tobytes() == x1[0].tobytes() and v[1].tobytes() == v1[0].tobytes()
        _p, x0, _v, _failed, _error, _solves = route([0])
        assert np.max(np.abs(x[0] - x0[0])) <= 1e-14 * 5.0


def free_flow_stack(inst, layout):
    """Every (stratum, destination) pair of ``inst`` at free flow without
    tolls, in one stack of the ``layout``: _expected_costs' arguments with
    the tolerance left out (as lattice_stack), then each pair's origins and
    trips as _route takes them (``pair``, ``origins``, ``trips``)."""
    net = inst.network
    costs = _arc_costs(inst.strata, net, np.zeros((len(inst.strata), net.n_arcs)),
                       net.free_time)
    demand = [inst.demand_by_destination(s.name) for s in inst.strata]
    rows = np.repeat(np.arange(len(demand)), [len(by_dest) for by_dest in demand])
    dest = np.array([d for by_dest in demand for d in by_dest])
    odt = [odt for by_dest in demand for odt in by_dest.values()]
    route = (np.repeat(np.arange(len(dest)), [len(o) for o, _t in odt]),
             np.concatenate([o for o, _t in odt]), np.concatenate([t for _o, t in odt]))
    beta = np.array([[s.beta_t] for s in inst.strata])
    if layout == "stratum":
        return (net, costs[rows], dest, beta[rows], 0.0, rows, np.exp(-beta * costs)), route
    return (net, costs[rows], dest, beta[rows], shortest_costs(net, costs, dest, rows=rows)), route


#: the per-pair layout on single-OD (chain order [2, 1, 0, 3]) and the
#: stratum layout on the acceptance lattice
REFINED_STACKS = pytest.mark.parametrize("name, layout", [("single_od", "per_pair"),
                                                          ("grid6", "stratum")])


class TestRefinementStep:
    """A first solve off by 1e-6 relative is refined back to the exact
    answer, in _expected_costs (X) and in _route (x)."""

    @staticmethod
    def instance(name, lattice):
        return gen_single_od() if name == "single_od" else lattice

    @REFINED_STACKS
    def test_expected_costs_refine_a_perturbed_reach(self, lattice, name, layout, monkeypatch):
        args, _route_args = free_flow_stack(self.instance(name, lattice), layout)
        exact = _expected_costs(*args[:5], 1e-12, *args[5:])
        assert exact[4].tolist() == [1] * len(args[2])
        real = _StackLU.reach
        monkeypatch.setattr(_StackLU, "reach", lambda stack: real(stack) * (1.0 + 1e-6))
        tau, residual, _probs, _log_denom, solves, _low, _through = _expected_costs(
            *args[:5], 1e-12, *args[5:])
        assert solves.tolist() == [2] * len(args[2])
        assert (residual <= 1e-12).all()
        # the per-pair layout gets the unperturbed bits back, the stratum
        # layout (Sherman-Morrison terms) the unperturbed tau to a few ulps
        assert np.max(np.abs(tau - exact[0])) <= 1e-15 * np.max(np.abs(exact[0]))
        assert layout == "stratum" or tau.tobytes() == exact[0].tobytes()

    @REFINED_STACKS
    def test_route_refines_a_perturbed_first_solve(self, lattice, name, layout):
        args, (pair, origins, trips) = free_flow_stack(self.instance(name, lattice), layout)
        _tau, _residual, probs, log_denom, _solves, _low, through = _expected_costs(
            *args[:5], 1e-12, *args[5:])
        calls = []

        def solve(y):  # the first solve off by 1e-6 relative
            calls.append(y)
            return through(y) * (1.0 + (1e-6 if len(calls) == 1 else 0.0))

        def route(solve):
            return _route(args[0], probs, log_denom, args[2], pair, origins, trips,
                          np.full(len(origins), np.inf), np.ones(len(origins)), solve)

        _p, exact_x, exact_v, failed, error = route(through)
        assert not failed.any() and error is None
        _p, x, v, failed, error = route(solve)
        assert len(calls) == 2 and not failed.any() and error is None
        for got, want in ((x, exact_x), (v, exact_v)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def assert_batch_is_solo(inst, prices_list, options=MEDIUM):
    """solve_equilibria of ``prices_list`` gives each scheme the solution of
    its solo solve bit for bit: every array, every field of its solution
    file and its iteration log, tagged with its position.  Returns the batch."""
    net = inst.network
    batch = solve_equilibria(inst, prices_list, options)
    assert len(batch) == len(prices_list)
    for s, (prices, got) in enumerate(zip(prices_list, batch)):
        want = solve_equilibrium(inst, prices, options)
        assert (json.dumps(solution_to_dict(got, net), sort_keys=True)
                == json.dumps(solution_to_dict(want, net), sort_keys=True)), s
        for name in ("total_flow", "arc_time", "response_flow", "price_rates"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (s, name)
        for name, flow in want.stratum_flow.items():
            assert got.stratum_flow[name].tobytes() == flow.tobytes(), (s, name)
        for key, sd in want.sub.items():
            assert got.sub[key].arc_flow.tobytes() == sd.arc_flow.tobytes(), (s, key)
        assert [(r["scheme"], r["iteration"], r["residual"]) for r in got.iteration_log] == [
            (s, r["iteration"], r["residual"]) for r in want.iteration_log]
    return batch


class TestSolveEquilibria:
    """One outer loop for several schemes: each scheme's solution is its
    solo solution, whatever it is batched with."""

    def test_lattice_in_the_stratum_layout(self, lattice, monkeypatch):
        factored = record_factorizations(monkeypatch)
        rates = [zero_prices(lattice), rate_2(lattice),
                 expand_scheme(SchemeSpec(family="uniform", rate=25.0), lattice)]
        batch = assert_batch_is_solo(lattice, rates)
        assert all(sol.converged for sol in batch)
        assert [sol.outer_iterations for sol in batch] == [5, 6, 6]
        # a pass stacks the three schemes' three strata in one LU
        assert factored[:2] == [((9 * 36, 9 * 36), "ok")] * 2

    def test_single_od_in_the_per_pair_layout(self):
        inst = gen_single_od()
        rates = [expand_scheme(SchemeSpec(family="uniform", rate=r), inst)
                 for r in (0.0, 100.0, 400.0)]
        assert_batch_is_solo(inst, rates)

    def test_a_scheme_that_stops_first_keeps_its_last_pass(self, monkeypatch):
        # the priced scheme converges two passes before the toll-free one;
        # the passes after that route the toll-free scheme's pairs alone
        inst = gen_single_od()
        factored = record_factorizations(monkeypatch)
        priced = expand_scheme(SchemeSpec(family="uniform", rate=100.0), inst)
        base, tolled = assert_batch_is_solo(inst, [zero_prices(inst), priced])
        assert base.outer_iterations == tolled.outer_iterations + 2
        # both schemes' six pairs are one LU of 6 x 4 unknowns, then the
        # toll-free scheme's three one of 3 x 4, as in the solo solves that follow
        passes = tolled.outer_iterations
        assert factored == [((24, 24), "ok")] * passes + [((12, 12), "ok")] * (2 * passes + 4)

    def test_a_stratum_out_of_range_in_one_scheme_only(self, lattice, monkeypatch):
        # stratum high (10 destinations) is out of range at rate 300 in the
        # second scheme only: its pairs go per pair there, while the first
        # scheme's high stays in the stratum stacks
        inst = with_destinations(lattice, (10, 4, 2))
        mixed = expand_scheme(SchemeSpec(family="per_stratum", stratum_rates=(
            ("high", 300.0), ("mid", 0.0), ("low", 2.0))), inst)
        factored = record_factorizations(monkeypatch)
        assert_batch_is_solo(inst, [zero_prices(inst), mixed])
        # the first pass stacks both schemes' three strata and routes the
        # second scheme's high per pair; later passes stack five strata
        n = inst.network.n_nodes
        assert factored[:3] == [((6 * n, 6 * n), "ok"), ((10 * n, 10 * n), "ok"),
                                ((5 * n, 5 * n), "ok")]

    def test_a_singular_run_falls_back_alone(self, monkeypatch):
        # four primary arcs each way at cost ln 4 and beta_t = 1: W_s is
        # exactly [[0, 1], [1, 0]] toll-free, so that scheme's stratum block
        # is singular, while a toll of 0.1 per km makes the other's regular
        arcs = [flat_arc(f"{a}{t}{h}", t, h, math.log(4.0), road_class="primary")
                for a in "abcd" for t, h in (("0", "1"), ("1", "0"))]
        inst = two_destination_instance(arcs, beta_t=1.0)
        factored = record_factorizations(monkeypatch)
        rates = [zero_prices(inst), np.full((1, inst.network.n_arcs), 0.1)]
        assert_batch_is_solo(inst, rates, SolverOptions(outer_tol=1e-12,
                                                         outer_max_iters=1))
        # the stack of both blocks, then each block alone: the toll-free one
        # routes its two pairs per pair, the tolled one stays in its block
        assert factored[:4] == [((4, 4), "singular"), ((2, 2), "singular"), ((2, 2), "ok"),
                                ((4, 4), "ok")]

    @pytest.mark.parametrize("order", [1, -1])
    def test_an_infeasible_scheme_fails_the_batch(self, order):
        # at time sensitivity 0.01 the toll-free scheme has no finite
        # expected costs, the scheme at rate 10 has
        inst = gen_single_od(time_sensitivity=0.01)
        priced = expand_scheme(SchemeSpec(family="uniform", rate=10.0), inst)
        assert solve_equilibrium(inst, priced, MEDIUM).converged
        with pytest.raises(FeasibilityError, match="unbounded"):
            solve_equilibria(inst, [zero_prices(inst), priced][::order], MEDIUM)

    def test_every_scheme_is_checked(self, two_route):
        rates = zero_prices(two_route)
        with pytest.raises(ValueError, match="price rates must have shape"):
            solve_equilibria(two_route, [rates, rates[:, :1]], OPTS)
        with pytest.raises(ValueError, match="one arc vector per scheme"):
            solve_equilibria(two_route, [rates, rates], OPTS,
                             initial_flows=[np.zeros(two_route.network.n_arcs)])
        assert solve_equilibria(two_route, [], OPTS) == []
