"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
import warnings

import numpy as np
import pytest

from mteq import (
    PriceGrid,
    SchemeSpec,
    SolverOptions,
    SweepConfig,
    all_trip_stats,
    compute_metrics,
    enumerate_grid,
    equilibrium_residuals,
    expand_scheme,
    assign_areas,
    primary_flow_share,
    run_sweep,
    save_instance,
    simulate_trips,
    solve_equilibrium,
    stratum_price_order,
    zero_prices,
)
from mteq.equilibrium import TAU_TOLERANCE
from mteq.instance import Instance, Stratum
from mteq.synthgen import GridGenSpec, gen_grid, gen_single_od

import oracle
from conftest import logit, logit_stacked

TIGHT = SolverOptions(outer_tol=1e-6, outer_max_iters=5000)
MEDIUM = SolverOptions(outer_tol=1e-4, outer_max_iters=5000)

GRID6 = GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7)


def ok(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


@pytest.fixture(scope="module")
def single_od():
    return gen_single_od()


@pytest.fixture(scope="module")
def grid6():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return gen_grid(GRID6)


def with_price_sensitivities(instance, beta_p):
    """Copy of an instance with per-stratum price sensitivities replaced."""
    strata = [
        Stratum(name=s.name, beta_t=s.beta_t, beta_p=beta_p[s.name],
                beta_t_out=s.beta_t_out, beta_p_out=s.beta_p_out)
        for s in instance.strata
    ]
    return Instance(network=instance.network, strata=strata,
                    demand=instance.demand, outside=instance.outside, solver=instance.solver)


def test_criterion_1_equilibrium_residuals(single_od, grid6):
    """Converged solutions satisfy the flow, fixed-point and stationarity
    residual bounds at tight tolerances, within the runtime budget."""
    t0 = time.perf_counter()
    for name, inst in (("single_od", single_od), ("grid6", grid6)):
        prices = zero_prices(inst)
        sol = solve_equilibrium(inst, prices, TIGHT)
        assert sol.converged and sol.inner_converged, name
        diag = equilibrium_residuals(inst, prices, sol)
        assert diag.flow_residual <= TIGHT.outer_tol, name
        for key, r in diag.tau_residuals.items():
            assert r <= TAU_TOLERANCE, (name, key)
        net = inst.network
        agg = sum(sd.arc_flow for sd in sol.sub.values())
        gap = np.abs(net.inverse_latency_all(sol.arc_time) - agg)
        assert np.all(gap <= 1e-6 * np.maximum(1.0, sol.total_flow)), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok("1 (equilibrium residuals)", f"[{elapsed:.1f}s < 60s]")


def test_criterion_2_uniqueness(single_od, grid6):
    """Solves from zero flow and from a random positive start agree on every
    arc within 10x the outer tolerance, for 5 random price vectors each."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for name, inst in (("single_od", single_od), ("grid6", grid6)):
        order = stratum_price_order(inst)
        scale = sum(e.trips for e in inst.demand)
        for trial in range(5):
            rates = dict(zip(order, sorted(rng.uniform(0.0, 50.0, size=3))))
            spec = SchemeSpec(family="per_stratum",
                              stratum_rates=tuple(sorted(rates.items())))
            prices = expand_scheme(spec, inst)
            a = solve_equilibrium(inst, prices, MEDIUM)
            start = rng.uniform(0.0, scale / inst.network.n_arcs,
                                size=inst.network.n_arcs)
            b = solve_equilibrium(inst, prices, MEDIUM, initial_flow=start)
            assert a.converged and b.converged, (name, trial)
            gap = np.max(np.abs(a.total_flow - b.total_flow))
            assert gap <= 10.0 * MEDIUM.outer_tol, (name, trial, gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    ok("2 (uniqueness)", f"[{elapsed:.1f}s < 300s]")


def test_criterion_3_cost_sensitivity_identity(single_od):
    """Central finite differences of demand-weighted expected costs with
    respect to each arc's time reproduce that arc's flow (h = 1e-5)."""
    t0 = time.perf_counter()
    inst = single_od
    prices = expand_scheme(SchemeSpec(family="uniform", rate=25.0), inst)
    sol = solve_equilibrium(inst, prices, TIGHT)
    diag = equilibrium_residuals(inst, prices, sol,
                                 fd_arcs=range(inst.network.n_arcs), fd_step=1e-5)
    worst = 0.0
    for (arc, s, d), (fd, v) in diag.fd_checks.items():
        err = abs(fd - v) / max(1.0, v)
        worst = max(worst, err)
        assert err <= 1e-3, (arc, s, d, fd, v)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok("3 (flow = cost sensitivity)", f"[worst {worst:.2e} <= 1e-3, {elapsed:.1f}s < 30s]")


def test_criterion_4_logit_kernels_extended_precision():
    """The solver's logit kernel, choice.logit_nodes, matches a 60-digit
    oracle on 1000 random inputs to 1e-12 relative, as one-segment rows with
    a scalar beta and as multi-segment rows with a (k, 1) beta, and the
    stated invariances hold."""
    rng = np.random.default_rng(77)
    draws, wants = [], []
    for _ in range(1000):
        z = rng.uniform(-30.0, 30.0, size=int(rng.integers(1, 8)))
        beta = float(rng.uniform(0.2, 4.0))
        want = (oracle.phi_mp(list(z), beta), oracle.probs_mp(list(z), beta))
        got_phi, got_p, _log_denom = logit(z, beta)
        assert got_phi == pytest.approx(want[0], rel=1e-12, abs=1e-12)
        assert got_p == pytest.approx(want[1], rel=1e-12, abs=1e-15)
        # shift invariances
        k = float(rng.uniform(-50.0, 50.0))
        shifted_phi, shifted_p, _log_denom = logit(z + k, beta)
        assert shifted_phi == pytest.approx(got_phi + k, abs=1e-11)
        assert shifted_p == pytest.approx(got_p, rel=1e-11, abs=1e-14)
        draws.append((z, beta))
        wants.append(want)
    for (got_phi, got_p, _log_denom), want in zip(logit_stacked(draws), wants):
        assert got_phi == pytest.approx(want[0], rel=1e-12, abs=1e-12)
        assert got_p == pytest.approx(want[1], rel=1e-12, abs=1e-15)
    # symmetry: n equal alternatives split exactly evenly
    for n in (2, 3, 4, 7):
        assert logit([2.5] * n, 1.3)[1] == pytest.approx([1.0 / n] * n, rel=1e-14)
    assert logit([7.0], 1.0)[0] == 7.0
    ok("4 (logit kernel vs extended precision)")


def test_criterion_5_uniform_equals_entry_area_pricing(single_od):
    """Pricing only the area that contains the primary arcs' entry nodes
    replicates uniform pricing: identical welfare and revenue tuples."""
    t0 = time.perf_counter()
    inst = single_od
    areas = assign_areas(inst, 2, 2)
    # both primary arcs enter from the N cell
    assert {areas.area_of(a.tail) for a in inst.network.arcs if a.is_primary} == {"N"}
    sol0 = solve_equilibrium(inst, zero_prices(inst), TIGHT)
    base = all_trip_stats(inst, sol0)

    def tuples(scheme, areas_arg):
        prices = expand_scheme(scheme, inst, areas_arg)
        sol = solve_equilibrium(inst, prices, TIGHT)
        rep = compute_metrics(inst, sol, base, scheme_id=scheme.scheme_id)
        return ([rep.welfare[s] for s in inst.stratum_names]
                + [rep.total_welfare, rep.total_revenue])

    for p in np.arange(0.0, 200.0 + 1e-9, 25.0):
        uni = tuples(SchemeSpec(family="uniform", rate=float(p)), None)
        rates = tuple((label, float(p) if label == "N" else 0.0)
                      for label in ("N", "E", "S", "W"))
        area = tuples(SchemeSpec(family="per_area", area_rates=rates), areas)
        for u, a in zip(uni, area):
            assert a == pytest.approx(u, rel=1e-6, abs=1e-9), (p, uni, area)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    ok("5 (uniform == entry-area pricing)", f"[{elapsed:.1f}s < 300s]")


def test_criterion_6_inequity_ordering(grid6):
    """Primary-road usage orders by willingness to pay at every tested
    uniform price, across the four sensitivity permutations.

    At the stated prices the toll exponents are in the hundreds, so the
    mathematical share gaps lie far below double precision; inequalities are
    asserted with a 1e-9 noise allowance and the ordering is additionally
    verified strictly at low prices where the gaps are representable.
    """
    t0 = time.perf_counter()
    noise = 1e-9

    def shares_at(inst, p):
        prices = expand_scheme(SchemeSpec(family="uniform", rate=float(p)), inst)
        sol = solve_equilibrium(inst, prices, MEDIUM)
        assert sol.converged
        return {s: primary_flow_share(sol, s, inst) for s in inst.stratum_names}

    # stated sensitivities, stated price range
    for p in range(200, 701, 100):
        sh = shares_at(grid6, p)
        assert sh["low"] <= sh["mid"] + noise, (p, sh)
        assert sh["mid"] <= sh["high"] + noise, (p, sh)

    # strict ordering where double precision can represent the gaps
    for p in (2.0, 5.0):
        sh = shares_at(grid6, p)
        assert sh["low"] < sh["mid"] < sh["high"], (p, sh)

    # four willingness-to-pay permutations: share must be monotone in theta
    thetas = {"increasing": {"low": 0.5, "mid": 0.8, "high": 1.5},
              "decreasing": {"low": 2.0, "mid": 1.5, "high": 0.8},
              "mid_lowest": {"mid": 0.5, "low": 0.8, "high": 1.5},
              "high_lowest": {"high": 0.5, "low": 0.8, "mid": 1.5}}
    for label, theta in thetas.items():
        inst = with_price_sensitivities(grid6, {s: 1.0 / t for s, t in theta.items()})
        by_theta = sorted(theta, key=theta.get)
        for p in range(200, 701, 100):
            sh = shares_at(inst, p)
            for a, b in zip(by_theta, by_theta[1:]):
                assert sh[a] <= sh[b] + noise, (label, p, sh)
        sh = shares_at(inst, 2.0)
        for a, b in zip(by_theta, by_theta[1:]):
            assert sh[a] < sh[b], (label, sh)
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    ok("6 (inequity ordering)", f"[{elapsed:.1f}s < 900s]")


def test_criterion_7_monte_carlo_matches_analytic(single_od):
    """Simulated trips-started, mean travel time and primary share match the
    analytic expectations within three standard errors per stratum."""
    inst = single_od
    prices = zero_prices(inst)
    sol = solve_equilibrium(inst, prices, TIGHT)
    stats = all_trip_stats(inst, sol)
    rep = simulate_trips(inst, sol, runs_per_unit=10, seed=20240801)
    assert len(rep.trips) == 3 * 500 * 10
    assert rep.truncated_count == 0

    for s in inst.stratum_names:
        row = stats[(s, "0", "3")]
        mine = rep.stratum == rep.stratum_names.index(s)
        n = int(mine.sum())

        started = rep.started[mine].astype(float)
        se_start = math.sqrt(max(row.start_prob * (1 - row.start_prob), 0.0) / n)
        assert abs(started.mean() - row.start_prob) <= 3 * se_start + 1e-12, s

        done = mine & rep.started & ~rep.truncated  # the completed trips
        times = rep.time[done]
        se_time = times.std(ddof=1) / math.sqrt(len(times))
        assert abs(times.mean() - row.time) <= 3 * se_time + 1e-12, s

        dist = rep.distance[done]
        prim = rep.primary_distance[done]
        share_sim = prim.sum() / dist.sum()
        share_ana = primary_flow_share(sol, s, inst)
        resid = prim - share_sim * dist
        se_share = math.sqrt(np.sum(resid ** 2)) / dist.sum()
        assert abs(share_sim - share_ana) <= 3 * se_share + 1e-12, s
    ok("7 (Monte Carlo vs analytic)")


def test_criterion_8_grid_enumeration_counts(single_od):
    """Exact enumeration counts for the three scheme families."""
    uni = enumerate_grid(PriceGrid(family="uniform", lo=0, hi=1600, step=100))
    assert len(uni) == 17
    area = enumerate_grid(PriceGrid(family="per_area", lo=0, hi=1600, step=200,
                                    areas=("N", "E", "S", "W")))
    assert len(area) == 6561
    strat = enumerate_grid(PriceGrid(family="per_stratum", lo=0, hi=1600, step=200,
                                     strata_order=stratum_price_order(single_od)))
    assert len(strat) == 165
    ok("8 (enumeration counts 17 / 6561 / 165)")


def test_criterion_9_sweep_determinism(tmp_path, single_od):
    """Identical config and seed give byte-identical results.csv regardless
    of worker count."""
    ipath = tmp_path / "single_od.json"
    save_instance(single_od, ipath)
    outputs = []
    for name, workers in (("r1", 1), ("r2", 1), ("r3", 3)):
        config = SweepConfig(
            instance=str(ipath),
            grid=PriceGrid(family="uniform", lo=0, hi=100, step=25),
            solver=MEDIUM,
            output=str(tmp_path / name),
            workers=workers,
            seed=0)
        run_sweep(config)
        outputs.append((tmp_path / name / "results.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    ok("9 (sweep determinism across workers)")


def test_criterion_10_degenerate_cases(single_od):
    """Zero demand gives zero flows and zero welfare/revenue; zero prices
    give zero revenue and exactly zero welfare deltas."""
    inst = single_od
    empty = Instance(network=inst.network, strata=inst.strata, demand=[],
                     outside=inst.outside, solver=inst.solver)
    sol_e = solve_equilibrium(empty, zero_prices(empty), TIGHT)
    assert sol_e.converged
    assert np.all(sol_e.total_flow == 0.0)
    rep_e = compute_metrics(empty, sol_e, all_trip_stats(empty, sol_e),
                            scheme_id="uniform_p0")
    assert rep_e.total_welfare == 0.0
    assert rep_e.total_revenue == 0.0

    sol0 = solve_equilibrium(inst, zero_prices(inst), TIGHT)
    rep0 = compute_metrics(inst, sol0, all_trip_stats(inst, sol0), scheme_id="uniform_p0")
    assert rep0.total_revenue == 0.0
    assert all(v == 0.0 for v in rep0.welfare_delta.values())
    assert rep0.total_welfare_delta == 0.0
    ok("10 (degenerate cases)")
