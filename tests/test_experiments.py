import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mteq import (
    PriceGrid,
    ResultRow,
    ScalarizedObjective,
    SweepConfig,
    best_scalarized,
    load_results,
    pareto_frontier,
    persist_results,
    run_sweep,
    save_instance,
    value_of,
)
from mteq.experiments import RESULTS_SCHEMA_VERSION, ResultSchemaError, write_frontier_csv
from mteq.equilibrium import SolverOptions
from mteq.instance import InstanceError
from mteq.network import build_network
from mteq.synthgen import gen_single_od

from conftest import two_route_instance


def stub_row(scheme_id, w_solo, total_w, total_r, rates=(0.0,)):
    return ResultRow(
        scheme_id=scheme_id, family="uniform", rates_label=f"p={rates[0]:g}",
        rate_vector=tuple(rates),
        welfare={"solo": w_solo}, welfare_delta={"solo": w_solo},
        revenue={"solo": total_r}, trips_started={"solo": 1.0},
        primary_share_distance={"solo": 0.5}, primary_share_flow={"solo": 0.5},
        avg_speed_trip={"solo": 1.0}, avg_speed_flow={"solo": 1.0},
        total_welfare=total_w, total_welfare_delta=total_w, total_revenue=total_r,
        trips_started_overall=1.0, converged=True, inner_converged=True,
        outer_residual=0.0)


class TestPareto:
    def test_dominated_point_removed(self):
        rows = [stub_row("a", 1.0, 1.0, 0.0), stub_row("b", 2.0, 2.0, 0.0)]
        kept = pareto_frontier(rows, "welfare:solo", "total_welfare")
        assert [r.scheme_id for r in kept] == ["b"]

    def test_mutually_nondominated_all_kept(self):
        rows = [stub_row("a", 1.0, 3.0, 0.0), stub_row("b", 3.0, 1.0, 0.0),
                stub_row("c", 2.0, 2.0, 0.0)]
        kept = pareto_frontier(rows, "welfare:solo", "total_welfare")
        assert {r.scheme_id for r in kept} == {"a", "b", "c"}

    def test_duplicate_point_kept_once(self):
        rows = [stub_row("a", 2.0, 2.0, 0.0), stub_row("b", 2.0, 2.0, 0.0)]
        kept = pareto_frontier(rows, "welfare:solo", "total_welfare")
        assert [r.scheme_id for r in kept] == ["a"]

    def test_failed_rows_excluded(self):
        bad = stub_row("bad", float("nan"), float("nan"), 0.0)
        bad.error = "boom"
        rows = [stub_row("a", 1.0, 1.0, 0.0), bad]
        kept = pareto_frontier(rows, "welfare:solo", "total_welfare")
        assert [r.scheme_id for r in kept] == ["a"]

    def test_partial_domination_chain(self):
        rows = [stub_row("a", 1.0, 5.0, 0.0), stub_row("b", 2.0, 5.0, 0.0),
                stub_row("c", 2.0, 4.0, 0.0)]
        kept = pareto_frontier(rows, "welfare:solo", "total_welfare")
        assert {r.scheme_id for r in kept} == {"b"}


class TestScalarized:
    def test_lambda_zero_revenue_mode_maximizes_revenue(self):
        rows = [stub_row("a", 9.0, 9.0, 1.0), stub_row("b", 0.0, 0.0, 7.0)]
        obj = ScalarizedObjective(stratum="solo", lam=0.0, mode="welfare_vs_revenue")
        assert best_scalarized(rows, obj).scheme_id == "b"

    def test_lambda_one_maximizes_stratum_welfare(self):
        rows = [stub_row("a", 9.0, 0.0, 0.0), stub_row("b", 1.0, 50.0, 50.0)]
        obj = ScalarizedObjective(stratum="solo", lam=1.0)
        assert best_scalarized(rows, obj).scheme_id == "a"

    def test_tie_breaks_to_smaller_rate_vector(self):
        rows = [stub_row("hi", 10.0, 0.0, 0.0, rates=(300.0,)),
                stub_row("mid", 4.0, 4.0, 0.0, rates=(200.0,)),
                stub_row("lo", 0.0, 10.0, 0.0, rates=(100.0,))]
        obj = ScalarizedObjective(stratum="solo", lam=0.5)
        assert best_scalarized(rows, obj).scheme_id == "lo"

    def test_best_is_on_the_frontier(self):
        rng = np.random.default_rng(8)
        rows = [stub_row(f"r{k}", rng.uniform(0, 10), rng.uniform(0, 10), 0.0,
                         rates=(float(k),))
                for k in range(40)]
        frontier = {r.scheme_id for r in pareto_frontier(rows, "welfare:solo", "total_welfare")}
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            best = best_scalarized(rows, ScalarizedObjective(stratum="solo", lam=lam))
            assert best.scheme_id in frontier

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            ScalarizedObjective(stratum="solo", lam=1.5)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rows = [stub_row(f"uniform_p{k}", float(k), 2.0 * k, 3.0 * k, rates=(float(k),))
                for k in range(17)]
        persist_results(rows, tmp_path)
        again = load_results(tmp_path)
        assert [r.to_dict() for r in again] == [r.to_dict() for r in rows]

    def test_empty_directory_warns(self, tmp_path):
        with pytest.warns(UserWarning, match="no results manifest"):
            assert load_results(tmp_path) == []

    def test_schema_version_mismatch_rejected(self, tmp_path):
        rows = [stub_row("uniform_p0", 0.0, 0.0, 0.0)]
        persist_results(rows, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["schema_version"] = RESULTS_SCHEMA_VERSION + 1
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ResultSchemaError):
            load_results(tmp_path)

    def test_frontier_csv(self, tmp_path):
        rows = [stub_row("a", 1.0, 3.0, 0.0), stub_row("b", 3.0, 1.0, 0.0)]
        path = write_frontier_csv(rows, "welfare:solo", "total_welfare", tmp_path)
        text = path.read_text().splitlines()
        assert text[0] == "scheme_id,rates,welfare:solo,total_welfare"
        assert len(text) == 3


def tree_bytes(root) -> dict:
    """Every file under ``root``, by relative path, with its bytes."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def small_sweep_config(tmp_path, lo=0.0, hi=8.0, step=2.0, workers=1):
    inst = two_route_instance()
    ipath = tmp_path / "instance.json"
    save_instance(inst, ipath)
    return SweepConfig(
        instance=str(ipath),
        grid=PriceGrid(family="uniform", lo=lo, hi=hi, step=step),
        solver=SolverOptions(outer_tol=1e-8, outer_max_iters=3000),
        output=str(tmp_path / "out"),
        workers=workers)


def single_od_sweep_config(tmp_path):
    """A three-scheme uniform sweep of the single-OD instance."""
    save_instance(gen_single_od(), tmp_path / "od.json")
    return SweepConfig(instance=str(tmp_path / "od.json"),
                       grid=PriceGrid(family="uniform", lo=0.0, hi=2.0, step=1.0),
                       solver=SolverOptions(outer_tol=1e-4),
                       output=str(tmp_path / "out"))


class TestRunSweep:
    def test_rows_cover_grid_plus_baseline(self, tmp_path):
        config = small_sweep_config(tmp_path)
        rows = run_sweep(config)
        # lo = 0 already contains the toll-free scheme
        assert len(rows) == 5
        assert rows[0].scheme_id == "uniform_p0"
        base = rows[0]
        assert base.total_revenue == 0.0
        assert all(v == 0.0 for v in base.welfare_delta.values())

    def test_baseline_added_when_grid_excludes_zero(self, tmp_path):
        config = small_sweep_config(tmp_path, lo=2.0, hi=8.0, step=2.0)
        rows = run_sweep(config)
        assert len(rows) == 5
        assert rows[0].scheme_id == "uniform_p0"

    def test_monotone_revenue_then_decline_sane(self, tmp_path):
        rows = run_sweep(small_sweep_config(tmp_path))
        assert all(r.converged for r in rows)
        assert all(not r.error for r in rows)
        revs = [r.total_revenue for r in rows]
        assert revs[0] == 0.0
        assert max(revs) > 0.0

    def test_resume_skips_existing_details(self, tmp_path):
        config = small_sweep_config(tmp_path)
        rows = run_sweep(config)
        detail = Path(config.output) / "schemes" / "uniform_p4.json"
        before = detail.read_bytes()
        marker = json.loads(before)
        marker["outer_residual"] = 123.456  # sentinel proves no recompute
        detail.write_text(json.dumps(marker, sort_keys=True, indent=1))
        rows2 = run_sweep(config)
        assert json.loads(detail.read_text())["outer_residual"] == 123.456
        assert [r.scheme_id for r in rows2] == [r.scheme_id for r in rows]

    def test_resume_refuses_a_detail_file_of_other_strata(self, tmp_path):
        # a single-OD sweep (strata high, mid, low) left in the output directory
        single_od = tmp_path / "single_od.json"
        save_instance(gen_single_od(), single_od)
        config = small_sweep_config(tmp_path)  # stratum solo
        run_sweep(SweepConfig(instance=str(single_od), grid=config.grid, solver=config.solver,
                              output=config.output))
        detail = Path(config.output) / "schemes" / "uniform_p0.json"
        with pytest.raises(InstanceError, match=f"{detail}: result.welfare has strata"):
            run_sweep(config)

    def test_resumed_tables_are_byte_identical_to_fresh_ones(self, tmp_path):
        # single-OD lists its strata high, mid, low: not in name order
        config = single_od_sweep_config(tmp_path)
        run_sweep(config)
        out = Path(config.output)
        fresh = tree_bytes(out)
        assert b'"strata":["high","mid","low"]' in fresh["manifest.json"]
        (out / "results.csv").unlink()
        (out / "manifest.json").unlink()
        rows = run_sweep(config)  # every scheme resumes from its detail file
        assert tree_bytes(out) == fresh
        assert [list(r.welfare) for r in rows] == [["high", "mid", "low"]] * 3
        assert all(list(r.avg_speed_flow) == ["high", "mid", "low"] for r in load_results(out))

    def test_resumed_simulate_sweep_returns_the_fresh_rows(self, tmp_path):
        config = replace(single_od_sweep_config(tmp_path), simulate=True, runs_per_unit=2)
        fresh = run_sweep(config)
        out = Path(config.output)
        (out / "results.csv").unlink()
        (out / "manifest.json").unlink()
        rows = run_sweep(config)  # every scheme resumes from its detail file
        assert rows == fresh
        assert [json.dumps(r.to_dict()) for r in rows] == [json.dumps(r.to_dict()) for r in fresh]
        assert all(list(table) == ["high", "mid", "low"]
                   for r in rows for key, table in r.sim.items() if key != "truncated")

    def test_resume_refuses_a_detail_file_of_another_scheme(self, tmp_path):
        config = single_od_sweep_config(tmp_path)
        run_sweep(config)
        details = Path(config.output) / "schemes"
        (details / "uniform_p2.json").write_bytes((details / "uniform_p1.json").read_bytes())
        match = "uniform_p2.json: result.scheme_id is 'uniform_p1', not 'uniform_p2'"
        with pytest.raises(InstanceError, match=match):
            run_sweep(config)
        with pytest.raises(InstanceError, match=match):
            load_results(config.output)

    @pytest.mark.parametrize("field, value, message", [
        ("converged", "no", "converged must be true or false"),
        ("inner_converged", 1, "inner_converged must be true or false"),
        ("family", ["x"], "family must be a string"),
        ("rates_label", None, "rates_label must be a string"),
        ("error", 5, "error must be null or a string"),
        ("sim", "abc", "sim must be an object"),
    ])
    def test_resume_refuses_a_detail_file_field_of_another_type(self, tmp_path, field, value,
                                                                message):
        config = single_od_sweep_config(tmp_path)
        run_sweep(config)
        detail = Path(config.output) / "schemes" / "uniform_p1.json"
        doc = json.loads(detail.read_text())
        doc[field] = value
        detail.write_text(json.dumps(doc))
        with pytest.raises(InstanceError, match=f"{detail}: result.{message}"):
            run_sweep(config)
        with pytest.raises(InstanceError, match=f"{detail}: result.{message}"):
            load_results(config.output)

    def test_detail_files_written_once_as_persist_results_writes_them(self, tmp_path,
                                                                     monkeypatch):
        dumped = []
        to_dict = ResultRow.to_dict
        monkeypatch.setattr(ResultRow, "to_dict",
                            lambda row: dumped.append(row.scheme_id) or to_dict(row))
        config = small_sweep_config(tmp_path)
        rows = run_sweep(config)
        assert sorted(dumped) == sorted(r.scheme_id for r in rows)
        persist_results(rows, tmp_path / "persisted")
        swept = sorted(p.relative_to(config.output) for p in Path(config.output).rglob("*.*"))
        assert swept == sorted(p.relative_to(tmp_path / "persisted")
                               for p in (tmp_path / "persisted").rglob("*.*"))
        for rel in swept:
            assert (Path(config.output) / rel).read_bytes() == \
                (tmp_path / "persisted" / rel).read_bytes(), rel

    def test_results_csv_deterministic_and_worker_independent(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        c1 = small_sweep_config(tmp_path / "a")
        c2 = small_sweep_config(tmp_path / "b", workers=2)
        run_sweep(c1)
        run_sweep(c2)
        a, b = tree_bytes(c1.output), tree_bytes(c2.output)
        assert {"results.csv", "manifest.json", "schemes/uniform_p8.json"} <= set(a)
        assert a == b

    def test_per_stratum_results_worker_independent(self, tmp_path):
        # the per-stratum grid orders strata by willingness to pay, not by
        # name; the per-area grid sends each worker the AreaAssignment
        save_instance(gen_single_od(), tmp_path / "od.json")
        for family in ("per_stratum", "per_area"):
            outputs = []
            for workers in (1, 2):
                config = SweepConfig(
                    instance=str(tmp_path / "od.json"),
                    grid=PriceGrid(family=family, lo=0.0, hi=2.0, step=2.0),
                    solver=SolverOptions(outer_tol=1e-4),
                    output=str(tmp_path / f"{family}_w{workers}"), workers=workers)
                rows = run_sweep(config)
                assert not any(r.error for r in rows)
                outputs.append(tree_bytes(config.output))
            assert {"results.csv", "manifest.json"} <= set(outputs[0])
            assert len(outputs[0]) == 2 + len(rows)  # one detail file per scheme
            assert {r.family for r in rows} == {"uniform", family}  # and the baseline
            assert outputs[0] == outputs[1], family

    def test_solver_failure_recorded_not_raised(self, tmp_path, monkeypatch):
        import mteq.experiments as ex
        real = ex.solve_equilibrium

        def flaky(instance, prices, options=None, **kw):
            rates = np.asarray(getattr(prices, "rates", prices))
            if np.max(rates) == 4.0:
                raise RuntimeError("synthetic breakdown")
            return real(instance, prices, options, **kw)

        monkeypatch.setattr(ex, "solve_equilibrium", flaky)
        rows = run_sweep(small_sweep_config(tmp_path))
        failed = [r for r in rows if r.error]
        assert len(failed) == 1
        assert failed[0].scheme_id == "uniform_p4"
        assert "synthetic breakdown" in failed[0].error
        assert math.isnan(failed[0].total_welfare)
        ok = [r for r in rows if not r.error]
        assert len(ok) == 4

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        import mteq.experiments as ex
        real = ex.solve_equilibrium

        def broken(instance, prices, options=None, **kw):
            if np.max(np.asarray(getattr(prices, "rates", prices))) == 4.0:
                raise TypeError("synthetic bug")
            return real(instance, prices, options, **kw)

        monkeypatch.setattr(ex, "solve_equilibrium", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_sweep(small_sweep_config(tmp_path))

    def test_undefined_values_written_as_null_and_resumed(self, tmp_path):
        # driving is hopeless: no trip starts, so speeds, primary shares and
        # the simulated mean time are undefined (NaN) in every scheme
        inst = two_route_instance(outside_time=0.0, ticket=0.0, congestible=False)
        huge = [type(a)(id=a.id, tail=a.tail, head=a.head, length_km=1e5,
                        free_speed_kmh=1.0, lanes=a.lanes, road_class=a.road_class,
                        capacity=a.capacity, bpr_gamma=0.0)
                for a in inst.network.arcs]
        slow = type(inst)(network=build_network(list(inst.network.nodes), huge),
                          strata=inst.strata, demand=inst.demand,
                          outside=inst.outside, solver=inst.solver)
        save_instance(slow, tmp_path / "slow.json")
        config = SweepConfig(
            instance=str(tmp_path / "slow.json"),
            grid=PriceGrid(family="uniform", lo=0.0, hi=1.0, step=1.0),
            solver=SolverOptions(outer_tol=1e-8, outer_max_iters=3000),
            output=str(tmp_path / "out"), simulate=True, runs_per_unit=2)
        rows = run_sweep(config)
        assert math.isnan(rows[0].avg_speed_trip["solo"])
        assert math.isnan(rows[0].sim["mean_time"]["solo"])

        def no_constants(token):
            raise ValueError(f"not JSON: {token}")

        out = Path(config.output)
        details = sorted((out / "schemes").glob("*.json"))
        assert len(details) == 2
        before = {p.name: p.read_bytes() for p in details}
        for text in before.values():
            doc = json.loads(text, parse_constant=no_constants)
            assert doc["avg_speed_trip"]["solo"] is None
            assert doc["sim"]["mean_time"]["solo"] is None
            assert doc["error"] is None
        csv_before = (out / "results.csv").read_bytes()
        assert b"nan" in csv_before

        (out / "results.csv").unlink()
        again = run_sweep(config)  # every scheme resumes from its detail file
        assert (out / "results.csv").read_bytes() == csv_before
        assert {p.name: p.read_bytes() for p in details} == before
        assert math.isnan(again[1].avg_speed_trip["solo"])
        assert again[1].sim["truncated"] == rows[1].sim["truncated"]

    def test_config_solver_keys(self):
        doc = {"instance": "inst.json",
               "grid": {"family": "uniform", "lo": 0, "hi": 1, "step": 1},
               "solver": {"outer_tol": 1e-4, "step_rule": "0.5", "norm": "sup"}}
        assert SweepConfig.from_dict(doc).solver == SolverOptions(outer_tol=1e-4)
        doc["solver"]["damping"] = 0.5
        with pytest.raises(InstanceError, match="damping"):
            SweepConfig.from_dict(doc)

    def test_value_of_accessors(self):
        row = stub_row("a", 1.5, 2.5, 3.5)
        assert value_of(row, "welfare:solo") == 1.5
        assert value_of(row, "total_welfare") == 2.5
        assert value_of(row, "total_revenue") == 3.5
        with pytest.raises(InstanceError):
            value_of(row, "welfare:ghost")
        with pytest.raises(InstanceError):
            value_of(row, "nonsense")
