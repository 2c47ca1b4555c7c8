import csv
import json
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from mteq import (expand_scheme, instance_to_document, load_instance, load_results, save_instance,
                  solve_equilibrium)
from mteq.cli import EXIT_INVALID, EXIT_SOLVER_FAILED, run
from mteq.equilibrium import solution_from_dict, solution_to_dict
from mteq.network import build_network
from mteq.pricing import SchemeSpec
from mteq.synthgen import GridGenSpec, gen_grid, gen_single_od

from conftest import dead_end_instance, singular_pair_instance, two_route_instance


def acceptance_lattice():
    """The 6x6 acceptance lattice: 36 nodes, 30 (stratum, destination) pairs."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return gen_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7))


def write_two_route(tmp_path) -> Path:
    path = tmp_path / "two_route.json"
    save_instance(two_route_instance(), path)
    return path


def solve_two_route(tmp_path, ipath) -> Path:
    out = tmp_path / "solve"
    assert run(["solve", "--instance", str(ipath), "--scheme", "uniform",
                "--rate", "2", "--out", str(out)]) == 0
    return out / "solution.json"


class TestGenerate:
    def test_single_od(self, tmp_path, capsys):
        out = tmp_path / "single_od.json"
        assert run(["generate", "single-od", "--out", str(out)]) == 0
        inst = load_instance(out)
        assert inst.network.n_nodes == 4
        assert "4 nodes" in capsys.readouterr().out

    def test_grid_with_flags(self, tmp_path):
        # the smallest square lattice with OD pairs 5 km apart (the default)
        out = tmp_path / "grid.json"
        with pytest.warns(UserWarning):
            assert run(["generate", "grid", "--out", str(out),
                        "--rows", "6", "--cols", "6", "--seed", "3"]) == 0
        inst = load_instance(out)
        assert inst.network.n_nodes == 36

    def test_grid_with_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        # OD pairs 2 km apart fill some area groups of the 4x4 lattice, not all
        spec.write_text(json.dumps({"rows": 4, "cols": 4, "pairs_per_group": 2,
                                    "min_od_distance_km": 2.0}))
        out = tmp_path / "grid.json"
        with pytest.warns(UserWarning):
            assert run(["generate", "grid", "--out", str(out), "--spec", str(spec)]) == 0
        assert load_instance(out).network.n_nodes == 16


class TestValidate:
    def test_valid_instance(self, tmp_path):
        path = write_two_route(tmp_path)
        assert run(["validate", "--instance", str(path)]) == 0

    def test_not_strongly_connected_fails(self, tmp_path, capsys):
        doc = json.loads(write_two_route(tmp_path).read_text())
        doc["arcs"] = [a for a in doc["arcs"] if a["id"] != "back"]
        doc["demand"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["validate", "--instance", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_schema_violation_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"nodes": [], "arcs": []}))
        assert run(["validate", "--instance", str(path)]) == 1

    def test_missing_file(self, tmp_path):
        assert run(["validate", "--instance", str(tmp_path / "nope.json")]) == 1


class TestSolve:
    def test_writes_solution_and_metrics(self, tmp_path):
        ipath = write_two_route(tmp_path)
        out = tmp_path / "out"
        code = run(["solve", "--instance", str(ipath), "--scheme", "uniform",
                    "--rate", "2", "--out", str(out)])
        assert code == 0
        assert (out / "solution.json").exists()
        assert (out / "metrics.json").exists()
        assert (out / "metrics_strata.csv").exists()
        assert (out / "metrics_od.csv").exists()
        inst = load_instance(ipath)
        sol = solution_from_dict(json.loads((out / "solution.json").read_text()),
                                 inst.network)
        assert sol.converged
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["scheme_id"] == "uniform_p2"

    def test_repeat_runs_byte_identical(self, tmp_path):
        ipath = write_two_route(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["solve", "--instance", str(ipath), "--scheme", "uniform",
                        "--rate", "2", "--seed", "0", "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("solution.json", "metrics.json", "metrics_strata.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.parametrize("make", [two_route_instance, gen_single_od])
    def test_solution_file_is_the_compact_sorted_dump(self, tmp_path, make):
        ipath = tmp_path / "inst.json"
        save_instance(make(), ipath)
        assert run(["solve", "--instance", str(ipath), "--scheme", "uniform",
                    "--rate", "2", "--out", str(tmp_path / "out")]) == 0
        inst = load_instance(ipath)
        sol = solve_equilibrium(inst, expand_scheme(SchemeSpec(family="uniform", rate=2.0),
                                                    inst))
        want = json.dumps(solution_to_dict(sol, inst.network), sort_keys=True,
                          separators=(",", ":")) + "\n"
        assert (tmp_path / "out" / "solution.json").read_text() == want

    def test_seed_does_not_change_solution(self, tmp_path):
        ipath = write_two_route(tmp_path)
        for seed in ("1", "2"):
            assert run(["solve", "--instance", str(ipath), "--scheme", "uniform",
                        "--rate", "2", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
        assert ((tmp_path / "1" / "solution.json").read_bytes()
                == (tmp_path / "2" / "solution.json").read_bytes())

    def test_per_stratum_scheme(self, tmp_path):
        ipath = write_two_route(tmp_path)
        out = tmp_path / "out"
        assert run(["solve", "--instance", str(ipath), "--scheme", "stratum",
                    "--rates", "solo=3", "--out", str(out)]) == 0

    def test_non_convergence_exit_code_still_writes(self, tmp_path):
        ipath = write_two_route(tmp_path)
        out = tmp_path / "out"
        code = run(["solve", "--instance", str(ipath), "--scheme", "uniform",
                    "--rate", "2", "--out", str(out),
                    "--tol-outer", "1e-14", "--max-outer", "2"])
        assert code == 2
        assert (out / "solution.json").exists()

    def test_verbose_streams_iteration_log(self, tmp_path, capsys):
        ipath = write_two_route(tmp_path)
        run(["solve", "--instance", str(ipath), "--scheme", "uniform",
             "--rate", "0", "--out", str(tmp_path / "o"), "--verbose"])
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
        rec = json.loads(err_lines[0])
        assert {"iteration", "residual", "wall_time"} <= set(rec)

    def test_verbose_tags_each_scheme(self, tmp_path, capsys):
        # the toll-free baseline is scheme 0 and the priced scheme 1, routed
        # in the same passes until each stops: the baseline takes two more
        ipath = tmp_path / "single_od.json"
        save_instance(gen_single_od(), ipath)
        capsys.readouterr()
        assert run(["solve", "--instance", str(ipath), "--scheme", "uniform", "--rate", "100",
                    "--tol-outer", "1e-4", "--out", str(tmp_path / "o"), "--verbose"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        passes = {s: [r["iteration"] for r in records if r["scheme"] == s] for s in (0, 1)}
        assert {r["scheme"] for r in records} == {0, 1}
        assert passes[0] == list(range(len(passes[1]) + 2))
        solution = json.loads((tmp_path / "o" / "solution.json").read_text())
        assert [r["iteration"] for r in solution["iteration_log"]] == passes[1]

    @pytest.mark.parametrize("make", [gen_single_od, acceptance_lattice],
                             ids=["single_od_per_pair", "lattice_stratum"])
    def test_toll_free_scheme_has_exactly_zero_welfare_delta(self, tmp_path, make):
        # the baseline and the rate-0 scheme are the same blocks in one LU,
        # each factored as alone: their solutions, and so welfare, agree bit
        # for bit, in the per-pair layout (single-OD) and the stratum layout
        ipath = tmp_path / "inst.json"
        save_instance(make(), ipath)
        assert run(["solve", "--instance", str(ipath), "--scheme", "uniform", "--rate", "0",
                    "--tol-outer", "1e-4", "--out", str(tmp_path / "o")]) == 0
        metrics = json.loads((tmp_path / "o" / "metrics.json").read_text())
        deltas = [*metrics["welfare_delta"].values(), metrics["total_welfare_delta"]]
        assert len(deltas) == 4 and all(d == 0.0 for d in deltas), deltas

    def test_infeasible_baseline_of_a_feasible_scheme_is_solver_failure(self, tmp_path, capsys):
        # at time sensitivity 0.01 the toll-free baseline has no finite
        # expected costs while the scheme at rate 10 has: nothing is written
        ipath = tmp_path / "unbounded.json"
        inst = gen_single_od(time_sensitivity=0.01)
        save_instance(inst, ipath)
        solve_equilibrium(inst, expand_scheme(SchemeSpec(family="uniform", rate=10.0), inst))
        capsys.readouterr()
        assert run(["solve", "--instance", str(ipath), "--scheme", "uniform", "--rate", "10",
                    "--out", str(tmp_path / "o")]) == EXIT_SOLVER_FAILED
        err = capsys.readouterr().err
        assert err.startswith("error: expected optimal costs are unbounded"), err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_infeasible_instance_is_solver_failure(self, tmp_path, capsys):
        # unbounded: at a tiny time sensitivity the logit mass on the 0-1
        # cycle outgrows its cost, so expected costs have no finite fixed
        # point; singular: a cycle of weight exactly 1 makes I - W_d singular
        for name, inst in (("unbounded", gen_single_od(time_sensitivity=0.01)),
                           ("singular", singular_pair_instance())):
            ipath = tmp_path / f"{name}.json"
            save_instance(inst, ipath)
            assert run(["validate", "--instance", str(ipath)]) == 0
            for command in (["solve", "--scheme", "uniform", "--rate", "0"],
                            ["sweep", "--scheme", "uniform", "--grid", "0:1:1"]):
                capsys.readouterr()
                code = run([*command, "--instance", str(ipath),
                            "--out", str(tmp_path / name / command[0])])
                assert code == EXIT_SOLVER_FAILED == 3, (name, command[0])
                assert capsys.readouterr().err.startswith("error: "), (name, command[0])

    @pytest.mark.parametrize("mode", ["per_od_table", "free_time_multiplier"])
    def test_dead_end_is_usage_error(self, tmp_path, capsys, mode):
        ipath = tmp_path / "dead_end.json"
        save_instance(dead_end_instance(mode), ipath)
        code = run(["solve", "--instance", str(ipath), "--scheme", "uniform", "--rate", "0",
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID == 1
        assert capsys.readouterr().err == "error: node '2' has no outgoing arc\n"

    def test_missing_rate_is_usage_error(self, tmp_path):
        ipath = write_two_route(tmp_path)
        assert run(["solve", "--instance", str(ipath), "--scheme", "uniform",
                    "--out", str(tmp_path / "o")]) == 1


class TestSweepParetoSimulate:
    def make_sweep(self, tmp_path, workers=None):
        tmp_path.mkdir(parents=True, exist_ok=True)
        ipath = write_two_route(tmp_path)
        config = {
            "instance": ipath.name,
            "grid": {"family": "uniform", "lo": 0, "hi": 6, "step": 2},
            "solver": {"inner_tol": 1e-10, "inner_max_iters": 10000,
                       "outer_tol": 1e-8, "outer_max_iters": 3000},
            "output": "out",
        }
        cpath = tmp_path / "sweep.json"
        cpath.write_text(json.dumps(config))
        argv = ["sweep", "--config", str(cpath)]
        if workers:
            argv += ["--workers", str(workers)]
        assert run(argv) == 0
        return tmp_path / "out"

    def test_sweep_pareto_closed_loop(self, tmp_path, capsys):
        out = self.make_sweep(tmp_path)
        rows = load_results(out)
        assert len(rows) == 4
        assert (out / "results.csv").exists()
        assert run(["pareto", "--results", str(out),
                    "--x", "total_revenue", "--y", "welfare:solo"]) == 0
        frontier = out / "frontier_total_revenue_welfare_solo.csv"
        assert frontier.exists()
        assert len(frontier.read_text().splitlines()) >= 2

    def test_sweep_worker_count_does_not_change_bytes(self, tmp_path):
        a = self.make_sweep(tmp_path / "w1")
        b = self.make_sweep(tmp_path / "w2", workers=2)
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    @pytest.mark.parametrize("make, code", [(singular_pair_instance, EXIT_SOLVER_FAILED),
                                            (dead_end_instance, EXIT_INVALID)],
                             ids=["singular", "dead_end"])
    def test_failed_baseline_leaves_no_output(self, tmp_path, capsys, make, code):
        # the toll-free baseline fails (no equilibrium; a node without an
        # outgoing arc) before the sweep makes its output directory
        ipath, out = tmp_path / "instance.json", tmp_path / "out"
        save_instance(make(), ipath)
        assert run(["sweep", "--instance", str(ipath), "--scheme", "uniform", "--grid", "0:1:1",
                    "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_pareto_on_empty_directory(self, tmp_path, capsys):
        with pytest.warns(UserWarning):
            code = run(["pareto", "--results", str(tmp_path), "--x", "a", "--y", "b"])
        assert code == 1

    def test_simulate_stored_solution(self, tmp_path):
        ipath = write_two_route(tmp_path)
        solve_out = tmp_path / "solve"
        run(["solve", "--instance", str(ipath), "--scheme", "uniform",
             "--rate", "2", "--out", str(solve_out)])
        sim_out = tmp_path / "sim"
        code = run(["simulate", "--instance", str(ipath),
                    "--solution", str(solve_out / "solution.json"),
                    "--runs", "3", "--seed", "7", "--out", str(sim_out),
                    "--keep-paths"])
        assert code == 0
        doc = json.loads((sim_out / "simulation.json").read_text())
        assert doc["seed"] == 7
        assert doc["per_stratum"]["solo"]["trips"] == 30
        trips = json.loads((sim_out / "trips.json").read_text())
        started = [t for t in trips if t["started"]]
        assert started and all(t["arcs"] for t in started)

    def test_simulate_repeat_runs_byte_identical(self, tmp_path):
        ipath = write_two_route(tmp_path)
        solution = solve_two_route(tmp_path, ipath)
        outs = [tmp_path / name for name in ("a", "b")]
        for out in outs:
            assert run(["simulate", "--instance", str(ipath), "--solution", str(solution),
                        "--runs", "5", "--seed", "3", "--out", str(out),
                        "--keep-paths"]) == 0
        for fname in ("simulation.json", "trips.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_simulate_wide_seed_is_read_exactly(self, tmp_path):
        # 2**64 + 5 is past a float's 53 bits: its digits are read as an int,
        # so it neither rounds to 2**64 nor draws 2**64's trips
        ipath = write_two_route(tmp_path)
        solution = solve_two_route(tmp_path, ipath)
        trips = {}
        for seed in (2**64, 2**64 + 5):
            out = tmp_path / str(seed)
            assert run(["simulate", "--instance", str(ipath), "--solution", str(solution),
                        "--runs", "5", "--seed", str(seed), "--out", str(out),
                        "--keep-paths"]) == 0
            assert json.loads((out / "simulation.json").read_text())["seed"] == seed
            trips[seed] = (out / "trips.json").read_bytes()
        assert trips[2**64] != trips[2**64 + 5]

    def test_simulate_unknown_schema_version_is_usage_error(self, tmp_path, capsys):
        ipath = write_two_route(tmp_path)
        solution = solve_two_route(tmp_path, ipath)
        doc = json.loads(solution.read_text())
        doc["schema_version"] = 99
        solution.write_text(json.dumps(doc))
        code = run(["simulate", "--instance", str(ipath), "--solution", str(solution),
                    "--out", str(tmp_path / "sim")])
        assert code == EXIT_INVALID == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "schema version 99" in err

    def test_simulate_solution_of_another_network_is_usage_error(self, tmp_path, capsys):
        solution = solve_two_route(tmp_path, write_two_route(tmp_path))
        other = tmp_path / "single_od.json"
        save_instance(gen_single_od(), other)
        code = run(["simulate", "--instance", str(other), "--solution", str(solution),
                    "--out", str(tmp_path / "sim")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "different network" in err

    def test_simulation_json_is_strict_when_stratum_never_drives(self, tmp_path):
        # driving is hopeless, so no trip starts and the completed-trip
        # aggregates are undefined: they are written as null, not NaN
        inst = two_route_instance(outside_time=0.0, ticket=0.0, congestible=False)
        huge = [replace(a, length_km=1e5, free_speed_kmh=1.0) for a in inst.network.arcs]
        ipath = tmp_path / "never.json"
        save_instance(replace(inst, network=build_network(list(inst.network.nodes), huge)),
                      ipath)
        solution = solve_two_route(tmp_path, ipath)
        assert run(["simulate", "--instance", str(ipath), "--solution", str(solution),
                    "--runs", "2", "--out", str(tmp_path / "sim")]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads((tmp_path / "sim" / "simulation.json").read_text(),
                         parse_constant=reject)
        solo = doc["per_stratum"]["solo"]
        assert solo["started_proportion"] == 0.0
        assert solo["mean_time"] is None and solo["avg_speed"] is None
        assert solo["primary_share"] is None

    @pytest.mark.parametrize("flag, value, name", [("--runs", "-1", "runs_per_unit"),
                                                   ("--seed", "-3", "seed")])
    def test_simulate_negative_runs_or_seed_is_usage_error(self, tmp_path, capsys,
                                                           flag, value, name):
        ipath = write_two_route(tmp_path)
        solution = solve_two_route(tmp_path, ipath)
        code = run(["simulate", "--instance", str(ipath), "--solution", str(solution),
                    flag, value, "--out", str(tmp_path / "sim")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{name} must be >= 0" in err
        assert not (tmp_path / "sim").exists()

    def test_simulate_zero_runs_writes_no_trips(self, tmp_path, capsys):
        ipath = write_two_route(tmp_path)
        solution = solve_two_route(tmp_path, ipath)
        capsys.readouterr()
        assert run(["simulate", "--instance", str(ipath), "--solution", str(solution),
                    "--runs", "0", "--out", str(tmp_path / "sim")]) == 0
        assert capsys.readouterr().out.startswith("simulated 0 trips")
        solo = json.loads((tmp_path / "sim" / "simulation.json").read_text())["per_stratum"]["solo"]
        assert solo == {"trips": 0, "started_proportion": None, "mean_time": None,
                        "primary_share": None, "avg_speed": None}

    def test_sweep_config_negative_runs_is_usage_error(self, tmp_path, capsys):
        ipath = write_two_route(tmp_path)
        cpath = tmp_path / "sweep.json"
        cpath.write_text(json.dumps({
            "instance": ipath.name, "grid": {"family": "uniform", "lo": 0, "hi": 2, "step": 2},
            "simulate": True, "runs_per_unit": -1, "output": "out"}))
        assert run(["sweep", "--config", str(cpath)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "runs_per_unit must be >= 0" in err
        assert not (tmp_path / "out").exists()

    def test_config_free_sweep(self, tmp_path):
        ipath = write_two_route(tmp_path)
        code = run(["sweep", "--instance", str(ipath), "--scheme", "uniform",
                    "--grid", "0:6:2", "--out", str(tmp_path / "out")])
        assert code == 0
        assert len(load_results(tmp_path / "out")) == 4
        assert run(["sweep"]) == 1  # neither config nor inline grid

    def test_every_json_output_is_strict_and_ends_with_newline(self, tmp_path):
        # the "idle" stratum has no demand, so its started share is undefined
        assert run(["generate", "single-od", "--out", str(tmp_path / "inst.json")]) == 0
        doc = json.loads((tmp_path / "inst.json").read_text())
        doc["strata"].append(dict(doc["strata"][0], name="idle"))
        ipath = tmp_path / "idle.json"
        save_instance(load_instance(doc), ipath)
        assert run(["solve", "--instance", str(ipath), "--scheme", "uniform",
                    "--rate", "0.5", "--out", str(tmp_path / "solve")]) == 0
        solution = str(tmp_path / "solve" / "solution.json")
        for runs, extra in (("0", []), ("2", ["--keep-paths"])):
            assert run(["simulate", "--instance", str(ipath), "--solution", solution,
                        "--runs", runs, "--out", str(tmp_path / f"sim{runs}"), *extra]) == 0
        assert run(["sweep", "--instance", str(ipath), "--scheme", "uniform",
                    "--grid", "0:1:1", "--out", str(tmp_path / "sweep")]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        paths = sorted(tmp_path.rglob("*.json"))
        assert {"inst.json", "idle.json", "solve/solution.json", "solve/metrics.json",
                "sim0/simulation.json", "sim2/simulation.json", "sim2/trips.json",
                "sweep/manifest.json", "sweep/schemes/uniform_p0.json",
                "sweep/schemes/uniform_p1.json"} == {p.relative_to(tmp_path).as_posix()
                                                     for p in paths}
        for path in paths:
            text = path.read_text()
            json.loads(text, parse_constant=reject)
            assert text.endswith("\n"), path
        metrics = json.loads((tmp_path / "solve" / "metrics.json").read_text())
        assert metrics["trips_started"]["idle"] is None

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["frobnicate"]) == 1


# Every file mteq writes, by kind: one of each, from the commands of
# written_files, under the directory the fixture returns
WRITTEN = {
    "instance": "inst.json",
    "solution": "solve/solution.json",
    "metrics": "solve/metrics.json",
    "metrics_strata": "solve/metrics_strata.csv",
    "metrics_od": "solve/metrics_od.csv",
    "simulation": "sim/simulation.json",
    "trips": "sim/trips.json",
    "manifest": "sweep/manifest.json",
    "scheme": "sweep/schemes/uniform_p1.json",
    "results": "sweep/results.csv",
    "frontier": "sweep/frontier_total_welfare_total_revenue.csv",
}
# the CSV columns of ids, labels and flags; every other cell is a float
TEXT_COLUMNS = {"scheme_id", "family", "rates", "stratum", "origin", "destination",
                "converged", "inner_converged", "error"}


@pytest.fixture(scope="module")
def written_files(tmp_path_factory):
    """One of each output file, from the single-OD instance plus an "idle"
    stratum with no demand, whose undefined metrics (NaN) reach every kind."""
    work = tmp_path_factory.mktemp("written")
    doc = instance_to_document(gen_single_od())
    doc["strata"].append(dict(doc["strata"][0], name="idle"))
    save_instance(load_instance(doc), work / "inst.json")
    config = work / "sweep.json"
    config.write_text(json.dumps({"instance": "inst.json", "output": "sweep", "simulate": True,
                                  "runs_per_unit": 2,
                                  "grid": {"family": "uniform", "lo": 0, "hi": 1, "step": 1}}))
    inst = str(work / "inst.json")
    for argv in (["solve", "--instance", inst, "--scheme", "uniform", "--rate", "0.5",
                  "--out", str(work / "solve")],
                 ["simulate", "--instance", inst, "--solution", str(work / "solve/solution.json"),
                  "--runs", "2", "--keep-paths", "--out", str(work / "sim")],
                 ["sweep", "--config", str(config)],
                 ["pareto", "--results", str(work / "sweep"), "--x", "total_welfare",
                  "--y", "total_revenue"]):
        assert run(argv) == 0, argv
    return work


@pytest.mark.parametrize("kind", WRITTEN)
def test_every_output_has_one_encoding(written_files, kind):
    """A JSON file is one compact line with sorted keys and a final newline;
    a float cell of a CSV table is the shortest repr that reads back the
    same float."""
    path = written_files / WRITTEN[kind]
    if path.suffix == ".json":
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
        return
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    floats = [k for k, name in enumerate(header) if name not in TEXT_COLUMNS]
    assert floats and rows
    for row in rows:
        assert len(row) == len(header)
        for k in floats:
            assert row[k] == repr(float(row[k])), (header[k], row[k])
