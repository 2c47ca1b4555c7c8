"""Tests of the benchmark itself, on reduced sizes of the three workloads.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import answers
import hostspeed
import run
from tracing import PER_LAYER
from workloads import WORKLOADS, GridSimulate, GridSolve, SingleOdSweep, cli_run

SMALL = {
    "grid6_solve": lambda: GridSolve(rows=6, cols=6, pairs_per_group=1),
    "single_od_sweep": lambda: SingleOdSweep(lo=0.0, hi=200.0, step=100.0),
    "grid10_simulate": lambda: GridSimulate(rows=6, cols=6, runs=2),
}
COUNT_UNITS = ("count", "ratio")


def _execute(workload, out_root, trace, seconds=0.0, seed=3):
    bench = run.Run(workload, seed, seconds, trace, out_root=out_root)
    result = bench.execute()
    return result, bench.ops


def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_changes_no_output_and_counts_repeat(name, out_root):
    workload = SMALL[name]()
    plain, plain_ops = _execute(workload, out_root / "plain", trace=False)
    first, first_ops = _execute(workload, out_root / "first", trace=True)
    second, _ = _execute(workload, out_root / "second", trace=True)

    for result in (plain, first, second):
        assert result["correct"] and result["failed"] == 0
    # the untraced run sampled host speed during its ops and set-ups
    assert all(op["slowdown"] > 0 for op in plain_ops)
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert set(first["metrics"]) == set(PER_LAYER)
    assert [op["traced"] for op in first_ops] == [False, True]
    # traced and untraced (host-speed sampled) ops write byte-identical outputs
    digests = {json.dumps(op["sha256"], sort_keys=True) for op in plain_ops + first_ops}
    assert len(digests) == 1
    # every count repeats exactly across traced runs
    counts = lambda r: {k: m["value"] for k, m in r["metrics"].items()
                        if m["unit"] in COUNT_UNITS and k != "trace.overhead_frac"}
    assert counts(first) == counts(second)
    assert all(m["value"] >= 0 for k, m in first["metrics"].items() if k.endswith(".s"))


def test_sweep_trace_proves_the_grid_ran(out_root):
    workload = SMALL["single_od_sweep"]()
    result, _ = _execute(workload, out_root, trace=True)
    layer = {k: m["value"] for k, m in result["metrics"].items()}
    assert workload.rows == 11
    assert layer["experiments.schemes"] == workload.rows
    assert layer["equilibrium.solve_equilibrium.calls"] - 1 == workload.rows
    assert layer["equilibrium.pairs_per_pass"] == 3


def test_failed_op_counts_as_failed(out_root, monkeypatch):
    workload = SMALL["single_od_sweep"]()
    monkeypatch.setattr(workload, "argv", lambda state, out: ["sweep", "--out", out])
    result, ops = _execute(workload, out_root, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(ops) >= 1
    assert "exit code 1" in ops[0]["errors"]


def test_sweep_gate_rejects_an_errored_row(out_root):
    workload = SMALL["single_od_sweep"]()
    state = workload.setup(out_root, seed=0)
    out = out_root / "op"
    assert cli_run(workload.argv(state, out)) == 0
    assert workload.check(state, out) == []
    path = out / "results.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(",True,True,", ",False,True,")
    path.write_text("\n".join(lines) + "\n")
    assert any("converged=False" in e for e in workload.check(state, out))


def test_simulate_gate_matches_analytic_expectations(out_root):
    workload = SMALL["grid10_simulate"]()
    state = workload.setup(out_root, seed=5)
    out = out_root / "op"
    assert cli_run(workload.argv(state, out)) == 0
    assert workload.check(state, out) == []
    doc = json.loads((out / "simulation.json").read_text())
    doc["per_stratum"]["low"]["mean_time"] *= 1.05
    (out / "simulation.json").write_text(json.dumps(doc))
    assert any(e.startswith("low: mean time") for e in workload.check(state, out))


def test_answer_records_compare(out_root):
    workload = SMALL["single_od_sweep"]()
    _execute(workload, out_root, trace=False, seed=4)
    record = out_root / "answers" / "single_od_sweep_seed4_trace0.json"
    doc = json.loads(record.read_text())
    assert answers.compare(doc, doc)["max_abs"] == 0.0
    doc["values"]["columns"]["total_revenue"][-1] += 0.5
    doc["sha256"]["results.csv"] = "0"
    changed = out_root / "changed.json"
    changed.write_text(json.dumps(doc))
    diff = answers.compare(json.loads(record.read_text()), doc)
    assert diff["max_abs"] == pytest.approx(0.5)
    assert diff["max_abs_at"] == f"columns.total_revenue[{workload.rows - 1}]"
    assert diff["digests_differ"] == ["results.csv"]
    assert answers.main([str(record), str(changed)]) == 0


def test_refuses_to_run_without_the_program(out_root):
    bare = out_root / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid6_solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "cannot load the program" in proc.stderr



def test_sampler_takes_its_time_off_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one sample at each end and about one per interval between them
    assert len(sampler.samples) >= 2 + 0.3 / hostspeed.INTERVAL_S / 2
    assert 0 < sampler.spent_s < 0.5 * elapsed
    assert sampler.at_reference(elapsed) == pytest.approx(
        (elapsed - sampler.spent_s) * hostspeed.REFERENCE_S
        / (sum(sampler.samples) / len(sampler.samples)))
