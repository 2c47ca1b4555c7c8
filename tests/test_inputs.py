"""Every invalid value that enters mteq, from an instance document, a sweep
config, a grid spec or a command-line flag, makes the CLI exit 1 with an
``error:`` line that names the field, and nothing is written.  NaN in each
instance field is test_instance.test_nan_field_is_rejected_by_name.  So does
every file of the wrong shape: each object or list section given another
kind, a file that cannot be read and a file that is not JSON; the line also
names the file."""

import csv
import json
import math
import shutil

import numpy as np
import pytest

from mteq import InstanceError, load_instance, save_instance
from mteq.cli import EXIT_INVALID, run
from mteq.equilibrium import SOLUTION_SCHEMA_VERSION, solution_from_dict
from mteq.synthgen import gen_single_od

from conftest import (INSTANCE_FIELDS, PACKED, pack, per_od_outside_document, set_field,
                      single_od_document, unpack)

BAD_VALUES = {"inf": math.inf, "-inf": -math.inf, "zero": 0, "negative": -1,
              "string": "abc", "null": None, "list": [1], "missing": "missing"}
WHOLE_NUMBER_FIELDS = ("lanes", "outer_max_iters")


def _instance_cases():
    for make_doc, path, name, valid in INSTANCE_FIELDS:
        values = dict(BAD_VALUES)
        if path[-1] in WHOLE_NUMBER_FIELDS:
            values["fraction"] = 1.5
        for label, value in values.items():
            case_id = ".".join(map(str, path)) + "=" + label
            yield pytest.param(make_doc, path, value, name, label in valid, id=case_id)


def assert_rejected(argv, name, out, capsys, file=None):
    """``argv`` exits 1 with one ``error:`` line naming ``name`` (and
    ``file``, when given), prints no traceback and leaves ``out`` unwritten."""
    capsys.readouterr()
    assert run([str(a) for a in argv]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "Traceback" not in err, err
    assert file is None or str(file) in err, err
    assert not out.exists()


@pytest.mark.parametrize("make_doc, path, value, name, valid", _instance_cases())
def test_instance_field(tmp_path, capsys, make_doc, path, value, name, valid):
    doc = set_field(make_doc(), path, value)
    if valid:
        load_instance(doc)
        return
    ipath = tmp_path / "inst.json"
    ipath.write_text(json.dumps(doc))
    if value == "missing":  # named by its path in the document
        name = f".{path[-1]}: missing required field"
    assert_rejected(["solve", "--instance", ipath, "--scheme", "uniform", "--rate", "1",
                     "--out", tmp_path / "out"], name, tmp_path / "out", capsys)


@pytest.fixture(scope="module")
def single_od(tmp_path_factory):
    """The single-OD instance and its solution at rate 1."""
    work = tmp_path_factory.mktemp("single_od")
    save_instance(gen_single_od(), work / "inst.json")
    assert run(["solve", "--instance", str(work / "inst.json"), "--scheme", "uniform",
                "--rate", "1", "--out", str(work / "solve")]) == 0
    return {"inst": work / "inst.json", "sol": work / "solve" / "solution.json"}


SOLVE = ["solve", "--instance", "{inst}", "--out", "{out}"]
UNIFORM = SOLVE + ["--scheme", "uniform", "--rate", "1"]
STRATUM = SOLVE + ["--scheme", "stratum", "--rates"]
AREA = SOLVE + ["--scheme", "area", "--rates", "N=0,E=0,S=0,W=0", "--areas"]
SWEEP = ["sweep", "--instance", "{inst}", "--scheme", "uniform", "--out", "{out}"]
SIMULATE = ["simulate", "--instance", "{inst}", "--solution", "{sol}", "--out", "{out}"]
GENERATE = ["generate", "grid", "--out", "{out}"]

# (id, argv, the name the error must give)
FLAG_CASES = [
    *[(f"rate={v}", SOLVE + ["--scheme", "uniform", f"--rate={v}"], "uniform rate")
      for v in ("nan", "inf", "-inf", "-1", "abc", "")],
    ("rate=absent", SOLVE + ["--scheme", "uniform"], "--rate"),
    *[(f"rates=low={v}", STRATUM + [f"low={v},mid=0,high=0"], "rate for 'low'")
      for v in ("nan", "inf", "-1", "abc")],
    ("rates=low", STRATUM + ["low"], "--rates"),
    *[(f"tol-outer={v}", UNIFORM + [f"--tol-outer={v}"], "solver.outer_tol")
      for v in ("nan", "-inf", "0", "abc")],
    *[(f"max-outer={v}", UNIFORM + [f"--max-outer={v}"], "solver.outer_max_iters")
      for v in ("0", "-2", "1.5", "inf", "abc")],
    ("areas=2y2", AREA + ["2y2"], "--areas"),
    ("areas=0x2", AREA + ["0x2"], "area rows"),
    ("areas=2x1.5", AREA + ["2x1.5"], "area cols"),
    ("areas=x", AREA + ["x"], "area rows"),
    ("sweep-grid=0:1", SWEEP + ["--grid", "0:1"], "--grid"),
    ("sweep-grid=0:1:1:1", SWEEP + ["--grid", "0:1:1:1"], "--grid"),
    ("sweep-grid=0:inf:1", SWEEP + ["--grid", "0:inf:1"], "grid hi"),
    ("sweep-grid=1:0:1", SWEEP + ["--grid", "1:0:1"], "grid hi"),
    ("sweep-grid=nan:1:1", SWEEP + ["--grid", "nan:1:1"], "grid lo"),
    ("sweep-grid=-1:1:1", SWEEP + ["--grid=-1:1:1"], "grid lo"),
    ("sweep-grid=0:1:0", SWEEP + ["--grid", "0:1:0"], "grid step"),
    ("sweep-grid=0:1:abc", SWEEP + ["--grid", "0:1:abc"], "grid step"),
    ("sweep-workers=0", SWEEP + ["--grid", "0:1:1", "--workers", "0"], "workers"),
    ("sweep-workers=abc", SWEEP + ["--grid", "0:1:1", "--workers", "abc"], "workers"),
    ("sweep-areas=2y2", SWEEP + ["--grid", "0:1:1", "--areas", "2y2"], "--areas"),
    ("sweep-areas=0x2", SWEEP + ["--grid", "0:1:1", "--areas", "0x2"], "area_rows"),
    *[(f"simulate-runs={v}", SIMULATE + [f"--runs={v}"], "runs_per_unit")
      for v in ("-1", "1.5", "nan", "abc")],
    *[(f"simulate-seed={v}", SIMULATE + [f"--seed={v}"], "seed")
      for v in ("-3", "0.5", "inf", "abc")],
    ("generate-rows=1", GENERATE + ["--rows", "1"], "rows"),
    ("generate-rows=abc", GENERATE + ["--rows", "abc"], "rows"),
    ("generate-cols=0", GENERATE + ["--cols", "0"], "cols"),
    ("generate-seed=-1", GENERATE + ["--seed=-1"], "seed"),
]


@pytest.mark.parametrize("argv, name", [c[1:] for c in FLAG_CASES],
                         ids=[c[0] for c in FLAG_CASES])
def test_flag(tmp_path, capsys, single_od, argv, name):
    out = tmp_path / "out"
    argv = [a.format(out=out, **single_od) for a in argv]
    assert_rejected(argv, name, out, capsys)


GRID = {"family": "uniform", "lo": 0, "hi": 1, "step": 1}
FLAG_VALUES = ("false", 0, 1, None)

# (id, change to a valid sweep config, the name the error must give)
SWEEP_CONFIG_CASES = [
    *[(f"missing-{key}", lambda c, k=key: c.pop(k), f"sweep config.{key}: missing")
      for key in ("instance", "grid")],
    *[(f"missing-grid.{key}", lambda c, k=key: c["grid"].pop(k),
       f"sweep config.grid.{key}: missing") for key in GRID],
    ("grid.family=bogus", lambda c: c["grid"].update(family="bogus"), "bogus"),
    ("grid.lo=nan", lambda c: c["grid"].update(lo=math.nan), "grid lo"),
    ("grid.hi=abc", lambda c: c["grid"].update(hi="abc"), "grid hi"),
    ("grid.step=0", lambda c: c["grid"].update(step=0), "grid step"),
    ("grid.step=null", lambda c: c["grid"].update(step=None), "grid step"),
    *[(f"{key}={value}", lambda c, k=key, v=value: c.update({k: v}), f"sweep config: {key}")
      for key, value in (("workers", 0), ("workers", 1.5), ("area_rows", 0),
                         ("area_cols", "abc"), ("runs_per_unit", -1),
                         ("runs_per_unit", math.inf), ("seed", -1), ("seed", 0.5),
                         ("seed", None))],
    # a flag is JSON true or false: the string "false" is not false
    *[(f"{key}={json.dumps(value)}", change, name)
      for value in FLAG_VALUES
      for key, change, name in (
          ("simulate", lambda c, v=value: c.update(simulate=v), "sweep config: simulate"),
          ("grid.ordered", lambda c, v=value: c["grid"].update(ordered=v), "grid ordered"))],
]


@pytest.mark.parametrize("change, name", [c[1:] for c in SWEEP_CONFIG_CASES],
                         ids=[c[0] for c in SWEEP_CONFIG_CASES])
def test_sweep_config(tmp_path, capsys, single_od, change, name):
    config = {"instance": str(single_od["inst"]), "grid": dict(GRID), "output": "out",
              "simulate": True}
    change(config)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert_rejected(["sweep", "--config", path], name, tmp_path / "out", capsys)


# (grid spec field, value, the name the error must give): a spec field of
# the lattice's roads is named as the arc field it lands in
GRID_SPEC_CASES = [
    ("rows", 1, "grid spec rows"), ("rows", 2.5, "grid spec rows"),
    ("cols", "abc", "grid spec cols"), ("pairs_per_group", 0, "grid spec pairs_per_group"),
    ("seed", -1, "grid spec seed"), ("seed", 0.5, "grid spec seed"),
    ("min_od_distance_km", math.nan, "grid spec min_od_distance_km"),
    ("min_od_distance_km", -1, "grid spec min_od_distance_km"), ("bogus", 1, "bogus"),
    ("primary_length_km", -1, "arc primary: length_km"),
    ("primary_speed_kmh", math.inf, "arc primary: free_speed_kmh"),
    ("primary_lanes", 1.5, "arc primary: lanes"),
    ("secondary_length_km", 0, "arc secondary: length_km"),
    ("secondary_speed_kmh", "abc", "arc secondary: free_speed_kmh"),
    ("trips_per_pair", 0, "trips"), ("ticket", -1, "outside_option.ticket"),
    ("outside_multiplier", math.inf, "outside_option.multiplier"),
    ("time_sensitivity", "abc", "time_sensitivity"), ("time_sensitivity", 0, "time_sensitivity"),
    ("car_length_km", 0, "car_length_km"),
    # the default: no two nodes of the 4x4 lattice are 5 km apart, so no demand
    ("min_od_distance_km", 5, "grid spec min_od_distance_km"),
]


@pytest.mark.filterwarnings("ignore:.*qualif")
@pytest.mark.parametrize("key, value, name", GRID_SPEC_CASES,
                         ids=[f"{key}={value}" for key, value, _ in GRID_SPEC_CASES])
def test_grid_spec(tmp_path, capsys, key, value, name):
    # OD pairs 1 km apart qualify on the 4x4 lattice, so demand is sampled
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"rows": 4, "cols": 4, "pairs_per_group": 1,
                                "min_od_distance_km": 1.0, key: value}))
    assert_rejected(["generate", "grid", "--spec", spec, "--out", tmp_path / "out"],
                    name, tmp_path / "out", capsys)


KINDS = {"object": {"a": 1}, "list": [1], "string": "abc", "number": 5, "null": None}
NAME_VALUES = {"list": [1], "object": {"a": 1}, "null": None, "fraction": 1.5}
PAIR = "sub.high|3"  # a (stratum, destination) pair of the single-OD solution
ARRAYS = ("total_flow", "response_flow", "price_rates")
ENDS = ("origins", "trips", "start_prob")  # a solution's columns of one entry per origin
STATUS = ("tau_converged", "tau_residual", "tau_iterations")  # ... of one entry per pair
# a valid simulation block of a single-OD detail file
SIM = {**{key: {"high": 0.5, "mid": 0.5, "low": None}
          for key in ("trips_started", "mean_time", "primary_share")}, "truncated": 0}
TABLES = ("welfare", "welfare_delta", "revenue", "trips_started", "primary_share_distance",
          "primary_share_flow", "avg_speed_trip", "avg_speed_flow")

# (file, path to a section of it, its kind, the name the error must give):
# the section is given every other kind of KINDS; a "packed" array (a string,
# see conftest.pack) is given every kind, "abc" not being base64
SECTIONS = [
    ("instance", "", "object", "document"),
    *[("instance", key, "list", key) for key in ("nodes", "arcs", "strata", "demand")],
    *[("instance", f"{key}.0", "object", f"{key}[0]")
      for key in ("nodes", "arcs", "strata", "demand")],
    *[("instance", key, "object", key) for key in ("defaults", "outside_option", "solver")],
    ("per_od", "outside_option.times", "list", "outside_option.times"),
    *[("per_od", f"outside_option.{key}.0", "object", f"outside_option.{key}[0]")
      for key in ("ticket", "times")],
    ("csv", "network_csv", "object", "network_csv"),
    *[("csv", f"network_csv.{key}", "string", f"network_csv.{key}") for key in ("nodes", "arcs")],
    ("config", "", "object", "sweep config"),
    ("config", "grid", "object", "sweep config.grid"),
    *[("config", f"grid.{key}", "list", f"sweep config.grid.{key}")
      for key in ("strata_order", "areas")],
    ("config", "solver", "object", "solver"),
    *[("config", key, "string", f"sweep config.{key}") for key in ("instance", "output")],
    ("spec", "", "object", "grid spec"),
    ("solution", "", "object", "solution"),
    ("solution", "sub", "object", "solution.sub"),
    # a pair given a value that is not its fields: its name in sub.pairs
    ("solution", PAIR, "object", "solution.sub.pairs[0]"),
    *[("solution", key, "list", f"solution.{key}") for key in ("strata", "iteration_log")],
    *[("solution", f"sub.{key}", "list", f"solution.sub.{key}")
      for key in ("pairs", "origin_counts", *STATUS)],
    *[("solution", key, "array", f"solution.{key}") for key in ARRAYS],
    # a field of the pair given a value of another kind: its column
    *[("solution", f"{PAIR}.{key}", "array", f"solution.sub.{key}") for key in ENDS],
    *[("solution", f"{PAIR}.{key}", "packed", f"solution.sub.{key}") for key in PACKED],
    ("manifest", "", "object", "manifest"),
    ("manifest", "scheme_ids", "list", "manifest.scheme_ids"),
    ("detail", "", "object", "result"),
    *[("detail", key, "object", f"result.{key}") for key in TABLES],
    ("detail", "rate_vector", "list", "result.rate_vector"),
    ("resume", "", "object", "result"),
    ("resume", "welfare", "object", "result.welfare"),
]

# (file, path to a value, the value, the name the error must give): names,
# per-OD tickets and solution entries given a value of the right kind but
# not the right form
VALUES = [
    *[("instance", path, value, name) for path, name in (
        ("nodes.0.id", "node id"), ("arcs.0.id", "arc id"), ("arcs.0.tail", "arc s01: tail"),
        ("arcs.0.head", "arc s01: head"), ("arcs.0.road_class", "road_class"),
        ("strata.0.name", "stratum name"), ("demand.0.stratum", "demand stratum"),
        ("demand.0.origin", "demand origin"), ("demand.0.destination", "demand destination"))
      for value in NAME_VALUES.values()],
    *[("per_od", f"outside_option.ticket.0.{key}", value, f"outside_option.ticket[0].{key}")
      for key in ("origin", "destination") for value in NAME_VALUES.values()],
    *[("per_od", "outside_option.ticket", value, "outside_option.ticket")
      for value in ({"a": 1}, "abc", None)],  # a number is a fare for every OD pair
    ("config", "grid.strata_order", [[1]], "grid strata_order"),
    ("solution", "strata", [[1]], "solution.strata[0]"),
    *[("solution", f"{PAIR}.origins", value, f"solution.{PAIR}.origins")
      for value in ([1.5], [-1], [99], [True], ["0"])],
    ("solution", "sub.nope", {}, "solution.sub.pairs[0]: 'nope'"),  # a pair not solved for
    *[("solution", "schema_version", value, f"solution schema version {value!r}")
      for value in (True, 3.0)],  # True == 1 and 3.0 == 3 in Python, not in the schema
    ("solution", "sub.high|99", {}, "solution.sub.pairs[0]: 'high|99'"),
    ("solution", "sub.pairs.1", "high|3", "solution.sub.pairs[1]: 'high|3'"),  # listed twice
    # each pair's count of origins: whole numbers >= 0 that add up to the
    # length of the columns of one entry per origin
    *[("solution", "sub.origin_counts.0", value, "solution.sub.origin_counts must be whole")
      for value in (-1, 1.5, True, "1")],
    ("solution", "sub.origin_counts.0", 2, "solution.sub.origins must be a list of 4"),
    ("solution", "sub.tau_residual", [0.0], "solution.sub.tau_residual must be a list of 3"),
    # status fields: flags true or false, counts and residuals numbers >= 0,
    # each iteration log entry an object with both fields
    *[("solution", key, value, f"solution.{key}")
      for key in ("converged", "inner_converged") for value in FLAG_VALUES],
    *[("solution", f"{PAIR}.tau_converged", value, f"solution.{PAIR}.tau_converged")
      for value in FLAG_VALUES],
    *[("solution", key, value, f"solution.{key}")
      for key in ("outer_iterations", f"{PAIR}.tau_iterations")
      for value in (-3, 1.5, "abc", True, None)],
    *[("solution", key, value, f"solution.{key}")
      for key in ("outer_residual", f"{PAIR}.tau_residual")
      for value in (-1.0, math.inf, "abc", None)],
    ("solution", "iteration_log", [1, 2], "solution.iteration_log[0] must be an object"),
    ("solution", "iteration_log.0.iteration", -1, "solution.iteration_log[0].iteration"),
    ("solution", "iteration_log.0.residual", "abc", "solution.iteration_log[0].residual"),
    ("solution", "iteration_log.0", {"iteration": 0},
     "solution.iteration_log[0].residual: missing"),
    ("manifest", "scheme_ids", [[1]], "manifest.scheme_ids[0]"),
    # numbers out of range in a solution: flows, trips and price rates must be
    # finite and nonnegative, probabilities in [0, 1], expected costs finite
    *[("solution", f"{PAIR}.{key}.0", value, f"solution.{PAIR}.{key}")
      for key in ("entering_flow", "trips") for value in (-1.0, math.inf, math.nan)],
    *[("solution", f"{PAIR}.{key}.0", value, f"solution.{PAIR}.{key}")
      for key in ("start_prob", "arc_probs") for value in (-0.5, 1.5, math.nan)],
    *[("solution", f"{PAIR}.tau.0", value, f"solution.{PAIR}.tau")
      for value in (math.inf, -math.inf, math.nan)],
    # a bad value of a later pair's row names that pair
    *[("solution", f"sub.{pair}.{key}.{index}", -1.0, f"solution.sub.{pair}.{key}")
      for pair, key, index in (("mid|3", "trips", 0), ("low|3", "entering_flow", 2),
                               ("mid|3", "arc_probs", 5))],
    ("solution", "sub.low|3.tau_iterations", -1, "solution.sub.low|3.tau_iterations"),
    ("solution", "sub.mid|3.origins", [7], "solution.sub.mid|3.origins"),
    *[("solution", path, value, f"solution.{path.split('.')[0]}")
      for path in ("total_flow.0", "response_flow.0", "price_rates.0.0")
      for value in (-1.0, math.inf, math.nan)],
    # metric values of a detail file, read by pareto and by a resumed sweep
    *[(file, path, "abc", f"result.{path}")
      for file in ("detail", "resume")
      for path in ("total_welfare", "total_revenue", "welfare.low", "avg_speed_flow.high")],
    # rates of a detail file: finite numbers >= 0
    *[(file, "rate_vector.0", value, "result.rate_vector[0]")
      for file in ("detail", "resume") for value in ("x", None, -1.0, math.inf)],
    ("detail", "rate_vector", ["x", None], "result.rate_vector[0]"),
    # a detail file's simulation block: each table a value (or null) for each
    # stratum, and a whole number of truncated trips
    ("detail", "sim", {"truncated": "x"}, "result.sim.trips_started: missing"),
    *[(file, "sim", {**SIM, **change}, f"result.sim.{name}")
      for file in ("detail", "resume") for change, name in (
          ({"truncated": "x"}, "truncated"), ({"truncated": -1}, "truncated"),
          ({"truncated": 1.5}, "truncated"), ({"trips_started": [0.5]}, "trips_started"),
          ({"mean_time": {**SIM["mean_time"], "high": "x"}}, "mean_time.high"),
          ({"primary_share": {"high": 0.5}}, "primary_share has strata"))],
]


def _shape_cases():
    for file, path, kind, name in SECTIONS:
        for label, value in KINDS.items():
            if label == kind:
                continue
            if kind == "array" and label == "list":
                value = [1.0, 2.0]  # a list of the wrong length
            yield pytest.param(file, path, value, name, id=f"{file}:{path or 'root'}={label}")
    for file, path, value, name in VALUES:
        yield pytest.param(file, path, value, name, id=f"{file}:{path}={json.dumps(value)}")


@pytest.fixture(scope="module")
def results(tmp_path_factory, single_od):
    """A sweep's results directory: the toll-free and the rate-1 scheme."""
    out = tmp_path_factory.mktemp("results") / "sweep"
    assert run(["sweep", "--instance", str(single_od["inst"]), "--scheme", "uniform",
                "--grid", "0:1:1", "--out", str(out)]) == 0
    return out


def _csv_document(work):
    """single_od_document with its network in the CSV files beside it."""
    doc = single_od_document()
    for key in ("nodes", "arcs"):
        with open(work / f"{key}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(doc[key][0]))
            writer.writeheader()
            writer.writerows(doc.pop(key))
    doc["network_csv"] = {"nodes": "nodes.csv", "arcs": "arcs.csv"}
    return doc


def _shape_argv(file, tmp_path, single_od, results):
    """(the document of ``file`` to change, where to write it, the command
    that reads it, the path the command must leave unwritten)."""
    out, inst = tmp_path / "out", single_od["inst"]
    if file in ("instance", "per_od", "csv"):
        doc = {"instance": single_od_document, "per_od": per_od_outside_document,
               "csv": lambda: _csv_document(tmp_path)}[file]()
        path = tmp_path / "inst.json"
        return doc, path, ["solve", "--instance", path, "--scheme", "uniform", "--rate", "1",
                           "--out", out], out
    if file == "config":
        doc = {"instance": str(inst), "output": "out", "solver": {"outer_tol": 1.0},
               "grid": {"family": "per_stratum", "lo": 0, "hi": 1, "step": 1,
                        "strata_order": ["low", "mid", "high"], "areas": []}}
        return doc, tmp_path / "sweep.json", ["sweep", "--config", tmp_path / "sweep.json"], out
    if file == "spec":
        doc = {"rows": 4, "cols": 4, "pairs_per_group": 1, "min_od_distance_km": 1.0}
        path = tmp_path / "spec.json"
        return doc, path, ["generate", "grid", "--spec", path, "--out", out], out
    if file == "solution":
        path = tmp_path / "solution.json"
        return (json.loads(single_od["sol"].read_text()), path,
                ["simulate", "--instance", inst, "--solution", path, "--out", out], out)
    sweep = tmp_path / "sweep"
    shutil.copytree(results, sweep)
    if file == "manifest":
        path = sweep / "manifest.json"
    else:
        path = sweep / "schemes" / "uniform_p0.json"
    if file == "resume":  # the other scheme is solved again, then the tables written
        for name in ("manifest.json", "results.csv", "schemes/uniform_p1.json"):
            (sweep / name).unlink()
        return (json.loads(path.read_text()), path,
                ["sweep", "--instance", inst, "--scheme", "uniform", "--grid", "0:1:1",
                 "--out", sweep], sweep / "results.csv")
    return (json.loads(path.read_text()), path,
            ["pareto", "--results", sweep, "--x", "total_welfare", "--y", "welfare:low"],
            sweep / "frontier_total_welfare_welfare_low.csv")


def set_solution_field(doc: dict, steps: tuple, value) -> dict:
    """``doc``, a solution, with a field set as set_field sets it.  Steps
    ("sub", pair, ...) name a place of the pair's own, in sub's columns of
    one row per pair: ("sub", pair) is the pair's name in ``pairs`` (a pair
    the solution lacks renames the first); ("sub", pair, key) the pair's
    entry of a status column, its run of a column of one entry per origin
    when ``value`` is a list, and otherwise the column whole; ("sub", pair,
    key, i) the pair's i-th value of the column."""
    sub = doc["sub"]
    if steps[:1] != ("sub",) or len(steps) < 2 or steps[1] in sub:
        return set_field(doc, steps, value)
    pairs, counts = sub["pairs"], sub["origin_counts"]
    row = pairs.index(steps[1]) if steps[1] in pairs else 0
    if len(steps) == 2:
        pairs[row] = value if steps[1] in pairs else steps[1]
        return doc
    key, *index = steps[2:]
    first = row * len(unpack(sub[key])) // len(pairs) if key in PACKED else sum(counts[:row])
    if index:
        return set_field(doc, ("sub", key, first + index[0]), value)
    if key in STATUS:
        sub[key][row] = value
    elif key in ENDS and type(value) is list:
        sub[key][first:first + counts[row]] = value
    else:
        sub[key] = value
    return doc


@pytest.mark.parametrize("file, path, value, name", _shape_cases())
def test_document_shape(tmp_path, capsys, single_od, results, file, path, value, name):
    doc, where, argv, out = _shape_argv(file, tmp_path, single_od, results)
    steps = tuple(int(step) if step.isdigit() else step for step in path.split(".")) if path else ()
    change = set_solution_field if file == "solution" else set_field
    where.write_text(json.dumps(change(doc, steps, value) if steps else value))
    assert_rejected(argv, name, out, capsys, file=where)


@pytest.mark.parametrize("change", ["list", "not-base64", "stray-character", "short"])
@pytest.mark.parametrize("key", PACKED)
def test_packed_array(tmp_path, capsys, single_od, key, change):
    """A solution stores the tau, entering_flow and arc_probs of every pair
    packed, a column of one row per pair: a list in place of a packed column
    (even of the right length), text that is not strict base64 or the bytes
    of one value fewer exits 1 naming the column."""
    doc = json.loads(single_od["sol"].read_text())
    sub = doc["sub"]
    values = unpack(sub[key])
    text = pack(values)
    sub[key] = {"list": values.tolist(), "not-base64": "not base64",
                "stray-character": text[:8] + "!" + text[8:], "short": pack(values[:-1])}[change]
    path, out = tmp_path / "solution.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert_rejected(["simulate", "--instance", single_od["inst"], "--solution", path,
                     "--out", out], f"solution.sub.{key} must be", out, capsys, file=path)


# (id, the command given the paths of the single-OD files, the name the error
# must give); {dir} is a directory, {bad} a file holding invalid JSON
UNREADABLE_CASES = [
    ("validate-instance=dir", ["validate", "--instance", "{dir}"], "{dir}"),
    ("solve-instance=dir", UNIFORM[:2] + ["{dir}"] + UNIFORM[3:], "{dir}"),
    ("solve-instance=missing", UNIFORM[:2] + ["{dir}/none.json"] + UNIFORM[3:], "none.json"),
    ("solve-instance=invalid", UNIFORM[:2] + ["{bad}"] + UNIFORM[3:], "{bad}: not valid JSON"),
    ("sweep-instance=dir", ["sweep", "--instance", "{dir}", "--scheme", "uniform",
                            "--grid", "0:1:1", "--out", "{out}"], "{dir}"),
    ("sweep-config=dir", ["sweep", "--config", "{dir}", "--out", "{out}"], "{dir}"),
    ("sweep-config=invalid", ["sweep", "--config", "{bad}", "--out", "{out}"], "{bad}"),
    ("simulate-solution=dir", SIMULATE[:4] + ["{dir}"] + SIMULATE[5:], "{dir}"),
    ("simulate-solution=invalid", SIMULATE[:4] + ["{bad}"] + SIMULATE[5:], "{bad}"),
    ("simulate-instance=dir", SIMULATE[:2] + ["{dir}"] + SIMULATE[3:], "{dir}"),
    ("generate-spec=dir", GENERATE + ["--spec", "{dir}"], "{dir}"),
    ("generate-spec=invalid", GENERATE + ["--spec", "{bad}"], "{bad}"),
    ("pareto-manifest=dir", ["pareto", "--results", "{dir}", "--x", "total_welfare",
                             "--y", "total_revenue"], "{dir}/manifest.json"),
    ("pareto-x=bogus", ["pareto", "--results", "{results}", "--x", "bogus",
                        "--y", "total_revenue"], "'bogus'"),
    ("pareto-y=welfare:nobody", ["pareto", "--results", "{results}", "--x", "total_welfare",
                                 "--y", "welfare:nobody"], "'welfare:nobody'"),
    *[(f"pareto-x={name}", ["pareto", "--results", "{results}", "--x", name,
                            "--y", "total_revenue"], f"'{name}'")
      for name in ("error", "scheme_id", "outer_residual", "welfare", "total_welfare:low")],
]


@pytest.mark.parametrize("argv, name", [c[1:] for c in UNREADABLE_CASES],
                         ids=[c[0] for c in UNREADABLE_CASES])
def test_unreadable_file(tmp_path, capsys, single_od, results, argv, name):
    paths = {"dir": tmp_path / "dir", "bad": tmp_path / "bad.json", "out": tmp_path / "out",
             "results": tmp_path / "results", **single_od}
    (paths["dir"] / "manifest.json").mkdir(parents=True)  # a results manifest that is a directory
    paths["bad"].write_text('{"nodes": [\n')
    shutil.copytree(results, paths["results"])
    argv = [a.format(**paths) for a in argv]
    assert_rejected(argv, name.format(**paths), paths["out"], capsys)
    assert not list(tmp_path.glob("*/frontier_*"))


@pytest.mark.parametrize("command", [
    UNIFORM, SIMULATE, ["sweep", "--instance", "{inst}", "--scheme", "uniform",
                        "--grid", "0:1:1", "--out", "{out}"],
    ["generate", "single-od", "--out", "{dir}"]])
def test_output_path_taken(tmp_path, capsys, single_od, command):
    """An --out that names a file (or, for a written file, a directory)
    exits 1 naming it, and what is there is left alone."""
    out, taken = tmp_path / "out", tmp_path / "dir"
    out.write_text("mine")
    taken.mkdir()
    argv = [a.format(out=out, dir=taken, **single_od) for a in command]
    capsys.readouterr()
    assert run(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    named = taken if "{dir}" in command else out
    assert err.startswith("error: ") and str(named) in err and "Traceback" not in err, err
    assert out.read_text() == "mine" and list(taken.iterdir()) == []


@pytest.mark.parametrize("table, value_key", [("ticket", "ticket"), ("times", "time")],
                         ids=["ticket", "times"])
@pytest.mark.parametrize("command", ["validate", "solve"])
def test_per_od_table_without_a_demanded_od(tmp_path, capsys, table, value_key, command):
    # single-OD's demand runs from 0 to 3; the table covers only 1 -> 3
    doc = per_od_outside_document()
    doc["outside_option"][table] = [{"origin": "1", "destination": "3", value_key: 5.0}]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    argv = ["validate", "--instance", path] if command == "validate" else [
        a.format(inst=path, out=tmp_path / "out") for a in UNIFORM]
    assert_rejected(argv, f"outside_option.{table}: missing OD (0, 3)", tmp_path / "out",
                    capsys, file=path)


def test_solution_of_other_strata(tmp_path, capsys, single_od):
    solution = tmp_path / "solution.json"
    solution.write_text(single_od["sol"].read_text().replace('"low', '"poor'))
    assert_rejected(["simulate", "--instance", single_od["inst"], "--solution", solution,
                     "--out", tmp_path / "out"], "['poor']", tmp_path / "out", capsys,
                    file=solution)


def test_solution_of_another_stratum_order(tmp_path, capsys, single_od):
    # solved on the instance (strata high, mid, low), simulated against the
    # same instance with its strata reversed: its price rows would be read
    # in the wrong order, so the file is refused, naming both orders
    assert run(["solve", "--instance", str(single_od["inst"]), "--scheme", "stratum",
                "--rates", "high=0,mid=50,low=100", "--out", str(tmp_path / "solve")]) == 0
    doc = json.loads(single_od["inst"].read_text())
    doc["strata"].reverse()
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(doc))
    solution = tmp_path / "solve" / "solution.json"
    assert_rejected(["simulate", "--instance", flipped, "--solution", solution,
                     "--out", tmp_path / "out"], "the price_rates rows are strata ['high', "
                    "'mid', 'low'], the instance lists ['low', 'mid', 'high']", tmp_path / "out",
                    capsys, file=solution)


def per_pair_layout(sub: dict) -> dict:
    """The ``sub`` of a schema-5 solution in the layout of schemas 1-4: an
    object of each pair's own fields under its name, arrays packed."""
    k, ends = len(sub["pairs"]), np.cumsum([0] + sub["origin_counts"]).tolist()
    return {pair: {**{key: pack(unpack(sub[key]).reshape(k, -1)[i]) for key in PACKED},
                   **{key: sub[key][ends[i]:ends[i + 1]] for key in ENDS},
                   **{key: sub[key][i] for key in STATUS}}
            for i, pair in enumerate(sub["pairs"])}


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_solution_of_an_older_schema_is_refused(tmp_path, capsys, single_od, version):
    # only the current schema is read: an older file, here the current one
    # with an object per pair (schemas 1-4), its strata sorted as schemas
    # 1-3 listed them and its per-pair arrays lists before schema 3, is
    # solved again, never misread
    doc = json.loads(single_od["sol"].read_text())
    doc.update(schema_version=version, sub=per_pair_layout(doc["sub"]))
    if version < 4:
        doc["strata"] = sorted(doc["strata"])
    if version < 3:
        for entry in doc["sub"].values():
            entry.update({key: unpack(entry[key]).tolist() for key in PACKED})
    message = f"solution schema version {version} is not {SOLUTION_SCHEMA_VERSION}: solve again"
    network = load_instance(single_od["inst"]).network
    with pytest.raises(InstanceError, match=f"^{message}"):
        solution_from_dict(doc, network)
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps(doc))
    assert_rejected(["simulate", "--instance", single_od["inst"], "--solution", solution,
                     "--out", tmp_path / "out"], f"{solution}: {message}", tmp_path / "out",
                    capsys)


def test_solution_missing_a_stratum_of_the_instance(tmp_path, capsys, single_od):
    # solved on the instance without stratum "high", simulated against the
    # full instance: its price rates have a row fewer than the instance has strata
    doc = json.loads(single_od["inst"].read_text())
    doc["strata"] = [s for s in doc["strata"] if s["name"] != "high"]
    doc["demand"] = [e for e in doc["demand"] if e["stratum"] != "high"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(doc))
    assert run(["solve", "--instance", str(partial), "--scheme", "uniform", "--rate", "1",
                "--out", str(tmp_path / "solve")]) == 0
    solution = tmp_path / "solve" / "solution.json"
    assert_rejected(["simulate", "--instance", single_od["inst"], "--solution", solution,
                     "--out", tmp_path / "out"], "['high'] of the instance are not in the "
                    "solution", tmp_path / "out", capsys, file=solution)
