"""Every invalid value that enters mteq, from an instance document, a sweep
config, a grid spec or a command-line flag, makes the CLI exit 1 with an
``error:`` line that names the field, and nothing is written.  NaN in each
instance field is test_instance.test_nan_field_is_rejected_by_name."""

import json
import math

import pytest

from mteq import load_instance, save_instance
from mteq.cli import EXIT_INVALID, run
from mteq.synthgen import gen_single_od

from conftest import INSTANCE_FIELDS, set_field

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


def assert_rejected(argv, name, out, capsys):
    """``argv`` exits 1 with one ``error:`` line naming ``name``, prints no
    traceback and leaves ``out`` unwritten."""
    capsys.readouterr()
    assert run([str(a) for a in argv]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "Traceback" not in err, err
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
    *[(f"tol-inner={v}", UNIFORM + [f"--tol-inner={v}"], "solver.inner_tol")
      for v in ("nan", "inf", "0", "-1", "abc")],
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
    ("solver.inner_tol=0", lambda c: c.update(solver={"inner_tol": 0}), "solver.inner_tol"),
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
