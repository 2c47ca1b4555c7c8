import hashlib
import json
import math
import re
import warnings
from dataclasses import replace

import pytest

from mteq import (
    DemandEntry,
    Instance,
    InstanceError,
    SolverOptions,
    Stratum,
    all_trip_stats,
    assign_areas,
    instance_to_document,
    load_instance,
    outside_costs,
    save_instance,
    solve_equilibrium,
    zero_prices,
)
from mteq import cli
from mteq.network import Arc, Node, build_network, write_json
from mteq.synthgen import GridGenSpec, gen_grid, gen_single_od

from conftest import (INSTANCE_FIELDS, default_bpr_document, flat_arc, set_field,
                      single_od_document, two_route_instance)


# (document, path to the field, what the error says)
NAN_FIELDS = [(make_doc, path, f"{name} must be a finite number, got nan")
              for make_doc, path, name, _valid in INSTANCE_FIELDS]


@pytest.mark.parametrize("make_doc, path, message", NAN_FIELDS,
                         ids=[".".join(map(str, path)) for _, path, _ in NAN_FIELDS])
def test_nan_field_is_rejected_by_name(tmp_path, capsys, make_doc, path, message):
    doc = set_field(make_doc(), path, float("nan"))
    with pytest.raises(InstanceError, match=re.escape(message)):
        load_instance(doc)
    ipath = tmp_path / "nan.json"
    ipath.write_text(json.dumps(doc))  # json writes the bare token NaN
    assert cli.run(["solve", "--instance", str(ipath), "--scheme", "uniform",
                    "--rate", "1", "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


#: the values a record field can be given, beyond NaN: record types hold any
RECORD_VALUES = {"inf": math.inf, "zero": 0, "negative": -1, "string": "abc", "numeric": "2.5",
                 "null": None, "list": [1], "true": True, "fraction": 1.5}
#: (path, value) of every node, arc, stratum and demand field of
#: INSTANCE_FIELDS; a null capacity is left out: a document's is filled from
#: lanes and length, a record's is not set
RECORD_CASES = [pytest.param(path, value, id=".".join(map(str, path)) + "=" + label)
                for make_doc, path, _name, valid in INSTANCE_FIELDS
                if make_doc is single_od_document
                and path[0] in ("nodes", "arcs", "strata", "demand")
                for label, value in RECORD_VALUES.items()
                if not (label == "null" and "null" in valid)]


def records_instance(doc):
    """The Instance of the records of ``doc``: build_network of its Node
    and Arc records, then Instance of them with its Stratum and DemandEntry
    records (its outside option and car length as loaded)."""
    loaded = load_instance(single_od_document())
    network = build_network([Node(**row) for row in doc["nodes"]],
                            [Arc(**row) for row in doc["arcs"]])
    return Instance(network, [Stratum(**row) for row in doc["strata"]],
                    [DemandEntry(**row) for row in doc["demand"]], loaded.outside,
                    doc["defaults"]["car_length_km"])


@pytest.mark.parametrize("path, value", RECORD_CASES)
def test_records_load_and_fail_as_their_document(path, value):
    # a record holds any value; its network or instance refuses a bad one
    # with the message load_instance gives, and takes a good one as loaded
    doc = set_field(single_od_document(), path, value)
    outcomes = []
    for build in (load_instance, records_instance):
        try:
            outcomes.append(instance_to_document(build(doc)))
        except InstanceError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("faults, message", [
    # a network's columns are checked in field order, each from its first row
    ({("arcs", 0, "bpr_nu"): -1, ("arcs", 3, "length_km"): -1},
     "arc s13: length_km must be > 0, got -1"),
    ({("arcs", 0, "road_class"): "x", ("arcs", 1, "lanes"): 0}, "arc p02: lanes must be >= 1"),
    ({("nodes", 1, "x"): "abc", ("nodes", 0, "y"): None}, "node 1: x must be a finite number"),
    # the sections are read before their values are checked
    ({("nodes", 1, "x"): "abc", ("arcs", 2, "tail"): "missing"},
     "arcs[2].tail: missing required field"),
    # demand is checked row by row, each row whole
    ({("demand", 0, "stratum"): "zz", ("demand", 1, "trips"): 0},
     "demand[0].stratum: unknown stratum 'zz'"),
    # the outside option and solver are read before strata and demand are checked
    ({("strata", 1, "beta_t"): 0, ("outside_option", "multiplier"): -1},
     "outside_option.multiplier must be > 0"),
], ids=["arc columns", "road class last", "node columns", "shape first", "demand rows",
        "outside first"])
def test_two_faults_name_the_first_checked(faults, message):
    doc = single_od_document()
    for path, value in faults.items():
        set_field(doc, path, value)
    with pytest.raises(InstanceError, match=re.escape(message)):
        load_instance(doc)


def csv_network_document(tmp_path):
    """The single-OD instance written with its network as a CSV pair
    (``network_csv``) next to it in ``tmp_path``: the document's path."""
    doc = single_od_document()
    nodes, arcs = doc.pop("nodes"), doc.pop("arcs")
    node_cols = ["id", "x", "y"]
    arc_cols = ["id", "tail", "head", "length_km", "free_speed_kmh",
                "lanes", "road_class", "capacity", "bpr_gamma", "bpr_nu"]
    with open(tmp_path / "nodes.csv", "w") as fh:
        fh.write(",".join(node_cols) + "\n")
        for r in nodes:
            fh.write(",".join(str(r[c]) for c in node_cols) + "\n")
    with open(tmp_path / "arcs.csv", "w") as fh:
        fh.write(",".join(arc_cols) + "\n")
        for r in arcs:
            fh.write(",".join(str(r[c]) for c in arc_cols) + "\n")
    doc["network_csv"] = {"nodes": "nodes.csv", "arcs": "arcs.csv"}
    with open(tmp_path / "inst.json", "w") as fh:
        json.dump(doc, fh)
    return tmp_path / "inst.json"


def grid6():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # area groups the lattice skips
        return gen_grid(GridGenSpec(6, 6, pairs_per_group=2))


#: every array a Network keeps of its nodes and arcs, or derives from them
NETWORK_ARRAYS = ("tail", "head", "length", "free_speed", "lanes", "is_primary", "capacity",
                  "bpr_gamma", "bpr_nu", "free_time", "primary_length", "x", "y", "out_start",
                  "out_degree")


def assert_same_network(got, want):
    assert got.node_ids == want.node_ids and got.arc_ids == want.arc_ids
    for name in NETWORK_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestColumnLoad:
    """load_instance reads every section as columns and builds no Node or
    Arc record; Network checks a column of plain JSON values whole and any
    other column value by value.  Either way the network, its values and
    the messages are those of build_network of the records, which are
    refused when their network is built, not when they are made."""

    @pytest.mark.parametrize("case", ["single_od", "grid6", "csv"])
    def test_loaded_network_is_build_network_of_its_records(self, tmp_path, case):
        inst = grid6() if case == "grid6" else gen_single_od()
        loaded = load_instance(csv_network_document(tmp_path) if case == "csv"
                               else instance_to_document(inst))
        built = build_network(list(inst.network.nodes), list(inst.network.arcs))
        assert_same_network(loaded.network, built)
        assert instance_to_document(loaded) == instance_to_document(replace(inst, network=built))

    def test_defaults_fill_columns_as_records(self):
        # capacities from lanes, length and car length, BPR parameters from
        # defaults: a numeric string in one arc has its column checked value
        # by value, which must give the same bits
        doc = default_bpr_document()
        doc["defaults"]["car_length_km"] = 0.007
        for arc in doc["arcs"]:
            del arc["capacity"]
        columns = load_instance(doc).network
        doc["arcs"][-1]["length_km"] = repr(doc["arcs"][-1]["length_km"])
        records = load_instance(doc).network
        assert_same_network(columns, records)
        assert columns.capacity.tolist() == [
            a["lanes"] * float(a["length_km"]) / 0.007 for a in doc["arcs"]]

    @pytest.mark.parametrize("path, given", [
        (("arcs", 1, "length_km"), repr), (("arcs", 2, "lanes"), str),
        (("arcs", 0, "capacity"), repr), (("nodes", 0, "x"), repr), (("nodes", 2, "id"), int),
        (("arcs", 3, "tail"), int)], ids=lambda v: getattr(v, "__name__", None))
    def test_values_the_columns_refuse_load_as_records(self, path, given):
        # a numeric string (as from a CSV cell) or an int id: its column is
        # checked value by value, which reads the string as its number and
        # the id as its digits
        doc = single_od_document()
        *parents, key = path
        section = doc
        for step in parents:
            section = section[step]
        section[key] = given(section[key])
        assert instance_to_document(load_instance(doc)) == single_od_document()

    @pytest.mark.parametrize("key, given, loaded", [("id", 7, "7"),
                                                    ("lanes", 2**53 + 1, 2**53 + 1)])
    def test_an_int_the_columns_refuse_loads_as_its_record_reads_it(self, key, given, loaded):
        # an int id loads as its digits, and an int lanes past float
        # precision (2**53 + 1 has no float of its own) keeps every digit
        doc, want = single_od_document(), single_od_document()
        doc["arcs"][0][key], want["arcs"][0][key] = given, loaded
        assert instance_to_document(load_instance(doc)) == want

    @pytest.mark.parametrize("path, message", [
        (("arcs", 0, "length_km"), "arc s01: length_km must be a finite number, got True"),
        (("arcs", 0, "lanes"), "arc s01: lanes must be a finite number, got True"),
        (("arcs", 1, "capacity"), "arc p02: capacity must be a finite number, got True"),
        (("nodes", 1, "y"), "node 1: y must be a finite number, got True"),
        (("arcs", 0, "id"), "arc id must be a string or a whole number, got True")])
    def test_true_in_a_field_fails_by_name(self, path, message):
        with pytest.raises(InstanceError, match=re.escape(message)):
            load_instance(set_field(single_od_document(), path, True))

    def test_solve_simulate_and_save_build_no_record(self, tmp_path, monkeypatch):
        docs = {"single_od": single_od_document(), "grid6": instance_to_document(grid6())}

        def refuse(record, *args, **kwargs):
            raise AssertionError(f"a {type(record).__name__} record was built")

        monkeypatch.setattr(Arc, "__init__", refuse)
        monkeypatch.setattr(Node, "__init__", refuse)
        for name, doc in docs.items():
            path, out = tmp_path / f"{name}.json", tmp_path / name
            write_json(path, doc)
            assert cli.run(["solve", "--instance", str(path), "--scheme", "uniform",
                            "--rate", "1", "--out", str(out / "solve")]) == cli.EXIT_OK
            assert cli.run(["simulate", "--instance", str(path), "--solution",
                            str(out / "solve" / "solution.json"), "--runs", "1",
                            "--keep-paths", "--out", str(out / "simulate")]) == cli.EXIT_OK
            save_instance(load_instance(path), out / "saved.json")
            assert (out / "saved.json").read_bytes() == path.read_bytes()


class TestSaveInstance:
    # the SHA-256 of each saved file: a change of field, order or number
    # format shows here
    @pytest.mark.parametrize("make, digest", [
        (lambda: gen_grid(GridGenSpec(10, 10, seed=0)),
         "bb7f56f5417daa3c5bec6136e20c3ff249f750325eec86ab38dba861843cd5f4"),
        (gen_single_od, "b12ca8ad8db56e928dac4523e1bf9f3f9ca874676cc32abffd3e5f069c58fc22"),
    ], ids=["grid10", "single_od"])
    def test_saved_bytes_are_unchanged(self, tmp_path, make, digest):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # area groups the lattice skips
            inst = make()
        path = tmp_path / "instance.json"
        save_instance(inst, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert instance_to_document(load_instance(path)) == instance_to_document(inst)


class TestLoadInstance:
    def test_single_od_document(self):
        inst = load_instance(single_od_document())
        assert len(inst.strata) == 3
        assert all(e.trips == 500.0 for e in inst.demand)
        assert inst.network.n_nodes == 4

    def test_missing_beta_t_names_the_stratum(self):
        doc = single_od_document()
        del doc["strata"][1]["beta_t"]
        with pytest.raises(InstanceError, match=r"strata\[1\].beta_t"):
            load_instance(doc)

    def test_origin_equals_destination_rejected(self):
        doc = single_od_document()
        doc["demand"][0]["destination"] = doc["demand"][0]["origin"]
        with pytest.raises(InstanceError, match="origin equals destination"):
            load_instance(doc)

    def test_unknown_demand_node_rejected(self):
        doc = single_od_document()
        doc["demand"][0]["origin"] = "nope"
        with pytest.raises(InstanceError, match=r"demand\[0\].origin"):
            load_instance(doc)

    def test_duplicate_demand_rejected(self):
        doc = single_od_document()
        doc["demand"].append(dict(doc["demand"][0]))
        with pytest.raises(InstanceError, match="duplicate"):
            load_instance(doc)

    def test_capacity_defaults_from_lanes_and_car_length(self):
        doc = single_od_document()
        for arc in doc["arcs"]:
            arc.pop("capacity")
        inst = load_instance(doc)
        p02 = inst.network.arcs[inst.network.arc_index["p02"]]
        assert p02.capacity == pytest.approx(3 * 5.0 / 0.005)

    def test_round_trip_identity(self, tmp_path):
        inst = gen_single_od()
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert instance_to_document(inst) == instance_to_document(again)
        save_instance(again, tmp_path / "inst2.json")
        assert (tmp_path / "inst.json").read_bytes() == (tmp_path / "inst2.json").read_bytes()

    def test_csv_network_pair(self, tmp_path):
        inst = load_instance(csv_network_document(tmp_path))
        assert instance_to_document(inst) == instance_to_document(gen_single_od())

    def test_legacy_solver_keys_dropped(self, tmp_path):
        doc = single_od_document()
        save_instance(gen_single_od(), tmp_path / "plain.json")
        doc["solver"].update(step_rule="max(0.125, 1/(k+1))", norm="sup", inner_tol=1e-300,
                             inner_max_iters=1000, divergence_guard=1e9,
                             divergence_window=50, divergence_decay=0.95)
        assert instance_to_document(load_instance(doc)) == instance_to_document(gen_single_od())
        # the CLI still accepts --tol-inner and --max-inner, and ignores them:
        # at a tolerance of 1e-300 every expected-cost solve would be refined
        with open(tmp_path / "inst.json", "w") as fh:
            json.dump(doc, fh)
        written = []
        for name, extra in (("plain", []), ("inst", []),
                            ("inst", ["--tol-inner", "1e-300", "--max-inner", "1"])):
            out = tmp_path / f"run{len(written)}"
            assert cli.run(["solve", "--instance", str(tmp_path / f"{name}.json"),
                            "--scheme", "uniform", "--rate", "0.5", *extra,
                            "--out", str(out)]) == cli.EXIT_OK
            written.append((out / "solution.json").read_bytes())
        assert written[1:] == written[:1] * 2

    def test_unknown_solver_key_rejected(self):
        doc = single_od_document()
        doc["solver"]["outer_tolerance"] = 1e-4
        with pytest.raises(InstanceError, match="outer_tolerance"):
            load_instance(doc)


class TestOutsideCosts:
    def test_table_mode_substitution(self):
        # time 30 plus fare 500 at unit outside sensitivities
        inst = two_route_instance(outside_time=30.0, ticket=500.0)
        oc = outside_costs(inst)
        assert oc[("solo", "0", "1")] == pytest.approx(530.0)

    def test_zero_ticket(self):
        inst = two_route_instance(outside_time=30.0, ticket=0.0)
        assert outside_costs(inst)[("solo", "0", "1")] == pytest.approx(30.0)

    def test_multiplier_mode_scales_free_flow_time(self, line_network):
        from mteq import DemandEntry, OutsideOption, Stratum

        net = build_network(
            [Node("0", 0, 0), Node("1", 1, 0), Node("2", 2, 0)],
            [flat_arc("a01", "0", "1", 3.0), flat_arc("a12", "1", "2", 7.0),
             flat_arc("a20", "2", "0", 1.0)])
        inst = Instance(
            network=net,
            strata=[Stratum("s", 1.0, 1.0, 1.0, 1.0)],
            demand=[DemandEntry("s", "0", "2", 5.0)],
            outside=OutsideOption(mode="free_time_multiplier", multiplier=3.0, ticket=0.0),
        )
        assert inst.outside_time[("0", "2")] == pytest.approx(30.0)
        assert outside_costs(inst)[("s", "0", "2")] == pytest.approx(30.0)

    def test_monotone_in_ticket_and_time(self):
        base = outside_costs(two_route_instance(outside_time=30.0, ticket=500.0))
        up_ticket = outside_costs(two_route_instance(outside_time=30.0, ticket=600.0))
        up_time = outside_costs(two_route_instance(outside_time=31.0, ticket=500.0))
        key = ("solo", "0", "1")
        assert up_ticket[key] > base[key]
        assert up_time[key] > base[key]


    def test_multiplier_mode_equals_per_destination_dijkstra(self):
        import warnings
        from mteq import GridGenSpec, gen_grid, shortest_costs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = gen_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7))
        net = inst.network
        assert inst.outside.mode == "free_time_multiplier"
        ods = {(e.origin, e.destination) for e in inst.demand}
        assert len({d for _, d in ods}) > 1
        want = {}
        for o, d in ods:
            dist = shortest_costs(net, net.free_time, net.node_index[d])
            want[(o, d)] = inst.outside.multiplier * float(dist[net.node_index[o]])
        assert inst.outside_time == want

    def test_replace_rebuilds_the_outside_times(self):
        # outside_time is derived from the other fields, so a replaced demand
        # or outside option gets its own table: an added OD is solved, and a
        # doubled multiplier doubles every time
        inst = gen_single_od()
        more = replace(inst, demand=[*inst.demand, DemandEntry("low", "1", "3", 5.0)])
        assert more.outside_time.keys() == {("0", "3"), ("1", "3")}
        sol = solve_equilibrium(more, zero_prices(more), SolverOptions())
        assert all_trip_stats(more, sol)[("low", "1", "3")].start_prob > 0.0
        doubled = replace(inst, outside=replace(inst.outside,
                                                multiplier=2 * inst.outside.multiplier))
        assert doubled.outside_time == {od: 2 * t for od, t in inst.outside_time.items()}
        with pytest.raises(ValueError, match="outside_time"):  # not an argument any more
            replace(inst, outside_time={})


class TestAssignAreas:
    def grid_net(self, coords):
        nodes = [Node(str(k), x, y) for k, (x, y) in enumerate(coords)]
        arcs = []
        ids = [n.id for n in nodes]
        for a, b in zip(ids, ids[1:] + ids[:1]):
            arcs.append(flat_arc(f"{a}-{b}", a, b, 1.0))
        return build_network(nodes, arcs)

    def test_four_cell_centers_get_distinct_labels(self):
        # centers of a unit square's 2x2 cells
        net = self.grid_net([(0.25, 0.75), (0.75, 0.75), (0.25, 0.25), (0.75, 0.25)])
        areas = assign_areas(net, 2, 2)
        assert areas.labels == {"0": "N", "1": "E", "2": "W", "3": "S"}

    def test_degenerate_one_by_one(self):
        net = self.grid_net([(0, 0), (1, 0), (2, 1), (0.5, 3)])
        areas = assign_areas(net, 1, 1)
        assert set(areas.labels.values()) == {"r0c0"}

    def test_boundary_node_goes_to_lower_row_index(self):
        # y on the split line of a 2x1 grid: half-open cells put it in the
        # upper band, which is row 0
        net = self.grid_net([(0.0, 0.0), (0.0, 1.0), (0.1, 0.5), (0.2, 0.2)])
        areas = assign_areas(net, 2, 1)
        assert areas.labels["2"] == "r0c0"

    def test_total_and_deterministic(self):
        net = gen_single_od().network
        a1 = assign_areas(net, 2, 2)
        a2 = assign_areas(net, 2, 2)
        assert a1 == a2
        assert set(a1.labels) == {n.id for n in net.nodes}

    def test_single_od_primary_tails_share_area(self):
        inst = gen_single_od()
        areas = assign_areas(inst, 2, 2)
        assert areas.labels["0"] == areas.labels["2"] == "N"

    def test_degenerate_bbox_rejected(self):
        net = self.grid_net([(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)])
        with pytest.raises(InstanceError, match="degenerate"):
            assign_areas(net, 2, 2)
        # no x split requested: fine
        assert assign_areas(net, 2, 1).rows == 2
