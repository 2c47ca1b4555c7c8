import json
import re

import pytest

from mteq import (
    Instance,
    InstanceError,
    assign_areas,
    instance_to_document,
    load_instance,
    outside_costs,
    save_instance,
)
from mteq import cli
from mteq.instance import instances_equal
from mteq.network import Node, build_network
from mteq.synthgen import gen_single_od

from conftest import flat_arc, two_route_instance


def single_od_document():
    return instance_to_document(gen_single_od())


def per_od_outside_document():
    """single_od_document with per-OD outside times and fares."""
    doc = single_od_document()
    ods = sorted({(e["origin"], e["destination"]) for e in doc["demand"]})
    doc["outside_option"] = {
        "mode": "per_od_table",
        "times": [{"origin": o, "destination": d, "time": 2.0} for o, d in ods],
        "ticket": [{"origin": o, "destination": d, "ticket": 0.5} for o, d in ods],
    }
    return doc


# (document, path to the field, what the error says)
NAN_FIELDS = [
    (single_od_document, ("nodes", 0, "x"), "nodes[0]: node 0: x and y must be finite"),
    (single_od_document, ("nodes", 1, "y"), "nodes[1]: node 1: x and y must be finite"),
    *[(single_od_document, ("arcs", 0, name), f"arcs[0]: arc s01: {name} must be > 0")
      for name in ("length_km", "free_speed_kmh", "capacity", "bpr_nu")],
    (single_od_document, ("arcs", 0, "bpr_gamma"), "arcs[0]: arc s01: bpr_gamma must be >= 0"),
    *[(single_od_document, ("strata", 1, name), f"stratum 'mid': {name} must be > 0")
      for name in ("beta_t", "beta_t_out")],
    *[(single_od_document, ("strata", 1, name), f"stratum 'mid': {name} must be >= 0")
      for name in ("beta_p", "beta_p_out")],
    (single_od_document, ("demand", 0, "trips"), "demand (high, 0 -> 3): trips must be > 0"),
    (single_od_document, ("outside_option", "multiplier"),
     "outside_option.multiplier must be > 0"),
    (single_od_document, ("outside_option", "ticket"),
     "outside_option.ticket must be nonnegative"),
    (per_od_outside_document, ("outside_option", "ticket", 0, "ticket"),
     "outside_option.ticket must be nonnegative"),
    (per_od_outside_document, ("outside_option", "times", 0, "time"),
     "outside_option.times[(0, 3)] must be >= 0"),
    (single_od_document, ("defaults", "car_length_km"), "defaults.car_length_km must be > 0"),
]


@pytest.mark.parametrize("make_doc, path, message", NAN_FIELDS,
                         ids=[".".join(map(str, path)) for _, path, _ in NAN_FIELDS])
def test_nan_field_is_rejected_by_name(tmp_path, capsys, make_doc, path, message):
    doc = make_doc()
    *parents, key = path
    section = doc
    for step in parents:
        section = section[step]
    section[key] = float("nan")
    with pytest.raises(InstanceError, match=re.escape(message)):
        load_instance(doc)
    ipath = tmp_path / "nan.json"
    ipath.write_text(json.dumps(doc))  # json writes the bare token NaN
    assert cli.run(["solve", "--instance", str(ipath), "--scheme", "uniform",
                    "--rate", "1", "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
        assert instances_equal(inst, again)
        save_instance(again, tmp_path / "inst2.json")
        assert (tmp_path / "inst.json").read_bytes() == (tmp_path / "inst2.json").read_bytes()

    def test_csv_network_pair(self, tmp_path):
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
        inst = load_instance(tmp_path / "inst.json")
        assert instances_equal(inst, gen_single_od())

    def test_legacy_solver_keys_dropped(self, tmp_path):
        doc = single_od_document()
        doc["solver"].update(step_rule="max(0.125, 1/(k+1))", norm="sup",
                             inner_max_iters=1000, divergence_guard=1e9,
                             divergence_window=50, divergence_decay=0.95)
        assert instances_equal(load_instance(doc), gen_single_od())
        # the CLI still accepts --max-inner, and ignores it
        with open(tmp_path / "inst.json", "w") as fh:
            json.dump(doc, fh)
        written = []
        for extra in ([], ["--max-inner", "1"]):
            out = tmp_path / f"run{len(written)}"
            assert cli.run(["solve", "--instance", str(tmp_path / "inst.json"),
                            "--scheme", "uniform", "--rate", "0.5", *extra,
                            "--out", str(out)]) == cli.EXIT_OK
            written.append((out / "solution.json").read_bytes())
        assert written[0] == written[1]

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
