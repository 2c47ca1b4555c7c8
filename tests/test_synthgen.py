import json
import warnings

import numpy as np
import pytest

from mteq import (
    extract_core,
    instance_to_document,
    load_instance,
    strongly_connected,
)
from mteq.synthgen import GridGenSpec, gen_grid, gen_single_od, _secondary_served


def quiet_grid(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return gen_grid(spec)


class TestSingleOD:
    def test_counts_and_parameters(self):
        inst = gen_single_od()
        net = inst.network
        assert net.n_nodes == 4
        assert net.n_arcs == 6
        assert int(net.is_primary.sum()) == 2
        assert [e.trips for e in inst.demand] == [500.0] * 3
        assert {e.stratum for e in inst.demand} == {"high", "mid", "low"}
        assert inst.outside.ticket == 300.0
        assert inst.outside.multiplier == 1.2

    def test_geometry(self):
        net = gen_single_od().network
        p02 = net.arcs[net.arc_index["p02"]]
        s01 = net.arcs[net.arc_index["s01"]]
        assert (p02.length_km, p02.free_speed_kmh, p02.lanes) == (5.0, 80.0, 3)
        assert (s01.length_km, s01.free_speed_kmh) == (3.0, 40.0)

    def test_validates_and_core_is_noop(self):
        inst = gen_single_od()
        assert strongly_connected(inst.network)
        core = extract_core(inst.network)
        assert {a.id for a in core.arcs} == {a.id for a in inst.network.arcs}

    def test_round_trips_through_document(self):
        inst = gen_single_od()
        doc = instance_to_document(inst)
        again = load_instance(doc)
        assert instance_to_document(again) == doc


class TestGrid:
    def test_default_ten_by_ten_counts(self):
        inst = quiet_grid(GridGenSpec())
        net = inst.network
        assert net.n_nodes == 100
        assert net.n_arcs == 252
        assert int(net.is_primary.sum()) == 108

    def test_primary_free_time(self):
        inst = quiet_grid(GridGenSpec())
        net = inst.network
        prim = net.free_time[net.is_primary]
        assert np.allclose(prim, 1.2 / 80.0)
        sec = net.free_time[~net.is_primary]
        assert np.allclose(sec, 0.6 / 30.0)

    def test_strong_connectivity_across_sizes(self):
        for shape in [(4, 4), (5, 7), (6, 6)]:
            # OD pairs 1 km apart qualify, so even the 4x4 lattice has demand
            inst = quiet_grid(GridGenSpec(rows=shape[0], cols=shape[1], min_od_distance_km=1.0))
            assert strongly_connected(inst.network), shape
            core = extract_core(inst.network)
            assert core.n_nodes == inst.network.n_nodes

    def test_same_seed_byte_identical(self):
        a = instance_to_document(quiet_grid(GridGenSpec(rows=6, cols=6, seed=42)))
        b = instance_to_document(quiet_grid(GridGenSpec(rows=6, cols=6, seed=42)))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seed_changes_demand(self):
        a = quiet_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=1))
        b = quiet_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=2))
        assert [(e.origin, e.destination) for e in a.demand] != \
               [(e.origin, e.destination) for e in b.demand]

    def test_demand_is_stratum_symmetric(self):
        inst = quiet_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=3, seed=9))
        by_stratum = {}
        for e in inst.demand:
            by_stratum.setdefault(e.stratum, set()).add((e.origin, e.destination, e.trips))
        assert by_stratum["high"] == by_stratum["mid"] == by_stratum["low"]

    def test_min_distance_respected(self):
        from scipy.sparse.csgraph import dijkstra
        spec = GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7)
        inst = quiet_grid(spec)
        net = inst.network
        dist = dijkstra(net.reversed_graph(net.length).T)
        for e in inst.demand:
            o, d = net.node_index[e.origin], net.node_index[e.destination]
            assert dist[o, d] >= spec.min_od_distance_km

    def test_endpoints_on_secondary_mesh(self):
        inst = quiet_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7))
        net = inst.network
        served = _secondary_served(net)
        for e in inst.demand:
            assert served[net.node_index[e.origin]]
            assert served[net.node_index[e.destination]]

    def test_empty_group_warns_and_skips(self):
        with pytest.warns(UserWarning, match="area group"):
            gen_grid(GridGenSpec(rows=6, cols=6, pairs_per_group=4, seed=7))

    def test_sensitivities(self):
        inst = quiet_grid(GridGenSpec(rows=4, cols=4, min_od_distance_km=1.0))
        by = {s.name: s for s in inst.strata}
        assert (by["high"].beta_p, by["mid"].beta_p, by["low"].beta_p) == (0.5, 0.7, 1.0)
        scale = by["low"].beta_t
        assert by["high"].beta_t_out / scale == pytest.approx(1.2)
        assert by["mid"].beta_t_out / scale == pytest.approx(1.1)
        assert by["low"].beta_t_out / scale == pytest.approx(1.0)
        assert inst.outside.ticket == 400.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridGenSpec(rows=1, cols=5)
        with pytest.raises(ValueError):
            GridGenSpec.from_dict({"rows": 4, "cols": 4, "bogus": 1})
