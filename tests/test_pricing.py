import math

import numpy as np
import pytest

from mteq import (
    PriceGrid,
    SchemeSpec,
    assign_areas,
    enumerate_grid,
    expand_scheme,
    stratum_price_order,
)
from mteq.pricing import PricingError, PER_AREA, PER_STRATUM, UNIFORM
from mteq.synthgen import gen_single_od


@pytest.fixture(scope="module")
def inst():
    return gen_single_od()


@pytest.fixture(scope="module")
def areas(inst):
    return assign_areas(inst, 2, 2)


class TestExpand:
    def test_uniform_prices_every_primary_arc_for_all_strata(self, inst):
        ep = expand_scheme(SchemeSpec(family=UNIFORM, rate=600.0), inst)
        assert ep.shape == (3, inst.network.n_arcs)
        assert np.all(ep == 600.0)

    def test_per_stratum_rows(self, inst):
        spec = SchemeSpec(family=PER_STRATUM,
                          stratum_rates=(("high", 1000.0), ("mid", 600.0), ("low", 400.0)))
        ep = expand_scheme(spec, inst)
        by = dict(zip(inst.stratum_names, ep))
        assert np.all(by["high"] == 1000.0)
        assert np.all(by["mid"] == 600.0)
        assert np.all(by["low"] == 400.0)

    def test_per_area_uses_tail_node_area(self, inst, areas):
        spec = SchemeSpec(family=PER_AREA,
                          area_rates=(("N", 800.0), ("E", 600.0), ("S", 400.0), ("W", 1000.0)))
        ep = expand_scheme(spec, inst, areas)
        net = inst.network
        for k, arc in enumerate(net.arcs):
            assert ep[0, k] == dict(spec.area_rates)[areas.area_of(arc.tail)]

    def test_families_coincide_at_a_common_rate(self, inst, areas):
        p = 300.0
        uni = expand_scheme(SchemeSpec(family=UNIFORM, rate=p), inst)
        per_s = expand_scheme(
            SchemeSpec(family=PER_STRATUM,
                       stratum_rates=tuple((s, p) for s in inst.stratum_names)), inst)
        per_a = expand_scheme(
            SchemeSpec(family=PER_AREA,
                       area_rates=tuple((a, p) for a in areas.area_names)), inst, areas)
        assert np.array_equal(uni, per_s)
        assert np.array_equal(uni, per_a)

    def test_missing_area_rate_rejected(self, inst, areas):
        with pytest.raises(PricingError, match="no rate for area"):
            expand_scheme(SchemeSpec(family=PER_AREA, area_rates=(("N", 1.0),)),
                          inst, areas)

    def test_unknown_stratum_rejected(self, inst):
        spec = SchemeSpec(family=PER_STRATUM,
                          stratum_rates=(("high", 1.0), ("mid", 1.0), ("low", 1.0),
                                         ("ghost", 1.0)))
        with pytest.raises(PricingError, match="unknown strata"):
            expand_scheme(spec, inst)

    def test_negative_rate_rejected(self):
        with pytest.raises(PricingError):
            SchemeSpec(family=UNIFORM, rate=-5.0)


class TestAreaOfArc:
    def test_tail_rule(self, inst, areas):
        net = inst.network
        arc = net.arcs[net.arc_index["p21"]]  # tail node 2 sits in N
        assert areas.area_of(arc.tail) == "N"

    def test_single_area_partition(self, inst):
        one = assign_areas(inst, 1, 1)
        assert {one.area_of(a.tail) for a in inst.network.arcs} == {"r0c0"}

    def test_crossing_arc_priced_by_entry_side(self, inst, areas):
        net = inst.network
        arc = net.arcs[net.arc_index["s01"]]  # 0 (N) -> 1 (E)
        assert areas.area_of("1") == "E"
        assert areas.area_of(arc.tail) == "N"


class TestEnumerateGrid:
    def test_uniform_17_options(self):
        specs = enumerate_grid(PriceGrid(family=UNIFORM, lo=0, hi=1600, step=100))
        assert len(specs) == 17
        assert [s.rate for s in specs] == [100.0 * k for k in range(17)]

    def test_per_area_6561_combinations(self):
        grid = PriceGrid(family=PER_AREA, lo=0, hi=1600, step=200,
                         areas=("N", "E", "S", "W"))
        specs = enumerate_grid(grid)
        assert len(specs) == 9 ** 4 == 6561

    def test_per_stratum_ordered_165(self, inst):
        grid = PriceGrid(family=PER_STRATUM, lo=0, hi=1600, step=200,
                         strata_order=stratum_price_order(inst))
        specs = enumerate_grid(grid)
        # nondecreasing triples from 9 grid values: C(11, 3)
        assert len(specs) == math.comb(11, 3) == 165
        for s in specs:
            rates = dict(s.stratum_rates)
            assert rates["low"] <= rates["mid"] <= rates["high"]

    def test_unordered_per_stratum_is_full_product(self, inst):
        grid = PriceGrid(family=PER_STRATUM, lo=0, hi=400, step=200,
                         strata_order=stratum_price_order(inst), ordered=False)
        assert len(enumerate_grid(grid)) == 27

    def test_lexicographic_order(self):
        grid = PriceGrid(family=PER_AREA, lo=0, hi=200, step=200, areas=("A", "B"))
        vecs = [s.rate_vector() for s in enumerate_grid(grid)]
        assert vecs == sorted(vecs)

    def test_price_order_tracks_willingness_to_pay(self, inst):
        assert stratum_price_order(inst) == ("low", "mid", "high")

    def test_empty_grid_rejected(self):
        with pytest.raises(PricingError):
            enumerate_grid(PriceGrid(family=UNIFORM, lo=100, hi=0, step=100))
        with pytest.raises(PricingError):
            enumerate_grid(PriceGrid(family=UNIFORM, lo=0, hi=100, step=0))

