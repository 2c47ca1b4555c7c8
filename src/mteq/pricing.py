"""Pricing schemes and their expansion to per-arc per-stratum toll rates.

Three families: one rate for everybody (uniform), one rate per stratum, or
one rate per geographic area where an arc is priced by the area of its tail
(entry) node.  Rates are money per km and only ever charge on primary
roads: an arc's toll is its rate times ``Network.primary_length``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .instance import AreaAssignment, Instance

UNIFORM = "uniform"
PER_STRATUM = "per_stratum"
PER_AREA = "per_area"
FAMILIES = (UNIFORM, PER_STRATUM, PER_AREA)


class PricingError(ValueError):
    pass


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


@dataclass(frozen=True)
class SchemeSpec:
    """One concrete pricing scheme: a family plus its rate(s)."""

    family: str
    rate: float | None = None                      # uniform
    stratum_rates: tuple[tuple[str, float], ...] = ()   # per_stratum, (name, rate)
    area_rates: tuple[tuple[str, float], ...] = ()      # per_area, (label, rate)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise PricingError(f"unknown pricing family {self.family!r}")
        if self.family == UNIFORM and (self.rate is None or self.rate < 0):
            raise PricingError("uniform scheme needs a nonnegative rate")
        for name, r in self.stratum_rates + self.area_rates:
            if r < 0:
                raise PricingError(f"negative rate for {name!r}")

    @property
    def scheme_id(self) -> str:
        if self.family == UNIFORM:
            return f"uniform_p{_fmt(self.rate)}"
        if self.family == PER_STRATUM:
            parts = "_".join(f"{n}{_fmt(r)}" for n, r in self.stratum_rates)
            return f"stratum_{parts}"
        parts = "_".join(f"{n}{_fmt(r)}" for n, r in sorted(self.area_rates))
        return f"area_{parts}"

    def rate_vector(self) -> tuple[float, ...]:
        """Rates in a canonical order, used for lexicographic tie breaking."""
        if self.family == UNIFORM:
            return (self.rate,)
        if self.family == PER_STRATUM:
            return tuple(r for _n, r in self.stratum_rates)
        return tuple(r for _n, r in sorted(self.area_rates))


@dataclass(frozen=True)
class ExpandedPrices:
    """Per-arc per-stratum rates (money/km), rows following instance strata
    order and columns the network arc storage order.  Secondary arcs may
    carry any rate; ``Network.primary_length`` zeroes their tolls."""

    rates: np.ndarray
    stratum_names: tuple[str, ...]
    scheme: SchemeSpec | None = None


def zero_prices(instance: Instance) -> ExpandedPrices:
    return ExpandedPrices(
        rates=np.zeros((len(instance.strata), instance.network.n_arcs)),
        stratum_names=tuple(instance.stratum_names),
        scheme=SchemeSpec(family=UNIFORM, rate=0.0),
    )


def area_of_arc(arc, areas: AreaAssignment) -> str:
    """The pricing area of an arc is the area of its tail (entry) node."""
    return areas.area_of(arc.tail)


def expand_scheme(spec: SchemeSpec, instance: Instance,
                  areas: AreaAssignment | None = None) -> ExpandedPrices:
    """Materialize a scheme into the full rate matrix."""
    net = instance.network
    S = len(instance.strata)
    if spec.family == UNIFORM:
        rates = np.full((S, net.n_arcs), float(spec.rate))
    elif spec.family == PER_STRATUM:
        by_name = dict(spec.stratum_rates)
        rows = []
        for s in instance.strata:
            if s.name not in by_name:
                raise PricingError(f"no rate for stratum {s.name!r}")
            rows.append(np.full(net.n_arcs, float(by_name[s.name])))
        unknown = set(by_name) - {s.name for s in instance.strata}
        if unknown:
            raise PricingError(f"rates for unknown strata: {sorted(unknown)}")
        rates = np.stack(rows)
    else:
        if areas is None:
            raise PricingError("per_area expansion needs an AreaAssignment")
        by_area = dict(spec.area_rates)
        per_arc = np.empty(net.n_arcs)
        for k, arc in enumerate(net.arcs):
            label = area_of_arc(arc, areas)
            if label not in by_area:
                raise PricingError(f"no rate for area {label!r}")
            per_arc[k] = by_area[label]
        rates = np.tile(per_arc, (S, 1))
    return ExpandedPrices(rates=rates,
                          stratum_names=tuple(instance.stratum_names), scheme=spec)


@dataclass(frozen=True)
class PriceGrid:
    """Grid specification for scheme enumeration.

    ``strata_order`` lists stratum names from least to most willing to pay;
    with ``ordered`` set, per-stratum enumeration keeps rates nondecreasing
    along it (nobody less willing to pay is charged more).  ``areas`` lists
    the area labels of a per-area grid.
    """

    family: str
    lo: float
    hi: float
    step: float
    strata_order: tuple[str, ...] = ()
    areas: tuple[str, ...] = ()
    ordered: bool = True

    def values(self) -> list[float]:
        if self.step <= 0:
            raise PricingError("grid step must be positive")
        if self.hi < self.lo:
            raise PricingError("empty grid: hi < lo")
        n = int(np.floor((self.hi - self.lo) / self.step + 1e-9)) + 1
        return [self.lo + i * self.step for i in range(n)]


def stratum_price_order(instance: Instance) -> tuple[str, ...]:
    """Stratum names sorted by increasing willingness to pay (most
    price-sensitive first); the default ordering axis of constrained
    per-stratum grids."""
    return tuple(s.name for s in sorted(instance.strata, key=lambda s: s.wtp))


def enumerate_grid(grid: PriceGrid) -> list[SchemeSpec]:
    """All schemes on the grid, lexicographically ordered by rate vector."""
    vals = grid.values()
    if not vals:
        raise PricingError("empty price grid")
    if grid.family == UNIFORM:
        return [SchemeSpec(family=UNIFORM, rate=v) for v in vals]
    if grid.family == PER_STRATUM:
        if not grid.strata_order:
            raise PricingError("per_stratum grid needs strata_order")
        names = grid.strata_order
        if grid.ordered:
            combos = itertools.combinations_with_replacement(vals, len(names))
        else:
            combos = itertools.product(vals, repeat=len(names))
        return [
            SchemeSpec(family=PER_STRATUM,
                       stratum_rates=tuple(zip(names, combo)))
            for combo in combos
        ]
    if not grid.areas:
        raise PricingError("per_area grid needs area labels")
    labels = tuple(sorted(grid.areas))
    return [
        SchemeSpec(family=PER_AREA, area_rates=tuple(zip(labels, combo)))
        for combo in itertools.product(vals, repeat=len(labels))
    ]
