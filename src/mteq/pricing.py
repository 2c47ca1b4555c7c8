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
from .network import InstanceError, check_flag, check_name, check_number

UNIFORM = "uniform"
PER_STRATUM = "per_stratum"
PER_AREA = "per_area"
FAMILIES = (UNIFORM, PER_STRATUM, PER_AREA)


class PricingError(InstanceError):
    """Invalid pricing scheme or price grid."""


def _price(name: str, value, low=0, strict=False) -> float:
    """check_number for a rate or grid bound, raising PricingError."""
    try:
        return check_number(name, value, low, strict=strict)
    except InstanceError as exc:
        raise PricingError(str(exc)) from None


def _fmt(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)


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
        if self.family == UNIFORM:
            object.__setattr__(self, "rate", _price("uniform rate", self.rate))
        for key in ("stratum_rates", "area_rates"):
            object.__setattr__(self, key, tuple(
                (name, _price(f"rate for {name!r}", r)) for name, r in getattr(self, key)))

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


def zero_prices(instance: Instance) -> np.ndarray:
    """The toll-free (strata, arcs) rate array."""
    return np.zeros((len(instance.strata), instance.network.n_arcs))


def area_of_arc(arc, areas: AreaAssignment) -> str:
    """The pricing area of an arc is the area of its tail (entry) node."""
    return areas.area_of(arc.tail)


def expand_scheme(spec: SchemeSpec, instance: Instance,
                  areas: AreaAssignment | None = None) -> np.ndarray:
    """Materialize a scheme into its per-arc per-stratum rates (money/km): a
    (strata, arcs) array, rows in instance strata order and columns in arc
    storage order.  Secondary arcs may carry any rate;
    ``Network.primary_length`` zeroes their tolls."""
    net = instance.network
    S = len(instance.strata)
    if spec.family == UNIFORM:
        rates = np.full((S, net.n_arcs), spec.rate)
    elif spec.family == PER_STRATUM:
        by_name = dict(spec.stratum_rates)
        rows = []
        for s in instance.strata:
            if s.name not in by_name:
                raise PricingError(f"no rate for stratum {s.name!r}")
            rows.append(np.full(net.n_arcs, by_name[s.name]))
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
    return rates


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

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise PricingError(f"unknown pricing family {self.family!r}")
        object.__setattr__(self, "lo", _price("grid lo", self.lo))
        object.__setattr__(self, "hi", _price("grid hi", self.hi, self.lo))
        object.__setattr__(self, "step", _price("grid step", self.step, 0, strict=True))
        for key in ("strata_order", "areas"):
            object.__setattr__(self, key, tuple(check_name(f"grid {key}", name)
                                                for name in getattr(self, key)))
        check_flag("grid ordered", self.ordered)

    def values(self) -> list[float]:
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
