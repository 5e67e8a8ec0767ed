"""Membership tests for the admissible z-region of the shifted combination.

The region is the open set

    |Re(z) - Im(z)| < sqrt(pi/2) - sqrt(2/pi) Re(z) Im(z),

which decomposes exactly into an open central square of half-width
c = sqrt(pi/2) plus the two opposite quadrant corners {x > c, y < -c} and
{x < -c, y > c}.  Both characterizations are implemented and must agree
everywhere off a thin boundary band; the tests enforce that.
Points on the boundary are labeled as such and counted as NOT inside (the
near-axis limit expressions require strict interior membership).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ConfigError, ConsistencyError, DomainError, RegionError
from .settings import grid_nodes

__all__ = [
    "SQUARE_HALF_WIDTH",
    "RegionVerdict",
    "region_margin",
    "classify_inequality",
    "classify_decomposition",
    "require_inside",
    "region_grid",
]

SQUARE_HALF_WIDTH = math.sqrt(math.pi / 2.0)
_BOUNDARY_BAND = 1e-12
# the most points region_grid classifies: ~2.5 us (the inequality, at a full grid)
# and ~0.2 kB (its list entry) each, so ~2.5 s and ~0.2 GB
MAX_REGION_POINTS = 1_000_000


class RegionVerdict(NamedTuple):
    inside: bool
    component_label: str
    margin: float


def region_margin(z: complex) -> float:
    """Signed slack of the defining inequality (positive strictly inside).

    Where a product or difference overflows on the way, the slack is taken
    exactly and rounded once, to +-inf past the float range, so a finite z
    never gets a nan.  DomainError for a non-finite z."""
    x, y = z.real, z.imag
    c = SQUARE_HALF_WIDTH
    m = c - x * y / c - abs(x - y)
    if not math.isfinite(m):  # every non-finite z lands here
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"region membership needs a finite z, got {z!r}")
        # x y or x - y overflowed, and perhaps the slack: the slack exactly, rounded once
        x, y = Fraction(x), Fraction(y)
        exact = Fraction(c) - x * y / Fraction(c) - abs(x - y)
        try:
            m = float(exact)
        except OverflowError:
            m = math.inf if exact > 0 else -math.inf
    return m


def _component(x: float, y: float) -> str | None:
    c = SQUARE_HALF_WIDTH
    if abs(x) < c and abs(y) < c:
        return "central_square"
    if x > c and y < -c:
        return "lower_right"
    if x < -c and y > c:
        return "upper_left"
    return None


def classify_inequality(z: complex) -> RegionVerdict:
    """Verdict by the defining inequality; labels follow the decomposition."""
    z = complex(z)
    m = region_margin(z)
    if abs(m) <= _BOUNDARY_BAND:
        return RegionVerdict(False, "boundary", m)
    if m < 0:
        return RegionVerdict(False, "outside", m)
    label = _component(z.real, z.imag)
    if label is None:
        # mathematically unreachable for strictly interior points
        raise ConsistencyError(f"interior point {z!r} matches no component")
    return RegionVerdict(True, label, m)


def classify_decomposition(z: complex) -> RegionVerdict:
    """Verdict by explicit membership in the three-set union."""
    z = complex(z)
    m = region_margin(z)
    if abs(m) <= _BOUNDARY_BAND:
        return RegionVerdict(False, "boundary", m)
    label = _component(z.real, z.imag)
    if label is None:
        return RegionVerdict(False, "outside", m)
    return RegionVerdict(True, label, m)


def require_inside(z: complex, what: str) -> None:
    """RegionError, naming the caller what, unless z is strictly inside the region."""
    if not classify_inequality(z).inside:
        raise RegionError(f"{what}: z={complex(z)!r} lies outside the admissible region")


def region_grid(
    x_min: float,
    x_max: float,
    y_min: float,
    y_max: float,
    step: float,
) -> list[tuple[complex, RegionVerdict]]:
    """Row-major classification of every grid node by the defining inequality.
    grid_nodes builds both axes (ConfigError on bad bounds or step);
    ConfigError, before any point is classified, when the grid has more than
    MAX_REGION_POINTS."""
    xs = grid_nodes(x_min, x_max, step)
    ys = grid_nodes(y_min, y_max, step)
    if xs.size * ys.size > MAX_REGION_POINTS:
        raise ConfigError(f"region grid step {step} has {xs.size} x {ys.size} = "
                          f"{xs.size * ys.size} points, more than {MAX_REGION_POINTS}")
    xs = xs.tolist()
    nodes = (complex(x, y) for y in ys.tolist() for x in xs)
    return [(z, classify_inequality(z)) for z in nodes]
