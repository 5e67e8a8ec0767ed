
import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from xishift import classify_decomposition, classify_inequality, region, region_grid
from xishift.errors import ConfigError, DomainError, RegionError
from xishift.region import require_inside
from xishift.region import SQUARE_HALF_WIDTH, region_margin

C = SQUARE_HALF_WIDTH
RNG = np.random.default_rng(55)


class TestMembership:
    def test_origin(self):
        v = classify_inequality(0.0)
        assert v.inside and v.component_label == "central_square"
        assert v.margin == pytest.approx(C)

    def test_square_edge_is_boundary(self):
        for z in (complex(C, 0), complex(-C, 0.3), complex(0.2, C), complex(0.4, -C)):
            v = classify_inequality(z)
            assert not v.inside and v.component_label == "boundary", z

    def test_corner_quadrants(self):
        v = classify_inequality(2.0 - 2.0j)
        assert v.inside and v.component_label == "lower_right"
        v = classify_decomposition(-2.0 + 2.0j)
        assert v.inside and v.component_label == "upper_left"

    def test_central_point(self):
        v = classify_decomposition(1.0 + 1.0j)
        assert v.inside and v.component_label == "central_square"

    def test_outside(self):
        for z in (2.0 + 2.0j, -3.0 - 3.0j, complex(1.5, 0.0)):
            assert not classify_inequality(z).inside, z
            assert not classify_decomposition(z).inside, z

    def test_axes_inside_up_to_half_width(self):
        for r in np.linspace(-C + 1e-6, C - 1e-6, 21):
            assert classify_inequality(complex(r, 0.0)).inside
            assert classify_inequality(complex(0.0, r)).inside

    def test_vertices_not_inside(self):
        for z in (complex(C, C), complex(C, -C), complex(-C, C), complex(-C, -C)):
            assert not classify_inequality(z).inside, z


class TestUnboundedInput:
    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(math.inf, 0.0),
                                   complex(0.3, -math.inf), complex(math.inf, math.nan)],
                             ids=["nan", "inf", "minus-inf-imag", "inf-nan"])
    def test_non_finite_z_is_domain_error(self, z):
        # nan gave ConsistencyError from one classifier and "outside" from the other
        for classify in (classify_inequality, classify_decomposition):
            with pytest.raises(DomainError, match="finite z"):
                classify(z)
        with pytest.raises(DomainError):
            require_inside(z, "test")

    @pytest.mark.parametrize("z, inside, label, margin", [
        (complex(1e308, -1e308), True, "lower_right", math.inf),  # was margin nan
        (complex(-1e308, 1e308), True, "upper_left", math.inf),
        (complex(1e200, -1e200), True, "lower_right", math.inf),
        (complex(1e308, 1e308), False, "outside", -math.inf),
        # x y overflows but the slack does not: it was +inf, and a ConsistencyError
        (complex(1.7e308, -1.1), False, "outside", -2.079558712986415e307),
    ], ids=["lower-right", "upper-left", "lower-right-1e200", "outside", "product-only"])
    def test_overflowing_slack_keeps_its_sign(self, z, inside, label, margin):
        for classify in (classify_inequality, classify_decomposition):
            assert classify(z) == (inside, label, margin), classify
        if not inside:
            with pytest.raises(RegionError):
                require_inside(z, "test")

    def test_finite_z_never_has_a_nan_margin(self):
        mags = 10.0 ** RNG.uniform(150.0, 308.0, size=(2_000, 2))
        signs = RNG.choice([-1.0, 1.0], size=(2_000, 2))
        for x, y in mags * signs:
            v1, v2 = classify_inequality(complex(x, y)), classify_decomposition(complex(x, y))
            assert not math.isnan(v1.margin) and v1 == v2, (x, y)


class TestEquivalence:
    def test_random_sample(self):
        pts = RNG.uniform(-4.0, 4.0, size=(20_000, 2))
        for x, y in pts:
            z = complex(x, y)
            v1, v2 = classify_inequality(z), classify_decomposition(z)
            if abs(v1.margin) > 1e-9:
                assert v1.inside == v2.inside, z

    @hyp_settings(max_examples=300, deadline=None)
    @given(st.floats(-4, 4), st.floats(-4, 4))
    def test_antipodal_symmetry(self, x, y):
        z = complex(x, y)
        assert classify_inequality(z).inside == classify_inequality(-z).inside

    @hyp_settings(max_examples=300, deadline=None)
    @given(st.floats(-4, 4), st.floats(-4, 4))
    def test_margin_matches_definition(self, x, y):
        z = complex(x, y)
        expected = C - x * y / C - abs(x - y)
        assert region_margin(z) == pytest.approx(expected, abs=1e-12)


class TestGrid:
    def test_consistency_and_shape(self):
        grid = region_grid(-3.0, 3.0, -3.0, 3.0, 0.1)
        assert len(grid) == 61 * 61
        # row-major: x varies fastest
        assert grid[1][0].real > grid[0][0].real
        assert grid[1][0].imag == grid[0][0].imag

    def test_grid_symmetry(self):
        grid = dict(region_grid(-2.0, 2.0, -2.0, 2.0, 0.5))
        for z, v in grid.items():
            assert grid[-z].inside == v.inside

    def test_point_cap_refuses_before_classifying(self, monkeypatch):
        # 6001 x 6001 points would take ~2 minutes and ~7 GB; each axis alone
        # is well inside the grid_nodes cap
        def refuse(z):
            raise AssertionError(f"classified {z!r}")

        monkeypatch.setattr(region, "classify_inequality", refuse)
        with pytest.raises(ConfigError, match=r"6001 x 6001 = 36012001 points, more than 1000000"):
            region_grid(-3.0, 3.0, -3.0, 3.0, 1e-3)
        assert region.MAX_REGION_POINTS == 1_000_000

    def test_bad_params(self):
        # the axes share the eval/scan grid rule, and its ConfigError
        with pytest.raises(ConfigError):
            region_grid(0.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            region_grid(1.0, 0.0, 0.0, 1.0, 0.1)
