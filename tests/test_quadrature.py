import cmath
import inspect
import math

import numpy as np
import pytest

from xishift.quadrature import adaptive_gk, truncation_point


class TestAdaptiveGK:
    def test_polynomial_exact(self):
        out = adaptive_gk(lambda x: x**2, 0.0, 1.0, 1e-12)
        assert abs(out.value - 1.0 / 3.0) < 1e-13

    def test_oscillatory_decaying(self):
        c = -1.0 + 10.0j
        exact = ((cmath.exp(c * 2 * math.pi) - 1.0) / c).real
        out = adaptive_gk(lambda t: np.exp(-t) * np.cos(10.0 * t), 0.0, 2 * math.pi, 1e-11)
        assert abs(out.value.real - exact) <= max(out.abs_err_est, 1e-12)

    def test_complex_quadratic_phase(self):
        # int_0^5 exp(i t^2) dt, frozen from a 40-digit computation
        ref = complex(0.6114667663964626, 0.5279172811653224)
        out = adaptive_gk(lambda t: np.exp(1j * t * t), 0.0, 5.0, 1e-10)
        assert abs(out.value - ref) <= max(3.0 * out.abs_err_est, 1e-11)

    def test_roundoff_floor_reported(self):
        out = adaptive_gk(lambda t: 1e8 * np.sin(37.0 * t), 0.0, 2 * math.pi, 1e-14)
        ref = 1e8 * (1.0 - math.cos(37.0 * 2 * math.pi)) / 37.0
        assert out.at_roundoff
        assert abs(out.value.real - ref) <= max(5.0 * out.abs_err_est, 1e-5)

    def test_deterministic(self):
        f = lambda t: np.sin(3.3 * t) / (1.0 + t * t)
        a = adaptive_gk(f, 0.0, 30.0, 1e-12)
        b = adaptive_gk(f, 0.0, 30.0, 1e-12)
        assert a.value == b.value and a.evaluations == b.evaluations

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            adaptive_gk(lambda x: x, 1.0, 0.0, 1e-8)

    def test_keywords_are_the_panel_counts(self):
        # the refinement wave size is fixed; no caller sets it
        params = inspect.signature(adaptive_gk).parameters
        keywords = [p for p in params if params[p].kind is inspect.Parameter.KEYWORD_ONLY]
        assert keywords == ["initial_panels", "max_panels"]


class TestTruncationPoint:
    def test_monotone_in_target(self):
        t1 = truncation_point(6.0, 0.3, 0.5, 1e-8, 40.0)
        t2 = truncation_point(6.0, 0.3, 0.5, 1e-12, 40.0)
        assert t2 > t1 >= 40.0

    def test_majorant_below_target(self):
        p, r, c, tgt = 6.0, 0.29, 0.6, 1e-11
        T = truncation_point(p, r, c, tgt, 40.0)
        g = lambda t: math.exp(p * math.log(t) - r * t + c * math.sqrt(t))
        assert g(T) <= tgt * 1.01
        assert g(1.5 * T) < g(T)  # on the decreasing flank

    def test_floor_respected(self):
        assert truncation_point(0.0, 5.0, 0.0, 1e-3, 40.0) >= 40.0

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            truncation_point(6.0, 0.0, 0.5, 1e-8, 40.0)
