import cmath
import inspect
import math
import re

import numpy as np
import pytest

from xishift import quadrature
from xishift.quadrature import adaptive_gk, nested_trapezoid, truncation_point


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


def _exact(g):
    """An integrand with exact values: zero error bounds."""
    return lambda x: (g(x), np.zeros(x.shape))


class TestNestedTrapezoid:
    def test_gaussian(self):
        out = nested_trapezoid(_exact(lambda x: np.exp(-x * x)), -10.0, 10.0, 1e-12)
        assert abs(out.value - math.sqrt(math.pi)) <= out.abs_err_est <= 1e-12
        assert not out.at_roundoff
        # level 0 is the 21 integers in [-10, 10]; the estimate needs three
        # levels, every multiple of 1/4 in the range
        assert out.levels == 3 and out.evaluations == 4 * 20 + 1

    def test_complex_oscillatory(self):
        exact = math.sqrt(math.pi) * math.exp(-4.0)
        out = nested_trapezoid(_exact(lambda x: np.exp(-x * x + 4j * x)), -10.0, 10.0, 1e-11)
        assert abs(out.value - exact) <= out.abs_err_est <= 1e-11

    def test_noise_terms_enter_the_estimate(self):
        # error bounds of 1e-9 per value sum to 1e-9 * (b - a): a tol below
        # that ends at the plateau, flagged, not at the node cap
        g = lambda x: np.exp(-x * x)
        noisy = lambda x: (g(x), np.full(x.shape, 1e-9))
        out = nested_trapezoid(noisy, -10.0, 10.0, 1e-12)
        assert out.abs_err_est >= 20.0 * 1e-9
        assert out.at_roundoff and out.levels == 3
        # rounding alone: h * sum |f| is ~ the integral of |f|
        out = nested_trapezoid(_exact(lambda x: 1e8 * g(x)), -10.0, 10.0, 1e-12)
        assert out.at_roundoff
        assert out.abs_err_est >= np.finfo(float).eps * 1e8 * math.sqrt(math.pi)

    @pytest.mark.parametrize("abs_tol", [1e-12, 1e-14])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_estimate_covers_rounded_node_positions(self, k, abs_tol):
        # [-9.3, 10] is off the grid: a grid a + (b - a) j/n rounds its nodes
        # by a few eps |x| each, which moved the value by that times |f'(x)|,
        # 1.7x to 4.5x an estimate of the level sums' rounding alone.  The
        # anchored nodes j 2^(-k) are exact, so the rounding of the sums is
        # all that is left with exact values
        exact = math.sqrt(math.pi) * math.exp(-k * k / 4.0)
        out = nested_trapezoid(_exact(lambda x: np.exp(-x * x + 1j * k * x)), -9.3, 10.0, abs_tol)
        assert abs(out.value - exact) <= out.abs_err_est

    def test_node_cap(self, monkeypatch):
        # 1/(1+x^2) is not entire: the differences fall algebraically, and
        # refinement runs into the cap with the estimate still above tol
        monkeypatch.setattr(quadrature, "_MAX_NODES", 1000)
        out = nested_trapezoid(_exact(lambda x: 1.0 / (1.0 + x * x)), -30.0, 30.0, 1e-14)
        assert out.evaluations == 16 * 60 + 1 and out.levels == 5
        assert out.abs_err_est > 1e-14 and not out.at_roundoff

    def test_deterministic_and_block_independent(self, monkeypatch):
        f = _exact(lambda t: np.sin(3.3 * t) * np.exp(-0.1 * t * t))
        a = nested_trapezoid(f, -30.0, 30.0, 1e-12)
        monkeypatch.setattr(quadrature, "_BLOCK", 5)
        assert nested_trapezoid(f, -30.0, 30.0, 1e-12) == a

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            nested_trapezoid(_exact(lambda x: x), 1.0, 0.0, 1e-8)

    @pytest.mark.parametrize("a, b", [(0.2, 0.8), (0.2, 1.5)])
    def test_level_zero_needs_two_integers(self, a, b):
        with pytest.raises(ValueError, match=re.escape(f"[{a}, {b}]")):
            nested_trapezoid(_exact(lambda x: np.exp(-x * x)), a, b, 1e-8)

    def test_end_term_enters_the_estimate(self):
        # f = 1 on [0.5, 3.5]: every level from h = 1/2 on counts both ends
        # with full weight, so it errs by h while d_k = h and d_k^2/d_(k-1)
        # = h/2; the end term 2h keeps the estimate above the error
        out = nested_trapezoid(_exact(np.ones_like), 0.5, 3.5, 1e-3)
        assert abs(out.value - 3.0) <= out.abs_err_est <= 1e-3
        assert abs(out.value - 3.0) == 2.0 ** (1 - out.levels)
        # e^(-x^2) is not small at 0.2: the end term falls only as h, and the
        # rule ends at the node cap with its estimate above tol
        exact = math.sqrt(math.pi) / 2.0 * (math.erf(2.5) - math.erf(0.2))
        out = nested_trapezoid(_exact(lambda x: np.exp(-x * x)), 0.2, 2.5, 1e-8)
        assert abs(out.value - exact) <= out.abs_err_est
        assert out.abs_err_est > 1e-8 and not out.at_roundoff

    def test_nodes_are_exact_and_shared(self, monkeypatch):
        # one kernel call per level, levels 0 and 1 sharing the first: level
        # k's nodes x have x 2^k an integer, odd from level 1 on, and two
        # ranges get the same bits where they overlap
        monkeypatch.setattr(quadrature, "_BLOCK", 1 << 30)
        levels = []

        def recorded(x):
            levels[-1].append(x.copy())
            return np.exp(-x * x + 2j * x), np.zeros(x.shape)

        for a, b in ((-9.3, 10.0), (-5.7, 12.2)):
            levels.append([])
            nested_trapezoid(recorded, a, b, 1e-14)
            # the first call is level 0, the integers in [a, b], then level 1
            first, n = levels[-1][0], math.floor(b) - math.ceil(a) + 1
            levels[-1][:1] = [first[:n], first[n:]]
            assert len(levels[-1]) > 2
        for calls in levels:
            for k, x in enumerate(calls):
                scaled = x * 2.0 ** k
                assert np.array_equal(scaled, np.round(scaled))
                assert k == 0 or np.all(scaled % 2 == 1)
        for x, y in zip(*levels):
            on_x = x[(x >= -5.7) & (x <= 10.0)]
            on_y = y[(y >= -5.7) & (y <= 10.0)]
            assert on_x.size and on_x.tobytes() == on_y.tobytes()

    def test_levels_zero_and_one_share_each_block(self, monkeypatch):
        # a rule that stops at level 1 makes one call per block of _BLOCK
        # nodes over both levels: 6001 integers and 6000 halves
        sizes = []

        def recorded(x):
            sizes.append(x.size)
            return np.exp(-x * x), np.zeros(x.shape)

        out = nested_trapezoid(recorded, -3000.0, 3000.0, 1e-3)
        assert (out.levels, out.evaluations) == (2, 12_001)
        assert sizes == [2048] * 5 + [12_001 - 5 * 2048]
        # a cap that level 1 would pass leaves level 0 to run alone
        sizes.clear()
        monkeypatch.setattr(quadrature, "_MAX_NODES", 12_000)
        out = nested_trapezoid(recorded, -3000.0, 3000.0, 1e-3)
        assert (out.levels, out.evaluations) == (1, 6001)
        assert sizes == [2048, 2048, 6001 - 2 * 2048]

    def test_no_keywords(self):
        # the block size and the node cap are module constants; no caller
        # sets them.  poles describes the integrand
        params = inspect.signature(nested_trapezoid).parameters
        assert list(params) == ["f", "a", "b", "abs_tol", "poles"]


def _reference_nested_trapezoid(f, a, b, abs_tol, poles=()):
    """nested_trapezoid as it was with one kernel call per level."""
    if any(tau.imag == 0.0 for tau, _ in poles):
        raise ValueError("poles must lie off the real axis")
    x = quadrature._level(a, b, 0)
    if x.size < 2:
        raise ValueError(f"need at least two integer nodes in [{a}, {b}]")
    vals, errs = quadrature._evaluate(f, x)
    total, mass, noise = vals.sum(), np.abs(vals).sum(), errs.sum()
    value = total - quadrature._pole_terms(poles, 1.0)
    evaluations, levels = x.size, 1
    disc, d_prev, floor = math.inf, 0.0, 0.0
    while evaluations + (x := quadrature._level(a, b, levels)).size <= quadrature._MAX_NODES:
        vals, errs = quadrature._evaluate(f, x)
        total += vals.sum()
        mass += np.abs(vals).sum()
        noise += errs.sum()
        evaluations += x.size
        h = math.ldexp(1.0, -levels)
        levels += 1
        new = h * total - quadrature._pole_terms(poles, h)
        d = abs(new - value)
        value = new
        disc = (d * d / d_prev if d_prev > 0.0 else d) + h * (abs(vals[0]) + abs(vals[-1]))
        floor = float(h * (noise + quadrature._ROUNDING * mass))
        if disc + floor <= abs_tol or d <= floor:
            break
        d_prev = d
    est = float(disc + floor)
    return quadrature.TrapezoidOutcome(
        value=complex(value),
        abs_err_est=est,
        evaluations=evaluations,
        levels=levels,
        at_roundoff=bool(est > abs_tol and disc <= floor),
    )


def _bits(out):
    return (out.value.real.hex(), out.value.imag.hex(), out.abs_err_est.hex(),
            out.evaluations, out.levels, out.at_roundoff)


def _poles_gauss(x):
    """e^(-x^2)/(1 + 4x^2): simple poles at +-i/2, residues +-e^(1/4)/(4i)."""
    return np.exp(-x * x) / (1.0 + 4.0 * x * x)


_POLES_GAUSS = ((0.5j, math.exp(0.25) / 4j), (-0.5j, -math.exp(0.25) / 4j))


class TestPoleTerms:
    """Simple poles off the axis, subtracted from each level by their residues."""

    @pytest.mark.parametrize("a, b", [(-9.0, 9.0), (-9.3, 9.1)])
    def test_closed_form(self, a, b):
        # pi/2 e^(1/4) erfc(1/2) at 40 digits; in floats the closed form is
        # itself 1.6e-16 off
        exact = 0.96712413110133357252970362665396607696
        out = nested_trapezoid(_exact(_poles_gauss), a, b, 1e-13, _POLES_GAUSS)
        assert abs(out.value - exact) <= out.abs_err_est <= 1e-13
        # the multiples of 1/4 in [a, b]
        assert (out.evaluations, out.levels) == (math.floor(4 * b) - math.ceil(4 * a) + 1, 3)
        # without the pole terms the poles cap the convergence at e^(-pi/h)
        assert nested_trapezoid(_exact(_poles_gauss), a, b, 1e-13).levels > 3

    @pytest.mark.parametrize("a, b", [(-12.0, 12.0), (-12.3, 11.9)])
    def test_complex_residues(self, a, b):
        # one pole on each side, 0.4 and 0.25 off the axis, complex residues;
        # the integral over the real line by mpmath.quad at 40 digits
        p1, p2 = 0.3 + 0.4j, -1.1 - 0.25j
        g = lambda x: np.exp(-x * x / 2.0 + 0.7j * x)
        f = _exact(lambda x: g(x) * (1.0 / (x - p1) + 2.0 / (x - p2)))
        poles = ((p1, g(p1)), (p2, 2.0 * g(p2)))
        ref = complex(0.40738041319794044, 1.0172080229630305)
        out = nested_trapezoid(f, a, b, 1e-12, poles)
        assert abs(out.value - ref) <= out.abs_err_est <= 1e-12
        assert (out.evaluations, out.levels) == (97, 3)

    def test_no_poles_keeps_the_plain_sums(self):
        # with no poles the rule is the plain one: its frozen values,
        # estimates and node counts, bit for bit
        out = nested_trapezoid(_exact(_poles_gauss), -9.3, 9.1, 1e-13)
        assert out.value == float.fromhex("0x1.ef2ae4e4815aap-1")
        assert out.abs_err_est == float.fromhex("0x1.bcd444e6168f2p-52")
        assert (out.evaluations, out.levels) == (294, 5)
        f = _exact(lambda x: np.exp(-x * x + 3j * x))
        out = nested_trapezoid(f, -9.3, 10.0, 1e-12, ())
        assert out.value == complex(float.fromhex("0x1.7e98fff2d10a0p-3"),
                                    float.fromhex("0x1.fffffff1f7258p-56"))
        assert out.abs_err_est == float.fromhex("0x1.c62770c450cd1p-52")
        assert (out.evaluations, out.levels) == (78, 3)

    def test_pole_on_the_axis(self):
        with pytest.raises(ValueError):
            nested_trapezoid(_exact(_poles_gauss), -9.0, 9.0, 1e-13, ((1.0, 1.0),))


def _noisy(g):
    """An integrand whose error bounds vary from node to node: a level that
    sums another level's bounds shows in the estimate's bits."""
    return lambda x: (g(x), 1e-13 * np.abs(np.sin(7.0 * x)) * np.exp(-0.01 * x * x))


_CASES = {
    "gauss": (_exact(lambda x: np.exp(-x * x)), -10.0, 10.0, 1e-12, ()),
    "oscillatory off grid": (_exact(lambda x: np.exp(-x * x + 4j * x)), -9.3, 10.0, 1e-11, ()),
    "sin gauss": (_exact(lambda t: np.sin(3.3 * t) * np.exp(-0.1 * t * t)), -30.0, 30.0, 1e-12, ()),
    "noisy to the plateau": (_noisy(lambda x: np.exp(-x * x / 3.0 + 1j * x)), -17.6, 15.1, 1e-16, ()),
    "wide, stops at level 1": (_noisy(lambda x: np.exp(-1e-6 * x * x)), -6999.5, 7001.3, 1e-2, ()),
    "algebraic to the cap": (_exact(lambda x: 1.0 / (1.0 + x * x)), -30.0, 30.0, 1e-14, ()),
    "end term": (_exact(np.ones_like), 0.5, 3.5, 1e-3, ()),
    "poles": (_exact(_poles_gauss), -9.3, 9.1, 1e-13, _POLES_GAUSS),
    "poles on the integers": (_noisy(_poles_gauss), -9.0, 9.0, 1e-13, _POLES_GAUSS),
}


class TestSharedFirstCall:
    """Levels 0 and 1 share one kernel call; every sum still runs over the
    same nodes in the same order as the rule with one call per level."""

    @pytest.mark.parametrize("block", [5, quadrature._BLOCK])
    @pytest.mark.parametrize("case", list(_CASES))
    def test_bits_of_one_call_per_level(self, monkeypatch, case, block):
        f, a, b, tol, poles = _CASES[case]
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        if case == "algebraic to the cap":
            monkeypatch.setattr(quadrature, "_MAX_NODES", 1000)
        got = nested_trapezoid(f, a, b, tol, poles)
        assert _bits(got) == _bits(_reference_nested_trapezoid(f, a, b, tol, poles))

    @pytest.mark.parametrize("cap", [20, 21, 40, 41])
    @pytest.mark.parametrize("block", [5, quadrature._BLOCK])
    def test_bits_when_level_one_does_not_fit(self, monkeypatch, cap, block):
        # [-10, 10] has 21 integers and 20 halves: below 41 nodes level 0
        # runs alone and the rule stops there, with an infinite estimate
        f, a, b, tol, poles = _CASES["gauss"]
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        monkeypatch.setattr(quadrature, "_MAX_NODES", cap)
        got = nested_trapezoid(f, a, b, tol, poles)
        assert _bits(got) == _bits(_reference_nested_trapezoid(f, a, b, tol, poles))
        assert got.levels == (2 if cap == 41 else 1)
        assert (got.abs_err_est == math.inf) == (cap < 41)


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
