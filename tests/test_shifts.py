import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from xishift import (
    ConfigError,
    DegenerateError,
    DomainError,
    EvalSettings,
    EvaluationError,
    PoleError,
    ShiftConfig,
    SymmetryError,
    eta_completed,
    f_z,
    f_z_critical,
    hyp1f1,
    make_config,
    moment_closed_form,
    moment_integral,
    moment_limit_check,
    moment_numeric,
    moment_params,
    moment_series_rhs,
    polar_shift,
    validate_config,
)
from xishift import integral, shifts, specfun
from xishift.quadrature import TrapezoidOutcome, nested_trapezoid, truncation_point
from xishift.shifts import fz_line_vec

from ._oracles import ZETA_ZEROS

RNG = np.random.default_rng(99)
HARDY = make_config([1.0], [0.0], 0.0)
TWO_TERM = make_config([1.0, 0.5], [0.0, 1.0], 0.3 + 0.1j)


class TestConfig:
    def test_hardy_is_valid(self):
        assert validate_config(HARDY) is HARDY

    def test_duplicate_shifts_rejected(self):
        with pytest.raises(ConfigError):
            make_config([1.0, 0.5], [0.3, 0.3], 0.0)

    def test_tied_maximum_rejected(self):
        with pytest.raises(ConfigError):
            make_config([1.0, 0.5], [0.3, -0.3], 0.0)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ConfigError):
            make_config([1.0, 0.0], [0.1, 0.2], 0.0)

    def test_z_outside_region_rejected(self):
        with pytest.raises(ConfigError):
            make_config([1.0], [0.0], 2.0 + 2.0j)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(ShiftConfig((1.0,), (0.0, 1.0), 0.0))

    @pytest.mark.parametrize("coefficients, shift_list, z, match", [
        ((1.0, 0.0, 0.5), (0.0, 0.0, 1.0), 0j, "nonzero"),  # and a repeated shift
        ((1.0,), (0.0,), 2 + 2j, "admissible region"),
        ((1.0, 1.0), (-1.0, 1.0), 0.3, "exactly one entry"),
        ((), (), 0j, "at least one coefficient"),
        ((1.0,), (math.inf,), 0j, "shifts must be finite"),
        ((1.0,), (0.0,), complex(math.nan, 0.0), "z must be finite"),
    ])
    def test_direct_construction_validates(self, coefficients, shift_list, z, match):
        # every route takes a ShiftConfig, so the record refuses what make_config refuses
        with pytest.raises(ConfigError, match=match):
            ShiftConfig(coefficients, shift_list, z)


class TestFz:
    def test_hardy_reduction_is_twice_eta(self):
        for s in (0.3 + 7.0j, 0.8 - 2.5j, 0.5 + 14.0j):
            got = f_z(s, HARDY).value
            ref = 2.0 * eta_completed(s).value
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref)), s

    def test_bracket_conjugacy_on_line(self):
        s, lam, z = 0.5 + 3.0j, 0.7, 0.4 + 0.2j
        first = hyp1f1((1 - (s + 1j * lam)) / 2.0, 0.5, z * z / 4.0).value
        second = hyp1f1(
            (1 - (s.conjugate() - 1j * lam)) / 2.0, 0.5, z.conjugate() ** 2 / 4.0
        ).value
        assert abs(second - first.conjugate()) < 1e-12

    def test_bracket_conjugacy_off_line(self):
        # at general s the two confluent factors are still a conjugate pair
        # in the combined (s, z) -> (conj s, conj z) sense
        s, lam, z = 0.3 + 2.0j, 0.4, 0.2 + 0.3j
        f1 = hyp1f1((1 - (s + 1j * lam)) / 2.0, 0.5, z * z / 4.0).value
        f1_mirror = hyp1f1(
            (1 - (s.conjugate() - 1j * lam)) / 2.0, 0.5, z.conjugate() ** 2 / 4.0
        ).value
        assert abs(f1_mirror - f1.conjugate()) < 1e-12

    def test_two_term_hand_assembly(self):
        s = 0.5 + 5.0j
        z = TWO_TERM.z
        total = 0.0j
        for c, lam in zip(TWO_TERM.coefficients, TWO_TERM.shifts):
            sj = s + 1j * lam
            bracket = (
                hyp1f1((1 - sj) / 2.0, 0.5, z * z / 4.0).value
                + hyp1f1((1 - (s.conjugate() - 1j * lam)) / 2.0, 0.5,
                         z.conjugate() ** 2 / 4.0).value
            )
            total += c * eta_completed(sj).value * bracket
        got = f_z(s, TWO_TERM).value
        assert abs(got - total) <= 1e-11 * max(1.0, abs(total))

    def test_pole_error(self):
        with pytest.raises(PoleError):
            f_z(complex(0.0, -0.3), make_config([1.0], [0.3], 0.0))

    def test_underflow_raises(self):
        with pytest.raises(EvaluationError, match="1000"):
            f_z(0.5 + 1000j, HARDY)

    def test_z_zero_reduction_pointwise(self):
        cfg = make_config([0.7, -0.2], [0.1, 1.3], 0.0)
        for t in (1.0, 8.0, 20.0):
            s = 0.5 + 1j * t
            got = f_z(s, cfg).value
            ref = 2.0 * sum(
                c * eta_completed(s + 1j * lam).value
                for c, lam in zip(cfg.coefficients, cfg.shifts)
            )
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


def _count_calls(monkeypatch, fn, counts: dict, key: str) -> None:
    """Count calls of fn through every xishift module attribute bound to it."""

    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("xishift"):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)


class TestOneKernel:
    """f_z and fz_line_vec are one kernel: every shift and point of a call
    through one eta call and one 1F1 call."""

    EXHIBIT = make_config([1.0, 0.5, 0.25], [0.0, 1.0, 2.0], 0.5 + 0.25j)

    def _counts(self, monkeypatch) -> dict:
        counts = {"eta": 0, "1f1": 0}
        _count_calls(monkeypatch, specfun._eta_vec, counts, "eta")
        _count_calls(monkeypatch, specfun.hyp1f1_vec, counts, "1f1")
        return counts

    def test_line_call_counts(self, monkeypatch):
        counts = self._counts(monkeypatch)
        fz_line_vec(np.linspace(0.0, 60.0, 7), self.EXHIBIT)
        assert counts == {"eta": 1, "1f1": 1}

    def test_general_point_call_counts(self, monkeypatch):
        counts = self._counts(monkeypatch)
        f_z(0.3 + 7.0j, self.EXHIBIT)
        assert counts == {"eta": 1, "1f1": 1}

    def test_line_is_the_kernel_on_the_line(self):
        ts = np.array([0.0, 3.7, 14.0, 100.3, 600.0])
        re, im, err = fz_line_vec(ts, self.EXHIBIT)
        for t, r, i, e in zip(ts, re, im, err):
            got = f_z(complex(0.5, t), self.EXHIBIT)
            assert (got.value, got.abs_err_est) == (complex(r, i), e), t


class TestCriticalLine:
    def test_hardy_vanishes_at_zeta_zero(self):
        assert abs(f_z_critical(ZETA_ZEROS[0], HARDY)) < 1e-5

    def test_matches_re_fz(self):
        cfg = make_config([1.0, -0.5], [0.2, 0.9], 0.5)
        for t in (2.0, 14.1, 33.3):
            a = f_z_critical(t, cfg)
            b = f_z(0.5 + 1j * t, cfg).value.real
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))

    def test_reality_residue_bound_on_grids(self):
        for cfg in (HARDY, TWO_TERM, make_config([1.0, 0.5, 0.25], [0.0, 1.0, 2.0], 0.5 + 0.25j)):
            ts = np.linspace(0.0, 40.0, 401)
            re, im, _ = fz_line_vec(ts, cfg)
            assert np.all(np.abs(im) <= 1e-9 * (1.0 + np.hypot(re, im))), cfg

    def test_underflow_raises(self):
        # the Hardy value underflows past t ~ 873; f_z refuses it there, and so must the line
        with pytest.raises(EvaluationError, match=r"f_z_critical\(t=950\.0\).*underflowed"):
            f_z_critical(950.0, HARDY)

    def test_resolved_values_are_the_line_kernel(self):
        ts = np.array([0.0, 14.0, 104.5, 500.0, 869.5])
        for cfg in (HARDY, TWO_TERM):
            re, _, _ = fz_line_vec(ts, cfg)
            assert [f_z_critical(t, cfg) for t in ts] == list(re)

    def test_reality_failure_names_t(self, monkeypatch):
        def skewed(t, cfg, settings):
            re, im, err = fz_line_vec(t, cfg, settings)
            return re, im + 1e-3, err

        monkeypatch.setattr(shifts, "fz_line_vec", skewed)
        with pytest.raises(SymmetryError, match=r"t=2\.5"):
            f_z_critical(2.5, TWO_TERM)

    def test_term_cross_check(self):
        cfg = make_config([1.0, -0.5], [0.2, 0.9], 0.5 + 0.25j)
        t = 2.0
        z = cfg.z
        ref = 2.0 * sum(
            c * eta_completed(0.5 + 1j * (t + lam)).value.real
            * hyp1f1((1 - 2j * (t + lam)) / 4.0, 0.5, z * z / 4.0).value.real
            for c, lam in zip(cfg.coefficients, cfg.shifts)
        )
        assert abs(f_z_critical(t, cfg) - ref) <= 1e-10 * (1.0 + abs(ref))


class TestPolarAndParams:
    def test_polar_examples(self):
        ps = polar_shift(0.0)
        assert ps.r == pytest.approx(0.5) and ps.theta == pytest.approx(math.pi / 2)
        ps = polar_shift(0.5)
        assert ps.r == pytest.approx(math.sqrt(2) / 2) and ps.theta == pytest.approx(3 * math.pi / 4)
        ps = polar_shift(-0.5)
        assert ps.theta == pytest.approx(math.pi / 4)

    @hyp_settings(max_examples=200, deadline=None)
    @given(st.floats(-10, 10))
    def test_polar_round_trip(self, lam):
        ps = polar_shift(lam)
        back = ps.r * cmath.exp(1j * ps.theta)
        assert abs(back - (0.5j - lam)) < 1e-14 * (1.0 + abs(lam))
        assert 0.0 < ps.theta < math.pi

    def test_moment_params_examples(self):
        p = moment_params(0.0)
        assert (p.u, p.v, p.w, p.beta) == (1.0, 0.0, 1.0, 0.0)
        p = moment_params(1.0)
        assert p.v == 0.0 and p.beta == 0.0
        assert p.u == pytest.approx(1.0 + math.exp(0.125) * math.sinh(0.125))

    @hyp_settings(max_examples=200, deadline=None)
    @given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
    def test_moment_params_consistency(self, x, y):
        z = complex(x, y)
        try:
            p = moment_params(z)
        except DegenerateError:
            return
        assert abs(p.w - math.hypot(p.u, p.v)) < 1e-14
        assert abs(p.w * math.cos(p.beta) - p.u) < 5e-14
        assert abs(p.w * math.sin(p.beta) - p.v) < 5e-14
        assert 0.0 <= p.beta < 2.0 * math.pi

    def test_degenerate_w(self):
        z = math.sqrt(2.0 * math.pi) * (1.0 + 1.0j)  # e^(z^2/4) = -1
        with pytest.raises(DegenerateError):
            moment_params(z)

    def test_overflowed_square_is_degenerate(self):
        # z^2/8 overflows to a nan modulus, which no comparison with 1e-14 catches
        with pytest.raises(DegenerateError):
            moment_params(1e200 + 1e200j)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.3, math.inf)])
    def test_moment_params_non_finite_z(self, z):
        with pytest.raises(DomainError, match="finite z"):
            moment_params(z)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_polar_non_finite_shift(self, lam):
        with pytest.raises(DomainError, match="finite shift"):
            polar_shift(lam)


class TestMoments:
    def test_closed_form_hardy(self):
        got = moment_closed_form(0, HARDY)
        assert abs(got + 4.0 * math.pi * math.cos(math.pi / 8.0)) < 1e-12

    def test_closed_form_real_z_prefactor(self):
        # for real z the closed form factorizes into (1 + e^(z^2/8) sinh(z^2/8))
        # times the z = 0 cosine sum
        cfg = make_config([1.0, 0.5], [0.0, 1.0], 0.7)
        m = 1
        pref = 1.0 + math.exp(0.7**2 / 8.0) * math.sinh(0.7**2 / 8.0)
        base = sum(
            c * math.exp(-math.pi * lam / 4.0) * polar_shift(lam).r ** (2 * m)
            * math.cos(math.pi / 8.0 + 2 * m * polar_shift(lam).theta)
            for c, lam in zip(cfg.coefficients, cfg.shifts)
        )
        assert abs(moment_closed_form(m, cfg) - pref * (-4.0 * math.pi) * base) < 1e-12

    def test_closed_form_assembled_complex_z(self):
        cfg = make_config([1.0, 0.5], [0.0, 1.0], 0.3 + 0.1j)
        p = moment_params(cfg.z)
        total = 0.0
        for c, lam in zip(cfg.coefficients, cfg.shifts):
            ps = polar_shift(lam)
            total += c * math.exp(-math.pi * lam / 4.0) * ps.r ** 2 * math.cos(
                math.pi / 8.0 + p.beta + 2.0 * ps.theta
            )
        assert moment_closed_form(1, cfg) == pytest.approx(-4.0 * math.pi * p.w * total)

    def test_series_identity_two_term(self):
        st_q = EvalSettings(quad_abs_tol=1e-9)
        cfg = make_config([1.0, 0.5], [0.0, 1.0], 0.3 - 0.2j)
        for m, tol in ((0, 1e-5), (1, 1e-4)):
            lhs = moment_numeric(m, 0.2, cfg, st_q)
            rhs = moment_series_rhs(m, 0.2, cfg)
            assert abs(lhs - rhs) < tol, (m, lhs, rhs)

    def test_numeric_equals_per_shift_integrals(self):
        tol = 1e-9
        st_q = EvalSettings(quad_abs_tol=tol)
        cfg = make_config([1.0, 0.5], [0.0, 1.0], 0.3 - 0.2j)
        bound = sum(abs(c) for c in cfg.coefficients) * tol
        for alpha in (0.2, 0.5):
            for m in (0, 1, 2):
                ref = sum(
                    c * moment_integral(m, alpha, lam, cfg.z, st_q).value
                    for c, lam in zip(cfg.coefficients, cfg.shifts)
                )
                assert abs(moment_numeric(m, alpha, cfg, st_q) - ref) <= bound, (alpha, m)

    def test_one_quadrature_per_moment(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return nested_trapezoid(*args, **kwargs)

        monkeypatch.setattr(integral, "nested_trapezoid", counted)
        cfg = make_config([1.0, 0.5, 0.25], [0.0, 1.0, 2.0], 0.5 + 0.25j)
        tol = 1e-9
        moment_numeric(1, 0.2, cfg, EvalSettings(quad_abs_tol=tol))
        assert len(calls) == 1
        # the range covers every shift's own [-T_lo + lam, T_hi + lam]; each
        # side is cut at its own decay rate, pi/4 + alpha on the left and
        # pi/4 - alpha on the right, with the same tail target
        def side(rate):
            target = 0.025 * tol * rate / (8.0 * sum(cfg.coefficients))
            return truncation_point(2.0, rate, abs(cfg.z) / math.sqrt(2.0), target, 40.0)

        t_lo, t_hi = side(math.pi / 4.0 + 0.2), side(math.pi / 4.0 - 0.2)
        assert t_lo < t_hi
        assert calls[0] == (-t_lo + 0.0, t_hi + 2.0)

        # both alpha samples of the limit check share one quadrature; the
        # count is all that is asked here, so the integral itself is skipped
        def skipped(*args, **kwargs):
            calls.append(args[1:3])
            return TrapezoidOutcome(0j, 0.0, 0, 0, False)

        calls.clear()
        monkeypatch.setattr(integral, "nested_trapezoid", skipped)
        moment_limit_check(0, HARDY)
        assert len(calls) == 1

    def test_linearity_in_coefficients(self):
        st_q = EvalSettings(quad_abs_tol=1e-9)
        cfg1 = make_config([1.0, 0.5], [0.0, 1.0], 0.3 - 0.2j)
        cfg2 = make_config([2.0, 1.0], [0.0, 1.0], 0.3 - 0.2j)
        v1 = moment_numeric(0, 0.1, cfg1, st_q)
        v2 = moment_numeric(0, 0.1, cfg2, st_q)
        assert abs(v2 - 2.0 * v1) <= 1e-12 * (1.0 + abs(v2))
