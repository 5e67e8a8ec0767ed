import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

from xishift import (
    AccuracyError,
    DomainError,
    EvalSettings,
    EvaluationError,
    QuadratureResult,
    RangeOverflowError,
    RegionError,
    ToleranceError,
    UnsupportedOrderError,
    eta_completed,
    hyp1f1,
    moment_integral,
    mu,
    nabla,
    series_side,
    transform_identity_residual,
    xi_integral,
)
from xishift import integral, make_config, moment_limit_check, quadrature, shifts, specfun
from xishift.integral import _weighted_moment
from xishift.quadrature import adaptive_gk, nested_trapezoid
from xishift.settings import ValueWithError
from xishift.shifts import moment_numeric
from xishift.specfun import (em_length, eta_line_vec, eta_weighted_line, hyp1f1_vec, xi_line_vec,
                             zeta_vec)

from ._oracles import MOMENT_HARDY_A0, TRANSFORM_SIDE_TABLE, XI_INT_HARDY


class TestKernels:
    def test_mu_z_zero_is_power(self):
        x, s = 2.0, 0.3 + 0.2j
        assert abs(mu(x, 0.0, s) - x ** (0.5 - s)) < 1e-14

    def test_mu_at_one(self):
        assert abs(mu(1.0, 0.0, 0.7 + 5.0j) - 1.0) < 1e-14

    def test_mu_factorwise(self):
        x, z, s = 2.0, 0.4, 0.3 + 0.2j
        parts = (
            cmath.exp((0.5 - s) * math.log(x))
            * cmath.exp(-z * z / 8.0)
            * hyp1f1((1 - s) / 2.0, 0.5, z * z / 4.0).value
        )
        assert abs(mu(x, z, s) - parts) < 1e-12 * abs(parts)

    def test_mu_needs_nonzero_x(self):
        with pytest.raises(DomainError):
            mu(0.0, 0.1, 0.5)

    @pytest.mark.parametrize("x, s", [(1e-300, 1000.0), (1e300, -1000.0)])
    def test_power_past_the_range_is_typed(self, x, s):
        # x^(1/2 - s) overflows: a bare OverflowError from cmath.exp before
        match = rf"^mu\(x={re.escape(repr(complex(x)))}, z=\(0\.3\+0j\), s=.* exceeds double range$"
        with pytest.raises(RangeOverflowError, match=match):
            mu(x, 0.3, s)
        with pytest.raises(RangeOverflowError, match=match):
            nabla(x, 0.3, s)

    @pytest.mark.parametrize("x, s", [(2.0, 1e4), (1e-3, -400.0)])
    def test_power_below_the_range_is_refused(self, x, s):
        # x^(1/2 - s) underflows: a finite 0 (-0j and 0j) before
        match = rf"^mu\(x={re.escape(repr(complex(x)))}, z=\(0\.3\+0j\), s=.* underflows"
        with pytest.raises(EvaluationError, match=match):
            mu(x, 0.3, s)

    def test_power_near_the_floor_keeps_its_bits(self):
        x, z, s = 2.0, 0.3, 1e3
        parts = (cmath.exp((0.5 - s) * math.log(x)) * cmath.exp(-z * z / 8.0)
                 * hyp1f1((1 - s) / 2.0, 0.5, z * z / 4.0).value)
        assert mu(x, z, s) == parts and 1.2e-301 < abs(parts) < 1.21e-301

    def test_partial_product_below_the_range_keeps_its_digits(self):
        # x^(1/2 - s) = e^-735.7 alone is subnormal; the 1F1 factor brings the
        # value back to 8.2e-308 (40-digit mpmath), which the factor-by-factor
        # product missed by 2.5e-4
        ref = 8.188837688719199e-308
        assert abs(mu(1e-3, 4.0, -106.0) - ref) <= 1e-12 * ref

    def test_nabla_drops_a_term_below_the_range(self):
        # 2^(1/2 - s) is just below the normal range and 2^(s - 1/2) just inside
        x, s = 2.0, 0.5 + 1022.5
        with pytest.raises(EvaluationError, match="underflows"):
            mu(x, 0.0, s)
        assert nabla(x, 0.0, s) == mu(x, 0.0, 1.0 - s)
        assert abs(mu(x, 0.0, 1.0 - s) / 2.0 ** 1022.5 - 1.0) < 1e-12

    def test_nabla_refuses_where_both_terms_underflow(self, monkeypatch):
        monkeypatch.setattr(integral, "hyp1f1", lambda *args: ValueWithError(1e-310, 0.0))
        with pytest.raises(EvaluationError, match=r"^nabla\(x=\(1\+0j\), .*both terms underflow"):
            nabla(1.0, 0.0, 0.5)

    @pytest.mark.parametrize("entry", [mu, nabla])
    @pytest.mark.parametrize("s", [600.0, 1025.0])
    def test_cancelled_1f1_is_refused(self, entry, s):
        # at s = 600, 1F1((1-s)/2; 1/2; 4) sums to -7.3e11 beside an error
        # bound of 1.5e13: mu returned -3.36e-170 where 60-digit mpmath gives
        # +3.39e-181, and 4.0e-289 at s = 1025 against -3.2e-309
        point = re.escape(repr(complex(s)))
        match = rf"^mu\(x=\(2\+0j\), z=\(4\+0j\), s={point}\): 1F1 = .* unresolved"
        with pytest.raises(EvaluationError, match=match):
            entry(2.0, 4.0, s)

    @pytest.mark.parametrize("entry, args, bits", [
        (mu, (2.0, 0.3, 500.0), "(1.2371205374691014e-152+0j)"),
        (mu, (2.0, 0.0, 0.3 + 0.2j), "(1.1376781092684645-0.15873383528481316j)"),
        (mu, (1.0, 0.0, 0.7 + 5.0j), "(1+0j)"),
        (mu, (2.0, 0.4, 0.3 + 0.2j), "(1.1456584442931206-0.1691512239156503j)"),
        (mu, (2.0, 0.3, 1e3), "(1.2033309023365603e-301+0j)"),
        (mu, (1e-3, 4.0, -106.0), "(8.188837688719379e-308+0j)"),
        (mu, (2.0, 0.0, -1022.0), "(6.355805030767882e+307+0j)"),
        (mu, (1.0, 0.3, 0.5 + 0.5j), "(1.0000210938580583-0.011250205665246378j)"),
        (mu, (1.0, 0.3, 0.5 - 0.5j), "(1.0000210938580583+0.011250205665246378j)"),
        (nabla, (1.3, 0.2 + 0.1j, 0.25 + 4.0j), "(0.9532872053537698-0.18880388301037987j)"),
        (nabla, (2.0, 0.0, 0.5 + 1.85j), "(0.5689793071310272+0j)"),
        (nabla, (1.0, 0.3, 0.5 + 0.5j), "(2.0000421877161165+0j)"),
        (nabla, (2.0, 0.0, 1023.0), "(6.355805030767882e+307+0j)"),
    ])
    def test_resolved_1f1_keeps_its_bits(self, entry, args, bits):
        # the unresolved-1F1 refusal leaves every resolved value as it was
        assert repr(entry(*args)) == bits

    def test_nabla_symmetry(self):
        x, z, s = 1.3, 0.2 + 0.1j, 0.25 + 4.0j
        assert nabla(x, z, s) == nabla(x, z, 1.0 - s)

    def test_nabla_z_zero_cosine_kernel(self):
        t = 3.7
        got = nabla(2.0, 0.0, (1.0 + 1j * t) / 2.0)
        ref = 2.0 * cmath.cos(t / 2.0 * math.log(2.0))
        assert abs(got - ref) < 1e-13

    def test_nabla_assembled_from_mu(self):
        x, z, s = 1.0, 0.3, 0.5 + 0.5j
        assert abs(nabla(x, z, s) - (mu(x, z, s) + mu(x, z, 1 - s))) == 0.0


class TestXiIntegral:
    def test_hardy_value(self):
        out = xi_integral(1.0, 0.0)
        assert abs(out.value - XI_INT_HARDY) <= out.abs_err_est

    def test_triple_equality_grid(self):
        for a in (1.0, 1.2, cmath.exp(0.2j)):
            for z in (0.0, 0.4 + 0.1j, 0.5 - 0.2j):
                assert transform_identity_residual(a, z) < 1e-6, (a, z)
        assert transform_identity_residual(1.0, 0.0) < 1e-8
        assert transform_identity_residual(1.2, 0.5 - 0.2j) < 1e-7

    def test_hardy_chain_complex_a(self):
        assert transform_identity_residual(cmath.exp(0.2j), 0.0) < 1e-7

    def test_conjugation(self):
        a, z = cmath.exp(0.15j), 0.3 + 0.1j
        v = xi_integral(a, z).value
        w = xi_integral(a.conjugate(), z.conjugate()).value
        assert abs(w - v.conjugate()) < 1e-9

    def test_real_inputs_give_real_integral(self):
        for a, z in ((1.2, 0.0), (0.8, 0.5), (1.0, 0.4j)):
            out = xi_integral(a, z)
            assert abs(out.value.imag) < 1e-9

    def test_error_honesty_20_points(self):
        for (a, z), side in TRANSFORM_SIDE_TABLE.items():
            out = xi_integral(a, z)
            assert abs(out.value - side) <= out.abs_err_est, (a, z)

    @pytest.mark.parametrize("a, z", [(1.3, 0.0), (0.8, 0.3 - 0.2j), (cmath.exp(0.3j), 0.4 + 0.1j)])
    def test_docstring_formula(self, a, z):
        # (1/pi) Int_0^T Xi(t/2)/(1+t^2) nabla(a, z, (1+it)/2) dt by Gauss-Kronrod,
        # Xi(t/2) ~ e^(-pi t/8) against nabla's e^(|arg a| t/2) leaving e^-40 at T
        T = 40.0 / (math.pi / 8.0 - abs(cmath.phase(a)) / 2.0)

        def f(ts):
            xi, _ = xi_line_vec(ts / 2.0)
            nab = np.array([nabla(a, z, (1.0 + 1j * t) / 2.0) for t in ts])
            return xi / (1.0 + ts * ts) * nab / math.pi

        gk = adaptive_gk(f, 0.0, T, 1e-12)
        out = xi_integral(a, z)
        assert abs(gk.value - out.value) <= gk.abs_err_est + out.abs_err_est

    def test_roundoff_reported(self):
        # 2e-15 is below the floor that the eta and 1F1 error bounds and the
        # rounding of the sums set for this integrand (about 6e-14): the rule
        # stops at that plateau, well before its node cap, and says so
        tol = 2e-15
        out = xi_integral(cmath.exp(0.3j), 0.8, EvalSettings(quad_abs_tol=tol))
        assert out.at_roundoff and out.evaluations < quadrature._MAX_NODES
        # the rule missed its 0.9 tol share; 0.05 tol is the truncation estimate
        assert out.abs_err_est > 0.95 * tol

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            xi_integral(3.0, 0.0)  # real a outside [0.5, 2]
        with pytest.raises(DomainError):
            xi_integral(cmath.exp(0.9j), 0.0)  # arg too close to pi/4
        with pytest.raises(DomainError):
            xi_integral(2.0 * cmath.exp(0.2j), 0.0)  # complex a off the circle
        with pytest.raises(RegionError):
            xi_integral(1.0, 1.3 + 0.1j)  # outside the admissible region
        with pytest.raises(DomainError):
            xi_integral(1.0, 1.2 + 1.2j)  # inside the region but |z| > 1.5


class TestTransformIdentityResidual:
    @pytest.mark.parametrize("a, z", [
        (1.0, -1.0 + 0.8j), (0.6, 0.9j), (cmath.exp(0.2j), 0.4 + 0.1j),
    ])
    def test_sides_summed_tightly(self, a, z):
        # sides summed at the plain theta tail left ~2e-11 of truncation here
        assert transform_identity_residual(a, z) <= 1e-12


class TestOneLineKernel:
    """xi_integral runs as one term of the moment kernel, in tau = t/2."""

    def test_xi_over_one_plus_t2_is_minus_rho_over_8(self):
        # Xi(t/2)/(1+t^2) = -rho(t/2)/8, since s(s-1) = -(1+t^2)/4 at s = (1+it)/2
        u = np.linspace(0.0, 200.0, 801)
        xi_vals, _ = xi_line_vec(u)
        rho = eta_line_vec(u)[0].real
        assert np.all(np.abs(xi_vals / (1.0 + 4.0 * u * u) + rho / 8.0) <= 1e-14 * np.abs(rho))

    @pytest.mark.parametrize("theta", [0.75, 0.77])
    @pytest.mark.parametrize("z", [0.0, 0.1])
    def test_transform_identity_near_the_margin(self, theta, z):
        # e^(theta tau) on the line used to overflow where Xi had underflowed
        a = cmath.exp(1j * theta)
        out = xi_integral(a, z)
        assert cmath.isfinite(out.value)
        for side in (series_side(a, z).value, series_side(1.0 / a, 1j * z).value):
            assert abs(out.value - side) < 1e-9

    def test_one_quadrature_one_1f1_per_eta_call(self, monkeypatch):
        calls = {"rule": 0, "eta": 0, "1f1": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(integral, "nested_trapezoid", counted("rule", nested_trapezoid))
        monkeypatch.setattr(integral, "eta_weighted_line", counted("eta", eta_weighted_line))
        monkeypatch.setattr(integral, "hyp1f1_vec", counted("1f1", hyp1f1_vec))
        xi_integral(cmath.exp(0.3j), 0.4 + 0.1j)
        assert calls["rule"] == 1
        # the rule stops at level 1, and levels 0 and 1 share one call
        assert calls["1f1"] == calls["eta"] == 1

    def test_zeta_runs_once_per_distinct_abs_tau(self, monkeypatch):
        # rho is even: the nodes tau and -tau share one zeta point
        taus, points = [], []

        def eta_spy(t, *args):
            taus.append(np.array(t))
            return eta_weighted_line(t, *args)

        def zeta_spy(s, *args):
            points.append(np.array(s))
            return zeta_vec(s, *args)

        monkeypatch.setattr(integral, "eta_weighted_line", eta_spy)
        monkeypatch.setattr(specfun, "zeta_vec", zeta_spy)
        moment_numeric(1, 0.5, make_config([1.0, 0.5], [0.0, 1.0], 0.3 - 0.2j))
        nodes = np.concatenate(taus)
        low = np.abs(nodes[np.abs(nodes) < specfun.RS_CROSSOVER])
        s = np.concatenate(points)
        assert (s.real == 0.5).all() and s.size < low.size
        assert np.sort(np.abs(s.imag)).tobytes() == np.unique(low).tobytes()

    def test_kernel_errors_name_their_caller(self, monkeypatch):
        # a rule capped at its first level misses the tolerance: with the
        # pole terms the transform's second level, 210 nodes, meets it
        monkeypatch.setattr(quadrature, "_MAX_NODES", 200)
        with pytest.raises(ToleranceError) as info:
            xi_integral(cmath.exp(0.3j), 0.8)
        assert str(info.value).startswith("xi_integral(")
        with pytest.raises(ToleranceError) as info:
            moment_limit_check(0, make_config([1.0], [0.0], 0.0))
        assert str(info.value).startswith("moment_limit_check(")

    def test_moment_route_integrates_the_real_part(self, monkeypatch):
        dtypes = []

        def spy(f, *args, **kwargs):
            def recorded(x):
                out = f(x)
                dtypes.append(out[0].dtype)
                return out
            return nested_trapezoid(recorded, *args, **kwargs)

        monkeypatch.setattr(integral, "nested_trapezoid", spy)
        moment_limit_check(0, make_config([1.0, 0.5], [0.0, 1.0], 0.3 - 0.2j))
        assert dtypes and set(dtypes) == {np.dtype(float)}
        dtypes.clear()
        xi_integral(cmath.exp(0.2j), 0.4 + 0.1j)
        assert dtypes and set(dtypes) == {np.dtype(complex)}

    def test_length_guard_counts_the_kernel_that_runs(self, monkeypatch):
        # Euler-Maclaurin alone would need more than 1000 terms at the far
        # end of the Hardy m = 0 limit check; the Z kernel runs there
        results = []

        def spy(*args, **kwargs):
            results.append(_weighted_moment(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(shifts, "_weighted_moment", spy)
        hardy = make_config([1.0], [0.0], 0.0)
        moment_limit_check(0, hardy, EvalSettings(max_terms=1000))
        moment_limit_check(0, hardy)
        capped, full = results
        assert em_length(complex(0.5, capped.truncation_T)) > 1000
        assert abs(capped.value - full.value) <= capped.abs_err_est + full.abs_err_est

    def test_kernel_refusal_names_the_caller(self):
        # the grid's left end, s = 0.5 - 40i, is the first node refused: its
        # Euler-Maclaurin sum needs 30 terms
        hardy = make_config([1.0], [0.0], 0.0)
        with pytest.raises(AccuracyError, match=r"^moment_limit_check: zeta: "
                           r"Euler-Maclaurin .* s=\(0\.5-40j\) needs 30 terms"):
            moment_limit_check(0, hardy, EvalSettings(max_terms=20))

    @pytest.mark.parametrize("alpha, lam", [
        (math.nan, 0.0), (0.1, math.nan), (math.inf, 0.0), (0.1, -math.inf),
    ])
    def test_non_finite_rate_or_shift(self, alpha, lam):
        with pytest.raises(DomainError):
            moment_integral(0, alpha, lam, 0.0)


class TestPoleConstants:
    """The residues the line integral subtracts, against the library's kernels:
    rho(tau) = eta(1/2 + i tau) has residue i at tau = i/2 and -i at -i/2,
    and F(+-i/2) is e^w and 1."""

    @pytest.mark.parametrize("pole, residue", [(0.5j, 1j), (-0.5j, -1j)])
    def test_rho_residues(self, pole, residue):
        tau = pole + 1e-7
        got = (tau - pole) * eta_completed(0.5 + 1j * tau).value
        assert abs(got - residue) < 1e-6

    # w = z^2/4 for every z of the moment and transform tests
    @pytest.mark.parametrize("z", [0.0, 0.1, 0.5, 0.8, 0.4 + 0.1j, 0.3 - 0.2j, 0.5 + 0.25j])
    def test_confluent_factor_at_the_poles(self, z):
        w = z * z / 4.0
        assert abs(hyp1f1(0.5, 0.5, w).value - cmath.exp(w)) <= 1e-15 * abs(cmath.exp(w))
        assert hyp1f1(0.0, 0.5, w).value == 1.0


class TestMomentIntegral:
    def test_hardy_base_value(self):
        got = moment_integral(0, 0.0, 0.0, 0.0)
        assert isinstance(got, QuadratureResult) and isinstance(got.value, float)
        assert abs(got.value - MOMENT_HARDY_A0) < 1e-8
        assert got.abs_err_est <= EvalSettings().quad_abs_tol

    def test_two_sided_equals_twice_one_sided(self):
        # alpha = 0, lam = 0, z real: the integrand is even in t
        m, z = 1, 0.5
        settings = EvalSettings()
        two_sided = moment_integral(m, 0.0, 0.0, z, settings).value
        w = complex(z) ** 2 / 4.0

        def integrand(ts):
            weighted, _ = eta_weighted_line(ts, 0.0, settings)
            f1, _ = hyp1f1_vec((1.0 - 2j * ts) / 4.0, 0.5, w, settings)
            return ts ** (2 * m) * weighted * f1.real

        one_sided = adaptive_gk(integrand, 0.0, 60.0, 1e-11, initial_panels=64)
        assert abs(two_sided - 2.0 * one_sided.value.real) < 1e-9

    def test_alpha_parity_for_real_z(self):
        v1 = moment_integral(0, 0.12, 0.0, 0.3).value
        v2 = moment_integral(0, -0.12, 0.0, 0.3).value
        assert abs(v1 - v2) < 1e-8

    def test_two_alphas_equal_their_one_term_integrals(self):
        # one quadrature for terms at alpha = 0.35 and 0.30 (as in the limit
        # check's extrapolation) against one integral per term
        tol = 1e-9
        settings = EvalSettings(quad_abs_tol=tol)
        z = 0.3 - 0.2j
        terms = [(1.7, 0.35, 0.0), (-0.7, 0.30, 0.0), (0.5, 0.35, 1.0), (-0.2, 0.30, 1.0)]
        for m in (0, 1):
            got = _weighted_moment(m, terms, z, settings)
            ref = sum(c * moment_integral(m, a, lam, z, settings).value for c, a, lam in terms)
            assert abs(got.value - ref) <= sum(abs(c) for c, _, _ in terms) * tol, m
            assert got.abs_err_est <= tol and not got.at_roundoff
            assert got.levels > 0 and got.evaluations > 0

    @pytest.mark.parametrize("z", [0.0, 0.3 - 0.2j])
    @pytest.mark.parametrize("lam", [2.0, 20.0, -20.0, 30.0, -30.0, 40.0])
    @pytest.mark.parametrize("alpha", [0.2, -0.3, 0.6])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_far_shift_keeps_rho_mass(self, m, alpha, lam, z):
        # rho's mass sits at tau = 0 whatever the shift, and each term weighs
        # e^(-alpha lam) on rho's scale: a range cut around the shift alone
        # missed it, past its estimate or with ToleranceError
        got = moment_integral(m, alpha, lam, z)
        ref = shifts.moment_series_rhs(m, alpha, make_config([1.0], [lam], z))
        assert abs(got.value - ref) <= got.abs_err_est
        assert got.evaluations < 1000

    def test_negligible_far_shift_keeps_the_range(self):
        # e^(-0.2 * 5000) at tau = 0 is far below the tail target, so the term
        # does not stretch the range to its shifted end (10 187 nodes did)
        got = moment_integral(0, 0.2, 5000.0, 0.3 - 0.2j)
        assert got.evaluations <= 300
        assert abs(got.value) <= got.abs_err_est

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("lam", [60.0, -60.0, 120.0, -120.0])
    def test_each_tail_within_its_share(self, monkeypatch, lam, alpha):
        # past |tau| = 40 the shift scales the term's majorant by at most
        # (1 + |lam|/40)^(2m) on both sides of the range, not only on the
        # side of the shift: the integrand summed at h = 1/4 over 400 past
        # each end stays within that side's share of the tolerance
        seen = _captured(monkeypatch, lambda: moment_integral(2, alpha, lam, 0.0))
        f, a, b = seen["f"], seen["a"], seen["b"]
        share = 0.025 * EvalSettings().quad_abs_tol
        steps = np.arange(1, 1601) / 4.0
        for side, xs in (("left", a - steps), ("right", b + steps)):
            assert 0.25 * np.abs(f(xs)[0]).sum() <= share, side

    def test_alpha_spread_overflow(self):
        # e^((alpha_k - alpha_ref) tau) over tau ~ -1400 would overflow
        with pytest.raises(DomainError, match="spread"):
            _weighted_moment(0, [(1.0, 0.77, 0.0), (1.0, -0.77, 0.0)], 0.0)

    def test_order_and_domain_guards(self):
        with pytest.raises(UnsupportedOrderError):
            moment_integral(3, 0.1, 0.0, 0.0)
        with pytest.raises(DomainError):
            moment_integral(0, math.pi / 4, 0.0, 0.0)
        with pytest.raises(DomainError):
            moment_integral(0, 0.1, 0.0, 0.9 + 0.9j)  # |z| > 1 for moments
        with pytest.raises(DomainError):
            moment_integral(0, 0.1, 0.0, 1.01)


def _captured(monkeypatch, call):
    """Run call; return the line integral's QuadratureResult with the
    integrand, range, tolerance share and poles the rule was given."""
    seen = {}

    def rule(f, a, b, share, poles):
        seen.update(f=f, a=a, b=b, share=share, poles=poles)
        return nested_trapezoid(f, a, b, share, poles)

    def line(*args, **kwargs):
        seen["result"] = line_integral(*args, **kwargs)
        return seen["result"]

    line_integral = integral._line_integral
    monkeypatch.setattr(integral, "nested_trapezoid", rule)
    monkeypatch.setattr(integral, "_line_integral", line)
    call()
    return seen


def _trapezoid(f, a, b, h, poles):
    """The anchored trapezoidal rule with step h on [a, b]: h times the sum of
    f's values over the multiples of h inside [a, b], less the poles' terms."""
    x = np.arange(math.ceil(a / h), math.floor(b / h) + 1) * h
    vals = np.concatenate([f(x[i:i + 2048])[0] for i in range(0, x.size, 2048)])
    return h * vals.sum() - quadrature._pole_terms(poles, h)


_SERIES = make_config([1.0, 0.5], [0.0, 1.0], 0.3 - 0.2j)
_EXHIBIT = make_config([1.0, 0.5, 0.25], [0.0, 1.0, 2.0], 0.5 + 0.25j)
_HARDY = make_config([1.0], [0.0], 0.0)
_SERIES_TOL = EvalSettings(quad_abs_tol=1e-9)


def _series(m, alpha):
    return lambda: shifts.moment_numeric(m, alpha, _SERIES, _SERIES_TOL)


def _limit(m, cfg):
    return lambda: moment_limit_check(m, cfg)


# row: (call, trapezoid nodes, adaptive GK evaluations on the symmetric range
# [-T + min lam, T + max lam] it was run on before the per-side truncation)
TRAPEZOID_ROWS = {
    "xi a=1 z=0.5": (lambda: xi_integral(1.0, 0.5), 161, 3540),
    "xi a=e^0.3i z=0.4+0.1i": (lambda: xi_integral(cmath.exp(0.3j), 0.4 + 0.1j), 201, 3750),
    "xi a=e^-0.45i z=0.5": (lambda: xi_integral(cmath.exp(-0.45j), 0.5), 264, 5820),
    "xi a=e^0.77i z=0.1": (lambda: xi_integral(cmath.exp(0.77j), 0.1), 4464, 38640),
    "series alpha=0.2 m=0": (_series(0, 0.2), 180, 3510),
    "series alpha=0.2 m=1": (_series(1, 0.2), 210, 3720),
    "series alpha=0.5 m=0": (_series(0, 0.5), 296, 7155),
    "series alpha=0.5 m=1": (_series(1, 0.5), 369, 6015),
    "series alpha=0.7 m=0": (_series(0, 0.7), 888, 11835),
    "series alpha=0.7 m=1": (_series(1, 0.7), 1206, 12300),
    "limit hardy m=0": (_limit(0, _HARDY), 4458, 38010),
    "limit series m=0": (_limit(0, _SERIES), 7683, 64950),
    "limit series m=1": (_limit(1, _SERIES), 11363, 92550),
    "limit exhibit m=0": (_limit(0, _EXHIBIT), 10191, 82245),
    "limit exhibit m=1": (_limit(1, _EXHIBIT), 14331, 347445),
}


class TestTrapezoidRows:
    """Every critical-line integral of the benchmark and the CLI on the nested
    trapezoidal rule: pinned node counts, and estimates that cover the rule at
    h = 1/16 and the independent adaptive GK value."""

    @pytest.mark.parametrize("row", list(TRAPEZOID_ROWS))
    def test_nodes_and_estimate(self, monkeypatch, row):
        call, nodes, gk_evaluations = TRAPEZOID_ROWS[row]
        seen = _captured(monkeypatch, call)
        got, f, a, b = seen["result"], seen["f"], seen["a"], seen["b"]
        # the multiples of h = 2^(1 - levels) in [a, b]
        k = 2 ** (got.levels - 1)
        assert got.evaluations == nodes == math.floor(b * k) - math.ceil(a * k) + 1
        assert got.levels == 2
        assert nodes <= (0.25 if row == "limit exhibit m=1" else 1.1) * gk_evaluations
        finer = _trapezoid(f, a, b, 1.0 / 16.0, seen["poles"])
        assert abs(got.value - finer) <= got.abs_err_est
        gk = adaptive_gk(lambda x: f(x)[0], a, b, seen["share"],
                         initial_panels=max(64, math.ceil((b - a) / 2.0)))
        assert abs(got.value - gk.value) <= got.abs_err_est + gk.abs_err_est

    def test_exhibit_limit_estimate_covers_its_noise_plateau(self, monkeypatch):
        # the level differences of this m = 1 limit stay between 6.6e-9 and
        # 1.6e-6 from h = 1/2 to h = 1/64 (14 331 to 458 578 nodes): eta's
        # error, amplified by the weights, not the step.  The summed
        # integrand bound puts that noise in the estimate; without it the rule
        # accepts a level whose estimate the next one breaks
        seen = _captured(monkeypatch, _limit(1, _EXHIBIT))
        got, f, a, b = seen["result"], seen["f"], seen["a"], seen["b"]
        h = 2.0 ** (1 - got.levels)
        for finer in (h / 2.0, h / 4.0):
            ref = _trapezoid(f, a, b, finer, seen["poles"])
            assert abs(got.value - ref) <= got.abs_err_est, finer
        assert got.at_roundoff and got.abs_err_est < 2e-3


class TestLevelBlocks:
    """Each level's new nodes go to the kernels in blocks of quadrature._BLOCK."""

    @pytest.mark.parametrize("call", [
        lambda: xi_integral(cmath.exp(0.3j), 0.4 + 0.1j),
        lambda: _weighted_moment(1, [(1.0, 0.5, 0.0), (0.5, 0.5, 1.0)], 0.3 - 0.2j),
    ])
    def test_block_size_changes_no_bit(self, monkeypatch, call):
        got = []
        for block in (7, 2048):
            monkeypatch.setattr(quadrature, "_BLOCK", block)
            got.append(call())
        assert got[0] == got[1]

    @staticmethod
    def _peak(call):
        call()  # first-call imports and caches stay out of the trace
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_the_level(self, monkeypatch):
        # the finest level of this limit check adds 7 458 nodes: in blocks the
        # call peaks at 3.47 MB, with the whole level in one kernel call at
        # 6.89 MB
        call = _limit(1, _EXHIBIT)
        assert self._peak(call) <= 1.25 * 3.47e6
        monkeypatch.setattr(quadrature, "_BLOCK", 1 << 30)
        assert self._peak(call) > 1.25 * 3.47e6


class TestSeriesSideValues:
    def test_frozen_side_values(self):
        tight = EvalSettings(quad_abs_tol=1e-14)
        for (a, z), ref in TRANSFORM_SIDE_TABLE.items():
            got = series_side(a, z, tight).value
            assert abs(got - ref) < 1e-12 * (1.0 + abs(ref)), (a, z)

    def test_domain(self):
        with pytest.raises(DomainError):
            series_side(cmath.exp(0.8j), 0.0)  # Re(a^2) < 0
