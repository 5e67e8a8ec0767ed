import cmath
import math
import sys

import mpmath
import numpy as np
import pytest

from xishift import (
    AccuracyError,
    ConfigError,
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
    moment_series_rhs,
    psi1_alpha_derivative,
)
from xishift import integral, shifts, specfun
from xishift.cli import _LIMIT_GATES
from xishift.quadrature import TrapezoidOutcome, nested_trapezoid, truncation_point
from xishift.settings import grid_nodes
from xishift.shifts import fz_line_vec

from ._oracles import ZETA_ZEROS

RNG = np.random.default_rng(99)
HARDY = make_config([1.0], [0.0], 0.0)
TWO_TERM = make_config([1.0, 0.5], [0.0, 1.0], 0.3 + 0.1j)
# the CLI's configs and two with shifts on both sides of 0
MOMENT_CONFIGS = {
    "hardy": HARDY,
    "exhibit": make_config([1.0, 0.5, 0.25], [0.0, 1.0, 2.0], 0.5 + 0.25j),
    "series": make_config([1.0, 0.5], [0.0, 1.0], 0.3 - 0.2j),
    "far": make_config([1.0, 0.5], [25.0, 30.0], 0.3 - 0.2j),
    "shifts -3, 0.5": make_config([1.0, -0.7], [-3.0, 0.5], 0.4 + 0.1j),
    "shifts -40, 10": make_config([0.3, 2.0], [-40.0, 10.0], -0.2 + 0.3j),
}


def _polar(lam):
    """The paper's r e^(i theta) = i/2 - lam, theta in (0, pi)."""
    return mpmath.hypot(0.5, lam), mpmath.atan2(0.5, -lam)


def _paper_closed_form(m: int, cfg) -> float:
    """The paper's polar form of the moment limit, at 30 digits:

        -4 pi w_z sum_j c_j e^(-pi lam_j/4) r_j^(2m) cos(pi/8 + beta_z + 2m theta_j),

    w_z e^(i beta_z) = 1 + e^(z^2/8) sinh(z^2/8)."""
    with mpmath.workdps(30):
        z = mpmath.mpc(cfg.z)
        u_iv = 1 + mpmath.exp(z * z / 8) * mpmath.sinh(z * z / 8)
        w, beta = abs(u_iv), mpmath.arg(u_iv)
        total = 0
        for c, lam in zip(cfg.coefficients, cfg.shifts):
            r, theta = _polar(lam)
            total += (c * mpmath.exp(-mpmath.pi * lam / 4) * r ** (2 * m)
                      * mpmath.cos(mpmath.pi / 8 + beta + 2 * m * theta))
        return float(-4 * mpmath.pi * w * total)


class TestConfig:
    def test_hardy_is_valid(self):
        assert ShiftConfig(HARDY.coefficients, HARDY.shifts, HARDY.z) == HARDY

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
            ShiftConfig((1.0,), (0.0, 1.0), 0.0)

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

    def test_overflow_is_refused_without_a_warning(self):
        # eta's prefactor overflows at s = 1000: numpy warned in exp and in
        # the products before checked_value refused the nan
        with pytest.raises(EvaluationError, match=r"^f_z\(\(1000\+0j\)\): non-finite value"):
            f_z(1000, HARDY)

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
    """Record in counts[key] the number of points of each call of fn, through
    every xishift module attribute bound to it."""

    def counted(*args, **kwargs):
        counts[key].append(np.size(args[0]))
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("xishift"):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)


class _UniqueCounter:
    """numpy as shifts sees it, counting the calls of np.unique."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        if name == "unique":
            self.calls += 1
        return getattr(np, name)


class TestOneKernel:
    """f_z and fz_line_vec are one kernel: each distinct shifted point of a
    call through one eta call and one 1F1 call."""

    EXHIBIT = make_config([1.0, 0.5, 0.25], [0.0, 1.0, 2.0], 0.5 + 0.25j)
    OVERLAPPING = grid_nodes(0.0, 40.0, 0.5)  # the shifts are multiples of the step

    def _counts(self, monkeypatch) -> dict:
        counts = {"eta": [], "1f1": []}
        _count_calls(monkeypatch, specfun._eta_vec, counts, "eta")
        _count_calls(monkeypatch, specfun.hyp1f1_vec, counts, "1f1")
        return counts

    def test_line_call_counts(self, monkeypatch):
        counts = self._counts(monkeypatch)
        fz_line_vec(np.linspace(0.0, 60.0, 7), self.EXHIBIT)
        assert counts == {"eta": [21], "1f1": [21]}

    def test_general_point_call_counts(self, monkeypatch):
        counts = self._counts(monkeypatch)
        f_z(0.3 + 7.0j, self.EXHIBIT)
        assert counts == {"eta": [3], "1f1": [3]}

    def test_each_distinct_shifted_point_once(self, monkeypatch):
        # 81 nodes in 3 rows: rows 1 and 2 add the 2 and 4 points past t = 40
        counts = self._counts(monkeypatch)
        fz_line_vec(self.OVERLAPPING, self.EXHIBIT)
        assert counts == {"eta": [85], "1f1": [85]}

    def test_overlapping_rows_keep_the_bits(self):
        got = fz_line_vec(self.OVERLAPPING, self.EXHIBIT)
        alone = [fz_line_vec(np.array([t]), self.EXHIBIT) for t in self.OVERLAPPING]
        for part, column in zip(got, zip(*alone)):
            assert part.tobytes() == np.concatenate(column).tobytes()

    def test_refusal_names_the_first_failing_point_in_table_order(self):
        # 3000 and 5000 both fail; sorted, 3000 would be named, but 5000 leads the table
        with pytest.raises(AccuracyError, match=r"at t=5000\.0 needs 28 terms"):
            fz_line_vec(np.array([5000.0, 3000.0, 10.0]), self.EXHIBIT, EvalSettings(max_terms=20))

    def test_single_shift_runs_no_dedup(self, monkeypatch):
        counter = _UniqueCounter()
        monkeypatch.setattr(shifts, "np", counter)
        fz_line_vec(self.OVERLAPPING, HARDY)
        assert counter.calls == 0
        fz_line_vec(self.OVERLAPPING, self.EXHIBIT)
        assert counter.calls == 1

    def test_line_is_the_kernel_on_the_line(self):
        ts = np.array([0.0, 3.7, 14.0, 100.3, 600.0])
        re, im, err = fz_line_vec(ts, self.EXHIBIT)
        for t, r, i, e in zip(ts, re, im, err):
            got = f_z(complex(0.5, t), self.EXHIBIT)
            assert (got.value, got.abs_err_est) == (complex(r, i), e), t


class TestNonFiniteArgument:
    """Refused before any arithmetic (no RuntimeWarning under tier-1's
    filter), naming the argument as it was passed."""

    @pytest.mark.parametrize("call, match", [
        (lambda: f_z_critical(math.inf, TWO_TERM), r"fz_line_vec argument: non-finite t=inf$"),
        (lambda: f_z_critical(math.nan, TWO_TERM), r"fz_line_vec argument: non-finite t=nan$"),
        (lambda: fz_line_vec(np.array([1.0, -math.inf, math.nan]), TWO_TERM),
         r"fz_line_vec argument: non-finite t=-inf$"),
        (lambda: f_z(complex(0.5, -math.inf), TWO_TERM),
         r"f_z argument: non-finite value \(0\.5-infj\)$"),
        (lambda: f_z(complex(math.nan, 1.0), HARDY),
         r"f_z argument: non-finite value \(nan\+1j\)$"),
    ], ids=["critical inf", "critical nan", "line -inf", "general -inf", "general nan"])
    def test_refused(self, call, match):
        with pytest.raises(EvaluationError, match=match):
            call()


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


class TestMoments:
    def test_closed_form_hardy(self):
        got = moment_closed_form(0, HARDY)
        assert abs(got + 4.0 * math.pi * math.cos(math.pi / 8.0)) < 1e-12

    def test_closed_form_real_z_prefactor(self):
        # for real z the closed form factorizes into (1 + e^(z^2/8) sinh(z^2/8))
        # times the z = 0 sum
        cfg = make_config([1.0, 0.5], [0.0, 1.0], 0.7)
        m = 1
        pref = 1.0 + math.exp(0.7**2 / 8.0) * math.sinh(0.7**2 / 8.0)
        base = _paper_closed_form(m, make_config(cfg.coefficients, cfg.shifts, 0.0))
        assert abs(moment_closed_form(m, cfg) - pref * base) < 1e-12

    def test_closed_form_assembled_complex_z(self):
        cfg = make_config([1.0, 0.5], [0.0, 1.0], 0.3 + 0.1j)
        assert moment_closed_form(1, cfg) == pytest.approx(_paper_closed_form(1, cfg))

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
        # the range is [-T_lo, T_hi] whatever the shifts; each side is cut at
        # its own decay rate, pi/4 + alpha on the left and pi/4 - alpha on the
        # right, with the same tail target.  Every shift's weight factor
        # e^(-alpha lam) (1 + lam/40)^(2m) is below 1 here, so the target
        # divides by sum |c_k|
        def side(rate):
            target = 0.025 * tol * rate / (8.0 * sum(cfg.coefficients))
            return truncation_point(2.0, rate, abs(cfg.z) / math.sqrt(2.0), target, 40.0)

        t_lo, t_hi = side(math.pi / 4.0 + 0.2), side(math.pi / 4.0 - 0.2)
        assert t_lo < t_hi
        assert calls[0] == (-t_lo, t_hi)

        # the limit check's numeric side is one quadrature of all shifts; the
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


# configs whose limit rows failed their gates when the limit was a numeric
# extrapolation from alpha = pi/4 - 10^-1.9 and pi/4 - 10^-2
LIMIT_CONFIGS = {
    "exhibit": MOMENT_CONFIGS["exhibit"],
    "series": MOMENT_CONFIGS["series"],
    "real z": make_config([1.0, 0.5], [0.0, 1.0], 0.5),
    "shifts -10, -12": make_config([1.0, 0.5], [-10.0, -12.0], 0.3 - 0.2j),
    "shifts -25, -30": make_config([1.0, 0.5], [-25.0, -30.0], 0.3 - 0.2j),
}


class TestLimitCheck:
    """moment_limit_check: the identity at the margin and the analytic limit."""

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("name", LIMIT_CONFIGS)
    def test_below_gate_with_identity_inside_its_estimate(self, monkeypatch, name, m):
        cfg = LIMIT_CONFIGS[name]
        seen = []

        def spy(*args, **kwargs):
            seen.append(integral._weighted_moment(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(shifts, "_weighted_moment", spy)
        rel = moment_limit_check(m, cfg)
        assert rel < _LIMIT_GATES[m]
        (numeric,) = seen
        identity = abs(numeric.value - moment_series_rhs(m, integral.ALPHA_MARGIN, cfg))
        assert identity <= numeric.abs_err_est
        assert identity <= rel * (1.0 + abs(moment_closed_form(m, cfg)))

    def test_order_outside_the_check(self):
        with pytest.raises(ConfigError):
            moment_limit_check(2, HARDY)


class TestOneAnalyticSide:
    """The closed form is the analytic side of the moment identity at pi/4."""

    @pytest.mark.parametrize("name", MOMENT_CONFIGS)
    def test_closed_form_is_the_polar_form(self, name):
        cfg = MOMENT_CONFIGS[name]
        for m in range(6):
            got, ref = moment_closed_form(m, cfg), _paper_closed_form(m, cfg)
            assert abs(got - ref) <= 1e-13 * (1.0 + abs(got)), (m, got, ref)

    def test_vanishing_polar_modulus(self):
        # z = sqrt(2 pi)(1 - i) is admissible and e^(z^2/4) = -1 there, so
        # w_z = 0 and the limit vanishes up to the rounding of z^2
        cfg = make_config([1.0, 0.5, 0.25], [0.0, 1.0, 2.0], math.sqrt(2.0 * math.pi) * (1 - 1j))
        for m in range(6):
            assert abs(moment_closed_form(m, cfg)) <= 1e-12, m

    @pytest.mark.parametrize("alpha", [0.2, -0.3, 0.6, math.pi / 4 - 0.01])
    def test_series_side_is_the_two_part_form(self, alpha):
        # the paper's series side: the polar term plus 4 pi Re(e^(z^2/8) psi1^(2m))
        for name, cfg in MOMENT_CONFIGS.items():
            ez8 = cmath.exp(cfg.z * cfg.z / 8.0)
            for m in range(3):
                ref = 0.0
                for c, lam in zip(cfg.coefficients, cfg.shifts):
                    r, theta = math.hypot(0.5, lam), math.atan2(0.5, -lam)
                    deriv = psi1_alpha_derivative(alpha, cfg.z, lam, 2 * m)
                    ref += c * (
                        -4.0 * math.pi * math.exp(-alpha * lam) * r ** (2 * m)
                        * math.cos(alpha / 2.0 + 2 * m * theta)
                        + 4.0 * math.pi * (ez8 * deriv).real
                    )
                got = moment_series_rhs(m, alpha, cfg)
                assert abs(got - ref) <= 1e-14 * abs(ref), (name, m, got, ref)

    def test_overflow_is_typed(self):
        # e^(-pi lam/4) past the float range: a bare OverflowError before
        with pytest.raises(EvaluationError, match=r"moment_closed_form at lam=-100000\.0"):
            moment_closed_form(0, make_config([1.0], [-1e5], 0.3))
        # z = 1e200 (1 - i) is admissible, and z^2 overflows
        with pytest.raises(EvaluationError, match=r"moment_closed_form at lam=0\.0"):
            moment_closed_form(0, make_config([1.0], [0.0], 1e200 - 1e200j))

    @pytest.mark.parametrize("call, match", [
        (lambda cfg: moment_series_rhs(1, 0.2, cfg), r"^psi1 at lam=100000\.0: .* underflows "
                                                      r"at alpha=0\.2$"),
        (lambda cfg: moment_closed_form(1, cfg), r"^moment_closed_form at lam=100000\.0: .* "
                                                 r"underflows at alpha=pi/4$"),
    ], ids=["series", "closed-form"])
    def test_underflow_of_every_term_is_typed(self, call, match):
        # e^(-lam alpha) is below the float range for the one shift
        with pytest.raises(EvaluationError, match=match):
            call(make_config([1.0], [1e5], 0.3))

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_term_below_the_float_floor_adds_nothing(self, m):
        # at alpha = 0.2, lam = 3540 has a normal shift factor e^(-708) but
        # an order-0 value of 1.7e-308; at pi/4, lam = 902 has a subnormal
        # shift factor e^(-708.4).  Each is dropped beside a term in range,
        # and refused alone only where it is itself below the range
        for side, lam, what in (
            (lambda cfg: moment_series_rhs(m, 0.2, cfg), 3540.0, "the value" if m == 0 else None),
            (lambda cfg: moment_closed_form(m, cfg), 902.0, r"e\^\(\(i/2 - lam\) alpha\)"),
        ):
            base = side(make_config([1.0], [0.0], 0.3))
            assert side(make_config([1.0, 1.0], [0.0, lam], 0.3)) == base != 0.0
            alone = make_config([1.0], [lam], 0.3)
            if what is None:
                assert 0.0 < abs(side(alone)) < 1e-290
            else:
                with pytest.raises(EvaluationError, match=rf"at lam={lam!r}: {what}.* underflows"):
                    side(alone)

    def test_boundary_power_below_the_range(self):
        # |i/2|^(2m) is subnormal at m = 530 and an exact 0 at m = 540, where
        # the closed form was 0.0; beside a shift in range the term is dropped
        for m in (530, 540):
            with pytest.raises(EvaluationError, match=r"^moment_closed_form at lam=0\.0: the "
                                                      r"value .* underflows at alpha=pi/4$"):
                moment_closed_form(m, HARDY)
            alone = moment_closed_form(m, make_config([1.0], [1.0], 0.0))
            assert moment_closed_form(m, make_config([1.0, 1.0], [0.0, 1.0], 0.0)) == alone
        assert moment_closed_form(500, HARDY) == -1.0835015725207596e-300

    def test_overflowing_shift_derivative_is_typed(self):
        # at lam = -1e150 the shift factor's fourth derivative overflows: it
        # is refused before the Leibniz sum computes on it
        cfg = make_config([1.0, 0.5], [-1e150, -5e149], 0.3)
        with pytest.raises(EvaluationError, match=r"^psi1 at lam=-1e\+150: .* or a "
                                                  r"derivative overflows at alpha=0\.0$"):
            moment_series_rhs(2, 0.0, cfg)

    def test_overflowing_sum_is_typed(self):
        # every term finite, 4 pi times their sum past the float range
        with pytest.raises(EvaluationError, match="^psi1: non-finite value"):
            moment_series_rhs(2, 0.0, make_config([1.0], [-1e77], 0.3))

    def test_overflowing_leibniz_product_is_typed_without_a_warning(self):
        # the shift jet is finite, one of its products with the base jet is
        # not: numpy warned of the overflow before the refusal
        with pytest.raises(EvaluationError, match=r"^psi1_alpha_derivative at lam=-1\.5e\+77: "
                                                  r"non-finite value \(-inf"):
            moment_series_rhs(2, 0.0, make_config([1.0], [-1.5e77], 0.3))

    @pytest.mark.parametrize("alpha", [0.2, 0.6, None])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_underflowed_term_adds_nothing(self, m, alpha):
        # alpha None is the closed form, at pi/4
        side = ((lambda cfg: moment_closed_form(m, cfg)) if alpha is None
                else (lambda cfg: moment_series_rhs(m, alpha, cfg)))
        base = side(make_config([1.0], [0.0], 0.3))
        assert side(make_config([1.0, 0.5], [0.0, 1e5], 0.3)) == base != 0.0
