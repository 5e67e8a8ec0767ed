import cmath
import json
import math

import mpmath
import numpy as np
import pytest

from xishift import (
    DivergenceError,
    DomainError,
    EvalSettings,
    EvaluationError,
    RegionError,
    UnsupportedOrderError,
    XishiftError,
    axis_decay_sequence,
    classify_inequality,
    general_theta_residual,
    jacobi_residual,
    make_config,
    moment_series_rhs,
    psi1,
    psi1_alpha_derivative,
    psi1_limit_value,
    psi_at_axis_combination,
    psi_classical,
    psi_xz_transform_residual,
    series_side,
    theta,
    theta_series,
)
from xishift.cli import main

from . import make_psi1_table
from ._oracles import (
    AXIS_TERMS,
    PSI1_000,
    PSI1_JETS,
    PSI_AXIS_COMBINATION,
    PSI_ONE,
    THETA_TABLE,
    direct_theta_jet_sum,
    direct_theta_sum,
)

RNG = np.random.default_rng(1234)
TIGHT = EvalSettings(quad_abs_tol=1e-15)
DELTAS = [0.2, 0.1, 0.05, 0.02, 0.01]


class TestThetaSeries:
    def test_frozen_values(self):
        for (x, z), ref in THETA_TABLE.items():
            got = theta_series(x, z, TIGHT)
            assert abs(got.value - ref) < 1e-14 * (1.0 + abs(ref)), (x, z)

    def test_classical_values(self):
        assert abs(psi_classical(1.0, TIGHT).value - PSI_ONE) < 1e-15
        assert abs(psi_classical(10.0).value - 2.2711010683240937e-14) < 1e-22

    def test_tail_bound_honest(self, monkeypatch):
        for (x, z) in THETA_TABLE:
            got = theta_series(x, z)  # default tolerance, truncates earlier
            brute = direct_theta_sum(x, z, 200)
            assert abs(got.value - brute) <= got.abs_err_est + 1e-15, (x, z)
        # jets: the kernel's inputs behind psi1, on the direct route (alpha =
        # 0.3 and pi/4 - 0.1) and the transformed one (pi/4 - 0.0135 and - 0.01)
        jets = []
        kernel = theta._folded_theta
        monkeypatch.setattr(
            theta, "_folded_theta", lambda *a: jets.append(a[:3]) or kernel(*a)
        )
        for alpha in (0.3, math.pi / 4 - 0.1, math.pi / 4 - 0.0135, math.pi / 4 - 0.01):
            psi1(alpha, -0.3 + 0.35j, 0.0)
        assert len(jets) == 6
        coarse = EvalSettings(quad_abs_tol=1e-3)  # truncation, not rounding, dominates
        for x, w, log_pref in jets:
            got = kernel(x, w, log_pref, coarse)
            brute = np.array(direct_theta_jet_sum(x, w, log_pref, 200))
            gap = np.abs(got.value - brute)
            assert (gap <= got.abs_err_est + 1e-15).all(), (x[0], gap, got.abs_err_est)

    def test_z_zero_matches_classical(self):
        a = theta_series(0.7, 0.0, TIGHT).value
        b = psi_classical(0.7, TIGHT).value
        assert abs(a - b) < 1e-14

    def test_conjugation(self):
        x, z = 0.8 + 0.1j, 0.4 - 0.2j
        a = theta_series(x, z, TIGHT).value
        b = theta_series(x.conjugate(), z.conjugate(), TIGHT).value
        assert abs(b - a.conjugate()) < 1e-15

    def test_terms_respect_cap(self):
        got = theta_series(0.5, 0.3)
        assert got.terms_used <= 10_000

    def test_domain_error(self):
        with pytest.raises(DomainError):
            theta_series(-1.0, 0.0)
        with pytest.raises(DomainError):
            theta_series(complex(0.0, 2.0), 0.1)
        with pytest.raises(DomainError):
            psi_classical(0.0)

    @pytest.mark.parametrize("call", [
        lambda: theta_series(math.inf, 0.3),
        lambda: psi_at_axis_combination(0.3, math.inf),
        lambda: psi_at_axis_combination(0.3, 5e-324),  # 1/(4 delta) overflows
    ], ids=["theta-x-inf", "axis-delta-inf", "axis-delta-subnormal"])
    def test_non_finite_input_is_domain_error(self, call):
        # refused before the first term, not after max_terms terms of nan
        with pytest.raises(DomainError, match="finite"):
            call()

    def test_divergence_guard(self):
        # cosh growth cannot be beaten within a tiny term budget
        with pytest.raises(DivergenceError):
            theta_series(1e-4, 60.0, EvalSettings(max_terms=20))

    def test_term_overflow(self):
        # the growth n |Im w| of the first term already passes the exponent
        # range, so the sum is refused before exp overflows
        with pytest.raises(DivergenceError, match="overflows"):
            theta_series(1.0, 500j)


def _reference_stop(x, w, p, tol, slope):
    """The kernel's truncation rule, written out once: the term count and the
    tail bound at which a sum of the leading sizes stops; slope is 0 for a
    scalar and 2 (_JET_LEN - 1) for a constant jet, whose envelope is 1."""
    decay, grow = math.pi * x.real, abs(w.imag)
    n = 0
    while True:
        n += 1
        ratio = -decay * (2 * n + 3) + grow + slope / (n + 1)
        if ratio < -1e-3:
            mu_next = p.real - decay * (n + 1) * (n + 1) + grow * (n + 1)
            tail = math.exp(min(mu_next, theta._EXP_GUARD)) / (1.0 - math.exp(ratio))
            if tail * (n + 1) ** slope <= tol:
                return n, tail


def _constant_jet(v):
    return np.array([v] + [0j] * (theta._JET_LEN - 1))


class TestScalarAndJetLoops:
    """_folded_theta sums scalars in one loop and jets in another, under one
    tail rule and one noise term; on a constant jet the two must agree."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-15], ids=["truncation", "rounding"])
    def test_constant_jet_leads_with_the_scalar_sum(self, tol):
        rng = np.random.default_rng(2600)
        settings = EvalSettings(quad_abs_tol=tol)
        for i in range(100):
            x = complex(math.exp(rng.uniform(-2.0, 1.0)), rng.uniform(-1.0, 1.0))
            w = complex(rng.normal(), rng.normal()) if i % 4 else 0j  # w = 0: one exponential
            p = complex(rng.uniform(-1.0, 5.0), rng.normal())  # large sums: rounding shows
            scalar = theta._folded_theta(x, w, p, settings)
            jet = theta._folded_theta(*(_constant_jet(v) for v in (x, w, p)), settings)
            gap = abs(jet.value[0] - scalar.value)
            assert gap <= jet.abs_err_est[0] + scalar.abs_err_est, (x, w, p)
            # each loop stops where the one rule says, and adds its rounding
            # term (below 1e-11 here) to that tail
            for got, err, slope in ((scalar, scalar.abs_err_est, 0),
                                    (jet, jet.abs_err_est[0], 2 * (theta._JET_LEN - 1))):
                n, tail = _reference_stop(x, w, p, tol, slope)
                assert got.terms_used == n and tail <= err <= tail + 1e-11, (x, w, p, slope)
            # both tails lie in [0, tol]; the rounding terms of the leading
            # sizes agree but for the jet's extra terms, each below tol
            drift = abs(jet.abs_err_est[0] - scalar.abs_err_est)
            assert drift <= tol + 1e-6 * scalar.abs_err_est, (x, w, p)

    @pytest.mark.parametrize("x, w, max_terms", [
        (0.001 + 0j, 5000j, 10_000),  # term 1 overflows
        (1e-8 + 0j, 0.5 + 0.1j, 20),  # no tail bound in 20 terms: both report inf
        (complex(math.inf, 0.0), 1j, 10_000),  # outside the domain
    ], ids=["overflow", "missed", "domain"])
    def test_refusals_print_as_the_scalar_loop(self, x, w, max_terms):
        settings = EvalSettings(max_terms=max_terms)
        messages = []
        for args in ((x, w, 0j), tuple(_constant_jet(v) for v in (x, w, 0j))):
            with pytest.raises(XishiftError) as info:
                theta._folded_theta(*args, settings)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "np." not in messages[1]


class TestRecords:
    @pytest.mark.parametrize("record, fields", [
        (lambda: theta_series(0.9, 0.2), ("value", "terms_used", "abs_err_est")),
        (lambda: series_side(1.1, 0.3), ("value", "abs_err_est")),
        (lambda: classify_inequality(0.3 + 0.2j), ("inside", "component_label", "margin")),
    ], ids=["ThetaEval", "ValueWithError", "RegionVerdict"])
    def test_immutable_named_tuples(self, record, fields):
        got = record()
        assert type(got)._fields == fields
        with pytest.raises(AttributeError):
            setattr(got, fields[0], 0.0)
        assert got == tuple(got) == tuple(getattr(got, f) for f in fields)


class TestModularResiduals:
    def test_jacobi_fixed_point(self):
        assert jacobi_residual(1.0) == 0.0

    @pytest.mark.parametrize("x", [0.3, 3.7])
    def test_jacobi_spec_points(self, x):
        assert jacobi_residual(x) < 1e-12

    def test_jacobi_log_grid(self):
        xs = np.logspace(-1, 1, 50)
        assert max(jacobi_residual(float(x)) for x in xs) < 1e-12

    def test_general_fixed_point(self):
        assert general_theta_residual(1.0, 0.0) < 1e-15

    def test_general_spec_points(self):
        assert general_theta_residual(math.sqrt(2.0), 0.3 + 0.2j) < 1e-10
        assert general_theta_residual(cmath.exp(0.2j), 0.4) < 1e-9

    def test_general_random(self):
        count = 0
        while count < 50:
            a = complex(RNG.uniform(0.5, 1.6), RNG.uniform(-0.6, 0.6))
            z = complex(*RNG.uniform(-1.1, 1.1, 2))
            if (a * a).real <= 0.05 or abs(z) > 1.5:
                continue
            count += 1
            assert general_theta_residual(a, z) < 1e-9, (a, z)

    def test_xz_transform(self):
        assert psi_xz_transform_residual(2.0, 0.0) < 1e-12
        assert psi_xz_transform_residual(1.5, 0.5 - 0.1j) < 1e-10
        assert psi_xz_transform_residual(complex(0.9, 0.3), 0.2) < 1e-9

    def test_xz_reduces_to_jacobi(self):
        for x in (0.4, 2.0, 7.0):
            assert abs(psi_xz_transform_residual(x, 0.0) - jacobi_residual(x)) < 1e-13

    def test_side_partner_is_cosh_side(self):
        # side(1/a, iz) realizes the hyperbolic side: check against a direct sum
        a, z = 1.2, 0.4 + 0.1j
        b = 1.0 / a
        got = series_side(b, 1j * z, TIGHT).value
        total = sum(
            cmath.exp(-math.pi * b * b * n * n) * cmath.cosh(math.sqrt(math.pi) * b * n * z)
            for n in range(1, 60)
        )
        ref = math.sqrt(b) * (cmath.exp(z * z / 8.0) / (2 * b) - cmath.exp(-z * z / 8.0) * total)
        assert abs(got - ref) < 1e-13


class TestPsi1:
    def test_base_value(self):
        assert abs(psi1(0.0, 0.0, 0.0, TIGHT) - PSI1_000) < 1e-14

    def test_definitional_assembly(self):
        alpha, lam = 0.1, 0.5
        got = psi1(alpha, 0.0, lam, TIGHT)
        ref = cmath.exp((0.5j - lam) * alpha) * (
            0.5 + theta_series(cmath.exp(2j * alpha), 0.0, TIGHT).value
        )
        assert abs(got - ref) < 1e-14

    @pytest.mark.parametrize("alpha, z, lam", list(PSI1_JETS))
    def test_frozen_jets(self, alpha, z, lam):
        for order, ref in enumerate(PSI1_JETS[alpha, z, lam]):
            got = psi1_alpha_derivative(alpha, z, lam, order)
            assert abs(got - ref) <= 1e-12 * abs(ref), (order, got, ref)

    def test_order_zero_equals_psi1(self):
        args = (0.2, 0.3 + 0.1j, 0.4)
        assert psi1_alpha_derivative(*args, 0) == psi1(*args)

    def test_first_derivative_vs_finite_difference(self):
        h = 1e-5
        got = psi1_alpha_derivative(0.0, 0.0, 0.0, 1)
        fd = (psi1(h, 0.0, 0.0, TIGHT) - psi1(-h, 0.0, 0.0, TIGHT)) / (2 * h)
        assert abs(got - fd) < 1e-8

    def test_second_derivative_vs_finite_difference(self):
        h = 1e-4
        args = (0.15, 0.3 + 0.1j, 0.2)
        got = psi1_alpha_derivative(*args, 2)
        f = lambda a: psi1(a, args[1], args[2], TIGHT)
        fd = (f(args[0] + h) - 2 * f(args[0]) + f(args[0] - h)) / h**2
        assert abs(got - fd) < 1e-6

    def test_boundary_limit_value(self):
        alpha = math.pi / 4 - 1e-3
        z, lam = 0.4 + 0.1j, 0.3
        got = psi1(alpha, z, lam)
        ref = -cmath.exp((math.pi / 4) * (0.5j - lam)) * cmath.sinh(z * z / 8.0)
        assert abs(got - ref) < 1e-3

    def test_boundary_second_derivative_limit(self):
        alpha = math.pi / 4 - 1e-3
        z, lam = 0.4, 0.2
        got = psi1_alpha_derivative(alpha, z, lam, 2)
        ref = -((0.5j - lam) ** 2) * cmath.exp((math.pi / 4) * (0.5j - lam)) * cmath.sinh(z * z / 8.0)
        assert abs(got - ref) < 2e-3

    def test_limit_sequences_decrease(self):
        for lam in (0.0, 0.3):
            for z in (0.4, 0.4 + 0.1j):
                for order in (0, 2):
                    lim = psi1_limit_value(z, lam, order)
                    res = [
                        abs(psi1_alpha_derivative(math.pi / 4 - 10.0**-k, z, lam, order) - lim)
                        for k in (1, 2, 3)
                    ]
                    assert res[0] > res[1] > res[2], (lam, z, order, res)
                    assert res[2] < 1e-2

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            psi1(math.pi / 4, 0.0, 0.0)
        with pytest.raises(DomainError):
            psi1_alpha_derivative(-1.0, 0.0, 0.0, 1)

    def test_near_axis_needs_z_inside(self):
        # near pi/4 the direct sum cancels: it has no correct digit here
        # against a 60-digit mpmath sum (-7.51e235-5.67e235i)
        with pytest.raises(RegionError, match=r"psi1 at alpha=0\.785"):
            psi1(0.785, 2 - 0.1j, 0.3)
        with pytest.raises(RegionError):
            psi1_alpha_derivative(0.785, 2 - 0.1j, 0.3, 2)
        # the mirrored route near -pi/4 needs conj z inside
        with pytest.raises(RegionError, match=r"psi1 at alpha=-0\.785"):
            psi1_alpha_derivative(-0.785, 2 + 0.1j, 0.3, 2)
        # away from the axis the direct route has no region condition
        assert cmath.isfinite(psi1(0.2, 2 - 0.1j, 0.3))

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            psi1_alpha_derivative(0.1, 0.0, 0.0, 5)
        with pytest.raises(UnsupportedOrderError):
            psi1_limit_value(0.4, 0.0, 3)

    @pytest.mark.parametrize("z, lam", [(0.3, math.inf), (0.3, math.nan),
                                        (complex(math.inf, 0.0), 0.0), (complex(0.3, math.nan), 0.0)])
    def test_non_finite_point_refused(self, z, lam):
        # refused at entry, before any arithmetic on the bad value
        with pytest.raises(DomainError, match="psi1 needs finite"):
            psi1(0.2, z, lam)
        with pytest.raises(DomainError, match="psi1_alpha_derivative needs finite"):
            psi1_alpha_derivative(0.2, z, lam, 2)
        with pytest.raises(DomainError, match="psi1_limit_value needs finite"):
            psi1_limit_value(z, lam, 0)

    @pytest.mark.parametrize("call, match", [
        (lambda: psi1_limit_value(1e150, 0.0, 0), r"psi1_limit_value\(z=.*\) at lam=0\.0"),
        (lambda: psi1(0.2, 0.3, -1e5), r"psi1 at lam=-100000\.0"),
        (lambda: psi1_limit_value(0.3, 1e300, 4), r"psi1_limit_value\(z=.*\) at lam=1e\+300"),
    ], ids=["limit-huge-z", "psi1-huge-shift", "limit-nan"])
    def test_overflow_is_typed(self, call, match):
        # the first two raised a bare OverflowError, the last returned nan+nanj
        with pytest.raises(EvaluationError, match=match):
            call()

    @pytest.mark.parametrize("call, match", [
        (lambda: psi1(0.2, 0.3, 1e5), r"^psi1 at lam=100000\.0: .* underflows at alpha=0\.2$"),
        (lambda: psi1_alpha_derivative(0.2, 0.3, 1e5, 2),
         r"^psi1 at lam=100000\.0: .* underflows at alpha=0\.2$"),
        (lambda: psi1_limit_value(0.3, 1e5, 0),
         r"^psi1_limit_value\(z=.*\) at lam=100000\.0: .* underflows at alpha=pi/4$"),
    ], ids=["psi1", "psi1-derivative", "limit"])
    def test_underflow_is_typed(self, call, match):
        # e^(-lam alpha) is below the float range, so the value would be a bare 0
        with pytest.raises(EvaluationError, match=match):
            call()

    def test_boundary_power_below_the_range(self):
        # |i/2|^order is subnormal at 1060 and an exact 0 at 1080, where the
        # limit passed as a vanishing one; a limit that is exactly 0 (z = 0)
        # stays 0 where the factor is in range
        for order in (1060, 1080):
            with pytest.raises(EvaluationError, match=r"^psi1_limit_value\(z=\(0\.3\+0j\)\) at "
                                                      r"lam=0\.0: the value .* underflows at "
                                                      r"alpha=pi/4$"):
                psi1_limit_value(0.3, 0.0, order)
        assert psi1_limit_value(0.0, 0.0, 1000) == 0.0

    @pytest.mark.parametrize("lam", [3000.0, 3540.0, 3700.0])
    @pytest.mark.parametrize("order", [0, 2])
    def test_values_near_the_float_floor(self, order, lam):
        # e^(-lam alpha) = e^(-600), e^(-708), e^(-740): a value whose shift
        # factor or itself is below the normal range is refused, naming the
        # shift; every value returned holds 12 digits of a 40-digit sum
        alpha, z = 0.2, 0.3
        if (order, lam) in {(0, 3540.0), (0, 3700.0), (2, 3700.0)}:
            with pytest.raises(EvaluationError, match=rf"^psi1 at lam={lam!r}: .* underflows"):
                psi1_alpha_derivative(alpha, z, lam, order)
            return
        mp = mpmath.mp
        with mp.workdps(40):
            terms = make_psi1_table._terms(mp, alpha, z)
            derivs = mp.diffs(lambda a: make_psi1_table.psi1_mp(mp, a, mp.mpc(z), lam, terms),
                              mp.mpf(alpha), order)
            ref = complex(list(derivs)[order])
        got = psi1_alpha_derivative(alpha, z, lam, order)
        assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)

    def test_value_above_the_float_floor_keeps_its_bits(self):
        assert psi1(0.2, 0.3, 3000.0) == complex(1.352782764065938e-261, 1.074308638702249e-263)

    def test_jet_term_overflow(self):
        # the jet sum's first term passes the exponent range, as in theta_series(1.0, 500j)
        with pytest.raises(DivergenceError, match="overflows"):
            psi1_alpha_derivative(0.0, 400j, 0.0, 2)


class TestOneJetSumPerAlpha:
    """psi1's theta jet is summed once per alpha, whatever the number of
    shifts: one kernel call on the direct route, two on the transformed one."""

    SHIFTS = ([0.0], [0.0, 1.0, 2.0])

    @staticmethod
    def _count_sums(monkeypatch) -> list:
        """Whether each theta sum of the kernel summed a jet, in call order."""
        calls = []
        kernel = theta._folded_theta

        def spy(x, w, log_pref, settings):
            calls.append(isinstance(x, np.ndarray))
            return kernel(x, w, log_pref, settings)

        monkeypatch.setattr(theta, "_folded_theta", spy)
        return calls

    @pytest.mark.parametrize("alpha, sums", [(0.2, 1), (math.pi / 4 - 0.01, 2)])
    def test_moment_series_rhs(self, monkeypatch, alpha, sums):
        calls = self._count_sums(monkeypatch)
        for shifts in self.SHIFTS:
            cfg = make_config([1.0] * len(shifts), shifts, 0.4 + 0.1j)
            calls.clear()
            moment_series_rhs(1, alpha, cfg)
            assert calls == [True] * sums, shifts

    def test_limits_subcommand(self, monkeypatch, tmp_path):
        calls = self._count_sums(monkeypatch)
        for shifts in self.SHIFTS:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"coefficients": [1.0] * len(shifts), "shifts": shifts,
                                        "z_re": 0.4, "z_im": 0.1}))
            calls.clear()
            assert main(["limits", "--config", str(path), "--out", str(tmp_path / "l.csv")]) == 0
            # T_4 and T_1 as numbers at each of the five axis deltas; then the
            # jets at alpha = pi/4 - 10^-k: k = 1 direct (one sum), k = 2, 3
            # and 4 transformed (two sums each)
            assert calls == [False] * (2 * 5) + [True] * 7, shifts


class TestAxisLimits:
    def test_decay_sequences(self):
        for z in (0.0, 0.5 + 0.2j, 1.0 + 0.5j):
            pairs = axis_decay_sequence(z, DELTAS)
            assert len(pairs) == len(DELTAS)
            for seq in zip(*pairs):  # |T_4|, then |T_1|
                assert all(b < a for a, b in zip(seq, seq[1:])), (z, seq)
                assert seq[-1] < 1e-8

    def test_z_zero_specialization(self):
        # pure Gaussian tail: sqrt(1/d) e^(-pi/(4d)) = 6.7e-7 at d=0.05,
        # dead below 1e-12 one grid point later
        quarter = [t4 for t4, _ in axis_decay_sequence(0.0, DELTAS)]
        assert abs(quarter[2] - math.sqrt(20.0) * math.exp(-5 * math.pi)) < 1e-12
        assert quarter[3] < 1e-12

    def test_terms_match_references(self):
        # 40-digit sums of the definition (tests/make_axis_table.py), signed
        # and as moduli; below 1e-300 a term nears the end of the float range
        assert len(AXIS_TERMS) == 20
        compared = 0
        deltas = sorted({delta for _, delta in AXIS_TERMS}, reverse=True)
        for z in {z for z, _ in AXIS_TERMS}:
            for delta, moduli in zip(deltas, axis_decay_sequence(z, deltas)):
                signed = theta._axis_terms(z, delta, EvalSettings())
                for got, size, ref in zip(signed, moduli, AXIS_TERMS[z, delta]):
                    if abs(ref) >= 1e-300:
                        assert abs(got - ref) <= 1e-12 * abs(ref), (z, delta)
                        assert abs(size - abs(ref)) <= 1e-12 * abs(ref), (z, delta)
                        compared += 1
        assert compared == 36

    def test_region_and_domain_errors(self):
        with pytest.raises(RegionError):
            axis_decay_sequence(2.0 + 2.0j, DELTAS)
        with pytest.raises(DomainError):
            axis_decay_sequence(0.0, [0.1, 0.2])  # not decreasing
        with pytest.raises(DomainError):
            axis_decay_sequence(0.0, [0.1, -0.2])  # not positive
        with pytest.raises(TypeError):
            axis_decay_sequence(0.0, DELTAS, scale=4.0)  # one call gives both terms

    def test_combination_near_axis(self):
        got = psi_at_axis_combination(0.0, 0.01)
        assert abs(got) < 1e-6
        z = 0.6 + 0.3j
        got = psi_at_axis_combination(z, 0.005)
        assert abs(got - (-cmath.sinh(z * z / 8.0))) < 1e-12

    def test_combination_matches_references(self):
        # every z admissible, delta from 0.5 down to 1e-3, where the terms of
        # the direct sum reach 6e121 (z = 1+0.5i) before they cancel
        assert len(PSI_AXIS_COMBINATION) == 36
        for (z, delta), ref in PSI_AXIS_COMBINATION.items():
            assert abs(psi_at_axis_combination(z, delta) - ref) <= 1e-11, (z, delta)

    def test_combination_at_psi1_tolerance(self):
        # T_4 - T_1 is summed as tightly as psi1's near-axis route sums it
        for z in (0.6 + 0.3j, 1.2 - 0.1j, 0.5j):
            for delta in (0.5, 2.0, 10.0, 100.0, 1000.0):
                direct = theta_series(1j + delta, z, TIGHT).value
                ref = cmath.exp(-z * z / 8.0) / 2.0 + cmath.exp(z * z / 8.0) * direct
                assert abs(psi_at_axis_combination(z, delta) - ref) <= 1e-13, (z, delta)

    def test_combination_far_from_the_axis(self):
        # the term budget stops T_4 near delta = 2.1e6 (README): 1e5 is still
        # summed, 1e8 is refused by the term budget, not returned
        for z in (0.6 + 0.3j, 1.2 - 0.1j):
            direct = theta_series(1j + 1e5, z, TIGHT).value
            ref = cmath.exp(-z * z / 8.0) / 2.0 + cmath.exp(z * z / 8.0) * direct
            assert abs(psi_at_axis_combination(z, 1e5) - ref) <= 1e-13, z
            with pytest.raises(DivergenceError, match="missed tolerance"):
                psi_at_axis_combination(z, 1e8)

    def test_combination_limit_below_the_references(self):
        for z in {z for z, _ in PSI_AXIS_COMBINATION}:
            for delta in (1e-4, 3e-5, 1e-5, 1e-6, 1e-8):
                got = psi_at_axis_combination(z, delta)
                assert abs(got + cmath.sinh(z * z / 8.0)) <= 1e-12, (z, delta)

    @pytest.mark.parametrize("delta", [2.3e-308, 1e-300, 2.2250738585072014e-308])
    def test_combination_at_the_smallest_deltas(self, monkeypatch, delta):
        # x = 1/(4 delta) nears the float limit: pi x (n + 1)^2 and
        # |Im w| (n + 1) both overflowed, the tail exponent was -inf + inf =
        # nan, and the sum ran all max_terms terms into a DivergenceError
        # ("tail bound nan").  Both terms are exactly 0 after one term
        z = -0.8 + 0.9j
        used = []
        folded = theta._folded_theta

        def counted(*args):
            out = folded(*args)
            used.append(out.terms_used)
            return out

        monkeypatch.setattr(theta, "_folded_theta", counted)
        assert psi_at_axis_combination(z, delta) == -cmath.sinh(z * z / 8.0)
        assert axis_decay_sequence(z, [delta]) == [(0.0, 0.0)]
        assert used == [1, 1, 1, 1]

    def test_split_identity_matches_direct_sum(self):
        z, delta = 0.3 + 0.1j, 0.2
        direct = theta_series(1j + delta, z, TIGHT).value
        c = cmath.sqrt(1j + delta) / math.sqrt(delta)
        split = (
            2.0 * theta_series(4 * delta, c * z, TIGHT).value
            - theta_series(delta, c * z, TIGHT).value
        )
        assert abs(direct - split) < 1e-9

    def test_combination_region_error(self):
        with pytest.raises(RegionError):
            psi_at_axis_combination(2.0 + 2.0j, 0.1)
        with pytest.raises(DomainError):
            psi_at_axis_combination(0.0, -0.1)
