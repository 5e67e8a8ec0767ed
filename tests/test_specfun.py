import cmath
import inspect
import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from xishift import (
    AccuracyError,
    ConfigError,
    DivergenceError,
    EvalSettings,
    EvaluationError,
    ParameterError,
    PoleError,
    RangeOverflowError,
    XishiftError,
    big_xi,
    eta_completed,
    f_z,
    gamma_c,
    hyp1f1,
    make_config,
    rho_real,
    xi_c,
    zeta_c,
)
from xishift import specfun
from xishift.shifts import _fz_vec, fz_line_vec

from ._oracles import (
    GAMMA_FAR_LEFT,
    GAMMA_LINE_SCALED,
    GAMMA_QUARTER,
    GAMMA_TABLE,
    HYP1F1_TABLE,
    LOGGAMMA_LINE,
    SIEGEL_Z,
    XI_HALF,
    ZETA_HALF,
    ZETA_LINE_HIGH,
    ZETA_NEAR_TRIVIAL,
    ZETA_TABLE,
    ZETA_ZEROS,
    ZETA_ZEROS_480,
    ZETA_ZEROS_HIGH,
    alternating_zeta,
    compensated_hyp1f1,
)

RNG = np.random.default_rng(20260810)


def _reference_em_group(s, n_direct):
    """Euler-Maclaurin zeta for one ladder group, direct sum and tail together,
    as the kernel computed it when the tail ran once per group.  Frozen here
    so that the one-tail kernel can be checked against it bit for bit."""
    logn = np.log(np.arange(1, n_direct, dtype=float))
    direct = np.zeros(s.shape, dtype=complex)
    chunk = max(1, specfun._EM_CHUNK // n_direct)
    buf = np.empty((min(chunk, s.size), logn.size), dtype=complex)
    for lo in range(0, s.size, chunk):
        x = np.multiply.outer(-s[lo:lo + chunk], logn, out=buf[:min(chunk, s.size - lo)])
        direct[lo:lo + chunk] = np.exp(x, out=x).sum(axis=1)
    ln_n = math.log(n_direct)
    val = direct + np.exp((1.0 - s) * ln_n) / (s - 1.0) + 0.5 * np.exp(-s * ln_n)
    poch = s.copy()
    for k in range(1, specfun._EM_K + 1):
        val += specfun._EM_COEF[k - 1] * poch * np.exp((1.0 - s - 2 * k) * ln_n)
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
    k_err = specfun._EM_K + 1
    t_next = np.abs(specfun._EM_COEF[k_err - 1] * poch * np.exp((1.0 - s - 2 * k_err) * ln_n))
    trunc = t_next * np.abs(s + (2 * k_err - 1)) / np.maximum(s.real + (2 * k_err - 1), 1.0)
    sigma = s.real
    with np.errstate(divide="ignore"):
        abs_sum = np.where(
            np.abs(1.0 - sigma) > 0.05,
            np.abs(np.expm1((1.0 - sigma) * ln_n)) / np.maximum(np.abs(1.0 - sigma), 1e-300),
            ln_n * 1.1,
        )
    phase = 1.5 * specfun.EPS * np.abs(s.imag) * math.sqrt(max(ln_n**3 / 3.0, 1.0))
    err = trunc + 4.0 * specfun.EPS * (1.0 + abs_sum) + phase
    return val, err


def _reference_zeta_vec(s, settings):
    """zeta_vec as it was with _reference_em_group, reflection included."""
    s = np.asarray(s, dtype=complex)
    refl = s.real < 0.0
    u = np.where(refl, 1.0 - s, s)
    ladder = np.asarray(specfun._em_ladder_tables(settings.max_terms)[0])
    idx = np.searchsorted(ladder, specfun.em_length(u))
    vals = np.empty(s.shape, dtype=complex)
    errs = np.empty(s.shape, dtype=float)
    for i in np.unique(idx):
        mask = idx == i
        vals[mask], errs[mask] = _reference_em_group(u[mask], int(ladder[i]))
    if refl.any():
        r, zv = s[refl], vals[refl]
        log_sin = specfun._logsin(math.pi * r / 2.0)
        log_chi = (r * specfun.LN_2 + (r - 1.0) * specfun.LN_PI + log_sin
                   + specfun._loggamma_vec(1.0 - r)[0])
        vals[refl] = np.exp(log_chi) * zv
        sin_cond = specfun.EPS * np.abs(math.pi * r / 2.0) * np.exp(-log_sin.real)
        errs[refl] = np.abs(vals[refl]) * (
            errs[refl] / np.maximum(np.abs(zv), 1e-300) + 1e-13 + sin_cond
        )
    return vals, errs


def _reference_hyp1f1_vec(a, b, w, settings=EvalSettings()):
    """hyp1f1_vec as it was with one stopping test per term, frozen here so that
    the blocked kernel can be checked against it bit for bit.  Also returns how
    many terms each entry used."""
    a = np.asarray(a, dtype=complex)
    shape, a = a.shape, a.ravel()
    b, w = complex(b), complex(w)
    acc = np.ones(a.shape, dtype=complex)
    term = np.ones(a.shape, dtype=complex)
    max_partial = np.ones(a.shape, dtype=float)
    streak = np.zeros(a.shape, dtype=np.int8)
    active = np.ones(a.shape, dtype=bool)
    last_mag = np.ones(a.shape, dtype=float)
    used = np.zeros(a.shape, dtype=int)
    if w == 0:
        return acc.reshape(shape), np.zeros(shape), used.reshape(shape)
    for n in range(settings.max_terms):
        if not active.any():
            break
        tn = term[active] * (a[active] + n) * (w / ((b + n) * (n + 1)))
        term[active] = tn
        acc[active] += tn
        used[active] = n + 1
        np.maximum(max_partial, np.abs(acc), out=max_partial, where=active)
        mag = np.abs(tn)
        last_mag[active] = mag
        small = mag <= 1e-12 * np.maximum(np.abs(acc[active]), 1e-300)
        streak_active = np.where(small, streak[active] + 1, 0)
        streak[active] = streak_active
        done = streak_active >= 2
        if done.any():
            idx = np.flatnonzero(active)
            active[idx[done]] = False
    else:
        if active.any():
            raise DivergenceError(
                f"1F1 series: {int(active.sum())} points unconverged after "
                f"{settings.max_terms} terms"
            )
    errs = 2.0 * last_mag + 16.0 * specfun.EPS * max_partial
    return acc.reshape(shape), errs.reshape(shape), used.reshape(shape)


class TestGamma:
    def test_half(self):
        assert abs(gamma_c(0.5).value - math.sqrt(math.pi)) < 1e-14

    def test_factorial(self):
        assert abs(gamma_c(5.0).value - 24.0) < 1e-12

    def test_quarter_vs_oracle(self):
        got = gamma_c(0.25)
        assert abs(got.value - GAMMA_QUARTER) <= max(got.abs_err_est, 1e-13)

    def test_frozen_table_and_error_honesty(self):
        for s, ref in GAMMA_TABLE.items():
            got = gamma_c(s)
            assert abs(got.value - ref) <= got.abs_err_est + 4e-16 * abs(ref), s

    def test_conjugate_symmetry(self):
        for _ in range(50):
            s = complex(RNG.uniform(-3, 4), RNG.uniform(-20, 20))
            if abs(s.imag) < 0.2:
                continue
            a = gamma_c(s).value
            b = gamma_c(s.conjugate()).value
            assert abs(b - a.conjugate()) <= 1e-12 * abs(a)

    def test_poles(self):
        for s in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma_c(s)

    def test_lanczos_table_equals_plain_loop(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 500):
            x = rng.uniform(0.5, 40.0, n) + 1j * rng.uniform(-3000.0, 3000.0, n)
            acc = specfun._LANCZOS_C[0]
            for k in range(1, 15):
                acc = acc + specfun._LANCZOS_C[k] / (x - 1.0 + k)
            assert specfun._lanczos_sum(x).tobytes() == acc.tobytes(), n

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma_c(200.0)

    @pytest.mark.parametrize("call", [lambda: gamma_c(200.0), lambda: zeta_c(-300.5)],
                             ids=["gamma", "zeta-reflection"])
    def test_overflow_is_a_library_error(self, call):
        # typed, so the CLI's `except XishiftError` takes it, and still an
        # OverflowError for callers that catch the builtin
        with pytest.raises(XishiftError, match="exceeds double range") as info:
            call()
        assert type(info.value) is RangeOverflowError
        assert isinstance(info.value, OverflowError)

    def test_far_left_vs_mpmath(self):
        # reflection, not a capped recurrence, reaches these points
        for s, ref in GAMMA_FAR_LEFT.items():
            got = gamma_c(s)
            assert abs(got.value - ref) <= got.abs_err_est, s
            assert abs(got.value - ref) <= 1e-13 * abs(ref), s

    def test_underflow_raises(self):
        with pytest.raises(EvaluationError, match=r"-200\.5"):
            gamma_c(-200.5 + 0.3j)

    def test_log_gamma_bound_high_on_the_line(self):
        # the rounding of log Gamma grows with its magnitude ~ (t/2) ln t; a
        # fixed relative bound understates it from t ~ 1e3 on
        ts = np.array(list(LOGGAMMA_LINE))
        lg, rel = specfun._loggamma_vec(0.25 + 0.5j * ts)
        for t, got, bound in zip(ts, lg, rel):
            assert abs(got - LOGGAMMA_LINE[t]) <= bound, t
            assert bound <= 1e-9, t


class TestZeta:
    def test_basel(self):
        assert abs(zeta_c(2.0).value - math.pi**2 / 6.0) < 1e-13

    def test_zero_point(self):
        assert abs(zeta_c(0.0).value - (-0.5)) < 1e-13

    def test_half_vs_alternating_oracle(self):
        got = zeta_c(0.5).value
        assert abs(got - alternating_zeta(0.5)) < 1e-12
        assert abs(got - ZETA_HALF) < 1e-12

    def test_alternating_oracle_on_strip(self):
        for s in (0.5 + 3j, 0.3 - 7.5j, 1.2 + 0.4j, 2.0 + 25j):
            got = zeta_c(s).value
            assert abs(got - alternating_zeta(s)) < 1e-11 * max(1.0, abs(got)), s

    def test_frozen_table_and_error_honesty(self):
        for s, ref in ZETA_TABLE.items():
            got = zeta_c(s)
            assert abs(got.value - ref) <= got.abs_err_est + 4e-16 * abs(ref), s

    def test_pole(self):
        with pytest.raises(PoleError):
            zeta_c(1.0)

    def test_accuracy_error_when_budget_exceeded(self):
        with pytest.raises(AccuracyError):
            zeta_c(0.5 + 1e7j)
        with pytest.raises(AccuracyError):
            zeta_c(0.5 + 40j, EvalSettings(max_terms=20))

    def test_max_terms_below_em_floor_rejected(self):
        # no zeta point could fit such a budget
        with pytest.raises(ConfigError, match=r"max_terms must be >= 20 \(the Euler-Maclaurin floor\)"):
            EvalSettings(max_terms=19)
        assert zeta_c(2.0, EvalSettings(max_terms=20)).value != 0

    def test_settings_are_the_two_knobs_callers_set(self):
        assert [f.name for f in fields(EvalSettings)] == ["max_terms", "quad_abs_tol"]
        with pytest.raises(ConfigError, match="quad_abs_tol"):
            EvalSettings(quad_abs_tol=0.0)

    def test_conjugate_symmetry(self):
        for _ in range(30):
            s = complex(RNG.uniform(0, 3), RNG.uniform(0.5, 40))
            a = zeta_c(s).value
            b = zeta_c(s.conjugate()).value
            assert abs(b - a.conjugate()) <= 1e-11 * abs(a)


class TestZetaKernel:
    """The vector Euler-Maclaurin kernel and its direct-sum length rule."""

    def test_high_on_line_vs_mpmath_and_error_honesty(self):
        ts = np.array(list(ZETA_LINE_HIGH))
        vals, errs = specfun.zeta_vec(0.5 + 1j * ts)
        for t, v, e in zip(ts, vals, errs):
            ref = ZETA_LINE_HIGH[t]
            assert abs(v - ref) <= e, t
            # every point fits the term budget: the estimate is a real bound
            assert e < 1e-10, t

    def test_length_rule(self):
        assert specfun.em_length(0.5 + 1e3j) <= 650
        assert specfun.em_length(0.5 + 1j) == specfun.EM_MIN_TERMS == 20
        # every point of the moment and scan paths up to t ~ 1.2e4 fits the cap
        assert specfun.em_length(0.5 + 12_003.75j) <= EvalSettings().max_terms

    def test_length_takes_the_point_alone(self):
        assert list(inspect.signature(specfun.em_length).parameters) == ["s"]
        tables = specfun._em_ladder_tables
        assert list(inspect.signature(tables.__wrapped__).parameters) == ["max_terms"]
        assert tables(10_000)[0][0] == 20

    def test_point_alone_equals_point_in_batch(self):
        settings = EvalSettings()
        rng = np.random.default_rng(7)
        ts = np.concatenate((rng.uniform(0.0, 6000.0, 1000), rng.uniform(4500.0, 5000.0, 1000)))
        s = 0.5 + 1j * ts
        ladder = np.asarray(specfun._em_ladder_tables(settings.max_terms)[0])
        idx = np.searchsorted(ladder, specfun.em_length(s))
        groups, sizes = np.unique(idx, return_counts=True)
        # the batch spans several ladder groups, and one group several row blocks
        assert len(groups) >= 5
        biggest = int(ladder[groups[np.argmax(sizes)]])
        assert sizes.max() > 2 * (specfun._EM_CHUNK // biggest)
        vals, errs = specfun.zeta_vec(s, settings)
        for i in list(range(0, 2000, 97)) + [1999]:
            v, e = specfun.zeta_vec(s[i:i + 1], settings)
            assert v[0].tobytes() == vals[i].tobytes(), ts[i]
            assert e[0].tobytes() == errs[i].tobytes(), ts[i]


    def test_equals_per_group_kernel_bit_for_bit(self):
        # every ladder group here is far below numpy's 16384-element temporary
        # elision size, where the per-group kernel's bits were batch-free
        rng = np.random.default_rng(11)
        settings = EvalSettings()
        ladder = np.asarray(specfun._em_ladder_tables(settings.max_terms)[0])
        ts = np.geomspace(0.5, 16_380.0, 600) * rng.choice([-1.0, 1.0], 600)
        s = np.concatenate((
            rng.uniform(-3.0, 4.0, 600) + 1j * ts,  # every ladder entry, reflection included
            rng.uniform(0.95, 1.05, 40) + 1j * rng.uniform(-40.0, 40.0, 40),  # |1 - sigma| <= 0.05
            np.array([2.0, 0.0, -2.5, 1.02, 0.5 + 14.134725j]),
            # at a zero the sum cancels to ~1e-15, so a last-bit change in any
            # correction term shows in the value's bits
            0.5 + 1j * np.array(ZETA_ZEROS + ZETA_ZEROS_480 + ZETA_ZEROS_HIGH),
        ))
        idx = np.searchsorted(ladder, specfun.em_length(np.where(s.real < 0, 1.0 - s, s)))
        groups, sizes = np.unique(idx, return_counts=True)
        assert list(groups) == list(range(len(ladder))) and sizes.max() < 16_384
        assert (s.real < 0).sum() > 100 and (np.abs(1.0 - s.real) <= 0.05).sum() > 40
        small = EvalSettings(max_terms=300)
        s_small = s[np.abs(s) < 400.0]
        assert len(specfun._em_ladder_tables(small.max_terms)[0]) > 5
        for points, st in ((s, settings), (s_small, small)):
            for got, ref in zip(specfun.zeta_vec(points, st), _reference_zeta_vec(points, st)):
                assert got.tobytes() == ref.tobytes()
        for point in (3.0, -7.5 + 2.0j, 0.5 + 123.4j):
            got = specfun.zeta_vec(np.asarray(point, dtype=complex))
            ref = _reference_zeta_vec(np.array([point]), settings)
            assert got[0].shape == got[1].shape == ()
            assert [x.tobytes() for x in got] == [x[0].tobytes() for x in ref], point

    def test_point_equals_batch_at_elision_size(self):
        # one ladder group of 16384 points: an operator chain there may run
        # in place on a temporary with its operands swapped, and numpy's
        # complex multiply is not bitwise commutative; the per-group kernel
        # gave t = 282.453392 other bits than its one-point call
        s = 0.5 + 1j * np.linspace(0.0, 494.0, 250_001)[142_942 - 8192:142_942 + 8192]
        ladder = np.asarray(specfun._em_ladder_tables(EvalSettings().max_terms)[0])
        assert s.size == 16_384 and np.unique(np.searchsorted(ladder, specfun.em_length(s))).size == 1
        assert s[8192] == 0.5 + 282.453392j
        vals, errs = specfun.zeta_vec(s)
        v, e = specfun.zeta_vec(s[8192:8193])
        assert v[0].tobytes() == vals[8192].tobytes()
        assert e[0].tobytes() == errs[8192].tobytes()

    @pytest.mark.parametrize("width", [1, 1 << 30])
    def test_tail_block_width_keeps_the_bits(self, monkeypatch, width):
        # the tail tables one point wide (1), or one block over every point (2^30)
        monkeypatch.setattr(specfun, "_EM_TAIL_BLOCK", width)
        self.test_equals_per_group_kernel_bit_for_bit()
        self.test_point_equals_batch_at_elision_size()

    def test_other_kernels_point_equals_batch_at_elision_size(self):
        # 16384 points and more: any operator chain left in a kernel could run
        # in place on a temporary with its operands swapped
        rng = np.random.default_rng(16_384)
        n = 16_384
        picks = list(rng.choice(n, 200, replace=False))
        s = rng.uniform(-6.0, 6.0, n) + 1j * rng.uniform(-300.0, 300.0, n)
        s[np.abs(s.real - np.round(s.real)) < 1e-3] += 0.5  # clear of the poles
        a = rng.uniform(-60.0, 60.0, n) + 1j * rng.uniform(-60.0, 60.0, n)
        cfg = make_config([1.0, 0.5, 0.25], [0.0, 1.0, 2.0], 0.5 + 0.25j)
        line = 0.5 + 1j * rng.uniform(0.0, 200.0, n)
        for kernel, points in ((specfun._loggamma_vec, s),
                               (lambda x: specfun.hyp1f1_vec(x, 1.5 - 0.5j, 0.4 + 0.3j), a),
                               (lambda x: _fz_vec(x, cfg), line)):
            batch = kernel(points)
            for i in picks:
                one = kernel(points[i:i + 1])
                assert [x[i].tobytes() for x in batch] == [x[0].tobytes() for x in one], points[i]

    def test_one_tail_per_call(self, monkeypatch):
        calls = {"direct": [], "tail": []}
        direct, tail = specfun._em_direct, specfun._em_tail

        def counted_direct(s, n_direct):
            calls["direct"].append(n_direct)
            return direct(s, n_direct)

        def counted_tail(s, *args):
            calls["tail"].append(s.size)
            return tail(s, *args)

        monkeypatch.setattr(specfun, "_em_direct", counted_direct)
        monkeypatch.setattr(specfun, "_em_tail", counted_tail)
        s = 0.5 + 1j * np.linspace(0.0, 3000.0, 500)
        specfun.zeta_vec(s)
        ladder = np.asarray(specfun._em_ladder_tables(EvalSettings().max_terms)[0])
        groups = np.unique(np.searchsorted(ladder, specfun.em_length(s)))
        assert len(groups) >= 5
        assert sorted(calls["direct"]) == [int(n) for n in ladder[groups]]
        assert calls["tail"] == [500]

    def test_direct_sum_holds_one_block(self):
        # one reused buffer: the peak stays near one block however many
        # blocks the batch spans
        settings = EvalSettings()
        s = 0.5 + 1j * np.linspace(440.0, 460.0, 8)
        ladder = specfun._em_ladder_tables(settings.max_terms)[0]
        n_direct = min(n for n in ladder if n >= specfun.em_length(s).max())
        assert n_direct >= specfun.em_length(s).min()  # one ladder group
        chunk = specfun._EM_CHUNK // n_direct
        block_bytes = chunk * (n_direct - 1) * 16
        s = 0.5 + 1j * np.linspace(440.0, 460.0, 2 * chunk + chunk // 2)
        specfun.zeta_vec(s[:1], settings)  # first-call imports stay out of the trace
        tracemalloc.start()
        try:
            specfun.zeta_vec(s, settings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * block_bytes, (peak, block_bytes)


class TestBlockedTableMemory:
    """The zeta tail and 1F1 run their tables in column blocks: a 20001-point
    call on the line peaks at most 1.25x of what the term-by-term kernels held
    (3.16, 2.34 and 22.1 MB for zeta, 1F1 and the exhibit F_z), where one
    table over every point would need 19, 17 and 58 MB."""

    T = np.linspace(0.0, 480.0, 20_001)
    CFG = make_config([1.0, 0.5, 0.25], [0.0, 1.0, 2.0], 0.5 + 0.25j)

    @staticmethod
    def _peak(call):
        call()  # first-call imports and caches stay out of the trace
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_zeta(self):
        s = 0.5 + 1j * self.T
        assert self._peak(lambda: specfun.zeta_vec(s)) <= 1.25 * 3.16e6

    def test_hyp1f1(self):
        a = (1.0 - (0.5 + 1j * self.T)) / 2.0
        w = self.CFG.z * self.CFG.z / 4.0
        assert self._peak(lambda: specfun.hyp1f1_vec(a, 0.5, w)) <= 1.25 * 2.34e6

    def test_fz_line(self):
        assert self._peak(lambda: fz_line_vec(self.T, self.CFG)) <= 1.25 * 22.1e6


def _spy_weight_gathers(monkeypatch) -> list[bool]:
    """Per _eta_rs call, whether its log-weight came as an array: a scalar
    weight that the masked route broadcasts and gathers does."""
    seen = []
    rs = specfun._eta_rs

    def spy(t, log_weight, settings):
        seen.append(isinstance(log_weight, np.ndarray))
        return rs(t, log_weight, settings)

    monkeypatch.setattr(specfun, "_eta_rs", spy)
    return seen


class TestHardyZ:
    """The Riemann-Siegel Z kernel the eta kernel runs on the critical line
    at |t| >= RS_CROSSOVER, against frozen mpmath values and against the
    Euler-Maclaurin route it replaces there."""

    def test_vs_siegelz_and_error_honesty(self):
        # the tail bound is proven only where 3(K+1) < 2a^2/25, t > 4948 for
        # K = 20; below that these values are what backs the estimate
        ts = np.array(list(SIEGEL_Z))
        assert ts.min() == specfun.RS_CROSSOVER and ts.max() == 1e5
        assert (ts <= 5000.0).sum() >= 400
        # a at and just below whole numbers, where N steps
        a_ld, n_main = specfun._rs_split(ts)
        p = (a_ld - n_main).astype(float)
        assert (np.minimum(p, 1.0 - p) < 1e-9).sum() >= 40
        vals, errs = specfun._hardy_z(ts)
        for t, v, e in zip(ts, vals, errs):
            assert abs(v - SIEGEL_Z[t]) <= 0.25 * e, t
            assert e <= 1e-9, t

    def test_crossover_is_lowest_height_where_z_estimate_wins(self):
        # whole heights: the Z estimate first drops to the Euler-Maclaurin
        # one at RS_CROSSOVER and stays below it from there on
        ts = np.arange(40.0, 3001.0)
        _, em = specfun.zeta_vec(0.5 + 1j * ts)
        _, rs = specfun._hardy_z(ts)
        wins = rs <= em
        assert ts[np.argmax(wins)] == specfun.RS_CROSSOVER
        assert wins[ts >= specfun.RS_CROSSOVER].all()
        # the highest |t + lambda| a test_frozen_outputs window reaches (exhibit
        # scan to 40, shifts to 2): those windows stay on Euler-Maclaurin
        assert specfun.RS_CROSSOVER > 42.0

    def test_both_routes_agree_across_the_crossover(self):
        ts = np.linspace(specfun.RS_CROSSOVER - 25.0, specfun.RS_CROSSOVER + 400.0, 301)
        weight = 0.7 * ts
        v_rs, e_rs = specfun._eta_rs(ts, weight)
        v_em, e_em = specfun._eta_em(0.5 + 1j * ts, EvalSettings(), weight)
        assert (np.abs(v_rs - v_em) <= e_rs + e_em).all()

    def test_eta_takes_z_kernel_on_the_line_only(self):
        x = specfun.RS_CROSSOVER
        s = np.array([0.5 + 1j * (x - 1.0), 0.5 + 1j * x, 0.5 - 1j * (x + 7.0), 0.6 + 1j * x])
        vals, errs = specfun._eta_vec(s)
        v_rs, e_rs = specfun._eta_rs(s.imag[1:3], 0.0)
        v_em, e_em = specfun._eta_em(s[[0, 3]], EvalSettings(), 0.0)
        assert vals[1:3].tobytes() == v_rs.astype(complex).tobytes()
        assert errs[1:3].tobytes() == e_rs.tobytes()
        assert vals[[0, 3]].tobytes() == v_em.tobytes()
        assert errs[[0, 3]].tobytes() == e_em.tobytes()
        assert (vals[1:3].imag == 0.0).all()

    @pytest.mark.parametrize("weighted", [False, True], ids=["scalar-weight", "array-weight"])
    def test_all_z_batch_equals_masked_route(self, monkeypatch, weighted):
        # a 1-D batch of Z points goes to _eta_rs whole; the same points
        # inside a batch with an Euler-Maclaurin point take the masks
        seen = _spy_weight_gathers(monkeypatch)
        ts = np.array([specfun.RS_CROSSOVER, 250.5, -600.25, 3000.0, 1e4 / 3.0])
        mixed = np.append(ts, 50.0)
        weight = (0.6 * ts, 0.6 * mixed) if weighted else (0.25, 0.25)
        vals, errs = specfun._eta_vec(0.5 + 1j * ts, EvalSettings(), weight[0])
        v_mix, e_mix = specfun._eta_vec(0.5 + 1j * mixed, EvalSettings(), weight[1])
        assert vals.dtype == v_mix.dtype == complex
        assert vals.tobytes() == v_mix[:-1].tobytes()
        assert errs.tobytes() == e_mix[:-1].tobytes()
        # the direct route passes the weight on as given, the masked one gathers it
        assert seen == [weighted, True]

    def test_other_shapes_keep_the_masked_route(self, monkeypatch):
        seen = _spy_weight_gathers(monkeypatch)
        s = 0.5 + 1j * np.array([[200.0, 300.5], [-450.0, 1000.25]])
        flat_v, flat_e = specfun._eta_vec(s.ravel())
        vals, errs = specfun._eta_vec(s)
        point_v, point_e = specfun._eta_vec(s[0, 1])
        assert seen == [False, True, True]
        assert vals.shape == errs.shape == (2, 2) and point_v.shape == point_e.shape == ()
        assert vals.tobytes() == flat_v.tobytes() and errs.tobytes() == flat_e.tobytes()
        assert point_v.tobytes() == flat_v[1].tobytes()
        assert point_e.tobytes() == flat_e[1].tobytes()

    def test_point_alone_equals_point_in_batch(self):
        # main sums of many lengths in one batch, on both sides of the crossover
        rng = np.random.default_rng(17)
        ts = np.concatenate((rng.uniform(0.0, 6000.0, 600), rng.uniform(480.0, 520.0, 100)))
        vals, errs = specfun.eta_weighted_line(ts, 0.6)
        assert len(np.unique(specfun.rs_length(ts[ts >= specfun.RS_CROSSOVER]))) >= 15
        for i in list(range(0, 700, 23)) + [699]:
            v, e = specfun.eta_weighted_line(ts[i:i + 1], 0.6)
            assert v[0].tobytes() == vals[i].tobytes(), ts[i]
            assert e[0].tobytes() == errs[i].tobytes(), ts[i]

    def test_rho_real_equals_batch_point(self):
        ts = np.array([600.25, -640.5, 700.0, 104.0, 300.0, 90.0, 870.0])
        vals, _ = specfun.eta_line_vec(ts)
        for t, v in zip(ts, vals):
            assert rho_real(float(t)) == v.real, t

    def test_main_sum_holds_one_block(self):
        # three reused buffers (longdouble phase and turns, double term): the
        # peak stays near one block however many blocks the batch spans
        ts = np.linspace(1e5, 1e5 + 10.0, 8)
        n_max = int(specfun.rs_length(ts).max())
        assert n_max == specfun.rs_length(ts).min()
        chunk = specfun._RS_CHUNK // n_max
        block_bytes = chunk * n_max * (2 * np.dtype(np.longdouble).itemsize + 8)
        ts = np.linspace(1e5, 1e5 + 10.0, 2 * chunk + chunk // 2)
        specfun._hardy_z(ts[:1])  # first-call imports stay out of the trace
        tracemalloc.start()
        try:
            specfun._hardy_z(ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * block_bytes, (peak, block_bytes)

    def test_budget_counts_the_terms_the_sum_runs(self, monkeypatch):
        # at t = 2 pi n^2, a = sqrt(t/2pi) sits at a whole number, where a
        # double-precision floor(a) can differ from the longdouble one the sum
        # runs to (on x86, at 265 of these heights: t = 3041.0616886749194
        # needs 21 terms, not 22).  The weight e^(pi t/4) keeps rho from
        # underflowing.
        ts = np.array([2.0 * math.pi * n * n for n in range(21, 400)])
        summed = []
        main_sum = specfun._rs_main_sum
        monkeypatch.setattr(specfun, "_rs_main_sum",
                            lambda tl, theta, n: summed.append(n.copy()) or main_sum(tl, theta, n))
        for t in ts:
            n = int(specfun.rs_length(t))
            specfun.eta_weighted_line(t, math.pi / 4, EvalSettings(max_terms=n))
            if n > specfun.EM_MIN_TERMS:  # EvalSettings takes no max_terms below it
                with pytest.raises(AccuracyError, match=f"needs {n} terms"):
                    specfun.eta_weighted_line(t, math.pi / 4, EvalSettings(max_terms=n - 1))
        assert np.concatenate(summed).tolist() == specfun.rs_length(ts).tolist()

    def test_correction_sum_equals_horner_to_rounding(self):
        # the power tables and einsums against a zero-padded Horner in z^2
        # for every C_k and in 1/a over k: they differ by rounding only,
        # inside the 4 eps a^(-1/2) that the Z estimate carries for the
        # corrections (4 eps in units of the sum)
        rng = np.random.default_rng(23)
        p = np.concatenate((np.linspace(0.0, 1.0, 101), rng.uniform(0.0, 1.0, 1200)))
        a = np.sqrt(rng.uniform(specfun.RS_CROSSOVER, 1e5, p.size) / (2.0 * math.pi))
        z = 1.0 - 2.0 * p
        ck = np.zeros((specfun._RS_K + 1, p.size))
        for col in specfun._RS_MATRIX.T[::-1]:
            ck *= z * z
            ck += col[:, None]
        ck[1::2] *= z
        horner = ck[-1]
        for row in ck[-2::-1]:
            horner = horner / a + row
        got = specfun._rs_correction_sum(p, a)
        assert np.abs(got - horner).max() <= 4.0 * specfun.EPS
        assert np.abs(specfun._rs_corrections(p) - ck).max() <= 4.0 * specfun.EPS

    def test_correction_sum_point_alone_equals_point_in_batch(self):
        # one column takes another einsum inner loop than two or more, so a
        # one-point call runs as two columns and a last block never holds one
        rng = np.random.default_rng(29)
        p = rng.uniform(0.0, 1.0, 2100)
        a = np.sqrt(rng.uniform(specfun.RS_CROSSOVER, 5000.0, p.size) / (2.0 * math.pi))
        batch = specfun._rs_correction_sum(p, a)
        singles = [(i, i + 1) for i in range(0, 2100, 35)]
        for lo, hi in singles + [(5, 7), (11, 14), (20, 27), (0, 700), (511, 513), (0, 513),
                                 (1023, 1026), (0, 1025), (2046, 2049), (0, 2049), (3, 2100)]:
            got = specfun._rs_correction_sum(p[lo:hi], a[lo:hi])
            assert got.tobytes() == batch[lo:hi].tobytes(), (lo, hi)

    def test_short_calls_equal_points_in_a_wide_batch(self):
        # 1-, 2-, 3- and 7-point Riemann-Siegel calls, and points on both
        # sides of the 512, 1024 and 2048 column boundaries of the tables
        rng = np.random.default_rng(31)
        ts = rng.uniform(specfun.RS_CROSSOVER, 6000.0, 2100) * rng.choice((-1.0, 1.0), 2100)
        weight = 0.7 * np.abs(ts)
        vals, errs = specfun._eta_rs(ts, weight)
        batch = specfun._eta_rs(ts[:700], weight[:700])
        assert vals[:700].tobytes() == batch[0].tobytes()
        assert errs[:700].tobytes() == batch[1].tobytes()
        singles = [(i, 1) for i in range(0, 2100, 70)]
        for lo, size in singles + [(8, 2), (40, 3), (99, 7), (690, 7), (510, 4), (1022, 4),
                                   (2046, 4), (0, 513), (7, 1025), (1, 2048), (0, 2049)]:
            v, e = specfun._eta_rs(ts[lo:lo + size], weight[lo:lo + size])
            assert v.tobytes() == vals[lo:lo + size].tobytes(), (lo, size)
            assert e.tobytes() == errs[lo:lo + size].tobytes(), (lo, size)

    def test_gamma_factor_vs_loggamma(self):
        # L = log|Gamma(1/4 + it/2)| + pi|t|/4 by the real Stirling series,
        # against frozen 40-digit mpmath values on [RS_CROSSOVER, 1e5]
        ts = np.array(list(GAMMA_LINE_SCALED))
        assert (ts > 0).sum() >= 20 and (ts < 0).sum() >= 20
        assert np.abs(ts).min() == specfun.RS_CROSSOVER and np.abs(ts).max() == 1e5
        lg, err = specfun._log_gamma_line(ts)
        for t, got, bound in zip(ts, lg, err):
            assert abs(got - GAMMA_LINE_SCALED[t]) <= 0.25 * bound, t
            assert bound <= 1e-14, t
        # the series' truncation stays inside the rounding term from |t| = 80
        assert specfun._STIRLING_TAIL / 40.0**9 <= 4.0 * specfun.EPS
        assert specfun.RS_CROSSOVER >= 80.0

    def test_c0_closed_form(self):
        # avoid p = 1/4, 3/4, where the closed form is 0/0
        p = np.concatenate((np.linspace(0.0, 0.22, 17), np.linspace(0.28, 0.72, 17),
                            np.linspace(0.78, 1.0, 16)))
        c0 = specfun._rs_corrections(p)[0]
        closed = np.cos(2 * np.pi * (p * p - p - 1.0 / 16.0)) / np.cos(2 * np.pi * p)
        assert len(p) == 50
        assert np.abs(c0 - closed).max() <= 1e-14

    def test_table_rows_regenerate(self):
        pytest.importorskip("mpmath")
        from .make_rs_table import table_rows

        assert table_rows(1) == specfun._RS_COEF[:2]


class TestZetaVecDomain:
    def test_mixed_half_planes_vs_table_and_zeta_c(self):
        points = list(ZETA_TABLE)
        assert any(s.real < 0 for s in points) and any(s.real >= 0 for s in points)
        vals, errs = specfun.zeta_vec(np.array(points))
        for s, v, e in zip(points, vals, errs):
            ref = ZETA_TABLE[s]
            assert abs(v - ref) <= e + 4e-16 * abs(ref), s
            got = zeta_c(s)
            assert (got.value, got.abs_err_est) == (v, e), s

    def test_pole(self):
        with pytest.raises(PoleError):
            specfun.zeta_vec(np.array([2.0, 1.0]))

    def test_error_bound_near_trivial_zeros(self):
        # the functional equation's sine nearly vanishes here; its
        # conditioning must enter the estimate (it once reported 1e-13
        # relative against an actual 3e-8)
        points = list(ZETA_NEAR_TRIVIAL)
        vals, errs = specfun.zeta_vec(np.array(points, dtype=complex))
        for s, v, e in zip(points, vals, errs):
            ref = ZETA_NEAR_TRIVIAL[s]
            assert abs(v - ref) <= e, s
            assert e <= 1e-6 * abs(ref), s

    def test_non_finite_names_point(self):
        # the correction terms would overflow this high; the kernel refuses
        # the point for its length before summing, so no nan may come back
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(AccuracyError, match=r"1e\+19"):
                specfun.zeta_vec(np.array([0.5 + 10j, 0.5 + 1e19j]))
            with pytest.raises(AccuracyError, match=r"1e\+19"):
                specfun.eta_line_vec(np.array([1e19]))

    @pytest.mark.parametrize("bad", [math.nan, complex(0.5, math.inf)])
    def test_non_finite_argument_refused_first(self, bad):
        # refused before any arithmetic: a RuntimeWarning fails the suite
        with pytest.raises(EvaluationError, match="zeta_vec argument: non-finite"):
            specfun.zeta_vec(np.array([2.0, bad]))

    @pytest.mark.parametrize("s", [-1e-300, -1e-17, -1e-12, -1e-8, -1e-4, -0.3, -0.5 - 0.1j])
    def test_left_of_zero_vs_mpmath(self, s):
        # the functional equation rounded 1 - s onto the pole: -1e-12 was
        # 4.4e-5 off with a bound of 5e-14, and from about -1e-17 on the
        # kernel divided by zero; within |s| < 1/2 the sum runs at s
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.zeta(mpmath.mpc(s)))
        got = zeta_c(s)
        assert abs(got.value - ref) <= got.abs_err_est <= 1e-13, s

    def test_reflection_overflow(self):
        # the functional-equation factor passes double range far left of 0
        with pytest.raises(OverflowError, match="exceeds double range"):
            zeta_c(-300.5)


class TestTermBudget:
    """Each direct-sum kernel refuses a point whose sum needs more than
    max_terms terms, naming the point and the count, instead of clamping."""

    HARDY = make_config([1.0], [0.0], 0.0)

    def test_euler_maclaurin_on_the_line(self):
        # below RS_CROSSOVER; a 20-term sum here is off by 3e-4
        with pytest.raises(AccuracyError, match=r"100j?\).* 64 terms.*max_terms=20"):
            rho_real(100.0, EvalSettings(max_terms=20))

    def test_euler_maclaurin_off_the_line(self):
        settings = EvalSettings(max_terms=100)
        with pytest.raises(AccuracyError, match=r"\(2\+300j\).* 184 terms"):
            eta_completed(2 + 300j, settings)
        with pytest.raises(AccuracyError, match=r"\(2\+300j\).* 184 terms"):
            f_z(2 + 300j, self.HARDY, settings)

    def test_riemann_siegel_has_no_fallback(self):
        # no Euler-Maclaurin fallback: that would need ~1800 terms here
        with pytest.raises(AccuracyError, match=r"Riemann-Siegel.*t=3000\.0 needs 21 terms"):
            specfun.eta_weighted_line(3000.0, 0.78, EvalSettings(max_terms=20))

    def test_huge_counts_are_shown_to_four_digits(self):
        # counts below 1e15 keep every digit; above, 150 digits would say no more
        with pytest.raises(AccuracyError, match=r"t=1e\+20 needs 3989422804 terms"):
            specfun.eta_weighted_line(1e20, 0.78, EvalSettings())
        with pytest.raises(AccuracyError, match=r"t=1e\+300 needs 3\.989e\+149 terms"):
            specfun.eta_weighted_line(1e300, 0.78, EvalSettings())
        with pytest.raises(AccuracyError, match=r"1e\+300j\) needs 6\.081e\+299 terms"):
            specfun.zeta_vec(np.array([0.5 + 1e300j]))

    def test_reflected_point_counts_the_sum_at_one_minus_s(self):
        # the sum runs at 1 - s = 4 - 40i, which needs 31 terms; s = 2 needs 20
        with pytest.raises(AccuracyError, match=r"\(-3\+40j\).* 31 terms.*max_terms=30"):
            specfun.zeta_vec(np.array([2.0, -3 + 40j]), EvalSettings(max_terms=30))
        v, _ = specfun.zeta_vec(np.array([2.0]), EvalSettings(max_terms=30))
        assert abs(v[0] - math.pi**2 / 6) <= 1e-14


class TestWrapperEqualsKernel:
    """Each scalar API is its vector kernel at one point, bit for bit."""

    POINTS = (0.25 + 7.067j, -1.5 + 2.0j, 0.1 + 0.3j, 3.0 - 40.0j, -70.2 + 1.0j)

    def test_gamma(self):
        lg, rel = specfun._loggamma_vec(np.array(self.POINTS))
        for s, l, r in zip(self.POINTS, lg, rel):
            got = gamma_c(s)
            assert got.value == np.exp(l) and got.abs_err_est == abs(np.exp(l)) * r, s

    def test_hyp1f1(self):
        a = np.array([0.3 + 0.7j, -12.5 + 30.0j, 0.25 - 750.0j])
        vals, errs = specfun.hyp1f1_vec(a, 0.5, 0.0625 + 0.015625j)
        for x, v, e in zip(a, vals, errs):
            got = hyp1f1(x, 0.5, 0.0625 + 0.015625j)
            assert (got.value, got.abs_err_est) == (v, e), x

    def test_eta_completed(self):
        points = (0.3 + 7.0j, 0.5 + 14.0j, -2.5 + 10.0j, 2.0, 0.8 - 25.0j)
        vals, errs = specfun._eta_vec(np.array(points))
        for s, v, e in zip(points, vals, errs):
            got = eta_completed(s)
            assert (got.value, got.abs_err_est) == (v, e), s

    def test_f_z(self):
        for cfg in (make_config([1.0, 0.5, 0.25], [0.0, 1.0, 2.0], 0.5 + 0.25j),
                    make_config([1.0, -0.5, 0.25, 0.3], [0.0, 1.0, 2.0, -0.5], 0.3)):
            vals, errs = _fz_vec(np.array(self.POINTS), cfg)
            for s, v, e in zip(self.POINTS, vals, errs):
                got = f_z(s, cfg)
                assert (got.value, got.abs_err_est) == (v, e), s

    @pytest.mark.parametrize("wrapper, args", [
        (specfun.eta_line_vec, ()),
        (specfun.xi_line_vec, ()),
        (specfun.eta_weighted_line, (0.1,)),
    ])
    def test_line_wrappers_take_scalars(self, wrapper, args):
        # a scalar t gives 0-d arrays with the bits of the one-point batch
        for t in (3.0, -7.5, 600.0):
            v, e = wrapper(t, *args)
            bv, be = wrapper(np.array([t]), *args)
            assert isinstance(v, np.ndarray) and v.shape == () and e.shape == (), t
            assert v.tobytes() == bv[0].tobytes() and e.tobytes() == be[0].tobytes(), t

    def test_rho_real(self):
        ts = np.array([0.0, 5.1, -5.1, ZETA_ZEROS[0], 123.456, 800.0])
        vals, _ = specfun.eta_line_vec(ts)
        for t, v in zip(ts, vals):
            assert rho_real(float(t)) == v.real, t


class TestEta:
    def test_functional_equation_sample(self):
        for _ in range(40):
            s = complex(RNG.uniform(0.2, 0.8), RNG.uniform(-30, 30))
            if abs(s) < 1e-3 or abs(s - 1.0) < 1e-3:
                continue
            e1 = eta_completed(s).value
            e2 = eta_completed(1.0 - s).value
            assert abs(e1 - e2) <= 1e-9 * max(1.0, abs(e1))

    def test_value_at_two(self):
        assert abs(eta_completed(2.0).value - math.pi / 6.0) < 1e-13

    def test_first_zero(self):
        assert abs(eta_completed(complex(0.5, ZETA_ZEROS[0])).value) < 1e-6

    def test_poles(self):
        for s in (0.0, 1.0):
            with pytest.raises(PoleError):
                eta_completed(s)

    def test_underflow_raises(self):
        with pytest.raises(EvaluationError, match="1000"):
            eta_completed(0.5 + 1000j)

    @pytest.mark.parametrize("call, message", [
        (eta_completed, "eta_completed((1000+0j)): non-finite value (inf+nanj)"),
        (xi_c, "xi_c((1000+0j)): non-finite value (nan+nanj)"),
    ])
    def test_overflow_refused_without_a_warning(self, call, message):
        # Gamma(500) passes the float range: refused as a typed error that
        # prints Python complexes, with no RuntimeWarning before it
        with pytest.raises(EvaluationError, match=re.escape(message) + "$"):
            call(1000.0)

    def test_conjugate_symmetry(self):
        s = 0.7 + 9.3j
        assert abs(
            eta_completed(s.conjugate()).value - eta_completed(s).value.conjugate()
        ) < 1e-13 * abs(eta_completed(s).value)


def _signed(re, im):
    """Complex array with exactly these real and imaginary parts, signed zeros kept."""
    s = np.empty(np.broadcast(re, im).shape, dtype=complex)
    s.real, s.imag = re, im
    return s


class TestMirroredPoints:
    """_eta_em evaluates zeta and log-Gamma once per (Re s, |Im s|) pair of a
    mixed-sign batch and conjugates for the other sign; that keeps the bits
    only because both kernels are conjugate-symmetric bit for bit."""

    # 3600 points on each branch of zeta_vec and _loggamma_vec
    rng = np.random.default_rng(36)
    BRANCHES = {
        "line below the crossover": _signed(0.5, rng.uniform(0.0, specfun.RS_CROSSOVER, 3600)),
        "strip": _signed(rng.uniform(-0.5, 1.5, 3600), rng.uniform(-60.0, 60.0, 3600)),
        "reflection": (lambda r, a: r * np.exp(1j * a))(
            rng.uniform(0.5, 12.0, 3600), rng.uniform(0.5 * np.pi, 1.5 * np.pi, 3600)),
        "near zero": (lambda r, a: r * np.exp(1j * a))(
            rng.uniform(0.0, 0.5, 3600), rng.uniform(-np.pi, np.pi, 3600)),
        "right of one": _signed(rng.uniform(1.0, 30.0, 3600), rng.uniform(-200.0, 200.0, 3600)),
    }

    @pytest.mark.parametrize("kernel", ["zeta_vec", "_loggamma_vec"])
    @pytest.mark.parametrize("branch", BRANCHES)
    def test_kernels_are_conjugate_symmetric_bit_for_bit(self, kernel, branch):
        s = self.BRANCHES[branch]
        if branch == "reflection":
            assert (s.real < 0.0).all() and (np.abs(s) >= 0.5).all()
        fn = getattr(specfun, kernel)
        vals, errs = fn(s)
        m_vals, m_errs = fn(s.conjugate())
        assert m_vals.conjugate().tobytes() == vals.tobytes()
        assert m_errs.tobytes() == errs.tobytes()

    def test_mixed_batch_equals_each_point_alone(self):
        # mirrored pairs in either order, repeats, tau = 0, Im s = -0.0, points
        # off the line, past the crossover and on the reflected real axis, each
        # with its own log-weight
        im = np.array([3.5, -3.5, 0.0, -0.0, 3.5, -12.25, 12.25, -12.25, 40.0, -7.0,
                       150.0, -150.0, 3.0, -3.0, 9.0, -0.0, 0.0])
        re = np.array([0.5] * 12 + [0.7, 0.7, 0.3, -2.5, -2.5])
        s = _signed(re, im)
        lw = 0.3 * im + 0.01 * np.arange(im.size)
        vals, errs = specfun._eta_vec(s, EvalSettings(), lw)
        for i in range(s.size):
            v, e = specfun._eta_vec(s[i:i + 1], EvalSettings(), lw[i:i + 1])
            assert v.tobytes() == vals[i:i + 1].tobytes(), s[i]
            assert e.tobytes() == errs[i:i + 1].tobytes(), s[i]
        taus = im[:12]
        vals, errs = specfun.eta_weighted_line(taus, 0.6)
        for i, tau in enumerate(taus):
            v, e = specfun.eta_weighted_line(taus[i:i + 1], 0.6)
            assert v.tobytes() == vals[i:i + 1].tobytes(), tau
            assert e.tobytes() == errs[i:i + 1].tobytes(), tau

    def test_refusal_names_the_first_point_with_its_sign(self):
        # 0.5 - 40i needs 30 terms and comes first; 0.5 + 19i needs 21
        s = np.array([0.5 - 40j, 0.5 + 19j, 0.5 + 40j])
        with pytest.raises(AccuracyError, match=r"s=\(0\.5-40j\) needs 30 terms"):
            specfun._eta_vec(s, EvalSettings(max_terms=20))
        with pytest.raises(AccuracyError, match=r"s=\(0\.5\+40j\) needs 30 terms"):
            specfun._eta_vec(s.conjugate(), EvalSettings(max_terms=20))


class TestXiFamily:
    def test_removable_points(self):
        assert xi_c(0.0).value == 0.5
        assert xi_c(1.0).value == 0.5
        assert xi_c(1e-9).value == 0.5

    def test_half(self):
        got = xi_c(0.5)
        assert abs(got.value - XI_HALF) < 1e-12

    def test_big_xi_even_and_zero(self):
        assert abs(big_xi(3.7) - big_xi(-3.7)) <= 1e-12 * abs(big_xi(3.7))
        assert abs(big_xi(0.0) - XI_HALF) < 1e-12
        assert abs(big_xi(ZETA_ZEROS[0])) < 1e-6

    def test_rho_even_and_zero(self):
        assert abs(rho_real(5.1) - rho_real(-5.1)) <= 1e-12 * abs(rho_real(5.1))
        assert abs(rho_real(ZETA_ZEROS[0])) < 1e-6

    def test_conjugate_symmetry(self):
        s = 0.4 + 6.2j
        a = xi_c(s).value
        assert abs(xi_c(s.conjugate()).value - a.conjugate()) <= 1e-12 * abs(a)

    def test_definitional_identity(self):
        # Xi(t) = (1/2)(1/2 + it)(-1/2 + it) rho(t)
        t = 3.0
        s_plus = complex(0.5, t)
        lhs = big_xi(t)
        rhs = (0.5 * s_plus * (s_plus - 1.0) * rho_real(t)).real
        assert abs(lhs - rhs) < 1e-10
        # and xi(s) = (1/2) s (s-1) eta(s) off the line
        s = 0.3 + 2.2j
        assert abs(xi_c(s).value - 0.5 * s * (s - 1) * eta_completed(s).value) < 1e-12

    def test_xi_underflow_raises(self):
        with pytest.raises(EvaluationError, match="1000"):
            xi_c(0.5 + 1000j)

    @pytest.mark.parametrize("call, arg", [
        (xi_c, complex(0.5, math.inf)), (xi_c, math.nan),
        (big_xi, math.inf), (big_xi, math.nan),
        (rho_real, math.inf), (rho_real, math.nan),
    ])
    def test_non_finite_argument(self, call, arg):
        # refused at entry, as eta_completed and zeta_c refuse it
        with pytest.raises(EvaluationError, match="argument: non-finite"):
            call(arg)

    @pytest.mark.parametrize("t", [14.0, 50.0, 150.0])
    def test_line_path_is_xi_c(self, t):
        # one factor and one bound: the product's rounding is in both
        v, e = specfun.xi_line_vec(np.array([t]))
        got = xi_c(complex(0.5, t))
        assert v[0] == got.value.real and e[0] == got.abs_err_est

    def test_big_xi_underflow_raises(self):
        with pytest.raises(EvaluationError, match="1000"):
            big_xi(1000.0)

    def test_rho_underflow_raises(self):
        with pytest.raises(EvaluationError, match="1000"):
            rho_real(1000.0)

    def test_exponential_decay_bound(self):
        # |Xi(t)| e^(pi t/4) / t^6 stays below its t=20 value onward
        vals = [abs(big_xi(t)) * math.exp(math.pi * t / 4.0) / t**6 for t in (20, 30, 40, 50)]
        assert all(v <= vals[0] * (1 + 1e-9) for v in vals[1:])


class TestHyp1F1:
    def test_empty_series(self):
        got = hyp1f1(0.3 + 0.7j, 0.5, 0.0)
        assert got.value == 1.0 and got.abs_err_est == 0.0

    def test_equal_parameters_give_exp(self):
        got = hyp1f1(0.5, 0.5, 1.0)
        assert abs(got.value - math.e) < 1e-13

    def test_kummer_transformation_spec_point(self):
        a, b, w = 0.3 + 0.7j, 0.5, 0.2 - 0.4j
        lhs = hyp1f1(a, b, w).value
        rhs = cmath.exp(w) * hyp1f1(b - a, b, -w).value
        assert abs(lhs - rhs) < 1e-10

    def test_kummer_invariance_random(self):
        for _ in range(100):
            a = complex(*RNG.uniform(-5, 5, 2) * np.sqrt(0.5))
            w = complex(*RNG.uniform(-5, 5, 2) * np.sqrt(0.5))
            b = complex(RNG.uniform(0.3, 3.0), RNG.uniform(-1, 1))
            lhs = hyp1f1(a, b, w).value
            rhs = cmath.exp(w) * hyp1f1(b - a, b, -w).value
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), (a, b, w)

    def test_plain_sum_within_estimate_of_compensated_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = complex(*rng.uniform(-5, 5, 2) * np.sqrt(0.5))
            w = complex(*rng.uniform(-5, 5, 2) * np.sqrt(0.5))
            b = complex(rng.uniform(0.3, 3.0), rng.uniform(-1, 1))
            got = hyp1f1(a, b, w)
            assert abs(got.value - compensated_hyp1f1(a, b, w)) <= got.abs_err_est, (a, b, w)

    def test_frozen_table_and_error_honesty(self):
        for (a, b, w), ref in HYP1F1_TABLE.items():
            got = hyp1f1(a, b, w)
            assert abs(got.value - ref) <= got.abs_err_est + 4e-16 * abs(ref), (a, b, w)

    def test_polynomial_termination(self):
        # a a nonpositive integer truncates the series exactly
        got = hyp1f1(-3.0, 0.5, 2.5)
        brute = sum(
            math.prod(-3.0 + i for i in range(n)) * 2.5**n
            / (math.prod(0.5 + i for i in range(n)) * math.factorial(n))
            for n in range(4)
        )
        assert abs(got.value - brute) < 1e-13

    def test_parameter_error(self):
        for b in (0.0, -1.0, -6.0):
            with pytest.raises(ParameterError):
                hyp1f1(0.3, b, 0.1)

    def test_divergence_error(self):
        with pytest.raises(DivergenceError):
            hyp1f1(1.0, 0.5, 30.0, EvalSettings(max_terms=20))

    def test_equals_term_by_term_kernel_bit_for_bit(self):
        rng = np.random.default_rng(1515)
        used = set()
        for _ in range(40):
            n = int(rng.choice([1, 3, 14, 42, 250]))
            a_max = float(rng.choice([1.0, 30.0, 500.0]))
            a = rng.uniform(-a_max, a_max, n) + 1j * rng.uniform(-a_max, a_max, n)
            b = complex(rng.uniform(0.1, 3.0), rng.uniform(-1.0, 1.0))
            w = cmath.rect(float(rng.choice([1e-15, 1e-6, 0.1, 1.0, 10.0])) * rng.uniform(0.5, 1.0),
                           rng.uniform(-math.pi, math.pi))
            ref = _reference_hyp1f1_vec(a, b, w)
            got = specfun.hyp1f1_vec(a, b, w)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in ref[:2]], (a_max, b, w)
            used.update(ref[2].tolist())
        assert min(used) == 2 and max(used) > 100
        cases = (
            (np.array([-3.0, -3.0 + 0.5j, 0.25 - 40.0j]), 0.5, 2.5),  # polynomial termination
            (np.array([0.3 + 0.7j, 1e3]), 0.5, 0.0),  # w = 0: the empty series
            (np.asarray(0.25 - 51.5j), 0.5, 0.0625 + 0.015625j),  # 0-d
            ((np.linspace(-12.0, 3.0, 12) + 1j * np.linspace(0.5, 40.0, 12)).reshape(3, 4),
             1.5 - 0.5j, 0.0625 + 0.015625j),
        )
        for a, b, w in cases:
            got, ref = specfun.hyp1f1_vec(a, b, w), _reference_hyp1f1_vec(a, b, w)
            assert got[0].shape == got[1].shape == a.shape
            assert [x.tobytes() for x in got] == [x.tobytes() for x in ref[:2]], a

    def test_stops_at_max_terms_as_term_by_term_kernel(self):
        # a_last converges on the max_terms-th term exactly, a_over needs one
        # more; 21 ends inside a table of terms, 24 on a table's last row
        b, w = 1.5 - 0.5j, 2.0
        for a_last, a_over, n in ((-20.1 + 0.3j, -22.0 + 0.3j, 21), (-26.1 + 0.3j, -28.2 + 0.3j, 24)):
            assert _reference_hyp1f1_vec([a_last, a_over], b, w)[2].tolist() == [n, n + 1]
            settings = EvalSettings(max_terms=n)
            got = specfun.hyp1f1_vec([a_last], b, w, settings)
            ref = _reference_hyp1f1_vec([a_last], b, w, settings)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in ref[:2]], n
            messages = []
            for kernel in (specfun.hyp1f1_vec, _reference_hyp1f1_vec):
                with pytest.raises(DivergenceError) as err:
                    kernel([a_last, a_over], b, w, settings)
                messages.append(str(err.value))
            assert messages[0] == messages[1] == f"1F1 series: 1 points unconverged after {n} terms"

    @pytest.mark.parametrize("a, b, w, name", [
        (math.nan, 0.5, 0.1, "a"), (0.3, 0.5, math.nan, "w"), (0.3, math.inf, 0.1, "b"),
    ])
    def test_non_finite_parameter_raises_before_summing(self, a, b, w, name):
        with pytest.raises(EvaluationError, match=f"hyp1f1 parameter {name}"):
            hyp1f1(a, b, w)

    def test_non_finite_term_raises_in_first_table(self):
        # without the check the kernel summed all 10000 terms of each (0.3 s)
        # and then raised a misleading DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b, w, bad in (([0.3, 1e308], 0.5, 0.1, "1e+308"), ([0.3, math.nan], 0.5, 0.1, "nan"),
                                 ([0.3], 0.5, math.nan, "0.3"), ([0.3], math.inf, 0.1, "0.3")):
                with pytest.raises(EvaluationError, match=re.escape(f"a=({bad}+0j) by term 8") + "$"):
                    specfun.hyp1f1_vec(np.array(a), b, w)
            with pytest.raises(EvaluationError, match="by term 8$"):
                hyp1f1(1e308, 0.5, 0.1)

    def test_overflowing_term_refused_without_a_warning(self):
        # |w| = 1.4e150: the third term passes the float range, and numpy
        # warned before the finiteness check refused it
        with pytest.raises(EvaluationError, match=re.escape("a=(0.25+1j) by term 8") + "$"):
            hyp1f1(0.25 + 1j, 0.5, 1e150 * (1 + 1j))

    def test_any_shape(self):
        a = (np.linspace(-12.0, 3.0, 12) + 1j * np.linspace(0.5, 40.0, 12)).reshape(3, 4)
        vals, errs = specfun.hyp1f1_vec(a, 0.5, 0.0625 + 0.015625j)
        flat_vals, flat_errs = specfun.hyp1f1_vec(a.ravel(), 0.5, 0.0625 + 0.015625j)
        assert vals.shape == errs.shape == (3, 4)
        assert vals.tobytes() == flat_vals.tobytes()
        assert errs.tobytes() == flat_errs.tobytes()
