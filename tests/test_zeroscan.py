import math

import numpy as np
import pytest

from xishift import (
    ConfigError,
    DomainError,
    EvaluationError,
    MaxIterError,
    SymmetryError,
    ZeroBracket,
    ZeroHit,
    big_xi,
    bisect,
    make_config,
    region_grid,
    scan,
    scan_fz,
)
from xishift import zeroscan
from xishift.settings import grid_nodes
from xishift.shifts import f_z_critical, fz_line_vec
from xishift.specfun import RS_CROSSOVER

from ._oracles import ZETA_ZERO_COUNTS, ZETA_ZEROS, ZETA_ZEROS_480, ZETA_ZEROS_HIGH

HARDY = make_config([1.0], [0.0], 0.0)
EXHIBIT = make_config([1.0, 0.5, 0.25], [0.0, 1.0, 2.0], 0.5 + 0.25j)


class TestScan:
    def test_constant_has_no_brackets(self):
        assert scan(0.0, 10.0, 0.5, lambda t: 1.0) == []

    def test_linear_on_node(self):
        brs = scan(10.0, 20.0, 1.0, lambda t: t - 15.0)
        assert len(brs) == 1 and brs[0].is_on_node and brs[0].t_lo == 15.0

    def test_big_xi_brackets(self):
        brs = scan(10.0, 30.0, 0.05, big_xi)
        assert len(brs) == 3
        for br, ref in zip(brs, ZETA_ZEROS):
            assert br.t_lo <= ref <= br.t_hi

    @pytest.mark.parametrize("window", sorted(ZETA_ZERO_COUNTS), ids=lambda w: "%g-%g" % w)
    def test_big_xi_counts_match_nzeros(self, window):
        # |Xi| < 1e-13 at most nodes of [40, 60], and every bracket is still a sign change
        brs = scan(*window, 0.05, big_xi)
        assert len(brs) == ZETA_ZERO_COUNTS[window]
        assert not any(br.is_on_node for br in brs)

    def test_evaluator_failure_carries_t(self):
        def bad(t):
            if t > 12.0:
                raise DomainError("boom")
            return 1.0

        with pytest.raises(EvaluationError, match="12.5"):
            scan(10.0, 15.0, 2.5, bad)

    def test_nan_rejected(self):
        with pytest.raises(EvaluationError):
            scan(0.0, 1.0, 0.5, lambda t: float("nan"))

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            scan(0.0, 1.0, -0.1, lambda t: t)
        with pytest.raises(ConfigError):
            scan(1.0, 0.0, 0.1, lambda t: t)
        with pytest.raises(ConfigError, match="inf nodes"):  # the node count overflows
            scan(10.0, 20.0, 5e-324, lambda t: t)

    def test_grid_ends_at_hi(self):
        # a step that does not divide the span still ends the grid at hi
        assert list(grid_nodes(0.0, 1.03, 0.25)) == [0.0, 0.25, 0.5, 0.75, 1.0, 1.03]


class TestBracketsFromValues:
    ts = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    errs = np.full(5, 1e-16)

    def test_isolated_on_node_zero_is_a_width_zero_bracket(self):
        fs = np.array([1.0, 1e-20, -1.0, -2.0, 1.0])
        brs = zeroscan._brackets_from_values(self.ts, fs, self.errs)
        assert brs == [ZeroBracket(0.5, 0.5, 1e-20, 1e-20), ZeroBracket(1.5, 2.0, -2.0, 1.0)]

    def test_two_unresolved_nodes_in_a_row_raise_with_t(self):
        # |f| <= 4 err at 0.5 and at 1.0: not two zeros, an unresolved stretch
        fs = np.array([1.0, 1e-20, -3e-16, -2.0, 1.0])
        with pytest.raises(EvaluationError, match=r"t=0\.5\b"):
            zeroscan._brackets_from_values(self.ts, fs, self.errs)


class TestBisect:
    def test_linear(self):
        br = ZeroBracket(-1.0, 2.0, -1.0, 2.0)
        t, r, it = bisect(br, lambda t: t, 1e-10)
        assert abs(t) < 1e-10 and it > 20

    def test_cubic_flat_residual(self):
        br = ZeroBracket(-1.0, 2.0, -1.0, 8.0)
        t, r, it = bisect(br, lambda t: t**3, 1e-10)
        assert abs(t) < 1e-10 and r < 1e-29

    def test_on_node_short_circuit(self):
        br = ZeroBracket(3.0, 3.0, 0.0, 0.0)
        assert bisect(br, lambda t: t, 1e-8) == (3.0, 0.0, 0)

    def test_big_xi_first_zero(self):
        br = scan(14.0, 14.3, 0.05, big_xi)[0]
        t, r, it = bisect(br, big_xi, 1e-8)
        assert abs(t - ZETA_ZEROS[0]) < 2e-8

    def test_max_iterations(self):
        # a pure sign function never evaluates to zero, so the interval can
        # only shrink to adjacent floats, far wider than the absurd tolerance
        br = ZeroBracket(0.0, 1.0, -1.0, 1.0)
        with pytest.raises(MaxIterError):
            bisect(br, lambda t: 1.0 if t > 1.0 / 3.0 else -1.0, 1e-300)

    def test_one_call_per_step(self):
        # scalar f pays per call: bisect asks for one midpoint at a time
        calls = []

        def f(t):
            calls.append(t)
            return t - math.pi

        t, r, it = bisect(ZeroBracket(3.0, 4.0, 3.0 - math.pi, 4.0 - math.pi), f, 1e-10)
        assert it == 34 and len(calls) == it + 1

    def test_one_call_per_step_where_a_secant_is_not_exact(self):
        # on a line a secant lands on the root, and a bisection that looked
        # ahead along it would need no more calls; on sin it would
        calls = []

        def f(t):
            calls.append(t)
            return math.sin(t)

        t, r, it = bisect(ZeroBracket(3.0, 4.0, math.sin(3.0), math.sin(4.0)), f, 1e-10)
        assert abs(t - math.pi) < 1e-10 and it == 34 and len(calls) == it + 1
        assert calls[-1] == t and len(set(calls)) == len(calls)

    def test_bad_tol(self):
        with pytest.raises(ConfigError):
            bisect(ZeroBracket(0.0, 1.0, -1.0, 1.0), lambda t: t, 0.0)

    def test_tiny_values_bracket(self):
        # the product of the two values underflows to 0; their signs still differ
        br = ZeroBracket(0.0, 1.0, -1e-200, 1e-200)
        assert not br.is_on_node
        with pytest.raises(ConfigError):
            ZeroBracket(0.0, 1.0, 1e-200, 1e-200)


def _reference_bisect(bracket, f, tol):
    """Textbook scalar bisection, the loop the batch kernel must reproduce."""
    if bracket.is_on_node:
        return bracket.t_lo, abs(bracket.f_lo), 0
    lo, hi, f_lo = bracket.t_lo, bracket.t_hi, bracket.f_lo
    for it in range(1, 201):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid, 0.0, it
        if (fm < 0) == (f_lo < 0):
            lo, f_lo = mid, fm
        else:
            hi = mid
        if hi - lo <= tol:
            t = 0.5 * (lo + hi)
            return t, abs(f(t)), it
    raise MaxIterError("reference bisection did not converge")


def _tree_calls(brackets, f, tol):
    """Evaluator calls that bisecting brackets three tree levels per call takes.

    Each call covers the next three points that scalar bisection evaluates
    for every open bracket (a residual point is the midpoint one level
    below the closing step), but no tree level past step 200.
    """
    most = 0
    for br in brackets:
        n = 0

        def counted(t):
            nonlocal n
            n += 1
            return f(t)

        _, _, it = _reference_bisect(br, counted, tol)
        most = max(most, -(-n // 3) + (it == 200 and n == 201))
    return most


class TestBatchBisect:
    @staticmethod
    def f(t):
        # values near 1e-200: a product of two of them underflows
        return 1e-200 * (t - 2.0) * (t - 5.3) * (t - 7.1)

    def brackets(self):
        f = self.f
        return [
            ZeroBracket(1.0, 3.0, f(1.0), f(3.0)),  # first midpoint is an exact zero
            ZeroBracket(5.0, 5.0, f(5.0), f(5.0)),  # on-node
            ZeroBracket(5.25, 5.5, f(5.25), f(5.5)),
            ZeroBracket(6.0, 7.2, f(6.0), f(7.2)),  # wider, takes more steps
        ]

    def test_batch_equals_scalar_one_by_one(self):
        tol = 1e-9
        brs = self.brackets()
        batch = zeroscan._bisect_all(brs, self.f, tol)
        scalar = [ZeroHit(*bisect(br, self.f, tol)) for br in brs]
        reference = [ZeroHit(*_reference_bisect(br, self.f, tol)) for br in brs]
        assert batch == scalar == reference
        assert [h.iterations for h in batch][:2] == [1, 0]
        assert batch[0] == ZeroHit(2.0, 0.0, 1)

    def test_scan_fz_equals_scalar_bisection(self):
        tol = 1e-8
        rep = scan_fz(EXHIBIT, 0.0, 40.0, 0.02, tol)
        point = lambda t: f_z_critical(t, EXHIBIT)
        assert len(rep.zeros) >= 5
        assert rep.zeros == tuple(ZeroHit(*bisect(br, point, tol)) for br in rep.brackets)

    def test_refinement_is_batched(self, monkeypatch):
        calls = []

        def counted(ts, *args):
            calls.append(len(ts))
            return fz_line_vec(ts, *args)

        monkeypatch.setattr(zeroscan, "fz_line_vec", counted)
        rep = scan_fz(HARDY, 10.0, 100.0, 0.05, 1e-8)
        assert len(rep.zeros) == 29  # N(100) = 29, none below 14
        # 1 grid call; the path interpolated through a grid neighbour on the
        # first refinement call and through the nearest evaluated point on the
        # second close every bracket, where a tree of three levels per call
        # alone would take 8 calls for 23 steps
        assert len(calls) <= 3

    def test_refinement_counts_on_hardy_windows(self, monkeypatch):
        # eight 10-wide windows (the benchmark's Hardy scan shape): evaluator
        # calls and points after each grid call, pinned
        calls = []

        def counted(ts, *args):
            calls.append(len(ts))
            return fz_line_vec(ts, *args)

        monkeypatch.setattr(zeroscan, "fz_line_vec", counted)
        per_window = []
        for lo in (10.0, 120.0, 230.0, 340.0, 450.0, 560.0, 670.0, 780.0):
            calls.clear()
            scan_fz(HARDY, lo, lo + 10.0, 0.05, 1e-8)
            per_window.append(calls[1:])
        assert [len(c) for c in per_window] == [2, 2, 2, 2, 2, 3, 2, 3]
        assert sum(map(sum, per_window)) == 2047

    def test_reality_failure_names_t(self, monkeypatch):
        def skewed(ts, *args):
            re, im, err = fz_line_vec(ts, *args)
            return re, np.where(ts == 12.5, 1e-3, im), err

        monkeypatch.setattr(zeroscan, "fz_line_vec", skewed)
        with pytest.raises(SymmetryError, match=r"t=12\.5"):
            scan_fz(HARDY, 10.0, 30.0, 0.5, 1e-8)


class TestBisectionTree:
    """Each evaluator call covers at least three bisection steps of every open
    bracket, and the path to an estimated root; every result must still be
    the one-step loop's (_reference_bisect), in no more calls than the tree
    alone would take (_tree_calls)."""

    @staticmethod
    def check(brs, f, tol, grid=None):
        """A grid seed may cost one call more: a seeded first call takes the
        estimated path alone, which guarantees one step, not three."""
        calls = []

        def vec(ts):
            calls.append(len(ts))
            return f(np.asarray(ts))

        batch = zeroscan._bisect_all(brs, vec, tol, grid)
        assert batch == [ZeroHit(*_reference_bisect(br, f, tol)) for br in brs]
        assert len(calls) <= _tree_calls(brs, f, tol) + (grid is not None)
        return batch, calls

    @pytest.mark.parametrize("seed", range(8))
    def test_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        roots = np.sort(rng.uniform(0.0, 10.0, 8))
        roots[::2] = np.round(roots[::2] * 8.0) / 8.0  # dyadic: zeros on grid and tree nodes
        scale = 10.0 ** rng.uniform(-200.0, 0.0)  # products of values near 1e-200 underflow

        def f(t):
            v = scale
            for r in roots:
                v = v * (t - r)
            return v

        ts = np.arange(0.0, 10.5, float(rng.choice([0.125, 0.25, 0.5, 1.0, 2.0, 0.3])))
        fs = f(ts)
        brs = [ZeroBracket(a, b, fa, fb) for a, b, fa, fb in zip(ts, ts[1:], fs, fs[1:])
               if np.sign(fa) * np.sign(fb) < 0]
        brs += [ZeroBracket(a, a, fa, fa) for a, fa in zip(ts, fs) if fa == 0.0]
        rng.shuffle(brs)
        self.check(brs, f, float(rng.choice([1e-3, 1e-8, 1e-12, 2.0 ** -20])))

    @staticmethod
    def noisy_signs(seed):
        """(grid, f, tol): within delta of a root the sign of f is a hash of
        the bits of t, so that every root estimate from values there is noise."""
        rng = np.random.default_rng(seed)
        roots = np.sort(rng.uniform(0.0, 10.0, 6))
        delta = 10.0 ** rng.uniform(-9.0, -2.0)

        def f(t):
            t = np.asarray(t, dtype=float)
            v = np.prod(t[..., None] - roots, axis=-1)
            bits = t.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)  # wraps mod 2^64
            noise = np.where(bits >> np.uint64(63), delta, -delta)
            return np.where(np.min(np.abs(t[..., None] - roots), axis=-1) < delta, noise, v)[()]

        ts = np.arange(0.0, 10.5, float(rng.choice([0.125, 0.25, 0.3])))
        return ts, f, float(rng.choice([1e-12, 1e-10, 2.0 ** -40]))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_signs_near_each_root(self, seed):
        # the steps must not change, and no bracket may take more calls than
        # the tree alone
        ts, f, tol = self.noisy_signs(seed)
        fs = f(ts)
        brs = [ZeroBracket(a, b, fa, fb) for a, b, fa, fb in zip(ts, ts[1:], fs, fs[1:])
               if np.sign(fa) * np.sign(fb) < 0]
        assert len(brs) >= 4
        self.check(brs, f, tol)

    @pytest.mark.parametrize("seed", range(16))
    def test_random_signs_near_each_root_seeded(self, seed):
        # noise at the nodes next to a bracket makes a noisy seed as well
        ts, f, tol = self.noisy_signs(seed)
        fs = f(ts)
        brs = zeroscan._brackets_from_values(ts, fs)
        assert len(brs) >= 4
        self.check(brs, f, tol, (ts, fs))

    def test_exact_zeros_on_every_level(self):
        # bracket k is [16k, 16k + 8] with its root at 16k + offset; from 8 wide,
        # offset 4 is the level-1 node, 2 and 6 level 2, odd ones level 3,
        # odd halves level 4 (the next call) and odd quarters level 5; the
        # two irrational roots close on width 2^-28 after 31 steps, at level 1
        offsets = np.array([4.0, 2.0, 6.0, 1.0, 3.0, 5.0, 7.0, 0.5, 7.5, 2.25,
                            math.sqrt(2.0), math.pi + 3.0, 3.0])
        signs = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])

        def f(t):
            k = np.floor(t / 16.0).astype(int)
            return signs[k] * (t - 16.0 * k - offsets[k])

        brs = [ZeroBracket(16.0 * k, 16.0 * k + 8.0, -signs[k] * off, signs[k] * (8.0 - off))
               for k, off in enumerate(offsets[:-1])]
        brs.insert(4, ZeroBracket(195.0, 195.0, 0.0, 0.0))  # on-node, root of the last piece
        batch, calls = self.check(brs, f, 2.0 ** -28)
        assert [h.iterations for h in batch] == [1, 2, 2, 3, 0, 3, 3, 3, 4, 4, 5, 31, 31]
        assert [h.residual == 0.0 for h in batch] == [True] * 11 + [False] * 2
        # every piece is linear, so each regula falsi path runs to its root;
        # the tree alone takes 11 calls, for the 31 steps of the last two
        assert len(calls) == 1 and _tree_calls(brs, f, 2.0 ** -28) == 11

    @pytest.mark.parametrize("steps", range(1, 8))
    def test_tolerance_closes_at_each_level(self, steps):
        # bracket k is [2k, 2k + 1], whose width 2^-n after n steps is exact:
        # tol = 2^-steps closes every bracket after exactly `steps` steps
        fracs = np.array([math.sqrt(2.0) - 1.0, math.pi - 3.0, math.e - 2.0, 0.5 ** 0.5])
        signs = np.array([1.0, -1.0, -1.0, 1.0])

        def f(t):
            k = np.floor(t / 2.0).astype(int)
            return signs[k] * (t - 2.0 * k - fracs[k])

        brs = [ZeroBracket(2.0 * k, 2.0 * k + 1.0, -signs[k] * fr, signs[k] * (1.0 - fr))
               for k, fr in enumerate(fracs)]
        brs.append(ZeroBracket(3.0, 3.0, 0.0, 0.0))  # on-node: (3, 0, 0), never evaluated
        batch, calls = self.check(brs, f, 2.0 ** -steps)
        assert [h.iterations for h in batch] == [steps] * len(fracs) + [0]
        # linear pieces: each regula falsi path ends on the residual point.
        # With the tree alone, a bracket closed at level 1 or 2 of a call
        # reads its residual one level down; one closed at level 3 waits
        assert len(calls) == 1 and _tree_calls(brs, f, 2.0 ** -steps) == steps // 3 + 1

    def test_step_function_raises_after_exactly_200_steps(self):
        br = ZeroBracket(0.0, 1.0, -1.0, 1.0)
        seen, calls = [], []

        def counted(ts):
            seen.extend(ts)
            calls.append(len(ts))
            return np.where(ts > 0.0, 1.0, -1.0)

        # the bracket is [0, 2^-n] after n steps: 2^-200 takes exactly 200
        assert zeroscan._bisect_all([br], counted, 2.0 ** -200) == [ZeroHit(2.0 ** -201, 1.0, 200)]
        step = lambda t: 1.0 if t > 0.0 else -1.0
        assert _reference_bisect(br, step, 2.0 ** -200) == (2.0 ** -201, 1.0, 200)
        # no interpolation helps here, so every call takes the tree's three
        # steps, the 67th two; the residual point of step 200 takes a 68th
        assert len(calls) == _tree_calls([br], step, 2.0 ** -200) == 68
        seen.clear()
        calls.clear()
        with pytest.raises(MaxIterError):
            zeroscan._bisect_all([br], counted, 2.0 ** -201)
        assert min(seen) == 2.0 ** -200  # no point of a 201st step was evaluated
        assert len(calls) == 67
        with pytest.raises(MaxIterError):
            _reference_bisect(br, step, 2.0 ** -201)


class TestGridSeed:
    """Each proper grid bracket [t_i, t_i+1] starts from whichever of nodes
    i-1 and i+2 has the smaller |f|.  The seed moves only the first call's
    root estimate, so every result is still the one-step loop's."""

    @staticmethod
    def run(monkeypatch, ts, f, tol):
        """(brackets, evaluator call sizes, first) for the brackets of f on the
        grid ts; first maps each bracket's (t_lo, t_hi) to the near and the
        estimate of its first call."""
        first = {}
        estimate = zeroscan._root_estimate

        def recorded(lo, hi, f_lo, f_hi, near):
            r = estimate(lo, hi, f_lo, f_hi, near)
            first.setdefault((lo, hi), (near, r))
            return r

        monkeypatch.setattr(zeroscan, "_root_estimate", recorded)
        fs = f(ts)
        brs = zeroscan._brackets_from_values(ts, fs)
        _, calls = TestBisectionTree.check(brs, f, tol, (ts, fs))
        return brs, calls, first

    @staticmethod
    def secant(br):
        return br.t_lo + (br.t_hi - br.t_lo) * (br.f_lo / (br.f_lo - br.f_hi))

    def test_brackets_at_the_grid_ends_have_one_neighbour(self, monkeypatch):
        f = lambda t: (t - 0.3) * (t - 1.6) * (t - 2.7)
        ts = np.arange(4.0)
        brs, _, first = self.run(monkeypatch, ts, f, 1e-10)
        assert [(br.t_lo, br.t_hi) for br in brs] == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        # only node 2, both (|f(3)| < |f(0)|), only node 1
        assert [first[br.t_lo, br.t_hi][0] for br in brs] == [
            (2.0, f(2.0)), (3.0, f(3.0)), (1.0, f(1.0))]

    def test_two_node_grid_has_no_seed(self, monkeypatch):
        f = lambda t: t - 1.0 / 3.0
        brs, calls, first = self.run(monkeypatch, np.array([0.0, 1.0]), f, 1e-10)
        near, r = first[0.0, 1.0]
        # unseeded: regula falsi with the tree, no call beyond the tree's count
        assert near is None and r == self.secant(brs[0])
        assert len(calls) <= _tree_calls(brs, f, 1e-10)

    def test_neighbour_on_a_node_zero(self, monkeypatch):
        # nodes 1 and 4 are zeros, and both neighbour the bracket [2, 3]:
        # interpolation through a zero puts the root on it, outside
        f = lambda t: (t - 1.0) * (t - 2.5) * (t - 4.0)
        brs, _, first = self.run(monkeypatch, np.arange(6.0), f, 1e-10)
        assert [br.is_on_node for br in brs] == [True, False, True]
        near, r = first[2.0, 3.0]
        assert near == (1.0, 0.0) and r == self.secant(brs[1])

    def test_neighbour_value_equal_to_an_end_value(self, monkeypatch):
        # f(0) == f(2) exactly: the interpolation divides by zero
        f = lambda t: (t - 1.0) ** 2 - 0.5625
        brs, _, first = self.run(monkeypatch, np.arange(3.0), f, 1e-10)
        assert len(brs) == 2
        for br, c in zip(brs, (2.0, 0.0)):
            near, r = first[br.t_lo, br.t_hi]
            assert near == (c, 0.4375) and r == self.secant(br)

    def test_estimate_outside_the_bracket_falls_back_to_the_secant(self, monkeypatch):
        # f(0) lies between f(1) and f(2) in value, so the inverse parabola
        # through the three puts the root left of node 1
        f = lambda t: 1.45 * t * t - 2.35 * t - 0.1
        brs, _, first = self.run(monkeypatch, np.arange(3.0), f, 1e-10)
        assert [(br.t_lo, br.t_hi) for br in brs] == [(1.0, 2.0)]
        near, r = first[1.0, 2.0]
        assert near == (0.0, f(0.0)) and len({near[1], brs[0].f_lo, brs[0].f_hi}) == 3
        assert r == self.secant(brs[0])

    def test_seeded_first_call_evaluates_the_path_alone(self, monkeypatch):
        # on a line the interpolation is exact, so the path is the walk: the
        # one call holds the steps and the residual point, no tree point
        f = lambda t: t - 1.3
        brs, calls, first = self.run(monkeypatch, np.arange(4.0), f, 1e-10)
        near, r = first[1.0, 2.0]
        assert near == (0.0, -1.3) and abs(r - 1.3) < 1e-15
        _, _, it = _reference_bisect(brs[0], f, 1e-10)
        assert calls == [it + 1]


class TestScanFz:
    def test_hardy_recovers_zeta_zeros(self):
        rep = scan_fz(HARDY, 10.0, 30.0, 0.05, 1e-8)
        assert [round(h.t, 6) for h in rep.zeros] == [
            round(r, 6) for r in ZETA_ZEROS
        ]
        for h, ref in zip(rep.zeros, ZETA_ZEROS):
            assert abs(h.t - ref) < 1e-6

    def test_worker_count_immaterial(self):
        # the scan has no worker count: three reruns give one report
        reps = [scan_fz(HARDY, 10.0, 30.0, 0.05, 1e-8) for _ in range(3)]
        # repr is exact for every float, -0.0 included, and covers f_lo / f_hi
        assert len({repr(r) for r in reps}) == 1

    def test_exhibit_config(self):
        rep = scan_fz(EXHIBIT, 0.0, 40.0, 0.02, 1e-8)
        assert len(rep.brackets) >= 5
        # dense re-evaluation at step/10: exactly one sign change per bracket
        for br in rep.brackets:
            if br.is_on_node:
                continue
            ts = np.linspace(br.t_lo, br.t_hi, 11)
            re, _, _ = fz_line_vec(ts, EXHIBIT)
            assert int(np.sum(re[:-1] * re[1:] < 0)) == 1, br

    def test_soundness_of_reported_zeros(self):
        tol = 1e-8
        rep = scan_fz(HARDY, 10.0, 30.0, 0.05, tol)
        for hit in rep.zeros:
            lo = fz_line_vec(np.array([hit.t - 2 * tol]), HARDY)[0][0]
            hi = fz_line_vec(np.array([hit.t + 2 * tol]), HARDY)[0][0]
            assert (lo < 0) != (hi < 0) or max(abs(lo), abs(hi)) < 1e-10

    def test_completeness_at_quarter_step(self):
        # a subinterval reported empty stays empty at step/4
        rep = scan_fz(HARDY, 15.0, 20.0, 0.05, 1e-8)
        assert rep.brackets == ()
        rep4 = scan_fz(HARDY, 15.0, 20.0, 0.0125, 1e-8)
        assert rep4.brackets == ()

    def test_digest_tracks_inputs(self):
        a = scan_fz(HARDY, 10.0, 12.0, 0.5, 1e-6)
        b = scan_fz(HARDY, 10.0, 12.0, 0.5, 1e-7)
        assert a.config_digest != b.config_digest
        c = scan_fz(HARDY, 10.0, 12.0, 0.5, 1e-6)
        assert a.config_digest == c.config_digest

    def test_report_fields(self):
        rep = scan_fz(HARDY, 14.0, 14.3, 0.05, 1e-8)
        assert rep.grid_step == 0.05 and rep.t_range == (14.0, 14.3)
        assert len(rep.zeros) == len(rep.brackets) == 1
        z = rep.zeros[0]
        assert rep.brackets[0].t_lo <= z.t <= rep.brackets[0].t_hi
        assert z.residual == abs(fz_line_vec(np.array([z.t]), HARDY)[0][0])

    def test_old_worker_count_is_type_error(self):
        # settings is keyword-only, so a worker count left in its place fails
        with pytest.raises(TypeError):
            scan_fz(HARDY, 14.0, 14.3, 0.05, 1e-8, 4)

    def test_invalid_tol_without_brackets(self):
        with pytest.raises(ConfigError):
            scan_fz(HARDY, 15.0, 20.0, 0.05, 0.0)

    def test_tiny_values_near_480(self):
        # |F_z| ~ 1e-164 here, so products of neighbouring node values underflow
        rep = scan_fz(HARDY, 480.0, 490.0, 0.05, 1e-8)
        assert len(rep.zeros) == len(ZETA_ZEROS_480)
        for hit, ref in zip(rep.zeros, ZETA_ZEROS_480):
            assert abs(hit.t - ref) < 1e-6

    def test_hardy_to_860_across_the_crossover(self):
        # 537 = N(860); above RS_CROSSOVER the Z kernel gives the values
        rep = scan_fz(HARDY, 0.0, 860.0, 0.05, 1e-9)
        assert len(rep.zeros) == 537
        high = [hit.t for hit in rep.zeros if hit.t >= RS_CROSSOVER]
        assert len(high) == len(ZETA_ZEROS_HIGH)
        assert max(abs(t - ref) for t, ref in zip(high, ZETA_ZEROS_HIGH)) <= 1e-8

    def test_underflow_raises_with_t(self):
        # past t ~ 905, F_z and its error bound underflow to 0 at every node
        with pytest.raises(EvaluationError, match=r"t=1000\.0"):
            scan_fz(HARDY, 1000.0, 1010.0, 0.05, 1e-8)


class TestNonFiniteInput:
    @pytest.mark.parametrize("t_lo, t_hi, step", [
        (0.0, 1.0, math.nan), (0.0, math.inf, 0.1), (-math.inf, 1.0, 0.1), (math.nan, 1.0, 0.1),
    ])
    def test_grid(self, t_lo, t_hi, step):
        with pytest.raises(ConfigError, match="finite"):
            scan(t_lo, t_hi, step, lambda t: t)
        with pytest.raises(ConfigError, match="finite"):
            scan_fz(HARDY, t_lo, t_hi, step, 1e-8)

    def test_nan_tol(self):
        with pytest.raises(ConfigError, match="tol"):
            bisect(ZeroBracket(0.0, 1.0, -1.0, 1.0), lambda t: t - 0.3, math.nan)
        with pytest.raises(ConfigError, match="tol"):
            scan_fz(HARDY, 14.0, 14.3, 0.05, math.nan)  # one bracket, at 14.13

    @pytest.mark.parametrize("bounds, step", [
        ((-1.0, 1.0, -1.0, 1.0), math.nan),
        ((-1.0, math.inf, -1.0, 1.0), 0.25),
        ((-1.0, 1.0, math.nan, 1.0), 0.25),
    ])
    def test_region_grid(self, bounds, step):
        with pytest.raises(ConfigError, match="finite"):
            region_grid(*bounds, step)
