"""The scalar-entry contract: every public scalar entry returns a finite value
or raises a typed XishiftError, with no RuntimeWarning and no bare builtin
exception, for any finite argument up to 1e300 in size and any order or
moment index up to 2000; a value returned is 0, within 4 times its error
bound of 0, or at least sys.float_info.min.  The draws are derandomized by
the suite's hypothesis profile (conftest.py)."""

import cmath
import math
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xishift import (
    ValueWithError,
    XishiftError,
    eta_completed,
    f_z,
    f_z_critical,
    gamma_c,
    hyp1f1,
    make_config,
    moment_closed_form,
    mu,
    nabla,
    psi1_limit_value,
    xi_c,
    zeta_c,
)
from xishift.region import SQUARE_HALF_WIDTH

BIG = 1e300
C = SQUARE_HALF_WIDTH

# moderate sizes, where the kernels run past their cheap refusals, and the whole range
reals = st.one_of(st.floats(-2000.0, 2000.0), st.floats(-BIG, BIG))
complexes = st.builds(complex, reals, reals)
orders = st.integers(0, 2000)
# z anywhere in the admissible region: the central square or a far corner
inside = st.one_of(
    st.builds(complex, st.floats(-0.99 * C, 0.99 * C), st.floats(-0.99 * C, 0.99 * C)),
    st.builds(complex, st.floats(1.01 * C, BIG), st.floats(-BIG, -1.01 * C)),
    st.builds(complex, st.floats(-BIG, -1.01 * C), st.floats(1.01 * C, BIG)),
)
nonzero = reals.filter(lambda c: c != 0.0)
configs = st.lists(st.tuples(nonzero, reals), min_size=1, max_size=3,
                   unique_by=lambda term: term[1]).flatmap(
    lambda terms: st.builds(lambda z: make_config([c for c, _ in terms],
                                                  [lam for _, lam in terms], z), inside))


def _holds(call) -> None:
    """call() returns a finite value or raises a typed error; a warning is an
    error.  A value returned is exactly 0, within 4 times its error bound of
    0, or at least the normal floor: nothing underflows silently."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except XishiftError:
            return
    value, err = result if isinstance(result, ValueWithError) else (result, 0.0)
    assert cmath.isfinite(value) and math.isfinite(err), result
    assert value == 0 or abs(value) <= 4.0 * err or abs(value) >= sys.float_info.min, result


CONTRACT = settings(max_examples=40, deadline=None)


@CONTRACT
@given(complexes)
@pytest.mark.parametrize("entry", [gamma_c, zeta_c, eta_completed, xi_c])
def test_one_point_entries(entry, s):
    _holds(lambda: entry(s))


@CONTRACT
@given(complexes, complexes, complexes)
def test_hyp1f1(a, b, w):
    _holds(lambda: hyp1f1(a, b, w))


@CONTRACT
@given(complexes, complexes, complexes)
@pytest.mark.parametrize("entry", [mu, nabla])
def test_transform_kernels(entry, x, z, s):
    _holds(lambda: entry(x, z, s))


@CONTRACT
@given(st.data(), complexes)
def test_f_z(data, s):
    # the config is drawn inside the check: a config refused on construction
    # is a typed error too
    _holds(lambda: f_z(s, data.draw(configs)))


@CONTRACT
@given(st.data(), reals)
def test_f_z_critical(data, t):
    _holds(lambda: f_z_critical(t, data.draw(configs)))


@CONTRACT
@given(complexes, reals, orders)
def test_psi1_limit_value(z, lam, order):
    _holds(lambda: psi1_limit_value(z, lam, order))


@CONTRACT
@given(st.data(), orders)
def test_moment_closed_form(data, m):
    _holds(lambda: moment_closed_form(m, data.draw(configs)))
