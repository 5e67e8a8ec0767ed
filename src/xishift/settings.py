"""Evaluation settings, the value-plus-error-bound result type and the shared numeric rules."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, EvaluationError, SymmetryError

# the one underflow floor, for scalar results and scan nodes alike (underflowed)
UNDERFLOW_FLOOR = 5e-300
EM_MIN_TERMS = 20  # the shortest Euler-Maclaurin sum (specfun.em_length): the least max_terms
# the most nodes grid_nodes builds: the evaluators hold ~1 kB per node, so more needs > 10 GB
MAX_GRID_NODES = 10_000_000


@dataclass(frozen=True)
class EvalSettings:
    """The two knobs callers set on every series and quadrature.

    max_terms    : hard cap on series length; every series kernel refuses more
                   itself.  At least EM_MIN_TERMS, the shortest Euler-Maclaurin
                   direct sum, so that zeta fits the budget somewhere
    quad_abs_tol : absolute tolerance for quadrature and theta tail bounds
    """

    max_terms: int = 10_000
    quad_abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_terms < EM_MIN_TERMS:
            raise ConfigError(f"max_terms must be >= {EM_MIN_TERMS} (the Euler-Maclaurin floor), "
                              f"got {self.max_terms}")
        if not self.quad_abs_tol > 0:
            raise ConfigError(f"quad_abs_tol must be positive, got {self.quad_abs_tol}")


DEFAULT_SETTINGS = EvalSettings()


class ValueWithError(NamedTuple):
    """A computed complex value together with an upper estimate of its error."""

    value: complex
    abs_err_est: float


def require_finite(value: complex, context: str) -> complex:
    """No NaN or infinity may escape an operation without an error."""
    if not (cmath.isfinite(value)):
        raise EvaluationError(f"{context}: non-finite value {value!r}")
    return value


def grid_nodes(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... and hi: the one grid of eval, scan and both region axes."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"grid needs finite bounds and step, got [{lo}, {hi}] step {step}")
    if step <= 0:
        raise ConfigError(f"step must be positive, got {step}")
    if not lo < hi:
        raise ConfigError(f"grid needs lo < hi, got [{lo}, {hi}]")
    span = (hi - lo) / step  # inf when the quotient overflows
    if span + 1.0 > MAX_GRID_NODES:
        raise ConfigError(f"grid [{lo}, {hi}] step {step} has {span + 1.0:.4g} nodes, "
                          f"more than {MAX_GRID_NODES}")
    n = int(math.floor(span + 1e-9)) + 1
    nodes = lo + step * np.arange(n)
    if nodes[-1] < hi - 1e-9 * step:
        nodes = np.append(nodes, hi)
    return nodes


def underflowed(values, errs) -> np.ndarray:
    """Where |value| and 4*err both fell below UNDERFLOW_FLOOR: there the value
    has underflowed and says nothing about the sign or size of the function."""
    return (np.abs(values) <= UNDERFLOW_FLOOR) & (4.0 * np.asarray(errs) < UNDERFLOW_FLOOR)


def reality_bound(re, im):
    """1e-9 (1 + |re + i im|): the largest imaginary residue a real result may carry."""
    return 1e-9 * (1.0 + np.hypot(re, im))


def require_real(re, im, name: Callable[[int], str]) -> None:
    """SymmetryError at the point whose imaginary residue most exceeds its
    reality_bound; name(i) names point i in the message."""
    bound = reality_bound(re, im)
    if (np.abs(im) > bound).any():
        i = int(np.argmax(np.abs(im) - bound))
        raise SymmetryError(f"{name(i)}: imaginary residue {np.ravel(im)[i]:.3e} "
                            f"exceeds {np.ravel(bound)[i]:.3e}")


def checked_value(value: complex, err: float, context: str) -> ValueWithError:
    """A scalar result that is finite and not lost to underflow; context names
    the point in the EvaluationError raised otherwise."""
    value = complex(value)  # a numpy scalar would print as np.complex128(...)
    require_finite(value, context)
    if underflowed(value, err):
        raise EvaluationError(f"{context}: value and error bound underflowed "
                              f"to below {UNDERFLOW_FLOOR:g}")
    return ValueWithError(value, float(err))
