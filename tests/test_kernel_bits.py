"""Frozen bits of the theta kernel: one SHA-256 over a seeded sample.

The sample covers the public theta sums and residuals, psi1's base jet on
its direct, near-axis and mirrored routes, the near-axis combination, and
complex x with z = +-0 +-0i.  Each case hashes the raw float bits of its
value, terms used and error estimate, or the type and message of the error
it raises.  A speedup that promises identical results must leave the digest
as it is.
"""

import hashlib
import math

import numpy as np

from xishift import (
    EvalSettings,
    general_theta_residual,
    jacobi_residual,
    psi_at_axis_combination,
    psi_xz_transform_residual,
    series_side,
    theta_series,
)
from xishift.errors import XishiftError
from xishift.theta import _psi1_base_jet

DIGEST = "7532f1139c66d40d9b2b7784fc818f1f401fb1c17f56b5b28d5f8a80c4abc7aa"

SETTINGS = (
    EvalSettings(),
    EvalSettings(quad_abs_tol=1e-15),
    EvalSettings(quad_abs_tol=1e-3),
    EvalSettings(max_terms=20),
)
SIGNED_ZEROS = (complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))


def _encode(result) -> bytes:
    """The raw bits of a float, complex, jet or result record."""
    if isinstance(result, (float, complex, np.ndarray)):
        return np.asarray(result, dtype=complex).tobytes()
    parts = [np.asarray(result.value, dtype=complex).tobytes()]
    if hasattr(result, "terms_used"):
        parts.append(str(int(result.terms_used)).encode())
    parts.append(np.asarray(result.abs_err_est, dtype=float).tobytes())
    return b"|".join(parts)


def _cases():
    """(label, thunk) pairs; the draws do not depend on any result."""
    rng = np.random.default_rng(20261020)

    def cplx(lo, hi):
        return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))

    def positive_x():
        return complex(math.exp(rng.uniform(-3.0, 1.5)), rng.uniform(-2.0, 2.0))

    def inside_z():
        return cplx(-0.8, 0.8)

    for i in range(300):
        x = positive_x() if i % 5 else complex(math.exp(rng.uniform(-3.0, 1.5)), 0.0)
        z = cplx(-2.5, 2.5) if i % 7 else 0j
        s = SETTINGS[i % len(SETTINGS)]
        yield f"theta {x!r} {z!r} {i % 4}", lambda x=x, z=z, s=s: theta_series(x, z, s)
    for i in range(80):
        x = positive_x() if i % 4 else complex(math.exp(rng.uniform(-3.0, 1.5)), 0.0)
        z = SIGNED_ZEROS[i % 4]
        s = SETTINGS[(i // 4) % len(SETTINGS)]
        yield f"zero-z {x!r} {z!r}", lambda x=x, z=z, s=s: theta_series(x, z, s)
    for i in range(100):
        a = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.6, 0.6))
        z = cplx(-1.5, 1.5)
        s = SETTINGS[i % 3]
        yield f"side {a!r} {z!r}", lambda a=a, z=z, s=s: series_side(a, z, s)
    for i in range(60):
        x = math.exp(rng.uniform(-3.0, 3.0))
        yield f"jacobi {x!r}", lambda x=x: jacobi_residual(x)
    for i in range(60):
        a = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.6, 0.6))
        z = cplx(-1.5, 1.5)
        yield f"general {a!r} {z!r}", lambda a=a, z=z: general_theta_residual(a, z)
    for i in range(60):
        x, z = positive_x(), cplx(-1.5, 1.5)
        yield f"xz {x!r} {z!r}", lambda x=x, z=z: psi_xz_transform_residual(x, z)
    routes = (("direct", -0.7, 0.7), ("near-axis", math.pi / 4 - 0.05, math.pi / 4 - 1e-4),
              ("mirrored", -math.pi / 4 + 1e-4, -math.pi / 4 + 0.05))
    for route, lo, hi in routes:
        for i in range(25):
            alpha, z = rng.uniform(lo, hi), inside_z()
            s = SETTINGS[i % 3]
            yield (f"jet {route} {alpha!r} {z!r}",
                   lambda alpha=alpha, z=z, s=s: _psi1_base_jet(alpha, z, s))
    for i in range(40):
        z, delta = inside_z(), math.exp(rng.uniform(-7.0, 3.0))
        yield f"axis {z!r} {delta!r}", lambda z=z, delta=delta: psi_at_axis_combination(z, delta)
    # refusals: outside the domain, non-finite, divergent, outside the region
    refused = [
        lambda: theta_series(-1.0, 0.3),
        lambda: theta_series(complex(0.0, 2.0), 0.1),
        lambda: theta_series(math.inf, 0.3),
        lambda: theta_series(0.5, complex(math.nan, 0.0)),
        lambda: theta_series(1e-4, 60.0, SETTINGS[3]),
        lambda: theta_series(1e-3, 0.0, SETTINGS[3]),
        lambda: series_side(1j, 0.3),
        lambda: _psi1_base_jet(0.785, 2 - 0.1j, SETTINGS[0]),
        lambda: _psi1_base_jet(-0.785, 2 + 0.1j, SETTINGS[0]),
        lambda: psi_at_axis_combination(0.3, 5e-324),
    ]
    for i, call in enumerate(refused):
        yield f"refused {i}", call


def kernel_digest() -> str:
    h = hashlib.sha256()
    for label, thunk in _cases():
        h.update(label.encode())
        try:
            h.update(_encode(thunk()))
        except XishiftError as e:
            h.update(f"{type(e).__name__}: {e}".encode())
    return h.hexdigest()


def test_kernel_bits_are_frozen():
    assert kernel_digest() == DIGEST
