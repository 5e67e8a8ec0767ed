"""Frozen bits of the theta kernel: one SHA-256 per case family of a seeded sample.

The sample covers the public theta sums and residuals, psi1's base jet on
its direct, near-axis and mirrored routes, the near-axis combination, and
complex x with z = +-0 +-0i.  Each case hashes the raw float bits of its
value, terms used and error estimate, or the type and message of the error
it raises.  A speedup that promises identical results must leave every
digest as it is; a change that moves one route on purpose re-pins only that
route's family and shows that the others held.
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

DIGESTS = {
    "theta": "dcf7590becf2add0255be064a94f55acbd781769440dcabfb02faa16865758d3",
    "zero-z": "c71f20b4d706b4ecfaf8c003836208a4ee25aade5d29595b1e2211ad852ac444",
    "side": "327bf3e4374551cb54f0c3ff2b32fbb5c06f92fd35b4b6d85a087ee4b2248bb4",
    "jacobi": "8076f46ef44fdfc13b95b99b8ee788a71eed5d81b4fd830a630751bc8c936511",
    "general": "cb78100effe549d8094d228ccf9debe8944f695754a1c723f348f853140dfdbe",
    "xz": "bdb73364d25eb8bf5ed74202caf3dbf9e28d28466640449e7443d63fa3442d08",
    "jet direct": "f608bdb0afb771cd003a4d99c2db4144841ca0d46359cfc517bcb2e4af7d352a",
    "jet near-axis": "3025d834e59d5e7161fdb5d4d68781260cb2892a391c74e63ed8aa044f775056",
    "jet mirrored": "6bfdb1d33525abdf6a0ecd0171bb5c568c725fea6b1ccc4d0a71ab5b859a3151",
    "axis": "15112f9d46a38b4fb2a6a5b2d11b74468bff34d6a53014b159ca8cd2231979b2",
    "refused": "e692aa3f28c322f85852a380ac2b4ec93981742e97e873bd3a5529ee2d38c2e9",
}

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


def _family(label: str) -> str:
    """The case family of a label: its first word, or two for psi1's jet routes."""
    words = label.split(" ", 2)
    return " ".join(words[:2]) if words[0] == "jet" else words[0]


def kernel_digests() -> dict[str, str]:
    hashes = {}
    for label, thunk in _cases():
        h = hashes.setdefault(_family(label), hashlib.sha256())
        h.update(label.encode())
        try:
            h.update(_encode(thunk()))
        except XishiftError as e:
            h.update(f"{type(e).__name__}: {e}".encode())
    return {family: h.hexdigest() for family, h in hashes.items()}


def test_kernel_bits_are_frozen():
    got = kernel_digests()
    assert got.keys() == DIGESTS.keys()
    moved = [family for family in DIGESTS if got[family] != DIGESTS[family]]
    assert not moved, f"digests moved: {moved}"
