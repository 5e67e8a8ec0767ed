"""Frozen CLI outputs: the SHA-256 of a few fast runs, pinned byte for byte.

A change that moves any of these bytes must update the digest on purpose and
say why; a refactor or speedup that promises identical outputs must not.
"""

import hashlib
import json

import pytest

from xishift.cli import EXIT_OK, main

HARDY = {"coefficients": [1.0], "shifts": [0.0], "z_re": 0.0, "z_im": 0.0}
EXHIBIT = {"coefficients": [1.0, 0.5, 0.25], "shifts": [0.0, 1.0, 2.0],
           "z_re": 0.5, "z_im": 0.25}
SERIES = {"coefficients": [1.0, 0.5], "shifts": [0.0, 1.0], "z_re": 0.3, "z_im": -0.2}
# every shift far from rho's mass at tau = 0
FAR = {"coefficients": [1.0, 0.5], "shifts": [25.0, 30.0], "z_re": 0.3, "z_im": -0.2}
# every shift below it
NEG = {"coefficients": [1.0, 0.5], "shifts": [-3.0, -6.0], "z_re": 0.3, "z_im": -0.2}

# (config or None, argv, SHA-256 of the CSV written)
FROZEN = {
    "scan-hardy": (HARDY, ["scan", "--t-min", "10", "--t-max", "30", "--step", "0.05"],
                   "50b421cc6b67aa4b9325fb5a14b1a7134bd661892f09233b3a73c1ab1c82c45c"),
    # every node above RS_CROSSOVER: the Riemann-Siegel route
    "scan-hardy-rs": (HARDY, ["scan", "--t-min", "480", "--t-max", "490", "--step", "0.05"],
                      "4f28285321f07addaae43fe00e6addd03cb2fa6955d08ec23668be6f06f88155"),
    "scan-exhibit": (EXHIBIT, ["scan", "--t-min", "0", "--t-max", "40", "--step", "0.02"],
                     "d440f9400cf6c33c0f0080106023714abbaca1f3253e7fc58540e4ef4cd6b47d"),
    "eval-exhibit": (EXHIBIT, ["eval"],
                     "f7b1b75175627a541f7e0fbf2166b0e7fa14eb0c2b6c4ff33b45cc29fba5c4ac"),
    "theta-check": (None, ["theta-check"],
                    "496e97fe2032f63fd477828c81f2e56f31761dbb4a02aa66d16dd8a15db2332b"),
    "region": (None, ["region", "--step", "0.25"],
               "06028451037624c95a723fc25b73cdd99b51e139985c73f884f304872153d254"),
    "limits-hardy": (HARDY, ["limits"],
                     "c890339f4053545426b0d450fa44ac04d6a7662cdf10b59e346166e58251d5f7"),
    # the critical-line integrals: nodes and pole residues of one weight; the
    # theta sides summed at the residual checks' tolerance
    "integral-check": (None, ["integral-check"],
                       "c9e3a2e6077d8854bcbe55c9c43b34ddad708c7cc1c7fd8e4923c26a98434d17"),
    "moments-hardy-m1": (HARDY, ["moments", "--m", "1"],
                         "670a9f5853217d224c3006d94cc03c780156262676d94064052191b24ccd53d2"),
    "moments-series-m0": (SERIES, ["moments", "--m", "0"],
                          "9c38efaf6459fc642b3fd53893718ec93785ae045eac13dffda5c1fbb7b112e2"),
    "limits-exhibit": (EXHIBIT, ["limits"],
                       "7519f9acf333e6d8a0105e05c39a75d99d290ed5286403992b5bf75729bf0232"),
    # shifts above and below rho's mass at tau = 0: the line integrals'
    # range stays [-T_lo, T_hi], each shift only in its term's weight
    "moments-far-m1": (FAR, ["moments", "--m", "1"],
                       "78ebd0b4e8682fb2bd356ab17b045a8a34826ee5b4da9361545c81e3140d09b9"),
    "moments-neg-m1": (NEG, ["moments", "--m", "1"],
                       "574dc36f74df466ad1e2d37c15ad9a61694e22c1163a8021b27cefc09524ed4e"),
    # psi1 limits that grow like e^(-pi lam/4), judged against a relative target
    "limits-neg": (NEG, ["limits"],
                   "a4672a5847f2785ff2ca6f2e3394164c0b226003e63508db5a88a237eebff4ef"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_output_bytes_are_frozen(name, tmp_path):
    config, argv, digest = FROZEN[name]
    out = tmp_path / "out.csv"
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
