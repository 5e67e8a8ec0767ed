"""Command-line front end.

Subcommands cover every verification the library offers; outputs are CSV or
JSON files that are byte-identical across repeated runs.  Every subcommand
takes the same options, and the subcommand may stand anywhere on the command
line; options it does not use are ignored, but every option's value is
checked and a given --config is always read.
Every subcommand runs at the default settings.  Exit codes:
0 all tolerances met, 2 a tolerance gate failed, 3 config, parse or usage
error, 4 numeric error.

Config files are flat JSON with exactly these keys, all required:

    {"coefficients": [1.0], "shifts": [0.0], "z_re": 0.0, "z_im": 0.0}

They describe a finite sum; there is no key for a dropped tail.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import integral, region, theta, zeroscan
from . import shifts as shifts_mod
from .errors import ConfigError, ParseError, XishiftError
from .settings import DEFAULT_SETTINGS, grid_nodes, reality_bound

__all__ = ["RunManifest", "parse_config", "run", "main"]

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

_CONFIG_KEYS = ("coefficients", "shifts", "z_re", "z_im")
_DECAY_DELTAS = (0.2, 0.1, 0.05, 0.02, 0.01)


@dataclass(frozen=True)
class RunManifest:
    """One checked command line: an option left off (None) takes its
    subcommand's default from _COMMANDS, the table of defaults."""

    subcommand: str
    output_path: str
    config_path: str | None = None
    output_format: str = "csv"
    t_min: float | None = None
    t_max: float | None = None
    step: float | None = None
    tol: float | None = None
    m_max: int = 1
    alpha: float = 0.2

    def __post_init__(self) -> None:
        if self.subcommand not in SUBCOMMANDS:
            raise ConfigError(f"unknown subcommand {self.subcommand!r}")
        _, needs_config, defaults = _COMMANDS[self.subcommand]
        for name, default in zip(_DEFAULTED, defaults):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output_format must be csv or json, got {self.output_format!r}")
        if self.m_max not in _SERIES_GATES:
            raise ConfigError(f"m must be one of {sorted(_SERIES_GATES)}, got {self.m_max}")
        for name in (*_DEFAULTED, "alpha"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.tol is not None and self.tol <= 0.0:
            raise ConfigError(f"tol must be > 0, got {self.tol}")
        if not abs(self.alpha) <= integral.ALPHA_MARGIN:
            raise ConfigError(f"alpha must lie in [-pi/4 + 0.01, pi/4 - 0.01], got {self.alpha}")
        if needs_config and self.config_path is None:
            raise ConfigError(f"subcommand {self.subcommand!r} requires --config")


def parse_config(path: str) -> shifts_mod.ShiftConfig:
    """Read and validate a shift configuration from flat JSON."""
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read as UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    unknown = set(raw).difference(_CONFIG_KEYS)
    if unknown:
        raise ParseError(f"{path}: unknown keys {sorted(unknown)}")
    for key in _CONFIG_KEYS:
        if key not in raw:
            raise ParseError(f"{path}: missing required key '{key}'")
    for key in ("coefficients", "shifts"):
        if not isinstance(raw[key], list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw[key]
        ):
            raise ParseError(f"{path}: '{key}' must be an array of reals")
    for key in ("z_re", "z_im"):
        if not isinstance(raw[key], (int, float)) or isinstance(raw[key], bool):
            raise ParseError(f"{path}: '{key}' must be a real number")
    return shifts_mod.make_config(
        raw["coefficients"], raw["shifts"], complex(raw["z_re"], raw["z_im"])
    )


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (fieldnames, rows, passed, params)
# ---------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _cmd_eval(man: RunManifest, cfg: shifts_mod.ShiftConfig):
    ts = grid_nodes(man.t_min, man.t_max, man.step)
    re, im, err = shifts_mod.fz_line_vec(ts, cfg)
    zeroscan.require_resolved(ts, re, err)
    rows = [
        {"t": float(t), "f": float(v), "im_residual": float(r), "abs_err_est": float(e)}
        for t, v, r, e in zip(ts, re, im, err)
    ]
    passed = bool(np.all(np.abs(im) <= reality_bound(re, im)))
    return ["t", "f", "im_residual", "abs_err_est"], rows, passed, {
        "t_min": man.t_min, "t_max": man.t_max, "step": man.step,
    }


def _cmd_scan(man: RunManifest, cfg: shifts_mod.ShiftConfig):
    report = zeroscan.scan_fz(cfg, man.t_min, man.t_max, man.step, man.tol)
    params = {
        "t_min": man.t_min, "t_max": man.t_max, "step": man.step, "tol": man.tol,
        "config_digest": report.config_digest,
        "settings": asdict(DEFAULT_SETTINGS),
    }
    return list(zeroscan.SCAN_FIELDS), zeroscan.report_rows(report), True, params


_THETA_A_SWEEP = (1.0, 0.8, 1.5, math.sqrt(2.0),
                  cmath.exp(0.2j), cmath.exp(0.4j), cmath.exp(-0.3j), cmath.exp(0.6j))
_THETA_Z_SWEEP = (0.0, 0.3, 1.0, 0.4 + 0.1j, 0.5 - 0.2j, 0.2 + 0.3j, 1.2 - 0.4j)
_THETA_X_SWEEP = (0.5, 2.0, 1.5, 0.9 + 0.3j, 0.8 + 0.1j, 1.1 - 0.2j)


def _cmd_theta_check(man: RunManifest, _cfg):
    rows = []
    worst_jacobi = 0.0
    for i in range(50):
        x = 10.0 ** (-1.0 + 2.0 * i / 49.0)
        r = theta.jacobi_residual(x)
        worst_jacobi = max(worst_jacobi, r)
        rows.append({"check": "jacobi", "p_re": x, "p_im": 0.0,
                     "z_re": 0.0, "z_im": 0.0, "residual": r})
    worst_general = 0.0
    for a in _THETA_A_SWEEP:
        for z in _THETA_Z_SWEEP:
            r = theta.general_theta_residual(a, z)
            worst_general = max(worst_general, r)
            a_c = complex(a)
            rows.append({"check": "general", "p_re": a_c.real, "p_im": a_c.imag,
                         "z_re": complex(z).real, "z_im": complex(z).imag, "residual": r})
    for x in _THETA_X_SWEEP:
        for z in _THETA_Z_SWEEP:
            r = theta.psi_xz_transform_residual(x, z)
            worst_general = max(worst_general, r)
            x_c = complex(x)
            rows.append({"check": "xz_transform", "p_re": x_c.real, "p_im": x_c.imag,
                         "z_re": complex(z).real, "z_im": complex(z).imag, "residual": r})
    passed = worst_jacobi < 1e-12 and worst_general < man.tol
    params = {"gate_jacobi": 1e-12, "gate_general": man.tol,
              "worst_jacobi": worst_jacobi, "worst_general": worst_general}
    return ["check", "p_re", "p_im", "z_re", "z_im", "residual"], rows, passed, params


_INTEGRAL_A = (1.0, 1.2, cmath.exp(0.2j))
_INTEGRAL_Z = (0.0, 0.4 + 0.1j, 0.5 - 0.2j)


def _cmd_integral_check(man: RunManifest, _cfg):
    rows = []
    worst = 0.0
    for a in _INTEGRAL_A:
        for z in _INTEGRAL_Z:
            out = integral.xi_integral(a, z)
            side_a, side_b = theta._side_pair(a, z, DEFAULT_SETTINGS)
            resid = max(abs(out.value - side_a), abs(out.value - side_b))
            worst = max(worst, resid)
            rows.append({
                "a_re": complex(a).real, "a_im": complex(a).imag,
                "z_re": complex(z).real, "z_im": complex(z).imag,
                "integral_re": out.value.real, "integral_im": out.value.imag,
                "side_a_re": side_a.real, "side_a_im": side_a.imag,
                "side_b_re": side_b.real, "side_b_im": side_b.imag,
                "residual": resid,
            })
    params = {"gate": man.tol, "worst": worst}
    fields = ["a_re", "a_im", "z_re", "z_im", "integral_re", "integral_im",
              "side_a_re", "side_a_im", "side_b_re", "side_b_im", "residual"]
    return fields, rows, worst < man.tol, params


def _cmd_region(man: RunManifest, _cfg):
    grid = region.region_grid(man.t_min, man.t_max, man.t_min, man.t_max, man.step)
    rows = [
        {"x": x, "y": y, "inside": inside, "label": label, "margin": margin}
        for x, y, inside, label, margin in region.grid_csv_rows(grid)
    ]
    params = {"x_min": man.t_min, "x_max": man.t_max, "y_min": man.t_min, "y_max": man.t_max,
              "step": man.step}
    return ["x", "y", "inside", "label", "margin"], rows, True, params


_SERIES_GATES = {0: 1e-5, 1: 1e-4, 2: 1e-3}
_LIMIT_GATES = {0: 5e-3, 1: 2e-2}


def _cmd_moments(man: RunManifest, cfg: shifts_mod.ShiftConfig):
    rows = []
    passed = True
    for m in range(man.m_max + 1):
        numeric = shifts_mod.moment_numeric(m, man.alpha, cfg)
        assembled = shifts_mod.moment_series_rhs(m, man.alpha, cfg)
        diff = abs(numeric - assembled)
        gate = _SERIES_GATES[m]
        passed &= diff < gate
        rows.append({"kind": "series", "m": m, "alpha": man.alpha,
                     "numeric": numeric, "reference": assembled,
                     "discrepancy": diff, "gate": gate})
        if m in _LIMIT_GATES:
            rel = shifts_mod.moment_limit_check(m, cfg)
            closed = shifts_mod.moment_closed_form(m, cfg)
            gate = _LIMIT_GATES[m]
            passed &= rel < gate
            rows.append({"kind": "limit", "m": m, "alpha": math.pi / 4.0,
                         "numeric": rel, "reference": closed,
                         "discrepancy": rel, "gate": gate})
    fields = ["kind", "m", "alpha", "numeric", "reference", "discrepancy", "gate"]
    return fields, rows, passed, {"alpha": man.alpha, "m_max": man.m_max}


def _cmd_limits(man: RunManifest, cfg: shifts_mod.ShiftConfig):
    rows = []
    passed = True
    z = cfg.z
    for scale, name in ((4.0, "quarter"), (1.0, "unit")):
        seq = theta.axis_decay_sequence(z, list(_DECAY_DELTAS), scale=scale)
        ok = all(b < a for a, b in zip(seq, seq[1:])) and seq[-1] < 1e-8
        passed &= ok
        for d, v in zip(_DECAY_DELTAS, seq):
            rows.append({"check": f"axis_decay_{name}", "shift": 0.0,
                         "order": 0, "param": d, "value": v,
                         "target": 1e-8, "ok": int(ok)})
    alphas = [math.pi / 4.0 - 10.0 ** -k for k in (1, 2, 3)]
    bases = [theta._psi1_base_jet(alpha, z, DEFAULT_SETTINGS) for alpha in alphas]
    for lam in cfg.shifts:
        for m in (0, 1):
            lim = theta.psi1_limit_value(z, lam, 2 * m)
            res = [abs(theta._psi1_shifted(base, alpha, lam, 2 * m) - lim)
                   for alpha, base in zip(alphas, bases)]
            ok = res[0] > res[1] > res[2] and res[2] < 1e-2
            passed &= ok
            for k, v in zip((1, 2, 3), res):
                rows.append({"check": "psi1_limit", "shift": lam, "order": 2 * m,
                             "param": float(k), "value": v, "target": 1e-2,
                             "ok": int(ok)})
    fields = ["check", "shift", "order", "param", "value", "target", "ok"]
    return fields, rows, passed, {"deltas": list(_DECAY_DELTAS)}


# the one home of each subcommand's function, --config need and defaults of
# _DEFAULTED (None where it ignores the option), in --help order
_DEFAULTED = ("t_min", "t_max", "step", "tol")
_COMMANDS = {
    "eval": (_cmd_eval, True, (0.0, 40.0, 0.5, None)),
    "scan": (_cmd_scan, True, (10.0, 30.0, 0.02, 1e-8)),
    "theta-check": (_cmd_theta_check, False, (None, None, None, 1e-9)),
    "integral-check": (_cmd_integral_check, False, (None, None, None, 1e-6)),
    "region": (_cmd_region, False, (-3.0, 3.0, 0.05, None)),
    "moments": (_cmd_moments, True, (None,) * 4),
    "limits": (_cmd_limits, True, (None,) * 4),
}
SUBCOMMANDS = tuple(_COMMANDS)


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(str(_fmt(row[k])) for k in fieldnames))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode())


def _write_json(path: str, man: RunManifest, fieldnames, rows, passed, params) -> None:
    payload = {
        "schema_version": 1,
        "subcommand": man.subcommand,
        "params": params,
        "passed": passed,
        "fields": fieldnames,
        "rows": rows,
    }
    Path(path).write_bytes((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


def run(manifest: RunManifest) -> int:
    """Execute one subcommand; returns the exit code of the contract."""
    try:
        # a given config is read and validated even where the subcommand ignores it
        cfg = None if manifest.config_path is None else parse_config(manifest.config_path)
        fieldnames, rows, passed, params = _COMMANDS[manifest.subcommand][0](manifest, cfg)
    except (ParseError, ConfigError) as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except XishiftError as exc:
        _emit_error(exc)
        return EXIT_NUMERIC
    try:
        if manifest.output_format == "csv":
            _write_csv(manifest.output_path, fieldnames, rows)
        else:
            _write_json(manifest.output_path, manifest, fieldnames, rows, passed, params)
    except OSError as exc:
        _emit_error(ConfigError(f"cannot write --out {manifest.output_path}: "
                                f"{exc.strerror or exc}"))
        return EXIT_CONFIG
    return EXIT_OK if passed else EXIT_TOLERANCE


def _emit_error(exc: XishiftError) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 3): exit 2 means a failed tolerance gate."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand; an option left off sets no dest, so
    its default comes from _COMMANDS through main's RunManifest."""
    p = _Parser(
        prog="xishift",
        description="Completed-zeta / theta-transformation checks and "
                    "critical-line zero scans for shifted Xi-type combinations.",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("subcommand", choices=SUBCOMMANDS)
    p.add_argument("--config", dest="config_path",
                   help="path to a shift-config JSON file")
    p.add_argument("--out", dest="output_path", required=True)
    p.add_argument("--format", dest="output_format", choices=("csv", "json"))
    p.add_argument("--workers", type=int)
    p.add_argument("--t-min", dest="t_min", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--m", dest="m_max", type=int)
    p.add_argument("--alpha", type=float)
    return p


_parser = functools.cache(build_parser)  # once per process: parse_args leaves it unchanged


def main(argv: list[str] | None = None) -> int:
    """Run one command line; --workers, kept for old command lines, is checked and dropped."""
    try:
        args = vars(_parser().parse_args(argv))
        if (workers := args.pop("workers", 1)) < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        manifest = RunManifest(**args)
    except (ParseError, ConfigError) as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    return run(manifest)


if __name__ == "__main__":
    sys.exit(main())
