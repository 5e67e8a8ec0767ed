"""The one judge of "below the double range" and the entries that use it."""

import ast
import math
import sys
from pathlib import Path

import pytest

from xishift import (EvaluationError, make_config, moment_closed_form, mu, psi1,
                     psi1_limit_value)
from xishift.settings import LOG_MIN, below_range, kept_in_range

SRC = Path(__file__).resolve().parents[1] / "src" / "xishift"
LARGEST_SUBNORMAL = math.nextafter(sys.float_info.min, 0.0)
PI_4 = math.pi / 4.0


class TestBelowRange:
    def test_log_size_at_the_floor(self):
        assert not below_range(LOG_MIN)
        assert below_range(math.nextafter(LOG_MIN, -math.inf))

    def test_formed_value_by_its_modulus(self):
        # the log of the largest subnormal rounds to LOG_MIN itself, so a
        # log-modulus test would pass the value as in range
        assert math.log(LARGEST_SUBNORMAL) == LOG_MIN
        assert below_range(0.0, LARGEST_SUBNORMAL)
        assert below_range(0.0, complex(0.0, -LARGEST_SUBNORMAL))
        assert not below_range(0.0, sys.float_info.min)

    def test_exact_zero_is_in_range(self):
        assert not below_range(0.0, 0.0)
        assert not below_range(0.0, -0j)


class TestKeptInRange:
    def test_keeps_the_values_in_range_in_order(self):
        terms = [(1.0, False), (2.0, True), (-0.0, False)]
        kept = kept_in_range(terms, lambda: AssertionError("refused"))
        assert kept == [1.0, -0.0] and math.copysign(1.0, kept[1]) == -1.0

    def test_refuses_where_every_term_is_below(self):
        with pytest.raises(EvaluationError, match="^every term$"):
            kept_in_range([(1.0, True), (2.0, True)], lambda: EvaluationError("every term"))


def _last_in_range(log_size, x: float) -> float:
    """The largest double at which log_size, decreasing in it, is not below
    LOG_MIN, searched by ulps from x."""
    while log_size(x) < LOG_MIN:
        x = math.nextafter(x, -math.inf)
    while log_size(math.nextafter(x, math.inf)) >= LOG_MIN:
        x = math.nextafter(x, math.inf)
    return x


SHIFT_UNDERFLOWS = r"e\^\(\(i/2 - lam\) alpha\) underflows at alpha="


@pytest.mark.parametrize("log_size, guess, call, refusal", [
    (lambda lam: -lam * 0.5, -2.0 * LOG_MIN, lambda lam: psi1(0.5, 3.0, lam),
     r"^psi1 at lam=.*: " + SHIFT_UNDERFLOWS + r"0\.5$"),
    (lambda lam: -lam * PI_4, -LOG_MIN / PI_4, lambda lam: psi1_limit_value(0.3, lam, 2),
     r"^psi1_limit_value\(z=\(0\.3\+0j\)\) at lam=.*: " + SHIFT_UNDERFLOWS + "pi/4$"),
    (lambda lam: -lam * PI_4, -LOG_MIN / PI_4,
     lambda lam: moment_closed_form(1, make_config([1.0], [lam], 0.3)),
     r"^moment_closed_form at lam=.*: " + SHIFT_UNDERFLOWS + "pi/4$"),
    (lambda s: (0.5 - s) * math.log(2.0), 0.5 - LOG_MIN / math.log(2.0),
     lambda s: mu(2.0, 0.0, s), r"^mu\(x=\(2\+0j\), z=0j, s=.*\) underflows the double range$"),
], ids=["psi1", "psi1_limit_value", "moment_closed_form", "mu"])
def test_entries_flip_at_one_floor(log_size, guess, call, refusal):
    # the judged log-modulus is LOG_MIN at x and one ulp below it at the next
    # double: each entry returns a normal value at x and refuses the next one
    x = _last_in_range(log_size, guess)
    assert log_size(x) == LOG_MIN
    assert abs(call(x)) >= sys.float_info.min
    with pytest.raises(EvaluationError, match=refusal):
        call(math.nextafter(x, math.inf))


def _float_min_sites(path: Path) -> list[str]:
    """The function enclosing each sys.float_info.min in the module at path."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if ast.unparse(child) == "sys.float_info.min":
                sites.append(where)
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return sites


def test_double_floor_is_read_in_settings_only():
    # below_range decides underflow; theta._axis_terms' bound on delta is a
    # domain check on input, not an underflow rule
    sites = {path.name: _float_min_sites(path) for path in sorted(SRC.glob("*.py"))}
    assert sites["settings.py"]
    assert sites["theta.py"] == ["_axis_terms"]
    assert [name for name, found in sites.items()
            if found and name not in ("settings.py", "theta.py")] == []
