import json
from dataclasses import fields

import pytest

from xishift import ConfigError, ParseError
from xishift.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_TOLERANCE,
    SUBCOMMANDS,
    RunManifest,
    build_parser,
    main,
    parse_config,
)

HARDY_JSON = '{"coefficients": [1.0], "shifts": [0.0], "z_re": 0.0, "z_im": 0.0}\n'
EXHIBIT = {"coefficients": [1.0, 0.5, 0.25], "shifts": [0.0, 1.0, 2.0],
           "z_re": 0.5, "z_im": 0.25}


def _two_term(shifts):
    """The series config's weights and z, at the given one or two shifts."""
    return {"coefficients": [1.0, 0.5][:len(shifts)], "shifts": shifts,
            "z_re": 0.3, "z_im": -0.2}


@pytest.fixture
def hardy_config(tmp_path):
    p = tmp_path / "hardy.json"
    p.write_text(HARDY_JSON)
    return str(p)


class TestParseConfig:
    def test_minimal(self, hardy_config):
        cfg = parse_config(hardy_config)
        assert cfg.coefficients == (1.0,) and cfg.shifts == (0.0,) and cfg.z == 0.0

    def test_missing_key_named(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"coefficients": [1.0], "z_re": 0.0, "z_im": 0.0}')
        with pytest.raises(ParseError, match="shifts"):
            parse_config(str(p))

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"coefficients": [1], "shifts": [0], "z_re": 0, "z_im": 0, "zz": 1}')
        with pytest.raises(ParseError, match="zz"):
            parse_config(str(p))

    def test_tail_bound_key_is_exit_3(self, tmp_path, capsys):
        # configs are finite sums: a key for a dropped tail is an unknown key
        p = tmp_path / "c.json"
        p.write_text(HARDY_JSON.replace("}", ', "tail_bound": 0.0}'))
        out = tmp_path / "x.csv"
        assert main(["eval", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError" and "tail_bound" in record["message"]
        assert not out.exists()

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"coefficients": [1.0],\n  "shifts": }')
        with pytest.raises(ParseError, match="line 2"):
            parse_config(str(p))

    def test_wrong_types(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"coefficients": "x", "shifts": [0], "z_re": 0, "z_im": 0}')
        with pytest.raises(ParseError, match="coefficients"):
            parse_config(str(p))

    def test_z_outside_region_is_config_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"coefficients": [1.0], "shifts": [0.0], "z_re": 2.0, "z_im": 2.0}')
        with pytest.raises(ConfigError, match="region"):
            parse_config(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            parse_config("/nonexistent/path.json")
        with pytest.raises(ParseError, match="not found"):  # a directory
            parse_config(str(tmp_path))

    def test_non_utf8_file_is_exit_3(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe")
        out = tmp_path / "o.csv"
        assert main(["scan", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError" and str(p) in record["message"]
        assert "UTF-8" in record["message"]
        assert not out.exists()

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[]")
        with pytest.raises(ParseError, match="top level must be an object"):
            parse_config(str(p))

    def test_z_must_be_a_number(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(HARDY_JSON.replace('"z_re": 0.0', '"z_re": "0"'))
        with pytest.raises(ParseError, match="'z_re' must be a real number"):
            parse_config(str(p))


class TestSubcommands:
    def test_scan_csv(self, hardy_config, tmp_path):
        out = tmp_path / "scan.csv"
        code = main([
            "scan", "--config", hardy_config, "--out", str(out),
            "--t-min", "14", "--t-max", "14.3", "--step", "0.05", "--tol", "1e-8",
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_lo,t_hi,t_zero,f_residual,iterations"
        assert len(lines) == 2
        assert abs(float(lines[1].split(",")[2]) - 14.134725141734694) < 1e-6

    def test_eval_json(self, hardy_config, tmp_path):
        out = tmp_path / "eval.json"
        code = main([
            "eval", "--config", hardy_config, "--out", str(out), "--format", "json",
            "--t-min", "0", "--t-max", "2", "--step", "1",
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["passed"] is True
        assert len(payload["rows"]) == 3

    def test_region_grid(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(["region", "--out", str(out), "--t-min", "-2", "--t-max", "2",
                     "--step", "0.5"])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,inside,label,margin"
        assert len(lines) == 1 + 9 * 9

    def test_theta_check_passes(self, tmp_path):
        out = tmp_path / "theta.csv"
        assert main(["theta-check", "--out", str(out)]) == EXIT_OK

    def test_theta_check_tolerance_failure(self, tmp_path):
        out = tmp_path / "theta.json"
        code = main(["theta-check", "--out", str(out), "--format", "json",
                     "--tol", "1e-30"])
        assert code == EXIT_TOLERANCE
        assert json.loads(out.read_text())["passed"] is False

    def test_limits(self, hardy_config, tmp_path):
        out = tmp_path / "limits.csv"
        assert main(["limits", "--config", hardy_config, "--out", str(out)]) == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "check,shift,order,param,value,target,ok"

    def test_integral_check(self, tmp_path):
        out = tmp_path / "transform.json"
        code = main(["integral-check", "--out", str(out), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["passed"] is True and len(payload["rows"]) == 9
        assert payload["params"]["worst"] < 1e-6

    def test_moments_m0(self, hardy_config, tmp_path):
        out = tmp_path / "moments.json"
        code = main(["moments", "--config", hardy_config, "--out", str(out),
                     "--format", "json", "--m", "0", "--alpha", "0.2"])
        assert code == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        kinds = {r["kind"] for r in rows}
        assert kinds == {"series", "limit"}
        for r in rows:
            assert r["discrepancy"] < r["gate"]

    @pytest.mark.parametrize("config, m", [
        (EXHIBIT, "2"), (_two_term([0.0, 1.0]), "2"),
        (_two_term([-10.0, -12.0]), "1"), (_two_term([-10.0, -12.0]), "2"),
        (_two_term([-25.0, -30.0]), "1"), (_two_term([-25.0, -30.0]), "2"),
    ], ids=["exhibit-m2", "series-m2", "neg10-m1", "neg10-m2", "neg25-m1", "neg25-m2"])
    def test_moments_limit_rows_pass(self, tmp_path, config, m):
        # every row, limit rows included, meets its gate
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "moments.json"
        code = main(["moments", "--config", str(path), "--out", str(out),
                     "--format", "json", "--m", m])
        assert code == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        assert [r["kind"] for r in rows].count("limit") == 2
        for r in rows:
            assert r["discrepancy"] < r["gate"], r

    @pytest.mark.parametrize("shifts, code", [
        ([-3.0, -6.0], EXIT_OK), ([-4.0], EXIT_OK), ([-10.0, -12.0], EXIT_OK),
    ], ids=["neg", "neg4", "neg10"])
    def test_limits_target_is_relative(self, tmp_path, shifts, code):
        # the psi1 limits grow like e^(-pi lam/4); at lam = -12 the k = 3
        # residual is still 1.2e-2 of the limit, and k = 4 takes it to 1.2e-3
        config = tmp_path / "c.json"
        config.write_text(json.dumps(_two_term(shifts)))
        out = tmp_path / "limits.json"
        assert main(["limits", "--config", str(config), "--out", str(out),
                     "--format", "json"]) == code
        for r in json.loads(out.read_text())["rows"]:
            if r["check"] == "psi1_limit":
                assert r["target"] >= 1e-2

    def test_missing_config_is_exit_3(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["eval", "--out", str(out)]) == EXIT_CONFIG
        assert main(["eval", "--config", "/no/file", "--out", str(out)]) == EXIT_CONFIG

    def test_numeric_error_is_exit_4(self, hardy_config, tmp_path, capsys):
        # a height whose Riemann-Siegel sum exceeds max_terms: the kernel's
        # AccuracyError, its term count in four digits
        out = tmp_path / "e.csv"
        code = main(["eval", "--config", hardy_config, "--out", str(out),
                     "--t-min", "1e300", "--t-max", "2e300", "--step", "1e299"])
        assert code == EXIT_NUMERIC
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "AccuracyError"
        assert "t=1e+300 needs 3.989e+149 terms" in record["message"]
        assert not out.exists()

    def test_limits_overflow_is_exit_4(self, tmp_path, capsys):
        # e^(-pi lam/4) at lam = -1e5 is past the float range: a traceback and exit 1 before
        config = tmp_path / "huge.json"
        config.write_text('{"coefficients": [1.0], "shifts": [-1e5], "z_re": 0.3, "z_im": 0.0}')
        out = tmp_path / "limits.csv"
        assert main(["limits", "--config", str(config), "--out", str(out)]) == EXIT_NUMERIC
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "EvaluationError"
        assert "psi1_limit_value" in record["message"] and "lam=-100000.0" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, match", [
        ("moments", "psi1 at lam=100000.0: e^((i/2 - lam) alpha) underflows at alpha=0.2"),
        ("limits", "psi1_limit_value(z=(0.3+0j)) at lam=100000.0: e^((i/2 - lam) alpha) "
                   "underflows at alpha=pi/4"),
    ])
    def test_analytic_underflow_is_exit_4(self, subcommand, match, tmp_path, capsys):
        # e^(-lam alpha) at lam = 1e5 is below the float range: no row of zeros
        # may pass for a value
        config = tmp_path / "far.json"
        config.write_text('{"coefficients": [1.0], "shifts": [1e5], "z_re": 0.3, "z_im": 0.0}')
        out = tmp_path / "out.csv"
        code = main([subcommand, "--m", "1", "--config", str(config), "--out", str(out)])
        assert code == EXIT_NUMERIC
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "EvaluationError", "message": match}
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["theta-check", "integral-check", "region"])
    def test_unused_missing_config_is_exit_3(self, subcommand, tmp_path, capsys):
        # a given --config is read even where the subcommand does not use it
        out = tmp_path / "x.csv"
        code = main([subcommand, "--config", "/no/such/file.json", "--out", str(out)])
        assert code == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError" and "/no/such/file.json" in record["message"]
        assert not out.exists()

    def test_unused_valid_config_changes_no_byte(self, hardy_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["region", "--t-min", "-1", "--t-max", "1", "--step", "0.25"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--config", hardy_config, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_scan_json_echoes_both_settings(self, hardy_config, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["scan", "--config", hardy_config, "--out", str(out), "--format", "json",
                     "--t-min", "10", "--t-max", "30"]) == EXIT_OK
        settings = json.loads(out.read_text())["params"]["settings"]
        assert settings == {"max_terms": 10000, "quad_abs_tol": 1e-10}

    def test_scan_underflow_is_exit_4(self, hardy_config, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--config", hardy_config, "--out", str(out),
                     "--t-min", "1000", "--t-max", "1010", "--step", "0.05"])
        assert code == EXIT_NUMERIC
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "EvaluationError" and "t=1000.0" in record["message"]
        assert not out.exists()

    def test_eval_underflow_is_exit_4(self, hardy_config, tmp_path, capsys):
        out = tmp_path / "eval.json"
        code = main(["eval", "--config", hardy_config, "--out", str(out), "--format", "json",
                     "--t-min", "1000", "--t-max", "1001", "--step", "0.5"])
        assert code == EXIT_NUMERIC
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "EvaluationError" and "t=1000.0" in record["message"]
        assert not out.exists()

    def test_idempotent_outputs(self, hardy_config, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["scan", "--config", hardy_config, "--format", "json",
                "--t-min", "14", "--t-max", "14.3", "--step", "0.05"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b), "--workers", "4"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_region_idempotent(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["region", "--t-min", "-1", "--t-max", "1", "--step", "0.25"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestManifest:
    def test_bad_subcommand(self):
        with pytest.raises(ConfigError):
            RunManifest(subcommand="nope", output_path="x")

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            RunManifest(subcommand="eval", output_path="x", output_format="xml")

    @pytest.mark.parametrize("subcommand, defaults", [
        ("eval", (0.0, 40.0, 0.5, None)),
        ("scan", (10.0, 30.0, 0.02, 1e-8)),
        ("theta-check", (None, None, None, 1e-9)),
        ("integral-check", (None, None, None, 1e-6)),
        ("region", (-3.0, 3.0, 0.05, None)),
        ("moments", (None, None, None, None)),
        ("limits", (None, None, None, None)),
    ])
    def test_omitted_options_take_the_subcommand_defaults(self, subcommand, defaults):
        man = RunManifest(subcommand=subcommand, output_path="o", config_path="c")
        assert (man.t_min, man.t_max, man.step, man.tol) == defaults
        # a given value is kept
        given = RunManifest(subcommand=subcommand, output_path="o", config_path="c",
                            t_min=-1.5, t_max=9.0, step=0.25, tol=1e-6)
        assert (given.t_min, given.t_max, given.step, given.tol) == (-1.5, 9.0, 0.25, 1e-6)

    @pytest.mark.parametrize("subcommand, needs", [
        ("eval", True), ("scan", True), ("theta-check", False), ("integral-check", False),
        ("region", False), ("moments", True), ("limits", True),
    ])
    def test_config_requirement(self, subcommand, needs):
        if needs:
            with pytest.raises(ConfigError, match=f"'{subcommand}' requires --config"):
                RunManifest(subcommand=subcommand, output_path="o")
        else:
            assert RunManifest(subcommand=subcommand, output_path="o").config_path is None

    def test_missing_config_is_the_last_check(self, tmp_path, capsys):
        # a bad value is reported before a missing --config
        out = tmp_path / "x.csv"
        assert main(["eval", "--out", str(out), "--tol", "-1"]) == EXIT_CONFIG
        assert "tol must be > 0" in json.loads(capsys.readouterr().err)["message"]
        assert main(["eval", "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "ConfigError",
                          "message": "subcommand 'eval' requires --config"}
        assert not out.exists()

    def test_bad_workers(self, tmp_path, capsys):
        # --workers has no effect, but a value below 1 is still a usage error
        out = tmp_path / "x.csv"
        assert main(["eval", "--out", str(out), "--workers", "0"]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and "workers" in record["message"]
        assert not out.exists()

    def test_fields_are_the_parser_dests(self):
        # the manifest is the parsed argv: no field that no option sets, and
        # workers, which main drops, is the parser's one extra dest
        dests = {a.dest for a in build_parser()._actions if a.dest != "help"}
        assert {f.name for f in fields(RunManifest)} | {"workers"} == dests
        assert len(fields(RunManifest)) == 10

    @pytest.mark.parametrize("argv", [
        ["scan", "--step", "nan"],
        ["eval", "--step", "nan"],
        ["region", "--step", "nan"],
        ["scan", "--t-max", "inf"],
        ["eval", "--t-min=-inf"],
        ["scan", "--tol", "nan"],
        ["moments", "--alpha", "nan"],
    ])
    def test_non_finite_argument_is_exit_3(self, argv, hardy_config, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(argv + ["--config", hardy_config, "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and "finite" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["0.78", "0.79", "-0.79", "5"])
    def test_alpha_past_the_margin_is_exit_3(self, alpha, hardy_config, tmp_path, capsys):
        # the moment kernel needs |alpha| <= pi/4 - 0.01 for its decay
        out = tmp_path / "m.csv"
        code = main(["moments", "--config", hardy_config, "--out", str(out),
                     "--alpha", alpha, "--m", "0"])
        assert code == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and "alpha" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("m", ["-1", "3"])
    def test_moment_order_out_of_range_is_exit_3(self, m, hardy_config, tmp_path, capsys):
        # -1 would check nothing and pass; 3 would run m <= 2 under m_max 3
        out = tmp_path / "out.json"
        argv = ["moments", "--m", m, "--config", hardy_config, "--out", str(out),
                "--format", "json"]
        assert main(argv) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and m in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["-1", "0"])
    @pytest.mark.parametrize("subcommand", ["theta-check", "integral-check", "scan"])
    def test_non_positive_tol_is_exit_3(self, subcommand, tol, hardy_config, tmp_path, capsys):
        # a usage error, not a failed tolerance gate (exit 2)
        out = tmp_path / "out.csv"
        argv = [subcommand, "--tol", tol, "--config", hardy_config, "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and "tol must be > 0" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["eval", "scan", "region"])
    def test_zero_step_is_exit_3(self, subcommand, hardy_config, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [subcommand, "--step", "0", "--config", hardy_config, "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and "step" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["scan", "eval", "region"])
    def test_grid_too_large_is_exit_3(self, subcommand, hardy_config, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [subcommand, "--t-min", "10", "--t-max", "20", "--step", "1e-300",
                "--config", hardy_config, "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and "1e+301 nodes" in record["message"]
        assert not out.exists()

    def test_region_over_point_cap_is_exit_3(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["region", "--step", "1e-3", "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and "36012001 points" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("where", ["missing dir", "directory"])
    def test_unwritable_out_is_exit_3(self, where, fmt, hardy_config, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv" if where == "missing dir" else tmp_path
        argv = ["scan", "--config", hardy_config, "--out", str(out), "--format", fmt,
                "--t-min", "14", "--t-max", "14.3", "--step", "0.05"]
        assert main(argv) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and str(out) in record["message"]

    @pytest.mark.parametrize("argv", [
        ["scan", "--bogus", "1"],
        ["scan", "--step", "abc"],
    ])
    def test_usage_error_is_exit_3(self, argv, tmp_path, capsys):
        # argparse's own exit 2 would read as a failed tolerance gate
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError" and argv[1] in record["message"]
        assert not out.exists()

    def test_help_is_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--help"])
        assert exc.value.code == 0
        assert "--step" in capsys.readouterr().out

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert SUBCOMMANDS == ("eval", "scan", "theta-check", "integral-check", "region",
                               "moments", "limits")
        assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out

    def test_unknown_subcommand_is_exit_3(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["nope", "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError" and "'nope'" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_every_subcommand_takes_every_option(self, subcommand):
        argv = ["--config", "c.json", "--out", "o.json", "--format", "json",
                "--workers", "4", "--t-min", "-1.5", "--t-max", "9", "--step", "0.25",
                "--tol", "1e-6", "--m", "2", "--alpha", "0.3"]
        expected = RunManifest(subcommand=subcommand, output_path="o.json",
                               config_path="c.json", output_format="json",
                               t_min=-1.5, t_max=9.0, step=0.25, tol=1e-6, m_max=2,
                               alpha=0.3)
        # the subcommand may stand anywhere on the line
        for at in (0, 4, len(argv)):
            args = vars(build_parser().parse_args(argv[:at] + [subcommand] + argv[at:]))
            assert args.pop("workers") == 4
            assert RunManifest(**args) == expected, at
