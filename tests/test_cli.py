"""Command-line front end: contracts on output shape, exit codes, determinism."""

import io
import json
import math

import pytest

from gft.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, load_config, main


def run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


class TestRadiusCommand:
    def test_k_starlike_parabolic(self):
        code, out = run_cli(["radius", "--problem", "k-starlike", "--k", "1"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["equationId"] == "root1"
        assert abs(payload["root"] - 0.462117) < 1e-6

    def test_convex(self):
        code, out = run_cli(["radius", "--problem", "convex", "--alpha", "0.25"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["equationId"] == "root2"
        assert 0 < payload["root"] < 1
        assert payload["residual"] < 1e-12

    def test_inclusion(self):
        code, out = run_cli(["radius", "--problem", "inclusion"])
        payload = json.loads(out)
        assert code == EXIT_OK
        assert abs(payload["theta0"] - 1.37502) < 1e-4

    def test_missing_parameter_rejected(self):
        code, _ = run_cli(["radius", "--problem", "convex"])
        assert code == EXIT_REJECTED

    def test_domain_violation_rejected(self):
        code, _ = run_cli(["radius", "--problem", "starlike-order", "--alpha", "0.1"])
        assert code == EXIT_REJECTED


class TestBoundCommand:
    def test_h3_star_special_case(self):
        code, out = run_cli(["bound", "--class", "sl", "--alpha", "0", "--which", "h3"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["value"] - 1 / 9) < 1e-12
        assert payload["caseLabel"] == "sl-star"

    def test_h3_positive_alpha(self):
        code, out = run_cli(["bound", "--class", "sl", "--alpha", "0.5", "--which", "h3"])
        payload = json.loads(out)
        assert payload["caseLabel"].startswith("sl-h3")

    def test_fekete_with_t(self):
        code, out = run_cli(
            ["bound", "--class", "sl", "--alpha", "0", "--which", "fekete", "--t", "1.0"]
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert abs(payload["value"] - 0.5) < 1e-12

    def test_symmetric(self):
        code, out = run_cli(
            ["bound", "--class", "symmetric-starlike", "--which", "h2",
             "--b1", "2", "--b2", "2", "--b3", "2"]
        )
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(1.0)
        assert payload["caseLabel"] == "A"

    def test_alpha_out_of_range_rejected(self):
        code, _ = run_cli(["bound", "--class", "sl", "--alpha", "2", "--which", "h2"])
        assert code == EXIT_REJECTED


class TestExtremalCommand:
    def test_structural_coefficients(self):
        code, out = run_cli(["extremal", "--phi", "psi", "--n", "1", "--order", "5"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["rational"][:6] == ["0", "1", "-1", "3/4", "-19/36", "107/288"]

    def test_text_format(self):
        code, out = run_cli(
            ["--format", "text", "extremal", "--phi", "psi", "--n", "3", "--order", "4"]
        )
        assert code == EXIT_OK
        assert "a_4" in out and "-1/3" in out


class TestCurvesCommand:
    def test_row_count_contract(self):
        code, out = run_cli(["curves", "--id", "tau", "--samples", "16"])
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert lines[0] == "re,im"
        assert len(lines) == 17  # header + 16 samples

    def test_rfc4180_line_endings(self):
        _, out = run_cli(["curves", "--id", "tau4", "--samples", "16"])
        assert "\r\n" in out

    def test_json_format(self):
        code, out = run_cli(["--format", "json", "curves", "--id", "tau1", "--samples", "32"])
        payload = json.loads(out)
        assert payload["samples"] == 32
        assert all(len(p) == 2 for p in payload["points"])

    def test_all_values_finite(self):
        for cid in ("tau", "tau1", "tau2", "tau3", "tau4"):
            _, out = run_cli(["--format", "json", "curves", "--id", cid, "--samples", "64"])
            payload = json.loads(out)
            for re, im in payload["points"]:
                assert math.isfinite(re) and math.isfinite(im)


class TestVerifyCommand:
    def test_lemmas_suite(self):
        code, out = run_cli(["verify", "--suite", "lemmas", "--density", "32"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["failed"] is False

    def test_bloch_suite(self):
        code, out = run_cli(["verify", "--suite", "bloch"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["r0"] - 0.453105) < 1e-4

    def test_conjecture_suite(self):
        code, out = run_cli(["verify", "--suite", "conjecture"])
        assert code == EXIT_OK
        assert json.loads(out)["violations"] == []

    def test_counterexamples_suite(self):
        code, out = run_cli(["verify", "--suite", "counterexamples"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["exceedsUnitDisk"] is True

    def test_membership_small(self):
        code, out = run_cli(["verify", "--suite", "membership", "--samples", "20"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["failed"] is False

    def test_hankel_suite(self):
        code, out = run_cli(["verify", "--suite", "hankel", "--density", "32"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(row["margin"] >= -1e-9 for row in payload["rows"])


class TestClassifyCommand:
    def test_psi(self):
        code, out = run_cli(["classify", "--phi", "psi"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["typicallyRealShift"] is False
        assert payload["positiveRealPart"] is True
        assert payload["realCoefficients"] is True


class TestContracts:
    def test_idempotence(self):
        args = ["--seed", "42", "verify", "--suite", "lemmas", "--density", "32"]
        code1, first = run_cli(args)
        code2, second = run_cli(args)
        assert code1 == code2 == EXIT_OK
        assert first and first == second

    def test_unknown_subcommand_usage_error(self):
        code, _ = run_cli(["frobnicate"])
        assert code == EXIT_USAGE

    def test_unknown_flag_usage_error(self):
        code, _ = run_cli(["radius", "--problem", "majorization", "--frob", "1"])
        assert code == EXIT_USAGE

    def test_config_file_and_flag_precedence(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "gft.cfg"
        cfg_file.write_text("seed=7\noutput_format=json\n")
        monkeypatch.setenv("GFT_CONFIG", str(cfg_file))
        cfg = load_config()
        assert cfg.seed == 7
        # file value reaches the suite when no flag is given
        code, out = run_cli(["verify", "--suite", "membership", "--samples", "15"])
        assert code == EXIT_OK
        assert json.loads(out)["seed"] == 7
        # an explicit flag beats the file
        code, out = run_cli(
            ["--seed", "11", "verify", "--suite", "membership", "--samples", "15"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["seed"] == 11

    def test_config_validation(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "gft.cfg"
        cfg_file.write_text("seed=-1\n")
        monkeypatch.setenv("GFT_CONFIG", str(cfg_file))
        code, _ = run_cli(["radius", "--problem", "majorization"])
        assert code == EXIT_REJECTED

    @pytest.mark.parametrize(
        "text", ["tolerance=1e-6\n", "truncation_order=16\n", "seed=7\nverbose\n"]
    )
    def test_config_unknown_key_or_bare_line_rejected(self, tmp_path, monkeypatch, text):
        cfg_file = tmp_path / "gft.cfg"
        cfg_file.write_text("# comment\n\n" + text)
        monkeypatch.setenv("GFT_CONFIG", str(cfg_file))
        code, out = run_cli(["radius", "--problem", "majorization"])
        assert code == EXIT_REJECTED
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--tolerance", "1e-6", "radius", "--problem", "majorization"],
            ["--truncation-order", "16", "radius", "--problem", "majorization"],
            ["verify", "--suite", "bloch", "--json"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv):
        code, out = run_cli(argv)
        assert code == EXIT_USAGE
        assert out == ""
