"""Command-line front end: contracts on output shape, exit codes, determinism."""

import inspect
import io
import json
import math
from fractions import Fraction

import pytest

import gft
from gft import catalog, radius
from gft.cli import (
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_USAGE,
    FORMATS,
    RADIUS_PROBLEMS,
    SL_BOUNDS,
    SUITES,
    _parameters,
    _symmetric_h2,
    build_parser,
    finite,
    main,
    rational,
)


def run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


def with_flags(argv, flags):
    """argv plus ``{flag: value}``; --seed is top-level, so it goes first."""
    top = [a for flag, value in flags.items() if flag == "seed" for a in ("--seed", value)]
    sub = [a for flag, value in flags.items() if flag != "seed" for a in (f"--{flag}", value)]
    return [*top, *argv, *sub]


# (flags the selected entry does not read, a command that runs without them)
UNREAD_FLAGS = [
    *(({"seed": "5"}, argv) for argv in (
        ["radius", "--problem", "majorization"],
        ["bound", "--class", "sl", "--which", "h2"],
        ["extremal", "--phi", "psi"],
        ["curves", "--id", "tau", "--samples", "32"],
        ["classify", "--phi", "psi", "--grid", "64"],
        ["verify", "--suite", "lemmas", "--density", "32"],
        ["verify", "--suite", "hankel", "--density", "32"],
        ["verify", "--suite", "bloch"],
        ["verify", "--suite", "conjecture"],
        ["verify", "--suite", "counterexamples"],
    )),
    ({"alpha": "0.3"}, ["radius", "--problem", "majorization"]),
    ({"k": "2"}, ["radius", "--problem", "inclusion"]),
    ({"t": "2"}, ["bound", "--class", "sl", "--which", "h2"]),
    ({"b1": "2"}, ["bound", "--class", "sl", "--which", "a4"]),
    ({"alpha": "0.5"}, ["bound", "--class", "symmetric-convex", "--which", "h2"]),
    ({"density": "200"}, ["verify", "--suite", "bloch"]),
    ({"samples": "5"}, ["verify", "--suite", "conjecture"]),
    ({"samples": "3"}, ["verify", "--suite", "hankel", "--density", "32"]),
]

USAGE = ("usage: gft [-h] [--format {json,csv,text}] [--seed SEED]\n"
         "           {radius,bound,extremal,curves,verify,classify} ...\n")

# every entry of the three selector tables, and two valid values of each flag
SELECTIONS = [
    *(["radius", "--problem", key] for key in RADIUS_PROBLEMS),
    *(["bound", "--class", "sl", "--which", key] for key in SL_BOUNDS),
    *(["bound", "--class", klass, "--which", "h2"]
      for klass in ("symmetric-starlike", "symmetric-convex")),
    *(["verify", "--suite", key] for key in SUITES),
]
FLAG_VALUES = {
    "alpha": ("0.4", "0.5"), "beta": ("1.5", "2"), "gamma": ("0.25", "0.4"), "k": ("1", "2"),
    "t": ("0.5", "2"), "b1": ("1", "2"), "b2": ("0.5", "2"), "b3": ("0.5", "2"),
    "samples": ("2", "3"), "density": ("32", "48"), "seed": ("1", "2"),
}


class TestRadiusCommand:
    def test_k_starlike_parabolic(self):
        code, out = run_cli(["radius", "--problem", "k-starlike", "--k", "1"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["equationId"] == "root1"
        assert abs(payload["root"] - 0.462117) < 1e-6

    def test_k_starlike_large_k_exits_rejected(self, capsys):
        code, out = run_cli(["radius", "--problem", "k-starlike", "--k", "1e15"])
        assert (code, out) == (EXIT_REJECTED, "")
        assert "too large" in capsys.readouterr().err

    def test_k_starlike_k_1e4_gives_its_root(self):
        code, out = run_cli(["radius", "--problem", "k-starlike", "--k", "1e4"])
        assert code == EXIT_OK
        assert abs(json.loads(out)["root"] - 9.9985e-05) < 1e-9

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

    def test_symmetric_defaults_are_psi_head(self):
        # literals, as gft.cli imports no library module; they must stay psi's head
        from gft.bounds import PSI_B

        assert _symmetric_h2.__defaults__ == tuple(PSI_B)

    def test_alpha_out_of_range_rejected(self):
        code, _ = run_cli(["bound", "--class", "sl", "--alpha", "2", "--which", "h2"])
        assert code == EXIT_REJECTED

    @pytest.mark.parametrize("text", ["0.3", "3/10", "0.30"])
    def test_alpha_is_parsed_exactly(self, text):
        code, out = run_cli(["bound", "--class", "sl", "--alpha", text, "--which", "a4"])
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["inputsEcho"]["alpha"] == "3/10"
        assert payload["value"] == float(Fraction(19, 36) / (1 + 3 * Fraction(3, 10)))

    @pytest.mark.parametrize("text", ["0.3x", "1/0", "1e-100000000", "1e100", "1e"])
    def test_alpha_not_rational_is_usage_error(self, text, capsys):
        code, out = run_cli(["bound", "--class", "sl", "--alpha", text, "--which", "a4"])
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument --alpha: invalid rational value: '{text}'" in capsys.readouterr().err

    def test_alpha_exponent_below_100_accepted(self):
        code, out = run_cli(["bound", "--class", "sl", "--alpha", "25e-2", "--which", "a4"])
        assert code == EXIT_OK
        assert json.loads(out)["inputsEcho"]["alpha"] == "1/4"


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

    @pytest.mark.parametrize("order", ["0", "-3"])
    @pytest.mark.parametrize("kind", ["t", "d"])
    def test_order_below_one_rejected(self, kind, order, capsys):
        code, out = run_cli(["extremal", "--phi", "psi", "--kind", kind, "--order", order])
        assert code == EXIT_REJECTED
        assert out == ""
        assert "order must be at least 1" in capsys.readouterr().err


class TestCurvesCommand:
    def test_row_count_contract(self):
        code, out = run_cli(["curves", "--id", "tau", "--samples", "16"])
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert lines[0] == "re,im"
        assert len(lines) == 17  # header + 16 samples

    def test_rfc4180_line_endings(self):
        argv = ["curves", "--id", "tau4", "--samples", "16"]
        _, out = run_cli(argv)
        assert out.startswith("re,im\r\n")
        # an explicit --format csv is the default
        assert run_cli(["--format", "csv", *argv]) == (EXIT_OK, out)

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

    def test_lemmas_suite_gates_every_violation(self, monkeypatch):
        from gft import verify

        monkeypatch.setattr(verify, "eq_p31_check", lambda density: {
            "max_cubic": 2.0, "max_violation_cubic": 0.0,
            "max_quartic_on_power_maps": 2.5, "max_violation_quartic": 0.5})
        code, out = run_cli(["verify", "--suite", "lemmas", "--density", "32"])
        assert code == EXIT_REJECTED
        assert json.loads(out)["failed"] is True

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
        args = ["--seed", "42", "verify", "--suite", "membership", "--samples", "15"]
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

    def test_parser_choices_are_the_library_names(self):
        assert catalog.CATALOG_NAMES is gft.CATALOG_NAMES
        assert radius.CURVE_IDS is gft.CURVE_IDS
        assert gft.CATALOG_NAMES == tuple(sorted([*catalog._CATALOG, *catalog._BASE]))
        for curve_id in gft.CURVE_IDS:
            assert radius.curve_points(curve_id, 16)
        choices = {
            action.dest: action.choices
            for sub in build_parser()._subparsers._group_actions[0].choices.values()
            for action in sub._actions if action.dest in ("phi", "id")
        }
        assert choices == {"phi": gft.CATALOG_NAMES, "id": gft.CURVE_IDS}

    @pytest.mark.parametrize("argv", [
        ["extremal", "--phi", "log_one_plus_z"],
        ["classify", "--phi", "PSI", "--grid", "64"],
        ["curves", "--id", "tau5"],
    ])
    def test_unknown_choice_usage_error(self, argv):
        code, out = run_cli(argv)
        assert code == EXIT_USAGE
        assert out == ""

    def test_negative_seed_rejected(self, capsys):
        argv = ["--seed", "-1", "verify", "--suite", "membership", "--samples", "5"]
        assert run_cli(argv) == (EXIT_REJECTED, "")
        assert capsys.readouterr().err == "error: seed must be at least 0\n"

    # (contents of a file the CLI once read as $GFT_CONFIG, a command it would
    # have changed or rejected): each format is one the command renders but
    # not its default, or one it does not render; the last three lines were
    # rejected as an unknown key, a bare line and a negative seed
    @pytest.mark.parametrize("text, argv", [
        ("seed=7\noutput_format=text\n", ["verify", "--suite", "membership", "--samples", "15"]),
        ("output_format=text\n", ["radius", "--problem", "inclusion"]),
        ("output_format=text\n", ["bound", "--class", "sl", "--alpha", "0", "--which", "h3"]),
        ("output_format=text\n", ["extremal", "--phi", "psi"]),
        ("output_format=json\n", ["curves", "--id", "tau", "--samples", "32"]),
        ("output_format=csv\n", ["classify", "--phi", "psi", "--grid", "64"]),
        ("output_format=text\n", ["verify", "--suite", "bloch"]),
        ("tolerance=1e-6\n", ["radius", "--problem", "majorization"]),
        ("seed=7\nverbose\n", ["radius", "--problem", "majorization"]),
        ("seed=-1\n", ["radius", "--problem", "majorization"]),
    ], ids=["membership-text", "radius-text", "bound-text", "extremal-text", "curves-json",
            "classify-csv", "verify-text", "unknown-key", "bare-line", "negative-seed"])
    def test_environment_sets_no_option(self, tmp_path, monkeypatch, text, argv):
        plain = run_cli(argv)
        assert plain[0] == EXIT_OK
        cfg_file = tmp_path / "gft.cfg"
        cfg_file.write_text(text)
        monkeypatch.setenv("GFT_CONFIG", str(cfg_file))
        assert run_cli(argv) == plain

    # with no --format, each command renders the first format FORMATS lists for it
    @pytest.mark.parametrize("argv", [
        ["radius", "--problem", "inclusion"],
        ["bound", "--class", "sl", "--which", "h2"],
        ["extremal", "--phi", "psi"],
        ["curves", "--id", "tau", "--samples", "32"],
        ["verify", "--suite", "bloch"],
        ["classify", "--phi", "psi", "--grid", "64"],
    ], ids=lambda argv: argv[0])
    def test_default_format_is_the_first_rendered(self, argv):
        plain = run_cli(argv)
        assert plain[0] == EXIT_OK
        assert run_cli(["--format", FORMATS[argv[0]][0], *argv]) == plain
        for fmt in FORMATS[argv[0]][1:]:
            assert run_cli(["--format", fmt, *argv])[1] != plain[1]

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

    # positional ids: argv0-argv9 are the --seed cases
    @pytest.mark.parametrize("extra, argv", UNREAD_FLAGS,
                             ids=[f"argv{i}" for i in range(len(UNREAD_FLAGS))])
    def test_seed_on_unseeded_run_is_usage_error(self, extra, argv):
        code, out = run_cli(with_flags(argv, extra))
        assert code == EXIT_USAGE
        assert out == ""
        # the same command without the unread flag runs
        assert run_cli(argv)[0] == EXIT_OK

    @pytest.mark.parametrize("argv", SELECTIONS, ids=" ".join)
    def test_every_flag_an_entry_reads_changes_its_output(self, argv):
        args = build_parser().parse_args(argv)
        reads = inspect.signature(args.select(args)).parameters
        base = {name: FLAG_VALUES[name][0] for name in reads}
        for flag in reads:
            outputs = []
            for value in FLAG_VALUES[flag]:
                code, out = run_cli(with_flags(argv, {**base, flag: value}))
                assert code == EXIT_OK, (flag, value)
                outputs.append(out)
            assert outputs[0] != outputs[1], flag

    # the CLI reads parameters from __code__ and __defaults__, so a cold process
    # need not import inspect; inspect.signature is the reference
    @pytest.mark.parametrize("argv", SELECTIONS, ids=" ".join)
    def test_flag_rule_reads_the_parameters_signature_gives(self, argv):
        args = build_parser().parse_args(argv)
        entry = args.select(args)
        expected = [(name, param.default is param.empty)
                    for name, param in inspect.signature(entry).parameters.items()]
        assert list(_parameters(entry).items()) == expected

    @pytest.mark.parametrize("argv, code, err", [
        (["radius", "--problem", "majorization", "--alpha", "0.5"], EXIT_USAGE,
         USAGE + "gft: error: --alpha is not read by this radius run "
                 "(it reads no optional flag)\n"),
        (["radius", "--problem", "convex"], EXIT_REJECTED,
         "error: --alpha required for this radius run\n"),
        (["--seed", "3", "bound", "--class", "sl", "--which", "a4"], EXIT_USAGE,
         USAGE + "gft: error: --seed is not read by this bound run (it reads --alpha)\n"),
        (["bound", "--class", "symmetric-convex", "--which", "h2", "--alpha", "0.5"], EXIT_USAGE,
         USAGE + "gft: error: --alpha is not read by this bound run "
                 "(it reads --b1, --b2, --b3)\n"),
        (["verify", "--suite", "membership", "--density", "3"], EXIT_USAGE,
         USAGE + "gft: error: --density is not read by this verify run "
                 "(it reads --seed, --samples)\n"),
    ], ids=["unread-alpha", "missing-alpha", "unread-seed", "unread-partial", "unread-density"])
    def test_flag_rule_messages(self, argv, code, err, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to the terminal
        assert run_cli(argv) == (code, "")
        assert capsys.readouterr().err == err


# every float flag (and --alpha of bound, an exact rational) with a command that reads it
NUMBER_FLAGS = [
    ("alpha", ["radius", "--problem", "starlike-order"]),
    ("beta", ["radius", "--problem", "m-beta"]),
    ("gamma", ["radius", "--problem", "strongly-starlike"]),
    ("k", ["--format", "text", "radius", "--problem", "k-starlike"]),
    ("alpha", ["bound", "--class", "sl", "--which", "a4"]),
    ("t", ["--format", "text", "bound", "--class", "sl", "--alpha", "0.5", "--which", "fekete"]),
    ("b1", ["bound", "--class", "symmetric-starlike", "--which", "h2"]),
    ("b2", ["bound", "--class", "symmetric-starlike", "--which", "h2"]),
    ("b3", ["bound", "--class", "symmetric-convex", "--which", "h2"]),
]


class TestOutputContracts:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "infinity"])
    @pytest.mark.parametrize("flag, argv", NUMBER_FLAGS, ids=[
        f"{flag}-{argv[argv.index('--class') + 1] if '--class' in argv else argv[-1]}"
        for flag, argv in NUMBER_FLAGS])
    def test_non_finite_flag_is_usage_error(self, flag, argv, value, capsys):
        code, out = run_cli([*argv, f"--{flag}={value}"])
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument --{flag}: invalid" in capsys.readouterr().err

    def test_number_flags_cover_every_float_flag(self):
        # a number flag added to the parser without a NUMBER_FLAGS entry fails here
        sub = next(a for a in build_parser()._actions if a.dest == "command").choices
        numbers = {(name, action.dest) for name, p in sub.items() for action in p._actions
                   if action.type in (float, finite, rational)}
        assert numbers == {("bound" if "bound" in argv else "radius", flag)
                           for flag, argv in NUMBER_FLAGS}
        assert not any(action.type is float for p in sub.values() for action in p._actions)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_membership_sample_count_below_one_rejected(self, samples):
        code, out = run_cli(["verify", "--suite", "membership", "--samples", samples])
        assert code == EXIT_REJECTED
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["bound", "--class", "symmetric-convex", "--which", "h2", "--b1", "1e200"],
        ["bound", "--class", "symmetric-convex", "--which", "h2", "--b2", "1e300"],
        ["bound", "--class", "symmetric-starlike", "--which", "h2", "--b1", "1e200"],
    ], ids=["convex-b1", "convex-b2", "starlike-b1"])
    def test_overflow_is_rejected_without_traceback(self, argv, capsys):
        assert run_cli(argv) == (EXIT_REJECTED, "")
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("density", ["1", "31", "-5"])
    def test_lemma_density_below_32_rejected(self, density, capsys):
        code, out = run_cli(["verify", "--suite", "lemmas", "--density", density])
        assert (code, out) == (EXIT_REJECTED, "")
        assert capsys.readouterr().err == "error: density must be at least 32\n"

    def test_non_finite_payload_leaves_stdout_empty(self, monkeypatch):
        from gft import verify

        # sorted keys put "value" last, so a streaming encoder would already
        # have written the keys before it
        monkeypatch.setattr(
            verify, "bloch_class_envelope",
            lambda: {"r0": 0.45, "value": math.inf, "grid_argmax": 0.45},
        )
        code, out = run_cli(["verify", "--suite", "bloch"])
        assert code == EXIT_REJECTED
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--format", "csv", "radius", "--problem", "inclusion"],
            ["--format", "csv", "bound", "--class", "sl", "--which", "h2"],
            ["--format", "csv", "extremal", "--phi", "psi"],
            ["--format", "text", "curves", "--id", "tau", "--samples", "32"],
            ["--format", "text", "verify", "--suite", "bloch"],
            ["--format", "csv", "verify", "--suite", "bloch"],
            ["--format", "text", "classify", "--phi", "psi", "--grid", "64"],
            ["--format", "csv", "classify", "--phi", "psi", "--grid", "64"],
        ],
    )
    def test_unrendered_format_is_usage_error(self, argv):
        code, out = run_cli(argv)
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("klass", ["symmetric-starlike", "symmetric-convex"])
    @pytest.mark.parametrize("which", [key for key in SL_BOUNDS if key != "h2"])
    def test_symmetric_class_without_the_bound_is_usage_error(self, klass, which):
        code, out = run_cli(["bound", "--class", klass, "--which", which])
        assert code == EXIT_USAGE
        assert out == ""
