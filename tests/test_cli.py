"""CLI tests: dispatch, exit codes, JSON schema conformance, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from retractlab import cli, theorem_lab

SCHEMA = json.loads(
    resources.files("retractlab")
    .joinpath("schemas/cli_output.schema.json")
    .read_text()
)
VALIDATOR = Draft202012Validator(SCHEMA)
Draft202012Validator.check_schema(SCHEMA)


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    out = buf.getvalue()
    assert out.endswith("\n")
    return code, out


def run_module(*argv):
    """Run ``python -m retractlab.cli`` on the package these tests import."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-m", "retractlab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def run_json(*argv):
    code, out = run_cli(*argv)
    obj = json.loads(out)
    VALIDATOR.validate(obj)
    return code, obj


class TestDecisions:
    def test_is_auto_yes(self):
        code, obj = run_json("is-auto", "x+y^2", "y")
        assert code == 0
        assert obj["verdict"] == "yes"
        assert obj["moves"] == [{"elemX": "y^2"}]

    def test_is_auto_no(self):
        code, obj = run_json("is-auto", "x", "x*y")
        assert code == 1
        assert obj["verdict"] == "no"
        assert "jacobian" in obj["reason"]

    def test_decompose_recomposes(self):
        code, obj = run_json("decompose", "x+y^2", "y")
        assert code == 0
        assert obj["recomposes"] is True

    def test_decompose_rejects_non_auto(self):
        code, obj = run_json("decompose", "x^2", "y")
        assert code == 1

    def test_jacobian(self):
        code, obj = run_json("jacobian", "x+y^2", "y")
        assert (code, obj["jacobian"], obj["unit"]) == (0, "1", True)
        code, obj = run_json("jacobian", "x", "x*y")
        assert (code, obj["jacobian"], obj["unit"]) == (0, "x", False)

    def test_coordinate_witness(self):
        code, obj = run_json("is-coordinate-witness", "y+(x+y^3)^2")
        assert code == 0
        assert obj["m"] == 3
        assert obj["moves"] == [{"elemX": "y^3"}, {"elemY": "x^2"}]
        code, obj = run_json("is-coordinate-witness", "x+y")
        assert code == 1 and obj["verdict"] == "no"


class TestRetractCommands:
    def test_verify_retract(self):
        code, obj = run_json("verify-retract", "x+y^2", "z", "0")
        assert code == 0 and obj == {"verdict": "yes", "image": "z"}
        code, obj = run_json("verify-retract", "x+y^2", "z", "1")
        assert code == 1 and obj["image"] == "z + 1"

    def test_find_retract_documented_pair(self):
        code, obj = run_json("find-retract", "x^2*y", "--max-deg", "2")
        assert code == 0
        assert (obj["s"], obj["t"]) == ("1", "z")

    def test_find_retract_negative(self):
        code, obj = run_json("find-retract", "x^2+y^2", "--max-deg", "1")
        assert code == 1
        assert "<= 1" in obj["reason"]

    def test_make_retract_is_certified(self):
        from retractlab.parsing import parse_poly2, parse_unipoly
        from retractlab.poly_core import UniPoly
        from retractlab.retracts import verify_retract_generator

        code, obj = run_json("make-retract", "--seed", "3")
        assert code == 0
        p = parse_poly2(obj["p"])
        s = parse_unipoly(obj["s"])
        t = parse_unipoly(obj["t"])
        assert verify_retract_generator(p, s, t)

    def test_generates_kz(self):
        code, obj = run_json("generates-kz", "z", "z^2", "--bound", "4")
        assert code == 0 and obj["verdict"] == "yes"
        # the cusp pair never reaches z
        code, obj = run_json("generates-kz", "z^2", "z^3", "--bound", "8")
        assert code == 1 and obj["verdict"] == "no"


class TestTheoremCommands:
    def test_normalize(self):
        code, obj = run_json("normalize", "x+y*x", "2*y+x^2", "--h", "x")
        assert code == 0
        assert obj["h1"] == "x"
        assert obj["normal_f"] == "x*y + x"

    def test_normalize_rejects_inconsistent_h(self):
        code, obj = run_json("normalize", "x+y*x", "2*y+x^2", "--h", "y")
        assert code == 2
        assert "error" in obj

    def test_normalize_image_in_kx(self):
        code, obj = run_json("normalize", "x", "0", "--h", "0")
        assert code == 1
        assert "K[x]" in obj["reason"]

    def test_witness(self):
        code, obj = run_json("witness", "--h1", "0", "--n", "4")
        assert code == 0
        assert obj["m"] == 5
        assert obj["coordinate"] == "x^2 + 2*x*y^5 + y^10 + y"
        assert obj["moves"] == [{"elemX": "y^5"}, {"elemY": "x^2"}]

    def test_reduce_automorphism(self):
        code, obj = run_json("reduce", "x+y^2", "y+(x+y^2)^2")
        assert code == 0
        assert obj["kind"] == "automorphism"
        assert obj["steps"] >= 1
        assert obj["trace"][0] == {"elemY": "-x^2"}

    def test_reduce_stuck(self):
        code, obj = run_json("reduce", "x", "x*y")
        assert code == 1
        assert obj["kind"] == "stuck"
        assert "neither leading monomial" in obj["stuck"]["detail"]

    def test_reduce_budget(self):
        code, obj = run_json(
            "reduce", "x+y^2", "y+(x+y^2)^2", "--max-steps", "0"
        )
        assert code == 1
        assert obj["kind"] == "budget"
        assert obj["steps"] == 0

    def test_reduce_rejects_negative_budget(self):
        for argv in (
            ("reduce", "x+y^2", "y+(x+y^2)^2", "--max-steps", "-1"),
            ("reduce", "x", "y", "--max-steps", "-5"),
        ):
            code, obj = run_json(*argv)
            assert code == 2, argv
            assert "max_steps" in obj["error"]

    def test_reduce_is_one_pass(self, monkeypatch):
        calls = []
        step = theorem_lab.reduction_step

        def counting(psi):
            calls.append(psi)
            return step(psi)

        monkeypatch.setattr(theorem_lab, "reduction_step", counting)
        monkeypatch.setattr(cli, "reduction_step", counting, raising=False)
        code, obj = run_json("reduce", "x+y^2", "y+(x+y^2)^2")
        assert (code, obj["steps"]) == (0, 1)
        # one call per applied move plus the call that finds the linear slot
        assert len(calls) == 2

    def test_reduce_trace_opens_trail(self):
        for argv in (
            ("reduce", "x+y^2", "y+(x+y^2)^2"),
            ("reduce", "x+(y+x^2)^2", "y+x^2"),
        ):
            code, obj = run_json(*argv)
            assert code == 0 and obj["steps"] >= 1
            assert obj["trace"] == obj["trail"][: obj["steps"]]

    def test_reduce_trace_lists_applied_moves(self):
        code, obj = run_json("reduce", "x+y^2", "(x+y^2)^2+y^3")
        assert (code, obj["kind"], obj["steps"]) == (1, "stuck", 1)
        assert obj["trace"] == [{"elemY": "-x^2"}]
        code, obj = run_json("reduce", "x+(y+x^2)^2", "y+x^2", "--max-steps", "1")
        assert (code, obj["kind"], obj["steps"]) == (1, "budget", 1)
        assert obj["trace"] == [{"elemX": "-y^2"}]

    def test_experiment(self):
        code, obj = run_json("experiment", "--seed", "7", "--trials", "5")
        assert code == 0
        assert obj["ok"] is True
        assert obj["summary"].startswith("ok:")
        assert len(obj["positive"]) == 5

    def test_experiment_rejects_zero_trials(self):
        code, obj = run_json("experiment", "--trials", "0")
        assert code == 2


class TestNcVerify:
    def test_rationals(self):
        code, obj = run_json("nc-verify", "x + y^2", "z", "0")
        assert code == 0
        assert obj["passed"] is True
        assert obj["field"] == "Q"

    def test_prime_field(self):
        code, obj = run_json("nc-verify", "x + y^2", "z", "0", "--field", "fp:5")
        assert code == 0
        assert obj["field"] == "F_5"

    def test_non_certificate_is_usage_error(self):
        code, obj = run_json("nc-verify", "y", "z", "0")
        assert code == 2
        assert obj["error"] == "input is not a retract certificate"

    def test_bad_field_flags(self):
        assert run_json("nc-verify", "x", "z", "0", "--field", "fp:6")[0] == 2
        assert run_json("nc-verify", "x", "z", "0", "--field", "r")[0] == 2


class TestOutputContract:
    ALL_COMMANDS = [
        ("is-auto", "x+y^2", "y"),
        ("is-auto", "x", "x*y"),
        ("decompose", "x+y", "x-y"),
        ("jacobian", "x*y", "y"),
        ("is-coordinate-witness", "y+(x+y^2)^2"),
        ("is-coordinate-witness", "y^2"),
        ("verify-retract", "x+y^2", "z", "0"),
        ("find-retract", "x^2*y", "--max-deg", "2"),
        ("find-retract", "x^2+y^2", "--max-deg", "1"),
        ("make-retract", "--seed", "11"),
        ("generates-kz", "z^2", "z^3", "--bound", "6"),
        ("normalize", "x+y*x", "2*y+x^2", "--h", "x"),
        ("normalize", "x", "0", "--h", "0"),
        ("witness", "--h1", "y^2", "--n", "3"),
        ("reduce", "x+y^2", "y+(x+y^2)^2"),
        ("reduce", "x", "x*y"),
        ("experiment", "--seed", "1", "--trials", "3"),
        ("nc-verify", "x + y^2", "z", "0"),
        ("is-auto", "x+", "y"),
        ("is-auto", "x^5000", "y"),
    ]

    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: " ".join(a))
    def test_every_output_validates(self, argv):
        code, obj = run_json(*argv)
        assert code in (0, 1, 2)

    def test_parse_error_positions(self):
        code, obj = run_json("is-auto", "x*y~", "y")
        assert code == 2
        assert "line 1, column 4" in obj["error"]

    def test_seeded_outputs_are_byte_identical(self):
        for argv in (
            ("make-retract", "--seed", "5"),
            ("experiment", "--seed", "9", "--trials", "4"),
        ):
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first == second

    def test_long_sum_exits_0(self):
        code, obj = run_json("jacobian", "+".join(["x"] * 1200), "y")
        assert (code, obj) == (0, {"jacobian": "1200", "unit": True})

    def test_deep_nesting_exits_2(self):
        code, obj = run_json("jacobian", "(" * 1000 + "x" + ")" * 1000, "y")
        assert code == 2
        assert "nested deeper" in obj["error"]
        assert "line 1, column 101" in obj["error"]

    def test_text_mode(self):
        code, out = run_cli("jacobian", "x+y^2", "y", "--text")
        assert code == 0
        assert out == "jacobian: 1\nunit: True\n"
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_console_script_round_trip(self):
        proc = run_module("witness", "--n", "2")
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        VALIDATOR.validate(obj)
        assert proc.stdout.endswith("\n")

    def test_log_env_traces_to_stderr(self, monkeypatch):
        monkeypatch.setenv("RETRACTLAB_LOG", "DEBUG")
        proc = run_module("jacobian", "x", "y")
        assert proc.returncode == 0
        assert "retractlab" in proc.stderr


class TestCachedParser:
    """main builds its argument parser once per process; nothing of one
    call's namespace may reach the next."""

    def test_text_then_json(self):
        code, out = run_cli("jacobian", "x+y^2", "y", "--text")
        assert (code, out) == (0, "jacobian: 1\nunit: True\n")
        code, obj = run_json("jacobian", "x+y^2", "y")
        assert (code, obj) == (0, {"jacobian": "1", "unit": True})

    def test_option_value_does_not_leak(self):
        code, obj = run_json("reduce", "x+(y+x^2)^2", "y+x^2", "--max-steps", "1")
        assert (code, obj["kind"]) == (1, "budget")
        code, obj = run_json("reduce", "x+(y+x^2)^2", "y+x^2")
        assert (code, obj["kind"]) == (0, "automorphism")

    def test_malformed_then_valid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reduce", "x", "y", "--max-steps", "many"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        code, obj = run_json("is-auto", "x+y^2", "y")
        assert (code, obj["verdict"]) == (0, "yes")
        assert obj["moves"] == [{"elemX": "y^2"}]
