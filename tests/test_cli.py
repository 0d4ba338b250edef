import json
import os
import subprocess
import sys

import pytest

from relog import cli
from relog.cli import main
from relog.interp import VerificationTranscript
from relog.logic import MAX_FORMULA_DEPTH

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_PATH = os.path.join(REPO_ROOT, "docs", "report-schema.json")
REPRODUCE_GOLDEN = os.path.join(REPO_ROOT, "tests", "data", "reproduce_default.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    return code, json.loads(out) if out.strip() else json.loads(err)


def validate_report(report):
    import jsonschema

    with open(SCHEMA_PATH, "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.validate(report, schema)


# ---------------------------------------------------------------------------
# Exit codes and verdicts
# ---------------------------------------------------------------------------

def test_check_simple_crystal_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "--property", "simple",
                           "--algebra", "crystal")
    assert code == 0
    assert "holds" in out


def test_entails_failure_exits_one_with_countermodel(capsys):
    code, out, _ = run_cli(capsys, "entails", "--algebra", "crystal",
                           "--premises", "p", "--conclusion", "q")
    assert code == 1
    assert "p=t" in out and "q=bot" in out


def test_entails_modus_ponens_holds(capsys):
    code, out, _ = run_cli(capsys, "entails", "--algebra", "crystal",
                           "--premises", "p, p -> q", "--conclusion", "q")
    assert code == 0


def test_interpolate_example(capsys):
    code, out, _ = run_cli(capsys, "interpolate", "--gamma", "p & q",
                           "--alpha", "q | r")
    assert code == 0
    assert "delta = q" in out


def test_interpolate_no_shared_variables_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "interpolate", "--gamma", "q",
                           "--alpha", "p", "--sigma", "p")
    assert code == 2


def test_usage_error_exits_two(capsys):
    code, _, err = run_cli(capsys, "check", "--property", "simple",
                           "--algebra", "no-such-algebra")
    assert code == 2


def test_bad_subcommand_exits_two(capsys):
    assert main(["definitely-not-a-command"]) == 2


def test_vsp_scan_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "vsp-scan", "--algebra", "crystal")
    assert code == 0
    code, out, _ = run_cli(capsys, "vsp-scan", "--algebra", "boolean2")
    assert code == 1
    assert "p & ~p -> q" in out


def test_validate_mutated_file_exits_one(capsys, tmp_path):
    from relog.algebra import builtin_crystal, serialize

    crystal = builtin_crystal()
    text = serialize(crystal)
    # swap the negation fixed points: residuation must flag it
    lines = text.splitlines()
    assert lines[-1] == "top f a b t bot"
    lines[-1] = "top f b a t bot"
    path = tmp_path / "mutated.alg"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "validate", "--algebra", str(path))
    assert code == 1
    assert "residuation" in out


def test_validate_crystal_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "--algebra", "crystal")
    assert code == 0


def test_amalgamate_single_span(capsys):
    code, out, _ = run_cli(
        capsys, "amalgamate", "--algebra", "crystal",
        "--apex", "bot,a,top", "--left", "bot,t,a,f,top",
        "--right", "bot,t,b,f,top", "--map-right", "a:b", "--bound", "1",
    )
    assert code == 0
    assert "amalgam found in crystal" in out


def test_autos_lists_identity_and_swap(capsys):
    code, out, _ = run_cli(capsys, "autos", "--algebra", "crystal")
    assert code == 0
    assert out.count("->") > 0
    assert "a->b" in out.replace(" ", "").replace("\n", ",") or "a->b" in out


def test_subalgebras_command(capsys):
    code, out, _ = run_cli(capsys, "subalgebras", "--algebra", "crystal")
    assert code == 0
    assert "9 subuniverses" in out
    code, out, _ = run_cli(capsys, "subalgebras", "--algebra", "crystal", "--proper")
    assert "8 subuniverses" in out


def test_congruences_command(capsys):
    code, out, _ = run_cli(capsys, "congruences", "--algebra", "crystal")
    assert code == 0
    assert "2 congruences" in out


def test_free_algebra_command(capsys):
    code, out, _ = run_cli(capsys, "free-algebra", "--algebra", "boolean2",
                           "--generators", "1")
    assert code == 0
    assert "4 elements" in out


def test_homs_command(capsys):
    code, out, _ = run_cli(capsys, "homs", "--source", "boolean2",
                           "--target", "crystal")
    assert code == 0
    assert "3 homs" in out


def test_malformed_pin_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "amalgamate", "--algebra", "crystal",
        "--apex", "bot,a,top", "--left", "bot,t,a,f,top",
        "--right", "bot,t,b,f,top", "--map-right", "a", "--bound", "1",
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("content", [None, '{"gamma": ["p"], "alpha": ', '{"gamma": ["p"]}'],
                         ids=["missing", "invalid-json", "no-alpha"])
def test_bad_problem_file_is_usage_error(capsys, tmp_path, content):
    path = tmp_path / "problem.json"
    if content is not None:
        path.write_text(content)
    code, report = run_json(capsys, "interpolate", "--problem", str(path))
    assert code == 2
    assert report["data"]["error"] == "UsageError"


@pytest.mark.parametrize("argv", [
    ("free-algebra", "--algebra", "boolean2", "--generators", "2", "--cap-elements", "0"),
    ("free-algebra", "--algebra", "boolean2", "--generators", "2",
     "--cap-coordinates", "0"),
    ("interpolate", "--gamma", "p & q", "--alpha", "q | r", "--cap-elements", "0"),
], ids=["free-elements", "free-coordinates", "interpolate-elements"])
def test_zero_cap_is_honoured(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["data"]["error"] == "CapExceeded"


@pytest.mark.parametrize("argv", [
    ("vsp-scan", "--bound", "-1"),
    ("vsp-scan", "--bound", "0"),
    ("amalgamate", "--all-spans", "--bound", "0"),
    ("reproduce", "--instances", "-1"),
    ("reproduce", "--bound", "0"),
    ("free-algebra", "--sample", "-3"),
], ids=["vsp-bound-negative", "vsp-bound-zero", "amalgamate-bound-zero",
        "reproduce-instances-negative", "reproduce-bound-zero", "free-sample-negative"])
def test_count_below_its_least_value_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "is less than" in err


def test_interpolant_failing_its_recheck_is_an_engine_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_interpolant",
                        lambda *args: VerificationTranscript(False, None, None))
    code, out, err = run_cli(capsys, "interpolate", "--gamma", "p & q",
                             "--alpha", "q | r")
    assert code == 2
    assert "holds" not in out + err
    assert "re-check" in err


def test_amalgam_search_past_the_subuniverse_cap_is_an_engine_error(capsys):
    # belnap-m has spans with no amalgam in itself; bound 2 reaches belnap-m^2
    code, report = run_json(capsys, "amalgamate", "--algebra", "belnap-m",
                            "--all-spans", "--bound", "2")
    assert code == 2
    assert report["data"]["error"] == "SizeCapExceeded"


def test_amalgamate_all_spans_defaults_to_bound_one(capsys):
    # bound 1 searches belnap-m alone; its square is over the subuniverse cap
    code, out, _ = run_cli(capsys, "amalgamate", "--algebra", "belnap-m", "--all-spans")
    assert code == 1
    assert out == "799 spans, 216 without amalgam within power bound 1\n"
    code, report = run_json(capsys, "amalgamate", "--algebra", "belnap-m", "--all-spans")
    assert code == 1
    assert report["data"] == {"spans": 799, "failures": 216, "bound": 1}


def test_formula_at_the_depth_limit_is_decided(capsys):
    depth = MAX_FORMULA_DEPTH - 3  # p -> p is ~(p * ~p), three levels
    code, report = run_json(capsys, "entails", "--conclusion",
                            "(" * depth + "p -> p" + ")" * depth)
    assert code == 0
    assert report["verdict"] == "holds"


@pytest.mark.parametrize("conclusion", [
    "~" * (MAX_FORMULA_DEPTH + 1) + "p",
    "~" * 3000 + "p",
    "(" * 600 + "p" + ")" * 600,
], ids=["one-past", "neg-3000", "parens-600"])
def test_formula_past_the_depth_limit_is_usage_error(capsys, conclusion):
    code, report = run_json(capsys, "entails", "--conclusion", conclusion)
    assert code == 2
    assert report["data"]["error"] == "ParseError"
    validate_report(report)


def test_algebra_path_naming_a_directory_is_usage_error(capsys, tmp_path):
    code, report = run_json(capsys, "validate", "--algebra", str(tmp_path))
    assert code == 2
    assert report["data"]["error"] == "DataFileMissing"


def test_algebra_file_not_utf8_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.alg"
    path.write_bytes("algebra caf\xe9\nelements 0 1\n".encode("latin-1"))
    code, report = run_json(capsys, "validate", "--algebra", str(path))
    assert code == 2
    assert report["data"]["error"] == "ParseError"


def test_problem_file_input(capsys, tmp_path):
    problem = {"sigma": ["q"], "gamma": ["p"], "alpha": "p"}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "interpolate", "--problem", str(path))
    assert code == 0
    assert "delta = p" in out


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------

def test_json_reports_validate_against_schema(capsys):
    for argv in (
        ["check", "--property", "simple", "--algebra", "crystal"],
        ["subalgebras", "--algebra", "crystal"],
        ["entails", "--algebra", "crystal", "--premises", "p",
         "--conclusion", "q"],
        ["interpolate", "--gamma", "p & q", "--alpha", "q | r"],
        ["vsp-scan", "--algebra", "boolean2"],
        ["autos", "--algebra", "crystal"],
        ["reproduce", "--instances", "5", "--seed", "3"],
        # error envelopes: no shared variables, not entailed, no such algebra
        ["interpolate", "--gamma", "p", "--alpha", "q"],
        ["interpolate", "--gamma", "p", "--alpha", "p & q"],
        ["check", "--property", "simple", "--algebra", "no-such-algebra"],
    ):
        code, report = run_json(capsys, *argv)
        validate_report(report)  # the schema admits no keys beyond its own
        assert report["exit_code"] == code


@pytest.mark.parametrize("argv", [
    ("--format", "json", "entails", "--conclusion", "p -> p"),
    ("entails", "--conclusion", "p -> p", "--format", "json"),
], ids=["before-subcommand", "after-subcommand"])
def test_format_parses_on_either_side_of_the_subcommand(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {
        "command": "entails", "verdict": "holds", "exit_code": 0,
        "data": {"premises": [], "conclusion": "~(p * ~p)"},
    }


VERDICT_EXIT_CODES = {"holds": 0, "found": 0, "ok": 0, "pass": 0,
                      "fails": 1, "not-found": 1, "error": 2}


def test_text_and_json_verdicts_agree(capsys):
    cases = [
        (["check", "--property", "simple", "--algebra", "crystal"], "holds"),
        (["entails", "--algebra", "crystal", "--premises", "p",
          "--conclusion", "q"], "fails"),
        (["vsp-scan", "--algebra", "crystal"], "holds"),
        (["vsp-scan", "--algebra", "boolean2"], "fails"),
        (["interpolate", "--gamma", "p & q", "--alpha", "q | r"], "found"),
        (["interpolate", "--gamma", "p", "--alpha", "p & q"], "error"),  # not entailed
        (["interpolate", "--gamma", "p", "--alpha", "q"], "error"),      # nothing shared
    ]
    for argv, expected in cases:
        text_code, text_out, text_err = run_cli(capsys, *argv)
        json_code, report = run_json(capsys, *argv)
        assert report["verdict"] == expected, argv
        assert text_code == json_code == report["exit_code"] == \
            VERDICT_EXIT_CODES[expected], argv
        # an error's text goes to stderr, every other verdict's to stdout
        assert bool(text_err) == (expected == "error") != bool(text_out), argv


def test_reproduce_quick_and_deterministic(capsys):
    code1, report1 = run_json(capsys, "reproduce", "--instances", "10",
                              "--seed", "42")
    code2, report2 = run_json(capsys, "reproduce", "--instances", "10",
                              "--seed", "42")
    assert code1 == code2 == 0

    def strip_elapsed(report):
        return [
            {k: v for k, v in item.items() if k != "elapsed"}
            for item in report["items"]
        ]

    assert strip_elapsed(report1) == strip_elapsed(report2)
    statuses = {item["id"]: item["status"] for item in report1["items"]}
    assert statuses["lemma1.subalgebras"] == "pass"
    assert statuses["mip.crystal"] == "pass"
    assert statuses["cep.belnap-m"] == "info"


def test_reproduce_output_matches_the_committed_report(capsys):
    """`relog --format json reproduce` must stay byte-identical apart from
    `elapsed`; the committed report is that output with `elapsed` removed."""
    code, out, _ = run_cli(capsys, "--format", "json", "reproduce")
    report = json.loads(out)
    for item in report["items"]:
        del item["elapsed"]
    with open(REPRODUCE_GOLDEN, "r", encoding="utf-8") as fh:
        assert json.dumps(report, indent=2) + "\n" == fh.read()
    assert code == 0


# ---------------------------------------------------------------------------
# Data dir and subprocess entry point
# ---------------------------------------------------------------------------

def test_belnap_m_with_missing_data_dir(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("RELOG_DATA_DIR", str(tmp_path))
    code, _, err = run_cli(capsys, "validate", "--algebra", "belnap-m")
    assert code == 2
    assert "DataFileMissing" in err or "not found" in err


def test_importing_the_cli_does_not_import_numpy():
    result = subprocess.run(
        [sys.executable, "-c",
         "import relog.cli, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "relog", "check", "--property", "simple",
         "--algebra", "crystal"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "holds" in result.stdout
