import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from relog import cli, reproduce
from relog.algebra import BUILTIN_NAMES, builtin, builtin_crystal, serialize
from relog.cli import main
from relog.interp import VerificationTranscript
from relog.logic import MAX_FORMULA_DEPTH
from relog.reproduce import run_claims_suite
from relog.subcon import all_subuniverses

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


@pytest.mark.parametrize("algebra, hs, code, out", [
    ("belnap-m", False, 0, "holds"),
    ("belnap-m", True, 1, "fails: countermodel in belnap_m[n3+n2+p2+p3]%3: p=n2+p2, q=n3"),
    ("crystal", False, 1, "fails: countermodel in crystal: p=t, q=bot"),
    ("crystal", True, 1, "fails: countermodel in crystal[bot+a+top]%3: p=a, q=bot"),
])
def test_entails_decides_the_matrix_and_with_use_hs_class_the_variety(
        capsys, algebra, hs, code, out):
    argv = ["entails", "--algebra", algebra, "--premises", "~p * p | q", "--conclusion", "q"]
    assert run_cli(capsys, *argv, *["--use-hs-class"] * hs) == (code, out + "\n", "")


def test_amalgamate_with_an_apex_that_is_not_closed_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "amalgamate", "--algebra", "crystal", "--apex", "t,f",
                             "--left", "bot,t,f,top", "--right", "bot,t,f,top")
    assert (code, out, err) == (2, "", "error: subset not closed at f,f\n")


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


def _crystal_files(tmp_path):
    """A crystal file, and one whose neg fails the axiom checklist."""
    from relog.algebra import builtin_crystal, serialize

    text = serialize(builtin_crystal())
    plain = tmp_path / "crystal.alg"
    plain.write_text(text)
    # neg sends both a and b to a: not an involution
    lines = text.splitlines()
    assert lines[-1] == "top f a b t bot"
    lines[-1] = "top f a a t bot"
    bent = tmp_path / "bent.alg"
    bent.write_text("\n".join(lines) + "\n")
    return plain, bent


def test_algebra_file_failing_the_checklist_warns_once_on_stderr(capsys, tmp_path):
    plain, bent = _crystal_files(tmp_path)
    warning = (f"warning: crystal from {bent} fails the relevant-algebra axioms "
               "neg-involution, neg-de-morgan, residuation; the command runs anyway\n")

    code, out, err = run_cli(capsys, "subalgebras", "--algebra", str(bent))
    assert (code, err) == (0, warning)
    assert out.splitlines()[0] == "6 subuniverses of crystal:"
    code, out, err = run_cli(capsys, "--format", "json", "subalgebras",
                             "--algebra", str(bent))
    assert (code, err) == (0, warning)
    assert len(json.loads(out)["data"]["universes"]) == 6
    # a file that passes, and `validate` itself, print no warning
    assert run_cli(capsys, "subalgebras", "--algebra", str(plain))[2] == ""
    code, out, err = run_cli(capsys, "validate", "--algebra", str(bent))
    assert (code, err) == (1, "")
    assert "[FAIL] neg-involution" in out


def test_checklist_warning_is_in_json_data_only_when_present(capsys, tmp_path):
    plain, bent = _crystal_files(tmp_path)
    warning = (f"crystal from {bent} fails the relevant-algebra axioms "
               "neg-involution, neg-de-morgan, residuation; the command runs anyway")
    code, out, err = run_cli(capsys, "--format", "json", "entails",
                             "--algebra", str(bent), "--conclusion", "p -> p")
    report = json.loads(out)
    validate_report(report)
    assert (code, err) == (report["exit_code"], f"warning: {warning}\n")
    assert report["data"]["warnings"] == [warning]
    # the warning comes along when the command then fails with an error
    ten = " | ".join(f"p{i}" for i in range(10))
    code, out, err = run_cli(capsys, "--format", "json", "entails",
                             "--algebra", str(bent), "--conclusion", ten)
    report = json.loads(err.split("\n", 1)[1])
    validate_report(report)
    assert code == 2
    assert report["data"] == {"error": "SizeCapExceeded", "message": report["data"]["message"],
                              "warnings": [warning]}
    # no warning, no key: the report of a passing file is the builtin's
    code, out, err = run_cli(capsys, "--format", "json", "entails",
                             "--algebra", str(plain), "--conclusion", "p -> p")
    assert (code, err) == (0, "")
    assert "warnings" not in json.loads(out)["data"]
    assert run_cli(capsys, "--format", "json", "entails", "--algebra", "crystal",
                   "--conclusion", "p -> p")[1] == out


def test_validate_crystal_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "--algebra", "crystal")
    assert code == 0


def test_amalgamate_single_span(capsys):
    code, out, _ = run_cli(
        capsys, "amalgamate", "--algebra", "crystal",
        "--apex", "bot,a,top", "--left", "bot,t,a,f,top",
        "--right", "bot,t,b,f,top", "--map-right", "a:b",
    )
    assert code == 0
    assert "amalgam found in crystal" in out


def test_amalgamate_with_a_repeated_member_reads_the_list_as_a_set(capsys):
    argv = ["amalgamate", "--algebra", "crystal", "--left", "bot,a,top", "--right", "bot,b,top"]
    assert run_cli(capsys, *argv, "--apex", "bot,top,top") \
        == run_cli(capsys, *argv, "--apex", "bot,top")
    code, report = run_json(capsys, *argv, "--apex", "bot,top,top")
    assert (code, report["data"]["target"]) == (0, "crystal")


def test_amalgamate_warning_is_in_json_data_only_when_present(capsys, tmp_path):
    """boolean2^2 passes the checklist: no warning, in either format.  The
    same square with fusion replaced by join fails residuation: its
    checklist warning goes to stderr, and to `data.warnings` under --format
    json, and the decision runs, as its meet and join are a lattice."""
    from relog.algebra import FiniteAlgebra, builtin_boolean2, power, serialize

    square = power(builtin_boolean2(), 2)
    path = tmp_path / "square.alg"
    path.write_text(serialize(square))
    argv = ("amalgamate", "--algebra", str(path), "--apex", "0.0,1.1",
            "--left", "0.0,0.1,1.0,1.1", "--right", "0.0,1.1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == "amalgam found in boolean2^2\n  0.0 -> 0.0 = 0.0\n  1.1 -> 1.1 = 1.1\n"
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    report = json.loads(out)
    validate_report(report)
    assert (code, err) == (0, "")
    assert "warnings" not in report["data"]
    assert report["data"]["evidence"] == [
        {"apex": "0.0", "via_left": "0.0", "via_right": "0.0"},
        {"apex": "1.1", "via_left": "1.1", "via_right": "1.1"},
    ]
    unresiduated = tmp_path / "unresiduated.alg"
    unresiduated.write_text(serialize(FiniteAlgebra(
        "unresiduated", square.elements, square.meet, square.join, square.join, square.neg)))
    warning = (f"unresiduated from {unresiduated} fails the relevant-algebra axioms "
               f"residuation; the command runs anyway")
    code, report = run_json(capsys, "amalgamate", "--algebra", str(unresiduated),
                            "--apex", "0.0,1.1", "--left", "0.0,1.1", "--right", "0.0,1.1")
    assert code == 0
    assert report["data"]["warnings"] == [warning]
    assert capsys.readouterr().err == ""  # the warning line was read with the report


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


def test_proper_drops_only_the_full_universe_and_include_empty_adds_the_empty_one(capsys):
    def universes(*flags):
        code, report = run_json(capsys, "subalgebras", "--algebra", "crystal", *flags)
        assert code == 0
        return report["data"]["universes"]

    every = universes("--include-empty")
    assert len(every) == 10 and every[0] == [] and len(every[-1]) == 6
    assert universes("--proper", "--include-empty") == every[:-1]
    assert universes("--proper") == every[1:-1]
    assert universes() == every[1:]


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
        "--right", "bot,t,b,f,top", "--map-right", "a",
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("pin, error", [("a:t", "UsageError"), ("a:a", "UnknownElement")],
                         ids=["no-embedding", "outside-the-subalgebra"])
def test_unsatisfiable_pin_is_an_error(capsys, pin, error):
    code, report = run_json(
        capsys, "amalgamate", "--algebra", "crystal",
        "--apex", "bot,a,top", "--left", "bot,t,a,f,top",
        "--right", "bot,t,b,f,top", "--map-right", pin,
    )
    assert (code, report["data"]["error"]) == (2, error)


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


@pytest.mark.parametrize("algebra, generators", [
    ("crystal", "2"), ("belnap-m", "2"), ("boolean2", "4"),
], ids=["crystal-2", "belnap-m-2", "boolean2-4"])
def test_free_closure_element_cap_stops_a_large_closure(algebra, generators):
    # none of these closes below the default element cap of 20000; the free
    # Boolean algebra on 4 generators has 65536 elements
    result = subprocess.run(
        [sys.executable, "-m", "relog", "--format", "json", "free-algebra",
         "--algebra", algebra, "--generators", generators],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    report = json.loads(result.stderr)
    validate_report(report)
    assert report["data"]["error"] == "CapExceeded"
    assert "exceeded 20000 elements" in report["data"]["message"]


def test_free_algebra_refuses_a_huge_generator_count_before_building_its_grid(capsys):
    start = time.perf_counter()
    code, report = run_json(capsys, "free-algebra", "--algebra", "crystal",
                            "--generators", "10000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    validate_report(report)
    assert report["data"]["error"] == "CapExceeded"
    assert "6**10000000 coordinates (cap 216)" in report["data"]["message"]


@pytest.mark.parametrize("argv", [
    ("vsp-scan", "--bound", "-1"),
    ("vsp-scan", "--bound", "0"),
    ("reproduce", "--instances", "-1"),
    ("reproduce", "--bound", "0"),
    ("free-algebra", "--sample", "-3"),
], ids=["vsp-bound-negative", "vsp-bound-zero",
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


def test_amalgamate_all_spans_proves_216_belnap_m_spans_have_no_amalgam(capsys):
    code, out, _ = run_cli(capsys, "amalgamate", "--algebra", "belnap-m", "--all-spans")
    assert code == 1
    assert out == "799 spans, 216 without an amalgam in V(belnap_m)\n"
    code, report = run_json(capsys, "amalgamate", "--algebra", "belnap-m", "--all-spans")
    assert code == 1
    assert report["data"] == {"spans": 799, "failures": 216}
    code, out, _ = run_cli(capsys, "amalgamate", "--algebra", "crystal", "--all-spans")
    assert (code, out) == (0, "173 spans, 0 without an amalgam in V(crystal)\n")


def test_amalgamate_sweeps_a_product_file_through_families(capsys, tmp_path):
    from relog.algebra import builtin_boolean2, builtin_crystal, product, serialize

    path = tmp_path / "cxb.alg"
    path.write_text(serialize(product([builtin_crystal(), builtin_boolean2()])))
    code, report = run_json(capsys, "amalgamate", "--algebra", str(path), "--all-spans")
    assert code == 0
    assert report["data"] == {"spans": 1088, "failures": 0}
    # a.0, a.1 go to themselves on the left and to bot.0, top.1 on the right:
    # no amalgam lies in crystal x boolean2, and three pairs into crystal
    # separate both sides
    argv = ("amalgamate", "--algebra", str(path), "--apex", "a.0,a.1",
            "--left", "bot.0,bot.1,a.0,a.1,top.0,top.1",
            "--right", "bot.0,bot.1,top.0,top.1", "--map-left", "a.0:a.0",
            "--map-right", "a.0:bot.0")
    code, report = run_json(capsys, *argv)
    validate_report(report)
    assert code == 0
    data = report["data"]
    assert len(data["family"]) == 3
    assert data["target"] == " x ".join(pair["target"] for pair in data["family"])
    assert data["commutes"] is True
    for side in ("arm_left", "arm_right"):
        images = [image for _, image in data[side]]
        assert len(set(images)) == len(images)
        assert images == [".".join(row) for row in zip(
            *([image for _, image in pair[side]] for pair in data["family"]))]
    code, out, _ = run_cli(capsys, *argv)
    assert out.splitlines()[0] == f"amalgam found in {data['target']}"
    assert out.splitlines()[1:] == [f"  {row['apex']} -> {row['via_left']} = {row['via_right']}"
                                    for row in data["evidence"]]


def test_amalgamate_has_no_bound(capsys):
    code, out, err = run_cli(capsys, "amalgamate", "--algebra", "crystal",
                             "--all-spans", "--bound", "1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --bound 1" in err


def test_amalgamate_refuses_a_generator_off_a_lattice(capsys, tmp_path):
    from relog.algebra import serialize
    from tests_oracle_helper import NOT_A_LATTICE

    path = tmp_path / "not-a-lattice.alg"
    path.write_text(serialize(NOT_A_LATTICE))
    code, _, err = run_cli(capsys, "--format", "json", "amalgamate", "--algebra", str(path),
                           "--apex", "0.0,1.1", "--left", "0.0,1.1", "--right", "0.0,1.1")
    report = json.loads(err[err.index("{"):])  # after the checklist warning line
    validate_report(report)
    assert code == 2
    assert report["data"]["error"] == "RelogError"
    assert "not a lattice" in report["data"]["message"]


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


def test_unreadable_algebra_file_is_usage_error(capsys, monkeypatch, tmp_path):
    path = tmp_path / "locked.alg"
    path.write_text("algebra locked\n")

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr("builtins.open", refuse)
    code, report = run_json(capsys, "validate", "--algebra", str(path))
    assert code == 2
    assert report["data"]["error"] == "DataFileMissing"
    assert "Permission denied" in report["data"]["message"]


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


def test_reproduce_on_one_instance_reports_the_missing_kind_as_info():
    """One instance cannot be both a deductive problem and one with
    premises.  Its interpolant verifies, so `mip.crystal` is info, not a
    failure, and no item fails."""
    items = {item.id: item for item in run_claims_suite(instances=1)}
    assert items["mip.crystal"].status == "info"
    assert items["mip.crystal"].detail.startswith("1/1 verified")
    assert [i for i, item in items.items() if item.status == "fail"] == []


@pytest.mark.parametrize("stats, ok", [
    ({"verified": 3, "cap_exceeded": 0, "deductive": 1, "with_sigma": 2}, True),
    ({"verified": 3, "cap_exceeded": 0, "deductive": 0, "with_sigma": 3}, None),
    ({"verified": 3, "cap_exceeded": 0, "deductive": 3, "with_sigma": 0}, None),
    ({"verified": 2, "cap_exceeded": 0, "deductive": 0, "with_sigma": 2}, False),
    ({"verified": 2, "cap_exceeded": 1, "deductive": 1, "with_sigma": 1}, False),
], ids=["both-kinds", "no-deductive", "no-premises", "unverified", "cap-overrun"])
def test_mip_item_fails_only_on_an_unverified_interpolant_or_a_cap_overrun(
        monkeypatch, stats, ok):
    monkeypatch.setattr(reproduce, "run_mip_suite", lambda algebra, instances, seed: {
        "instances": 3, "max_scanned": 1, **stats})
    assert reproduce._item_mip(3, 0)[0] is ok


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


@pytest.mark.parametrize("factor", ["crystal", "belnap-m"])
@pytest.mark.parametrize("argv", [("congruences",), ("check", "--property", "fsi")],
                         ids=["congruences", "fsi"])
def test_congruence_reports_of_a_square_file_are_pinned(capsys, tmp_path, factor, argv):
    """The JSON reports on factor^2, read from an algebra file, match the
    committed ones byte for byte."""
    from relog.algebra import builtin, power, serialize

    path = tmp_path / f"{factor}2.alg"
    path.write_text(serialize(power(builtin(factor), 2)))
    code, out, err = run_cli(capsys, "--format", "json", *argv, "--algebra", str(path))
    name = "congruences" if argv[0] == "congruences" else "fsi"
    with open(os.path.join(REPO_ROOT, "tests", "data", f"{factor}2_{name}.json"),
              "r", encoding="utf-8") as fh:
        assert out == fh.read()
    assert (code, err) == (json.loads(out)["exit_code"], "")


@pytest.mark.parametrize("name, code", [("crystal", 0), ("belnap-m", 1)])
def test_cep_reports_are_pinned(capsys, name, code):
    """`check --property cep` in JSON matches the committed report byte for
    byte, with its exit code: belnap-m fails with three witnesses."""
    got, out, err = run_cli(capsys, "--format", "json", "check", "--property", "cep",
                            "--algebra", name)
    with open(os.path.join(REPO_ROOT, "tests", "data", f"{name}_cep.json"),
              "r", encoding="utf-8") as fh:
        assert out == fh.read()
    assert (got, err) == (code, "")


# ---------------------------------------------------------------------------
# The exit-code contract, fuzzed
# ---------------------------------------------------------------------------

_FILE_COMMANDS = (["validate"], ["congruences"], ["subalgebras", "--proper"], ["autos"],
                  *(["check", "--property", p] for p in ("simple", "fsi", "cep", "extensible")),
                  ["entails", "--conclusion", "p -> p"])
_FORMULAS = st.one_of(
    st.text(alphabet="pqr~*|&-> ()", max_size=14),
    st.recursive(st.sampled_from("pqr"), lambda inner: st.one_of(
        inner.map("~{}".format),
        st.tuples(inner, st.sampled_from(("*", "|", "&", "->")), inner)
        .map(lambda parts: "({} {} {})".format(*parts)),
    ), max_leaves=4))


@st.composite
def mutated_algebra_files(draw):
    """The crystal file with one or two lines, or tokens in them, deleted,
    repeated, replaced or cut short."""
    lines = [line.split() for line in serialize(builtin_crystal()).splitlines()]
    tokens = st.sampled_from((*builtin_crystal().elements, "x", "op", "neg", "2", "#", ""))
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("delete", "repeat", "replace", "replace", "cut")))
        if edit == "delete":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, list(lines[i]))
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            if edit == "replace":
                lines[i][j] = draw(tokens)
            else:
                del lines[i][j:]
    return "\n".join(" ".join(line) for line in lines)


@st.composite
def cli_calls(draw, path):
    """One argv: a command on a mutated algebra file, a decision on drawn
    formulas, counts and caps around their least values, or a span of
    drawn member lists, which reach the subalgebra builder's refusals."""
    kind = draw(st.sampled_from(("file", "formula", "count", "span")))
    algebra = draw(st.sampled_from(("crystal", "belnap-m", "boolean2")))
    if kind == "file":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(draw(mutated_algebra_files()))
        return [*draw(st.sampled_from(_FILE_COMMANDS)), "--algebra", str(path)]
    if kind == "formula":
        if draw(st.booleans()):
            return ["interpolate", "--algebra", algebra, "--gamma", draw(_FORMULAS),
                    "--alpha", draw(_FORMULAS), "--sigma", draw(_FORMULAS),
                    "--cap-elements", str(draw(st.integers(-1, 30)))]
        return ["entails", "--algebra", algebra, "--premises", draw(_FORMULAS),
                "--conclusion", draw(_FORMULAS), *draw(st.sampled_from(([], ["--use-hs-class"])))]
    if kind == "count":
        small = st.integers(-2, 3).map(str)
        return draw(st.sampled_from((
            ["free-algebra", "--algebra", algebra, "--generators", draw(small),
             "--cap-elements", str(draw(st.integers(-2, 60))),
             "--cap-coordinates", draw(st.sampled_from(("-1", "0", "2", "64", "512"))),
             "--sample", draw(small)],
            ["vsp-scan", "--algebra", algebra, "--bound", str(draw(st.integers(-1, 2)))],
            ["reproduce", "--instances", str(draw(st.integers(-2, 0))), "--bound", draw(small)],
        )))
    generator = builtin(algebra)
    names = st.sampled_from((*generator.elements, "zz", ""))
    universes = [",".join(generator.names(s)) for s in all_subuniverses(generator) if s]
    members = st.one_of(st.sampled_from(universes), st.lists(names, max_size=6).map(",".join))
    pins = st.lists(st.tuples(names, names).map(":".join), max_size=2).map(",".join)
    return ["amalgamate", "--algebra", algebra, "--apex", draw(members),
            "--left", draw(members), "--right", draw(members), "--map-left", draw(pins),
            "--mode", draw(st.sampled_from(("AP", "TIP")))]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.alg"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_every_fuzzed_call_exits_zero_one_or_two(fuzz_path, data):
    """No input escapes the contract: every call returns 0, 1 or 2, and no
    exception or traceback gets out."""
    argv = data.draw(cli_calls(fuzz_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", data.draw(st.sampled_from(("text", "json"))), *argv])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


# ---------------------------------------------------------------------------
# Data dir and subprocess entry point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_with_missing_data_dir(capsys, monkeypatch, tmp_path, name):
    monkeypatch.setenv("RELOG_DATA_DIR", str(tmp_path))
    code, _, err = run_cli(capsys, "validate", "--algebra", name)
    assert code == 2
    assert "DataFileMissing" in err or "not found" in err


def test_importing_the_cli_does_not_import_numpy():
    result = subprocess.run(
        [sys.executable, "-c",
         "import relog.cli, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("args, code", [
    (["subalgebras"], 0),
    (["--format", "json", "reproduce", "--instances", "5"], 0),
    (["entails", "--conclusion", "p"], 1),
], ids=["subalgebras", "reproduce", "entails-fails"])
def test_a_closed_pipe_keeps_the_exit_code_and_writes_no_traceback(args, code):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        result = subprocess.run([sys.executable, "-m", "relog", *args], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (code, "")


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "relog", "check", "--property", "simple",
         "--algebra", "crystal"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "holds" in result.stdout
