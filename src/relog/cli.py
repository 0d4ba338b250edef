"""Command-line interface.

Exit codes: 0 when the command succeeds and the checked property holds,
1 when a property fails / a countermodel or violation is found / nothing
was found, 2 on usage or engine errors.  `--format json` emits a single
report object per run (schema in docs/report-schema.json); text and JSON
modes always agree on the verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import (
    BUILTIN_NAMES,
    builtin,
    load_algebra_file,
    subalgebra,
    validate_relevant_algebra,
)
from .amalgam import Span, all_spans, amalgamate_span, is_extensible
from .errors import InterpolantNotFound, RelogError, UsageError
from .interp import (
    DEFAULT_COORDINATE_CAP,
    DEFAULT_FREE_ELEMENT_CAP,
    FreeAlgebra,
    maehara_interpolant,
    verify_interpolant,
    vsp_scan,
)
from .logic import parse_formula, parse_premises, entails
from .morph import automorphisms, embeddings, homomorphisms, isomorphisms
from .reproduce import run_claims_suite
from .subcon import (
    all_subuniverses,
    check_cep_class,
    congruence_lattice,
    hs_class,
    is_fsi,
    is_simple,
)


def _read_algebra(spec_text):
    if spec_text in BUILTIN_NAMES:
        return builtin(spec_text)
    if os.path.exists(spec_text):
        return load_algebra_file(spec_text)
    raise UsageError(
        f"unknown algebra {spec_text!r}: not a builtin "
        f"({', '.join(BUILTIN_NAMES)}) and not a file"
    )


def _resolve_algebra(args, spec_text):
    """The named algebra.  A file whose tables fail the relevant-algebra
    checklist is used as it is, after one warning line on stderr; the
    warning is also kept in `args.warnings`, for the report's data."""
    algebra = _read_algebra(spec_text)
    if spec_text not in BUILTIN_NAMES:
        failed = [r.axiom for r in validate_relevant_algebra(algebra) if not r.holds]
        if failed:
            warning = (f"{algebra.name} from {spec_text} fails the relevant-algebra "
                       f"axioms {', '.join(failed)}; the command runs anyway")
            print(f"warning: {warning}", file=sys.stderr)
            args.warnings.append(warning)
    return algebra


def _emit(report, lines, fmt, out):
    if fmt == "json":
        json.dump(report, out, indent=2)
        out.write("\n")
        return
    for line in lines:
        out.write(line + "\n")


def _report(command, verdict, exit_code, data=None, items=None):
    """The envelope of docs/report-schema.json.  Each command returns it
    together with the lines of its text report."""
    report = {
        "command": command,
        "verdict": verdict,
        "exit_code": exit_code,
        "data": data or {},
    }
    if items is not None:
        report["items"] = items
    return report


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_validate(args):
    algebra = _read_algebra(args.algebra)
    reports = validate_relevant_algebra(algebra)
    failures = [r for r in reports if not r.holds]
    lines = [f"algebra {algebra.name}: {algebra.size} elements"]
    for r in reports:
        mark = "ok  " if r.holds else "FAIL"
        extra = "" if r.holds else f"  at {r.counterexample}"
        lines.append(f"  [{mark}] {r.axiom}{extra}")
    verdict = "holds" if not failures else "fails"
    return _report(
        "validate", verdict, 0 if not failures else 1,
        data={
            "algebra": algebra.name,
            "size": algebra.size,
            "reports": [r.to_dict() for r in reports],
        },
    ), lines


def _cmd_subalgebras(args):
    algebra = _resolve_algebra(args, args.algebra)
    full = tuple(range(algebra.size))
    subs = [s for s in all_subuniverses(algebra)
            if (s or args.include_empty) and not (args.proper and s == full)]
    universes = [list(algebra.names(s)) for s in subs]
    lines = [f"{len(universes)} subuniverses of {algebra.name}:"]
    lines += ["  {" + ", ".join(u) + "}" for u in universes]
    return _report(
        "subalgebras", "ok", 0,
        data={"algebra": algebra.name, "universes": universes},
    ), lines


def _cmd_congruences(args):
    algebra = _resolve_algebra(args, args.algebra)
    lattice = congruence_lattice(algebra)
    blocks = [c.block_names() for c in lattice]
    lines = [f"{len(lattice)} congruences of {algebra.name}:"]
    lines += ["  " + " | ".join("{" + ", ".join(b) + "}" for b in c) for c in blocks]
    return _report(
        "congruences", "ok", 0,
        data={"algebra": algebra.name, "congruences": blocks},
    ), lines


def _cmd_check(args):
    algebra = _resolve_algebra(args, args.algebra)
    prop = args.property
    data = {"algebra": algebra.name, "property": prop}
    if prop == "simple":
        holds = is_simple(algebra)
        detail = ""
    elif prop == "fsi":
        holds = is_fsi(algebra)
        detail = ""
    elif prop == "extensible":
        report = is_extensible(algebra)
        holds = report.extensible
        if holds:
            detail = f" ({len(report.certificates)} isomorphisms extended)"
        else:
            s1, s2, phi = report.failure
            data["failing_isomorphism"] = phi.to_pairs()
            detail = f" (no automorphism extends {phi})"
    elif prop == "cep":
        verdict, failures, checked = check_cep_class(hs_class(algebra))
        holds = verdict
        data["checked"] = checked
        data["failures"] = [w.describe() for w in failures]
        detail = f" ({checked} extensions checked, {len(failures)} failed)"
    else:
        raise UsageError(f"unknown property {prop!r}")
    verdict = "holds" if holds else "fails"
    return _report("check", verdict, 0 if holds else 1, data=data), [
        f"{prop} on {algebra.name}: {verdict}{detail}"
    ]


def _cmd_homs(args):
    source = _resolve_algebra(args, args.source)
    target = _resolve_algebra(args, args.target)
    if args.kind == "hom":
        morphisms = homomorphisms(source, target)
    elif args.kind == "embedding":
        morphisms = embeddings(source, target)
    else:
        morphisms = isomorphisms(source, target)
    lines = [f"{len(morphisms)} {args.kind}s {source.name} -> {target.name}:"]
    lines += ["  " + ", ".join(f"{a}->{b}" for a, b in m.to_pairs())
              for m in morphisms]
    return _report(
        "homs", "ok", 0,
        data={
            "source": source.name,
            "target": target.name,
            "kind": args.kind,
            "morphisms": [m.to_pairs() for m in morphisms],
        },
    ), lines


def _cmd_autos(args):
    algebra = _resolve_algebra(args, args.algebra)
    autos = automorphisms(algebra)
    lines = [f"{len(autos)} automorphisms of {algebra.name}:"]
    lines += ["  " + ", ".join(f"{a}->{b}" for a, b in m.to_pairs()) for m in autos]
    return _report(
        "autos", "ok", 0,
        data={"algebra": algebra.name,
              "automorphisms": [m.to_pairs() for m in autos]},
    ), lines


def _parse_members(algebra, text):
    return tuple(sorted(algebra.el(name.strip()) for name in text.split(",")))


def _parse_pin(text):
    """Pins like 'a:b,t:t' mapping sub elements to ambient-subalgebra elements."""
    pins = {}
    if not text:
        return pins
    for part in text.split(","):
        if part.count(":") != 1:
            raise UsageError(f"pin {part.strip()!r} is not of the form element:element")
        left, right = part.split(":")
        pins[left.strip()] = right.strip()
    return pins


def _pick_embedding(apex, target, pins):
    forced = {apex.el(a): target.el(b) for a, b in pins.items()}
    for candidate in embeddings(apex, target, forced):
        return candidate
    raise UsageError(
        f"no embedding {apex.name} -> {target.name} consistent with {pins}"
    )


def _cmd_amalgamate(args):
    generator = _resolve_algebra(args, args.algebra)
    variety = f"V({generator.name})"
    if args.all_spans:
        spans = failures = 0
        for span in all_spans(generator):
            spans += 1
            failures += amalgamate_span(span, generator, args.mode) is None
        return _report(
            "amalgamate", "found" if failures == 0 else "not-found",
            0 if failures == 0 else 1,
            data={"spans": spans, "failures": failures},
        ), [f"{spans} spans, {failures} without an amalgam in {variety}"]

    if not (args.apex and args.left and args.right):
        raise UsageError("amalgamate needs --apex, --left and --right (or --all-spans)")
    apex, left_alg, right_alg = (
        subalgebra(generator, _parse_members(generator, text))
        for text in (args.apex, args.left, args.right))
    left = _pick_embedding(apex, left_alg, _parse_pin(args.map_left))
    right = _pick_embedding(apex, right_alg, _parse_pin(args.map_right))
    amalgam = amalgamate_span(Span(left, right), generator, args.mode)
    if amalgam is None:
        return _report("amalgamate", "not-found", 1), [f"no amalgam in {variety}"]
    data = {
        "target": amalgam.target_name,
        "arm_left": amalgam.arm_pairs(0),
        "arm_right": amalgam.arm_pairs(1),
        "evidence": amalgam.evidence(),
        "commutes": amalgam.commutes(),
        "family": [{"target": h.target.name, "arm_left": h.to_pairs(),
                    "arm_right": k.to_pairs()} for h, k in amalgam.family],
    }
    lines = [f"amalgam found in {amalgam.target_name}"]
    for row in data["evidence"]:
        lines.append(f"  {row['apex']} -> {row['via_left']} = {row['via_right']}")
    return _report("amalgamate", "found", 0, data=data), lines


def _cmd_entails(args):
    algebra = _resolve_algebra(args, args.algebra)
    algebras = hs_class(algebra) if args.use_hs_class else [algebra]
    premises = parse_premises(args.premises or "")
    conclusion = parse_formula(args.conclusion)
    verdict = entails(algebras, premises, conclusion)
    if verdict.holds:
        return _report(
            "entails", "holds", 0,
            data={"premises": [str(p) for p in premises],
                  "conclusion": str(conclusion)},
        ), ["holds"]
    cm = verdict.countermodel
    return _report(
        "entails", "fails", 1,
        data={
            "premises": [str(p) for p in premises],
            "conclusion": str(conclusion),
            "countermodel": {"algebra": cm.algebra.name, "valuation": cm.named()},
        },
    ), [f"fails: countermodel in {cm.algebra.name}: " + ", ".join(
        f"{v}={e}" for v, e in sorted(cm.named().items())
    )]


def _load_problem(path):
    """Parse a JSON problem file {"sigma": [...], "gamma": [...], "alpha": "..."},
    where sigma and gamma are optional lists of formulas."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            problem = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read problem file {path!r}: {exc}") from None

    def formulas(key):
        value = problem.get(key, [])
        return isinstance(value, list) and all(isinstance(f, str) for f in value)

    if not (isinstance(problem, dict) and isinstance(problem.get("alpha"), str)
            and formulas("sigma") and formulas("gamma")):
        raise UsageError(f"problem file {path!r} needs an \"alpha\" formula and "
                         "optional \"sigma\" and \"gamma\" lists of formulas")
    return ([parse_formula(f) for f in problem.get("sigma", [])],
            [parse_formula(f) for f in problem.get("gamma", [])],
            parse_formula(problem["alpha"]))


def _cmd_interpolate(args):
    algebra = _resolve_algebra(args, args.algebra)
    if args.problem:
        sigma, gamma, alpha = _load_problem(args.problem)
    else:
        if not args.gamma or not args.alpha:
            raise UsageError("interpolate needs --gamma and --alpha (or --problem)")
        sigma = parse_premises(args.sigma or "")
        gamma = parse_premises(args.gamma)
        alpha = parse_formula(args.alpha)
    result = maehara_interpolant(sigma, gamma, alpha, [algebra],
                                 element_cap=args.cap_elements)
    transcript = verify_interpolant(sigma, gamma, alpha, result.delta, [algebra])
    if not transcript.ok:
        raise RelogError(f"interpolant {result.delta} fails its independent re-check")
    data = {
        "delta": str(result.delta),
        "size": result.delta_size,
        "shared": list(result.shared),
        "scanned": result.scanned,
        "transcript": {
            "gamma_entails_delta": transcript.gamma_verdict.holds,
            "sigma_delta_entail_alpha": transcript.alpha_verdict.holds,
        },
    }
    return _report("interpolate", "found", 0, data=data), [
        f"delta = {result.delta}",
        f"  over shared variables {{{', '.join(result.shared)}}}",
        "  gamma |- delta: holds",
        "  sigma, delta |- alpha: holds",
    ]


def _cmd_vsp_scan(args):
    algebra = _resolve_algebra(args, args.algebra)
    violations = vsp_scan(algebra, args.bound)
    data = {
        "algebra": algebra.name,
        "bound": args.bound,
        "violations": [
            {"antecedent": str(v.antecedent), "consequent": str(v.consequent)}
            for v in violations
        ],
    }
    if not violations:
        return _report("vsp-scan", "holds", 0, data=data), [
            f"no violations up to size {args.bound}"
        ]
    lines = [f"{len(violations)} violations:"]
    lines += [f"  {v.antecedent} -> {v.consequent}" for v in violations]
    return _report("vsp-scan", "fails", 1, data=data), lines


def _cmd_free_algebra(args):
    algebra = _resolve_algebra(args, args.algebra)
    fa = FreeAlgebra(algebra, args.generators, coordinate_cap=args.cap_coordinates,
                     element_cap=args.cap_elements)
    fa.freeze()
    sample = [
        str(fa.representative(i))
        for i in range(min(fa.element_count, args.sample))
    ]
    data = {
        "algebra": algebra.name,
        "generators": args.generators,
        "element_count": fa.element_count,
        "sample_representatives": sample,
    }
    lines = [f"free algebra over {algebra.name} on {args.generators} "
             f"generator(s): {fa.element_count} elements"]
    lines += [f"  {s}" for s in sample]
    return _report("free-algebra", "ok", 0, data=data), lines


def _cmd_reproduce(args):
    items = run_claims_suite(
        seed=args.seed, instances=args.instances, vsp_bound=args.bound
    )
    failed = [i for i in items if i.status == "fail"]
    lines = []
    for item in items:
        lines.append(
            f"[{item.status.upper():4}] {item.id:26} {item.elapsed:7.2f}s  {item.detail}"
        )
    lines.append(
        f"{len(items)} items: {sum(1 for i in items if i.status == 'pass')} pass, "
        f"{len(failed)} fail, {sum(1 for i in items if i.status == 'info')} info"
    )
    return _report(
        "reproduce", "pass" if not failed else "fail",
        0 if not failed else 1,
        data={"seed": args.seed, "instances": args.instances},
        items=[i.to_dict() for i in items],
    ), lines


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _count(least):
    """An argparse type for an integer of at least `least`."""
    def count(text):
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"{text} is less than {least}")
        return int(text)
    return count


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relog",
        description="Workbench for finite algebras in the signature of relevant logic.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    # --format may also follow the subcommand; unset there, it keeps the
    # value parsed before it.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, **kwargs):
        return sub.add_parser(name, parents=[fmt], **kwargs)

    def with_algebra(p):
        p.add_argument("--algebra", default="crystal",
                       help="builtin name (crystal, belnap-m, boolean2) or .alg file")
        return p

    with_algebra(command("validate", help="run the axiom checklist"))

    p = with_algebra(command("subalgebras", help="enumerate subuniverses"))
    p.add_argument("--proper", action="store_true",
                   help="exclude the full universe")
    p.add_argument("--include-empty", action="store_true",
                   help="include the empty universe, with or without --proper")

    with_algebra(command("congruences", help="list the congruence lattice"))

    p = with_algebra(command("check", help="decide a property"))
    p.add_argument("--property", required=True,
                   choices=("simple", "fsi", "extensible", "cep"))

    p = command("homs", help="enumerate homomorphisms")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--kind", choices=("hom", "embedding", "isomorphism"),
                   default="hom")

    with_algebra(command("autos", help="enumerate automorphisms"))

    p = with_algebra(command("amalgamate", help="decide whether a span has an amalgam"))
    p.add_argument("--apex", help="comma-separated elements of the apex subalgebra")
    p.add_argument("--left", help="elements of the left subalgebra")
    p.add_argument("--right", help="elements of the right subalgebra")
    p.add_argument("--map-left", default="", help="pins like a:b for the left leg")
    p.add_argument("--map-right", default="", help="pins for the right leg")
    p.add_argument("--mode", choices=("AP", "TIP"), default="AP")
    p.add_argument("--all-spans", action="store_true",
                   help="sweep every span among nontrivial subalgebras")

    p = with_algebra(command("entails", help="decide a consequence"))
    p.add_argument("--premises", default="")
    p.add_argument("--conclusion", required=True)
    p.add_argument("--use-hs-class", action="store_true",
                   help="check over the whole HS class instead of the single algebra")

    p = with_algebra(command("interpolate", help="synthesize an interpolant"))
    p.add_argument("--sigma", default="")
    p.add_argument("--gamma")
    p.add_argument("--alpha")
    p.add_argument("--problem", help="JSON file with sigma/gamma/alpha")
    p.add_argument("--cap-elements", type=int, default=DEFAULT_FREE_ELEMENT_CAP)

    p = with_algebra(command("vsp-scan", help="bounded variable-sharing scan"))
    p.add_argument("--bound", type=_count(1), default=4)

    p = with_algebra(command("free-algebra", help="free algebra closure"))
    p.add_argument("--generators", type=int, default=1)
    p.add_argument("--cap-elements", type=int, default=20000,
                   help="element budget for the closure (default 20000 here)")
    p.add_argument("--cap-coordinates", type=int, default=DEFAULT_COORDINATE_CAP)
    p.add_argument("--sample", type=_count(0), default=10,
                   help="how many representatives to print")

    p = command("reproduce", help="run the full claims suite with stable item ids")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=_count(1), default=500)
    p.add_argument("--bound", type=_count(1), default=4)

    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "subalgebras": _cmd_subalgebras,
    "congruences": _cmd_congruences,
    "check": _cmd_check,
    "homs": _cmd_homs,
    "autos": _cmd_autos,
    "amalgamate": _cmd_amalgamate,
    "entails": _cmd_entails,
    "interpolate": _cmd_interpolate,
    "vsp-scan": _cmd_vsp_scan,
    "free-algebra": _cmd_free_algebra,
    "reproduce": _cmd_reproduce,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = sys.stdout
    args.warnings = []
    try:
        report, lines = _COMMANDS[args.command](args)
    except InterpolantNotFound as exc:
        report = _report(args.command, "not-found", 1,
                         data={"error": type(exc).__name__, "message": str(exc),
                               "scanned": exc.scanned})
        lines = [f"not found: {exc}"]
    except RelogError as exc:
        report = _report(args.command, "error", 2,
                         data={"error": type(exc).__name__, "message": str(exc)})
        lines = [f"error: {exc}"]
        out = sys.stderr
    if args.warnings:
        report["data"]["warnings"] = args.warnings
    try:
        _emit(report, lines, args.format, out)
        out.flush()
    except BrokenPipeError:
        # the reader is gone: the flush at exit goes to devnull, the exit code stays
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
