"""Batch suite reproducing every computation the workbench is built to certify.

Each item carries a stable identifier (e.g. "lemma1.subalgebras") so failures
point at a specific claim.  The suite is deterministic for a fixed seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .algebra import (
    builtin_belnap_m,
    builtin_boolean2,
    builtin_crystal,
    subalgebra,
    validate_relevant_algebra,
)
from .errors import CapExceeded, NoSharedVariables, NotEntailed, RelogError
from .interp import maehara_interpolant, verify_interpolant, vsp_scan
from .logic import (
    And,
    Fuse,
    Not,
    Or,
    R_THEOREM_SCHEMATA,
    Var,
    parse_formula,
    theorem,
    verify_countermodel,
)
from .morph import all_spans, amalgamate_span, automorphisms, is_extensible
from .subcon import (
    all_subuniverses,
    check_cep_class,
    hs_class,
    is_simple,
    principal_congruence,
)

CRYSTAL_PROPER_UNIVERSES = [
    ("a",),
    ("b",),
    ("bot", "top"),
    ("bot", "a", "top"),
    ("bot", "b", "top"),
    ("bot", "t", "f", "top"),
    ("bot", "t", "a", "f", "top"),
    ("bot", "t", "b", "f", "top"),
]


@dataclass
class ReportItem:
    id: str
    title: str
    status: str          # "pass" | "fail" | "info"
    detail: str
    elapsed: float

    def to_dict(self):
        return {
            "id": self.id,
            "title": self.title,
            "status": self.status,
            "detail": self.detail,
            "elapsed": round(self.elapsed, 3),
        }


# ---------------------------------------------------------------------------
# Seeded interpolation suite
# ---------------------------------------------------------------------------

MIP_POOL = ("p", "q", "r")      # the variables of the seeded suite's formulas
MIP_MAX_SIZE = 4                # nodes
MIP_CONTINUE_PROBABILITY = 0.5  # chance of a connective at each level
MIP_MAX_DEPTH = 3


def random_formula(rng):
    """Random formula tree: uniform connective choice, geometric depth,
    rejection-sampled down to MIP_MAX_SIZE nodes."""
    def gen(depth):
        if depth >= MIP_MAX_DEPTH or rng.random() > MIP_CONTINUE_PROBABILITY:
            return Var(rng.choice(MIP_POOL))
        ctor = rng.choice((Not, And, Or, Fuse))
        if ctor is Not:
            return Not(gen(depth + 1))
        return ctor(gen(depth + 1), gen(depth + 1))

    while True:
        formula = gen(0)
        if formula.size() <= MIP_MAX_SIZE:
            return formula


def run_mip_suite(algebra, instances=500, seed=0):
    """Generate valid interpolation problems and synthesize+verify on each.

    An instance is valid when the shared-variable precondition and the
    entailment precondition both hold over `algebra`; generation continues
    until `instances` valid ones have been processed.  Returns a stats dict.
    """
    rng = random.Random(seed)
    stats = {
        "instances": 0,
        "attempts": 0,
        "verified": 0,
        "failures": [],
        "cap_exceeded": 0,
        "deductive": 0,
        "with_sigma": 0,
        "max_scanned": 0,
        "max_delta_size": 0,
    }
    while stats["instances"] < instances:
        stats["attempts"] += 1
        sigma = [random_formula(rng) for _ in range(rng.randrange(3))]
        gamma = [random_formula(rng) for _ in range(1 + rng.randrange(2))]
        alpha = random_formula(rng)
        try:
            result = maehara_interpolant(sigma, gamma, alpha, [algebra])
        except (NoSharedVariables, NotEntailed):
            continue
        except CapExceeded:
            stats["instances"] += 1
            stats["cap_exceeded"] += 1
            continue
        stats["instances"] += 1
        if sigma:
            stats["with_sigma"] += 1
        else:
            stats["deductive"] += 1
        stats["max_scanned"] = max(stats["max_scanned"], result.scanned)
        stats["max_delta_size"] = max(stats["max_delta_size"], result.delta_size)
        transcript = verify_interpolant(sigma, gamma, alpha, result.delta, [algebra])
        if transcript.ok:
            stats["verified"] += 1
        else:
            stats["failures"].append({
                "sigma": [str(s) for s in sigma],
                "gamma": [str(g) for g in gamma],
                "alpha": str(alpha),
                "delta": str(result.delta),
            })
    return stats


# ---------------------------------------------------------------------------
# Suite items
# ---------------------------------------------------------------------------

def _item_subalgebras():
    crystal = builtin_crystal()
    proper = [crystal.names(s) for s in
              all_subuniverses(crystal, proper_nonempty_only=True)]
    ok = proper == CRYSTAL_PROPER_UNIVERSES
    return ok, f"proper universes: {len(proper)} (expected the known 8)"


def _item_simplicity():
    crystal = builtin_crystal()
    for members in all_subuniverses(crystal, proper_nonempty_only=True):
        if len(members) >= 2 and not is_simple(subalgebra(crystal, members)):
            return False, f"subalgebra {crystal.names(members)} is not simple"
    if not is_simple(crystal):
        return False, "the crystal algebra itself is not simple"
    chain = subalgebra(crystal, tuple(crystal.el(e) for e in ("bot", "t", "f", "top")))
    f, t, top = chain.el("f"), chain.el("t"), chain.el("top")
    if not principal_congruence(chain, f, t).is_full:
        return False, "collapsing (f,t) on the 4-chain is not the full congruence"
    theta = principal_congruence(chain, top, t)
    if not (theta.related(f, t) and theta.is_full):
        return False, "collapsing (top,t) does not collapse (f,t)"
    return True, "crystal and all nontrivial subalgebras simple; proof moves re-verified"


def _item_cep_crystal():
    verdict, failures, checked = check_cep_class(hs_class(builtin_crystal()))
    detail = f"{checked} congruence extensions checked, {len(failures)} failed"
    return verdict and not failures, detail


def _item_automorphisms():
    crystal = builtin_crystal()
    autos = [a.mapping for a in automorphisms(crystal)]
    expected = [(0, 1, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5)]
    return autos == expected, f"automorphisms: {autos}"


def _item_extensible():
    crystal = builtin_crystal()
    report = is_extensible(crystal)
    if not report.extensible:
        return False, f"failing isomorphism: {report.failure}"
    for cert in report.certificates:
        for i, x in enumerate(cert.left_members):
            if cert.extension.mapping[x] != cert.right_members[cert.iso.mapping[i]]:
                return False, "a certificate does not restrict to its isomorphism"
    return True, f"{len(report.certificates)} isomorphisms, each extended by an automorphism"


def _item_amalgamation():
    crystal = builtin_crystal()
    spans = failures = 0
    for span in all_spans(crystal):
        spans += 1
        result = amalgamate_span(span, mode="AP", generator=crystal, power_bound=1)
        if not (result.found and result.amalgam.target == crystal
                and result.amalgam.commutes()):
            failures += 1
    return failures == 0, f"{spans} spans searched, {failures} without an amalgam in the generator"


def _item_vsp(algebra, bound, expect_empty):
    violations = vsp_scan(algebra, bound)
    if expect_empty:
        return not violations, f"{len(violations)} violations at bound {bound}"
    found = {(str(v.antecedent), str(v.consequent)) for v in violations}
    ok = ("p & ~p", "q") in found
    return ok, f"{len(violations)} violations at bound {bound}; explosion found: {ok}"


def _item_mip(instances, seed):
    stats = run_mip_suite(builtin_crystal(), instances=instances, seed=seed)
    ok = (
        stats["verified"] == stats["instances"] == instances
        and stats["cap_exceeded"] == 0
        and stats["deductive"] > 0
        and stats["with_sigma"] > 0
    )
    detail = (
        f"{stats['verified']}/{stats['instances']} verified "
        f"({stats['deductive']} deductive, {stats['with_sigma']} with premises); "
        f"cap overruns: {stats['cap_exceeded']}; "
        f"deepest scan: {stats['max_scanned']}"
    )
    return ok, detail


def _item_r_theorems():
    crystal = builtin_crystal()
    for name, text in R_THEOREM_SCHEMATA:
        if not theorem([crystal], parse_formula(text)).holds:
            return False, f"schema {name} is not designated everywhere"
    explosion = parse_formula("(p & ~p) -> q")
    verdict = theorem([crystal], explosion)
    if verdict.holds:
        return False, "explosion unexpectedly holds"
    stated = {"p": crystal.el("a"), "q": crystal.el("bot")}
    if not verify_countermodel(crystal, stated, [], explosion):
        return False, "the stated countermodel p=a, q=bot does not re-verify"
    cm = verdict.countermodel
    if not verify_countermodel(cm.algebra, cm.valuation, [], explosion):
        return False, "the returned countermodel does not re-verify"
    return True, f"{len(R_THEOREM_SCHEMATA)} schemata hold; explosion refuted (p=a, q=bot re-verified)"


def _item_cep_belnap():
    verdict, failures, checked = check_cep_class(hs_class(builtin_belnap_m()))
    if failures:
        sample = failures[0].describe()
        return None, (
            f"non-extendable witness found ({len(failures)} of {checked}): {sample}"
        )
    return None, f"inconclusive at bound: {checked} extensions all succeeded"


def run_claims_suite(seed=0, instances=500, vsp_bound=4):
    """Run every item; returns a list of ReportItem."""
    boolean2 = builtin_boolean2()
    belnap = builtin_belnap_m()
    plan = [
        ("crystal.axioms", "crystal algebra passes the axiom checklist",
         lambda: (all(r.holds for r in validate_relevant_algebra(builtin_crystal())),
                  "all axioms hold")),
        ("belnap-m.axioms", "Belnap model passes the axiom checklist",
         lambda: (all(r.holds for r in validate_relevant_algebra(belnap)),
                  "all axioms hold")),
        ("lemma1.subalgebras", "proper subalgebra universes of the crystal algebra",
         _item_subalgebras),
        ("lemma1.simplicity", "crystal and its subalgebras are simple",
         _item_simplicity),
        ("lemma1.cep", "congruence extension across HS of the crystal algebra",
         _item_cep_crystal),
        ("theorem.automorphisms", "automorphism group of the crystal algebra",
         _item_automorphisms),
        ("theorem.extensible", "every subalgebra isomorphism extends",
         _item_extensible),
        ("lemma2.amalgamation", "every span of subalgebras amalgamates",
         _item_amalgamation),
        ("vsp.crystal", "variable-sharing scan over the crystal algebra",
         lambda: _item_vsp(builtin_crystal(), vsp_bound, True)),
        ("vsp.belnap-m", "variable-sharing scan over the Belnap model",
         lambda: _item_vsp(belnap, vsp_bound, True)),
        ("vsp.boolean2-contrast", "classical contrast case has violations",
         lambda: _item_vsp(boolean2, vsp_bound, False)),
        ("mip.crystal", "seeded interpolation suite",
         lambda: _item_mip(instances, seed)),
        ("consequence.r-theorems", "standard theorem schemata and explosion",
         _item_r_theorems),
        ("cep.belnap-m", "exploratory witness search over HS of the Belnap model",
         _item_cep_belnap),
    ]
    items = []
    for item_id, title, runner in plan:
        start = time.perf_counter()
        try:
            ok, detail = runner()
        except RelogError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        status = "info" if ok is None else ("pass" if ok else "fail")
        items.append(ReportItem(item_id, title, status, detail, elapsed))
    return items
