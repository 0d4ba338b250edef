"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance and time budget is pinned here.
"""

import time

import pytest

from relog.algebra import (
    builtin_belnap_m,
    builtin_boolean2,
    builtin_crystal,
    subalgebra,
)
from relog.interp import free_algebra, vsp_scan
from relog.logic import (
    R_THEOREM_SCHEMATA,
    parse_formula,
    theorem,
    verify_countermodel,
)
from relog.morph import all_spans, amalgamate_span, automorphisms, is_extensible
from relog.reproduce import run_mip_suite
from relog.subcon import (
    all_subuniverses,
    check_cep_class,
    congruence_lattice,
    full_congruence,
    hs_class,
    identity_congruence,
    principal_congruence,
)

C = builtin_crystal()
B2 = builtin_boolean2()
M = builtin_belnap_m()


class Criterion:
    """Context manager asserting a wall-clock budget and printing a verdict line."""

    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_subalgebra_enumeration():
    expected = [
        ("a",),
        ("b",),
        ("bot", "top"),
        ("bot", "a", "top"),
        ("bot", "b", "top"),
        ("bot", "t", "f", "top"),
        ("bot", "t", "a", "f", "top"),
        ("bot", "t", "b", "f", "top"),
    ]
    with Criterion(1, "subalgebra enumeration matches the known list", 1.0):
        proper = all_subuniverses(C, proper_nonempty_only=True)
        assert [C.names(s) for s in proper] == expected
        everything = [s for s in all_subuniverses(C) if s]
        assert [C.names(s) for s in everything] == expected + [
            ("bot", "t", "a", "b", "f", "top")
        ]


def test_criterion_2_simplicity_and_proof_moves():
    with Criterion(2, "crystal and all nontrivial subalgebras simple", 1.0):
        for members in all_subuniverses(C, proper_nonempty_only=True):
            if len(members) < 2:
                continue
            sub = subalgebra(C, members)
            assert congruence_lattice(sub) == [
                identity_congruence(sub), full_congruence(sub)
            ]
        assert congruence_lattice(C) == [identity_congruence(C), full_congruence(C)]
        chain = subalgebra(C, tuple(C.el(e) for e in ("bot", "t", "f", "top")))
        f, t, top = chain.el("f"), chain.el("t"), chain.el("top")
        assert principal_congruence(chain, f, t).is_full
        collapsing_top_t = principal_congruence(chain, top, t)
        assert collapsing_top_t.related(f, t)
        assert collapsing_top_t.is_full


def test_criterion_3_class_cep_over_hs_crystal():
    with Criterion(3, "congruence extension across HS of the crystal algebra", 10.0):
        verdict, failures, checked = check_cep_class(hs_class(C))
        assert verdict is True
        assert failures == []
        assert checked > 0


def test_criterion_4_automorphisms_and_extensibility():
    with Criterion(4, "automorphisms = {identity, a/b swap}; extensible", 10.0):
        autos = automorphisms(C)
        assert [a.mapping for a in autos] == [
            (0, 1, 2, 3, 4, 5),
            (0, 1, 3, 2, 4, 5),
        ]
        report = is_extensible(C)
        assert report.extensible
        # one certificate per isomorphism between nontrivial subalgebras
        iso_count = 0
        nontrivial = [s for s in all_subuniverses(C) if len(s) >= 2]
        subalgs = {s: subalgebra(C, s) for s in nontrivial}
        from relog.morph import isomorphisms

        for s1 in nontrivial:
            for s2 in nontrivial:
                iso_count += len(isomorphisms(subalgs[s1], subalgs[s2]))
        assert len(report.certificates) == iso_count
        for cert in report.certificates:
            for i, x in enumerate(cert.left_members):
                assert cert.extension.mapping[x] == \
                    cert.right_members[cert.iso.mapping[i]]


def test_criterion_5_amalgamation_of_all_spans():
    with Criterion(5, "every span among nontrivial subalgebras amalgamates", 60.0):
        spans = 0
        for span in all_spans(C):
            spans += 1
            result = amalgamate_span(span, mode="AP", generator=C, power_bound=1)
            assert result.found, (
                span.apex.name, span.left.target.name, span.right.target.name
            )
            amalgam = result.amalgam
            assert amalgam.target == C
            assert amalgam.commutes()
            assert amalgam.arm_left.is_embedding
            assert amalgam.arm_right.is_embedding
        assert spans == 173


def test_criterion_6_vsp_scans():
    with Criterion(6, "VSP scans: crystal/belnap-m clean, boolean2 explodes", 120.0):
        assert vsp_scan(C, 4) == []
        assert vsp_scan(M, 4) == []
        violations = vsp_scan(B2, 4)
        found = {(str(v.antecedent), str(v.consequent)) for v in violations}
        assert ("p & ~p", "q") in found


def test_criterion_7_interpolation_property_suite():
    with Criterion(7, "seeded interpolation suite, 500 instances, 100%", 600.0):
        stats = run_mip_suite(C, instances=500, seed=20250808)
        assert stats["instances"] == 500
        assert stats["verified"] == 500
        assert stats["cap_exceeded"] == 0
        assert stats["failures"] == []
        assert stats["deductive"] > 0       # sigma = empty special case included
        assert stats["with_sigma"] > 0


def test_criterion_8_free_algebra_oracle_equivalence():
    from tests_oracle_helper import brute_force_vectors  # local helper below

    with Criterion(8, "free algebra equals brute-force formula vectors", 60.0):
        for k in (1, 2):
            fa = free_algebra(B2, k)
            assert set(fa.vectors) == brute_force_vectors(B2, k, 8)
        assert free_algebra(B2, 1).element_count == 4
        assert free_algebra(B2, 2).element_count == 16


def test_criterion_9_consequence_sanity():
    with Criterion(9, "ten theorem schemata hold; explosion refuted", 5.0):
        assert len(R_THEOREM_SCHEMATA) == 10
        for name, text in R_THEOREM_SCHEMATA:
            assert theorem([C], parse_formula(text)).holds, name
        explosion = parse_formula("(p & ~p) -> q")
        verdict = theorem([C], explosion)
        assert not verdict.holds
        stated = {"p": C.el("a"), "q": C.el("bot")}
        assert verify_countermodel(C, stated, [], explosion)
        cm = verdict.countermodel
        assert verify_countermodel(cm.algebra, cm.valuation, [], explosion)


def test_criterion_10_exploratory_cep_over_belnap_m():
    with Criterion(10, "exploratory CEP witness search over HS(belnap-m)", 120.0):
        verdict, failures, checked = check_cep_class(hs_class(M))
        if failures:
            print(f"        found {len(failures)} non-extendable witnesses "
                  f"out of {checked} checks, e.g. {failures[0].describe()}")
        else:
            print(f"        inconclusive at bound: all {checked} extensions succeeded")
        # Non-blocking: the suite reports its findings either way.  With the
        # shipped tables the witness does exist, matching the expectation.
        assert checked > 0
