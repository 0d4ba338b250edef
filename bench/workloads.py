"""The four in-process workloads: seeded inputs, one round of operations and
the known answers each operation is checked against.

Each workload has ``setup(seed, smoke, rec)``, which builds the inputs from
the seed alone and adds them to the input digest, and ``run(state, rec)``,
which performs one round.  relog is reached only through module attributes
looked up at call time (``subcon.congruence_lattice(...)``), so the traced
run's wrappers see every call.  The reasons for each workload are in
README.md next to this file.
"""

from __future__ import annotations

import random
import re
from itertools import product

from relog import algebra, errors, interp, logic, morph, subcon

from recorder import FAILED


def _algebra_text(a):
    return repr((a.name, a.elements, a.meet, a.join, a.fusion, a.neg))


def _is_automorphism(a, mapping):
    """Independent check: a bijection that commutes with every operation."""
    n = a.size
    if sorted(mapping) != list(range(n)):
        return False
    if any(mapping[a.neg[x]] != a.neg[mapping[x]] for x in range(n)):
        return False
    return all(mapping[t[x][y]] == t[mapping[x]][mapping[y]]
               for t in (a.meet, a.join, a.fusion) for x in range(n) for y in range(n))


# ---------------------------------------------------------------------------
# structure: congruences, subuniverses, automorphisms, CEP
# ---------------------------------------------------------------------------

# exponent of crystal -> (congruences, subuniverses with the empty one,
# automorphisms) of crystal^e
CRYSTAL_POWER_ANSWERS = {1: (2, 10, 2), 2: (4, 94, 8)}
# builtin -> (failed, checked) congruence extensions over its HS class
CEP_ANSWERS = {"crystal": (0, 36), "belnap-m": (3, 49)}


def structure_setup(seed, smoke, rec):
    crystal_exp, boolean_exp = (1, 3) if smoke else (2, 5)
    crystal = algebra.builtin("crystal")
    state = {
        "seed": seed,
        "crystal_power": algebra.power(crystal, crystal_exp),
        "boolean_power": algebra.power(algebra.builtin("boolean2"), boolean_exp),
        "answers": CRYSTAL_POWER_ANSWERS[crystal_exp],
        "boolean_congruences": 2 ** boolean_exp,   # Con(2^n) is the Boolean lattice 2^n
        "hs_bases": {name: algebra.builtin(name) for name in CEP_ANSWERS},
        # CEP pairs: every subuniverse up to the first size, a seeded one of
        # each size up to the second.  A pair's cost grows steeply with its
        # size, and the larger ones cost as much as Con of the whole product.
        "pair_sizes": (3, 5) if smoke else (10, 20),
    }
    for key in ("crystal_power", "boolean_power"):
        rec.note_input(_algebra_text(state[key]))
    return state


def _cep_sample(universes, seed, small, large):
    """Every nonempty universe of at most `small` elements, and one drawn by
    the seed of each larger size up to `large`."""
    rng = random.Random(seed)
    by_size = {}
    for members in sorted(universes, key=lambda s: (len(s), s)):
        by_size.setdefault(len(members), []).append(members)
    sample = [m for size in sorted(by_size) if 0 < size <= small for m in by_size[size]]
    return sample + [rng.choice(by_size[size]) for size in sorted(by_size)
                     if small < size <= large]


def structure_run(state, rec):
    big, cube = state["crystal_power"], state["boolean_power"]
    congruences, universes, automorphisms = state["answers"]

    lattice = rec.op("Con(crystal^e)", lambda: subcon.congruence_lattice(big))
    if lattice is not FAILED:
        rec.check(len(lattice) == congruences,
                  f"Con({big.name}) has {len(lattice)} congruences, expected {congruences}")

    cube_lattice = rec.op("Con(boolean2^n)", lambda: subcon.congruence_lattice(cube))
    if cube_lattice is not FAILED:
        rec.check(len(cube_lattice) == state["boolean_congruences"],
                  f"Con({cube.name}) has {len(cube_lattice)} congruences, "
                  f"expected {state['boolean_congruences']}")

    subs = rec.op("Sub(crystal^e)", lambda: subcon.all_subuniverses(big, cap=big.size))
    if subs is not FAILED:
        rec.check(len(subs) == universes,
                  f"{big.name} has {len(subs)} subuniverses, expected {universes}")

    autos = rec.op("Aut(crystal^e)", lambda: morph.automorphisms(big))
    if autos is not FAILED:
        maps = {a.mapping for a in autos}
        rec.check(len(maps) == len(autos) == automorphisms
                  and all(_is_automorphism(big, m) for m in maps),
                  f"{big.name}: {len(autos)} automorphisms, expected {automorphisms} "
                  "distinct ones")

    for name, base in state["hs_bases"].items():
        result = rec.op(f"CEP over HS({name})",
                        lambda: subcon.check_cep_class(subcon.hs_class(base)))
        if result is not FAILED:
            failed, checked = CEP_ANSWERS[name]
            rec.check(len(result[1]) == failed and result[2] == checked,
                      f"CEP over HS({name}): {len(result[1])} of {result[2]} failed, "
                      f"expected {failed} of {checked}")

    if lattice is FAILED or subs is FAILED:
        return
    # One query over the whole sample: single pairs take well under 10 ms,
    # and such short calls vary by half from one process to the next.
    sample = _cep_sample(subs, state["seed"], *state["pair_sizes"])
    for members in sample:
        rec.note_input(repr(members))
    pairs = rec.op("CEP pairs", lambda: [subcon.check_cep_pair(big, m, big_lattice=lattice)
                                         for m in sample])
    if pairs is not FAILED:
        # The variety of crystal has CEP, so every congruence of every
        # subalgebra of crystal^e extends.
        bad = [m for m, witnesses in zip(sample, pairs)
               if not (witnesses and all(w.extendable for w in witnesses))]
        rec.check(not bad, f"{big.name}: a congruence does not extend from {bad}")


# ---------------------------------------------------------------------------
# consequence: large valuation grids
# ---------------------------------------------------------------------------

# algebra, variables mentioned, schemata posed as theorems (None: all of
# them), explosion instances.  The schema lists are fixed, not drawn, so the
# grid work of a round does not depend on the seed.  Every schema is posed
# twice at 5 variables over crystal: those 20 problems cost about the same,
# and the median operation falls among them.  No schema is posed at 7
# variables: its full grid alone took 40% of a round, and a run needs many
# short rounds for a steady median; 7 variables are reached by explosions.
CONSEQUENCE_GROUPS = (
    ("crystal", 5, None, 10),
    ("crystal", 5, None, 0),
    ("crystal", 6, ("conjunction-elimination",), 6),
    ("crystal", 7, (), 4),
    ("belnap-m", 5, ("identity", "double-negation", "distribution", "excluded-middle"), 6),
    ("belnap-m", 6, (), 4),
)
CONSEQUENCE_SMOKE_GROUPS = (
    ("crystal", 3, ("identity",), 2),
    ("belnap-m", 3, ("excluded-middle",), 2),
)
SCHEMA_LETTER = re.compile(r"\b[pqr]\b")


def _term(rng, names, connectives):
    text = names[0]
    for name in names[1:]:
        text = f"({text} {rng.choice(connectives)} {name})"
    return text


def _schema_instance(rng, schema, names):
    """Substitute terms over disjoint groups of `names` for the schema letters.

    Group sizes are fixed by the letter count, so the formula size is too."""
    letters = sorted(set(SCHEMA_LETTER.findall(schema)))
    order = list(names)
    rng.shuffle(order)
    terms = {letter: _term(rng, order[i::len(letters)], "&|*")
             for i, letter in enumerate(letters)}
    return SCHEMA_LETTER.sub(lambda m: f"({terms[m.group()]})", schema)


def _refutes_explosion(a, premise_form):
    """Whether some x, y refute explosion in `a`, read off the tables.

    Lattice terms are idempotent, so setting every variable of A to x and
    every variable of B to y refutes each explosion instance built from
    such terms too."""
    for x, y in product(range(a.size), repeat=2):
        if premise_form:
            if a.is_designated(x) and a.is_designated(a.neg[x]) and not a.is_designated(y):
                return True
        elif not a.is_designated(a.neg[a.fusion[a.meet[x][a.neg[x]]][a.neg[y]]]):
            return True
    return False


def _explosion(rng, names, late, premise_form):
    """A, ~A |- B or |- (A & ~A) -> B, with A a meet of half the variables
    and B a join of the rest.

    Element 0 is the bottom of crystal and of belnap-m and no refuting value
    of A, so with A's variables first in the sort order the least
    countermodel lies beyond the first 1/n of the grid; with B's first it
    lies near the start.  The seed only orders the variables inside A and B,
    so the cost does not depend on it."""
    half = len(names) // 2
    if late:
        a_names, b_names = list(names[:half]), list(names[half:])
    else:
        a_names, b_names = list(names[len(names) - half:]), list(names[:len(names) - half])
    rng.shuffle(a_names)
    rng.shuffle(b_names)
    a_term, b_term = _term(rng, a_names, "&"), _term(rng, b_names, "|")
    if premise_form:
        return [a_term, f"~({a_term})"], b_term
    return [], f"(({a_term}) & ~({a_term})) -> ({b_term})"


def consequence_setup(seed, smoke, rec):
    rng = random.Random(seed)
    schemata = dict(logic.R_THEOREM_SCHEMATA)
    algebras = {name: algebra.builtin(name) for name in ("crystal", "belnap-m")}
    problems = []
    for name, k, chosen, explosions in (CONSEQUENCE_SMOKE_GROUPS if smoke
                                        else CONSEQUENCE_GROUPS):
        a = algebras[name]
        names = [f"v{i}" for i in range(k)]
        for schema in (chosen if chosen is not None else schemata):
            problems.append((a, [], _schema_instance(rng, schemata[schema], names), True))
        premise_form = _refutes_explosion(a, premise_form=True)
        if not _refutes_explosion(a, premise_form=False):
            raise ValueError(f"explosion is not refutable in {name}")
        for i in range(explosions):
            premises, conclusion = _explosion(rng, names, late=i % 2 == 1,
                                              premise_form=premise_form and i % 4 >= 2)
            problems.append((a, premises, conclusion, False))
    for a, premises, conclusion, holds in problems:
        rec.note_input(f"{a.name}: {premises} |- {conclusion}: {holds}")
    return {"problems": problems}


def _decide(a, premise_texts, conclusion_text):
    premises = [logic.parse_formula(t) for t in premise_texts]
    conclusion = logic.parse_formula(conclusion_text)
    if premises:
        verdict = logic.entails([a], premises, conclusion)
    else:
        verdict = logic.theorem([a], conclusion)
    if verdict.holds:
        return True, None
    model = verdict.countermodel
    return False, logic.verify_countermodel(model.algebra, model.valuation,
                                            premises, conclusion)


def consequence_run(state, rec):
    for a, premises, conclusion, holds in state["problems"]:
        outcome = rec.op("entailment", _decide, a, premises, conclusion)
        if outcome is FAILED:
            continue
        decided, verified = outcome
        if holds:
            rec.check(decided, f"{a.name}: {premises} |- {conclusion} should hold")
        else:
            rec.check(not decided and verified,
                      f"{a.name}: {premises} |- {conclusion} should fail with a "
                      "countermodel that re-verifies")


# ---------------------------------------------------------------------------
# free-closure: free algebras grown element by element
# ---------------------------------------------------------------------------

# builtin, generators, elements of the free algebra; the free Boolean
# algebra on k generators has 2^(2^k) elements.
FREE_ALGEBRAS = (("boolean2", 3, 256), ("crystal", 1, 64), ("belnap-m", 1, 64))
FREE_SMOKE_ALGEBRAS = (("boolean2", 2, 16), ("crystal", 1, 64), ("belnap-m", 1, 64))


def free_closure_setup(seed, smoke, rec):
    grown = 40 if smoke else 400
    rng = random.Random(seed)
    state = {
        "crystal": algebra.builtin("crystal"),
        "grown": grown,
        "sample": sorted(rng.sample(range(grown), 5 if smoke else 20)),
        "closed": [(algebra.builtin(name), k, size) for name, k, size in
                   (FREE_SMOKE_ALGEBRAS if smoke else FREE_ALGEBRAS)],
    }
    rec.note_input(f"FreeAlgebra(crystal, 2) to {grown}; sample {state['sample']}")
    for base, k, size in state["closed"]:
        rec.note_input(f"free_algebra({base.name}, {k}) = {size}")
    return state


def free_closure_run(state, rec):
    crystal = state["crystal"]
    fa = interp.FreeAlgebra(crystal, 2)
    for element in range(state["grown"]):
        admitted = rec.op("admit", fa.ensure, element)
        if admitted is not True:
            if admitted is False:
                rec.check(False, f"FreeAlgebra(crystal, 2) closed below {element + 1} elements")
            return
    grid = list(product(range(crystal.size), repeat=2))
    wrong = [element for element in state["sample"]
             if any(logic.evaluate(crystal, {"p": x, "q": y},
                                   fa.representative(element, names=("p", "q"))) != value
                    for (x, y), value in zip(grid, fa.vectors[element]))]
    rec.check(not wrong, f"FreeAlgebra(crystal, 2): representatives of {wrong} "
                         "do not evaluate to their vectors")
    for base, k, size in state["closed"]:
        closed = rec.op(f"free_algebra({base.name}, {k})", interp.free_algebra, base, k)
        if closed is FAILED:
            continue
        rec.amortise(closed.element_count)
        rec.check(closed.element_count == size,
                  f"free_algebra({base.name}, {k}) has {closed.element_count} "
                  f"elements, expected {size}")


# ---------------------------------------------------------------------------
# interpolation: many small Maehara problems, cold free-algebra cache
# ---------------------------------------------------------------------------

POOL = ("p", "q", "r")
# relog's free-algebra coordinate cap, 6^3: the known answer for a problem
# whose shared variables need more coordinates is a CapExceeded refusal.
COORDINATE_CAP = 216
VARIABLE = re.compile(r"[a-z][a-z0-9_]*")


def _random_formula(rng, max_size=4, continue_probability=0.5, max_depth=3):
    """Uniform connective, geometric depth, rejection-sampled to `max_size` nodes."""
    def gen(depth):
        if depth >= max_depth or rng.random() > continue_probability:
            return rng.choice(POOL), 1
        connective = rng.choice("~&|*")
        if connective == "~":
            text, size = gen(depth + 1)
            return f"~({text})", size + 1
        (left, lsize), (right, rsize) = gen(depth + 1), gen(depth + 1)
        return f"({left} {connective} {right})", lsize + rsize + 1

    while True:
        text, size = gen(0)
        if size <= max_size:
            return text


def _variables(texts):
    return set().union(*[VARIABLE.findall(t) for t in texts])


def interpolation_setup(seed, smoke, rec):
    rng = random.Random(seed)
    per_algebra = 30 if smoke else 1500
    problems = []
    for name in ("crystal", "belnap-m"):
        a = algebra.builtin(name)
        for _ in range(per_algebra):
            sigma = [_random_formula(rng) for _ in range(rng.randrange(3))]
            gamma = [_random_formula(rng) for _ in range(1 + rng.randrange(2))]
            alpha = _random_formula(rng)
            problems.append((a, sigma, gamma, alpha))
            rec.note_input(f"{name}: {sigma}; {gamma} |- {alpha}")
    return {"problems": problems}


def _interpolate(a, sigma_texts, gamma_texts, alpha_text):
    sigma = [logic.parse_formula(t) for t in sigma_texts]
    gamma = [logic.parse_formula(t) for t in gamma_texts]
    alpha = logic.parse_formula(alpha_text)
    try:
        result = interp.maehara_interpolant(sigma, gamma, alpha, [a])
    except errors.NoSharedVariables:
        return "no-shared", None
    except errors.NotEntailed as exc:
        model = exc.countermodel
        return "not-entailed", logic.verify_countermodel(
            model.algebra, model.valuation, sigma + gamma, alpha)
    except errors.InterpolantNotFound:
        return "not-found", None
    except errors.CapExceeded:
        return "cap-exceeded", None
    return "found", interp.verify_interpolant(sigma, gamma, alpha, result.delta, [a]).ok


def interpolation_run(state, rec):
    for a, sigma, gamma, alpha in state["problems"]:
        problem = f"{a.name}: {sigma}; {gamma} |- {alpha}"
        outcome = rec.op("interpolation", _interpolate, a, sigma, gamma, alpha)
        if outcome is FAILED:
            continue
        kind, verified = outcome
        if kind == "cap-exceeded":
            # A documented refusal, not a failure, when the free algebra over
            # the shared variables needs more coordinates than the cap.
            shared = _variables(sigma + [alpha]) & _variables(gamma)
            rec.check(a.size ** len(shared) > COORDINATE_CAP,
                      f"{problem}: CapExceeded with {a.size}^{len(shared)} coordinates")
            rec.cap_exceeded += 1
        elif kind == "no-shared":
            rec.check(not (_variables(sigma + [alpha]) & _variables(gamma)),
                      f"{problem}: variables are shared, yet NoSharedVariables")
        elif kind == "not-found":
            # crystal has the interpolation property; belnap-m is not known to
            rec.check(a.name != "crystal", f"{problem}: InterpolantNotFound over crystal")
        else:
            rec.check(verified, f"{problem}: {kind} does not re-verify")


WORKLOADS = {
    "structure": (structure_setup, structure_run),
    "consequence": (consequence_setup, consequence_run),
    "free-closure": (free_closure_setup, free_closure_run),
    "interpolation": (interpolation_setup, interpolation_run),
}
