"""Brute-force oracles shared by the test suites.

The value-vector oracle enumerates raw formula trees by node count, with no
closure machinery in common with the implementation under test.  The
reference free-algebra closure builds every product coordinate by coordinate
and pushes both orientations of every table.  The subuniverse oracles filter
the whole powerset, or close element sets one generator at a time in both
argument positions of every table.  The congruence-lattice oracle joins the
principal congruences of all pairs with every congruence found, both from a
union-find closure of element pairs, and the FSI oracle meets them as
intersections of partitions.  The subalgebra oracle checks closure under
every operation before it looks each entry up, and the quotient oracle
collects, per pair of blocks, the blocks of all their products.  The CEP
oracle builds the subalgebra and reads its own congruence lattice.  The principal-congruence oracle
searches all set partitions.  The valuation
oracles list every valuation of a grid before filtering it.  The morphism
checks at the end compose maps and test them against the tables; the
bounded amalgam search tries the subalgebras of powers of a generator one
after another.  The product oracle looks every entry up through its
coordinate tuple.  The
fixture tables below are not commutative, so they tell a closure that skips
an argument position apart.
"""

import heapq
from itertools import combinations, count, product

from relog.algebra import FiniteAlgebra, builtin_boolean2, power, subalgebra
from relog.errors import NotACongruence, SizeCapExceeded, UnknownElement
from relog.interp import FreeAlgebra
from relog.logic import evaluate
from relog.morph import Morphism, _search_maps
from relog.subcon import (
    DEFAULT_SUBUNIVERSE_CAP,
    Congruence,
    all_subuniverses,
    congruence_lattice,
    identity_congruence,
)


def renamed(algebra, name):
    """A new algebra with the tables of `algebra` under another name: equal to
    it, and with none of its derived tables built yet."""
    return FiniteAlgebra(name, algebra.elements, algebra.meet, algebra.join,
                         algebra.fusion, algebra.neg)


_B2 = builtin_boolean2()
_B2_SQUARE = power(_B2, 2)

# boolean2^2 with meet replaced by the right projection x meet y = y.  Meet is
# not commutative, and its order has no covering pair, though the kernels of
# the two coordinate projections are congruences.  A projection's product is
# always one of its arguments, so its two orientations never differ in a
# closure.
NOT_A_LATTICE = FiniteAlgebra("boolean2^2~", _B2_SQUARE.elements,
                              [range(4)] * 4, _B2_SQUARE.join, _B2_SQUARE.fusion,
                              _B2_SQUARE.neg)

# boolean2 with fusion replaced by implication ~x | y: a table whose two
# orientations give new, different products.
IMPLICATION_FUSION = FiniteAlgebra(
    "boolean2->", _B2.elements, _B2.meet, _B2.join,
    [[_B2.join[_B2.neg[x]][y] for y in range(2)] for x in range(2)], _B2.neg,
)

# A four-element algebra whose meet ignores its left argument, x meet y = g(y)
# with g swapping 0 with 2 and 1 with 3; join and fusion are the left
# projection and neg the identity.  Only meet's right argument position
# carries the pair (0, 1) to (2, 3).
_SWAP = (2, 3, 0, 1)
LEFT_BLIND_MEET = FiniteAlgebra(
    "left-blind", ("a", "b", "c", "d"), [_SWAP] * 4,
    [[x] * 4 for x in range(4)], [[x] * 4 for x in range(4)], range(4),
)

# A three-element algebra whose meet is 0 everywhere except 2 meet 0 = 1;
# join and fusion are the left projection and neg the identity.  {0, 2} is
# not closed, but a closure that takes only x meet y for each new x, with y
# already a member, never forms 2 meet 0: 0 joins after 2 and contributes
# only 0 meet 2 = 0.
SKEW_MEET = FiniteAlgebra(
    "skew", ("a", "b", "c"), [(0, 0, 0), (0, 0, 0), (1, 0, 0)],
    [[x] * 3 for x in range(3)], [[x] * 3 for x in range(3)], range(3),
)

# A 17-element chain, one past the byte lanes' 16: meet and join are min and
# max, neg is x -> 16 - x, and fusion x * y = (x*y + x) mod 17 does not
# commute.  Seven of its elements are designated.
CHAIN17 = FiniteAlgebra(
    "chain17", [f"c{i}" for i in range(17)],
    [[min(x, y) for y in range(17)] for x in range(17)],
    [[max(x, y) for y in range(17)] for x in range(17)],
    [[(x * y + x) % 17 for y in range(17)] for x in range(17)],
    [16 - x for x in range(17)],
)


def lattice_tables_from_covers(n, covers):
    """(meet, join) of the order on range(n) generated by the covering pairs
    (x, y), x below y: each bound is the one that the most others lie below
    (for meet) or above (for join)."""
    leq = [[x == y for y in range(n)] for x in range(n)]
    for x, y in covers:
        leq[x][y] = True
    for k, x, y in product(range(n), repeat=3):
        leq[x][y] = leq[x][y] or (leq[x][k] and leq[k][y])
    meet, join = [], []
    for x in range(n):
        lower = [[z for z in range(n) if leq[z][x] and leq[z][y]] for y in range(n)]
        upper = [[z for z in range(n) if leq[x][z] and leq[y][z]] for y in range(n)]
        meet.append(tuple(max(zs, key=lambda z: sum(leq[w][z] for w in zs)) for zs in lower))
        join.append(tuple(max(zs, key=lambda z: sum(leq[z][w] for w in zs)) for zs in upper))
    return tuple(meet), tuple(join)


def brute_force_min_sizes(algebras, k, max_size):
    """Value vector -> least node count of a formula over k variables with it.

    A vector holds the formula's value under every valuation of every algebra
    in `algebras`, the algebras' valuation grids one after the other."""
    coordinates = [
        (algebra, point)
        for algebra in algebras
        for point in product(range(algebra.size), repeat=k)
    ]
    owners = [algebra for algebra, _ in coordinates]
    binary = [[getattr(a, op) for a in owners] for op in ("meet", "join", "fusion")]
    by_size = {1: {tuple(point[d] for _, point in coordinates) for d in range(k)}}
    for size in range(2, max_size + 1):
        fresh = set()
        for vec in by_size.get(size - 1, ()):
            fresh.add(tuple(a.neg[x] for a, x in zip(owners, vec)))
        for lsize in range(1, size - 1):
            rsize = size - 1 - lsize
            for lv in by_size.get(lsize, ()):
                for rv in by_size.get(rsize, ()):
                    for tables in binary:
                        fresh.add(tuple(t[x][y] for t, x, y in zip(tables, lv, rv)))
        by_size[size] = fresh
    sizes = {}
    for size in sorted(by_size):
        for vec in by_size[size]:
            sizes.setdefault(vec, size)
    return sizes


def brute_force_vectors(algebra, k, max_size):
    return set(brute_force_min_sizes([algebra], k, max_size))


def brute_force_designating_valuations(algebra, premises, conclusion=None):
    """Every valuation over the formulas' sorted variables, in lexicographic
    order, that designates each premise and leaves the conclusion, if any,
    undesignated."""
    formulas = list(premises) + ([] if conclusion is None else [conclusion])
    names = sorted(set().union(*[f.variables() for f in formulas]))
    grid = [dict(zip(names, point))
            for point in product(range(algebra.size), repeat=len(names))]
    return [
        valuation for valuation in grid
        if all(algebra.is_designated(evaluate(algebra, valuation, f)) for f in premises)
        and (conclusion is None
             or not algebra.is_designated(evaluate(algebra, valuation, conclusion)))
    ]


def _shared_valuation_indices(scope_vars, shared, base_size):
    """Map each valuation over `scope_vars` to the index of its restriction to
    `shared` in the free algebra's valuation grid (lexicographic, sorted names)."""
    positions = [scope_vars.index(v) for v in shared]
    indices = []
    for assignment in product(range(base_size), repeat=len(scope_vars)):
        idx = 0
        for p in positions:
            idx = idx * base_size + assignment[p]
        indices.append((assignment, idx))
    return indices


def reference_interpolant_masks(algebra, sigma, gamma, alpha, shared):
    """The shared-grid points where an interpolant must be designated (gamma
    side) and where it must not be (sigma/alpha side), from a listing of each
    side's whole valuation grid."""
    n = algebra.size
    is_designated = algebra.is_designated
    gamma_scope = sorted(set().union(*[g.variables() for g in gamma]) | set(shared))
    required = set()
    for assignment, idx in _shared_valuation_indices(gamma_scope, shared, n):
        valuation = dict(zip(gamma_scope, assignment))
        if all(is_designated(evaluate(algebra, valuation, g)) for g in gamma):
            required.add(idx)
    alpha_scope = sorted(set(alpha.variables()).union(*[s.variables() for s in sigma])
                         | set(shared))
    forbidden = set()
    for assignment, idx in _shared_valuation_indices(alpha_scope, shared, n):
        valuation = dict(zip(alpha_scope, assignment))
        if all(is_designated(evaluate(algebra, valuation, s)) for s in sigma) \
                and not is_designated(evaluate(algebra, valuation, alpha)):
            forbidden.add(idx)
    return required, forbidden


def is_closed(algebra, members):
    """Whether `members` is closed under the four operations."""
    ms = set(members)
    if any(algebra.neg[x] not in ms for x in ms):
        return False
    for x, y in product(ms, repeat=2):
        for table in (algebra.meet, algebra.join, algebra.fusion):
            if table[x][y] not in ms:
                return False
    return True


def reference_subalgebra(algebra, members):
    """The algebra induced on a closed subset of element indices, named
    `<name>[<members joined by +>]`; UnknownElement if it is not closed."""
    members = tuple(sorted(members))
    if not is_closed(algebra, members):
        raise UnknownElement(f"{members} is not closed in {algebra.name}")
    pos = {x: i for i, x in enumerate(members)}
    names = [algebra.elements[x] for x in members]

    def take2(table):
        return [[pos[table[x][y]] for y in members] for x in members]

    return FiniteAlgebra(f"{algebra.name}[{'+'.join(names)}]", names, take2(algebra.meet),
                         take2(algebra.join), take2(algebra.fusion),
                         [pos[algebra.neg[x]] for x in members])


def reference_quotient(algebra, blocks):
    """The algebra of a partition's blocks, named `<name>%<blocks>`, each
    element named by its block's members joined with '+'; NotACongruence if
    some operation sends a pair of blocks to more than one block."""
    blocks = sorted((tuple(sorted(block)) for block in blocks), key=lambda b: b[0])
    block_of = {x: bi for bi, block in enumerate(blocks) for x in block}

    def induced(table):
        out = []
        for bx in blocks:
            out.append([])
            for by in blocks:
                results = {block_of[table[x][y]] for x in bx for y in by}
                if len(results) != 1:
                    raise NotACongruence(f"not well defined on {bx} and {by}")
                out[-1].append(results.pop())
        return out

    tables = [induced(table) for table in (algebra.meet, algebra.join, algebra.fusion)]
    neg = []
    for block in blocks:
        results = {block_of[algebra.neg[x]] for x in block}
        if len(results) != 1:
            raise NotACongruence(f"neg not well defined on {block}")
        neg.append(results.pop())
    names = ["+".join(algebra.elements[x] for x in block) for block in blocks]
    return FiniteAlgebra(f"{algebra.name}%{len(blocks)}", names, *tables, neg)


def powerset_subuniverses(algebra):
    """Every subuniverse, by filtering the whole powerset, sorted by (size, members)."""
    out = []
    for r in range(algebra.size + 1):
        for subset in combinations(range(algebra.size), r):
            if is_closed(algebra, subset):
                out.append(subset)
    return sorted(out, key=lambda s: (len(s), s))


def _reference_close(algebra, members, frontier):
    """Grow the set `members` in place to a subuniverse and return it sorted.
    Every frontier element is combined, in both argument positions of all
    three binary tables, with every member; the other members must already
    form a closed set."""
    while frontier:
        x = frontier.pop()
        candidates = [algebra.neg[x]]
        for table in (algebra.meet, algebra.join, algebra.fusion):
            candidates.extend(table[x][y] for y in members)
            candidates.extend(table[y][x] for y in members)
        for c in candidates:
            if c not in members:
                members.add(c)
                frontier.append(c)
    return tuple(sorted(members))


def reference_generated_subuniverse(algebra, seed):
    """Least subuniverse containing `seed`, from element sets."""
    return _reference_close(algebra, set(seed), list(seed))


def reference_subuniverses(algebra, limit=None):
    """Every subuniverse, sorted by (size, members), from element sets: each
    found subuniverse is extended by one outside generator and closed.  None
    once more than `limit` subuniverses are found."""
    found = {()}
    frontier = [()]
    while frontier:
        base = frontier.pop()
        base_set = set(base)
        for x in range(algebra.size):
            if x not in base_set:
                grown = _reference_close(algebra, base_set | {x}, [x])
                if grown not in found:
                    found.add(grown)
                    frontier.append(grown)
                    if limit is not None and len(found) > limit:
                        return None
    return sorted(found, key=lambda s: (len(s), s))


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if rx > ry:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def _uf_to_congruence(algebra, uf):
    groups = {}
    for x in range(algebra.size):
        groups.setdefault(uf.find(x), []).append(x)
    return Congruence(algebra, groups.values(), check=False)


def reference_principal_congruence(algebra, x, y):
    """Least congruence identifying x and y, by union-find over element pairs.

    Every merged pair is pushed through all one-step translations of the basic
    operations, one product at a time, until nothing new merges.  A
    commutative table is visited in one argument position."""
    uf = _UnionFind(algebra.size)
    queue = [(x, y)] if uf.union(x, y) else []
    rows = [side for table, transpose, commutative in algebra.binary_tables
            for side in ((table,) if commutative else (table, transpose))]
    while queue:
        x, y = queue.pop()
        for table in rows:
            for u, v in zip(table[x], table[y]):
                if u != v and uf.union(u, v):
                    queue.append((u, v))
        if uf.union(algebra.neg[x], algebra.neg[y]):
            queue.append((algebra.neg[x], algebra.neg[y]))
    return _uf_to_congruence(algebra, uf)


def reference_congruence_join(theta, phi):
    """Join of two congruences: the transitive closure of their union."""
    algebra = theta.algebra
    uf = _UnionFind(algebra.size)
    for cong in (theta, phi):
        for block in cong.blocks:
            for x in block[1:]:
                uf.union(block[0], x)
    return _uf_to_congruence(algebra, uf)


def brute_force_congruence_lattice(algebra, limit=None):
    """Every congruence, finest first: the principal congruences of all pairs,
    closed under joins of every found congruence with every other.  None once
    more than `limit` congruences are found."""
    found = {identity_congruence(algebra)}
    for x, y in combinations(range(algebra.size), 2):
        found.add(reference_principal_congruence(algebra, x, y))
    frontier = list(found)
    while frontier:
        new = []
        for theta in frontier:
            for phi in list(found):
                joined = reference_congruence_join(theta, phi)
                if joined not in found:
                    found.add(joined)
                    new.append(joined)
                    if limit is not None and len(found) > limit:
                        return None
        frontier = new
    return sorted(found, key=lambda c: (-len(c.blocks), c.block_of))


def reference_cep_pair(algebra, members, big_lattice):
    """(theta, extendable, extension) per congruence theta of the subalgebra
    on `members`: the subalgebra is built and its own congruence lattice
    computed, and each theta is compared with the restriction of every phi
    in `big_lattice`, the first match being its extension."""
    members = tuple(sorted(members))

    def restriction(phi):
        groups = {}
        for pos, x in enumerate(members):
            groups.setdefault(phi.block_of[x], []).append(pos)
        return sorted(tuple(g) for g in groups.values())

    witnesses = []
    for theta in congruence_lattice(subalgebra(algebra, members)):
        extension = next((phi for phi in big_lattice
                          if restriction(phi) == list(theta.blocks)), None)
        witnesses.append((theta, extension is not None, extension))
    return witnesses


def congruence_meet(theta, phi):
    """Meet in the congruence lattice: intersection of the relations."""
    algebra = theta.algebra
    groups = {}
    for x in range(algebra.size):
        groups.setdefault((theta.block_of[x], phi.block_of[x]), []).append(x)
    return Congruence(algebra, groups.values(), check=False)


def reference_simple_and_fsi(lattice):
    """(simple, FSI) read off a whole congruence lattice, finest first:
    simple when it holds exactly the identity and a different full
    congruence, FSI when no two congruences besides the identity meet in
    the identity."""
    delta = lattice[0]
    fsi = not any(congruence_meet(theta, phi) == delta
                  for theta, phi in combinations(lattice[1:], 2))
    return len(lattice) == 2, fsi


def reference_direct_product(name, factors):
    """The direct product built entry by entry through coordinate tuples:
    elements in lexicographic order of the tuples, names joined with '.'."""
    coords = list(product(*(range(a.size) for a in factors)))
    names = [".".join(a.elements[c] for a, c in zip(factors, tup)) for tup in coords]
    pos = {tup: i for i, tup in enumerate(coords)}

    def lift2(tables):
        return [
            [pos[tuple(t[u][v] for t, u, v in zip(tables, x, y))] for y in coords]
            for x in coords
        ]

    return FiniteAlgebra(name, names, lift2([a.meet for a in factors]),
                         lift2([a.join for a in factors]),
                         lift2([a.fusion for a in factors]),
                         [pos[tuple(a.neg[u] for a, u in zip(factors, x))] for x in coords])


class ReferenceFreeAlgebra(FreeAlgebra):
    """FreeAlgebra with a uniform-cost queue in place of the level walk, and
    its closure step built one coordinate at a time.

    Candidates wait in a heap ordered by (size, push count); a vector is
    pushed again only at a smaller size.  Both orientations of every binary
    table are pushed for every pair, so no commutativity is assumed
    anywhere.  Only the vector encoding, `bytes` or tuple, is the
    implementation's: `base.lanes.encode`."""

    def __init__(self, base, k, **caps):
        super().__init__(base, k, **caps)
        self._heap = []
        self._best = {}          # vector -> least size pushed
        self._pushes = count()
        grid = list(product(range(base.size), repeat=k))
        for d in range(k):
            self._push(base.lanes.encode(val[d] for val in grid), 1, ("gen", d, None))

    def _push(self, vector, size, parent):
        best = self._best.get(vector)
        if best is not None and best <= size:
            return
        self._best[vector] = size
        heapq.heappush(self._heap, (size, next(self._pushes), vector, parent))

    def _pop_next(self):
        encode = self.base.lanes.encode
        neg = self.base.neg
        tables = {"meet": self.base.meet, "join": self.base.join, "fusion": self.base.fusion}
        while self._heap:
            size, _, vector, parent = heapq.heappop(self._heap)
            if vector in self.index:
                continue
            new_id = len(self.vectors)
            self.index[vector] = new_id
            self.vectors.append(vector)
            self.sizes.append(size)
            self.parents.append(parent)
            self._push(encode(neg[v] for v in vector), size + 1, ("neg", new_id, None))
            for other_id in range(new_id + 1):
                ovec = self.vectors[other_id]
                osize = self.sizes[other_id]
                for op in ("meet", "join", "fusion"):
                    table = tables[op]
                    if other_id != new_id:
                        self._push(
                            encode(table[u][v] for u, v in zip(ovec, vector)),
                            osize + size + 1, (op, other_id, new_id),
                        )
                    self._push(
                        encode(table[u][v] for u, v in zip(vector, ovec)),
                        size + osize + 1, (op, new_id, other_id),
                    )
            return new_id
        self.closed = True
        return None


def closure_state(fa):
    """What a closure has built so far: vectors, sizes, parents, and whether
    it is complete."""
    return fa.vectors, fa.sizes, fa.parents, fa.closed


def set_partitions(n):
    """Every partition of range(n), each as a block-label tuple."""
    labels = [()]
    for _ in range(n):
        labels = [
            lab + (b,) for lab in labels for b in range(max(lab, default=-1) + 2)
        ]
    return labels


def is_compatible(algebra, labels):
    """Whether the partition with these block labels respects every operation,
    checking both argument positions of each binary table."""
    n = algebra.size
    for x, y in combinations(range(n), 2):
        if labels[x] != labels[y]:
            continue
        if labels[algebra.neg[x]] != labels[algebra.neg[y]]:
            return False
        for table in (algebra.meet, algebra.join, algebra.fusion):
            for w in range(n):
                if labels[table[x][w]] != labels[table[y][w]]:
                    return False
                if labels[table[w][x]] != labels[table[w][y]]:
                    return False
    return True


def brute_force_principal_congruences(algebra):
    """(x, y) -> block labels of the finest compatible partition relating x
    and y, for every pair x < y, found among all set partitions."""
    compatible = [p for p in set_partitions(algebra.size) if is_compatible(algebra, p)]
    out = {}
    for x, y in combinations(range(algebra.size), 2):
        relating = [p for p in compatible if p[x] == p[y]]
        finest = max(relating, key=lambda p: len(set(p)))
        assert all(
            q[u] == q[v] for q in relating
            for u, v in combinations(range(algebra.size), 2) if finest[u] == finest[v]
        ), "the finest compatible partition refines every other"
        out[x, y] = finest
    return out


# ---------------------------------------------------------------------------
# Morphism checks, computed from the tables alone
# ---------------------------------------------------------------------------

def identity_morphism(algebra):
    return Morphism(algebra, algebra, tuple(range(algebra.size)))


def compose(f, g):
    """f after g (apply `g` first)."""
    if g.target != f.source:
        raise ValueError("composition mismatch")
    return Morphism(g.source, f.target, tuple(f.mapping[v] for v in g.mapping))


def is_automorphism(morphism):
    return morphism.is_isomorphism and morphism.source == morphism.target


def preserves_operations(morphism):
    s, t, m = morphism.source, morphism.target, morphism.mapping
    for x in range(s.size):
        if m[s.neg[x]] != t.neg[m[x]]:
            return False
        for y in range(s.size):
            if m[s.meet[x][y]] != t.meet[m[x]][m[y]]:
                return False
            if m[s.join[x][y]] != t.join[m[x]][m[y]]:
                return False
            if m[s.fusion[x][y]] != t.fusion[m[x]][m[y]]:
                return False
    return True


def brute_force_maps(source, target, injective=False, forced=None):
    """Every operation-preserving map, filtered from all maps in lexicographic order."""
    forced = forced or {}
    for mapping in product(range(target.size), repeat=source.size):
        if any(mapping[x] != v for x, v in forced.items()):
            continue
        if injective and len(set(mapping)) < source.size:
            continue
        morphism = Morphism(source, target, mapping)
        if preserves_operations(morphism):
            yield morphism


# ---------------------------------------------------------------------------
# The bounded amalgam search that the exact decision replaced
# ---------------------------------------------------------------------------

def _candidate_targets(generator, power_bound):
    """The generator, then the subalgebras of its powers up to `power_bound`;
    a power past the subuniverse cap raises SizeCapExceeded before it is built."""
    yield generator
    for exponent in range(1, power_bound + 1):
        size = generator.size ** exponent
        if size > DEFAULT_SUBUNIVERSE_CAP:
            raise SizeCapExceeded(
                f"amalgam search needs the subuniverses of {generator.name}^{exponent} "
                f"({size} elements), over cap {DEFAULT_SUBUNIVERSE_CAP}"
            )
        big = generator if exponent == 1 else power(generator, exponent)
        for members in all_subuniverses(big):
            if members and not (exponent == 1 and len(members) == big.size):
                yield subalgebra(big, members)


def reference_amalgam_in_powers(span, generator, mode="AP", power_bound=1):
    """The first (arm_left, arm_right) into a candidate target, in candidate
    order and then in lexicographic order of the arms, or None.  The left arm
    is injective, and the right one too in AP mode."""
    b_alg, c_alg, apex = span.left.target, span.right.target, span.apex
    min_size = max(b_alg.size, c_alg.size) if mode == "AP" else b_alg.size
    for target in _candidate_targets(generator, power_bound):
        if target.size < min_size:
            continue
        for arm_left in _search_maps(b_alg, target, injective=True):
            forced = {}
            ok = True
            for x in range(apex.size):
                pos = span.right.mapping[x]
                want = arm_left.mapping[span.left.mapping[x]]
                if forced.get(pos, want) != want:
                    ok = False
                    break
                forced[pos] = want
            if not ok:
                continue
            for arm_right in _search_maps(
                c_alg, target, injective=(mode == "AP"), forced=forced,
            ):
                return arm_left, arm_right
    return None


def assert_family_is_an_amalgam(span, family, mode):
    """Each arm is a homomorphism, each pair commutes on the apex, and the arms
    are jointly injective on B, and on C in AP mode."""
    for h, k in family:
        assert h.source == span.left.target and k.source == span.right.target
        assert h.target == k.target
        assert preserves_operations(h) and preserves_operations(k)
        assert compose(h, span.left).mapping == compose(k, span.right).mapping
    sides = (0, 1) if mode == "AP" else (0,)
    for side in sides:
        source = (span.left, span.right)[side].target
        images = {tuple(pair[side].mapping[x] for pair in family) for x in range(source.size)}
        assert len(images) == source.size
