"""Finite permutation groups, subgroup lattices, chief series, and the
topological solvability criteria they support.

Group elements are permutation tuples (0-based images).  Everything
downstream indexes elements into a multiplication table, whose rows are
read off the generators' rows.  Subgroups are enumerated one conjugacy
class at a time by Neubüser's cyclic extension method (Numer. Math. 2,
1960): the representative H of each class is extended by one cyclic
subgroup of prime-power order (a zuppo) per orbit of its normalizer N(H)
on the zuppos outside H, since for n in N(H) the extension by z^n is the
extension by z conjugated by n.  Each extension is a Dimino coset closure
on the table, and each new subgroup brings in its conjugates, its
generators, whether it is normal and, by Schreier's lemma, its
normalizer's generators from one walk of table lookups.  The same closure
builds the derived series and checks the lattice's joins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import labeling as lb
from .complexes import (
    FACE_LIMIT,
    betti_numbers,
    constructive_vd_skeleton,
    depth,
    is_cohen_macaulay,
    shelling_from_vd,
    verify_shelling,
)
from .errors import (
    NotAPermutation,
    NotSolvable,
    OrderLimit,
    SelfCheckFailed,
    SizeLimit,
)
from .lattice import (
    Lattice,
    ModularChain,
    classify_modularity,
    complement_refinements,
    lattice_check,
    verify_chain_modularity,
)
from .poset import bits, from_up, induced_covers, order_complex


Perm = tuple

# Largest group order whose subgroups are enumerated (the CLI's
# --limit-order default); S6 has order 720.
ORDER_LIMIT = 720

# Subgroup count above which the join self-check samples the pairs.
JOIN_CHECK_LIMIT = 60
# Order-complex face count above which no exact depth is reported.
EXACT_DEPTH_FACE_LIMIT = 4000


def _mul(p: Perm, q: Perm) -> Perm:
    return tuple(map(p.__getitem__, q))


class PermGroup:
    """A finite permutation group with its full element set, closed from
    its generators by one breadth-first walk from the identity.  The walk
    records each new element y by (x, g), where y = x.g for an element x
    reached before and a generator g, and ``table()`` replays it.  With
    an ``order_limit``, the walk raises ``OrderLimit`` as soon as it holds
    more elements than that."""

    __slots__ = ("degree", "generators", "elements", "order",
                 "_index", "_walk", "_table", "_inverse")

    def __init__(self, degree: int, generators, order_limit: int | None = None):
        self.degree = degree
        self.generators = tuple(generators)
        walk = {self.identity: None}
        frontier = [self.identity]
        for x in frontier:
            for g in self.generators:
                y = _mul(x, g)
                if y not in walk:
                    walk[y] = x, g
                    frontier.append(y)
                    if order_limit is not None and len(frontier) > order_limit:
                        raise OrderLimit(
                            f"group order exceeds the order limit {order_limit}; "
                            "raise it with --limit-order")
        self.elements = tuple(sorted(frontier))
        self.order = len(self.elements)
        self._index = {p: i for i, p in enumerate(self.elements)}
        self._walk = walk
        self._table = None
        self._inverse = None

    @property
    def identity(self) -> Perm:
        return tuple(range(self.degree))

    def index(self, p: Perm) -> int:
        return self._index[p]

    def table(self):
        """Multiplication table on element indices (built on demand).

        Only the generators' rows are permutation products.  As
        (x.g).b = x.(g.b), the row of x.g is the row of x read along the
        row of g, so replaying the closure walk from the identity's row
        gives every element's row.  An element's inverse is where its row
        holds the identity.
        """
        if self._table is None:
            idx = self._index
            gen_rows = {g: [idx[_mul(g, b)] for b in self.elements]
                        for g in set(self.generators)}
            e = idx[self.identity]
            rows = [None] * self.order
            rows[e] = list(range(self.order))
            for y, (x, g) in itertools.islice(self._walk.items(), 1, None):
                rows[idx[y]] = list(map(rows[idx[x]].__getitem__, gen_rows[g]))
            self._table = rows
            self._inverse = [row.index(e) for row in rows]
        return self._table

    def inverse_indices(self):
        self.table()
        return self._inverse

    def __repr__(self):
        return f"PermGroup(degree {self.degree}, order {self.order})"


def group_from_generators(degree: int, generators,
                          order_limit: int | None = None) -> PermGroup:
    """Close a generator list under products (identity included); see
    ``PermGroup`` for ``order_limit``."""
    gens = []
    for g in generators:
        g = tuple(g)
        if sorted(g) != list(range(degree)):
            raise NotAPermutation(f"{g!r} is not a permutation of 0..{degree - 1}")
        gens.append(g)
    return PermGroup(degree, gens, order_limit)


# ---------------------------------------------------------------- parsing

def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like ``(1 2)(3 4)`` (1-based, () is identity):
    disjoint cycles of points written in ASCII decimal digits, with nothing
    between them.  An empty cycle stands only for the identity, alone."""
    text = text.strip()
    perm = list(range(degree))
    if text in ("()", "e", ""):
        return tuple(perm)
    if not (text.startswith("(") and text.endswith(")")):
        raise NotAPermutation(f"bad cycle notation: {text!r}")
    seen = set()
    cycles = text[1:-1].split(")(")
    for cyc in cycles:
        tokens = cyc.replace(",", " ").split()
        if not all(t.isascii() and t.isdigit() for t in tokens):
            raise NotAPermutation(f"bad cycle {cyc!r}: not a list of integers")
        if not tokens and len(cycles) > 1:
            raise NotAPermutation(f"bad cycle {cyc!r}: empty cycle in a product")
        pts = [int(t) - 1 for t in tokens]
        if any(not 0 <= p < degree for p in pts) or len(set(pts)) != len(pts):
            raise NotAPermutation(f"bad cycle {cyc!r} for degree {degree}")
        if seen.intersection(pts):
            raise NotAPermutation(f"cycle {cyc!r} shares a point with an earlier cycle")
        seen.update(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a] = b
    return tuple(perm)


def parse_group_file(text: str, order_limit: int | None = None) -> PermGroup:
    """Group file: a ``degree: n`` header, then one generator per line;
    ``order_limit`` as in ``group_from_generators``."""
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if not lines or not lines[0].lower().startswith("degree:"):
        raise NotAPermutation("group file must start with 'degree: n'")
    degree = int(lines[0].split(":", 1)[1])
    if degree < 0:
        raise NotAPermutation(f"degree {degree} is negative")
    gens = [parse_cycles(l, degree) for l in lines[1:]]
    return group_from_generators(degree, gens, order_limit)


# ------------------------------------------------------ stock constructions

def symmetric(n: int) -> PermGroup:
    gens = [tuple([1, 0] + list(range(2, n)))] if n >= 2 else []
    if n >= 3:
        gens.append(tuple(list(range(1, n)) + [0]))
    return group_from_generators(n, gens)


def alternating(n: int) -> PermGroup:
    gens = []
    if n >= 3:
        gens.append(parse_cycles("(1 2 3)", n))
    if n >= 4:
        if n % 2 == 1:
            gens.append(tuple(list(range(1, n)) + [0]))
        else:
            cyc = "(" + " ".join(str(i) for i in range(2, n + 1)) + ")"
            gens.append(parse_cycles(cyc, n))
    return group_from_generators(n, gens)


def cyclic(n: int) -> PermGroup:
    return group_from_generators(n, [tuple(list(range(1, n)) + [0])])


def dihedral(n: int) -> PermGroup:
    rot = tuple(list(range(1, n)) + [0])
    ref = tuple((n - i) % n for i in range(n))
    return group_from_generators(n, [rot, ref])


def klein_four() -> PermGroup:
    return group_from_generators(4, [parse_cycles("(1 2)(3 4)", 4),
                                     parse_cycles("(1 3)(2 4)", 4)])


# --------------------------------------------------------------- subgroups

def _extend(table, members, elems: list, gens: list, new) -> tuple:
    """Dimino closure of a subgroup H by the element indices in ``new``.

    H is given by its set of element indices, its element list (identity
    first) and its generators.  Each new generator g grows H to <H, g> as a
    union of left cosets x.H of the subgroup before g: for each coset
    representative x and each generator s, the product s.x either lies in
    the union or starts a new coset, so nothing is re-closed from the
    identity.  Returns (frozenset of indices, elements, generators).
    """
    for g in new:
        if g in members:
            continue
        gens = gens + [g]
        block = elems
        elems = list(block)
        members = set(members)
        rows = [table[s] for s in gens]
        reps = [block[0]]
        for x in reps:
            for row in rows:
                y = row[x]
                if y not in members:
                    row_y = table[y]
                    coset = [row_y[h] for h in block]
                    members.update(coset)
                    elems += coset
                    reps.append(y)
    return frozenset(members), elems, gens


def _is_prime_power(n: int) -> bool:
    p = 2
    while n % p:
        p += 1
    while n % p == 0:
        n //= p
    return n == 1


def subgroups(G: PermGroup, order_limit: int = ORDER_LIMIT) -> list[frozenset]:
    """All subgroups, enumerated one conjugacy class at a time by
    Neubüser's cyclic extension method (Numer. Math. 2, 1960; see also
    Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
    2005), pruned by normalizer orbits.

    A zuppo is a cyclic subgroup of prime-power order.  Every subgroup is
    generated by the zuppos it contains, so every K != 1 is <H, z> for a
    maximal subgroup H < K and a zuppo <z> of K not inside H.  By induction
    on the order, H's class, with its representative H' = H^g, is found
    before K, and K^g = <H', z'> with z' = z^g.  For n in the normalizer
    N(H'), <H', z'^n> = <H', z'>^n, so extending H' by one zuppo per
    N(H')-orbit reaches a conjugate of K, and with it K's class.  N(H')
    maps H' to itself, so the zuppos inside H' form whole orbits and are
    skipped.

    Returned as frozensets of permutations, sorted by (order, elements).
    """
    return [frozenset(G.elements[i] for i in members)
            for members, *_ in _subgroup_classes(G, order_limit)]


def _subgroup_classes(G: PermGroup, order_limit: int) -> list[tuple]:
    """The subgroups of ``subgroups(G)``, in its order, each as (frozenset
    of table indices, element list with the identity first, generators,
    normal flag).

    Each new subgroup K brings in its whole class by conjugating with the
    group's generators s through table lookups; a conjugate's generators
    are K's, conjugated.  The generators of G reach every conjugate, so K
    is normal exactly when its class has one member.  The walk records a
    transversal, K_i = t_i K t_i^-1, and each time s sends K_i to a K_j
    seen before, t_j^-1 s t_i normalizes K.  By Schreier's lemma these
    elements generate N(K), and closing K by them gives N(K)'s generators.
    The trivial subgroup's normalizer is G, generated by G's generators.
    """
    if G.order > order_limit:
        raise OrderLimit(f"group order {G.order} exceeds the order limit "
                         f"{order_limit}; raise it with --limit-order")
    table = G.table()
    inv = G.inverse_indices()
    e = G.index(G.identity)

    # zuppos[k] generates the k-th zuppo; zuppo_of[x] = k for each x of
    # prime-power order > 1 that generates it
    zuppos = []
    zuppo_of = [None] * G.order
    seen = {}
    for i in range(G.order):
        cyclic = [e]
        x = i
        while x != e:
            cyclic.append(x)
            x = table[x][i]
        if len(cyclic) > 1 and _is_prime_power(len(cyclic)):
            key = frozenset(cyclic)
            if key not in seen:
                seen[key] = len(zuppos)
                zuppos.append(i)
            zuppo_of[i] = seen[key]

    def orbit_representatives(members, normalizer_gens):
        """The first zuppo of each normalizer orbit outside ``members``."""
        done = [False] * len(zuppos)
        for h in members:
            if zuppo_of[h] is not None:
                done[zuppo_of[h]] = True
        conj = [(table[n], inv[n]) for n in normalizer_gens]
        for k, z in enumerate(zuppos):
            if done[k]:
                continue
            done[k] = True
            yield z
            orbit = [z]
            for x in orbit:
                for row, n_inv in conj:
                    k2 = zuppo_of[table[row[x]][n_inv]]
                    if not done[k2]:
                        done[k2] = True
                        orbit.append(zuppos[k2])

    gen_idx = [G.index(p) for p in G.generators]
    conjugators = [(s, [table[sh][inv[s]] for sh in table[s]])
                   for s in gen_idx]
    trivial = frozenset([e])
    known = {trivial: ([e], [], True)}
    reps = [(trivial, [e], [], None)]
    for members, elems, gens, schreier in reps:
        if len(members) == G.order:
            continue
        if schreier is None:
            normalizer_gens = gen_idx
        else:
            normalizer_gens = _extend(table, members, elems, gens, schreier)[2]
        for z in orbit_representatives(members, normalizer_gens):
            K, K_elems, K_gens = _extend(table, members, elems, gens, (z,))
            if K in known:
                continue
            orbit = [(K_elems, K_gens)]
            where = {K: 0}
            transversal = [e]
            K_schreier = []
            for i, (pts, pgens) in enumerate(orbit):
                for s, c in conjugators:
                    image = [c[h] for h in pts]
                    key = frozenset(image)
                    j = where.get(key)
                    if j is None:
                        where[key] = len(orbit)
                        orbit.append((image, [c[g] for g in pgens]))
                        transversal.append(table[s][transversal[i]])
                    else:
                        K_schreier.append(
                            table[table[inv[transversal[j]]][s]][transversal[i]])
            for key, j in where.items():
                known[key] = (*orbit[j], len(orbit) == 1)
            reps.append((K, K_elems, K_gens, K_schreier))

    ranked = sorted(known, key=lambda m: (len(m), sorted(m)))
    return [(m, *known[m]) for m in ranked]


def is_solvable(G: PermGroup) -> bool:
    """The derived series reaches the trivial subgroup.

    Each term is the normal closure, within the term before it, of the
    commutators of that term's generators; it is built by Dimino closure
    on the multiplication table.
    """
    table = G.table()
    inv = G.inverse_indices()
    e = G.index(G.identity)
    gens = sorted({G.index(p) for p in G.generators} - {e})
    order = G.order
    while gens:
        comms = sorted({table[table[table[a][b]][inv[a]]][inv[b]]
                        for a in gens for b in gens})
        members, elems, dgens = _extend(table, {e}, [e], [], comms)
        i = 0
        while i < len(dgens):
            d = dgens[i]
            for x in gens:
                c = table[table[x][d]][inv[x]]
                if c not in members:
                    members, elems, dgens = _extend(table, members, elems,
                                                    dgens, (c,))
            i += 1
        if len(elems) == order:
            return False
        gens, order = dgens, len(elems)
    return True


# ---------------------------------------------------------- the lattice

@dataclass
class GroupLattice:
    group: PermGroup
    subgroup_sets: list
    names: list
    lattice: Lattice
    normal_names: set
    chief: ModularChain

    @property
    def r(self) -> int:
        return self.chief.r

    def subgroup_of(self, name: str) -> frozenset:
        return self.subgroup_sets[self.names.index(name)]


def subgroup_lattice(G: PermGroup, order_limit: int = ORDER_LIMIT) -> GroupLattice:
    """Build the subgroup lattice, verify the meet/join identities, flag
    normal subgroups, and fix a deterministic chief series.

    Subgroups are held as sets and masks of ``G.table()`` indices, and the
    enumerator's class walk tells which are normal.  Meets are checked
    against intersections for all pairs; joins for all pairs up to
    ``JOIN_CHECK_LIMIT`` subgroups, and on a deterministic sample beyond
    that, against the larger subgroup closed by the smaller one's
    generators, which the enumerator keeps.  Every normal subgroup must
    classify as two-sided modular, and the chief series check reuses those
    reports.
    """
    classes = _subgroup_classes(G, order_limit)
    members = [m for m, *_ in classes]
    subs = [frozenset(G.elements[i] for i in m) for m in members]
    n = len(subs)
    names = [f"H{i}" for i in range(n)]
    masks = [sum(1 << k for k in m) for m in members]

    # up[i]: the subgroups containing every element of H_i.  Subgroups are
    # sorted by order, so H0 is trivial and the last one is G.
    containing = [0] * G.order
    for i, m in enumerate(members):
        for k in m:
            containing[k] |= 1 << i
    up = []
    for m in members:
        row = (1 << n) - 1
        for k in m:
            row &= containing[k]
        up.append(row)
    P = from_up(names, up)
    L = lattice_check(P)

    meet, join = L._meet, L._join
    for i, j in itertools.combinations(range(n), 2):
        if masks[meet[i][j]] != masks[i] & masks[j]:
            raise SelfCheckFailed("meet", f"meet of {names[i]} and {names[j]} "
                                          "disagrees with intersection")
    pairs = itertools.combinations(range(n), 2)
    if n > JOIN_CHECK_LIMIT:
        pairs = itertools.islice(pairs, 0, None, 97)
    table = G.table()
    for i, j in pairs:
        # H_j is at least as large as H_i; close it by H_i's generators
        if members[join[i][j]] != _extend(table, *classes[j][:3], classes[i][2])[0]:
            raise SelfCheckFailed("join", f"join of {names[i]} and {names[j]} "
                                          "disagrees with generated subgroup")

    normal = sum(1 << i for i, c in enumerate(classes) if c[3])
    normal_names = {names[i] for i in bits(normal)}
    reports = {}
    for nm in sorted(normal_names):
        reports[nm] = classify_modularity(L, nm)
        if not reports[nm].modular:
            raise SelfCheckFailed("normal-modularity",
                                  f"normal subgroup {nm} is not two-sided modular")

    chief_names = _chief_series_names(P, normal)
    chief = verify_chain_modularity(L, chief_names, reports)
    if chief.kind != "two-sided-modular":
        raise SelfCheckFailed("chief-modularity", "chief series failed the "
                              "two-sided modularity check")
    return GroupLattice(G, subs, names, L, normal_names, chief)


def _chief_series_names(P, normal: int) -> list[str]:
    """A chief series of normal subgroups (the index mask ``normal``), from
    the bottom up and, as a self-check, from the top down.

    Each step takes the least subgroup, by (order, elements), among the
    minimal normal subgroups above the current one (maximal below it, going
    down): that is the lowest-index cover in the subposet of normal
    subgroups, as subgroups are sorted by (order, elements).
    """
    def walk(start, end, rows):
        covers = induced_covers(rows, normal)
        chain = [start]
        while chain[-1] != end:
            chain.append(next(bits(covers[chain[-1]])))
        return chain

    bottom_up = walk(P.bottom, P.top, P.up)
    top_down = walk(P.top, P.bottom, P.down)
    if len(bottom_up) != len(top_down):
        raise SelfCheckFailed("chief-length",
                              "two chief series computations disagree in length")
    return [P.elements[i] for i in bottom_up]


def chief_series(G: PermGroup, order_limit: int = ORDER_LIMIT) -> ModularChain:
    return subgroup_lattice(G, order_limit).chief


# ------------------------------------------------- solvability criteria

@dataclass(frozen=True)
class DepthReport:
    r: int
    complex_dim: int
    skeleton_checked: int
    skeleton_cm: bool
    depth_exact: int | None
    verdict: str  # "solvable" | "nonsolvable"
    derived_series_solvable: bool
    agree: bool


def solvability_by_depth(GL: GroupLattice,
                         homology_limit: int = FACE_LIMIT) -> DepthReport:
    """Decide solvability by whether the depth of the order complex stays
    at its guaranteed floor of r - 2 or climbs to r - 1."""
    r = GL.chief.r
    P = GL.lattice.poset
    cx = order_complex(P)
    dim = cx.dim
    check = r - 1
    depth_exact = None
    if P.proper_chain_count() <= EXACT_DEPTH_FACE_LIMIT:
        try:
            depth_exact = depth(cx, limit=homology_limit)
        except SizeLimit:
            pass
    if r == 0:
        # the trivial group: the face of dimension r - 1 = -1 in its order
        # complex comes from a chain with no cover, not r + 1 = 1 covers,
        # so there is no (r - 1)-skeleton of the criterion to test
        cm = False
    elif depth_exact is not None and check < min(f.bit_count() for f in cx.facets):
        # the check-skeleton is pure, so it is Cohen-Macaulay iff
        # check <= depth
        cm = check <= depth_exact
    else:
        # depth unknown, or a nonpure skeleton, which is_cohen_macaulay
        # refuses after its face-count gate
        cm = (check <= dim) and is_cohen_macaulay(cx.skeleton(check),
                                                  limit=homology_limit)
    verdict = "nonsolvable" if cm else "solvable"
    solvable = is_solvable(GL.group)
    return DepthReport(
        r=r,
        complex_dim=dim,
        skeleton_checked=check,
        skeleton_cm=cm,
        depth_exact=depth_exact,
        verdict=verdict,
        derived_series_solvable=solvable,
        agree=(verdict == "solvable") == solvable,
    )


@dataclass(frozen=True)
class ShellabilityReport:
    r: int
    min_chain_covers: int
    pure: bool
    shellable: bool | None
    method: str
    verdict: str
    derived_series_solvable: bool
    agree: bool


def skeleton_shellability_criterion(
        GL: GroupLattice, homology_limit: int = FACE_LIMIT) -> ShellabilityReport:
    """Nonsolvable exactly when the (r-1)-skeleton of the order complex is
    pure of dimension r-1 and shellable.

    Up to dimension 1 shellability is nonvoidness or connectivity.  Above,
    the skeleton is certified by the constructive decomposition of the
    chief series' left-modular labeling at target r + 1, which the chain
    complexity bound always allows on a pure skeleton: every maximal chain
    has at least r + 1 covers and carries all r labels, so some label
    repeats.  A smaller bound raises ``SelfCheckFailed``.  The connectivity
    test refuses a skeleton of more than ``homology_limit`` faces.
    """
    r = GL.chief.r
    P = GL.lattice.poset
    lo, _ = P.min_max_chain_covers()
    pure = lo >= r + 1
    shellable = None
    method = "not-pure"
    if pure and r - 1 <= 1:
        cx = order_complex(P).skeleton(r - 1)
        if r - 1 <= 0:
            shellable = not cx.is_void
            method = "zero-dimensional"
        else:
            shellable = betti_numbers(cx, limit=homology_limit).get(0, 1) == 0
            method = "connectivity"
    elif pure:
        lab = lb.left_modular_labeling(GL.lattice, GL.chief)
        bound, _ = lb.min_chain_complexity(P, lab)
        if bound < r + 1:
            raise SelfCheckFailed("chain-complexity", f"a pure skeleton has "
                                  f"chain complexity {bound}, below r + 1 = {r + 1}")
        skel, cert = constructive_vd_skeleton(P, lab, r + 1)
        shellable = verify_shelling(skel, shelling_from_vd(cert, skel))
        method = "constructive"
    verdict = "nonsolvable" if (pure and shellable) else "solvable"
    solvable = is_solvable(GL.group)
    return ShellabilityReport(
        r=r,
        min_chain_covers=lo,
        pure=pure,
        shellable=shellable,
        method=method,
        verdict=verdict,
        derived_series_solvable=solvable,
        agree=(verdict == "solvable") == solvable,
    )


@dataclass(frozen=True)
class BouquetReport:
    r: int
    betti: dict
    complement_chain_refinements: int
    ok: bool


def thevenaz_check(GL: GroupLattice, homology_limit: int = FACE_LIMIT) -> BouquetReport:
    """For a solvable group the order complex is homotopy equivalent to a
    bouquet of (r-2)-spheres counted by complement-chain refinements."""
    if not is_solvable(GL.group):
        raise NotSolvable("bouquet count applies to solvable groups only")
    L = GL.lattice
    r = GL.chief.r
    count = len(complement_refinements(L, GL.chief))
    betti = betti_numbers(order_complex(L.poset), limit=homology_limit)
    # the trivial group: its one-element lattice has no proper part, the
    # empty complex stands in for it, and r - 2 = -2 names no degree, so
    # there is no bouquet to compare, as in solvability_by_depth
    ok = r == 0 or all((v == count if k == r - 2 else v == 0)
                       for k, v in betti.items())
    return BouquetReport(r=r, betti=betti,
                         complement_chain_refinements=count, ok=ok)
