"""Finite permutation groups, subgroup lattices, chief series, and the
topological solvability criteria they support.

Group elements are permutation tuples (0-based images).  Everything
downstream indexes elements into a multiplication table.  Subgroups are
enumerated one conjugacy class at a time: a representative of each class
is extended by every cyclic subgroup of prime-power order, each extension
is a Dimino coset closure on the table, and each new subgroup brings in
its conjugates by table lookups.  The same closure builds generated
subgroups and the derived series.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    NotAPermutation,
    NotSolvable,
    OrderLimit,
    SelfCheckFailed,
    ShellabilityUndecided,
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
# Skeleton facet count above which no brute-force shelling search runs.
FACET_BRUTEFORCE_LIMIT = 12


def _mul(p: Perm, q: Perm) -> Perm:
    return tuple(map(p.__getitem__, q))


def _inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


class PermGroup:
    """A finite permutation group with its full element set."""

    __slots__ = ("degree", "generators", "elements", "order",
                 "_index", "_table", "_inverse")

    def __init__(self, degree: int, generators, elements):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self.order = len(self.elements)
        self._index = {p: i for i, p in enumerate(self.elements)}
        self._table = None
        self._inverse = None

    @property
    def identity(self) -> Perm:
        return tuple(range(self.degree))

    def index(self, p: Perm) -> int:
        return self._index[p]

    def table(self):
        """Multiplication table on element indices (built on demand)."""
        if self._table is None:
            idx = self._index
            els = self.elements
            self._table = [[idx[_mul(a, b)] for b in els] for a in els]
            self._inverse = [idx[_inv(a)] for a in els]
        return self._table

    def inverse_indices(self):
        self.table()
        return self._inverse

    def __repr__(self):
        return f"PermGroup(degree {self.degree}, order {self.order})"


def group_from_generators(degree: int, generators) -> PermGroup:
    """Close a generator list under products (identity included)."""
    gens = []
    for g in generators:
        g = tuple(g)
        if sorted(g) != list(range(degree)):
            raise NotAPermutation(f"{g!r} is not a permutation of 0..{degree - 1}")
        gens.append(g)
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = _mul(a, g)
                if b not in elements:
                    elements.add(b)
                    new.append(b)
        frontier = new
    return PermGroup(degree, gens, elements)


# ---------------------------------------------------------------- parsing

def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like ``(1 2)(3 4)`` (1-based, () is identity):
    disjoint cycles of integers, with nothing between them."""
    text = text.strip()
    perm = list(range(degree))
    if text in ("()", "e", ""):
        return tuple(perm)
    if not (text.startswith("(") and text.endswith(")")):
        raise NotAPermutation(f"bad cycle notation: {text!r}")
    seen = set()
    for cyc in text[1:-1].split(")("):
        try:
            pts = [int(t) - 1 for t in cyc.replace(",", " ").split()]
        except ValueError:
            raise NotAPermutation(f"bad cycle {cyc!r}: not a list of integers") from None
        if any(not 0 <= p < degree for p in pts) or len(set(pts)) != len(pts):
            raise NotAPermutation(f"bad cycle {cyc!r} for degree {degree}")
        if seen.intersection(pts):
            raise NotAPermutation(f"cycle {cyc!r} shares a point with an earlier cycle")
        seen.update(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a] = b
    return tuple(perm)


def parse_group_file(text: str) -> PermGroup:
    """Group file: a ``degree: n`` header, then one generator per line."""
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if not lines or not lines[0].lower().startswith("degree:"):
        raise NotAPermutation("group file must start with 'degree: n'")
    degree = int(lines[0].split(":", 1)[1])
    if degree < 0:
        raise NotAPermutation(f"degree {degree} is negative")
    gens = [parse_cycles(l, degree) for l in lines[1:]]
    return group_from_generators(degree, gens)


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
    """All subgroups, enumerated one conjugacy class at a time.

    Every subgroup is generated by the zuppos it contains (its cyclic
    subgroups of prime-power order), and every K != 1 is <H, z> for a
    maximal subgroup H < K and a zuppo <z> not inside H.  As H is conjugate
    to a class representative H', some conjugate of K is <H', z'>.  So one
    representative per class is extended by every zuppo, and each new
    result brings in its whole conjugacy class, found by conjugating by the
    group's generators through table lookups until the orbit closes.

    Returned as frozensets of permutations, sorted by (order, elements).
    """
    if G.order > order_limit:
        raise OrderLimit(f"group order {G.order} exceeds the order limit "
                         f"{order_limit}; raise it with --limit-order")
    table = G.table()
    inv = G.inverse_indices()
    e = G.index(G.identity)

    zuppos = {}
    for i in range(G.order):
        cyclic = [e]
        x = i
        while x != e:
            cyclic.append(x)
            x = table[x][i]
        key = frozenset(cyclic)
        if len(cyclic) > 1 and _is_prime_power(len(cyclic)) and key not in zuppos:
            zuppos[key] = i

    conjugators = []
    for p in G.generators:
        g = G.index(p)
        conjugators.append([table[gh][inv[g]] for gh in table[g]])

    trivial = frozenset([e])
    known = {trivial}
    reps = [(trivial, [e], [])]
    for members, elems, gens in reps:
        for z in zuppos.values():
            if z in members:
                continue
            K = _extend(table, members, elems, gens, (z,))
            if K[0] in known:
                continue
            known.add(K[0])
            reps.append(K)
            orbit = [K[1]]
            for conj_elems in orbit:
                for c in conjugators:
                    conj = [c[h] for h in conj_elems]
                    key = frozenset(conj)
                    if key not in known:
                        known.add(key)
                        orbit.append(conj)

    subs = sorted(known, key=lambda m: (len(m), sorted(m)))
    return [frozenset(G.elements[i] for i in m) for m in subs]


def is_normal(G: PermGroup, H: frozenset) -> bool:
    table = G.table()
    inv = G.inverse_indices()
    members = {G.index(p) for p in H}
    for p in G.generators:
        g = G.index(p)
        row, gi = table[g], inv[g]
        for h in members:
            if table[row[h]][gi] not in members:
                return False
    return True


def _generated(table, e: int, seed) -> frozenset:
    """Element indices of the subgroup generated by the indices in ``seed``."""
    return _extend(table, {e}, [e], [], sorted(seed))[0]


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

    Subgroups are held as sets and masks of ``G.table()`` indices.  Meets
    are checked against intersections for all pairs; joins against the
    closure of the two subgroups' indices for all pairs up to
    ``JOIN_CHECK_LIMIT`` subgroups, and on a deterministic sample beyond
    that.  Every normal subgroup must classify as two-sided modular, and
    the chief series check reuses those reports.
    """
    subs = subgroups(G, order_limit)
    n = len(subs)
    names = [f"H{i}" for i in range(n)]
    elem_index = G._index
    members = [frozenset(elem_index[p] for p in h) for h in subs]
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
    table, e = G.table(), G.index(G.identity)
    for i, j in pairs:
        if members[join[i][j]] != _generated(table, e, members[i] | members[j]):
            raise SelfCheckFailed("join", f"join of {names[i]} and {names[j]} "
                                          "disagrees with generated subgroup")

    normal = sum(1 << i for i, h in enumerate(subs) if is_normal(G, h))
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
                         homology_limit: int = 200000) -> DepthReport:
    """Decide solvability by whether the depth of the order complex stays
    at its guaranteed floor of r - 2 or climbs to r - 1."""
    from .complexes import depth as complex_depth
    from .complexes import is_cohen_macaulay

    r = GL.chief.r
    P = GL.lattice.poset
    cx = order_complex(P)
    dim = cx.dim
    check = r - 1
    depth_exact = None
    if P.proper_chain_count() <= EXACT_DEPTH_FACE_LIMIT:
        try:
            depth_exact = complex_depth(cx, limit=homology_limit)
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


def skeleton_shellability_criterion(GL: GroupLattice) -> ShellabilityReport:
    """Nonsolvable exactly when the (r-1)-skeleton of the order complex is
    pure of dimension r-1 and shellable."""
    from . import labeling as lb
    from .complexes import betti_numbers, verify_shelling, shelling_from_vd
    from .complexes import constructive_vd_skeleton

    r = GL.chief.r
    P = GL.lattice.poset
    lo, _ = P.min_max_chain_covers()
    pure = lo >= r + 1
    shellable = None
    method = "not-pure"
    if pure:
        cx = order_complex(P).skeleton(r - 1)
        if r - 1 <= 0:
            shellable = not cx.is_void
            method = "zero-dimensional"
        elif r - 1 == 1:
            b = betti_numbers(cx)
            shellable = b.get(0, 1) == 0
            method = "connectivity"
        else:
            lab = lb.left_modular_labeling(GL.lattice, GL.chief)
            bound, _ = lb.min_chain_complexity(P, lab)
            if bound >= r + 1:
                skel, cert = constructive_vd_skeleton(P, lab, r + 1)
                shellable = verify_shelling(skel, shelling_from_vd(cert, skel))
                method = "constructive"
            elif len(cx.facets) <= FACET_BRUTEFORCE_LIMIT:
                shellable = _bruteforce_shellable(cx)
                method = "bruteforce"
            else:
                raise ShellabilityUndecided(
                    f"cannot certify shellability of the {r - 1}-skeleton")
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


def _bruteforce_shellable(cx) -> bool:
    """Depth-first search for a shelling order, extending a prefix only by
    facets that keep it a shelling (``complexes._extends_shelling``)."""
    from .complexes import _extends_shelling

    facets = sorted(cx.facets, key=lambda f: sorted(cx.names_of(f)))

    def extend(order, remaining):
        if not remaining:
            return True
        for n, f in enumerate(remaining):
            if (_extends_shelling(order, f)
                    and extend(order + [f], remaining[:n] + remaining[n + 1:])):
                return True
        return False

    return extend([], facets)


@dataclass(frozen=True)
class BouquetReport:
    r: int
    betti: dict
    complement_chain_refinements: int
    ok: bool


def thevenaz_check(GL: GroupLattice, homology_limit: int = 200000) -> BouquetReport:
    """For a solvable group the order complex is homotopy equivalent to a
    bouquet of (r-2)-spheres counted by complement-chain refinements."""
    from .complexes import betti_numbers

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
