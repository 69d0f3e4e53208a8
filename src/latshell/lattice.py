"""Meet/join structure, modularity classification, complements, and
distributivity of generated sublattices.

All tests here are exhaustive scans over the (small) element set; meets and
joins are found by looking up intersections of down-sets and up-sets, and
ties are reported rather than silently broken.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotAChain, NotALattice, NotLeftModular
from .poset import Chain, Poset, bits


@dataclass(frozen=True)
class ModularChain:
    """A chain of (left-)modular elements from bottom to top."""

    elements: tuple[str, ...]
    kind: str  # "left-modular" or "two-sided-modular"

    @property
    def r(self) -> int:
        """Number of gaps."""
        return len(self.elements) - 1


@dataclass(frozen=True)
class ModularityReport:
    element: str
    left_modular: bool
    modular: bool
    witness_left: tuple | None  # (y, z) violating the (x, y) pair test
    witness_right: tuple | None  # (y, z) violating the (y, x) pair test


class Lattice:
    """A bounded poset together with total meet and join tables."""

    __slots__ = ("poset", "_meet", "_join")

    def __init__(self, poset: Poset, meet, join):
        self.poset = poset
        self._meet = meet
        self._join = join

    @property
    def elements(self):
        return self.poset.elements

    @property
    def n(self):
        return self.poset.n

    @property
    def bottom(self) -> str:
        return self.poset.elements[self.poset.bottom]

    @property
    def top(self) -> str:
        return self.poset.elements[self.poset.top]

    def meet_idx(self, i: int, j: int) -> int:
        return self._meet[i][j]

    def join_idx(self, i: int, j: int) -> int:
        return self._join[i][j]

    def meet(self, x: str, y: str) -> str:
        return self.elements[self._meet[self.poset.idx(x)][self.poset.idx(y)]]

    def join(self, x: str, y: str) -> str:
        return self.elements[self._join[self.poset.idx(x)][self.poset.idx(y)]]

    def leq(self, x: str, y: str) -> bool:
        return self.poset.leq(x, y)

    def atoms(self) -> list[str]:
        return [self.elements[j] for j in bits(self.poset.cover_up[self.poset.bottom])]

    def dual(self) -> "Lattice":
        return Lattice(self.poset.dual(), self._join, self._meet)

    def __repr__(self):
        return f"Lattice({self.n} elements)"


def lattice_check(P: Poset) -> Lattice:
    """Verify that ``P`` is a lattice and compute its meet/join tables.

    The meet of i and j exists exactly when the common lower bounds
    ``down[i] & down[j]`` are the down-set of some element k, and then k is
    the meet: k is a lower bound above all the others, and conversely the
    down-set of a greatest lower bound is the set of all lower bounds.
    Distinct elements have distinct down-sets, so one dictionary from
    down-set to element finds every meet, and dually for joins.

    Raises NotALattice with the first offending pair, in the order
    (i, j >= i) with the meet before the join, when some pair of elements
    has no unique greatest lower or least upper bound.
    """
    P.require_bounded()
    down, up = P.down, P.up
    down_of = {row: k for k, row in enumerate(down)}.get
    up_of = {row: k for k, row in enumerate(up)}.get
    meet, join = [], []
    for i, (d, u) in enumerate(zip(down, up)):
        # the pairs (i, j) for j >= i; those with j < i are in earlier rows
        mrow = [down_of(d & e) for e in down[i:]]
        jrow = [up_of(u & v) for v in up[i:]]
        if None in mrow or None in jrow:
            for j, g, l in zip(range(i, P.n), mrow, jrow):
                for word, k, rows in (("meet", g, down), ("join", l, up)):
                    if k is None:
                        raise NotALattice(P.elements[i], P.elements[j],
                                          _tie_reason(P, rows[i] & rows[j], word))
        meet.append([row[i] for row in meet] + mrow)
        join.append([row[i] for row in join] + jrow)
    return Lattice(P, meet, join)


def _tie_reason(P: Poset, mask: int, word: str) -> str:
    if not mask:
        return f"no common bound for {word}"
    # the maximal lower bounds of a meet, the minimal upper bounds of a join
    rows = P.up if word == "meet" else P.down
    extremes = [P.elements[k] for k in bits(mask) if rows[k] & mask == 1 << k]
    return f"{word} is not unique among {extremes}"


def is_modular_pair(L: Lattice, x: str, y: str) -> bool:
    """Test the modular-pair identity of (x, y): for all z >= y,
    (y v x) ^ z == y v (x ^ z)."""
    return modular_pair_witness(L, x, y) is None


def modular_pair_witness(L: Lattice, x: str, y: str):
    """Return a violating z for the pair (x, y), or None if none exists."""
    P = L.poset
    j = P.idx(y)
    k = _pair_witness(L._meet, L._join, P.idx(x), j, bits(P.up[j]))
    return None if k is None else L.elements[k]


def _pair_witness(meet, join, i: int, j: int, above_j):
    """The first k in ``above_j`` (the up-set of j) with
    (j v i) ^ k != j v (i ^ k), or None."""
    mjx, jj, mi = meet[join[j][i]], join[j], meet[i]
    for k in above_j:
        if mjx[k] != jj[mi[k]]:
            return k
    return None


def classify_modularity(L: Lattice, x: str) -> ModularityReport:
    """Classify ``x`` as left-modular and/or (two-sided) modular.

    The witnesses are the first y in element order, and for it the first z,
    that break the pair (x, y) and the pair (y, x).  Only y incomparable to
    x are tried, because a comparable pair (a, b) never breaks: for z >= b,
    if a <= b both sides of (b v a) ^ z == b v (a ^ z) are b, and if
    a >= b both are a ^ z, as b <= a ^ z.  So skipping them leaves the
    first witness as it is.
    """
    P = L.poset
    meet, join = L._meet, L._join
    i = P.idx(x)
    above_x = list(bits(P.up[i]))
    incomparable = bits(~(P.up[i] | P.down[i]) & ((1 << P.n) - 1))
    wl = wr = None
    for j in incomparable:
        if wl is None:
            k = _pair_witness(meet, join, i, j, bits(P.up[j]))
            if k is not None:
                wl = (L.elements[j], L.elements[k])
        if wr is None:
            k = _pair_witness(meet, join, j, i, above_x)
            if k is not None:
                wr = (L.elements[j], L.elements[k])
        if wl is not None and wr is not None:
            break
    left = wl is None
    return ModularityReport(x, left, left and wr is None, wl, wr)


def verify_chain_modularity(L: Lattice, chain, reports=None) -> ModularChain:
    """Validate a bottom-top chain of (left-)modular elements.

    Returns a ModularChain tagged two-sided-modular when every element is
    modular, left-modular when every element is at least left-modular, and
    raises NotLeftModular otherwise.  ``reports`` may map elements to their
    ``classify_modularity`` reports; elements it lacks are classified here.
    """
    elems = tuple(chain.elements if isinstance(chain, (Chain, ModularChain)) else chain)
    if not elems or elems[0] != L.bottom or elems[-1] != L.top:
        raise NotAChain(f"chain must run from {L.bottom!r} to {L.top!r}")
    for a, b in zip(elems, elems[1:]):
        if a == b or not L.leq(a, b):
            raise NotAChain(f"{a!r} !< {b!r}")
    known = reports or {}
    reports = [known.get(m) or classify_modularity(L, m) for m in elems]
    for rep in reports:
        if not rep.left_modular:
            raise NotLeftModular(rep.element, rep.witness_left)
    kind = ("two-sided-modular" if all(r.modular for r in reports)
            else "left-modular")
    return ModularChain(elems, kind)


def complements(L: Lattice, x: str) -> list[str]:
    """All y with x ^ y = bottom and x v y = top, in element order."""
    P = L.poset
    i = P.idx(x)
    bot, top = P.bottom, P.top
    return [L.elements[j] for j in range(L.n)
            if L.meet_idx(i, j) == bot and L.join_idx(i, j) == top]


def chains_of_complements(L: Lattice, m: ModularChain) -> list[Chain]:
    """All chains consisting of complements to the proper elements of ``m``.

    Complements to the endpoints are forced (top and bottom) and excluded;
    each returned chain contains a complement to every proper element of
    ``m``, and the same element may serve several of them.
    """
    proper = m.elements[1:-1]
    if not proper:
        return [Chain(())]
    comp_sets = [complements(L, mi) for mi in proper]
    P = L.poset
    found = set()
    for choice in itertools.product(*comp_sets):
        support = sorted(set(choice), key=P.idx)
        ok = all(P.leq(a, b) or P.leq(b, a)
                 for a, b in itertools.combinations(support, 2))
        if ok:
            # down-set size strictly increases along a chain
            support.sort(key=lambda e: P.down[P.idx(e)].bit_count())
            found.add(tuple(support))
    return [Chain(t) for t in sorted(found, key=lambda t: tuple(P.idx(e) for e in t))]


def complement_refinements(L: Lattice, m: ModularChain) -> set:
    """The maximal chains, as name tuples, that contain a chain of
    complements to the proper elements of ``m``."""
    comp_chains = [set(c.elements) for c in chains_of_complements(L, m)]
    return {c for c in L.poset.chains()
            if any(cc <= set(c) for cc in comp_chains)}


def is_distributive(L: Lattice) -> bool:
    return distributivity_witness(L) is None


def distributivity_witness(L: Lattice):
    """A triple (x, y, z) violating x ^ (y v z) == (x ^ y) v (x ^ z), if any."""
    n = L.n
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                if L.meet_idx(i, L.join_idx(j, k)) != \
                        L.join_idx(L.meet_idx(i, j), L.meet_idx(i, k)):
                    return (L.elements[i], L.elements[j], L.elements[k])
    return None


def generated_sublattice(L: Lattice, seed) -> Lattice:
    """Close ``seed`` under meet and join and return the sublattice."""
    P = L.poset
    current = {P.idx(e) for e in seed}
    if not current:
        raise NotAChain("seed must be nonempty")
    while True:
        new = set()
        for i, j in itertools.combinations(sorted(current), 2):
            new.add(L.meet_idx(i, j))
            new.add(L.join_idx(i, j))
        if new <= current:
            break
        current |= new
    return lattice_check(P.restrict(sum(1 << i for i in current)))
