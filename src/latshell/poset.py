"""Finite bounded posets: cover relations, intervals, chains, gradedness,
and the order complex.

Elements are opaque string ids.  Internally every element is mapped to a
dense index into the input order, and all order data lives in bitmask rows
(`up[i]` holds the up-set of element i, including i itself).  Input order is
the tie-breaking linear extension used by every enumeration in the library,
so all outputs are deterministic.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .errors import (
    CycleDetected,
    DuplicateElement,
    NotComparable,
    RedundantCover,
    Unbounded,
    UnknownElement,
)


def bits(mask: int):
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Chain:
    """A strictly increasing sequence of elements of some poset."""

    elements: tuple[str, ...]
    maximal: bool = False

    def __len__(self):
        return len(self.elements)

    @property
    def length(self) -> int:
        """Number of covers (one less than the number of elements)."""
        return len(self.elements) - 1


class Poset:
    """Immutable finite poset given by elements and cover relations."""

    __slots__ = ("elements", "index", "n", "up", "down", "cover_up", "cover_down",
                 "bottom", "top")

    def __init__(self, elements, up, cover_up, bottom, top):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.n = len(self.elements)
        self.up = tuple(up)
        self.down = tuple(self._transpose(up, self.n))
        self.cover_up = tuple(cover_up)
        self.cover_down = tuple(self._transpose(cover_up, self.n))
        self.bottom = bottom
        self.top = top

    @staticmethod
    def _transpose(rows, n):
        out = [0] * n
        for i, row in enumerate(rows):
            for j in bits(row):
                out[j] |= 1 << i
        return out

    # -- basic queries ----------------------------------------------------

    def idx(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownElement(repr(name)) from None

    def leq(self, x: str, y: str) -> bool:
        return bool(self.up[self.idx(x)] >> self.idx(y) & 1)

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @property
    def is_bounded(self) -> bool:
        return self.bottom is not None and self.top is not None

    def require_bounded(self):
        if not self.is_bounded:
            raise Unbounded("poset has no unique bottom/top")

    def covers(self) -> list[tuple[str, str]]:
        """Canonical cover list, ordered by (lower index, upper index)."""
        out = []
        for i in range(self.n):
            for j in bits(self.cover_up[i]):
                out.append((self.elements[i], self.elements[j]))
        return out

    def leq_pairs(self) -> int:
        """Number of ordered pairs (x, y) with x <= y."""
        return sum(row.bit_count() for row in self.up)

    def restrict(self, mask: int) -> "Poset":
        """The subposet induced on the index mask ``mask``, its elements in
        P's order, read off P's up-set rows."""
        sub = list(bits(mask))
        pos = {k: t for t, k in enumerate(sub)}
        up = [sum(1 << pos[j] for j in bits(self.up[k] & mask)) for k in sub]
        return from_up([self.elements[k] for k in sub], up)

    def dual(self) -> "Poset":
        """The order dual (all relations reversed)."""
        return Poset(self.elements, self.down, self.cover_down, self.top, self.bottom)

    def __repr__(self):
        return f"Poset({self.n} elements, {sum(r.bit_count() for r in self.cover_up)} covers)"

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.elements == other.elements
                and self.up == other.up)

    def __hash__(self):
        return hash((self.elements, self.up))

    # -- chain machinery --------------------------------------------------

    def maximal_chains_idx(self, lo=None, hi=None) -> list[tuple[int, ...]]:
        """All maximal chains of the interval [lo, hi] (default: bottom to
        top) as index tuples, in DFS order.  The covers of P inside [lo, hi]
        are those of the interval, so the walk up the cover rows within the
        down-set of hi gives the chains of ``interval(P, lo, hi)`` in order.
        """
        if lo is None or hi is None:
            self.require_bounded()
        lo = self.bottom if lo is None else lo
        hi = self.top if hi is None else hi
        inside = self.down[hi]
        out: list[tuple[int, ...]] = []
        stack = [lo]

        def dfs(i):
            if i == hi:
                out.append(tuple(stack))
                return
            for j in bits(self.cover_up[i] & inside):
                stack.append(j)
                dfs(j)
                stack.pop()

        dfs(lo)
        return out

    def chains(self, lo=None, hi=None) -> list[tuple[str, ...]]:
        """The maximal chains of [lo, hi] (indices; default bottom to top)
        as tuples of element names, in ``maximal_chains_idx`` order."""
        name = self.elements.__getitem__
        return [tuple(map(name, c)) for c in self.maximal_chains_idx(lo, hi)]

    def pair_idx(self, x: str, y: str) -> tuple[int, int]:
        """The indices of x and y, which must satisfy x <= y."""
        i, j = self.idx(x), self.idx(y)
        if not self.leq_idx(i, j):
            raise NotComparable(f"{x!r} is not below {y!r}")
        return i, j

    def min_max_chain_covers(self) -> tuple[int, int]:
        """(min, max) number of covers over all maximal chains, without
        enumerating the chains."""
        self.require_bounded()
        lo = [0] * self.n
        hi = [0] * self.n
        for i in reversed(self._topo()):
            succ = list(bits(self.cover_up[i]))
            if succ:
                lo[i] = 1 + min(lo[j] for j in succ)
                hi[i] = 1 + max(hi[j] for j in succ)
        return lo[self.bottom], hi[self.bottom]

    def maximal_chain_count(self) -> int:
        """Number of maximal chains, without enumerating them: ways[i]
        counts the saturated chains from i up to the top."""
        self.require_bounded()
        ways = [0] * self.n
        ways[self.top] = 1
        for i in reversed(self._topo()):
            ways[i] += sum(map(ways.__getitem__, bits(self.cover_up[i])))
        return ways[self.bottom]

    def proper_chain_count(self) -> int:
        """Number of chains of the proper part, the empty one included: the
        face count of the order complex, without building a face.  above[i]
        counts the chains that start at i and go on in the strict up-set of
        i less the top, so above[bottom] is the count."""
        self.require_bounded()
        above = [1] * self.n
        inner = ~(1 << self.top)
        for i in reversed(self._topo()):
            above[i] = 1 + sum(map(above.__getitem__,
                                   bits(self.up[i] & inner & ~(1 << i))))
        return above[self.bottom]

    def _topo(self) -> list[int]:
        return _kahn(self.cover_up)[0]


def _kahn(rows) -> tuple[list[int], list[int]]:
    """Kahn's topological order of the relation with successor rows
    ``rows``, and the in-degrees left: every index missing from the order
    has a positive one, as it lies on or above a cycle."""
    indeg = [0] * len(rows)
    for row in rows:
        for j in bits(row):
            indeg[j] += 1
    order = [i for i, d in enumerate(indeg) if d == 0]
    for i in order:
        for j in bits(rows[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    return order, indeg


def induced_covers(up, members: int | None = None) -> list[int]:
    """Cover rows of the subposet induced on the index mask ``members``
    (default: every element), from the up-set rows ``up`` (``up[i]``
    includes i).

    A cover of i is a strict successor that no other strict successor lies
    below, so the row is the transitive reduction
    ``s & ~OR(strict up-set of j for j in s)`` of i's strict up-set s
    within ``members``.  Rows of non-members are 0.
    """
    n = len(up)
    strict = [row & ~(1 << i) for i, row in enumerate(up)]
    if members is None:
        members = (1 << n) - 1
    rows = [0] * n
    for i in bits(members):
        s = strict[i] & members
        via = 0
        for j in bits(s):
            via |= strict[j]
        rows[i] = s & ~via
    return rows


def from_up(elements, up) -> Poset:
    """The poset on ``elements`` with up-set rows ``up`` (``up[i]`` includes
    i): cover rows by ``induced_covers``, the bottom (below everything) and
    the top (in every up-set), each None when there is none."""
    full = (1 << len(up)) - 1
    above_all = functools.reduce(operator.and_, up, full)
    # antisymmetry leaves at most one of each
    bottom = next((i for i, row in enumerate(up) if row == full), None)
    top = above_all.bit_length() - 1 if above_all else None
    return Poset(elements, up, induced_covers(up), bottom, top)


def build_poset(elements, covers) -> Poset:
    """Build a poset from element ids and cover pairs.

    The transitive closure is computed from the covers; covers are then
    recomputed canonically, and any input pair that is not a genuine cover
    (it has an intermediate element, or repeats) is rejected.
    """
    elements = list(elements)
    seen = set()
    for e in elements:
        if e in seen:
            raise DuplicateElement(repr(e))
        seen.add(e)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)

    adj = [0] * n
    seen_pairs = {}  # a dict, so that a redundant cover is named in input order
    for x, y in covers:
        if x not in index:
            raise UnknownElement(repr(x))
        if y not in index:
            raise UnknownElement(repr(y))
        if x == y:
            raise CycleDetected(f"self-cover on {x!r}")
        if (x, y) in seen_pairs:
            raise RedundantCover(x, y, reason="is listed twice")
        seen_pairs[(x, y)] = None
        adj[index[x]] |= 1 << index[y]

    # Kahn toposort doubles as the cycle check.
    order, indeg = _kahn(adj)
    if len(order) != n:
        stuck = [elements[i] for i in range(n) if indeg[i] > 0]
        raise CycleDetected(f"cover relation has a cycle through {stuck}")

    up = [0] * n
    for i in reversed(order):
        mask = 1 << i
        for j in bits(adj[i]):
            mask |= up[j]
        up[i] = mask

    P = from_up(elements, up)
    for x, y in seen_pairs:
        if not (P.cover_up[index[x]] >> index[y]) & 1:
            raise RedundantCover(x, y)
    return P


def interval(P: Poset, x: str, y: str) -> Poset:
    """The closed interval [x, y] as an induced subposet (bounded by x, y)."""
    i, j = P.pair_idx(x, y)
    return P.restrict(P.up[i] & P.down[j])


def maximal_chains(P: Poset) -> list[Chain]:
    """All maximal bottom-top chains, in deterministic DFS order."""
    return [Chain(c, maximal=True) for c in P.chains()]


@dataclass(frozen=True)
class GradedVerdict:
    graded: bool
    rank: dict | None
    witness: tuple[Chain, Chain] | None


def is_graded(P: Poset) -> GradedVerdict:
    """Check that all maximal chains have equal length.

    Returns a rank function on success, or two maximal chains of different
    lengths as a witness.
    """
    P.require_bounded()
    lo = [None] * P.n
    hi = [None] * P.n
    lo_par = [None] * P.n
    hi_par = [None] * P.n
    lo[P.bottom] = hi[P.bottom] = 0
    bad = None
    for i in P._topo():
        for j in bits(P.cover_up[i]):
            if lo[j] is None or lo[i] + 1 < lo[j]:
                lo[j] = lo[i] + 1
                lo_par[j] = i
            if hi[j] is None or hi[i] + 1 > hi[j]:
                hi[j] = hi[i] + 1
                hi_par[j] = i
            if bad is None and lo[j] != hi[j]:
                bad = j
    if bad is None:
        rank = {P.elements[i]: lo[i] for i in range(P.n)}
        return GradedVerdict(True, rank, None)

    def path(parent, end):
        seq = [end]
        while parent[seq[-1]] is not None:
            seq.append(parent[seq[-1]])
        return list(reversed(seq))

    def extend_to_top(seq):
        while seq[-1] != P.top:
            seq.append(next(bits(P.cover_up[seq[-1]])))
        return Chain(tuple(P.elements[k] for k in seq), maximal=True)

    c1 = extend_to_top(path(lo_par, bad))
    c2 = extend_to_top(path(hi_par, bad))
    return GradedVerdict(False, None, (c1, c2))


def order_complex(P: Poset):
    """The simplicial complex of chains of the proper part of ``P``.

    Its facets are the maximal chains less their ends.  Distinct maximal
    chains are pairwise incomparable as sets (a chain inside another could
    be extended), so they are the facets as they stand, with nothing to
    remove.  Every element of a bounded poset lies on a maximal chain, so
    the vertices are the proper elements in input order.
    """
    from .complexes import SimplicialComplex

    P.require_bounded()
    proper = [i for i in range(P.n) if i not in (P.bottom, P.top)]
    bit = {i: 1 << v for v, i in enumerate(proper)}
    facets = [sum(map(bit.__getitem__, c[1:-1])) for c in P.maximal_chains_idx()]
    return SimplicialComplex([P.elements[i] for i in proper], facets)
