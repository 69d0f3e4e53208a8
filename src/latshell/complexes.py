"""Simplicial complexes with exact homology, Cohen-Macaulay depth,
shellings, and vertex-decomposition certificates.

Complexes are stored by their facets, as bitmasks over a vertex tuple.  The
empty complex (one face, the empty set) and the void complex (no faces at
all) are distinguished; both are accepted as decomposition leaves.
Shelling orders are checked on those masks by the restriction-set form of
the nonpure shelling condition (Bjorner-Wachs 1996), and Betti numbers are
exact over the rationals: ranks taken over GF(2) on bitset columns, and
again by integer column elimination only where the mod-2 Betti numbers on
both sides of a rank are nonzero, the one place a mod-2 rank can fall
short.  A vertex is tested for shedding on facets alone (Provan-Billera
1980: v sheds iff no facet of lk(v) is a facet of del(v)).
Depth is the link formula depth = min |s| + h(lk s), h the least degree of
nonzero reduced rational homology (Munkres 1984), swept over the faces, or
for an order complex a shortest path over the poset's intervals weighted
by their homology; a complex is Cohen-Macaulay iff it is pure with depth
equal to its dimension.

The constructive decomposition of order complexes is one lexicographic
shedding loop for every skeleton, the whole complex being the skeleton at
its own dimension: shed the descent element of the lexicographically
greatest single-descent chain, whose link is the join of the lower and
upper interval complexes, and in the all-ascending base case assemble the
complex as a join of a spine simplex with the gap complexes.  One join
certificate routine serves both joins, reading a level at or above a
factor's dimension as the whole factor.  Below the root every complex is
a list of facet masks over the root poset's element indices, so only the
complex returned is built.  Deletion chains are walked in loops, here
and wherever a certificate is built or read, so the stack grows with the
dimension and not with the number of vertices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    AllChainsAscending,
    InvalidCertificate,
    NotAFace,
    NotFacetPermutation,
    RepeatRunTooLong,
    SelfCheckFailed,
    SizeLimit,
    TargetTooLarge,
    UnknownVertex,
    VertexClash,
    VoidComplex,
)
from . import labeling as lb
from .poset import Chain, Poset, bits, chain_complex

# Largest face count of a complex whose homology, depth or Cohen-Macaulay
# test is computed (the CLI's --limit-faces default).
FACE_LIMIT = 200000
# Largest vertex count that is_vd_bruteforce searches (the CLI's
# --limit-vd-vertices default).
VD_VERTEX_LIMIT = 25


class SimplicialComplex:
    """Immutable complex given by inclusion-maximal faces."""

    __slots__ = ("vertices", "vindex", "facets", "dim")

    def __init__(self, vertices, facets):
        self.vertices = tuple(vertices)
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        self.facets = frozenset(facets)
        # the dimension, or None for the void complex
        self.dim = _dim(self.facets) if self.facets else None

    @classmethod
    def from_faces(cls, vertex_order, faces) -> "SimplicialComplex":
        """Build from faces given as iterables of vertex names.

        ``vertex_order`` fixes the vertex ordering; only vertices appearing
        in some face are kept.
        """
        order = list(vertex_order)
        known = set(order)
        support = set()
        name_faces = []
        for f in faces:
            fs = frozenset(f)
            for v in fs:
                if v not in known:
                    raise UnknownVertex(repr(v))
            support |= fs
            name_faces.append(fs)
        vertices = tuple(v for v in order if v in support)
        vindex = {v: i for i, v in enumerate(vertices)}
        masks = set()
        for fs in name_faces:
            m = 0
            for v in fs:
                m |= 1 << vindex[v]
            masks.add(m)
        return cls(vertices, _maximalize(masks))

    # -- basic structure ---------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_empty(self) -> bool:
        return self.facets == frozenset({0})

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def mask_of(self, names) -> int:
        m = 0
        for v in names:
            if v not in self.vindex:
                raise UnknownVertex(repr(v))
            m |= 1 << self.vindex[v]
        return m

    def names_of(self, mask: int) -> frozenset:
        return frozenset(self.vertices[i] for i in bits(mask))

    def has_face(self, mask: int) -> bool:
        return any(f & mask == mask for f in self.facets)

    def faces(self):
        """All faces as masks (deduplicated), in no particular order."""
        seen = set()
        for f in self.facets:
            subs = [0]
            while f:
                low = f & -f
                subs += [s | low for s in subs]
                f ^= low
            seen.update(subs)
        return seen

    def faces_by_dim(self, limit=None) -> dict:
        if limit is not None:
            self._refuse_large_facet(limit)
        out = {}
        for m in self.faces():
            out.setdefault(m.bit_count() - 1, []).append(m)
        if limit is not None:
            n_faces = sum(len(v) for v in out.values())
            if n_faces > limit:
                raise SizeLimit(f"complex has {n_faces} faces, more than the "
                                f"face limit {limit}; raise it with --limit-faces")
        for v in out.values():
            v.sort()
        return out

    def _refuse_large_facet(self, limit: int, r=None) -> None:
        """Raise ``SizeLimit`` if the largest facet alone has more than
        ``limit`` faces of dimension at most ``r`` (of any dimension when
        ``r`` is None), before any face is built.  A facet of k vertices has
        the sum of C(k, i) over i <= r + 1 such faces, 2^k in all; the
        complex has at least as many, so this refuses only what a full
        count would refuse."""
        k = max((f.bit_count() for f in self.facets), default=0)
        top = k if r is None else min(k, r + 1)
        count = term = 1
        for i in range(1, top + 1):
            term = term * (k - i + 1) // i
            count += term
            if count > limit:
                dims = "" if top == k else f" of dimension at most {r}"
                raise SizeLimit(f"complex has a facet of {k} vertices, with more "
                                f"faces{dims} than the face limit {limit}; "
                                f"raise it with --limit-faces")

    def facet_name_sets(self) -> frozenset:
        return frozenset(self.names_of(f) for f in self.facets)

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.facet_name_sets() == other.facet_name_sets())

    def __hash__(self):
        return hash(self.facet_name_sets())

    def __repr__(self):
        if self.is_void:
            return "SimplicialComplex(void)"
        return (f"SimplicialComplex({self.n_vertices} vertices, "
                f"{len(self.facets)} facets, dim {self.dim})")

    # -- constructions -----------------------------------------------------

    def skeleton(self, r: int) -> "SimplicialComplex":
        """Faces of dimension at most ``r``.

        Its facets are the facets of at most r + 1 vertices and the
        (r + 1)-subsets of the larger ones, with nothing to remove: the
        facets are an antichain, so a small facet lies in no other facet,
        hence in no subset of one, and a subset s of a larger facet g lies
        in no small facet f, as |f| <= |s| would give s = f inside g.
        """
        if self.is_void or r < -1:
            return SimplicialComplex((), frozenset())
        return SimplicialComplex(self.vertices, _skeleton(self.facets, r)).compact()

    def compact(self) -> "SimplicialComplex":
        """Drop vertices outside the support, preserving order."""
        support = _support(self.facets)
        if support.bit_count() == self.n_vertices:
            return self
        kept = list(bits(support))
        remap = {old: new for new, old in enumerate(kept)}
        facets = set()
        for f in self.facets:
            m = 0
            for i in bits(f):
                m |= 1 << remap[i]
            facets.add(m)
        return SimplicialComplex(tuple(self.vertices[i] for i in kept), facets)

    def link_of(self, names) -> "SimplicialComplex":
        sigma = self.mask_of(names)
        if not self.has_face(sigma):
            raise NotAFace(f"{set(names)!r} is not a face")
        facets = {f & ~sigma for f in self.facets if f & sigma == sigma}
        return SimplicialComplex(self.vertices, facets).compact()

    def delete_vertex(self, v) -> "SimplicialComplex":
        """The faces without v.  Its facets are the facets G that avoid v
        and the F - v of the facets F through v whose F - v lies in no
        such G.  A G stays maximal: a face without v that contains G lies
        in some facet, which then contains G and so is G.  Two F - v never
        contain one another: F - v inside F' - v would put F inside F'.  So
        an F - v is dropped exactly when it lies inside some G."""
        if v not in self.vindex:
            raise UnknownVertex(repr(v))
        bit = 1 << self.vindex[v]
        avoiding = [g for g in self.facets if not g & bit]
        facets = avoiding + [f & ~bit for f in _exposed(self.facets, avoiding, bit)]
        return SimplicialComplex(self.vertices, facets).compact()

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        overlap = set(self.vertices) & set(other.vertices)
        if overlap:
            raise VertexClash(f"shared vertices {sorted(overlap)!r}")
        vertices = self.vertices + other.vertices
        shift = self.n_vertices
        facets = {f | (g << shift) for f in self.facets for g in other.facets}
        return SimplicialComplex(vertices, facets)


class OrderComplex(SimplicialComplex):
    """The order complex of the bounded poset ``poset``, as
    ``poset.order_complex`` builds it.  It is that simplicial complex, equal
    to any complex with the same facets; the poset is kept so that ``depth``
    can read it off interval homology and ``betti_numbers`` can check the
    Mobius function."""

    __slots__ = ("poset",)

    def __init__(self, poset: Poset, vertices, facets):
        super().__init__(vertices, facets)
        self.poset = poset


def _skeleton(facets, r: int) -> set:
    """The facets of the r-skeleton (r >= -1) of the complex with these
    facets, as ``SimplicialComplex.skeleton`` finds them."""
    keep = set()
    for f in facets:
        if f.bit_count() <= r + 1:
            keep.add(f)
        else:
            keep.update(_subsets(f, r + 1))
    return keep


def _support(facets) -> int:
    """The vertices that some facet holds, as a mask."""
    out = 0
    for f in facets:
        out |= f
    return out


def _dim(facets) -> int:
    """The dimension of the complex with these facets, of which there is at
    least one."""
    return max(map(int.bit_count, facets)) - 1


def _subsets(mask: int, k: int):
    """The k-element subsets of ``mask``, as masks."""
    for combo in itertools.combinations([1 << i for i in bits(mask)], k):
        yield sum(combo)


def _maximalize(masks) -> frozenset:
    by_size = {}
    for m in set(masks):
        by_size.setdefault(m.bit_count(), []).append(m)
    out = []
    accepted = []
    for size in sorted(by_size, reverse=True):
        # equal-size masks cannot contain one another
        keep = [m for m in by_size[size]
                if not any(m & f == m for f in accepted)]
        out.extend(keep)
        accepted.extend(keep)
    return frozenset(out)


def simplex_complex(names) -> SimplicialComplex:
    names = tuple(names)
    return SimplicialComplex(names, frozenset({(1 << len(names)) - 1}))


def empty_complex() -> SimplicialComplex:
    return SimplicialComplex((), frozenset({0}))


def void_complex() -> SimplicialComplex:
    return SimplicialComplex((), frozenset())


# --------------------------------------------------------------------------
# shedding vertices and the brute-force decomposability oracle
# --------------------------------------------------------------------------

def shedding_failure_witness(cx: SimplicialComplex, v):
    """A face containing v with no exchange vertex, or None if v sheds.

    v is a shedding vertex when no face of lk(v) is a facet of del(v)
    (Provan-Billera 1980).  Such a face would be a facet of lk(v), so only
    facets need testing: v fails iff some facet F through v has F - v
    inside no facet that avoids v.  The witness is the first such F in the
    iteration order of ``cx.facets``; it is also the only kind of face
    through v that can lack an exchange vertex.  O(F^2) mask operations.
    """
    if v not in cx.vindex:
        raise UnknownVertex(repr(v))
    bit = 1 << cx.vindex[v]
    avoiding = [g for g in cx.facets if not g & bit]
    witness = next(_exposed(cx.facets, avoiding, bit), None)
    return None if witness is None else cx.names_of(witness)


def _exposed(facets, avoiding, bit: int):
    """The facets F through the vertex ``bit`` whose F - v lies in none of
    the facets ``avoiding`` v, in the iteration order of ``facets``."""
    for f in facets:
        if f & bit:
            rest = f & ~bit
            if not any(rest & g == rest for g in avoiding):
                yield f


def is_shedding_vertex(cx: SimplicialComplex, v) -> bool:
    return shedding_failure_witness(cx, v) is None


def is_vd_bruteforce(cx: SimplicialComplex,
                     max_vertices: int = VD_VERTEX_LIMIT) -> bool:
    """Exhaustive search for a shedding recursion; simplices, the empty
    complex, and the void complex are decomposable by definition."""
    refuse_vd_vertices(cx, max_vertices)
    return _vd_search(cx, {})


def refuse_vd_vertices(cx: SimplicialComplex, max_vertices: int) -> None:
    """Raise ``SizeLimit`` if ``cx`` has more vertices than
    ``is_vd_bruteforce`` searches."""
    if cx.n_vertices > max_vertices:
        raise SizeLimit(f"complex has {cx.n_vertices} vertices, more than the "
                        f"vertex limit {max_vertices}; raise it with "
                        f"--limit-vd-vertices")


def _vd_search(cx: SimplicialComplex, memo: dict) -> bool:
    if len(cx.facets) <= 1:
        return True
    key = (cx.n_vertices, cx.facets)
    hit = memo.get(key)
    if hit is not None:
        return hit
    ans = False
    for v in cx.vertices:
        if is_shedding_vertex(cx, v):
            if (_vd_search(cx.delete_vertex(v), memo)
                    and _vd_search(cx.link_of((v,)), memo)):
                ans = True
                break
    memo[key] = ans
    return ans


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VDLeaf:
    """Certifies a simplex, the empty complex, or the void complex."""


@dataclass(frozen=True, repr=False, eq=False)
class VDNode:
    """Sheds ``vertex``: ``deletion`` certifies the complex without it and
    ``link`` its link.  ``repr`` and ``==`` are the dataclass forms, and
    ``hash`` agrees with ``==``; all three take an explicit stack, so a
    deletion chain of any length is read without recursion."""

    vertex: str
    deletion: object
    link: object

    def __repr__(self):
        out = []
        stack = [(False, self)]
        while stack:
            text, item = stack.pop()
            if text:
                out.append(item)
            elif isinstance(item, VDNode):
                stack += [(True, ")"), (False, item.link), (True, ", link="),
                          (False, item.deletion),
                          (True, f"{type(item).__qualname__}(vertex="
                                 f"{item.vertex!r}, deletion=")]
            else:
                out.append(repr(item))
        return "".join(out)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not VDNode or b.__class__ is not VDNode:
                if a != b:
                    return False
                continue
            if a.vertex != b.vertex:
                return False
            stack += [(a.link, b.link), (a.deletion, b.deletion)]
        return True

    def __hash__(self):
        # the vertices in preorder, which equal certificates share
        vertices, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.__class__ is VDNode:
                vertices.append(node.vertex)
                stack += [node.link, node.deletion]
        return hash(tuple(vertices))


def validate_vd_certificate(cert, cx: SimplicialComplex) -> bool:
    """Check a certificate node by node against the shedding definition."""
    for _ in _vd_walk(cert, cx, check_shedding=True):
        pass
    return True


def shelling_from_vd(cert, cx: SimplicialComplex) -> list:
    """Extract a shelling order from a decomposition certificate.

    Deletion facets come first, then the cone over the link shelling; this
    order is a shelling for nonpure complexes as well.  It is the leaves'
    facets, each with the vertices coned over it, in the order of the walk.
    """
    return [cx.names_of(f | cone) for node, facets, cone in _vd_walk(cert, cx)
            if isinstance(node, VDLeaf) for f in facets]


def _vd_walk(cert, cx: SimplicialComplex, check_shedding: bool = False):
    """Yield each node of ``cert`` with the complex it certifies and the
    vertices coned over it (the vertices whose link holds it), the root
    with ``cx``; a node's deletion comes before its link, so the leaves come
    out in shelling order.  An explicit stack holds the pending links, so
    no deletion chain recurses, and a link is taken only when the walk
    reaches it.

    The complex is yielded as a list of facet masks over ``cx.vertices``,
    and the cone as a mask over them, so no complex is built or compacted
    on the way.  The
    link of the vertex with bit b is the F - b of the facets F through b;
    the deletion is the facets that avoid b and the exposed F - b, those
    in none of them (``SimplicialComplex.delete_vertex``), and there are
    none when the vertex sheds (``shedding_failure_witness``).  Below the
    root a node's vertices are those some facet holds, as a compacted
    complex's are.

    A leaf on more than one facet, a node that is neither kind, and a vertex
    outside the complex raise ``InvalidCertificate`` before the node is
    yielded, and with ``check_shedding`` a vertex that does not shed raises
    it after.  Each node carries its trail of steps from the root, and a
    message that names the node's complex rebuilds it by ``_replay``."""
    stack = [(cert, list(cx.facets), 0, 0, None)]
    while stack:
        node, facets, cone, shed, trail = stack.pop()
        if shed:
            facets = [f & ~shed for f in facets if f & shed]
            if not facets:
                _replay(cx, trail)  # raises the link's NotAFace
        if isinstance(node, VDLeaf):
            if len(facets) > 1:
                raise InvalidCertificate(
                    f"leaf complex is not a simplex: {_replay(cx, trail)!r}")
        elif not isinstance(node, VDNode):
            raise InvalidCertificate(f"unexpected node {node!r}")
        else:
            i = cx.vindex.get(node.vertex)
            if i is None or (trail is not None
                             and not any(f >> i & 1 for f in facets)):
                raise InvalidCertificate(f"vertex {node.vertex!r} not in complex")
        yield node, facets, cone
        if isinstance(node, VDNode):
            v, bit = node.vertex, 1 << i
            avoiding = [g for g in facets if not g & bit]
            exposed = [f & ~bit for f in _exposed(facets, avoiding, bit)]
            if check_shedding and exposed:
                witness = shedding_failure_witness(_replay(cx, trail), v)
                raise InvalidCertificate(f"{v!r} is not a shedding "
                                         f"vertex (face {set(witness)!r})")
            stack.append((node.link, facets, cone | bit, bit, (trail, True, v)))
            stack.append((node.deletion, avoiding + exposed, cone, 0,
                          (trail, False, v)))


def _replay(cx: SimplicialComplex, trail) -> SimplicialComplex:
    """The complex of the ``_vd_walk`` node at the end of ``trail``, built
    as a compacted ``SimplicialComplex`` by the deletions and links from the
    root, in the vertex and facet order that the messages read."""
    steps = []
    while trail is not None:
        trail, link, v = trail
        steps.append((link, v))
    sub = cx
    for link, v in reversed(steps):
        sub = sub.link_of((v,)) if link else sub.delete_vertex(v)
    return sub


def verify_shelling(cx: SimplicialComplex, order) -> bool:
    """Whether ``order`` (facets as vertex-name sets) is a shelling.

    Uses the restriction-set form of the nonpure shelling condition
    (Bjorner-Wachs, *Shellable nonpure complexes and posets I*, 1996).  The
    restriction set R(F_k) holds each vertex v of F_k whose removal leaves
    a face of an earlier facet, and F_k extends the shelling iff every
    earlier F_i misses some vertex of R(F_k).  This equals the pairwise
    condition (F_i & F_k lies in some earlier F_j & F_k of size |F_k| - 1).

    Both tests read ``holding[u]``, the earlier facets through the vertex
    u as a bitmask over positions in the order.  v is in R(F_k) iff the AND
    of ``holding`` over F_k - v is nonzero: such an earlier facet misses v,
    or it would contain F_k, and facets form an antichain.  Prefix and
    suffix ANDs give every v in O(|F_k|).  F_k extends iff the AND of
    ``holding`` over R(F_k), started from all earlier facets, is 0.  So the
    check takes O(F d) integer ANDs.  An order that is not a permutation of
    the facets raises ``NotFacetPermutation``.
    """
    order = [frozenset(s) for s in order]
    if sorted(order, key=sorted) != sorted(cx.facet_name_sets(), key=sorted) \
            or len(order) != len(cx.facets):
        raise NotFacetPermutation("order must list each facet exactly once")
    holding = [0] * cx.n_vertices
    earlier = 0
    for k, s in enumerate(order):
        us = [cx.vindex[v] for v in s]
        rows = [holding[u] for u in us]
        suffix = [earlier]  # suffix[-1 - i]: the AND of earlier and rows[i:]
        for row in reversed(rows):
            suffix.append(suffix[-1] & row)
        prefix = through = earlier
        for i, row in enumerate(rows):
            if prefix & suffix[-2 - i]:
                through &= row
            prefix &= row
        if through:
            return False
        for u in us:
            holding[u] |= 1 << k
        earlier |= 1 << k
    return True


# --------------------------------------------------------------------------
# homology over the rationals
# --------------------------------------------------------------------------

def betti_numbers(cx: SimplicialComplex, limit: int = FACE_LIMIT) -> dict:
    """Reduced Betti numbers over the rationals, for -1 <= i <= dim.

    The boundary ranks from dimension 2 up are first taken over GF(2)
    (``_rank_mod2``); those from dimensions 0 and 1 are exact, through the
    augmentation and the connected components.  A mod-2 rank is kept
    unless it may differ from the rational one, and those are taken again
    by exact integer elimination (``_boundary_rank``).

    The local rule.  A square submatrix of a boundary matrix with nonzero
    determinant mod 2 has nonzero determinant over Z, so rank_2 <= rank_Q
    in each dimension.  So beta_2,j - beta_Q,j is the sum of the rank
    differences of the boundary maps into and out of degree j, both at
    least 0, and beta_Q,j >= 0; beta_2,j = 0 therefore makes both ranks
    around degree j exact.  The rank of the map from degree k to k - 1 can
    differ only when beta_2,k-1 and beta_2,k are both nonzero, and only
    those ranks are taken again.  RP^2 has beta_2 = (0, 0, 1, 1), so the
    rank from degree 2 is retaken.

    For the order complex of a bounded poset with 0 < 1 the numbers are
    checked against Philip Hall's theorem, sum (-1)^k beta_k = mu(0, 1),
    with mu from the down-set rows; this sees a wrong face count, not a wrong
    rank, as a rank enters two adjacent degrees with opposite signs.
    """
    if cx.is_void:
        return {}
    fbd = cx.faces_by_dim(limit=limit)
    ranks = {k: _rank_mod2(cx, fbd, k) for k in range(cx.dim + 1)}
    mod2 = _betti(fbd, ranks)
    for k in ranks:
        if k >= 2 and mod2[k - 1] and mod2[k]:
            ranks[k] = _boundary_rank(cx, fbd, k)
    out = _betti(fbd, ranks)
    if isinstance(cx, OrderComplex) and cx.poset.bottom != cx.poset.top:
        chi = sum(b if k % 2 == 0 else -b for k, b in out.items())
        mu = _mobius(cx.poset)
        if chi != mu:
            raise SelfCheckFailed("mobius", f"the Betti numbers sum to {chi} "
                                            f"with signs, but mu(0, 1) = {mu}")
    return out


def _betti(fbd, ranks: dict) -> dict:
    """Reduced Betti numbers from the faces by dimension ``fbd`` and the
    rank of the boundary map from each dimension 0 ... dim."""
    return {k: len(fbd.get(k, [])) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            for k in range(-1, len(ranks))}


def _rank_mod2(cx, fbd, k: int) -> int:
    """Rank over GF(2) of the boundary map from k-faces to (k-1)-faces;
    for k <= 1 the exact rank of ``_boundary_rank``.

    Each column is a Python int with one bit per (k-1)-face, its pivot is
    its highest set bit, read in constant time by ``int.bit_length``, and a
    column is reduced by XOR with the column holding its pivot."""
    if k <= 1 or not fbd.get(k):
        return _boundary_rank(cx, fbd, k)
    rows = {m: 1 << i for i, m in enumerate(fbd[k - 1])}
    pivots = {}
    for m in fbd[k]:
        col = 0
        rest = m
        while rest:
            low = rest & -rest
            col |= rows[m ^ low]
            rest ^= low
        while col:
            top = col.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = col
                break
            col ^= pivot
    return len(pivots)


def _mobius(P) -> int:
    """mu(0, 1) of the bounded poset ``P``: mu(0, 0) = 1 and mu(0, y) is
    minus the sum of mu(0, z) over 0 <= z < y, read off the down-set rows
    in topological order."""
    mu = [0] * P.n
    for y in P.topo:
        below = P.down[y] & ~(1 << y)
        mu[y] = 1 if y == P.bottom else -sum(mu[z] for z in bits(below))
    return mu[P.top]


def _boundary_rank(cx, fbd, k: int) -> int:
    """Rank over Q of the boundary map from k-faces to (k-1)-faces.

    Column elimination on Python ints, leading entry at the least row.  A
    column is reduced against a pivot column with leading entry a by
    col <- col - c*a*pivot when a is +-1, and otherwise by
    col <- a*col - c*pivot followed by division by the gcd of the entries.
    Scaling a column by a nonzero number keeps the rank, so this is exact.
    """
    faces_k = fbd.get(k, [])
    if not faces_k:
        return 0
    if k == 0:
        return 1  # augmentation onto the empty face
    if k == 1:
        return len(fbd.get(0, [])) - _component_count(cx, fbd)
    rows = {m: i for i, m in enumerate(fbd[k - 1])}
    pivots = {}
    for m in faces_k:
        col = {}
        sign = 1
        rest = m
        while rest:
            low = rest & -rest
            col[rows[m ^ low]] = sign
            sign = -sign
            rest ^= low
        while col:
            r = min(col)
            pivot = pivots.get(r)
            if pivot is None:
                if col[r] not in (1, -1):
                    _divide_by_content(col)
                pivots[r] = col
                break
            c, a = col[r], pivot[r]
            unit = a in (1, -1)
            if unit:
                c *= a
            else:
                for rr in col:
                    col[rr] *= a
            for rr, val in pivot.items():
                val = col.get(rr, 0) - c * val
                if val:
                    col[rr] = val
                else:
                    del col[rr]
            if not unit:
                _divide_by_content(col)
    return len(pivots)


def _divide_by_content(col: dict) -> None:
    """Divide a sparse integer column by the gcd of its entries."""
    g = math.gcd(*col.values())
    if g > 1:
        for rr in col:
            col[rr] //= g


def _component_count(cx, fbd) -> int:
    verts = fbd.get(0, [])
    idx = {m: i for i, m in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in fbd.get(1, []):
        u = e & -e
        ra, rb = find(idx[u]), find(idx[e ^ u])
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(len(verts))})


def is_cohen_macaulay(cx: SimplicialComplex, limit: int = FACE_LIMIT) -> bool:
    """Whether reduced rational homology of every link vanishes below the
    link's dimension (Reisner's criterion).

    Such a complex is pure, so this is ``depth(cx) == cx.dim``; a nonpure
    complex is refused without a sweep.  From dimension 1 up, a complex
    with more than ``limit`` faces raises ``SizeLimit``.
    """
    if cx.is_void or cx.dim <= 0:
        return True
    if min(f.bit_count() for f in cx.facets) <= cx.dim:
        # not Cohen-Macaulay, but refused above ``limit`` faces all the same
        cx.faces_by_dim(limit=limit)
        return False
    return depth(cx, limit=limit) == cx.dim


def depth(cx: SimplicialComplex, limit: int = FACE_LIMIT) -> int:
    """Largest r with a Cohen-Macaulay r-skeleton; bounded by the minimum
    facet dimension m.

    The link formula (Munkres, *Topological results in combinatorics*,
    1984): with h(K) the least i such that reduced rational homology
    H_i(K) is nonzero, depth is the minimum over faces s of |s| + h(lk s).
    The link of s in the r-skeleton is the (r - |s|)-skeleton of lk s, and
    a skeleton keeps the homology below its top degree, so Reisner's
    criterion for the r-skeleton reads |s| + h(lk s) >= r.  A facet F
    gives |F| - 1 through H_-1 of the empty complex, hence the bound m.

    The join/path formula, for the order complex of a bounded poset.  The
    link of the chain x_1 < ... < x_k is the join D(0, x_1) * D(x_1, x_2)
    * ... * D(x_k, 1) of the order complexes of the open intervals
    (Baclawski, *Cohen-Macaulay ordered sets*, 1980), and h(A * B) =
    h(A) + h(B) + 1 over a field by the Kunneth formula for joins, h being
    infinite for an acyclic complex.  So |s| + h(lk s) = k + sum
    h(y_i, y_i+1) + k is sum (h(y_i, y_i+1) + 2) - 2 over the k + 1 steps
    of the chain 0 = y_0 < ... < y_k+1 = 1, and depth is the shortest path
    from 0 to 1 over the pairs a < b weighted h(a, b) + 2, less 2.  A cover
    weighs 1, as D(a, b) is then the empty complex, and an acyclic interval
    gives no edge.

    The empty face comes first, with the m-skeleton of the whole complex, so
    for m >= 1 an m-skeleton of more than ``limit`` faces raises
    ``SizeLimit``, from the largest facet alone before the skeleton is
    built where that facet suffices (``_refuse_large_facet``); no later
    step can, as every face it counts is a face of that skeleton.  The
    other faces are then swept by ``_face_depth``, or, for an
    ``OrderComplex``, read off interval homology by ``_poset_depth`` along
    the formula above.
    """
    if cx.is_void:
        raise VoidComplex("depth of the void complex is undefined")
    m = min(f.bit_count() for f in cx.facets) - 1
    best = m
    if m >= 1:
        cx._refuse_large_facet(limit, m)
        best = _homology_floor(cx.skeleton(m), m, limit)
    if isinstance(cx, OrderComplex):
        best = _poset_depth(cx.poset, best, limit)
    else:
        best = _face_depth(cx, best, limit)
    if not -1 <= best <= m:
        raise SelfCheckFailed("depth", f"the link sweep gave {best}, "
                              f"outside -1..{m}")
    return best


def _face_depth(cx: SimplicialComplex, best: int, limit: int) -> int:
    """The least of ``best`` and |s| + h(lk s) over the nonempty faces s.

    Faces are visited in increasing size while |s| is below the best bound
    so far, and the homology of lk s is computed only through its
    (best - |s|)-skeleton; at 1 only the link's connectivity matters.
    """
    size = 1
    while size < best:
        for sigma in {s for f in cx.facets for s in _subsets(f, size)}:
            k = best - size
            if k <= 0:
                break
            lk_facets = [f & ~sigma for f in cx.facets if f & sigma == sigma]
            if k == 1:
                h = 1 if _is_connected(lk_facets) else 0
            else:
                lk = SimplicialComplex(cx.vertices, lk_facets)
                if lk.dim > k:
                    lk = lk.skeleton(k)
                h = _homology_floor(lk, k, limit)
            best = min(best, size + h)
        size += 1
    return best


def _poset_depth(P: Poset, best: int, limit: int) -> int:
    """The least of ``best`` and |s| + h(lk s) over the nonempty faces s of
    the order complex of the bounded poset ``P``, from interval homology.

    The terms are the paths of the join/path formula in ``depth`` but the
    one-step path (0, 1), which is the empty face, whose term ``best``
    holds.
    Pairs are relaxed in topological order.  Every step weighs at least 1,
    and a step that is not a cover at least 2, so the rest of a path from b
    to 1 weighs at least tail(b): 0 at the top, 1 at an element the top
    covers, and 2 elsewhere.  A path through a < b, with d(a) the distance to a so far,
    then costs at least d(a) + h(a, b) + 2 + tail(b), and beats ``best``
    only when h(a, b) < K for K = best - d(a) - tail(b).  A non-cover pair
    has h >= 0, so it is read only when K >= 1, and then only through the
    K-skeleton of its interval, by connectivity at K = 1
    (``_interval_floor``); an h of K or more gives no edge.  Every edge
    kept is exact, and every edge of a path that beats ``best`` is kept, by
    induction along the path, so the result is exact.  For the same reason
    an element a with d(a) + tail(a) - 2 >= best is passed over.
    """
    top = P.top
    tail = [2] * P.n
    for c in bits(P.cover_down[top]):
        tail[c] = 1
    tail[top] = 0
    dist = [None] * P.n
    dist[P.bottom] = 0
    for a in P.topo:
        d = dist[a]
        if d is None or d + tail[a] - 2 >= best:
            continue
        for b in bits(P.up[a] & ~(1 << a)):
            if P.cover_up[a] >> b & 1:
                w = 1
            elif a == P.bottom and b == top:
                continue
            else:
                k = best - d - tail[b]
                if k < 1:
                    continue
                h = _interval_floor(P, a, b, k, limit)
                if h >= k:
                    continue
                w = h + 2
            if b == top:
                best = min(best, d + w - 2)
            elif dist[b] is None or d + w < dist[b]:
                dist[b] = d + w
    return best


def _interval_floor(P: Poset, a: int, b: int, k: int, limit: int) -> int:
    """The least i < k with a nonzero reduced Betti number of the order
    complex of the open interval (a, b) of ``P``, else k; a < b is not a
    cover and k >= 1.  At k = 1 only connectivity matters, read off the
    comparability of the interval's elements; above, the complex is built
    from the interval's maximal chains and cut to its k-skeleton."""
    inside = P.up[a] & P.down[b] & ~(1 << a | 1 << b)
    if k == 1:
        return 1 if _is_connected([(P.up[x] | P.down[x]) & inside
                                   for x in bits(inside)]) else 0
    lk = chain_complex(P, P.chains(a, b), inside)
    if lk.dim > k:
        lk = lk.skeleton(k)
    return _homology_floor(lk, k, limit)


def _homology_floor(cx: SimplicialComplex, k: int, limit: int) -> int:
    """The least i < k with a nonzero reduced Betti number, else k."""
    betti = betti_numbers(cx, limit=limit)
    return min((i for i, b in betti.items() if b and i < k), default=k)


def _is_connected(masks) -> bool:
    """Whether the complex generated by these nonempty vertex masks is
    connected; components are merged as masks, so no face is built."""
    parts = []
    for f in masks:
        for p in [p for p in parts if p & f]:
            parts.remove(p)
            f |= p
        parts.append(f)
    return len(parts) == 1


# --------------------------------------------------------------------------
# directly constructed certificates
# --------------------------------------------------------------------------

def cert_simplex_skeleton(names, t: int):
    """Certificate for the t-skeleton of the simplex on ``names``.  For
    0 <= t < dim it sheds the last name down to t + 1 names, a simplex of
    dimension t and so a leaf, and each shed name's link is the
    (t - 1)-skeleton of the names before it."""
    names = tuple(names)
    n = len(names)
    cert = VDLeaf()
    for i in range(min(t + 1, n) if t >= 0 else n, n):
        cert = VDNode(names[i], cert, cert_simplex_skeleton(names[:i], t - 1))
    return cert


@dataclass(frozen=True)
class JoinFactor:
    """One factor of a join: a full complex, the skeleton level used, and a
    certificate for that skeleton."""

    complex: SimplicialComplex
    level: int
    cert: object


class _Factor(NamedTuple):
    """A ``JoinFactor`` over vertex coordinates that the factors share:
    ``order`` lists the coordinates of its vertices in its own vertex
    order, ``vertices`` is the mask of those it has, ``facets`` are masks
    over the same coordinates, and ``level`` and ``cert`` are as in a
    ``JoinFactor``."""

    order: tuple
    vertices: int
    facets: list
    level: int
    cert: object


def join_skeleton_certificate(factors, t: int):
    """Certificate for skel_t of the join of the ``JoinFactor`` factors.

    A level at or above a factor's dimension takes the whole factor, and t
    is read as at most the dimension D = sum(dim + 1) - 1 of the join.
    Requires each level at least -1, each proper skeleton pure (every facet
    of the factor at least level + 1 vertices), and t + 1 <= sum(level + 1)
    over the levels so read.  Shedding vertices are pulled from the factor
    certificates; exchanges across factors exist by purity.  The factors
    are checked when they enter, then the target, then the overlap of their
    vertices.

    Each vertex name gets one coordinate, in the order in which the factors
    list the names, and ``_join_certificate`` runs on the factors' facets
    over those coordinates.
    """
    index, masked = {}, []
    for f in factors:
        order = tuple(index.setdefault(v, len(index)) for v in f.complex.vertices)
        masked.append(_Factor(order, _support(1 << i for i in order),
                              [sum(1 << order[i] for i in bits(g))
                               for g in f.complex.facets], f.level, f.cert))
    return _join_certificate(masked, t, list(index), index)


def _join_certificate(factors, t: int, names, index):
    """``join_skeleton_certificate`` of the ``_Factor`` factors, whose
    coordinate i is the vertex ``names[i]``; ``index`` maps a name to its
    coordinate.

    The deletions are walked in a loop, and the links, one dimension down,
    are certified from the last deletion back up.  A deletion changes one
    factor and only removes vertices, so only that factor and the target
    are checked again.  The link of the vertex with bit b is the F - b of
    the facets F through b, and the deletion is the facets that avoid b
    with the exposed F - b (``SimplicialComplex.delete_vertex``); after
    either, a factor's vertices are those some facet holds, as after
    ``compact``.  So the certificate and the first error raised are those
    of the same steps on complexes.

    The leaf test needs no join: skel_t of the join J has at most one facet
    iff t < 0, or every factor has one facet and t = D.  For t < 0 the
    skeleton is the empty or the void complex.  For t >= 0 a lone facet G
    of skel_t holds every vertex of J and lies in a facet F of J, so every
    facet of J lies in F: J is the simplex F, which has one facet iff every
    factor has one, and its t-skeleton is F alone iff t + 1 = |F| = D + 1.
    """
    factors = list(factors)
    room = [_room(f) for f in factors]
    levels = []  # (shed vertex, link factors, t) per deletion
    while True:
        top = sum(d for d, _ in room) - 1
        t = min(t, top)
        if t + 1 > sum(r for _, r in room):
            raise InvalidCertificate(f"target {t} exceeds available levels")
        if not levels:
            seen = 0
            for f in factors:
                if seen & f.vertices:
                    overlap = sorted(names[i] for i in bits(seen & f.vertices))
                    raise VertexClash(f"shared vertices {overlap!r}")
                seen |= f.vertices

        if t < 0 or (t == top and all(len(f.facets) == 1 for f in factors)):
            cert = VDLeaf()
            break

        # shed a factor certificate's vertex, else a level -1 factor's last vertex
        sheds = [(j, f.cert.vertex, f.level - 1, f.cert.deletion, f.cert.link)
                 for j, f in enumerate(factors) if isinstance(f.cert, VDNode)]
        sheds += [(j, names[_listed(f)[-1]], -1, VDLeaf(), VDLeaf())
                  for j, f in enumerate(factors) if f.level == -1 and f.vertices]
        if not sheds:
            union = []
            for f in factors:
                if len(f.facets) > 1:
                    raise InvalidCertificate("leaf certificate on a non-simplex factor")
                union += [names[i] for i in _listed(f)]
            cert = cert_simplex_skeleton(tuple(union), t)
            break
        j, v, link_level, deletion, link = sheds[0]
        f = factors[j]
        i = index.get(v)
        if i is None or not f.vertices >> i & 1:
            raise UnknownVertex(repr(v))
        bit = 1 << i
        through = [g & ~bit for g in f.facets if g & bit]
        if not through:
            raise NotAFace(f"{ {v}!r} is not a face")
        avoiding = [g for g in f.facets if not g & bit]
        rest = avoiding + [g & ~bit for g in _exposed(f.facets, avoiding, bit)]
        link_factors = list(factors)
        link_factors[j] = _Factor(f.order, _support(through), through, link_level, link)
        levels.append((v, link_factors, t))
        factors[j] = _Factor(f.order, _support(rest), rest, f.level, deletion)
        room[j] = _room(factors[j])
    for v, link_factors, t in reversed(levels):
        cert = VDNode(v, cert, _join_certificate(link_factors, t - 1, names, index))
    return cert


def _listed(f: _Factor) -> list:
    """The coordinates of a factor's vertices, in its vertex order."""
    return [i for i in f.order if f.vertices >> i & 1]


def _room(f: _Factor) -> tuple:
    """(dim + 1, level + 1) of a join factor, its level read as at most its
    dimension, once ``_join_certificate``'s checks of it pass."""
    if not f.facets:
        raise InvalidCertificate("void factor in a join")
    d = _dim(f.facets)
    if f.level < -1:
        raise InvalidCertificate(f"level {f.level} out of range for dim {d}")
    level = min(f.level, d)
    if 0 <= level < d and min(map(int.bit_count, f.facets)) < level + 1:
        raise InvalidCertificate("factor skeleton is not pure")
    return d + 1, level + 1


def _check_join(factors, t: int, facets, message: str):
    """Self-check: skel_t of the join of the ``_Factor`` factors, whose
    vertex sets are disjoint, is skel_t of the complex with ``facets``,
    else ``InvalidCertificate(message)``.  A facet of such a join is the
    OR of one facet of each factor."""
    joined = [0]
    for f in factors:
        joined = [g | h for g in joined for h in f.facets]
    if _skeleton(joined, t) != _skeleton(facets, t):
        raise InvalidCertificate(message)


# --------------------------------------------------------------------------
# the lexicographic shedding loop
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DescentPick:
    chain: Chain
    element: str


def lex_greatest_single_descent_chain(P: Poset, lab) -> DescentPick:
    """Descent element of the lexicographically greatest maximal chain with
    exactly one strict descent (ties broken by the element order).

    Asserts the structural guarantees the shedding step relies on: below
    the descent element everything ascends, no chain ascends through it,
    and every cover pair through it has a bypass.
    """
    cache = _VDCache(P, lab)
    return _descent_pick(cache.root, cache)


def _descent_pick(sub, cache: _VDCache) -> DescentPick:
    """``lex_greatest_single_descent_chain`` of the sub-poset ``sub`` of
    the cache's root, with chains and their statistics read through
    ``cache``."""
    P, (lo, _, mask) = cache.P, sub
    chains = cache.chains(sub)
    stats = {c: cache.stats(c) for c in chains}
    if all(stats[c].weakly_ascending for c in chains):
        raise AllChainsAscending("every maximal chain is weakly ascending")
    single = [c for c in chains if len(stats[c].descents) == 1]
    if not single:
        raise InvalidCertificate("descents exist but no single-descent chain; "
                                 "labeling is not quasi-EL")
    # greatest by raw label sequence; the element order only breaks exact
    # ties, toward the greatest index tuple, and the walk up the cover rows
    # in index order lists the chains by increasing index tuple, so that is
    # the last of the tied chains
    best = max(reversed(single), key=lambda c: stats[c].labels)
    x = stats[best].descents[0]
    xi = P.idx(x)

    for c in cache.chains(cache.interval(lo, xi, mask)):
        if not cache.stats(c).weakly_ascending:
            raise InvalidCertificate(
                f"chain below descent element {x!r} is not ascending")

    for c in chains:
        if x in c:
            k = c.index(x)
            labels = stats[c].labels
            if 0 < k < len(c) - 1 and labels[k - 1] < labels[k]:
                raise InvalidCertificate(f"a chain strictly ascends through {x!r}")

    for w in bits(P.cover_down[xi] & mask):
        for z in bits(P.cover_up[xi] & mask):
            if not P.up[w] & P.down[z] & mask & ~(1 << w | 1 << z | 1 << xi):
                raise InvalidCertificate(
                    f"cover pair through {x!r} has no bypass")
    return DescentPick(Chain(best, maximal=True), x)


# deletions from posets of at most this many elements are verified again
# in full, as a self-check of the shedding step
RECHECK_LIMIT = 12


class _VDCache:
    """What one constructive call learns about the sub-posets of its root,
    the bounded poset ``P``, so that each fact is computed once:
    certificates by (mask, t), chain lists, spines and the facets of order
    complexes by mask, and chain statistics by chain.  A sub-poset is
    ``(lo, hi, mask)``, an index mask over ``P`` with its bottom and top,
    whose covers are P's among its members (see ``_vd_level``); ``root``
    is ``P`` itself."""

    __slots__ = ("P", "root", "lab", "bit", "certs", "spines", "chain_lists",
                 "chain_stats", "facet_lists")

    def __init__(self, P: Poset, lab):
        P.require_bounded()
        self.P = P
        self.root = (P.bottom, P.top, (1 << P.n) - 1)
        self.lab = lab
        self.bit = {e: 1 << i for i, e in enumerate(P.elements)}
        self.certs = {}
        self.spines = {}
        self.chain_lists = {}
        self.chain_stats = {}
        self.facet_lists = {}

    def interval(self, lo: int, hi: int, mask: int) -> tuple:
        """The interval [lo, hi] of the sub-poset on ``mask``."""
        return lo, hi, self.P.up[lo] & self.P.down[hi] & mask

    def _parent(self, table: dict, sub, x):
        """The entry of ``table`` for ``sub`` with the element of index x
        put back, when x lies strictly between its bottom and top, outside
        its mask; else None."""
        lo, hi, mask = sub
        if x is not None and (self.P.up[lo] & self.P.down[hi]) >> x & 1:
            return table.get(mask | 1 << x)

    def chains(self, sub, x=None) -> list:
        """The maximal chains of ``sub`` as tuples of names, in DFS order.

        A chain of ``sub`` is a walk up P's covers from lo to hi inside its
        mask.  So when the element of index ``x`` lies strictly between lo
        and hi, outside the mask, and the chains of the mask with x put back
        are known, the chains of ``sub`` are those that avoid x, in the
        same order; otherwise the walk is taken."""
        out = self.chain_lists.get(sub[2])
        if out is None:
            parent = self._parent(self.chain_lists, sub, x)
            if parent is not None:
                name = self.P.elements[x]
                out = [c for c in parent if name not in c]
            else:
                name = self.P.elements.__getitem__
                out = [tuple(map(name, c)) for c in self.P.maximal_chains_idx(*sub)]
            self.chain_lists[sub[2]] = out
        return out

    def facets(self, sub, x=None) -> list:
        """The facets of the order complex of ``sub`` as masks over P's
        indices, one per maximal chain in ``chains`` order: the OR of the
        chain's interior bits.  With ``x`` as in ``chains``, a chain that
        avoids x is a facet that avoids x's bit, so the facets are filtered
        from the parent's in the same way.  The chains are read first, so
        that the cache holds them beside the facets."""
        out = self.facet_lists.get(sub[2])
        if out is None:
            chains = self.chains(sub, x)
            parent = self._parent(self.facet_lists, sub, x)
            if parent is not None:
                out = [f for f in parent if not f >> x & 1]
            else:
                out = [sum(map(self.bit.__getitem__, c[1:-1])) for c in chains]
            self.facet_lists[sub[2]] = out
        return out

    def factor(self, sub, level: int, cert) -> _Factor:
        """The join factor of the order complex of ``sub`` at ``level``
        with ``cert``, its vertices the proper part in P's index order."""
        proper = sub[2] & ~(1 << sub[0] | 1 << sub[1])
        return _Factor(tuple(bits(proper)), proper, self.facets(sub), level, cert)

    def root_complex(self) -> SimplicialComplex:
        """The order complex of ``P``, built from its chains as
        ``order_complex`` builds it."""
        lo, hi, mask = self.root
        return chain_complex(self.P, self.chains(self.root), mask & ~(1 << lo | 1 << hi))

    def stats(self, chain: tuple):
        out = self.chain_stats.get(chain)
        if out is None:
            out = self.chain_stats[chain] = self.lab.stats(chain)
        return out

    def spine(self, sub, x=None):
        """The spine or Violation of ``sub``, as ``labeling.interval_spine``;
        ``x`` as in ``chains``."""
        out = self.spines.get(sub[2])
        if out is None:
            out = self.spines[sub[2]] = lb._interval_spine(
                {c: self.stats(c).labels for c in self.chains(sub, x)})
        return out

    def min_complexity(self, sub) -> int:
        """``labeling.min_chain_complexity(., lab)[0]`` of ``sub``."""
        return min(st.ell0 + st.ell1 for st in map(self.stats, self.chains(sub)))


def constructive_vd_skeleton(P: Poset, lab, target_r: int):
    """Certificate for the (target_r - 2)-skeleton of the order complex.

    ``target_r`` must not exceed the minimum of distinct-plus-repeated
    labels over maximal chains; the construction is refused beyond that.
    """
    if target_r < 1:
        raise TargetTooLarge("target must be at least 1")
    cache = _VDCache(P, lab)
    bound = cache.min_complexity(cache.root)
    if target_r > bound:
        raise TargetTooLarge(f"target {target_r} exceeds the bound {bound}")
    cert = _vd_level(cache.root, cache.facets(cache.root), target_r - 2, cache)
    full = cache.root_complex()
    return full.skeleton(min(target_r - 2, full.dim)), cert


def constructive_vd_full(P: Poset, lab):
    """Certificate for the full order complex, valid when no maximal chain
    repeats a label more than twice in a row."""
    cache = _VDCache(P, lab)
    for names in cache.chains(cache.root):
        seq = cache.stats(names).labels
        for k in range(len(seq) - 2):
            if seq[k] == seq[k + 1] == seq[k + 2]:
                raise RepeatRunTooLong(names, seq[k])
    facets = cache.facets(cache.root)
    return cache.root_complex(), _vd_level(cache.root, facets, _dim(facets), cache)


def _vd_level(sub, facets: list, t: int, cache: _VDCache, passed: bool = False):
    """A certificate for skel_t of the order complex of the sub-poset
    ``sub``, whose facets are ``facets`` (``_VDCache.facets``), with t read
    as at most its dimension; ``passed`` as in ``_shed_level``.

    The deletion chain is walked in a loop.  Each level
    (``_shed_level``) sheds the descent element x of the
    lexicographically greatest single-descent chain and moves to the
    deletion P - x, until a leaf, a base case, or a (mask, t) the cache
    already holds.  The certificates are then built from the last deletion
    back up, each level's link being the join of the order complexes of
    [0, x] and [x, 1] (``_split_factors``), in the order in which a
    recursion on the deletion would build them, so the certificates and
    the first error raised are the same.  Only the links recurse, one
    dimension down, so the stack grows with the dimension, not with the
    number of elements shed.  Each deletion's certificate is stored by
    (mask, t); ``_split_factors`` stores an interval's.

    No complex is built.  Every complex is a list of facet masks over the
    root's element indices, a facet being the OR of the interior bits of a
    maximal chain.  The chains of P - x are those of P that avoid x, so its
    facets are P's facets that avoid x, in the same order.  The link of x
    is the F - x of the facets F through x, and no skeleton is built on the
    way down: a level's link join is checked against the (t - 1)-skeleton
    of the link of x in the whole complex, which is the link of x in
    skel_t, as both hold the faces F - x of dimension at most t - 1 with F
    through x.  The factors of each join the loop checks have disjoint
    vertex sets.  They are the open intervals (c_i, c_i+1) between
    consecutive elements of one chain c of P, 0 < x < 1 for the link and
    the spine for the base case, whose interior is a factor too.  An
    element of (c_i, c_i+1) lies above c_i and every element of c before
    it, and below c_i+1 and every element of c after it, so it is neither
    on c nor in another of the intervals.  So a facet of their join is
    the OR of one facet of each, its t-skeleton is the set ``_skeleton``
    finds on those ORs, and ``_check_join`` compares two sets of masks;
    and no ``VertexClash`` can arise, in the check or in the join
    certificate.

    That is exact.  Every poset met is an interval or a deletion of one met
    before, starting from the root, and is carried as ``(lo, hi, mask)``:
    its members as an index mask over the root, with its bottom and top.
    Its covers are the root's cover rows ANDed with its mask, by induction:
    the root's are; the covers of an interval are the covers inside it; and
    a deletion P - x keeps every cover between remaining elements and makes
    no new one.  A cover (a, b) of P - x that is not one of P has some
    member of P strictly between a and b, and that member is x, as any
    other would still lie between them; nothing else does, so a < x < b
    are covers of P with no element of P - x between a and b.  That is a
    cover pair through x with no bypass, which ``_descent_pick`` refuses
    before x is shed.  So the mask fixes the poset: its chains in DFS order
    are the root's walk kept inside the mask
    (``Poset.maximal_chains_idx(lo, hi, within)``), and with them its
    spine, its facets, and with t its certificate, whichever branch
    reaches it.  A chain's names fix its statistics.  A failure ends the
    call, so only results are stored.  The walk inside P - x is the walk
    inside P that avoids x, so a deletion's chains are read off its
    parent's (``_VDCache.chains``), and so are those of each interval
    [a, b] of it with a < x < b in the recheck, that interval being [a, b]
    of P less x.
    """
    levels = []  # (sub, facets, t, x, passed) of each level that sheds x
    while True:
        t, x, cert = _shed_level(sub, facets, t, cache, passed)
        if x is None:
            break
        levels.append((sub, facets, t, x, passed))
        passed = sub[2].bit_count() <= RECHECK_LIMIT
        sub = sub[:2] + (sub[2] & ~(1 << x),)
        cert = cache.certs.get((sub[2], t))
        if cert is not None:
            break
        facets = cache.facets(sub, x)
    P = cache.P
    for sub, facets, t, x, passed in reversed(levels):
        cache.certs[(sub[2] & ~(1 << x), t)] = cert
        link_factors = _split_factors(sub, x, t, cache, passed)
        _check_join(link_factors, t - 1, [f & ~(1 << x) for f in facets if f >> x & 1],
                    "link join does not match the complex link")
        cert = VDNode(P.elements[x], cert,
                      _join_certificate(link_factors, t - 1, P.elements, P.index))
    return cert


def _shed_level(sub, facets: list, t: int, cache: _VDCache, passed: bool):
    """One level of ``_vd_level``: (t read as at most the dimension of
    the complex with ``facets``, the index of x, None) when the descent
    element x is to be shed, else (t, None, certificate) for a leaf, or,
    with every chain weakly ascending, for the join of
    ``_base_case_factors``.  The leaf test reads the facets: skel_t has at
    most one facet iff t < 0, or the complex is one simplex and t its
    dimension, as a larger facet has at least two (t + 1)-subsets.

    The recheck.  When ``sub`` has at most ``RECHECK_LIMIT`` elements, the
    deletion P - x is verified again: no interval of it may give a
    Violation, its spines read through the cache.  That is
    ``labeling.verify_quasi_el``'s verdict on P - x.  ``passed`` says that
    every interval of P is known to give none, and then only the intervals
    [a, b] with a < x < b are read.  Any other interval [a, b] of P - x
    has a, b != x and x not between them, so it has the members of [a, b]
    in P, and the same covers, the root's among them; so it has the same
    chains and spine, and gives no Violation either.  The root has not
    passed.  A deletion left by a recheck that passed has, and so has every
    interval of a poset that has, as its intervals are the poset's."""
    dim = _dim(facets)
    t = min(t, dim)
    if t < 0 or (len(facets) == 1 and t == dim):
        return t, None, VDLeaf()
    P = cache.P
    try:
        x = P.index[_descent_pick(sub, cache).element]
    except AllChainsAscending:
        factors = _base_case_factors(sub, t, cache)
        cert = _join_certificate(factors, t, P.elements, P.index)
        _check_join(factors, t, facets, "base case join does not match the skeleton")
        return t, None, cert

    if sub[2].bit_count() <= RECHECK_LIMIT:
        rest = sub[2] & ~(1 << x)
        if any(isinstance(cache.spine(cache.interval(a, b, rest), x), lb.Violation)
               for a, b in lb._intervals(P, rest)
               if not passed or (P.up[a] & P.down[b]) >> x & 1):
            raise InvalidCertificate(
                f"restriction away from {P.elements[x]!r} lost the labeling axioms")
    return t, x, None


def _base_case_factors(sub, t: int, cache: _VDCache):
    """Factors for the all-ascending case: the spine simplex, its vertices
    in chain order, joined with a point layer per repeated-label gap, each
    certified as a simplex skeleton at its level (a leaf at level -1)."""
    spine = cache.spine(sub)
    if not isinstance(spine, lb.AscentSpine):
        raise InvalidCertificate(f"no spine in the base case: {spine}")
    P = cache.P
    chain = [P.index[e] for e in spine.elements]
    gaps = [g for g in (cache.interval(u, v, sub[2]) for u, v in zip(chain, chain[1:]))
            if g[2].bit_count() > 2]
    r0 = max(-1, t - len(gaps))
    order = tuple(chain[1:-1])
    simplex = _support(1 << i for i in order)
    factors = [_Factor(order, simplex, [simplex], r0,
                       cert_simplex_skeleton(spine.elements[1:-1], r0))]
    for k, gap in enumerate(gaps):
        level = 0 if k < t - r0 else -1
        points = [P.elements[i] for i in bits(gap[2] & ~(1 << gap[0] | 1 << gap[1]))]
        factors.append(cache.factor(gap, level, cert_simplex_skeleton(points, level)))
    return factors


def _split_factors(sub, xi: int, t: int, cache: _VDCache, passed: bool):
    """Join factors for the link of the shed element xi: the lower interval
    at its own full complexity, the upper interval at what remains of t.
    Each interval of ``sub`` has passed when ``sub`` has (``_shed_level``).

    An interval taken below its dimension must not exceed its own chain
    complexity bound.  One taken whole needs no bound: the order complex
    itself decomposes when no chain repeats a label three times running,
    which ``constructive_vd_full`` checks at the root and every chain
    segment inherits.
    """
    lo, hi, mask = sub
    lower, upper = cache.interval(lo, xi, mask), cache.interval(xi, hi, mask)
    pairs = {(st.ell0, st.ell1) for st in map(cache.stats, cache.chains(lower))}
    if len(pairs) != 1:
        raise InvalidCertificate("lower interval has chain-dependent statistics")
    i, j = pairs.pop()

    factors = []
    for part, level in ((lower, i + j - 2), (upper, t - i - j)):
        if level < 0:
            factors.append(cache.factor(part, -1, VDLeaf()))
            continue
        facets = cache.facets(part)
        if level < _dim(facets) and level + 2 > cache.min_complexity(part):
            raise InvalidCertificate("interval target exceeds its bound")
        cert = cache.certs.get((part[2], level))
        if cert is None:
            cert = cache.certs[(part[2], level)] = _vd_level(
                part, facets, level, cache, passed)
        factors.append(cache.factor(part, level, cert))
    return factors
