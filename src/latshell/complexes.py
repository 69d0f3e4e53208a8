"""Simplicial complexes with exact homology, Cohen-Macaulay depth,
shellings, and vertex-decomposition certificates.

Complexes are stored by their facets, as bitmasks over a vertex tuple.  The
empty complex (one face, the empty set) and the void complex (no faces at
all) are distinguished; both are accepted as decomposition leaves.
Shelling orders are checked on those masks by the restriction-set form of
the nonpure shelling condition (Bjorner-Wachs 1996), and Betti numbers are
exact ranks over the rationals by integer column elimination.  A vertex is
tested for shedding on facets alone (Provan-Billera 1980: v sheds iff no
facet of lk(v) is a facet of del(v)).  Depth is one sweep over the faces
by the link formula depth = min |s| + h(lk s), h the least degree of
nonzero reduced rational homology (Munkres 1984), and a complex is
Cohen-Macaulay iff it is pure with depth equal to its dimension.

The constructive decomposition of order complexes is one lexicographic
recursion for every skeleton, the whole complex being the skeleton at its
own dimension: shed the descent element of the lexicographically greatest
single-descent chain, whose link is the join of the lower and upper
interval complexes, and in the all-ascending base case assemble the complex
as a join of a spine simplex with the gap complexes.  One join builder
certifies both joins, reading a level at or above a factor's dimension as
the whole factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
from .poset import Chain, Poset, bits, interval, order_complex


class SimplicialComplex:
    """Immutable complex given by inclusion-maximal faces."""

    __slots__ = ("vertices", "vindex", "facets")

    def __init__(self, vertices, facets):
        self.vertices = tuple(vertices)
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        self.facets = frozenset(facets)

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
    def dim(self):
        """Dimension, or None for the void complex."""
        if self.is_void:
            return None
        return max(f.bit_count() for f in self.facets) - 1

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
        """Faces of dimension at most ``r``."""
        if self.is_void or r < -1:
            return SimplicialComplex((), frozenset())
        keep = set()
        for f in self.facets:
            if f.bit_count() <= r + 1:
                keep.add(f)
            else:
                keep.update(_subsets(f, r + 1))
        return SimplicialComplex(self.vertices, _maximalize(keep)).compact()

    def compact(self) -> "SimplicialComplex":
        """Drop vertices outside the support, preserving order."""
        support = 0
        for f in self.facets:
            support |= f
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
        if v not in self.vindex:
            raise UnknownVertex(repr(v))
        bit = 1 << self.vindex[v]
        facets = _maximalize({f & ~bit for f in self.facets})
        return SimplicialComplex(self.vertices, facets).compact()

    def delete_face(self, names) -> "SimplicialComplex":
        """Remove all faces containing the given vertex set."""
        sigma = self.mask_of(names)
        if sigma == 0:
            return SimplicialComplex((), frozenset())
        keep = set()
        for f in self.facets:
            if f & sigma != sigma:
                keep.add(f)
            else:
                for i in bits(sigma):
                    keep.add(f & ~(1 << i))
        return SimplicialComplex(self.vertices, _maximalize(keep)).compact()

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        overlap = set(self.vertices) & set(other.vertices)
        if overlap:
            raise VertexClash(f"shared vertices {sorted(overlap)!r}")
        vertices = self.vertices + other.vertices
        shift = self.n_vertices
        facets = {f | (g << shift) for f in self.facets for g in other.facets}
        return SimplicialComplex(vertices, facets)


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
    for f in cx.facets:
        if f & bit:
            rest = f & ~bit
            if not any(rest & g == rest for g in avoiding):
                return cx.names_of(f)
    return None


def is_shedding_vertex(cx: SimplicialComplex, v) -> bool:
    return shedding_failure_witness(cx, v) is None


def is_vd_bruteforce(cx: SimplicialComplex, max_vertices: int = 25) -> bool:
    """Exhaustive search for a shedding recursion; simplices, the empty
    complex, and the void complex are decomposable by definition."""
    if cx.n_vertices > max_vertices:
        raise SizeLimit(f"complex has {cx.n_vertices} vertices, more than the "
                        f"vertex limit {max_vertices}; raise it with "
                        f"--limit-vd-vertices")
    return _vd_search(cx, {})


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


@dataclass(frozen=True)
class VDNode:
    vertex: str
    deletion: object
    link: object


def validate_vd_certificate(cert, cx: SimplicialComplex) -> bool:
    """Check a certificate node by node against the shedding definition."""
    if isinstance(cert, VDLeaf):
        if len(cx.facets) > 1:
            raise InvalidCertificate(f"leaf complex is not a simplex: {cx!r}")
        return True
    if not isinstance(cert, VDNode):
        raise InvalidCertificate(f"unexpected node {cert!r}")
    if cert.vertex not in cx.vindex:
        raise InvalidCertificate(f"vertex {cert.vertex!r} not in complex")
    witness = shedding_failure_witness(cx, cert.vertex)
    if witness is not None:
        raise InvalidCertificate(
            f"{cert.vertex!r} is not a shedding vertex (face {set(witness)!r})")
    validate_vd_certificate(cert.deletion, cx.delete_vertex(cert.vertex))
    validate_vd_certificate(cert.link, cx.link_of((cert.vertex,)))
    return True


def shelling_from_vd(cert, cx: SimplicialComplex) -> list:
    """Extract a shelling order from a decomposition certificate.

    Deletion facets come first, then the cone over the link shelling; this
    order is a shelling for nonpure complexes as well.
    """
    if isinstance(cert, VDLeaf):
        if len(cx.facets) > 1:
            raise InvalidCertificate("leaf complex is not a simplex")
        return [cx.names_of(f) for f in cx.facets]
    if not isinstance(cert, VDNode):
        raise InvalidCertificate(f"unexpected node {cert!r}")
    v = cert.vertex
    if v not in cx.vindex:
        raise InvalidCertificate(f"vertex {v!r} not in complex")
    first = shelling_from_vd(cert.deletion, cx.delete_vertex(v))
    second = shelling_from_vd(cert.link, cx.link_of((v,)))
    return first + [s | {v} for s in second]


def verify_shelling(cx: SimplicialComplex, order) -> bool:
    """Whether ``order`` (facets as vertex-name sets) is a shelling.

    Uses the restriction-set form of the nonpure shelling condition
    (Bjorner-Wachs, *Shellable nonpure complexes and posets I*, 1996); see
    ``_extends_shelling``.  An order that is not a permutation of the facets
    raises ``NotFacetPermutation``.
    """
    order = [frozenset(s) for s in order]
    if sorted(order, key=sorted) != sorted(cx.facet_name_sets(), key=sorted) \
            or len(order) != len(cx.facets):
        raise NotFacetPermutation("order must list each facet exactly once")
    earlier = []
    for s in order:
        fk = cx.mask_of(s)
        if not _extends_shelling(earlier, fk):
            return False
        earlier.append(fk)
    return True


def _extends_shelling(earlier, fk: int) -> bool:
    """Whether facet mask ``fk`` may follow the facet masks ``earlier``.

    The restriction set R(F_k) holds each vertex v of F_k whose removal
    leaves a face of an earlier facet.  F_k extends the shelling iff every
    earlier F_i misses some vertex of R(F_k).  This equals the pairwise
    condition (F_i & F_k lies in some earlier F_j & F_k of size |F_k| - 1)
    at O(F) integer operations per step instead of O(F^2) set operations.
    """
    codim1 = fk.bit_count() - 1
    restriction = 0
    for fj in earlier:
        if (fj & fk).bit_count() == codim1:
            restriction |= fk & ~fj
    return all(fk & ~fi & restriction for fi in earlier)


# --------------------------------------------------------------------------
# homology over the rationals
# --------------------------------------------------------------------------

def betti_numbers(cx: SimplicialComplex, limit: int = 200000) -> dict:
    """Reduced Betti numbers over the rationals, for -1 <= i <= dim.

    Boundary ranks are exact: dimension-one boundaries via connected
    components, higher ones by integer column elimination (see
    ``_boundary_rank``); no rank is taken modulo a prime.
    """
    if cx.is_void:
        return {}
    fbd = cx.faces_by_dim(limit=limit)
    dim = cx.dim
    counts = {k: len(fbd.get(k, [])) for k in range(-1, dim + 1)}
    ranks = {}
    for k in range(0, dim + 1):
        ranks[k] = _boundary_rank(cx, fbd, k)
    ranks[dim + 1] = 0
    out = {}
    for k in range(-1, dim + 1):
        out[k] = counts[k] - ranks.get(k, 0) - ranks[k + 1]
    return out


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


def is_cohen_macaulay(cx: SimplicialComplex, limit: int = 200000) -> bool:
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


def depth(cx: SimplicialComplex, limit: int = 200000) -> int:
    """Largest r with a Cohen-Macaulay r-skeleton; bounded by the minimum
    facet dimension m.

    One sweep over the faces by the link formula (Munkres, *Topological
    results in combinatorics*, 1984): with h(K) the least i such that
    reduced rational homology H_i(K) is nonzero, depth is the minimum over
    faces s of |s| + h(lk s).  The link of s in the r-skeleton is the
    (r - |s|)-skeleton of lk s, and a skeleton keeps the homology below its
    top degree, so Reisner's criterion for the r-skeleton reads
    |s| + h(lk s) >= r.  A facet F gives |F| - 1 through H_-1 of the empty
    complex, hence the bound m.

    Faces are visited in increasing size while |s| is below the best bound
    so far, and the homology of lk s is computed only through its
    (best - |s|)-skeleton; at 1 only the link's connectivity matters.  The
    empty face comes first, with the m-skeleton of the whole complex, so
    for m >= 1 an m-skeleton of more than ``limit`` faces raises
    ``SizeLimit``.
    """
    if cx.is_void:
        raise VoidComplex("depth of the void complex is undefined")
    m = min(f.bit_count() for f in cx.facets) - 1
    best = m
    if m >= 1:
        best = _homology_floor(cx.skeleton(m), m, limit)
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
    if not -1 <= best <= m:
        raise SelfCheckFailed("depth", f"the link sweep gave {best}, "
                              f"outside -1..{m}")
    return best


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
    """Certificate for the t-skeleton of the simplex on ``names``."""
    names = tuple(names)
    if t <= -1 or t >= len(names) - 1:
        return VDLeaf()
    rest = names[:-1]
    return VDNode(names[-1], cert_simplex_skeleton(rest, t),
                  cert_simplex_skeleton(rest, t - 1))


@dataclass(frozen=True)
class JoinFactor:
    """One factor of a join: a full complex, the skeleton level used, and a
    certificate for that skeleton."""

    complex: SimplicialComplex
    level: int
    cert: object


def join_skeleton_certificate(factors, t: int):
    """Certificate for skel_t of the join of the factors.

    A level at or above a factor's dimension takes the whole factor, and t
    is read as at most the dimension of the join.  Requires each level at
    least -1, each proper skeleton pure (every facet of the factor at least
    level + 1 vertices), and t + 1 <= sum(level + 1) over the levels so
    read.  Shedding vertices are pulled from the factor certificates;
    exchanges across factors exist by purity.
    """
    cxs = [f.complex for f in factors]
    total = 0
    for f in factors:
        if f.complex.is_void:
            raise InvalidCertificate("void factor in a join")
        d = f.complex.dim
        if f.level < -1:
            raise InvalidCertificate(f"level {f.level} out of range for dim {d}")
        level = min(f.level, d)
        if 0 <= level < d:
            if min(x.bit_count() for x in f.complex.facets) < level + 1:
                raise InvalidCertificate("factor skeleton is not pure")
        total += level + 1
    t = min(t, sum(c.dim + 1 for c in cxs) - 1)
    if t + 1 > total:
        raise InvalidCertificate(f"target {t} exceeds available levels")

    T = cxs[0]
    for c in cxs[1:]:
        T = T.join(c)
    T = T.skeleton(t)
    if len(T.facets) <= 1:
        return VDLeaf()

    for j, f in enumerate(factors):
        if isinstance(f.cert, VDNode):
            v = f.cert.vertex
            del_factors = list(factors)
            del_factors[j] = JoinFactor(f.complex.delete_vertex(v), f.level,
                                        f.cert.deletion)
            link_factors = list(factors)
            link_factors[j] = JoinFactor(f.complex.link_of((v,)), f.level - 1,
                                         f.cert.link)
            return VDNode(v,
                          join_skeleton_certificate(del_factors, t),
                          join_skeleton_certificate(link_factors, t - 1))

    for j, f in enumerate(factors):
        if f.level == -1 and f.complex.n_vertices:
            v = f.complex.vertices[-1]
            del_factors = list(factors)
            del_factors[j] = JoinFactor(f.complex.delete_vertex(v), -1, VDLeaf())
            link_factors = list(factors)
            link_factors[j] = JoinFactor(f.complex.link_of((v,)), -1, VDLeaf())
            return VDNode(v,
                          join_skeleton_certificate(del_factors, t),
                          join_skeleton_certificate(link_factors, t - 1))

    union = []
    for f in factors:
        if len(f.complex.facets) > 1:
            raise InvalidCertificate("leaf certificate on a non-simplex factor")
        union.extend(f.complex.vertices)
    return cert_simplex_skeleton(tuple(union), t)


# --------------------------------------------------------------------------
# the lexicographic shedding recursion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DescentPick:
    chain: Chain
    element: str


def lex_greatest_single_descent_chain(P: Poset, lab, recheck_limit: int = 0) -> DescentPick:
    """Descent element of the lexicographically greatest maximal chain with
    exactly one strict descent (ties broken by the element order).

    Asserts the structural guarantees the shedding step relies on: below
    the descent element everything ascends, no chain ascends through it,
    and every cover pair through it has a bypass.
    """
    from . import labeling as lb

    chains = P.chains()
    stats = {c: lab.stats(c) for c in chains}
    if all(stats[c].weakly_ascending for c in chains):
        raise AllChainsAscending("every maximal chain is weakly ascending")
    single = [c for c in chains if len(stats[c].descents) == 1]
    if not single:
        raise InvalidCertificate("descents exist but no single-descent chain; "
                                 "labeling is not quasi-EL")
    # greatest by raw label sequence; the element order only breaks exact ties
    best = max(single, key=lambda c: (lab.sequence(c),
                                      tuple(P.idx(e) for e in c)))
    x = stats[best].descents[0]
    xi = P.idx(x)

    for c in P.chains(P.bottom, xi):
        if not lab.stats(c).weakly_ascending:
            raise InvalidCertificate(
                f"chain below descent element {x!r} is not ascending")

    for c in chains:
        if x in c:
            k = c.index(x)
            if 0 < k < len(c) - 1 and lab.label(c[k - 1], x) < lab.label(x, c[k + 1]):
                raise InvalidCertificate(f"a chain strictly ascends through {x!r}")

    for w in bits(P.cover_down[xi]):
        for z in bits(P.cover_up[xi]):
            between = P.up[w] & P.down[z] & ~(1 << w) & ~(1 << z) & ~(1 << xi)
            if not between:
                raise InvalidCertificate(
                    f"cover pair through {x!r} has no bypass")

    if 0 < P.n <= recheck_limit:
        rest = lb.verify_quasi_el(_delete_element(P, x), lab)
        if not rest.ok:
            raise InvalidCertificate(
                f"restriction away from {x!r} lost the labeling axioms")
    return DescentPick(Chain(best, maximal=True), x)


def _delete_element(P: Poset, x: str) -> Poset:
    """P less x, refused when a cover of it is not a cover of P."""
    rest = P.restrict(((1 << P.n) - 1) & ~(1 << P.idx(x)))
    for a, b in rest.covers():
        if not P.cover_up[P.index[a]] >> P.index[b] & 1:
            raise InvalidCertificate(
                f"removing {x!r} created the new cover ({a!r}, {b!r})")
    return rest


def constructive_vd_skeleton(P: Poset, lab, target_r: int,
                             recheck_limit: int = 12):
    """Certificate for the (target_r - 2)-skeleton of the order complex.

    ``target_r`` must not exceed the minimum of distinct-plus-repeated
    labels over maximal chains; the construction is refused beyond that.
    """
    from . import labeling as lb

    if target_r < 1:
        raise TargetTooLarge("target must be at least 1")
    bound, _ = lb.min_chain_complexity(P, lab)
    if target_r > bound:
        raise TargetTooLarge(f"target {target_r} exceeds the bound {bound}")
    return _vd_rec(P, order_complex(P), lab, target_r - 2, recheck_limit)


def constructive_vd_full(P: Poset, lab, recheck_limit: int = 12):
    """Certificate for the full order complex, valid when no maximal chain
    repeats a label more than twice in a row."""
    for names in P.chains():
        seq = lab.sequence(names)
        for k in range(len(seq) - 2):
            if seq[k] == seq[k + 1] == seq[k + 2]:
                raise RepeatRunTooLong(names, seq[k])
    cx = order_complex(P)
    return cx, _vd_rec(P, cx, lab, cx.dim, recheck_limit)[1]


def _vd_rec(P: Poset, full: SimplicialComplex, lab, t: int, recheck_limit: int):
    """skel_t of ``full``, the order complex of ``P``, with t read as at
    most its dimension, and a certificate for it.  Sheds the descent element
    x of the lexicographically greatest single-descent chain; the link of x
    is the join of the order complexes of [0, x] and [x, 1].  With every
    chain weakly ascending the complex is the join of
    ``_base_case_factors``."""
    t = min(t, full.dim)
    cx = full.skeleton(t)
    if len(cx.facets) <= 1:
        return cx, VDLeaf()
    try:
        pick = lex_greatest_single_descent_chain(P, lab, recheck_limit)
    except AllChainsAscending:
        factors = _base_case_factors(P, lab, t)
        cert = join_skeleton_certificate(factors, t)
        joined = factors[0].complex
        for f in factors[1:]:
            joined = joined.join(f.complex)
        if joined.skeleton(t) != cx:
            raise InvalidCertificate("base case join does not match the skeleton")
        return cx, cert

    x = pick.element
    rest = _delete_element(P, x)
    _, deletion = _vd_rec(rest, order_complex(rest), lab, t, recheck_limit)
    link_factors, link_cx = _split_factors(P, lab, x, t, recheck_limit)
    if link_cx != cx.link_of((x,)):
        raise InvalidCertificate("link join does not match the complex link")
    link_cert = join_skeleton_certificate(link_factors, t - 1)
    return cx, VDNode(x, deletion, link_cert)


def _base_case_factors(P: Poset, lab, t: int):
    """Factors for the all-ascending case: the spine simplex joined with a
    point layer per repeated-label gap."""
    from . import labeling as lb

    spine = lb.interval_spine(P, lab)
    if not isinstance(spine, lb.AscentSpine):
        raise InvalidCertificate(f"no spine in the base case: {spine}")
    interior = spine.elements[1:-1]
    gap_complexes = []
    for u, v in zip(spine.elements, spine.elements[1:]):
        sub = interval(P, u, v)
        if sub.n > 2:
            gap_complexes.append(order_complex(sub))
    s = len(gap_complexes)
    r0 = max(-1, t - s)
    simplex = simplex_complex(interior) if interior else empty_complex()
    factors = [JoinFactor(simplex, r0, cert_simplex_skeleton(interior, r0))]
    used = t - r0
    for k, g in enumerate(gap_complexes):
        if k < used:
            factors.append(JoinFactor(g, 0, cert_simplex_skeleton(g.vertices, 0)))
        else:
            factors.append(JoinFactor(g, -1, VDLeaf()))
    return factors


def _split_factors(P: Poset, lab, x: str, t: int, recheck_limit: int):
    """Join factors for the link of the shed element: the lower interval at
    its own full complexity, the upper interval at what remains of t.

    An interval taken below its dimension must not exceed its own chain
    complexity bound.  One taken whole needs no bound: the order complex
    itself decomposes when no chain repeats a label three times running,
    which ``constructive_vd_full`` checks at the root and every chain
    segment inherits.
    """
    from . import labeling as lb

    bottom, top = P.elements[P.bottom], P.elements[P.top]
    below = map(lab.stats, P.chains(P.bottom, P.idx(x)))
    pairs = {(st.ell0, st.ell1) for st in below}
    if len(pairs) != 1:
        raise InvalidCertificate("lower interval has chain-dependent statistics")
    i, j = pairs.pop()

    factors = []
    for sub, level in ((interval(P, bottom, x), i + j - 2),
                       (interval(P, x, top), t - i - j)):
        cxf = order_complex(sub)
        if level >= 0:
            if level < cxf.dim and level + 2 > lb.min_chain_complexity(sub, lab)[0]:
                raise InvalidCertificate("interval target exceeds its bound")
            factors.append(JoinFactor(cxf, level,
                                      _vd_rec(sub, cxf, lab, level, recheck_limit)[1]))
        else:
            factors.append(JoinFactor(cxf, -1, VDLeaf()))
    joined = factors[0].complex.join(factors[1].complex).skeleton(t - 1)
    return factors, joined
