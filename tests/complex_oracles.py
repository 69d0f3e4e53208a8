"""Slow reference implementations of the topology kernels in
``latshell.complexes``, kept as oracles for the tests.

``reference_verify_shelling`` is the pairwise shelling test (O(F^3) set
operations) and ``reference_boundary_rank`` the sparse elimination over
``Fraction``.  They are kept as they were before the kernels moved to the
restriction-set predicate and integer pivots, so they share no arithmetic
with the routines they check.

``reference_betti_numbers`` also takes its ranks over GF(2) on request,
so that the tests can tell which ranks the library must take again over
the integers.

``reference_shedding_failure_witness`` tries every face through the vertex
and scans all facets for an exchange vertex; ``reference_is_cohen_macaulay``
computes full homology of the link of every face, and ``reference_depth``
reruns it on each skeleton from the minimum facet dimension down.  They are
the kernels from before the facet-only shedding test and the one-sweep
depth, with homology taken by the ``Fraction`` oracle above.

``reference_delete_vertex`` maximalizes every F - v, as ``delete_vertex``
did before it kept the facets that avoid v as they stand.

``reference_validate_vd_certificate`` and ``reference_shelling_from_vd``
read a certificate by the walk from before the readers moved to facet
masks: every node's complex is built and compacted as a
``SimplicialComplex`` by ``delete_vertex`` and ``link_of``, and each
vertex is tested by ``shedding_failure_witness`` on it.

``reference_constructive_vd_skeleton`` and ``reference_constructive_vd_full``
are the constructive recursion before its per-call cache: every level
walks its chains, computes their statistics, builds the order complex of
each sub-poset as a ``Poset`` and rechecks a deletion with
``verify_quasi_el``, whether or not an earlier branch of the same call did
so already.  Its deletions go through ``lattice_oracles``' own
``reference_delete_element``, so it shares no sub-poset code with the
recursion it checks.

``reference_join_skeleton_certificate`` and ``reference_check_join`` are
the join certificate and its self-check from before they moved to facet
masks: each factor is a ``SimplicialComplex``, and a shed vertex's link and
deletion are built and compacted by ``link_of`` and ``delete_vertex``.
The reference recursion uses them, so it shares no join code with the
library either.
"""

import itertools
import math
from fractions import Fraction

from latshell import labeling as lb
from latshell.complexes import (
    RECHECK_LIMIT,
    DescentPick,
    JoinFactor,
    SimplicialComplex,
    VDLeaf,
    VDNode,
    _maximalize,
    cert_simplex_skeleton,
    empty_complex,
    shedding_failure_witness,
    simplex_complex,
)
from latshell.errors import (
    AllChainsAscending,
    InvalidCertificate,
    NotFacetPermutation,
    RepeatRunTooLong,
    SelfCheckFailed,
    SizeLimit,
    TargetTooLarge,
    UnknownVertex,
    VertexClash,
    VoidComplex,
)
from latshell.poset import Chain, Poset, bits, interval, order_complex

from lattice_oracles import reference_delete_element


def reference_verify_shelling(cx: SimplicialComplex, order) -> bool:
    """Pairwise characterization: earlier facets meet each new facet inside
    a codimension-one face of it that is covered by a single earlier facet."""
    order = [frozenset(s) for s in order]
    if sorted(order, key=sorted) != sorted(cx.facet_name_sets(), key=sorted) \
            or len(order) != len(cx.facets):
        raise NotFacetPermutation("order must list each facet exactly once")
    for k in range(1, len(order)):
        sk = order[k]
        for i in range(k):
            inter = order[i] & sk
            if not any(inter <= (order[j] & sk)
                       and len(order[j] & sk) == len(sk) - 1
                       for j in range(k)):
                return False
    return True


def reference_validate_vd_certificate(cert, cx: SimplicialComplex) -> bool:
    for node, sub, _ in _reference_vd_walk(cert, cx):
        if isinstance(node, VDNode):
            witness = shedding_failure_witness(sub, node.vertex)
            if witness is not None:
                raise InvalidCertificate(f"{node.vertex!r} is not a shedding "
                                         f"vertex (face {set(witness)!r})")
    return True


def reference_shelling_from_vd(cert, cx: SimplicialComplex) -> list:
    return [sub.names_of(f) | cone for node, sub, cone in _reference_vd_walk(cert, cx)
            if isinstance(node, VDLeaf) for f in sub.facets]


def _reference_vd_walk(cert, cx: SimplicialComplex):
    """Each node with its compacted complex and the vertex names coned over
    it, deletions before links, the links taken when the walk reaches
    them."""
    stack = [(cert, cx, None, frozenset())]
    while stack:
        node, sub, shed, cone = stack.pop()
        if shed is not None:
            sub = sub.link_of((shed,))
        if isinstance(node, VDLeaf):
            if len(sub.facets) > 1:
                raise InvalidCertificate(f"leaf complex is not a simplex: {sub!r}")
        elif not isinstance(node, VDNode):
            raise InvalidCertificate(f"unexpected node {node!r}")
        elif node.vertex not in sub.vindex:
            raise InvalidCertificate(f"vertex {node.vertex!r} not in complex")
        yield node, sub, cone
        if isinstance(node, VDNode):
            v = node.vertex
            stack.append((node.link, sub, v, cone | {v}))
            stack.append((node.deletion, sub.delete_vertex(v), None, cone))


def reference_betti_numbers(cx: SimplicialComplex, limit: int = 200000,
                            mod2: bool = False) -> dict:
    """Reduced Betti numbers over the rationals with ``Fraction`` ranks, or
    over GF(2) with ``mod2``."""
    if cx.is_void:
        return {}
    fbd = cx.faces_by_dim(limit=limit)
    dim = cx.dim
    counts = {k: len(fbd.get(k, [])) for k in range(-1, dim + 1)}
    ranks = {}
    for k in range(0, dim + 1):
        ranks[k] = reference_boundary_rank(cx, fbd, k, mod2)
    ranks[dim + 1] = 0
    out = {}
    for k in range(-1, dim + 1):
        out[k] = counts[k] - ranks.get(k, 0) - ranks[k + 1]
    return out


def reference_boundary_rank(cx, fbd, k: int, mod2: bool = False) -> int:
    """Rank of the boundary map from k-faces over the rationals, or over
    GF(2) with ``mod2``, where every sign is 1 and 1 + 1 = 0."""
    faces_k = fbd.get(k, [])
    if not faces_k:
        return 0
    if k == 0:
        return 1  # augmentation onto the empty face
    if k == 1:
        # vertices less connected components, found by a breadth-first
        # walk over the edges
        nbrs = {v: [] for v in fbd.get(0, [])}
        for e in faces_k:
            u = e & -e
            nbrs[u].append(e ^ u)
            nbrs[e ^ u].append(u)
        seen = set()
        components = 0
        for v in nbrs:
            if v not in seen:
                components += 1
                seen.add(v)
                walk = [v]
                for a in walk:
                    for b in nbrs[a]:
                        if b not in seen:
                            seen.add(b)
                            walk.append(b)
        return len(nbrs) - components
    rows = {m: i for i, m in enumerate(fbd[k - 1])}
    pivots = {}
    rank = 0
    for m in faces_k:
        col = {}
        vs = list(bits(m))
        for j, v in enumerate(vs):
            sub = m & ~(1 << v)
            col[rows[sub]] = Fraction(1 if mod2 else (-1) ** j)
        while col:
            r = min(col)
            if r in pivots:
                coef = col[r]
                for rr, val in pivots[r].items():
                    col[rr] = col.get(rr, Fraction(0)) - coef * val
                    if mod2:
                        col[rr] %= 2
                    if not col[rr]:
                        del col[rr]
            else:
                lead = col[r]
                pivots[r] = {rr: val / lead for rr, val in col.items()}
                rank += 1
                break
    return rank


def reference_shedding_failure_witness(cx: SimplicialComplex, v):
    """A face containing v with no exchange vertex, or None if v sheds."""
    if v not in cx.vindex:
        raise UnknownVertex(repr(v))
    bit = 1 << cx.vindex[v]
    all_verts = (1 << cx.n_vertices) - 1
    seen = set()
    for f in cx.facets:
        if not f & bit:
            continue
        others = list(bits(f & ~bit))
        for k in range(len(others) + 1):
            for combo in itertools.combinations(others, k):
                sigma = bit
                for i in combo:
                    sigma |= 1 << i
                if sigma in seen:
                    continue
                seen.add(sigma)
                base = sigma & ~bit
                if not any(cx.has_face(base | (1 << w))
                           for w in bits(all_verts & ~sigma)):
                    return cx.names_of(sigma)
    return None


def reference_is_cohen_macaulay(cx: SimplicialComplex, limit: int = 200000) -> bool:
    """Reduced homology of every link vanishes below the link's dimension."""
    if cx.is_void:
        return True
    if cx.dim <= 0:
        return True
    if cx.dim == 1:
        # links of vertices and edges impose nothing below dimension zero,
        # so only connectivity of the whole complex is at stake
        return reference_betti_numbers(cx, limit=limit)[0] == 0
    for m in sorted(cx.faces()):
        lk = cx.link_of(cx.names_of(m))
        d = lk.dim
        if d == -1:
            continue
        b = reference_betti_numbers(lk, limit=limit)
        if any(b[i] != 0 for i in range(-1, d)):
            return False
    return True


def reference_depth(cx: SimplicialComplex, limit: int = 200000) -> int:
    """Largest r with a Cohen-Macaulay r-skeleton; bounded by the minimum
    facet dimension.

    For m >= 1, an m-skeleton whose largest facet alone has more than
    ``limit`` faces of dimension at most m is refused before it is built,
    with the message ``depth`` gives; the count is taken here by binomial
    sums.
    """
    if cx.is_void:
        raise VoidComplex("depth of the void complex is undefined")
    m = min(f.bit_count() for f in cx.facets) - 1
    k = max(f.bit_count() for f in cx.facets)
    if m >= 1 and sum(math.comb(k, i) for i in range(min(k, m + 1) + 1)) > limit:
        dims = "" if m + 1 >= k else f" of dimension at most {m}"
        raise SizeLimit(f"complex has a facet of {k} vertices, with more faces"
                        f"{dims} than the face limit {limit}; raise it with "
                        f"--limit-faces")
    for r in range(m, -2, -1):
        if reference_is_cohen_macaulay(cx.skeleton(r), limit=limit):
            return r
    raise SelfCheckFailed("depth", "the (-1)-skeleton is Cohen-Macaulay, "
                          "yet no skeleton down to it was")


def reference_delete_vertex(cx: SimplicialComplex, v) -> SimplicialComplex:
    if v not in cx.vindex:
        raise UnknownVertex(repr(v))
    bit = 1 << cx.vindex[v]
    facets = _maximalize({f & ~bit for f in cx.facets})
    return SimplicialComplex(cx.vertices, facets).compact()


def reference_descent_pick(P: Poset, lab) -> DescentPick:
    chains = P.chains()
    stats = {c: lab.stats(c) for c in chains}
    if all(stats[c].weakly_ascending for c in chains):
        raise AllChainsAscending("every maximal chain is weakly ascending")
    single = [c for c in chains if len(stats[c].descents) == 1]
    if not single:
        raise InvalidCertificate("descents exist but no single-descent chain; "
                                 "labeling is not quasi-EL")
    best = max(single, key=lambda c: (stats[c].labels,
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
            labels = stats[c].labels
            if 0 < k < len(c) - 1 and labels[k - 1] < labels[k]:
                raise InvalidCertificate(f"a chain strictly ascends through {x!r}")

    for w in bits(P.cover_down[xi]):
        for z in bits(P.cover_up[xi]):
            between = P.up[w] & P.down[z] & ~(1 << w) & ~(1 << z) & ~(1 << xi)
            if not between:
                raise InvalidCertificate(
                    f"cover pair through {x!r} has no bypass")
    return DescentPick(Chain(best, maximal=True), x)


def reference_constructive_vd_skeleton(P: Poset, lab, target_r: int):
    if target_r < 1:
        raise TargetTooLarge("target must be at least 1")
    bound, _ = lb.min_chain_complexity(P, lab)
    if target_r > bound:
        raise TargetTooLarge(f"target {target_r} exceeds the bound {bound}")
    return reference_vd_rec(P, order_complex(P), lab, target_r - 2)


def reference_constructive_vd_full(P: Poset, lab):
    for names in P.chains():
        seq = lab.sequence(names)
        for k in range(len(seq) - 2):
            if seq[k] == seq[k + 1] == seq[k + 2]:
                raise RepeatRunTooLong(names, seq[k])
    cx = order_complex(P)
    return cx, reference_vd_rec(P, cx, lab, cx.dim)[1]


def reference_vd_rec(P: Poset, full: SimplicialComplex, lab, t: int):
    t = min(t, full.dim)
    cx = full.skeleton(t)
    if len(cx.facets) <= 1:
        return cx, VDLeaf()
    try:
        x = reference_descent_pick(P, lab).element
    except AllChainsAscending:
        factors = reference_base_case_factors(P, lab, t)
        cert = reference_join_skeleton_certificate(factors, t)
        reference_check_join(factors, t, cx,
                             "base case join does not match the skeleton")
        return cx, cert

    rest = reference_delete_element(P, x)
    if P.n <= RECHECK_LIMIT and not lb.verify_quasi_el(rest, lab).ok:
        raise InvalidCertificate(
            f"restriction away from {x!r} lost the labeling axioms")
    _, deletion = reference_vd_rec(rest, order_complex(rest), lab, t)
    link_factors = reference_split_factors(P, lab, x, t)
    reference_check_join(link_factors, t - 1, cx.link_of((x,)),
                         "link join does not match the complex link")
    return cx, VDNode(x, deletion,
                      reference_join_skeleton_certificate(link_factors, t - 1))


def reference_base_case_factors(P: Poset, lab, t: int):
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


def reference_split_factors(P: Poset, lab, x: str, t: int):
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
                                      reference_vd_rec(sub, cxf, lab, level)[1]))
        else:
            factors.append(JoinFactor(cxf, -1, VDLeaf()))
    return factors


def reference_join_skeleton_certificate(factors, t: int):
    """Certificate for skel_t of the join of the ``JoinFactor`` factors, with
    the refusals of ``join_skeleton_certificate``, built on their complexes."""
    factors = list(factors)
    room = [_reference_factor_room(f) for f in factors]
    levels = []  # (shed vertex, link factors, t) per deletion
    while True:
        top = sum(d for d, _ in room) - 1
        t = min(t, top)
        if t + 1 > sum(r for _, r in room):
            raise InvalidCertificate(f"target {t} exceeds available levels")
        if not levels:
            seen = set()
            for f in factors:
                overlap = seen.intersection(f.complex.vertices)
                if overlap:
                    raise VertexClash(f"shared vertices {sorted(overlap)!r}")
                seen.update(f.complex.vertices)

        if t < 0 or (t == top and all(len(f.complex.facets) == 1 for f in factors)):
            cert = VDLeaf()
            break

        # shed a factor certificate's vertex, else a level -1 factor's last vertex
        sheds = [(j, f.cert.vertex, f.level - 1, f.cert.deletion, f.cert.link)
                 for j, f in enumerate(factors) if isinstance(f.cert, VDNode)]
        sheds += [(j, f.complex.vertices[-1], -1, VDLeaf(), VDLeaf())
                  for j, f in enumerate(factors)
                  if f.level == -1 and f.complex.n_vertices]
        if not sheds:
            union = []
            for f in factors:
                if len(f.complex.facets) > 1:
                    raise InvalidCertificate("leaf certificate on a non-simplex factor")
                union.extend(f.complex.vertices)
            cert = cert_simplex_skeleton(tuple(union), t)
            break
        j, v, link_level, deletion, link = sheds[0]
        f = factors[j]
        link_factors = list(factors)
        link_factors[j] = JoinFactor(f.complex.link_of((v,)), link_level, link)
        levels.append((v, link_factors, t))
        factors[j] = JoinFactor(f.complex.delete_vertex(v), f.level, deletion)
        room[j] = _reference_factor_room(factors[j])
    for v, link_factors, t in reversed(levels):
        cert = VDNode(v, cert, reference_join_skeleton_certificate(link_factors, t - 1))
    return cert


def _reference_factor_room(f: JoinFactor) -> tuple:
    """(dim + 1, level + 1) of a join factor, its level read as at most its
    dimension, once its checks pass."""
    if f.complex.is_void:
        raise InvalidCertificate("void factor in a join")
    d = f.complex.dim
    if f.level < -1:
        raise InvalidCertificate(f"level {f.level} out of range for dim {d}")
    level = min(f.level, d)
    if 0 <= level < d:
        if min(x.bit_count() for x in f.complex.facets) < level + 1:
            raise InvalidCertificate("factor skeleton is not pure")
    return d + 1, level + 1


def reference_check_join(factors, t: int, expected: SimplicialComplex, message: str):
    """Self-check: skel_t of the join of the factors' complexes is
    ``expected``, else ``InvalidCertificate(message)``."""
    joined = factors[0].complex
    for f in factors[1:]:
        joined = joined.join(f.complex)
    if joined.skeleton(t) != expected:
        raise InvalidCertificate(message)
