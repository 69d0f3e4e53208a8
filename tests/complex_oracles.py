"""Slow reference implementations of the topology kernels in
``latshell.complexes``, kept as oracles for the tests.

``reference_verify_shelling`` is the pairwise shelling test (O(F^3) set
operations), ``reference_boundary_rank`` the sparse elimination over
``Fraction``, and ``reference_bruteforce_shellable`` the shelling search
with the pairwise test inline.  They are kept as they were before the
kernels moved to the restriction-set predicate and integer pivots, so they
share no arithmetic with the routines they check.

``reference_shedding_failure_witness`` tries every face through the vertex
and scans all facets for an exchange vertex; ``reference_is_cohen_macaulay``
computes full homology of the link of every face, and ``reference_depth``
reruns it on each skeleton from the minimum facet dimension down.  They are
the kernels from before the facet-only shedding test and the one-sweep
depth, with homology taken by the ``Fraction`` oracle above.
"""

import itertools
from fractions import Fraction

from latshell.complexes import SimplicialComplex, _component_count
from latshell.errors import (
    NotFacetPermutation,
    SelfCheckFailed,
    UnknownVertex,
    VoidComplex,
)
from latshell.poset import bits


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


def reference_betti_numbers(cx: SimplicialComplex, limit: int = 200000) -> dict:
    """Reduced Betti numbers over the rationals with ``Fraction`` ranks."""
    if cx.is_void:
        return {}
    fbd = cx.faces_by_dim(limit=limit)
    dim = cx.dim
    counts = {k: len(fbd.get(k, [])) for k in range(-1, dim + 1)}
    ranks = {}
    for k in range(0, dim + 1):
        ranks[k] = reference_boundary_rank(cx, fbd, k)
    ranks[dim + 1] = 0
    out = {}
    for k in range(-1, dim + 1):
        out[k] = counts[k] - ranks.get(k, 0) - ranks[k + 1]
    return out


def reference_boundary_rank(cx, fbd, k: int) -> int:
    faces_k = fbd.get(k, [])
    if not faces_k:
        return 0
    if k == 0:
        return 1  # augmentation onto the empty face
    if k == 1:
        return len(fbd.get(0, [])) - _component_count(cx, fbd)
    rows = {m: i for i, m in enumerate(fbd[k - 1])}
    pivots = {}
    rank = 0
    for m in faces_k:
        col = {}
        vs = list(bits(m))
        for j, v in enumerate(vs):
            sub = m & ~(1 << v)
            col[rows[sub]] = Fraction((-1) ** j)
        while col:
            r = min(col)
            if r in pivots:
                coef = col[r]
                for rr, val in pivots[r].items():
                    col[rr] = col.get(rr, Fraction(0)) - coef * val
                    if not col[rr]:
                        del col[rr]
            else:
                lead = col[r]
                pivots[r] = {rr: val / lead for rr, val in col.items()}
                rank += 1
                break
    return rank


def reference_bruteforce_shellable(cx) -> bool:
    facets = sorted(cx.facet_name_sets(), key=sorted)

    def extend(order, remaining):
        if not remaining:
            return True
        for f in list(remaining):
            trial = order + [f]
            ok = all(
                any(trial[i2] & f <= trial[j] & f and len(trial[j] & f) == len(f) - 1
                    for j in range(len(order)))
                for i2 in range(len(order)))
            if ok and extend(trial, remaining - {f}):
                return True
        return False

    return extend([], set(facets))


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
    facet dimension."""
    if cx.is_void:
        raise VoidComplex("depth of the void complex is undefined")
    m = min(f.bit_count() for f in cx.facets) - 1
    for r in range(m, -2, -1):
        if reference_is_cohen_macaulay(cx.skeleton(r), limit=limit):
            return r
    raise SelfCheckFailed("depth", "the (-1)-skeleton is Cohen-Macaulay, "
                          "yet no skeleton down to it was")
