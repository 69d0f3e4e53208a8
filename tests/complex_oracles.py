"""Slow reference implementations of the topology kernels in
``latshell.complexes``, kept as oracles for the tests.

``reference_verify_shelling`` is the pairwise shelling test (O(F^3) set
operations), ``reference_boundary_rank`` the sparse elimination over
``Fraction``, and ``reference_bruteforce_shellable`` the shelling search
with the pairwise test inline.  They are kept as they were before the
kernels moved to the restriction-set predicate and integer pivots, so they
share no arithmetic with the routines they check.
"""

from fractions import Fraction

from latshell.complexes import SimplicialComplex, _component_count
from latshell.errors import NotFacetPermutation
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
