"""The constructive VD recursion with its per-call cache against the
uncached recursion in ``complex_oracles``, the chain lists it derives from
parent sub-posets against fresh walks, and ``delete_vertex`` against the
maximalizing oracle."""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from latshell import complexes as cxm
from latshell import labeling as lb
from latshell import lattice_check, verify_chain_modularity
from latshell.errors import LatshellError
from latshell.poset import bits

import complex_oracles
import vd_counts
from complex_oracles import (
    reference_constructive_vd_full,
    reference_constructive_vd_skeleton,
    reference_delete_vertex,
)
from conftest import divisor_poset
from test_complexes import random_link_case
from test_labeling_oracles import random_labeling
from test_lattice_oracles import random_poset


def _vd_outcome(fn, *args):
    """The certificate's digest and the complex it certifies, or the
    error's type and message."""
    try:
        cx, cert = fn(*args)
    except LatshellError as exc:
        return type(exc).__name__, str(exc)
    return hashlib.sha256(repr(cert).encode()).hexdigest(), cx.facet_name_sets()


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_cached_recursion_matches_the_uncached_oracle(rng):
    P = random_poset(rng)
    lab = random_labeling(rng, P)
    bound, _ = lb.min_chain_complexity(P, lab)
    for t in range(1, bound + 2):
        assert (_vd_outcome(cxm.constructive_vd_skeleton, P, lab, t)
                == _vd_outcome(reference_constructive_vd_skeleton, P, lab, t)), t
    assert (_vd_outcome(cxm.constructive_vd_full, P, lab)
            == _vd_outcome(reference_constructive_vd_full, P, lab))


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_cached_recheck_matches_verify_quasi_el(rng):
    """The recheck of P less x reads the spines that P's intervals left in
    the cache, and gives ``verify_quasi_el``'s whole result."""
    P = random_poset(rng)
    lab = random_labeling(rng, P)
    cache = cxm._VDCache(P, lab)
    full = (1 << P.n) - 1
    lb._spine_verdict(P, full, lambda lo, hi: cache.spine(cache.interval(lo, hi, full)))
    for xi, x in enumerate(P.elements):
        if xi in (P.bottom, P.top) or _makes_new_cover(P, full, xi):
            continue
        rest = full & ~(1 << xi)
        got = lb._spine_verdict(
            P, rest, lambda lo, hi: cache.spine(cache.interval(lo, hi, rest)))
        want = lb.verify_quasi_el(P.restrict(rest), lab)
        assert (got.ok, list(got.spines.items()), got.violations) == (
            want.ok, list(want.spines.items()), want.violations), x


def _makes_new_cover(P, mask, xi) -> bool:
    """Whether the sub-poset on ``mask`` less ``xi`` has a cover that is
    not one of P: a pair a < xi < b of covers with nothing else of the
    mask between a and b.  The shedding loop never deletes such an
    element, and the mask form needs P's covers."""
    rest = mask & ~(1 << xi)
    return any(not P.up[a] & P.down[b] & rest & ~(1 << a | 1 << b)
               for a in bits(P.cover_down[xi] & mask)
               for b in bits(P.cover_up[xi] & mask))


def test_each_level_runs_once(monkeypatch):
    """On D(180) the uncached recursion meets some (elements, t) in more
    than one branch; the cached one runs each once."""
    P, chain = divisor_poset(180)
    row = vd_counts.counts(P, chain)
    assert row["levels"] == row["distinct"] == 59
    assert row["posets"] == 0
    calls = []
    uncached = complex_oracles.reference_vd_rec

    def counted(P, full, lab, t):
        calls.append((P.elements, min(t, full.dim)))
        return uncached(P, full, lab, t)

    monkeypatch.setattr(complex_oracles, "reference_vd_rec", counted)
    L = lattice_check(P)
    lab = lb.left_modular_labeling(L, verify_chain_modularity(L, chain))
    reference_constructive_vd_skeleton(P, lab, lb.min_chain_complexity(P, lab)[0])
    assert len(calls) == 69 and len(set(calls)) == 59


def _caches_of(fn, *args) -> list:
    """The ``_VDCache`` objects that ``fn(*args)`` makes, whether or not
    the call raises ``LatshellError``."""
    caches = []

    class Kept(cxm._VDCache):
        __slots__ = ()

        def __init__(self, *a):
            super().__init__(*a)
            caches.append(self)

    made = cxm._VDCache
    cxm._VDCache = Kept
    try:
        fn(*args)
    except LatshellError:
        pass
    finally:
        cxm._VDCache = made
    return caches


def _assert_chain_lists_are_walks(caches):
    """Every chain list a cache holds, many of them filtered from a parent
    sub-poset's, is the walk ``Poset.maximal_chains_idx`` inside its mask,
    mapped to names."""
    for cache in caches:
        P = cache.P
        name = P.elements.__getitem__
        assert cache.chain_lists
        for mask, chains in cache.chain_lists.items():
            lo = next(i for i in bits(mask) if P.up[i] & mask == mask)
            hi = next(i for i in bits(mask) if P.down[i] & mask == mask)
            assert chains == [tuple(map(name, c))
                              for c in P.maximal_chains_idx(lo, hi, mask)]


def test_derived_chain_lists_are_walks_on_the_six_lattices():
    for _, P, chain in vd_counts.lattices():
        _assert_chain_lists_are_walks(_caches_of(vd_counts.counts, P, chain))


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_derived_chain_lists_are_walks(rng):
    P = random_poset(rng)
    lab = random_labeling(rng, P)
    bound, _ = lb.min_chain_complexity(P, lab)
    for t in range(1, bound + 2):
        _assert_chain_lists_are_walks(
            _caches_of(cxm.constructive_vd_skeleton, P, lab, t))
    _assert_chain_lists_are_walks(_caches_of(cxm.constructive_vd_full, P, lab))


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_delete_vertex_matches_the_maximalizing_oracle(rng):
    cx, _ = random_link_case(rng)
    for v in cx.vertices:
        got, want = cx.delete_vertex(v), reference_delete_vertex(cx, v)
        assert got.vertices == want.vertices
        assert got.facets == want.facets
