"""Skipped-interval analysis of the lexicographic order on maximal chains,
descending-chain census, and homological consistency checks.

Chains are ordered by their tie-broken label sequences; the tie-break is
the element input order, making the order total.  Whether a segment of a
chain is skipped depends on one interval only: it is, unless the chain
runs through the lexicographically first maximal chain of the interval
from the element below the segment to the element above it, and that
first chain is found greedily.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import NotMaximal, SizeLimit
from .lattice import Lattice, ModularChain, complement_refinements
from .labeling import ChainStats, EdgeLabeling, lamplus_sequence
from .poset import Chain, Poset, bits, order_complex


@dataclass(frozen=True)
class SkippedInterval:
    chain: tuple[str, ...]
    i: int
    j: int
    degenerate: bool = False

    @property
    def length(self) -> int:
        return self.j - self.i

    @property
    def elements(self) -> tuple[str, ...]:
        return self.chain[self.i:self.j + 1]


@dataclass(frozen=True)
class DescendingChainData:
    chain: tuple[str, ...]
    labels: tuple
    ell0: int
    ell1: int
    dimension_bound: int  # ell0 + ell1 - 2
    msi_length0: int
    components_after_deletion: int


@dataclass(frozen=True)
class SkippedRuleViolation:
    chain: tuple[str, ...]
    rule: str  # "descent-skipped" | "ascent-clear"
    position: int
    detail: str


@dataclass(frozen=True)
class MorseReport:
    descending: tuple[DescendingChainData, ...]
    connectivity_bound: int | None  # None: no descending chain at all
    betti: dict | None
    census: dict
    consistent: bool
    note: str = ("connectivity statements are verified through their "
                 "homological proxy: vanishing reduced rational homology")


def _ordered_chains(P: Poset, lab: EdgeLabeling, limit: int = 20000):
    count = P.maximal_chain_count()
    if count > limit:
        raise SizeLimit(f"poset has {count} maximal chains, more than "
                        f"the chain limit {limit}; raise it with --limit-chains")
    chains = P.chains()
    chains.sort(key=lambda c: lamplus_sequence(P, lab, c))
    return chains


def _first_step(P: Poset, lab: EdgeLabeling):
    """``step(a, hi)``: the least (label, index) cover z of a with z <= hi,
    the first step of the lexicographically first maximal chain of
    [a, hi].  Every such z extends to hi, so that chain is greedy.
    Memoised per (a, hi)."""
    names = P.elements

    @functools.cache
    def step(a, hi):
        return min(bits(P.cover_up[a] & P.down[hi]),
                   key=lambda z: (lab.label(names[a], names[z]), z))

    return step


def minimal_skipped_intervals(P: Poset, lab: EdgeLabeling, chain):
    """Inclusion-minimal skipped intervals of one maximal chain.

    A pair (i, j) is skipped when the chain minus its segment [c_i, c_j]
    sits inside a lexicographically earlier maximal chain; the first chain
    degenerately skips its whole span.
    """
    return _minimal_skipped(P, chain, _first_step(P, lab))


def _minimal_skipped(P: Poset, chain, step):
    """``minimal_skipped_intervals`` with the greedy steps of
    ``_first_step``.

    The test is local to one interval.  Let lo = max(i - 1, 0) and
    hi = min(j + 1, l).  An earlier chain c' that contains c less
    c_i ... c_j contains c_0 ... c_lo and c_hi ... c_l, both saturated, so
    c' shares c's prefix up to c_lo and its suffix from c_hi, and c' is
    earlier iff its segment is.  Hence (i, j) is skipped iff c_lo ... c_hi
    is not the first maximal chain of [c_lo, c_hi], and c is the first
    chain of P iff it is the first of [c_0, c_l].  Skipping is monotone
    (a larger segment leaves a smaller rest), so (i, j) is minimal iff
    neither (i + 1, j) nor (i, j - 1) is skipped.
    """
    elems = tuple(chain.elements if isinstance(chain, Chain) else chain)
    P.require_bounded()
    c = [P.index.get(e) for e in elems]
    if (not c or None in c or c[0] != P.bottom or c[-1] != P.top
            or any(not P.cover_up[a] >> b & 1 for a, b in zip(c, c[1:]))):
        raise NotMaximal(f"{elems!r} is not a maximal chain")
    ell = len(c) - 1
    # first[hi]: the least lo whose segment c_lo ... c_hi is the first
    # maximal chain of [c_lo, c_hi]; every larger lo gives a first one too
    first = []
    for hi in range(ell + 1):
        lo = hi
        while lo and step(c[lo - 1], c[hi]) == c[lo]:
            lo -= 1
        first.append(lo)
    if first[ell] == 0:
        return [SkippedInterval(elems, 0, ell, degenerate=True)]

    def skipped(i, j):
        return max(i - 1, 0) < first[min(j + 1, ell)]

    return [SkippedInterval(elems, i, j)
            for i in range(ell + 1) for j in range(i, ell + 1)
            if skipped(i, j) and (i == j or not (skipped(i + 1, j)
                                                 or skipped(i, j - 1)))]


def _chain_morse_data(P, st: ChainStats, step) -> DescendingChainData:
    elems = st.chain
    msis = _minimal_skipped(P, elems, step)
    len0 = [s for s in msis if s.length == 0 and not s.degenerate]
    deleted = {s.i for s in len0}
    components = 0
    inside = False
    for k in range(1, len(elems) - 1):  # proper part positions
        if k in deleted:
            inside = False
        else:
            if not inside:
                components += 1
            inside = True
    return DescendingChainData(
        chain=elems,
        labels=st.labels,
        ell0=st.ell0,
        ell1=st.ell1,
        dimension_bound=st.ell0 + st.ell1 - 2,
        msi_length0=len(len0),
        components_after_deletion=components,
    )


def weakly_descending_chains(P: Poset, lab: EdgeLabeling, limit: int = 20000):
    """All maximal chains without a strict ascent, annotated with their
    critical-cell dimension lower bound."""
    step = _first_step(P, lab)
    out = []
    for elems in _ordered_chains(P, lab, limit):
        st = lab.stats(elems)
        if st.weakly_descending:
            out.append(_chain_morse_data(P, st, step))
    return out


def verify_skipped_interval_rules(P: Poset, lab: EdgeLabeling, limit: int = 20000):
    """Strict descents are length-0 skipped intervals; strict ascents avoid
    all of them away from the first chain.  Returns violations."""
    step = _first_step(P, lab)
    violations = []
    for elems in _ordered_chains(P, lab, limit):
        st = lab.stats(elems)
        msis = _minimal_skipped(P, elems, step)
        degenerate = any(s.degenerate for s in msis)
        pairs = {(s.i, s.j) for s in msis if not s.degenerate}
        for name in st.descents:
            k = elems.index(name)
            if (k, k) not in pairs:
                violations.append(SkippedRuleViolation(
                    elems, "descent-skipped", k,
                    f"strict descent at {name!r} is not a length-0 "
                    f"minimal skipped interval"))
        if not degenerate:
            for name in st.ascents:
                k = elems.index(name)
                if any(i <= k <= j for (i, j) in pairs):
                    violations.append(SkippedRuleViolation(
                        elems, "ascent-clear", k,
                        f"strict ascent at {name!r} lies in a minimal "
                        f"skipped interval"))
    return violations


def connectivity_lower_bound(P: Poset, lab: EdgeLabeling, limit: int = 20000):
    """min over weakly descending chains of ell0 + ell1 - 3, or None when no
    chain is weakly descending (contractible candidate)."""
    data = weakly_descending_chains(P, lab, limit)
    if not data:
        return None
    return min(d.ell0 + d.ell1 - 3 for d in data)


@dataclass(frozen=True)
class ComplementComparison:
    ok: bool
    descending: tuple
    complement_refinements: tuple
    only_descending: tuple
    only_complements: tuple


def descending_equals_complements(L: Lattice, m: ModularChain,
                                  lab: EdgeLabeling,
                                  limit: int = 20000) -> ComplementComparison:
    """For the left-modular labeling, weakly descending maximal chains are
    exactly the maximal refinements of chains of complements to the chain."""
    descending = {d.chain for d in weakly_descending_chains(L.poset, lab, limit)}
    refinements = complement_refinements(L, m)
    return ComplementComparison(
        ok=descending == refinements,
        descending=tuple(sorted(descending)),
        complement_refinements=tuple(sorted(refinements)),
        only_descending=tuple(sorted(descending - refinements)),
        only_complements=tuple(sorted(refinements - descending)),
    )


def homology_consistency(P: Poset, lab: EdgeLabeling,
                         limit: int = 20000) -> MorseReport:
    """Reduced homology must vanish up to the connectivity bound, and the
    total Betti rank is at most the number of weakly descending chains."""
    from .complexes import betti_numbers

    data = weakly_descending_chains(P, lab, limit)
    bound = min((d.ell0 + d.ell1 - 3 for d in data), default=None)
    cx = order_complex(P)
    betti = betti_numbers(cx)
    census = {}
    for d in data:
        census[d.dimension_bound] = census.get(d.dimension_bound, 0) + 1
    if bound is None:
        ok = all(v == 0 for v in betti.values())
    else:
        ok = all(betti.get(i, 0) == 0 for i in range(-1, bound + 1))
    total_rank = sum(v for v in betti.values() if v > 0)
    ok = ok and total_rank <= len(data)
    return MorseReport(
        descending=tuple(data),
        connectivity_bound=bound,
        betti=betti,
        census=census,
        consistent=ok,
    )
