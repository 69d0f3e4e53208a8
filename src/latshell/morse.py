"""Skipped-interval analysis of the lexicographic order on maximal chains,
descending-chain census, and homological consistency checks.

Chains are ordered by their tie-broken label sequences; the tie-break is
the element input order, making the order total.  Skipped intervals are
computed by brute force against all lexicographically earlier chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotMaximal, SizeLimit
from .lattice import Lattice, ModularChain, complement_refinements
from .labeling import ChainStats, EdgeLabeling, lamplus_sequence
from .poset import Chain, Poset, order_complex


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
    chains = P.chains()
    if len(chains) > limit:
        raise SizeLimit(f"poset has {len(chains)} maximal chains, more than "
                        f"the chain limit {limit}; raise it with --limit-chains")
    chains.sort(key=lambda c: lamplus_sequence(P, lab, c))
    return chains


def minimal_skipped_intervals(P: Poset, lab: EdgeLabeling, chain,
                              ordered=None, limit: int = 20000):
    """Inclusion-minimal skipped intervals of one maximal chain.

    A pair (i, j) is skipped when the chain minus its segment [c_i, c_j]
    sits inside a lexicographically earlier maximal chain; the first chain
    degenerately skips its whole span.
    """
    elems = tuple(chain.elements if isinstance(chain, Chain) else chain)
    if ordered is None:
        ordered = _ordered_chains(P, lab, limit)
    try:
        pos = ordered.index(elems)
    except ValueError:
        raise NotMaximal(f"{elems!r} is not a maximal chain") from None
    ell = len(elems) - 1
    if pos == 0:
        return [SkippedInterval(elems, 0, ell, degenerate=True)]
    earlier = [frozenset(c) for c in ordered[:pos]]
    full = frozenset(elems)
    skipped = []
    for i in range(ell + 1):
        for j in range(i, ell + 1):
            rest = full - frozenset(elems[i:j + 1])
            if any(rest <= e for e in earlier):
                skipped.append((i, j))
    minimal = [SkippedInterval(elems, i, j) for (i, j) in skipped
               if not any((i2, j2) != (i, j) and i <= i2 and j2 <= j
                          for (i2, j2) in skipped)]
    minimal.sort(key=lambda s: (s.i, s.j))
    return minimal


def _chain_morse_data(P, lab, st: ChainStats, ordered,
                      limit) -> DescendingChainData:
    elems = st.chain
    msis = minimal_skipped_intervals(P, lab, elems, ordered, limit)
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
    ordered = _ordered_chains(P, lab, limit)
    out = []
    for elems in ordered:
        st = lab.stats(elems)
        if st.weakly_descending:
            out.append(_chain_morse_data(P, lab, st, ordered, limit))
    return out


def verify_skipped_interval_rules(P: Poset, lab: EdgeLabeling, limit: int = 20000):
    """Strict descents are length-0 skipped intervals; strict ascents avoid
    all of them away from the first chain.  Returns violations."""
    ordered = _ordered_chains(P, lab, limit)
    violations = []
    for elems in ordered:
        st = lab.stats(elems)
        msis = minimal_skipped_intervals(P, lab, elems, ordered, limit)
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
    ok = True
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
