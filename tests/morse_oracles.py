"""The brute-force skipped-interval search, kept as the oracle.

This is ``minimal_skipped_intervals`` as it stood when every segment of a
chain was tested against every lexicographically earlier maximal chain.
The library now reads skipped intervals off the first chains of intervals;
``test_morse.py`` checks that it gives the same results.
"""

from __future__ import annotations

from latshell.errors import NotMaximal, SizeLimit
from latshell.labeling import EdgeLabeling, lamplus_sequence
from latshell.morse import SkippedInterval
from latshell.poset import Chain, Poset


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
