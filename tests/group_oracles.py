"""Slow reference implementations of the subgroup routines in
``latshell.groups``, kept as oracles for the tests.

``reference_subgroups`` is the all-pairs join fixpoint the library used
before it enumerated subgroups by conjugacy class, and
``reference_is_solvable`` is the derived series by |H|^2 commutator
products.  Both are kept as they were, so they share no code with the
routines they check.
"""

from latshell.errors import OrderLimit
from latshell.groups import PermGroup, _inv, _mul
from latshell.poset import bits


def reference_subgroups(G: PermGroup, order_limit: int = 360) -> list[frozenset]:
    """All subgroups: cyclic ones, then pairwise joins to a fixpoint.

    Returned as frozensets of permutations, sorted by (order, elements).
    """
    if G.order > order_limit:
        raise OrderLimit(f"group order {G.order} exceeds limit {order_limit}")
    table = G.table()
    n = G.order
    e = G.index(G.identity)

    def close(gen_idx: tuple) -> int:
        mask = 1 << e
        frontier = [e]
        for g in gen_idx:
            if not (mask >> g) & 1:
                mask |= 1 << g
                frontier.append(g)
        while frontier:
            new = []
            for a in frontier:
                row = table[a]
                for g in gen_idx:
                    b = row[g]
                    if not (mask >> b) & 1:
                        mask |= 1 << b
                        new.append(b)
            frontier = new
        return mask

    def prune(gens: tuple, target: int) -> tuple:
        kept = []
        mask = 1 << e
        for g in gens:
            if not (mask >> g) & 1:
                kept.append(g)
                mask = close(tuple(kept))
                if mask == target:
                    break
        return tuple(kept)

    known: dict[int, tuple] = {}
    for i in range(n):
        mask = close((i,))
        if mask not in known:
            known[mask] = (i,) if i != e else ()
    worklist = sorted(known)
    k = 0
    while k < len(worklist):
        a = worklist[k]
        for b in worklist[:k + 1]:
            if a | b == a or a | b == b:
                continue
            gens = known[a] + known[b]
            j = close(gens)
            if j not in known:
                known[j] = prune(gens, j)
                worklist.append(j)
        k += 1

    subs = []
    for mask in known:
        subs.append(frozenset(G.elements[i] for i in bits(mask)))
    subs.sort(key=lambda h: (len(h), sorted(h)))
    return subs


def reference_generated_subgroup(G: PermGroup, seed) -> frozenset:
    table = G.table()
    gen_idx = sorted({G.index(p) for p in seed} | {G.index(G.identity)})
    mask = 0
    frontier = []
    for i in gen_idx:
        mask |= 1 << i
        frontier.append(i)
    while frontier:
        new = []
        for a in frontier:
            row = table[a]
            for g in gen_idx:
                b = row[g]
                if not (mask >> b) & 1:
                    mask |= 1 << b
                    new.append(b)
        frontier = new
    return frozenset(G.elements[i] for i in bits(mask))


def reference_commutator_subgroup(G: PermGroup, H: frozenset) -> frozenset:
    """Subgroup generated by all commutators of elements of H."""
    comms = set()
    hs = sorted(H)
    for a in hs:
        ai = _inv(a)
        for b in hs:
            comms.add(_mul(_mul(a, b), _mul(ai, _inv(b))))
    return reference_generated_subgroup(G, comms)


def reference_is_solvable(G: PermGroup) -> bool:
    """Derived series reaches the trivial subgroup."""
    current = frozenset(G.elements)
    while True:
        nxt = reference_commutator_subgroup(G, current)
        if nxt == current:
            return len(current) == 1
        current = nxt
