"""Slow reference implementations of the subgroup routines in
``latshell.groups``, kept as oracles for the tests.

``reference_table`` is the multiplication table by all |G|^2
permutation products, which the library built before it read the table off
the generators' rows.  ``reference_subgroups`` is the all-pairs join
fixpoint the library used before it enumerated subgroups by conjugacy
class, and ``reference_is_solvable`` is the derived series by |H|^2
commutator products.  ``reference_is_normal`` conjugates a subgroup by
every element of the group, where the library reads normality off the
size of the subgroup's class in its enumeration.  They are kept as they
were, on this module's own permutation products and table, so they share
no code with the routines they check.

``reference_extend`` is the Dimino closure that built each coset by a
list comprehension, where the library takes it with one ``itemgetter``
call.  ``reference_meet_join`` is the assembly ``subgroup_lattice`` had
before it read meets off intersections: a lattice check (here the
bound-scanning one of ``lattice_oracles``), then a check of every meet
against the intersection.
"""

import itertools

from latshell.errors import OrderLimit, SelfCheckFailed
from latshell.groups import PermGroup
from latshell.poset import bits, from_up

from lattice_oracles import reference_lattice_check


def _mul(p: tuple, q: tuple) -> tuple:
    return tuple(p[i] for i in q)


def _inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def reference_table(G: PermGroup) -> tuple[list, list]:
    """(multiplication table, inverse indices) on the indices of
    ``G.elements``, from every product of two elements."""
    els = G.elements
    idx = {p: i for i, p in enumerate(els)}
    table = [[idx[_mul(a, b)] for b in els] for a in els]
    return table, [idx[_inv(a)] for a in els]


def reference_subgroups(G: PermGroup, order_limit: int = 360) -> list[frozenset]:
    """All subgroups: cyclic ones, then pairwise joins to a fixpoint.

    Returned as frozensets of permutations, sorted by (order, elements).
    """
    if G.order > order_limit:
        raise OrderLimit(f"group order {G.order} exceeds limit {order_limit}")
    table, _ = reference_table(G)
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
    table, _ = reference_table(G)
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


def reference_is_normal(G: PermGroup, H: frozenset) -> bool:
    """g H g^-1 == H for every element g of G, in permutation space."""
    return all({_mul(_mul(g, h), _inv(g)) for h in H} == H
               for g in G.elements)


def reference_extend(table, members, elems: list, gens: list, new) -> tuple:
    """Dimino closure of a subgroup by the element indices in ``new``, as
    ``groups._extend``: (frozenset of indices, elements, generators)."""
    for g in new:
        if g in members:
            continue
        gens = gens + [g]
        block = elems
        elems = list(block)
        members = set(members)
        rows = [table[s] for s in gens]
        reps = [block[0]]
        for x in reps:
            for row in rows:
                y = row[x]
                if y not in members:
                    row_y = table[y]
                    coset = [row_y[h] for h in block]
                    members.update(coset)
                    elems += coset
                    reps.append(y)
    return frozenset(members), elems, gens


def reference_meet_join(masks, names):
    """The subgroups given by element masks, ordered by containment, as a
    lattice by the bound-scanning check, whose every meet must be the
    intersection: ``SelfCheckFailed("meet")`` names the first pair, in
    ``itertools.combinations`` order, where it is not."""
    up = [sum(1 << j for j, b in enumerate(masks) if a & b == a) for a in masks]
    L = reference_lattice_check(from_up(names, up))
    for i, j in itertools.combinations(range(len(masks)), 2):
        if masks[L._meet[i][j]] != masks[i] & masks[j]:
            raise SelfCheckFailed("meet", f"meet of {names[i]} and {names[j]} "
                                          "disagrees with intersection")
    return L
