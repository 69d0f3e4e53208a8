"""Slow reference implementations of the lattice layer, kept as oracles for
the tests.

``reference_lattice_check`` finds every meet and join by scanning the
common bounds for an element above (below) all of them, and names the
tied bounds of a failure by comparing them pair by pair.
``reference_modular_pair_witness``/``reference_classify_modularity`` test
every y, comparable or not, through ``meet_idx``/``join_idx`` calls.
``reference_order_complex`` builds the facets through ``from_faces``, which
drops non-maximal faces.  The cover loops are the four transitive
reductions the library had before ``poset.induced_covers``: the
containment loop of ``subgroup_lattice``, the canonical covers of
``build_poset``, ``lattice._covers_of_restriction`` and
``complexes._delete_element``.  ``reference_interval`` is the interval
builder that remapped P's up-set and cover rows by hand before
``Poset.restrict``.  They are kept as they were, so they share no code with
the routines they check.
"""

from latshell.complexes import SimplicialComplex
from latshell.errors import InvalidCertificate, NotALattice
from latshell.lattice import Lattice, ModularityReport
from latshell.poset import Poset, bits, build_poset


def reference_lattice_check(P: Poset) -> Lattice:
    P.require_bounded()
    n = P.n
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lower = P.down[i] & P.down[j]
            upper = P.up[i] & P.up[j]
            g = _unique_extremum(P, lower, greatest=True)
            if g is None:
                raise NotALattice(P.elements[i], P.elements[j],
                                  _tie_reason(P, lower, "meet"))
            l = _unique_extremum(P, upper, greatest=False)
            if l is None:
                raise NotALattice(P.elements[i], P.elements[j],
                                  _tie_reason(P, upper, "join"))
            meet[i][j] = meet[j][i] = g
            join[i][j] = join[j][i] = l
    return Lattice(P, meet, join)


def _unique_extremum(P: Poset, mask: int, greatest: bool):
    if not mask:
        return None
    for k in bits(mask):
        if greatest:
            if mask & ~P.down[k] == 0:
                return k
        else:
            if mask & ~P.up[k] == 0:
                return k
    return None


def _tie_reason(P: Poset, mask: int, word: str) -> str:
    if not mask:
        return f"no common bound for {word}"
    extremes = []
    for k in bits(mask):
        others = mask & ~(1 << k)
        if word == "meet":
            if not any(P.leq_idx(k, m) for m in bits(others)):
                extremes.append(P.elements[k])
        else:
            if not any(P.leq_idx(m, k) for m in bits(others)):
                extremes.append(P.elements[k])
    return f"{word} is not unique among {extremes}"


def reference_modular_pair_witness(L: Lattice, x: str, y: str):
    """Return a violating z for the pair (x, y), or None if none exists."""
    P = L.poset
    i, j = P.idx(x), P.idx(y)
    jx = L.join_idx(j, i)
    for k in bits(P.up[j]):
        if L.meet_idx(jx, k) != L.join_idx(j, L.meet_idx(i, k)):
            return L.elements[k]
    return None


def reference_classify_modularity(L: Lattice, x: str) -> ModularityReport:
    """Classify ``x`` as left-modular and/or (two-sided) modular."""
    wl = wr = None
    for y in L.elements:
        z = reference_modular_pair_witness(L, x, y)
        if z is not None:
            wl = (y, z)
            break
    for y in L.elements:
        z = reference_modular_pair_witness(L, y, x)
        if z is not None:
            wr = (y, z)
            break
    left = wl is None
    return ModularityReport(x, left, left and wr is None, wl, wr)


def reference_order_complex(P: Poset):
    """The simplicial complex of chains of the proper part of ``P``."""
    P.require_bounded()
    proper = [P.elements[i] for i in range(P.n) if i not in (P.bottom, P.top)]
    facets = set()
    for c in P.maximal_chains_idx():
        facets.add(frozenset(P.elements[i] for i in c
                             if i not in (P.bottom, P.top)))
    return SimplicialComplex.from_faces(proper, facets)


def reference_subgroup_covers(masks, names) -> list[tuple[str, str]]:
    """Covers of subgroups given by element masks, by the containment loop."""
    covers = []
    for i, mi in enumerate(masks):
        strict_ups = [j for j, mj in enumerate(masks)
                      if j != i and mi | mj == mj]
        for j in strict_ups:
            if not any(masks[k] | masks[j] == masks[j] and masks[k] | mi == masks[k]
                       and k != i and k != j for k in strict_ups):
                covers.append((names[i], names[j]))
    return covers


def reference_canonical_covers(up) -> list[int]:
    """Cover rows of up-set rows, as ``build_poset`` computed them."""
    n = len(up)
    cover_up = [0] * n
    for i in range(n):
        strict = up[i] & ~(1 << i)
        via = 0
        for j in bits(strict):
            via |= up[j] & ~(1 << j)
        cover_up[i] = strict & ~via
    return cover_up


def reference_covers_of_restriction(P: Poset, members: list[int]) -> list[tuple[str, str]]:
    mask = 0
    for i in members:
        mask |= 1 << i
    covers = []
    for i in members:
        strict = P.up[i] & mask & ~(1 << i)
        via = 0
        for j in bits(strict):
            via |= P.up[j] & ~(1 << j)
        for j in bits(strict & ~via):
            covers.append((P.elements[i], P.elements[j]))
    return covers


def reference_delete_element(P: Poset, x: str) -> Poset:
    members = [e for e in P.elements if e != x]
    mask = 0
    for e in members:
        mask |= 1 << P.idx(e)
    covers = []
    for i in bits(mask):
        strict = P.up[i] & mask & ~(1 << i)
        via = 0
        for j in bits(strict):
            via |= P.up[j] & ~(1 << j)
        for j in bits(strict & ~via):
            if not (P.cover_up[i] >> j) & 1:
                raise InvalidCertificate(
                    f"removing {x!r} created the new cover "
                    f"({P.elements[i]!r}, {P.elements[j]!r})")
            covers.append((P.elements[i], P.elements[j]))
    return build_poset(members, covers)


def reference_interval(P: Poset, x: str, y: str) -> Poset:
    """The closed interval [x, y] as an induced subposet (bounded by x, y)."""
    i, j = P.pair_idx(x, y)
    members = P.up[i] & P.down[j]
    sub = [k for k in range(P.n) if (members >> k) & 1]
    pos = {k: t for t, k in enumerate(sub)}
    m = len(sub)
    up = [0] * m
    cov = [0] * m
    for t, k in enumerate(sub):
        for j2 in bits(P.up[k] & members):
            up[t] |= 1 << pos[j2]
        # covers of P inside [x, y] are exactly the covers of the interval
        for j2 in bits(P.cover_up[k] & members):
            cov[t] |= 1 << pos[j2]
    return Poset([P.elements[k] for k in sub], up, cov, pos[i], pos[j])
