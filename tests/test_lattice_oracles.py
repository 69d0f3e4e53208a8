"""The bitmask lattice layer against the slow oracles in ``lattice_oracles``,
over random bounded posets of sets ordered by inclusion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshell import build_poset, classify_modularity, interval, lattice_check, order_complex
from latshell import groups as gm
from latshell.complexes import _delete_element
from latshell.errors import InvalidCertificate, NotALattice
from latshell.poset import bits, induced_covers

from lattice_oracles import (
    reference_canonical_covers,
    reference_classify_modularity,
    reference_covers_of_restriction,
    reference_delete_element,
    reference_interval,
    reference_lattice_check,
    reference_order_complex,
    reference_subgroup_covers,
)


def random_family(rng, closed: bool) -> list[int]:
    """Subsets of a small ground set, as masks, with the full set and the
    empty set.  When ``closed`` the sets have any size and the family is
    closed under intersection, so it is a lattice.  Otherwise the sets are
    singletons and co-singletons, left unclosed, so that two singletons
    often lie in two co-singletons with nothing between (no unique join).
    Sorted by size, then shuffled within each size."""
    ground = rng.randint(3, 5)
    full = (1 << ground) - 1
    sizes = range(1, ground) if closed else (1, ground - 1)
    family = {0, full}
    for _ in range(rng.randint(0, 9)):
        size = rng.choice(sizes)
        family.add(sum(1 << i for i in rng.sample(range(ground), size)))
    while closed:
        more = {a & b for a in family for b in family} - family
        family |= more
        closed = bool(more)
    family = sorted(family, key=lambda m: (m.bit_count(), rng.random()))
    return family


def family_poset(family):
    """The family ordered by inclusion, elements in a shuffled input order."""
    names = [f"s{m:b}" for m in family]
    order = list(range(len(family)))
    random.Random(len(family)).shuffle(order)
    covers = []
    for i, a in enumerate(family):
        for j, b in enumerate(family):
            if a != b and a & b == a and not any(
                    c not in (a, b) and a & c == a and c & b == c for c in family):
                covers.append((names[i], names[j]))
    return build_poset([names[k] for k in order], covers)


def random_poset(rng):
    return family_poset(random_family(rng, rng.random() < 0.5))


def fields(P):
    """Every field of a poset, so that equal posets are equal field for
    field (``Poset.__eq__`` compares elements and up-sets only)."""
    return (P.elements, P.up, P.down, P.cover_up, P.cover_down, P.bottom, P.top)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (NotALattice, InvalidCertificate) as exc:
        return type(exc).__name__, str(exc)


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_lattice_check_matches_oracle(rng):
    P = random_poset(rng)
    got = _outcome(lattice_check, P)
    expected = _outcome(reference_lattice_check, P)
    if got[0] == "value" and expected[0] == "value":
        assert got[1]._meet == expected[1]._meet
        assert got[1]._join == expected[1]._join
    else:
        assert got == expected


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_classify_modularity_matches_oracle(rng):
    L = lattice_check(family_poset(random_family(rng, closed=True)))
    for x in L.elements:
        assert classify_modularity(L, x) == reference_classify_modularity(L, x)


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_cover_rows_match_the_four_loops(rng):
    P = random_poset(rng)
    assert induced_covers(P.up) == reference_canonical_covers(P.up)
    assert list(P.cover_up) == reference_canonical_covers(P.up)

    members = sorted(rng.sample(range(P.n), rng.randint(1, P.n)))
    mask = sum(1 << i for i in members)
    rows = induced_covers(P.up, mask)
    covers = reference_covers_of_restriction(P, members)
    assert ([(P.elements[i], P.elements[j]) for i in members for j in bits(rows[i])]
            == covers)
    assert fields(P.restrict(mask)) == fields(
        build_poset([P.elements[i] for i in members], covers))

    for i in range(P.n):
        for j in bits(P.up[i]):
            x, y = P.elements[i], P.elements[j]
            assert fields(interval(P, x, y)) == fields(reference_interval(P, x, y))

    for x in P.elements:
        assert (_outcome(lambda: fields(_delete_element(P, x)))
                == _outcome(lambda: fields(reference_delete_element(P, x))))

    family = random_family(rng, rng.random() < 0.5)
    names = [f"H{i}" for i in range(len(family))]
    up = [sum(1 << j for j, b in enumerate(family) if a & b == a) for a in family]
    rows = induced_covers(up)
    assert ([(names[i], names[j]) for i in range(len(family)) for j in bits(rows[i])]
            == reference_subgroup_covers(family, names))


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_order_complex_matches_oracle(rng):
    P = random_poset(rng)
    got, expected = order_complex(P), reference_order_complex(P)
    assert got.vertices == expected.vertices
    assert got.facets == expected.facets


def test_random_posets_reach_every_verdict():
    rng = random.Random(20110405)
    lattices, modular = set(), set()
    for _ in range(200):
        P = random_poset(rng)
        try:
            L = lattice_check(P)
        except NotALattice:
            lattices.add(False)
            continue
        lattices.add(True)
        modular.update(classify_modularity(L, x).modular for x in L.elements)
    assert lattices == modular == {True, False}


@pytest.mark.parametrize("make", [gm.symmetric, gm.alternating, gm.dihedral],
                         ids=["S4", "A4", "D4"])
def test_subgroup_lattice_covers_match_containment_loop(make):
    G = make(4)
    GL = gm.subgroup_lattice(G)
    masks = [sum(1 << G.index(p) for p in h) for h in GL.subgroup_sets]
    assert GL.lattice.poset.covers() == reference_subgroup_covers(masks, GL.names)
