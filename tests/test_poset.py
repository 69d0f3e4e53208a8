import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshell import build_poset, interval, is_graded, maximal_chains, order_complex
from latshell.errors import (
    CycleDetected,
    DuplicateElement,
    NotComparable,
    RedundantCover,
    Unbounded,
    UnknownElement,
)
from latshell.poset import _kahn


def closure_by_matrix_powering(elements, covers):
    """Independent transitive-reflexive closure oracle."""
    n = len(elements)
    idx = {e: i for i, e in enumerate(elements)}
    mat = [[i == j for j in range(n)] for i in range(n)]
    for x, y in covers:
        mat[idx[x]][idx[y]] = True
    for _ in range(n):
        nxt = [[mat[i][j] or any(mat[i][k] and mat[k][j] for k in range(n))
                for j in range(n)] for i in range(n)]
        if nxt == mat:
            break
        mat = nxt
    return mat


def test_three_chain():
    P = build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")])
    assert P.elements[P.bottom] == "0"
    assert P.elements[P.top] == "1"
    assert P.leq("0", "1")
    assert len(maximal_chains(P)) == 1


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        build_poset(["0", "a"], [("0", "a"), ("a", "0")])


def test_duplicate_element():
    with pytest.raises(DuplicateElement):
        build_poset(["0", "0"], [])


def test_unknown_cover_endpoint():
    with pytest.raises(UnknownElement):
        build_poset(["0"], [("0", "z")])


def test_redundant_cover_rejected():
    with pytest.raises(RedundantCover):
        build_poset(["0", "a", "1"], [("0", "a"), ("a", "1"), ("0", "1")])
    with pytest.raises(RedundantCover):
        build_poset(["0", "a"], [("0", "a"), ("0", "a")])


def test_b3_closure_pair_count(b3):
    P, _, _ = b3
    mat = closure_by_matrix_powering(P.elements, P.covers())
    expected = sum(row.count(True) for row in mat)
    assert expected == 27
    assert P.leq_pairs() == 27


def test_interval_full_and_diamond(b3):
    P, _, _ = b3
    assert interval(P, "e", "123").elements == P.elements
    dia = interval(P, "1", "123")
    assert set(dia.elements) == {"1", "12", "13", "123"}
    single = interval(P, "1", "1")
    assert single.n == 1 and single.bottom == single.top


def test_interval_not_comparable(b3):
    P, _, _ = b3
    with pytest.raises(NotComparable):
        interval(P, "12", "3")


def test_maximal_chain_counts(b3, n5):
    assert len(maximal_chains(b3[0])) == 6
    chains = maximal_chains(n5[0])
    assert sorted(c.length for c in chains) == [2, 3]


def test_unbounded_rejected():
    P = build_poset(["a", "b"], [])
    with pytest.raises(Unbounded):
        maximal_chains(P)


def test_graded(b3, n5):
    verdict = is_graded(b3[0])
    assert verdict.graded
    assert verdict.rank["e"] == 0 and verdict.rank["123"] == 3
    assert verdict.rank["13"] == 2

    bad = is_graded(n5[0])
    assert not bad.graded
    assert sorted(c.length for c in bad.witness) == [2, 3]

    P = build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")])
    assert is_graded(P).rank == {"0": 0, "a": 1, "1": 2}


def test_order_complex_shapes(m3, n5):
    P = build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")])
    assert order_complex(P).facet_name_sets() == frozenset({frozenset({"a"})})

    cx = order_complex(m3[0])
    assert cx.facet_name_sets() == frozenset(
        {frozenset({"a"}), frozenset({"b"}), frozenset({"c"})})

    cx = order_complex(n5[0])
    assert cx.facet_name_sets() == frozenset(
        {frozenset({"a"}), frozenset({"b", "c"})})


def test_order_complex_degenerate():
    two = build_poset(["0", "1"], [("0", "1")])
    assert order_complex(two).is_empty
    one = build_poset(["x"], [])
    assert order_complex(one).is_empty


def test_interval_chains_are_chain_restrictions(suite):
    """The chains of [x, y] are the x..y segments of the maximal chains
    through both, and the walk on the root poset lists them in the order
    of the interval's own walk."""
    for name, P, _, _ in suite:
        segments = {}
        for c in maximal_chains(P):
            for i, j in itertools.combinations_with_replacement(range(len(c)), 2):
                segments.setdefault((c.elements[i], c.elements[j]), set()).add(
                    c.elements[i:j + 1])
        for x in P.elements:
            for y in P.elements:
                if not P.leq(x, y):
                    continue
                got = [c.elements for c in maximal_chains(interval(P, x, y))]
                assert set(got) == segments[(x, y)], (name, x, y)
                assert P.chains(P.idx(x), P.idx(y)) == got, (name, x, y)


def test_proper_chain_count_is_the_face_count(suite):
    posets = {name: P for name, P, _, _ in suite}
    posets["two"] = build_poset(["0", "1"], [("0", "1")])
    posets["one"] = build_poset(["x"], [])
    for name, P in posets.items():
        assert P.proper_chain_count() == len(order_complex(P).faces()), name
    assert posets["L(S4)"].proper_chain_count() == 116
    assert posets["two"].proper_chain_count() == posets["one"].proper_chain_count() == 1


def test_maximal_chain_count_is_the_chain_count(suite):
    posets = {name: P for name, P, _, _ in suite}
    posets["one"] = build_poset(["x"], [])
    for name, P in posets.items():
        assert P.maximal_chain_count() == len(P.chains()), name
    assert posets["L(S4)"].maximal_chain_count() == 44


def test_faces_extend_to_facets(b3):
    cx = order_complex(b3[0])
    facets = cx.facet_name_sets()
    for mask in cx.faces():
        names = cx.names_of(mask)
        assert any(names <= f for f in facets)


def test_roundtrip_identity(b3, n5, pi4):
    for P, _, _ in (b3, n5, pi4):
        Q = build_poset(P.elements, P.covers())
        assert Q == P


@st.composite
def random_bounded_posets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = [f"v{i}" for i in range(n)]
    rel = set()
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rel.add((i, j))
    # bound it
    top = n
    bottom = n + 1
    names += ["top", "bot"]
    rel |= {(i, top) for i in range(n)}
    rel |= {(bottom, i) for i in range(n)} | {(bottom, top)}
    # transitive closure, then covers
    leq = {(i, i) for i in range(n + 2)} | rel
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(leq), list(leq)):
            if b == c and (a, d) not in leq:
                leq.add((a, d))
                changed = True
    covers = [(names[a], names[b]) for (a, b) in leq
              if a != b and not any(a != k != b and (a, k) in leq and (k, b) in leq
                                    for k in range(n + 2))]
    return names, covers


@given(random_bounded_posets())
@settings(max_examples=40, deadline=None)
def test_random_posets_roundtrip_and_invariants(data):
    names, covers = data
    P = build_poset(names, covers)
    assert build_poset(P.elements, P.covers()) == P
    assert P.is_bounded
    cx = order_complex(P)
    facets = cx.facet_name_sets()
    chains = maximal_chains(P)
    proper = {c.elements[1:-1] for c in chains}
    assert facets == frozenset(frozenset(p) for p in proper)
    assert P.proper_chain_count() == len(cx.faces())
    assert P.maximal_chain_count() == len(chains)
    lo, hi = P.min_max_chain_covers()
    lengths = [c.length for c in chains]
    assert lo == min(lengths) and hi == max(lengths)
    # the stored topological order, shared by every dynamic program; the
    # one build_poset hands in is Kahn's order on the canonical cover rows
    assert P.topo == tuple(_kahn(P.cover_up)[0])
    for Q in (P, P.dual(), interval(P, "bot", P.elements[P.n // 2])):
        place = {Q.elements[i]: t for t, i in enumerate(Q.topo)}
        assert sorted(Q.topo) == list(range(Q.n)) and all(
            place[x] < place[y] for x, y in Q.covers()), Q
