import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshell import (
    SimplicialComplex,
    VDLeaf,
    VDNode,
    betti_numbers,
    build_poset,
    constructive_vd_full,
    constructive_vd_skeleton,
    depth,
    is_cohen_macaulay,
    is_shedding_vertex,
    is_vd_bruteforce,
    lattice_check,
    left_modular_labeling,
    lex_greatest_single_descent_chain,
    order_complex,
    shelling_from_vd,
    validate_vd_certificate,
    verify_chain_modularity,
    verify_shelling,
)
from latshell import complexes as cxm
from latshell import groups as gm
from latshell.complexes import (
    JoinFactor,
    cert_points,
    cert_simplex_skeleton,
    empty_complex,
    join_full_certificate,
    join_skeleton_certificate,
    shedding_failure_witness,
    simplex_complex,
    void_complex,
)
from latshell.errors import (
    AllChainsAscending,
    InvalidCertificate,
    NotAFace,
    NotFacetPermutation,
    RepeatRunTooLong,
    SelfCheckFailed,
    SizeLimit,
    TargetTooLarge,
    UnknownVertex,
    VertexClash,
    VoidComplex,
)
from latshell.labeling import EdgeLabeling

from complex_oracles import (
    reference_betti_numbers,
    reference_bruteforce_shellable,
    reference_depth,
    reference_is_cohen_macaulay,
    reference_shedding_failure_witness,
    reference_verify_shelling,
)
from conftest import subset_poset


def points(*names):
    return SimplicialComplex.from_faces(names, [[n] for n in names])


def cycle4():
    return SimplicialComplex.from_faces(
        "abcd", [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]])


def test_skeleton_link_delete_join():
    tri = simplex_complex(("a", "b", "c"))
    assert tri.skeleton(0) == points("a", "b", "c")
    boundary = tri.skeleton(1)
    assert len(boundary.facets) == 3

    assert boundary.link_of(("a",)) == points("b", "c")
    with pytest.raises(NotAFace):
        cycle4().link_of(("a", "c"))

    sphere0 = points("a", "b")
    other = points("c", "d")
    joined = sphere0.join(other)
    assert joined.facet_name_sets() == frozenset(
        {frozenset(p) for p in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))})
    with pytest.raises(VertexClash):
        sphere0.join(points("a"))

    pt = simplex_complex(("a",))
    edge = pt.join(simplex_complex(("b",)))
    assert edge.skeleton(1) == edge
    assert edge.facet_name_sets() == frozenset({frozenset({"a", "b"})})

    deleted = tri.delete_face(("a", "b"))
    assert not deleted.has_face(deleted.mask_of(("a", "b")))
    assert deleted.has_face(deleted.mask_of(("a", "c")))


def test_empty_and_void_are_distinguished():
    assert empty_complex().is_empty and not empty_complex().is_void
    assert void_complex().is_void
    assert empty_complex().dim == -1
    assert void_complex().dim is None
    assert simplex_complex(()).is_empty


def test_shedding_vertices():
    cx = SimplicialComplex.from_faces("abc", [["a", "b"], ["c"]])
    assert not is_shedding_vertex(cx, "a")
    assert all(is_shedding_vertex(cycle4(), v) for v in "abcd")
    tri = simplex_complex(("a", "b", "c"))
    assert not is_shedding_vertex(tri, "a")
    with pytest.raises(UnknownVertex):
        is_shedding_vertex(tri, "z")


def test_vd_bruteforce():
    assert is_vd_bruteforce(simplex_complex(tuple("abcd")))
    assert is_vd_bruteforce(cycle4())
    two_edges = SimplicialComplex.from_faces("abcd", [["a", "b"], ["c", "d"]])
    assert not is_vd_bruteforce(two_edges)
    assert is_vd_bruteforce(empty_complex())
    assert is_vd_bruteforce(void_complex())


def test_verify_shelling():
    single = simplex_complex(("a", "b"))
    assert verify_shelling(single, [{"a", "b"}])

    cyc = cycle4()
    cyclic = [{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}]
    assert verify_shelling(cyc, cyclic)

    two_edges = SimplicialComplex.from_faces("abcd", [["a", "b"], ["c", "d"]])
    for order in itertools.permutations(two_edges.facet_name_sets()):
        assert not verify_shelling(two_edges, list(order))

    with pytest.raises(NotFacetPermutation):
        verify_shelling(cyc, cyclic[:-1])


def test_shelling_from_handmade_certificate():
    # 4-cycle: shed a; deletion is the path b-c-d, link is two points
    cyc = cycle4()
    path_cert = VDNode("b", VDLeaf(), VDLeaf())
    cert = VDNode("a", path_cert, cert_points(("b", "d")))
    validate_vd_certificate(cert, cyc)
    order = shelling_from_vd(cert, cyc)
    assert verify_shelling(cyc, order)

    with pytest.raises(InvalidCertificate):
        validate_vd_certificate(VDLeaf(), cyc)


def test_betti_numbers():
    assert betti_numbers(points("a", "b", "c"))[0] == 2
    assert betti_numbers(cycle4()) == {-1: 0, 0: 0, 1: 1}
    assert betti_numbers(empty_complex()) == {-1: 1}
    assert betti_numbers(void_complex()) == {}
    # boundary of the 3-simplex is a 2-sphere
    sphere2 = simplex_complex(tuple("abcd")).skeleton(2)
    assert betti_numbers(sphere2) == {-1: 0, 0: 0, 1: 0, 2: 1}
    # octahedron = join of three 0-spheres
    octa = points("a", "b").join(points("c", "d")).join(points("e", "f"))
    assert betti_numbers(octa) == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_cohen_macaulay_and_depth(n5):
    two_edges = SimplicialComplex.from_faces("abcd", [["a", "b"], ["c", "d"]])
    assert not is_cohen_macaulay(two_edges)
    assert depth(two_edges) == 0

    boundary = simplex_complex(tuple("abc")).skeleton(1)
    assert is_cohen_macaulay(boundary)
    assert depth(boundary) == 1

    cx = order_complex(n5[0])
    assert depth(cx) == 0
    assert betti_numbers(cx)[0] == 1

    with pytest.raises(VoidComplex):
        depth(void_complex())
    assert depth(empty_complex()) == -1


def test_cert_simplex_skeleton_and_points():
    for n, t in [(4, 1), (5, 2), (3, 0), (4, 3), (2, -1)]:
        names = tuple(f"v{i}" for i in range(n))
        cx = simplex_complex(names).skeleton(t)
        cert = cert_simplex_skeleton(names, t)
        validate_vd_certificate(cert, cx)
        assert verify_shelling(cx, shelling_from_vd(cert, cx))
    pts = points("a", "b", "c")
    validate_vd_certificate(cert_points(("a", "b", "c")), pts)


def test_join_skeleton_certificate():
    a = points("a", "b", "c")
    b = points("x", "y")
    factors = [JoinFactor(a, 0, cert_points(a.vertices)),
               JoinFactor(b, 0, cert_points(b.vertices))]
    joined = a.join(b).skeleton(1)
    cert = join_skeleton_certificate(factors, 1)
    validate_vd_certificate(cert, joined)
    assert is_vd_bruteforce(joined)

    # a simplex factor at reduced level
    s = simplex_complex(("p", "q", "r"))
    factors = [JoinFactor(s, 1, cert_simplex_skeleton(s.vertices, 1)),
               JoinFactor(b, 0, cert_points(b.vertices))]
    joined = s.join(b).skeleton(2)
    cert = join_skeleton_certificate(factors, 2)
    validate_vd_certificate(cert, joined)

    # level -1 factor participates with vertices but empty-complex cert
    factors = [JoinFactor(s, 2, VDLeaf()), JoinFactor(b, -1, VDLeaf())]
    joined = s.join(b).skeleton(2)
    cert = join_skeleton_certificate(factors, 2)
    validate_vd_certificate(cert, joined)


def test_join_full_certificate():
    pairs = [(simplex_complex(("p", "q")), VDLeaf()),
             (points("x", "y"), cert_points(("x", "y")))]
    joined = pairs[0][0].join(pairs[1][0])
    cert = join_full_certificate(pairs)
    validate_vd_certificate(cert, joined)
    assert verify_shelling(joined, shelling_from_vd(cert, joined))


def test_lex_greatest_single_descent(n5, b3):
    P, L, m = n5
    lab = left_modular_labeling(L, m)
    pick = lex_greatest_single_descent_chain(P, lab)
    assert pick.chain.elements == ("0", "a", "1")
    assert pick.element == "a"

    from test_labeling import std_el_labeling
    P3, _, _ = b3
    lab3 = std_el_labeling(P3)
    pick = lex_greatest_single_descent_chain(P3, lab3)
    assert lab3.sequence(pick.chain.elements) == (3, 1, 2)
    assert pick.element == "3"

    chain = build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")])
    lab_c = EdgeLabeling({("0", "a"): 1, ("a", "1"): 2})
    with pytest.raises(AllChainsAscending):
        lex_greatest_single_descent_chain(chain, lab_c)


def test_constructive_vd_skeleton_small(n5):
    P, L, m = n5
    lab = left_modular_labeling(L, m)
    cx, cert = constructive_vd_skeleton(P, lab, 2)
    assert cx == points("a", "b", "c")
    validate_vd_certificate(cert, cx)
    with pytest.raises(TargetTooLarge):
        constructive_vd_skeleton(P, lab, 3)


def test_constructive_vd_full_small(n5, m3):
    for P, L, m in (n5, m3):
        lab = left_modular_labeling(L, m)
        cx, cert = constructive_vd_full(P, lab)
        validate_vd_certificate(cert, cx)
        assert cx == order_complex(P)
        assert verify_shelling(cx, shelling_from_vd(cert, cx))
        assert is_vd_bruteforce(cx)


def test_repeat_run_gate():
    P = build_poset(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")])
    lab = EdgeLabeling({c: 1 for c in P.covers()})
    with pytest.raises(RepeatRunTooLong):
        constructive_vd_full(P, lab)


def test_every_other_rank_left_modular_chain_gives_full_vd():
    # stacked diamonds: chain hitting every other rank, gap intervals of
    # length two; the whole order complex decomposes
    elements = ["0", "a", "b", "m", "c", "d", "1"]
    covers = [("0", "a"), ("0", "b"), ("a", "m"), ("b", "m"),
              ("m", "c"), ("m", "d"), ("c", "1"), ("d", "1")]
    from latshell import lattice_check, verify_chain_modularity
    P = build_poset(elements, covers)
    L = lattice_check(P)
    m = verify_chain_modularity(L, ["0", "m", "1"])
    lab = left_modular_labeling(L, m)
    cx, cert = constructive_vd_full(P, lab)
    validate_vd_certificate(cert, cx)
    assert is_vd_bruteforce(cx)
    assert verify_shelling(cx, shelling_from_vd(cert, cx))


@st.composite
def small_complexes(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = tuple(f"v{i}" for i in range(n))
    nf = draw(st.integers(min_value=1, max_value=4))
    faces = []
    for _ in range(nf):
        size = draw(st.integers(min_value=1, max_value=min(3, n)))
        faces.append(draw(st.permutations(names))[:size])
    return SimplicialComplex.from_faces(names, faces)


@given(small_complexes())
@settings(max_examples=60, deadline=None)
def test_reduced_euler_characteristic_matches_betti(cx):
    betti = betti_numbers(cx)
    fbd = cx.faces_by_dim()
    chi_faces = sum((-1) ** d * len(fs) for d, fs in fbd.items())
    chi_betti = sum((-1) ** d * b for d, b in betti.items())
    assert chi_faces == chi_betti


@given(small_complexes(), st.integers(min_value=-1, max_value=2))
@settings(max_examples=60, deadline=None)
def test_skeleton_faces(cx, r):
    skel = cx.skeleton(r)
    expected = {m for m in cx.faces() if m.bit_count() <= r + 1}
    got = {cx.mask_of(skel.names_of(m)) for m in skel.faces()}
    assert got == expected


def test_size_limit_names_count_limit_and_flag():
    octa = points("a", "b").join(points("c", "d")).join(points("e", "f"))
    assert len(octa.faces_by_dim(limit=27)[2]) == 8
    with pytest.raises(SizeLimit) as info:
        octa.faces_by_dim(limit=26)
    assert str(info.value) == ("complex has 27 faces, more than the face "
                               "limit 26; raise it with --limit-faces")
    assert is_vd_bruteforce(octa, max_vertices=6)
    with pytest.raises(SizeLimit) as info:
        is_vd_bruteforce(octa, max_vertices=5)
    assert str(info.value) == ("complex has 6 vertices, more than the vertex "
                               "limit 5; raise it with --limit-vd-vertices")


def test_depth_self_check_is_typed(monkeypatch):
    # no Betti number sits below degree -1, so the sweep's result would
    # fall outside -1..m
    monkeypatch.setattr(cxm, "betti_numbers", lambda cx, limit: {-2: 1})
    with pytest.raises(SelfCheckFailed) as info:
        depth(cycle4())
    assert info.value.check == "depth"
    assert "outside -1..1" in str(info.value)


RP2_TRIANGLES = [list(t) for t in ("124", "126", "135", "136", "145",
                                   "234", "235", "256", "346", "456")]


def test_rp2_has_no_rational_homology(monkeypatch):
    # the 6-vertex real projective plane: H_1 over Z is Z/2, so a rank
    # taken mod 2 would report beta_1 = beta_2 = 1; over Q all vanish
    rp2 = SimplicialComplex.from_faces("123456", RP2_TRIANGLES)
    # the cone over it, apex last, so its columns come after the RP^2 ones
    cone = SimplicialComplex.from_faces("1234567",
                                        [t + ["7"] for t in RP2_TRIANGLES])
    divisions = []
    divide = cxm._divide_by_content
    monkeypatch.setattr(cxm, "_divide_by_content",
                        lambda col: divisions.append(1) or divide(col))
    assert betti_numbers(rp2) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert divisions == [1], "RP^2 should make one pivot other than +-1"
    # the cone's columns are reduced against that pivot, and it is contractible
    assert betti_numbers(cone) == {-1: 0, 0: 0, 1: 0, 2: 0, 3: 0}
    assert len(divisions) > 2
    for cx in (rp2, cone):
        assert reference_betti_numbers(cx) == betti_numbers(cx)


def test_b6_skeleton_shelling_verifies():
    P = subset_poset(6)
    L = lattice_check(P)
    m = verify_chain_modularity(
        L, ["e", "1", "12", "123", "1234", "12345", "123456"])
    cx, cert = constructive_vd_skeleton(P, left_modular_labeling(L, m), 6)
    assert len(cx.facets) == 720
    order = shelling_from_vd(cert, cx)
    assert verify_shelling(cx, order)
    # moving the last facet to the front breaks the shelling
    assert not verify_shelling(cx, order[-1:] + order[:-1])


# ---- the bitmask kernels against the oracles in complex_oracles.py -------

def random_complex(rng, max_vertices=7, max_facets=6, max_size=5, short=0.4):
    """A complex on 2 to ``max_vertices`` vertices from ``rng``; a facet is
    one vertex short of the drawn size with probability ``short``, so some
    are nonpure."""
    n = rng.randint(2, max_vertices)
    names = tuple(f"v{i}" for i in range(n))
    size = rng.randint(1, min(max_size, n - 1))
    faces = [rng.sample(names, max(1, size - (rng.random() < short)))
             for _ in range(rng.randint(1, max_facets))]
    return SimplicialComplex.from_faces(names, faces)


def random_link_case(rng):
    """A complex on at most 8 vertices, nonpure in about one case in five,
    and a face limit that is usually generous and sometimes below the face
    count.  A nonpure case is redrawn (a bounded number of times) until its
    shorter facets survive maximalization."""
    nonpure = rng.random() < 0.2
    for _ in range(20):
        cx = random_complex(rng, max_vertices=8, max_facets=8,
                            short=0.5 if nonpure else 0.0)
        if (min(f.bit_count() for f in cx.facets) <= cx.dim) == nonpure:
            break
    return cx, rng.choice([200000, rng.randint(1, 80)])


def _outcome(fn, *args, **kwargs):
    """The value of a call, or the message of the SizeLimit it raised."""
    try:
        return "value", fn(*args, **kwargs)
    except SizeLimit as exc:
        return "SizeLimit", str(exc)


def random_order(rng, cx):
    """A facet order that, half the time, is grown one facet at a time by
    picking a facet that keeps the pairwise test true where one exists."""
    facets = sorted(cx.facet_name_sets(), key=sorted)
    if rng.random() < 0.5:
        rng.shuffle(facets)
        return facets
    order = []
    while facets:
        good = [f for f in facets if _is_shelling(order + [f])]
        f = rng.choice(good or facets)
        facets.remove(f)
        order.append(f)
    return order


def _is_shelling(order):
    """The pairwise oracle on the complex whose facets are ``order``."""
    names = sorted(set().union(*order))
    return reference_verify_shelling(
        SimplicialComplex.from_faces(names, order), order)


def test_random_cases_cover_both_verdicts():
    shelled, shellable, cm, sheds, gated = set(), set(), set(), set(), set()
    for seed in range(200):
        rng = random.Random(seed)
        cx = random_complex(rng)
        shelled.add(verify_shelling(cx, random_order(rng, cx)))
        shellable.add(gm._bruteforce_shellable(
            random_complex(rng, max_facets=5, max_size=4)))
        cx, limit = random_link_case(rng)
        gated.add(_outcome(depth, cx, limit=limit)[0])
        cm.add(is_cohen_macaulay(cx))
        sheds.update(shedding_failure_witness(cx, v) is None
                     for v in cx.vertices)
    assert shelled == shellable == cm == sheds == {True, False}
    assert gated == {"value", "SizeLimit"}


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_depth_and_cm_match_reisner_oracle(rng):
    cx, limit = random_link_case(rng)
    assert (_outcome(depth, cx, limit=limit)
            == _outcome(reference_depth, cx, limit=limit))
    assert (_outcome(is_cohen_macaulay, cx, limit=limit)
            == _outcome(reference_is_cohen_macaulay, cx, limit=limit))


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_shedding_witness_matches_oracle_face(rng):
    cx, _ = random_link_case(rng)
    for v in cx.vertices:
        assert (shedding_failure_witness(cx, v)
                == reference_shedding_failure_witness(cx, v))


def test_depth_exact_cases(gl_s4):
    # RP^2 is Q-acyclic with circle vertex links, so it is Cohen-Macaulay
    # over Q; over F_2 its H_1 would make it fail
    rp2 = SimplicialComplex.from_faces("123456", RP2_TRIANGLES)
    assert depth(rp2) == 2 and is_cohen_macaulay(rp2)
    # two triangles sharing vertex 1: the link of 1 is two disjoint edges;
    # in the cone, apex last, that failure sits in the link of the edge {1, 6}
    bowtie = SimplicialComplex.from_faces("12345", [["1", "2", "3"],
                                                    ["1", "4", "5"]])
    cone = SimplicialComplex.from_faces(
        "123456", [["1", "2", "3", "6"], ["1", "4", "5", "6"]])
    assert depth(bowtie) == 1 and depth(cone) == 2
    assert not is_cohen_macaulay(cone)
    # L(S4) is solvable with chief length 3, so depth is r - 2 = 1
    ls4 = order_complex(gl_s4.lattice.poset)
    assert depth(ls4) == 1
    for cx in (rp2, bowtie, cone, ls4):
        assert depth(cx) == reference_depth(cx)
        assert is_cohen_macaulay(cx) == reference_is_cohen_macaulay(cx)


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_shelling_predicate_matches_pairwise_oracle(rng):
    cx = random_complex(rng)
    order = random_order(rng, cx)
    assert verify_shelling(cx, order) == reference_verify_shelling(cx, order)


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_betti_numbers_match_fraction_oracle(rng):
    cx = random_complex(rng, max_facets=8)
    assert betti_numbers(cx) == reference_betti_numbers(cx)


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_bruteforce_shellable_matches_oracle_search(rng):
    cx = random_complex(rng, max_facets=5, max_size=4)
    assert gm._bruteforce_shellable(cx) == reference_bruteforce_shellable(cx)
