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
    min_chain_complexity,
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
    _maximalize,
    cert_simplex_skeleton,
    empty_complex,
    join_skeleton_certificate,
    shedding_failure_witness,
    simplex_complex,
    void_complex,
)
from latshell.errors import (
    AllChainsAscending,
    InvalidCertificate,
    LatshellError,
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

import vd_counts
from complex_oracles import (
    reference_betti_numbers,
    reference_constructive_vd_skeleton,
    reference_depth,
    reference_is_cohen_macaulay,
    reference_join_skeleton_certificate,
    reference_shedding_failure_witness,
    reference_verify_shelling,
)
from conftest import left_modular_maximal_chains, subset_poset
from latshell.poset import from_up
from test_lattice_oracles import random_poset


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
    cert = VDNode("a", path_cert, cert_simplex_skeleton(("b", "d"), 0))
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
    # the 0-skeleton is a set of points, shed one at a time
    validate_vd_certificate(cert_simplex_skeleton(("a", "b", "c"), 0),
                            points("a", "b", "c"))
    assert cert_simplex_skeleton(("a", "b"), 0) == VDNode("b", VDLeaf(), VDLeaf())


def _point_factor(*names):
    return JoinFactor(points(*names), 0, cert_simplex_skeleton(names, 0))


def test_join_skeleton_certificate():
    a = points("a", "b", "c")
    b = points("x", "y")
    factors = [_point_factor("a", "b", "c"), _point_factor("x", "y")]
    joined = a.join(b).skeleton(1)
    cert = join_skeleton_certificate(factors, 1)
    validate_vd_certificate(cert, joined)
    assert is_vd_bruteforce(joined)

    # a simplex factor at reduced level
    s = simplex_complex(("p", "q", "r"))
    factors = [JoinFactor(s, 1, cert_simplex_skeleton(s.vertices, 1)),
               _point_factor("x", "y")]
    joined = s.join(b).skeleton(2)
    cert = join_skeleton_certificate(factors, 2)
    validate_vd_certificate(cert, joined)

    # level -1 factor participates with vertices but empty-complex cert
    factors = [JoinFactor(s, 2, VDLeaf()), JoinFactor(b, -1, VDLeaf())]
    joined = s.join(b).skeleton(2)
    cert = join_skeleton_certificate(factors, 2)
    validate_vd_certificate(cert, joined)


def test_join_full_certificate():
    # every level at its factor's dimension: the whole join
    b = points("x", "y")
    edge = simplex_complex(("p", "q"))
    factors = [JoinFactor(edge, 1, VDLeaf()), _point_factor("x", "y")]
    joined = edge.join(b)
    cert = join_skeleton_certificate(factors, 2)
    assert cert == VDNode("y", VDLeaf(), VDLeaf())
    validate_vd_certificate(cert, joined)
    assert verify_shelling(joined, shelling_from_vd(cert, joined))

    # a level above a factor's dimension, and t above the join's, read as
    # the whole factor and the whole join
    cyc = cycle4()
    factors = [JoinFactor(cyc, 5, VDNode("a", VDNode("b", VDLeaf(), VDLeaf()),
                                         cert_simplex_skeleton(("b", "d"), 0))),
               JoinFactor(b, 3, cert_simplex_skeleton(("x", "y"), 0))]
    joined = cyc.join(b)
    cert = join_skeleton_certificate(factors, 7)
    validate_vd_certificate(cert, joined)
    assert verify_shelling(joined, shelling_from_vd(cert, joined))


def test_join_skeleton_certificate_refusals():
    b = points("x", "y")
    with pytest.raises(InvalidCertificate, match="void factor"):
        join_skeleton_certificate(
            [JoinFactor(void_complex(), -1, VDLeaf()), _point_factor("x", "y")], 0)
    with pytest.raises(InvalidCertificate, match="level -2 out of range"):
        join_skeleton_certificate([JoinFactor(b, -2, VDLeaf())], -1)
    # a triangle with a lone point: its 1-skeleton is not pure
    impure = SimplicialComplex.from_faces("pqrs", [["p", "q", "r"], ["s"]])
    with pytest.raises(InvalidCertificate, match="not pure"):
        join_skeleton_certificate([JoinFactor(impure, 1, VDLeaf())], 1)
    with pytest.raises(InvalidCertificate, match="target 1 exceeds"):
        join_skeleton_certificate(
            [_point_factor("a", "b"), JoinFactor(b, -1, VDLeaf())], 1)
    # factors must not share vertices, whatever the leaf test decides
    with pytest.raises(VertexClash, match=r"shared vertices \['x'\]"):
        join_skeleton_certificate(
            [_point_factor("x", "y"), _point_factor("x", "z")], 1)


def _join_outcome(fn, factors, t):
    """The certificate's ``repr``, or the error's type and message."""
    try:
        return repr(fn(factors, t))
    except LatshellError as exc:
        return type(exc).__name__, str(exc)


def _refused_joins():
    """The factor lists and targets of the refusals above, overlapping
    factors, and factors whose complex lists a vertex that no facet
    holds, last or first."""
    b = points("x", "y")
    impure = SimplicialComplex.from_faces("pqrs", [["p", "q", "r"], ["s"]])
    edge = simplex_complex(("p", "q"))
    loose_last = SimplicialComplex(("a", "b", "u"), {0b011})
    loose_first = SimplicialComplex(("u", "a", "b"), {0b110})
    return [
        ([JoinFactor(void_complex(), -1, VDLeaf()), _point_factor("x", "y")], 0),
        ([JoinFactor(b, -2, VDLeaf())], -1),
        ([JoinFactor(impure, 1, VDLeaf())], 1),
        ([_point_factor("a", "b"), JoinFactor(b, -1, VDLeaf())], 1),
        ([_point_factor("x", "y"), _point_factor("x", "z")], 1),
        ([JoinFactor(edge, 1, VDLeaf()), JoinFactor(b, 0, VDLeaf()),
          _point_factor("q", "r")], 2),
        ([JoinFactor(loose_last, -1, VDLeaf()), JoinFactor(points("x"), 0, VDLeaf())], 0),
        ([JoinFactor(loose_first, -1, VDLeaf()), JoinFactor(points("x"), 0, VDLeaf())], 0),
        ([JoinFactor(loose_last, 1, VDLeaf())], 0),
        ([JoinFactor(loose_last, 1, VDNode("u", VDLeaf(), VDLeaf()))], 1),
        ([JoinFactor(loose_first, 0, VDLeaf()), JoinFactor(b, 0, VDLeaf())], 1),
        ([JoinFactor(loose_last, 1, VDLeaf()), _point_factor("u", "v")], 2),
        ([JoinFactor(edge, 1, VDNode("z", VDLeaf(), VDLeaf()))], 1),
    ]


def test_join_certificate_matches_the_complex_oracle_on_refusals():
    for factors, t in _refused_joins():
        assert (_join_outcome(join_skeleton_certificate, factors, t)
                == _join_outcome(reference_join_skeleton_certificate, factors, t))


def _random_cert(rng, cx, depth):
    """A certificate tree down the deletions and links of ``cx``, with no
    shedding test; now and then it names a vertex outside the complex."""
    if depth == 0 or len(cx.facets) <= 1 or rng.random() < 0.2:
        return VDLeaf()
    if rng.random() < 0.05:
        return VDNode("stray", VDLeaf(), VDLeaf())
    v = rng.choice(cx.vertices)
    bit = cx.mask_of((v,))
    link = cx.link_of((v,)) if cx.has_face(bit) else void_complex()
    return VDNode(v, _random_cert(rng, cx.delete_vertex(v), depth - 1),
                  _random_cert(rng, link, depth - 1))


def _random_join_factor(rng, tag):
    """A factor on up to four vertices named after ``tag``, now and then
    with the vertex ``s`` that other factors may hold too, or listing a
    vertex that no facet holds; sometimes void or empty, with facets that
    need not form an antichain, a level from -2 up to one past its
    dimension, and a certificate that may not fit it."""
    names = [f"{tag}{i}" for i in range(rng.randint(0, 4))]
    if rng.random() < 0.1:
        names.append("s")
    kind = rng.random()
    if kind < 0.03:
        cx = void_complex()
    elif not names or kind < 0.1:
        cx = empty_complex()
    else:
        masks = {sum(1 << i for i in rng.sample(range(len(names)),
                                                rng.randint(1, len(names))))
                 for _ in range(rng.randint(1, 4))}
        cx = SimplicialComplex(names, masks if kind < 0.2 else _maximalize(masks))
        if rng.random() < 0.15:
            cx = SimplicialComplex(cx.vertices + (f"{tag}u",), cx.facets)
        elif rng.random() < 0.1:
            cx = SimplicialComplex((f"{tag}u",) + cx.vertices,
                                   {f << 1 for f in cx.facets})
    level = -2 if rng.random() < 0.03 else rng.randint(-1, (cx.dim or 0) + 1)
    cert = rng.choice([VDLeaf(), cert_simplex_skeleton(cx.vertices, level),
                       _random_cert(rng, cx, 4)])
    return JoinFactor(cx, level, cert)


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_join_certificate_matches_the_complex_oracle(rng):
    """The mask loop gives the certificate, or the error, that the join
    built on ``SimplicialComplex`` links and deletions gives."""
    factors = [_random_join_factor(rng, tag) for tag in "abc"[:rng.randint(1, 3)]]
    t = rng.randint(-2, 4)
    assert (_join_outcome(join_skeleton_certificate, factors, t)
            == _join_outcome(reference_join_skeleton_certificate, factors, t))


def test_check_join_compares_skeleta_of_facet_ors():
    """Two point pairs on disjoint bits join to the 4-cycle, whose facets
    are the ORs; its 0-skeleton is that of the tetrahedron."""
    factors = [cxm._Factor((0, 1), 0b0011, [0b0001, 0b0010], 0, VDLeaf()),
               cxm._Factor((2, 3), 0b1100, [0b0100, 0b1000], 0, VDLeaf())]
    cxm._check_join(factors, 1, [0b0101, 0b0110, 0b1001, 0b1010], "no")
    cxm._check_join(factors, 0, [0b1111], "no")
    with pytest.raises(InvalidCertificate, match="^no$"):
        cxm._check_join(factors, 1, [0b1111], "no")
    with pytest.raises(InvalidCertificate, match="^no$"):
        cxm._check_join(factors, 1, [0b0101, 0b0110, 0b1001], "no")


def test_spine_simplex_sheds_in_chain_order():
    """The base case's spine simplex lists its vertices in chain order, not
    in the poset's index order: at level -1 the join sheds its last vertex,
    here b of the spine 0 < a < b < 1, listed before a."""
    P = build_poset("0 b a p q 1".split(), [("0", "a"), ("a", "b"), ("b", "p"),
                                           ("b", "q"), ("p", "1"), ("q", "1")])
    lab = EdgeLabeling({("0", "a"): 1, ("a", "b"): 2, ("b", "p"): 3,
                        ("b", "q"): 3, ("p", "1"): 3, ("q", "1"): 3})
    cx, cert = constructive_vd_skeleton(P, lab, 2)
    assert cert == VDNode("q", VDNode("b", VDNode("a", VDLeaf(), VDLeaf()),
                                      VDLeaf()), VDLeaf())
    assert repr(cert) == repr(reference_constructive_vd_skeleton(P, lab, 2)[1])
    validate_vd_certificate(cert, cx)


def test_constructive_call_builds_only_the_root_complex():
    """One constructive call on each of the six lattices, and both readers
    of its certificate, build the root's order complex and its skeleton
    and no other ``SimplicialComplex``."""
    for name, P, chain in vd_counts.lattices():
        row = vd_counts.counts(P, chain)
        assert row["simplicial"] <= 2 and row["compacts"] <= 1, name


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


def stacked_diamonds():
    elements = ["0", "a", "b", "m", "c", "d", "1"]
    covers = [("0", "a"), ("0", "b"), ("a", "m"), ("b", "m"),
              ("m", "c"), ("m", "d"), ("c", "1"), ("d", "1")]
    return build_poset(elements, covers)


def test_every_other_rank_left_modular_chain_gives_full_vd():
    # stacked diamonds: chain hitting every other rank, gap intervals of
    # length two; the whole order complex decomposes
    P = stacked_diamonds()
    L = lattice_check(P)
    m = verify_chain_modularity(L, ["0", "m", "1"])
    lab = left_modular_labeling(L, m)
    cx, cert = constructive_vd_full(P, lab)
    validate_vd_certificate(cert, cx)
    assert is_vd_bruteforce(cx)
    assert verify_shelling(cx, shelling_from_vd(cert, cx))


def wide_lattice(n: int):
    """0 < a1, ..., an < 1, with its atoms."""
    atoms = [f"a{i}" for i in range(1, n + 1)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return lattice_check(build_poset(["0", *atoms, "1"], covers)), atoms


def test_long_deletion_chain_is_walked_in_a_loop():
    """With the chain 0 < a1 < 1 every chain through another atom has one
    descent, so the decomposition of the 600 points sheds a600, ..., a2 in
    turn, a deletion chain 599 levels deep; each link is the empty
    complex.  ``test_vd_readers`` reads the same certificate's ``repr``,
    ``==`` and ``hash``."""
    L, atoms = wide_lattice(600)
    lab = left_modular_labeling(L, verify_chain_modularity(L, ["0", "a1", "1"]))
    bound, _ = min_chain_complexity(L.poset, lab)
    cx, cert = constructive_vd_skeleton(L.poset, lab, bound)
    assert bound == 2 and len(cx.facets) == 600
    assert validate_vd_certificate(cert, cx)
    order = shelling_from_vd(cert, cx)
    assert order == [frozenset({a}) for a in atoms]
    assert verify_shelling(cx, order)


def test_long_base_case_join_is_walked_in_a_loop():
    """With the chain 0 < 1 every chain ascends, and the base case joins
    the empty spine simplex with the 1 100 points of the gap: the simplex
    skeleton certificate, the join certificate, the validation and the
    shelling each walk a deletion chain 1 099 levels deep."""
    L, atoms = wide_lattice(1100)
    lab = left_modular_labeling(L, verify_chain_modularity(L, ["0", "1"]))
    cx, cert = constructive_vd_full(L.poset, lab)
    assert len(cx.facets) == 1100
    assert validate_vd_certificate(cert, cx)
    order = shelling_from_vd(cert, cx)
    assert order == [frozenset({a}) for a in atoms]
    assert verify_shelling(cx, order)


def _certifies(cx, cert):
    return (validate_vd_certificate(cert, cx)
            and verify_shelling(cx, shelling_from_vd(cert, cx)))


def test_vd_over_every_left_modular_chain(b3, m3, n5, pi4, gl_s3, gl_a4):
    """Not just the designated chains: every left-modular maximal chain,
    and the chain of its every other element, certifies each skeleton up
    to the bound and, barring long label runs, the whole order complex."""
    lattices = [L for _, L, _ in (b3, m3, n5, pi4)]
    lattices += [lattice_check(stacked_diamonds()),
                 gl_s3.lattice, gl_a4.lattice]
    skeleta = wholes = 0
    for L in lattices:
        P = L.poset
        chains = {}
        for chain in left_modular_maximal_chains(L):
            c = chain.elements
            every_other = c[::2] if len(c) % 2 else c[::2] + c[-1:]
            chains.update(dict.fromkeys((c, every_other)))
        for c in chains:
            lab = left_modular_labeling(L, verify_chain_modularity(L, c))
            bound, _ = min_chain_complexity(P, lab)
            for r in range(1, bound + 1):
                assert _certifies(*constructive_vd_skeleton(P, lab, r)), c
                skeleta += 1
            try:
                assert _certifies(*constructive_vd_full(P, lab)), c
                wholes += 1
            except RepeatRunTooLong:
                pass
    assert (skeleta, wholes) == (125, 45)


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


def forbid_building(monkeypatch):
    """Make building the faces or a skeleton of any complex fail, so that a
    refusal is seen to come before either."""
    def built(*args):
        raise AssertionError("built before the limit was checked")
    monkeypatch.setattr(SimplicialComplex, "faces", built)
    monkeypatch.setattr(SimplicialComplex, "skeleton", built)


FACET_18 = ("complex has a facet of 18 vertices, with more faces than the "
            "face limit 1000; raise it with --limit-faces")
FACET_40_SKELETON_2 = ("complex has a facet of 40 vertices, with more faces of "
                       "dimension at most 2 than the face limit {}; raise it "
                       "with --limit-faces")


def wide_complex():
    """A triangle beside a 40-vertex facet: its depth reads the 2-skeleton,
    of which the large facet alone has 1 + 40 + 780 + 9880 = 10701 faces."""
    return SimplicialComplex.from_faces(
        ["a", "b", "c"] + [f"w{i}" for i in range(40)],
        [["a", "b", "c"], [f"w{i}" for i in range(40)]])


def test_large_facet_refused_before_faces_are_built(monkeypatch):
    big = simplex_complex([f"v{i}" for i in range(18)])
    wide = wide_complex()
    forbid_building(monkeypatch)
    for fn, args in ((big.faces_by_dim, ()), (betti_numbers, (big,)),
                     (depth, (big,)), (is_cohen_macaulay, (big,))):
        with pytest.raises(SizeLimit) as info:
            fn(*args, limit=1000)
        assert str(info.value) == FACET_18, fn
    with pytest.raises(SizeLimit) as info:
        depth(wide, limit=10700)
    assert str(info.value) == FACET_40_SKELETON_2.format(10700)


def test_large_facet_refusal_is_tight():
    """At the facet's own count the skeleton is built, and the whole count
    (the triangle adds 7 faces) is refused with its exact message."""
    with pytest.raises(SizeLimit) as info:
        depth(wide_complex(), limit=10701)
    assert str(info.value) == ("complex has 10708 faces, more than the face "
                               "limit 10701; raise it with --limit-faces")


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
    # the cone is acyclic mod 2 as well, so its numbers are certified
    # without the integer kernel
    assert betti_numbers(cone) == {-1: 0, 0: 0, 1: 0, 2: 0, 3: 0}
    assert divisions == [1]
    # in the integer kernel the cone's columns are reduced against that
    # pivot, and it is contractible
    fbd = cone.faces_by_dim()
    assert [cxm._boundary_rank(cone, fbd, k) for k in range(4)] == [1, 6, 15, 10]
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


def test_lexicographic_order_shells_a_large_simplex_skeleton():
    """The 4 845 facets of the 3-skeleton of the 19-simplex, in
    lexicographic order, are a shelling; with the last moved to the front,
    the next facet meets it in the empty face, and they are not."""
    names = [f"v{i:02}" for i in range(20)]
    cx = simplex_complex(names).skeleton(3)
    order = [frozenset(c) for c in itertools.combinations(names, 4)]
    assert len(cx.facets) == len(order) == 4845
    assert verify_shelling(cx, order)
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
    shelled, cm, sheds, gated = set(), set(), set(), set()
    for seed in range(200):
        rng = random.Random(seed)
        cx = random_complex(rng)
        shelled.add(verify_shelling(cx, random_order(rng, cx)))
        cx, limit = random_link_case(rng)
        gated.add(_outcome(depth, cx, limit=limit)[0])
        cm.add(is_cohen_macaulay(cx))
        sheds.update(shedding_failure_witness(cx, v) is None
                     for v in cx.vertices)
    assert shelled == cm == sheds == {True, False}
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


def _betti_and_path(cx):
    """``betti_numbers(cx)``, and whether it fell back to the integer
    kernel: ``_boundary_rank`` is called from dimension 2 up only then."""
    degrees = []
    exact = cxm._boundary_rank

    def spy(cx_, fbd, k):
        degrees.append(k)
        return exact(cx_, fbd, k)

    cxm._boundary_rank = spy
    try:
        return betti_numbers(cx), any(k >= 2 for k in degrees)
    finally:
        cxm._boundary_rank = exact


def _needs_rationals(cx) -> bool:
    """Whether some boundary rank from dimension 2 up may differ mod 2:
    the mod-2 Betti numbers on both sides of it are nonzero."""
    betti2 = reference_betti_numbers(cx, mod2=True)
    return any(betti2.get(k - 1) and betti2.get(k) for k in betti2 if k >= 2)


def rp2():
    return SimplicialComplex.from_faces("123456", RP2_TRIANGLES)


@st.composite
def torsion_cases(draw):
    """A random complex, or RP^2 alone, beside a point, coned, or joined
    with a small random complex."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["random", "rp2", "rp2+point", "cone", "join"]))
    if kind == "random":
        return random_complex(rng, max_facets=8)
    if kind == "rp2":
        return rp2()
    if kind == "rp2+point":
        return SimplicialComplex.from_faces("1234567", RP2_TRIANGLES + [["7"]])
    if kind == "cone":
        return SimplicialComplex.from_faces(
            "1234567", [t + ["7"] for t in RP2_TRIANGLES])
    return rp2().join(random_complex(rng, max_vertices=4, max_facets=3,
                                     max_size=3))


@given(torsion_cases())
@settings(max_examples=80, deadline=None)
def test_certified_betti_numbers_match_fraction_oracle(cx):
    got, fell_back = _betti_and_path(cx)
    assert got == reference_betti_numbers(cx)
    assert fell_back == _needs_rationals(cx)


def test_torsion_cases_take_both_paths():
    # RP^2 has beta_1 = beta_2 = 1 mod 2, so it needs the rationals, and
    # so does its join with a circle (degrees 3 and 4); the cone over it
    # and its join with a point are acyclic mod 2 as well, so certified
    circle = cycle4()
    for cx, fell_back in ((rp2(), True), (rp2().join(circle), True),
                          (SimplicialComplex.from_faces(
                              "1234567", [t + ["7"] for t in RP2_TRIANGLES]), False),
                          (rp2().join(points("p")), False)):
        got, path = _betti_and_path(cx)
        assert path == fell_back
        # RP^2 is acyclic over the rationals, and so is every join with it
        assert got == reference_betti_numbers(cx)
        assert not any(got.values())


def _plain(cx):
    """The same complex without its poset, so ``depth`` sweeps the faces."""
    return SimplicialComplex(cx.vertices, cx.facets)


def test_poset_depth_matches_face_sweep_on_group_lattices(monkeypatch, gl_s4,
                                                          gl_a5, gl_s5):
    calls = []
    poset_depth = cxm._poset_depth
    monkeypatch.setattr(cxm, "_poset_depth",
                        lambda *args: calls.append(1) or poset_depth(*args))
    groups = [gm.parse_group_file(text) for text in (
        "degree: 7\n(1 2 3 4 5 6 7)\n(1 2)(3 6)\n",
        "degree: 8\n(1 2)\n(3 4)\n(5 6)\n(7 8)\n",
        "degree: 6\n(1 2)\n(1 2 3 4)\n(5 6)\n")]
    lattices = [gl_s4, gl_a5, gl_s5] + [gm.subgroup_lattice(G) for G in groups]
    depths = []
    for GL in lattices:
        cx = order_complex(GL.lattice.poset)
        assert isinstance(cx, cxm.OrderComplex)
        depths.append(depth(cx))
        assert depths[-1] == depth(_plain(cx))
    # S4, A5, S5, PSL(2,7), C2^4, S4 x C2
    assert depths == [1, 1, 2, 1, 2, 2]
    assert len(calls) == len(lattices)


def test_poset_depth_of_one_and_two_elements():
    one = build_poset(["a"], [])
    two = build_poset(["a", "b"], [("a", "b")])
    for P in (one, two):
        cx = order_complex(P)
        assert cx.is_empty
        assert depth(cx) == depth(_plain(cx)) == -1
        assert cxm._poset_depth(P, -1, 200000) == -1
        assert betti_numbers(cx) == {-1: 1}


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_poset_depth_matches_face_sweep(rng):
    P = rng.choice([random_poset, random_bounded_poset,
                    random_layered_poset])(rng)
    cx = order_complex(P)
    limit = rng.choice([200000, rng.randint(1, 80)])
    assert (_outcome(depth, cx, limit=limit)
            == _outcome(depth, _plain(cx), limit=limit))
    # without the whole complex's floor, which would hide most of the
    # other faces: every nonempty face, from the intervals or swept
    m = min(f.bit_count() for f in cx.facets) - 1
    assert (cxm._poset_depth(P, m, 200000)
            == cxm._face_depth(_plain(cx), m, 200000))
    assert betti_numbers(cx) == reference_betti_numbers(cx)


def _bounded(n, up):
    """The order with up-set rows ``up`` on n elements, with a top and a
    bottom added."""
    full = (1 << n + 2) - 1
    return from_up([f"v{i}" for i in range(n)] + ["top", "bot"],
                   [row | 1 << n for row in up] + [1 << n, full])


def random_bounded_poset(rng):
    """A random order on up to 9 elements, each below each later one with
    one fixed chance, with a bottom and a top added."""
    n = rng.randint(0, 9)
    p = rng.random()
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < p:
                up[i] |= up[j]
    return _bounded(n, up)


def random_layered_poset(rng):
    """Three or four levels of two or three elements, each element below
    some of the next level and now and then below one two levels up, with
    a bottom and a top added.  Its intervals are often disconnected or
    circles where the whole complex is not, so that depth is reached at a
    nonempty face."""
    levels, n = [], 0
    for _ in range(rng.randint(3, 4)):
        k = rng.randint(2, 3)
        levels.append(range(n, n + k))
        n += k
    p = rng.uniform(0.2, 0.6)
    up = [1 << i for i in range(n)]
    for i in reversed(range(len(levels) - 1)):
        for x in levels[i]:
            above = [y for y in levels[i + 1] if rng.random() < p]
            if i + 2 < len(levels) and rng.random() < 0.2:
                above.append(rng.choice(levels[i + 2]))
            for y in above or [rng.choice(levels[i + 1])]:
                up[x] |= up[y]
    return _bounded(n, up)


def test_mobius_check_sees_a_wrong_complex(gl_s4):
    # Philip Hall: the Betti numbers of the order complex sum, with signs,
    # to mu(0, 1), which is -12 for S4's subgroup lattice.  A rank enters
    # two adjacent degrees with opposite signs, so the check reads the face
    # counts: the complex less one chain, attached to the same poset, trips
    # it, while its own Betti numbers are right
    P = gl_s4.lattice.poset
    cx = order_complex(P)
    assert cxm._mobius(P) == -12
    assert betti_numbers(cx) == {-1: 0, 0: 0, 1: 12, 2: 0}
    facets = sorted(cx.facets)
    wrong = cxm.OrderComplex(P, cx.vertices, facets[1:])
    with pytest.raises(SelfCheckFailed) as info:
        betti_numbers(wrong)
    assert info.value.check == "mobius"
    assert betti_numbers(_plain(wrong)) == reference_betti_numbers(_plain(wrong))

