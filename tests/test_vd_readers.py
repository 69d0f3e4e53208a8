"""The certificate readers, which walk facet masks, against the compacting
walk in ``complex_oracles``, on valid and corrupted certificates; and
``repr``, ``==`` and ``hash`` of certificates too deep to recurse on."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from latshell import complexes as cxm
from latshell import labeling as lb
from latshell import lattice_check, verify_chain_modularity
from latshell.complexes import (
    SimplicialComplex,
    VDLeaf,
    VDNode,
    cert_simplex_skeleton,
    shelling_from_vd,
    simplex_complex,
    validate_vd_certificate,
)
from latshell.errors import LatshellError

from complex_oracles import (
    _reference_vd_walk,
    reference_shelling_from_vd,
    reference_validate_vd_certificate,
)
from conftest import divisor_poset
from test_complexes import wide_lattice
from test_labeling_oracles import random_labeling
from test_lattice_oracles import random_poset

CORRUPTIONS = ("none", "swap", "leaf", "outside", "unexpected", "padded")


def _certified(rng):
    """A complex and a valid certificate for it: a constructive one for a
    random poset and labeling, or for a divisor lattice with the
    left-modular labeling of its chain, at a random target and where the
    call succeeds; else a simplex skeleton's."""
    source = rng.choice(("random", "divisors", "simplex"))
    if source == "random":
        P = random_poset(rng)
        lab = random_labeling(rng, P)
    else:
        P, chain = divisor_poset(rng.choice((12, 24, 30, 36, 60, 72)))
        L = lattice_check(P)
        lab = lb.left_modular_labeling(L, verify_chain_modularity(L, chain))
    if source != "simplex":
        try:
            if rng.random() < 0.3:
                return cxm.constructive_vd_full(P, lab)
            bound, _ = lb.min_chain_complexity(P, lab)
            return cxm.constructive_vd_skeleton(P, lab,
                                                rng.randint(1, max(1, bound)))
        except LatshellError:
            pass
    names = tuple(f"s{i}" for i in range(rng.randint(2, 6)))
    t = rng.randint(-1, len(names) - 2)
    return simplex_complex(names).skeleton(t), cert_simplex_skeleton(names, t)


def _paths(cert):
    """The path (a tuple of "deletion" and "link" steps) of every node of
    ``cert``, in preorder."""
    out, stack = [], [(cert, ())]
    while stack:
        node, path = stack.pop()
        out.append(path)
        if isinstance(node, VDNode):
            stack.append((node.link, path + ("link",)))
            stack.append((node.deletion, path + ("deletion",)))
    return out


def _at(cert, path):
    for step in path:
        cert = getattr(cert, step)
    return cert


def _replaced(cert, path, new):
    """``cert`` with the node at ``path`` replaced by ``new``."""
    if not path:
        return new
    rest = _replaced(getattr(cert, path[0]), path[1:], new)
    if path[0] == "deletion":
        return VDNode(cert.vertex, rest, cert.link)
    return VDNode(cert.vertex, cert.deletion, rest)


def corrupted_case(rng, kind):
    """A complex and a certificate corrupted by ``kind``: a node's vertex
    swapped for another vertex of the node's complex (``swap``) or for a
    name outside the complex (``outside``), a node cut to a leaf
    (``leaf``) or to something that is no node (``unexpected``), or the
    complex given an unused last vertex that a new root sheds
    (``padded``)."""
    cx, cert = _certified(rng)
    if kind == "padded":
        return (SimplicialComplex(cx.vertices + ("pad",), cx.facets),
                VDNode("pad", cert, VDLeaf()))
    nodes = [(path, sub) for path, (node, sub, _) in
             zip(_paths(cert), _reference_vd_walk(cert, cx))
             if isinstance(node, VDNode)]
    if kind == "none" or not nodes:
        return cx, cert
    path, sub = rng.choice(nodes)
    node = _at(cert, path)
    if kind in ("swap", "outside"):
        others = [u for u in sub.vertices if u != node.vertex]
        vertex = rng.choice(others) if kind == "swap" and others else "zz"
        return cx, _replaced(cert, path, VDNode(vertex, node.deletion, node.link))
    return cx, _replaced(cert, path, VDLeaf() if kind == "leaf" else ("junk",))


def _outcome(fn, *args):
    """The value of a call, or the type and message of the error it
    raised."""
    try:
        return "value", fn(*args)
    except LatshellError as exc:
        return type(exc).__name__, str(exc)


def _readings(validate, shelling, cert, cx):
    return _outcome(validate, cert, cx), _outcome(shelling, cert, cx)


@given(st.randoms(use_true_random=False), st.sampled_from(CORRUPTIONS))
@settings(max_examples=200, deadline=None)
def test_readers_match_the_compacting_walk(rng, kind):
    cx, cert = corrupted_case(rng, kind)
    assert (_readings(validate_vd_certificate, shelling_from_vd, cert, cx)
            == _readings(reference_validate_vd_certificate,
                         reference_shelling_from_vd, cert, cx))


def test_corrupted_cases_reach_every_failure():
    """Over fixed seeds the corruptions reach each failure the readers can
    give, the link of an unused root vertex among them."""
    seen = set()
    for seed in range(120):
        rng = random.Random(seed)
        cx, cert = corrupted_case(rng, CORRUPTIONS[seed % len(CORRUPTIONS)])
        for kind, value in _readings(reference_validate_vd_certificate,
                                     reference_shelling_from_vd, cert, cx):
            seen.add(kind if kind == "value" else
                     next(f"{kind}: {m}" for m in FAILURES if m in value))
    assert seen == {"value"} | {f"{kind}: {m}" for m in FAILURES
                                for kind in ("InvalidCertificate", "NotAFace")
                                if (kind == "NotAFace") == (m == "is not a face")}


FAILURES = ("leaf complex is not a simplex", "not in complex",
            "unexpected node", "is not a shedding vertex", "is not a face")


def _deep_certificate(n):
    """The certificate of the n points of ``wide_lattice(n)`` at its bound,
    which sheds a<n>, ..., a2 in turn, each link the empty complex."""
    L, _ = wide_lattice(n)
    lab = lb.left_modular_labeling(
        L, verify_chain_modularity(L, ["0", "a1", "1"]))
    return cxm.constructive_vd_skeleton(L.poset, lab, 2)[1]


def _deletion_chain(vertices):
    """The certificate that sheds ``vertices`` in turn, each link and the
    last deletion a leaf, built from the bottom up."""
    cert = VDLeaf()
    for v in reversed(vertices):
        cert = VDNode(v, cert, VDLeaf())
    return cert


def test_deep_certificate_repr_eq_and_hash():
    """The 600-point certificate of ``test_long_deletion_chain_is_walked_in_a_loop``
    has a deletion chain 599 deep; its ``repr`` is the dataclass form, and
    ``==`` and ``hash`` read it without recursion."""
    cert = _deep_certificate(600)
    shed = [f"a{i}" for i in range(600, 1, -1)]
    assert repr(cert) == ("".join(f"VDNode(vertex={v!r}, deletion=" for v in shed)
                          + "VDLeaf()" + ", link=VDLeaf())" * len(shed))
    same = _deletion_chain(shed)
    assert same is not cert and same == cert and hash(same) == hash(cert)
    other = _deletion_chain(shed[:-1] + ["b2"])
    assert other != cert and not other == cert
    assert cert != VDLeaf() and VDLeaf() == VDLeaf()
    assert len({cert, same, other}) == 2


def test_repr_eq_and_hash_are_the_dataclass_forms():
    """On a small certificate with nested links, a non-node field and a
    vertex that needs quoting, the explicit-stack forms give what the
    dataclass would: the recursive repr and the field tuple."""
    inner = VDNode("b'c", VDLeaf(), VDNode("d", VDLeaf(), VDLeaf()))
    cert = VDNode("a", inner, VDNode(3, ("junk",), VDLeaf()))
    assert repr(cert) == (
        "VDNode(vertex='a', deletion=VDNode(vertex=\"b'c\", deletion=VDLeaf(), "
        "link=VDNode(vertex='d', deletion=VDLeaf(), link=VDLeaf())), "
        "link=VDNode(vertex=3, deletion=('junk',), link=VDLeaf()))")
    twin = VDNode("a", VDNode("b'c", VDLeaf(), VDNode("d", VDLeaf(), VDLeaf())),
                  VDNode(3, ("junk",), VDLeaf()))
    assert twin == cert and hash(twin) == hash(cert)
    assert VDNode("a", VDLeaf(), VDLeaf()) != VDNode("a", VDLeaf(), ("junk",))
    assert (VDNode("a", VDLeaf(), VDLeaf()) == "a") is False
