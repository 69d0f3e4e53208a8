import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshell import (
    build_poset,
    chain_stats,
    first_label_separation,
    geometric_atom_labeling,
    interval,
    is_graded,
    left_modular_labeling,
    maximal_chains,
    min_chain_complexity,
    refine_to_el,
    verify_chain_modularity,
    verify_el,
    verify_quasi_cl,
    verify_quasi_el,
)
from latshell.errors import (
    ChainNotValidated,
    IncompatiblePosets,
    NoAtomGenerates,
    NotMaximal,
    SizeLimit,
)
from latshell.labeling import (
    AscentSpine,
    EdgeLabeling,
    RootedLabeling,
    interval_spine,
    stats_of_sequence,
)

from latshell import labeling as lb
from latshell.poset import Poset

from conftest import b2_poset, subset_poset


def std_el_labeling(P):
    """Label each subset-lattice cover with the added digit."""
    labels = {}
    for a, b in P.covers():
        added = (set(b) - (set() if a == "e" else set(a))).pop()
        labels[(a, b)] = int(added)
    return EdgeLabeling(labels)


def test_left_modular_labeling_values(n5, m3, chain3):
    _, L, m = n5
    lab = left_modular_labeling(L, m)
    assert lab.labels == {("0", "b"): 1, ("b", "c"): 2, ("c", "1"): 3,
                          ("0", "a"): 3, ("a", "1"): 1}

    _, LM, mc = m3
    lab = left_modular_labeling(LM, mc)
    assert lab.labels == {("0", "a"): 1, ("a", "1"): 2,
                          ("0", "b"): 2, ("0", "c"): 2,
                          ("b", "1"): 1, ("c", "1"): 1}

    _, L3, m3c = chain3
    lab = left_modular_labeling(L3, m3c)
    assert lab.labels == {("0", "a"): 1, ("a", "1"): 2}


def test_left_modular_labeling_requires_validated_chain(n5):
    _, L, _ = n5
    with pytest.raises(ChainNotValidated):
        left_modular_labeling(L, ["0", "b", "c", "1"])


def test_verify_quasi_el_on_suite(suite_labelings):
    for name, P, L, m, lab in suite_labelings:
        res = verify_quasi_el(P, lab)
        assert res.ok, (name, res.violations[:1])


def test_n5_spine(n5):
    P, L, m = n5
    lab = left_modular_labeling(L, m)
    res = verify_quasi_el(P, lab)
    spine = res.spines[("0", "1")]
    assert spine.elements == ("0", "b", "c", "1")
    assert spine.alphas == (1, 2, 3)


def test_standard_el_is_quasi_el(b3):
    P, _, _ = b3
    lab = std_el_labeling(P)
    assert verify_el(P, lab).ok
    assert verify_quasi_el(P, lab).ok


def test_two_ascending_chains_fail():
    P = b2_poset()
    lab = EdgeLabeling({("0", "a"): 1, ("a", "1"): 2,
                        ("0", "b"): 1, ("b", "1"): 2})
    res = verify_quasi_el(P, lab)
    assert not res.ok
    assert res.violations[0].kind == "two_spines"
    assert res.violations[0].interval == ("0", "1")


def test_no_ascending_chain_fails():
    P = build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")])
    lab = EdgeLabeling({("0", "a"): 2, ("a", "1"): 1})
    res = verify_quasi_el(P, lab)
    assert not res.ok
    assert res.violations[0].kind == "no_ascending_chain"


def test_lex_order_violation():
    # a unique ascending chain that does not come lexicographically first
    P = b2_poset()
    lab = EdgeLabeling({("0", "a"): 2, ("a", "1"): 3,
                        ("0", "b"): 2, ("b", "1"): 1})
    res = verify_quasi_el(P, lab)
    assert not res.ok
    assert {v.kind for v in res.violations} == {"lex_order"}


def test_chain_stats(n5, b3):
    P, L, m = n5
    lab = left_modular_labeling(L, m)
    st_ = chain_stats(P, lab, ("0", "a", "1"))
    assert (st_.ell0, st_.ell1) == (2, 0)
    assert st_.weakly_descending and not st_.weakly_ascending
    assert st_.descents == ("a",)

    st_ = stats_of_sequence(("w", "x", "y", "z"), (1, 1, 2))
    assert (st_.ell0, st_.ell1) == (2, 1)
    assert st_.weakly_ascending

    with pytest.raises(NotMaximal):
        chain_stats(P, lab, ("0", "b", "1"))
    with pytest.raises(NotMaximal):
        chain_stats(P, lab, ("0", "a"))

    P3, _, _ = b3
    st_ = chain_stats(P3, std_el_labeling(P3), ("e", "1", "12", "123"))
    assert (st_.ell0, st_.ell1) == (3, 0)


def test_min_chain_complexity(n5, b3, m3):
    P, L, m = n5
    lab = left_modular_labeling(L, m)
    r, witness = min_chain_complexity(P, lab)
    assert r == 2 and witness.elements == ("0", "a", "1")

    P3, L3, m3c = b3
    assert min_chain_complexity(P3, left_modular_labeling(L3, m3c))[0] == 3

    PM, LM, mc = m3
    assert min_chain_complexity(PM, left_modular_labeling(LM, mc))[0] == 2


def test_refine_to_el(b3, m3):
    P, L, _ = b3
    q = left_modular_labeling(L, verify_chain_modularity(L, ["e", "1", "123"]))
    r = std_el_labeling(P)
    refined = refine_to_el(q, r)
    assert verify_el(P, refined).ok

    diag = refine_to_el(r, r)
    assert verify_el(P, diag).ok
    for c in maximal_chains(P):
        assert stats_of_sequence(c.elements, diag.sequence(c.elements)).ascents \
            == stats_of_sequence(c.elements, r.sequence(c.elements)).ascents

    PM, LM, mc = m3
    q = left_modular_labeling(LM, mc)
    atom = geometric_atom_labeling(LM, ["a", "b", "c"])
    refined = refine_to_el(q, atom)
    assert verify_el(PM, refined).ok
    for c in maximal_chains(PM):
        st_pair = stats_of_sequence(c.elements, refined.sequence(c.elements))
        st_atom = stats_of_sequence(c.elements, atom.sequence(c.elements))
        assert st_pair.ascents == st_atom.ascents
        assert st_pair.descents == st_atom.descents

    with pytest.raises(IncompatiblePosets):
        refine_to_el(q, r)


def test_geometric_atom_labeling(b3, m3, chain3):
    _, L, _ = b3
    lab = geometric_atom_labeling(L, ["1", "2", "3"])
    assert lab.label("e", "2") == 2
    assert verify_el(L.poset, lab).ok

    _, LM, _ = m3
    lab = geometric_atom_labeling(LM, ["a", "b", "c"])
    assert lab.label("b", "1") == 1

    _, L3, _ = chain3
    with pytest.raises(NoAtomGenerates):
        geometric_atom_labeling(L3, ["a"])


def test_first_label_separation(n5, m3, b3):
    P, L, m = n5
    lab = left_modular_labeling(L, m)
    assert first_label_separation(P, lab) == []
    assert lab.label("0", "b") < lab.label("0", "a")

    PM, LM, mc = m3
    labM = left_modular_labeling(LM, mc)
    assert first_label_separation(PM, labM) == []
    assert labM.label("0", "a") < labM.label("0", "b")

    P3, _, _ = b3
    assert first_label_separation(P3, std_el_labeling(P3)) == []


def test_spine_formula_matches_lemma(suite_labelings):
    # the spine of [x, y] is the chain of x v (m_i ^ y)
    for name, P, L, m, lab in suite_labelings:
        res = verify_quasi_el(P, lab)
        assert res.ok
        for (x, y), spine in res.spines.items():
            expected = []
            for mi in m.elements:
                v = L.join(x, L.meet(mi, y))
                if not expected or expected[-1] != v:
                    expected.append(v)
            assert spine.elements == tuple(expected), (name, x, y)


def test_spine_extensions_weakly_ascending(suite_labelings):
    for name, P, L, m, lab in suite_labelings:
        res = verify_quasi_el(P, lab)
        for (x, y), spine in res.spines.items():
            sub = interval(P, x, y)
            for c in maximal_chains(sub):
                if set(spine.elements) <= set(c.elements):
                    st_ = stats_of_sequence(c.elements, lab.sequence(c.elements))
                    assert st_.weakly_ascending, (name, x, y, c.elements)


def test_projection_separates_cover_images(suite_labelings):
    # label i on x < y forces (m_{i-1} v x) ^ m_i < (m_{i-1} v y) ^ m_i
    for name, P, L, m, lab in suite_labelings:
        for (x, y), i in lab.labels.items():
            lo, hi = m.elements[i - 1], m.elements[i]
            px = L.meet(L.join(lo, x), hi)
            py = L.meet(L.join(lo, y), hi)
            assert px != py and L.leq(px, py), (name, x, y)


def test_graded_label_multiplicities(suite_labelings):
    # graded case: each chain carries label i exactly length[m_{i-1}, m_i] times
    for name, P, L, m, lab in suite_labelings:
        verdict = is_graded(P)
        if not verdict.graded:
            continue
        rank = verdict.rank
        gaps = {i: rank[m.elements[i]] - rank[m.elements[i - 1]]
                for i in range(1, len(m.elements))}
        s = sum(1 for g in gaps.values() if g >= 2)
        for c in maximal_chains(P):
            seq = lab.sequence(c.elements)
            st_ = stats_of_sequence(c.elements, seq)
            assert st_.ell0 == m.r and st_.ell1 == s, (name, c.elements)
            for i, g in gaps.items():
                assert seq.count(i) == g, (name, c.elements, i)


def test_degenerate_poset_statistics():
    P = build_poset(["x"], [])
    lab = EdgeLabeling({})
    st_ = chain_stats(P, lab, ("x",))
    assert (st_.ell0, st_.ell1) == (0, 0)
    assert st_.labels == ()
    assert st_.weakly_ascending and st_.weakly_descending


def test_interval_spine_wrapper(n5):
    P, L, m = n5
    lab = left_modular_labeling(L, m)
    spine = interval_spine(P, lab)
    assert isinstance(spine, AscentSpine)
    assert spine.elements == ("0", "b", "c", "1")


def _labelled_chain(labels):
    """The chain c0 < c1 < ... with the cover c_i < c_i+1 labelled
    ``labels[i]``."""
    names = [f"c{i}" for i in range(len(labels) + 1)]
    covers = list(zip(names, names[1:]))
    return build_poset(names, covers), EdgeLabeling(dict(zip(covers, labels)))


def test_spine_merges_constant_runs():
    P, lab = _labelled_chain([1, 1, 2, 2, 3])
    spine = interval_spine(P, lab)
    assert spine.elements == ("c0", "c2", "c4", "c5")
    assert spine.alphas == (1, 2, 3)


def test_spine_tie_keeps_earliest_element():
    # f0 < f1 < f2 < f3 labelled 1, 1, 1, and f0 < z < f3 labelled 2, 0.
    # The gap (f0, f3) holds z's labels; (f0, f1, f3) and (f0, f2, f3) are
    # both constant with two gaps, and the earlier f1 is kept.
    P = build_poset(["f0", "f1", "f2", "f3", "z"],
                    [("f0", "f1"), ("f1", "f2"), ("f2", "f3"),
                     ("f0", "z"), ("z", "f3")])
    lab = EdgeLabeling({("f0", "f1"): 1, ("f1", "f2"): 1, ("f2", "f3"): 1,
                        ("f0", "z"): 2, ("z", "f3"): 0})
    spine = interval_spine(P, lab)
    assert spine.elements == ("f0", "f1", "f3")
    assert spine.alphas == (1, 1)
    assert verify_quasi_el(P, lab).ok


def test_long_increasing_chain_is_quasi_el():
    """Every interval's only spine is its whole chain; a search over
    subsets of the interior would try 2^98 candidates on the longest."""
    P, lab = _labelled_chain(list(range(99)))
    res = verify_quasi_el(P, lab)
    assert res.ok and len(res.spines) == 4950
    assert res.spines[("c0", "c99")].elements == P.elements


def test_rooted_verification_matches_edge_case(n5, m3):
    for P, L, m in (n5, m3):
        lab = left_modular_labeling(L, m)
        rooted = RootedLabeling.from_edge_labeling(lab)
        assert verify_quasi_cl(P, rooted).ok == verify_quasi_el(P, lab).ok

    P = b2_poset()
    bad = EdgeLabeling({("0", "a"): 1, ("a", "1"): 2,
                        ("0", "b"): 1, ("b", "1"): 2})
    assert not verify_quasi_cl(P, RootedLabeling.from_edge_labeling(bad)).ok


def test_rooted_verification_refuses_large_posets(b3):
    P, L, m = b3
    rooted = RootedLabeling.from_edge_labeling(left_modular_labeling(L, m))
    with pytest.raises(SizeLimit) as exc:
        verify_quasi_cl(P, rooted, max_elements=7)
    assert str(exc.value) == ("poset has 8 elements, more than the rooted "
                              "element limit 7")
    assert verify_quasi_cl(P, rooted, max_elements=8).ok


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=7))
@settings(max_examples=200, deadline=None)
def test_stats_properties(seq):
    elems = tuple(f"x{i}" for i in range(len(seq) + 1))
    st_ = stats_of_sequence(elems, tuple(seq))
    assert 1 <= st_.ell0 <= len(seq)
    assert 0 <= st_.ell1 <= st_.ell0
    assert st_.weakly_ascending == (len(st_.descents) == 0)
    assert st_.weakly_descending == (len(st_.ascents) == 0)
    assert len(st_.ascents) + len(st_.descents) <= len(seq) - 1


def test_verifiers_walk_once_per_lower_end(pi4, monkeypatch):
    """On B4 and Pi4 the verifiers read every interval off one walk per
    lower end (every element but the top), with no interval walk."""
    calls = {"walks": 0, "intervals": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lb, "_label_walk", counted("walks", lb._label_walk))
    monkeypatch.setattr(Poset, "maximal_chains_idx",
                        counted("intervals", Poset.maximal_chains_idx))
    P4, L4, m4 = pi4
    B4 = subset_poset(4)
    for P, lab in ((B4, std_el_labeling(B4)), (P4, left_modular_labeling(L4, m4))):
        for verify in (verify_quasi_el, verify_el):
            calls.update(walks=0, intervals=0)
            assert verify(P, lab).ok
            assert calls == {"walks": P.n - 1, "intervals": 0}
