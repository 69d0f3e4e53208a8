import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshell import (
    chain_stats,
    connectivity_lower_bound,
    descending_equals_complements,
    homology_consistency,
    left_modular_labeling,
    minimal_skipped_intervals,
    verify_skipped_interval_rules,
    weakly_descending_chains,
)
from latshell.errors import NotMaximal, SizeLimit
from latshell.labeling import EdgeLabeling
from latshell.morse import _ordered_chains
from latshell.poset import Poset

import morse_oracles as oracle
from conftest import b2_poset, subset_poset
from test_labeling import std_el_labeling
from test_labeling_oracles import random_labeling
from test_lattice_oracles import random_poset


def _all_msis_match_oracle(P, lab):
    ordered = oracle._ordered_chains(P, lab)
    for chain in ordered:
        assert (minimal_skipped_intervals(P, lab, chain)
                == oracle.minimal_skipped_intervals(P, lab, chain, ordered)), chain


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_msis_match_the_brute_force(rng):
    P = random_poset(rng)
    _all_msis_match_oracle(P, random_labeling(rng, P))


def test_msis_match_the_brute_force_on_ls4(gl_s4):
    # L(S4) is not graded: its maximal chains have lengths 3 and 4
    L = gl_s4.lattice
    _all_msis_match_oracle(L.poset, left_modular_labeling(L, gl_s4.chief))


@pytest.mark.parametrize("chain", [("0", "c", "b", "1"), ("0", "b", "1"),
                                   ("0", "x", "1"), ()])
def test_msis_refuse_what_is_not_a_maximal_chain(n5, chain):
    # a non-chain, a chain that is not maximal, an unknown name, no name;
    # chain_stats checks its chain with the same routine
    P, L, m = n5
    lab = left_modular_labeling(L, m)
    for fn in (minimal_skipped_intervals, chain_stats):
        with pytest.raises(NotMaximal) as info:
            fn(P, lab, chain)
        assert str(info.value) == f"{chain!r} is not a maximal chain"


def test_lex_first_chain_is_degenerate(n5):
    P, L, m = n5
    lab = left_modular_labeling(L, m)
    first = _ordered_chains(P, lab)[0]
    assert first == ("0", "b", "c", "1")
    msis = minimal_skipped_intervals(P, lab, first)
    assert len(msis) == 1 and msis[0].degenerate
    assert msis[0].elements == first


def test_chain_limit_names_count_limit_and_flag(b3):
    P, L, m = b3
    lab = left_modular_labeling(L, m)
    assert len(_ordered_chains(P, lab, limit=6)) == 6
    with pytest.raises(SizeLimit) as info:
        _ordered_chains(P, lab, limit=5)
    assert str(info.value) == ("poset has 6 maximal chains, more than the "
                               "chain limit 5; raise it with --limit-chains")


def test_chain_limit_refuses_before_enumerating(monkeypatch):
    P = subset_poset(9)
    lab = EdgeLabeling({c: 1 for c in P.covers()})

    def enumerate_chains(*args):
        raise AssertionError("chains enumerated before the limit check")

    monkeypatch.setattr(Poset, "maximal_chains_idx", enumerate_chains)
    with pytest.raises(SizeLimit) as info:
        weakly_descending_chains(P, lab)
    assert str(info.value) == ("poset has 362880 maximal chains, more than "
                               "the chain limit 20000; raise it with "
                               "--limit-chains")


def test_n5_descent_is_length0_msi(n5):
    P, L, m = n5
    lab = left_modular_labeling(L, m)
    msis = minimal_skipped_intervals(P, lab, ("0", "a", "1"))
    assert [(s.i, s.j) for s in msis] == [(1, 1)]
    assert msis[0].elements == ("a",)


def test_b3_descent_singletons(b3):
    P, _, _ = b3
    lab = std_el_labeling(P)
    ordered = _ordered_chains(P, lab)
    for chain in ordered[1:]:
        seq = lab.sequence(chain)
        descents = [k for k in range(1, len(seq))
                    if seq[k - 1] > seq[k]]
        msis = minimal_skipped_intervals(P, lab, chain)
        pairs = {(s.i, s.j) for s in msis}
        for k in descents:
            assert (k, k) in pairs


def test_skipped_interval_rules_on_suite(suite_labelings):
    for name, P, L, m, lab in suite_labelings:
        assert verify_skipped_interval_rules(P, lab) == [], name


def test_skipped_interval_rules_negative_control():
    P = b2_poset()
    bad = EdgeLabeling({("0", "a"): 1, ("a", "1"): 2,
                        ("0", "b"): 1, ("b", "1"): 2})
    violations = verify_skipped_interval_rules(P, bad)
    assert violations and all(v.rule == "ascent-clear" for v in violations)

    const = EdgeLabeling({c: 1 for c in P.covers()})
    assert verify_skipped_interval_rules(P, const) == []


def test_weakly_descending_chains(n5, m3, b3):
    P, L, m = n5
    lab = left_modular_labeling(L, m)
    data = weakly_descending_chains(P, lab)
    assert [(d.chain, d.dimension_bound) for d in data] == [(("0", "a", "1"), 0)]

    PM, LM, mc = m3
    data = weakly_descending_chains(PM, left_modular_labeling(LM, mc))
    assert sorted(d.chain for d in data) == [("0", "b", "1"), ("0", "c", "1")]
    assert all(d.labels == (2, 1) and d.dimension_bound == 0 for d in data)

    P3, _, _ = b3
    data = weakly_descending_chains(P3, std_el_labeling(P3))
    assert len(data) == 1
    assert data[0].labels == (3, 2, 1) and data[0].dimension_bound == 1


def test_improved_bound_matches_statistics(suite_labelings):
    # strict descents are the length-0 skipped intervals; the remaining
    # pieces of the chain count the repeated labels
    for name, P, L, m, lab in suite_labelings:
        for d in weakly_descending_chains(P, lab):
            assert d.msi_length0 == d.ell0 - 1, (name, d)
            assert d.components_after_deletion == d.ell1, (name, d)
            assert d.dimension_bound == \
                d.msi_length0 + d.components_after_deletion - 1


def test_connectivity_bounds(n5, m3, b3):
    P, L, m = n5
    assert connectivity_lower_bound(P, left_modular_labeling(L, m)) == -1
    PM, LM, mc = m3
    assert connectivity_lower_bound(PM, left_modular_labeling(LM, mc)) == -1
    P3, _, _ = b3
    assert connectivity_lower_bound(P3, std_el_labeling(P3)) == 0


def test_descending_equals_complements(n5, m3, gl_s3):
    P, L, m = n5
    cmp_ = descending_equals_complements(L, m, left_modular_labeling(L, m))
    assert cmp_.ok
    assert cmp_.descending == ((("0", "a", "1")),)

    PM, LM, mc = m3
    labM = left_modular_labeling(LM, mc)
    cmp_ = descending_equals_complements(LM, mc, labM)
    assert cmp_.ok
    assert {c[1] for c in cmp_.descending} == {"b", "c"}

    GL = gl_s3
    lab = left_modular_labeling(GL.lattice, GL.chief)
    cmp_ = descending_equals_complements(GL.lattice, GL.chief, lab)
    assert cmp_.ok and len(cmp_.descending) == 3


def test_homology_consistency(suite_labelings):
    for name, P, L, m, lab in suite_labelings:
        report = homology_consistency(P, lab)
        assert report.consistent, name
        total = sum(v for v in report.betti.values() if v > 0)
        assert total <= len(report.descending), name


def test_homology_consistency_values(n5, m3, b3):
    P, L, m = n5
    rep = homology_consistency(P, left_modular_labeling(L, m))
    assert rep.betti[0] == 1 and rep.census == {0: 1}

    PM, LM, mc = m3
    rep = homology_consistency(PM, left_modular_labeling(LM, mc))
    assert rep.betti[0] == 2 and rep.census == {0: 2}

    P3, _, _ = b3
    rep = homology_consistency(P3, std_el_labeling(P3))
    assert rep.betti[1] == 1 and rep.census == {1: 1}
