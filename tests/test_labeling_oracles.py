"""The labeling verifiers against the interval-based oracles in
``labeling_oracles``, over random bounded posets of sets with labels in
1..3 on the covers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshell import labeling as lb
from latshell.errors import NotComparable, UnknownElement

import labeling_oracles as oracle
from test_lattice_oracles import random_poset


def random_labeling(rng, P) -> lb.EdgeLabeling:
    return lb.EdgeLabeling({c: rng.randint(1, 3) for c in P.covers()})


def rooted(lab: lb.EdgeLabeling) -> lb.RootedLabeling:
    """A chain-edge labeling that depends on the root as well as the cover."""
    return lb.RootedLabeling(
        lambda root, cover: (lab.label(*cover) + len(root)) % 3 + 1)


def _whole(res):
    """A result with its spines in the order they were found."""
    return res.ok, list(res.spines.items()), res.violations


def _outcome(fn, *args, **kwargs):
    try:
        return "value", fn(*args, **kwargs)
    except (UnknownElement, NotComparable) as exc:
        return type(exc).__name__, str(exc)


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_verifiers_match_interval_oracles(rng):
    P = random_poset(rng)
    lab = random_labeling(rng, P)
    for name in ("verify_quasi_el", "verify_el"):
        got = getattr(lb, name)(P, lab)
        assert _whole(got) == _whole(getattr(oracle, name)(P, lab)), name
    rlab = rooted(lab)
    assert (_whole(lb.verify_quasi_cl(P, rlab))
            == _whole(oracle.verify_quasi_cl(P, rlab)))
    assert lb.first_label_separation(P, lab) == oracle.first_label_separation(P, lab)
    names = list(P.elements) + ["nowhere"]
    pair = (rng.choice(names), rng.choice(names))
    assert (_outcome(lb.first_label_separation, P, lab, pair=pair)
            == _outcome(oracle.first_label_separation, P, lab, pair=pair))


def test_random_labelings_reach_every_outcome():
    """The random inputs above are not vacuous: over a fixed sample, both
    verdicts and every violation kind occur, relaxed and strict."""
    rng = random.Random(5)
    seen = {"quasi": set(), "strict": set()}
    for _ in range(200):
        P = random_poset(rng)
        lab = random_labeling(rng, P)
        for key, fn in (("quasi", lb.verify_quasi_el), ("strict", lb.verify_el)):
            res = fn(P, lab)
            seen[key].add(res.ok)
            seen[key].update(v.kind for v in res.violations)
    every = {True, False, "no_ascending_chain", "two_spines", "lex_order"}
    assert seen["quasi"] == every
    assert seen["strict"] == every


@pytest.mark.parametrize("pair, error", [(("nowhere", "1"), UnknownElement),
                                         (("a", "b"), NotComparable)])
def test_separation_pair_errors(b2, pair, error):
    P = b2[0]
    lab = lb.EdgeLabeling({c: 1 for c in P.covers()})
    with pytest.raises(error) as got:
        lb.first_label_separation(P, lab, pair=pair)
    with pytest.raises(error) as expected:
        oracle.first_label_separation(P, lab, pair=pair)
    assert str(got.value) == str(expected.value)


