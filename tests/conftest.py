"""Shared fixtures: the canonical small lattices and subgroup lattices."""

from __future__ import annotations

import itertools

import pytest

from latshell import (
    build_poset,
    lattice_check,
    left_modular_labeling,
    maximal_chains,
    subgroup_lattice,
    verify_chain_modularity,
)
from latshell import groups as gm


def chain3_poset():
    return build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")])


def b2_poset():
    return build_poset(["0", "a", "b", "1"],
                       [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def subset_poset(n: int):
    """The lattice of subsets of {1..n}, elements named by their digits."""
    elements = ["e"] + ["".join(map(str, c))
                        for k in range(1, n + 1)
                        for c in itertools.combinations(range(1, n + 1), k)]

    def digits(name):
        return set() if name == "e" else set(name)

    covers = [(a, b) for a in elements for b in elements
              if digits(a) < digits(b) and len(digits(b)) == len(digits(a)) + 1]
    return build_poset(elements, covers)


def m3_poset():
    return build_poset(["0", "a", "b", "c", "1"],
                       [("0", "a"), ("0", "b"), ("0", "c"),
                        ("a", "1"), ("b", "1"), ("c", "1")])


def n5_poset():
    return build_poset(["0", "a", "b", "c", "1"],
                       [("0", "a"), ("a", "1"),
                        ("0", "b"), ("b", "c"), ("c", "1")])


def pi4_poset():
    """Partitions of {1,2,3,4} under refinement, finest at the bottom."""

    def parts(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for p in parts(rest):
            for i in range(len(p)):
                yield p[:i] + [[first] + p[i]] + p[i + 1:]
            yield [[first]] + p

    def name(p):
        return "|".join("".join(map(str, sorted(b)))
                        for b in sorted(p, key=min))

    names = sorted({name(p) for p in parts([1, 2, 3, 4])},
                   key=lambda s: (-s.count("|"), s))

    def blocks(s):
        return [set(b) for b in s.split("|")]

    def finer(a, b):
        return all(any(ba <= bb for bb in blocks(b)) for ba in blocks(a))

    covers = [(a, b) for a in names for b in names
              if a != b and finer(a, b)
              and len(blocks(a)) == len(blocks(b)) + 1]
    return build_poset(names, covers)


def divisor_poset(n: int):
    """The divisors of n under divisibility, with the chain 1 < p1 < p1 p2
    < ... < n that multiplies in the prime factors in increasing order."""
    divs = [d for d in range(1, n + 1) if n % d == 0]
    primes = [p for p in range(2, n + 1)
              if n % p == 0 and all(p % q for q in range(2, p))]
    covers = [(str(d), str(d * p)) for d in divs for p in primes
              if n % (d * p) == 0]
    chain = [1]
    for p in primes:
        while n % (chain[-1] * p) == 0:
            chain.append(chain[-1] * p)
    return build_poset([str(d) for d in divs], covers), [str(d) for d in chain]


def left_modular_maximal_chains(L):
    """Maximal chains of the lattice that verify as left-modular."""
    from latshell import classify_modularity
    from latshell.lattice import ModularChain

    reports = {x: classify_modularity(L, x) for x in L.elements}
    out = []
    for c in maximal_chains(L.poset):
        if all(reports[x].left_modular for x in c.elements):
            kind = ("two-sided-modular"
                    if all(reports[x].modular for x in c.elements)
                    else "left-modular")
            out.append(ModularChain(c.elements, kind))
    return out


@pytest.fixture(scope="session")
def chain3():
    P = chain3_poset()
    L = lattice_check(P)
    return P, L, verify_chain_modularity(L, ["0", "a", "1"])


@pytest.fixture(scope="session")
def b2():
    P = b2_poset()
    L = lattice_check(P)
    return P, L, verify_chain_modularity(L, ["0", "a", "1"])


@pytest.fixture(scope="session")
def b3():
    P = subset_poset(3)
    L = lattice_check(P)
    return P, L, verify_chain_modularity(L, ["e", "1", "12", "123"])


@pytest.fixture(scope="session")
def m3():
    P = m3_poset()
    L = lattice_check(P)
    return P, L, verify_chain_modularity(L, ["0", "a", "1"])


@pytest.fixture(scope="session")
def n5():
    P = n5_poset()
    L = lattice_check(P)
    return P, L, verify_chain_modularity(L, ["0", "b", "c", "1"])


@pytest.fixture(scope="session")
def pi4():
    P = pi4_poset()
    L = lattice_check(P)
    return P, L, verify_chain_modularity(
        L, ["1|2|3|4", "12|3|4", "123|4", "1234"])


@pytest.fixture(scope="session")
def gl_s3():
    return subgroup_lattice(gm.symmetric(3))


@pytest.fixture(scope="session")
def gl_s4():
    return subgroup_lattice(gm.symmetric(4))


@pytest.fixture(scope="session")
def gl_a4():
    return subgroup_lattice(gm.alternating(4))


@pytest.fixture(scope="session")
def gl_a5():
    return subgroup_lattice(gm.alternating(5))


@pytest.fixture(scope="session")
def gl_s5():
    return subgroup_lattice(gm.symmetric(5))


@pytest.fixture(scope="session")
def suite(chain3, b2, b3, m3, n5, pi4, gl_s3, gl_a4, gl_s4):
    """The canonical lattice suite: (name, poset, lattice, designated chain)."""
    rows = [("chain3",) + chain3, ("b2",) + b2, ("b3",) + b3,
            ("m3",) + m3, ("n5",) + n5, ("pi4",) + pi4]
    for name, gl in (("L(S3)", gl_s3), ("L(A4)", gl_a4), ("L(S4)", gl_s4)):
        rows.append((name, gl.lattice.poset, gl.lattice, gl.chief))
    return rows


@pytest.fixture(scope="session")
def suite_labelings(suite):
    """(name, poset, lattice, chain, labeling) for the designated chains."""
    return [(name, P, L, m, left_modular_labeling(L, m))
            for name, P, L, m in suite]
