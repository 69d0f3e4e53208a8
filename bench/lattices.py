"""Input generators for the benchmark: lattices, permutation groups, and the
seeded shuffles and relabellings applied to them.

Nothing here imports latshell, so every size and theory value below is
independent of the program under test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Sizes:
    """Counted facts of a lattice."""

    elements: int
    covers: int
    pairs: int     # pairs x < y
    chains: int    # maximal chains
    rank: int      # length of the designated maximal chain


@dataclass(frozen=True)
class LatticeSpec:
    """A bounded lattice as element ids and cover pairs, plus a maximal
    left-modular chain given bottom to top."""

    name: str
    elements: tuple
    covers: tuple
    chain: tuple

    @property
    def rank(self) -> int:
        return len(self.chain) - 1

    def strict_pairs(self) -> int:
        """Number of pairs x < y, from the transitive closure of the covers."""
        up = {e: set() for e in self.elements}
        for x, y in self.covers:
            up[x].add(y)
        memo = {}

        def above(x):
            if x not in memo:
                out = set()
                for y in up[x]:
                    out.add(y)
                    out |= above(y)
                memo[x] = out
            return memo[x]

        return sum(len(above(e)) for e in self.elements)

    def maximal_chains(self) -> int:
        """Number of maximal chains, by dynamic programming over covers."""
        up = {e: [] for e in self.elements}
        for x, y in self.covers:
            up[x].append(y)
        memo = {}

        def count(x):
            if x not in memo:
                memo[x] = 1 if not up[x] else sum(count(y) for y in up[x])
            return memo[x]

        return count(self.chain[0])

    def sizes(self) -> Sizes:
        return Sizes(len(self.elements), len(self.covers), self.strict_pairs(),
                     self.maximal_chains(), self.rank)


def order_complex_facets(spec: LatticeSpec) -> list:
    """Facets of the order complex: maximal chains minus bottom and top."""
    up = {e: [] for e in spec.elements}
    for x, y in spec.covers:
        up[x].append(y)
    bottom, top = spec.chain[0], spec.chain[-1]
    out = []

    def walk(x, path):
        if x == top:
            out.append(sorted(path))
            return
        for y in up[x]:
            walk(y, path + [y] if y != top else path)

    walk(bottom, [])
    return sorted(out)


def boolean(n: int) -> LatticeSpec:
    """B_n: subsets of {1..n}, named by their digits ("e" is the empty set)."""
    def name(s):
        return "".join(map(str, s)) or "e"

    subsets = [c for k in range(n + 1)
               for c in itertools.combinations(range(1, n + 1), k)]
    covers = [(name(s), name(tuple(sorted(s + (i,)))))
              for s in subsets for i in range(1, n + 1) if i not in s]
    chain = tuple(name(tuple(range(1, k + 1))) for k in range(n + 1))
    return LatticeSpec(f"B{n}", tuple(name(s) for s in subsets),
                       tuple(covers), chain)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in _set_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [[first] + p[i]] + p[i + 1:]
        yield [[first]] + p


def partition(n: int) -> LatticeSpec:
    """Pi_n: set partitions of {1..n} under refinement, finest at the bottom.

    The chain 1|2|..|n < 12|3|..|n < ... < 12..n consists of partitions with
    one non-singleton block, which are left-modular elements of Pi_n.
    """
    def name(blocks):
        return "|".join("".join(map(str, sorted(b)))
                        for b in sorted(blocks, key=min))

    parts = [[frozenset(b) for b in p] for p in _set_partitions(list(range(1, n + 1)))]
    parts.sort(key=lambda p: (-len(p), name(p)))
    covers = []
    for p in parts:
        for a, b in itertools.combinations(range(len(p)), 2):
            merged = [blk for k, blk in enumerate(p) if k not in (a, b)]
            merged.append(p[a] | p[b])
            covers.append((name(p), name(merged)))
    chain = tuple(name([frozenset(range(1, k + 1))]
                       + [frozenset({i}) for i in range(k + 1, n + 1)])
                  for k in range(1, n + 1))
    return LatticeSpec(f"Pi{n}", tuple(name(p) for p in parts),
                       tuple(covers), chain)


def _prime_factors(n: int) -> list:
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def divisor(n: int) -> LatticeSpec:
    """D(n): divisors of n under divisibility; a distributive lattice."""
    divs = [d for d in range(1, n + 1) if n % d == 0]
    primes = sorted(set(_prime_factors(n)))
    covers = [(str(d), str(d * p)) for d in divs for p in primes
              if n % (d * p) == 0]
    chain = [1]
    for p in _prime_factors(n):
        chain.append(chain[-1] * p)
    return LatticeSpec(f"D{n}", tuple(str(d) for d in divs), tuple(covers),
                       tuple(str(d) for d in chain))


def n5() -> LatticeSpec:
    return LatticeSpec("N5", ("0", "a", "b", "c", "1"),
                       (("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"),
                        ("c", "1")),
                       ("0", "b", "c", "1"))


def m3() -> LatticeSpec:
    return LatticeSpec("M3", ("0", "a", "b", "c", "1"),
                       (("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"),
                        ("b", "1"), ("c", "1")),
                       ("0", "a", "1"))


# ------------------------------------------------------------------ groups

@dataclass(frozen=True)
class GroupSpec:
    """A permutation group by degree and generators in 1-based cycle
    notation, with facts fixed by theory (or, where noted, by this
    library's own output)."""

    name: str
    degree: int
    generators: tuple
    order: int
    subgroups: int
    solvable: bool
    chief_length: int
    # (cover pairs, pairs H < K, maximal chains) of the subgroup lattice,
    # for the groups whose lattice a workload uses
    lattice: tuple = ()

    def lattice_sizes(self) -> Sizes:
        """The pinned sizes of the subgroup lattice, ranked by the chief
        series."""
        return Sizes(self.subgroups, *self.lattice, self.chief_length)


# The lattice sizes were counted by hand for S3, D4 and C12 (~ D(12)).
# L(C2^4) is the lattice of subspaces of F_2^4: 240 covers, 446 pairs and
# 1*3*7*15 = 315 complete flags.  selftest.py checks every pinned count
# against subgroup_sizes below.
GROUPS = {g.name: g for g in (
    GroupSpec("S3", 3, ("(1 2)", "(1 2 3)"), 6, 6, True, 2, (8, 9, 4)),
    GroupSpec("D4", 4, ("(1 2 3 4)", "(1 3)"), 8, 10, True, 3, (15, 24, 7)),
    GroupSpec("C12", 7, ("(1 2 3 4)(5 6 7)",), 12, 6, True, 3, (7, 12, 3)),
    GroupSpec("S4", 4, ("(1 2)", "(1 2 3 4)"), 24, 30, True, 3, (66, 120, 44)),
    GroupSpec("C2^4", 8, ("(1 2)", "(3 4)", "(5 6)", "(7 8)"), 16, 67, True, 4,
              (240, 446, 315)),
    # 98 subgroups is this library's count at the benchmark's creation,
    # confirmed by subgroup_sizes, not a value taken from the literature.
    GroupSpec("S4xC2", 6, ("(1 2)", "(1 2 3 4)", "(5 6)"), 48, 98, True, 4),
    GroupSpec("A5", 5, ("(1 2 3)", "(1 2 3 4 5)"), 60, 59, False, 1),
    GroupSpec("S5", 5, ("(1 2)", "(1 2 3 4 5)"), 120, 156, False, 2),
    GroupSpec("PSL(2,7)", 7, ("(1 2 3 4 5 6 7)", "(1 2)(3 6)"), 168, 179,
              False, 1),
)}


def _parse_cycles(text: str):
    return [[int(t) for t in cyc.split()] for cyc in text[1:-1].split(")(")]


def relabelled_group_file(spec: GroupSpec, rng) -> str:
    """Group file text with points relabelled by a random permutation and
    the generators in a random order."""
    points = list(range(1, spec.degree + 1))
    image = dict(zip(points, rng.sample(points, len(points))))
    gens = ["".join("(" + " ".join(str(image[p]) for p in cyc) + ")"
                    for cyc in _parse_cycles(g))
            for g in spec.generators]
    rng.shuffle(gens)
    return "\n".join([f"degree: {spec.degree}"] + gens) + "\n"


def _permutations(spec: GroupSpec) -> list:
    out = []
    for g in spec.generators:
        perm = list(range(spec.degree))
        for cyc in _parse_cycles(g):
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                perm[a - 1] = b - 1
        out.append(tuple(perm))
    return out


def _closure(gens, n: int) -> frozenset:
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = tuple(g[i] for i in a)
                if b not in seen:
                    seen.add(b)
                    new.append(b)
        frontier = new
    return frozenset(seen)


def permutation_order(spec: GroupSpec) -> int:
    """Group order by closing the generators (independent of latshell)."""
    return len(_closure(_permutations(spec), spec.degree))


def subgroup_sizes(spec: GroupSpec) -> tuple:
    """(subgroups, cover pairs, pairs H < K, maximal chains) of the subgroup
    lattice, by brute force independent of latshell: every subgroup is
    reached from the trivial one by adding one element at a time.  Meant
    for groups of order up to about 50."""
    n = spec.degree
    group = _closure(_permutations(spec), n)
    trivial = frozenset({tuple(range(n))})
    gens = {trivial: ()}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            for g in group - H:
                K = _closure(gens[H] + (g,), n)
                if K not in gens:
                    gens[K] = gens[H] + (g,)
                    new.append(K)
        frontier = new
    subs = list(gens)
    above = {H: [K for K in subs if H < K] for H in subs}
    covers = {H: [K for K in above[H]
                  if not any(H < M < K for M in above[H])] for H in subs}
    memo = {}

    def chains(H):
        if H not in memo:
            memo[H] = sum(map(chains, covers[H])) if covers[H] else 1
        return memo[H]

    return (len(subs), sum(map(len, covers.values())),
            sum(map(len, above.values())), chains(trivial))


# --------------------------------------------------------------- shuffling

def shuffled(spec: LatticeSpec, rng) -> LatticeSpec:
    """The same lattice with element and cover input order shuffled."""
    elements = list(spec.elements)
    covers = list(spec.covers)
    rng.shuffle(elements)
    rng.shuffle(covers)
    return LatticeSpec(spec.name, tuple(elements), tuple(covers), spec.chain)


def poset_json(spec: LatticeSpec) -> dict:
    return {"elements": list(spec.elements),
            "covers": [list(c) for c in spec.covers]}
