"""Cover-relation labelings from left-modular chains, and the relaxed
lexicographic verification machinery built on them.

A labeling assigns each cover relation an orderable label.  The verifier
checks, interval by interval, that the weakly ascending maximal chains are
exactly the maximal extensions of one spine chain, that every cover inside
a spine gap carries that gap's label, and that spine extensions strictly
precede all other maximal chains in lexicographic order.  The chains of
every interval [a, b] and their label sequences are read off one walk up
from each lower end a (``_lower_walks``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import (
    ChainNotValidated,
    IncompatiblePosets,
    InternalLabelingError,
    NoAtomGenerates,
    SizeLimit,
    UnknownElement,
)
from .lattice import Lattice, ModularChain
from .poset import Chain, Poset, bits, maximal_chains


@dataclass(frozen=True)
class EdgeLabeling:
    """A map from cover relations (x, y) to orderable labels."""

    labels: dict

    def label(self, x: str, y: str):
        try:
            return self.labels[(x, y)]
        except KeyError:
            raise UnknownElement(f"no label on cover ({x!r}, {y!r})") from None

    def sequence(self, elements) -> tuple:
        return tuple(self.label(a, b) for a, b in zip(elements, elements[1:]))

    def stats(self, elements: tuple) -> "ChainStats":
        """Label statistics of a chain given as a tuple of names."""
        return stats_of_sequence(elements, self.sequence(elements))


@dataclass(frozen=True)
class RootedLabeling:
    """A chain-edge labeling: labels depend on the maximal chain rooting the
    cover.  ``fn(root, cover)`` receives the full chain from bottom to the
    lower element of the cover."""

    fn: object

    @classmethod
    def from_edge_labeling(cls, lab: EdgeLabeling) -> "RootedLabeling":
        return cls(lambda root, cover: lab.label(*cover))

    def label(self, root: tuple, cover: tuple):
        return self.fn(root, cover)


@dataclass(frozen=True)
class ChainStats:
    chain: tuple[str, ...]
    labels: tuple
    ell0: int
    ell1: int
    ascents: tuple[str, ...]
    descents: tuple[str, ...]
    weakly_ascending: bool
    weakly_descending: bool


@dataclass(frozen=True)
class AscentSpine:
    """The chain every weakly ascending maximal chain of [x, y] refines."""

    x: str
    y: str
    elements: tuple[str, ...]
    alphas: tuple


@dataclass(frozen=True)
class Violation:
    kind: str  # no_ascending_chain | two_spines | lex_order
    interval: tuple[str, str]
    chains: tuple


@dataclass(frozen=True)
class QuasiELResult:
    ok: bool
    spines: dict
    violations: tuple[Violation, ...]


# --------------------------------------------------------------------------
# labeling constructions
# --------------------------------------------------------------------------

def left_modular_labeling(L: Lattice, m) -> EdgeLabeling:
    """Label each cover y < z with the index at which the chain crosses it.

    For a left-modular chain m_0 < ... < m_r the label is
    max{i : y v (m_{i-1} ^ z) = y} = min{i : y v (m_i ^ z) = z}; both closed
    forms are evaluated and must agree, and the two parenthesizations of the
    defining expression are checked to coincide on every cover.
    """
    if not isinstance(m, ModularChain):
        raise ChainNotValidated("pass the chain through verify_chain_modularity first")
    P = L.poset
    mi = [P.idx(e) for e in m.elements]
    r = m.r
    labels = {}
    for x, y in P.covers():
        i, j = P.idx(x), P.idx(y)
        vals = [L.join_idx(i, L.meet_idx(mk, j)) for mk in mi]
        for k, mk in enumerate(mi):
            if L.meet_idx(L.join_idx(i, mk), j) != vals[k]:
                raise InternalLabelingError(
                    f"parenthesization mismatch at cover ({x!r}, {y!r}), index {k}")
            if vals[k] not in (i, j):
                raise InternalLabelingError(
                    f"y v (m_k ^ z) escaped {{y, z}} at cover ({x!r}, {y!r})")
        max_form = max(k for k in range(1, r + 1) if vals[k - 1] == i)
        min_form = min(k for k in range(1, r + 1) if vals[k] == j)
        if max_form != min_form:
            raise InternalLabelingError(
                f"max/min forms disagree at cover ({x!r}, {y!r})")
        labels[(x, y)] = min_form
    return EdgeLabeling(labels)


def geometric_atom_labeling(L: Lattice, atom_order) -> EdgeLabeling:
    """Label each cover x < y with the first atom a_i satisfying a_i v x = y."""
    atom_order = list(atom_order)
    if sorted(atom_order) != sorted(L.atoms()):
        raise UnknownElement("atom_order must be a permutation of the atoms")
    labels = {}
    for x, y in L.poset.covers():
        for i, a in enumerate(atom_order, start=1):
            if L.join(a, x) == y:
                labels[(x, y)] = i
                break
        else:
            raise NoAtomGenerates(x, y)
    return EdgeLabeling(labels)


def refine_to_el(q: EdgeLabeling, r: EdgeLabeling) -> EdgeLabeling:
    """Pair labels (q, r) under lexicographic order."""
    if set(q.labels) != set(r.labels):
        raise IncompatiblePosets("labelings cover different relations")
    return EdgeLabeling({c: (q.labels[c], r.labels[c]) for c in q.labels})


# --------------------------------------------------------------------------
# per-chain statistics
# --------------------------------------------------------------------------

def chain_stats(P: Poset, lab: EdgeLabeling, chain) -> ChainStats:
    """Label statistics for a maximal chain (``Poset.maximal_chain_idx``
    refuses anything else)."""
    elems = tuple(chain.elements if isinstance(chain, Chain) else chain)
    P.maximal_chain_idx(elems)
    return lab.stats(elems)


def stats_of_sequence(elems: tuple, labels: tuple) -> ChainStats:
    counts = {}
    for l in labels:
        counts[l] = counts.get(l, 0) + 1
    ascents = tuple(elems[k] for k in range(1, len(labels))
                    if labels[k - 1] < labels[k])
    descents = tuple(elems[k] for k in range(1, len(labels))
                     if labels[k - 1] > labels[k])
    return ChainStats(
        chain=elems,
        labels=labels,
        ell0=len(counts),
        ell1=sum(1 for c in counts.values() if c >= 2),
        ascents=ascents,
        descents=descents,
        weakly_ascending=not descents,
        weakly_descending=not ascents,
    )


def min_chain_complexity(P: Poset, lab: EdgeLabeling):
    """Minimum of (distinct labels + repeated labels) over maximal chains.

    Returns the minimum and a witness chain.
    """
    best = None
    witness = None
    for c in maximal_chains(P):
        st = lab.stats(c.elements)
        if best is None or st.ell0 + st.ell1 < best:
            best = st.ell0 + st.ell1
            witness = c
    return best, witness


# --------------------------------------------------------------------------
# the relaxed verification
# --------------------------------------------------------------------------

def verify_quasi_el(P: Poset, lab: EdgeLabeling) -> QuasiELResult:
    """Check the relaxed lexicographic axioms on every interval.

    An interval may hold several weakly ascending maximal chains, but all of
    them must refine one spine whose gaps carry constant labels, and they
    must come strictly lexicographically before every other maximal chain.
    So a labeling that is constant on an interval [x, y] is accepted there
    with spine (x, y); ``verify_el`` is the strict form that rejects it.

    On success, returns the ascent spine of every interval of length >= 1.
    A violation records the interval and the offending chains.
    """
    walk = _lower_walks(P, lab)
    return _spine_verdict(P, (1 << P.n) - 1, lambda lo, hi: _interval_spine(walk(lo)[hi]))


def _spine_verdict(P: Poset, mask: int, spine_of) -> QuasiELResult:
    """The relaxed verdict on the subposet of ``P`` on the index mask
    ``mask`` from ``spine_of(lo, hi)``, the spine or Violation of each of
    its intervals, taken in ``_intervals`` order."""
    P.require_bounded()
    spines = {}
    violations = []
    for xi, yi in _intervals(P, mask):
        out = spine_of(xi, yi)
        if isinstance(out, Violation):
            violations.append(out)
        else:
            spines[(out.x, out.y)] = out
    return QuasiELResult(not violations, spines, tuple(violations))


def _intervals(P: Poset, mask: int):
    """Every pair xi < yi of element indices in the index mask ``mask``: xi
    in input order, then the strict up-set of xi within ``mask`` in input
    order."""
    for xi in bits(mask):
        for yi in bits(P.up[xi] & mask & ~(1 << xi)):
            yield xi, yi


def _lower_walks(P: Poset, lab: EdgeLabeling):
    """``walk(lo)``: for each element index b, the maximal chains of [lo, b]
    (none unless lo <= b), in ``Poset.chains`` order, mapped to their label
    sequences.  ``walk`` keeps its last answer, so reading the intervals in
    ``_intervals`` order walks once per lower end.

    One walk from lo goes up every cover (``_label_walk``), so its nodes
    are the chains from lo to every element above it, each met in
    lexicographic order of its index tuple.  Those that end at b are the
    maximal chains of [lo, b], in the order of ``Poset.maximal_chains_idx``,
    whose walk from lo is the same walk cut at b.

    Every cover's label is read first.  When one is missing, the error is
    the one that reading each interval's chains in turn meets first: the
    first missing cover of the first chain that holds one, in
    ``_intervals`` and then ``Poset.chains`` order.
    """
    P.require_bounded()
    if not lab.labels.keys() >= set(P.covers()):
        for xi, yi in _intervals(P, (1 << P.n) - 1):
            list(map(lab.sequence, P.chains(xi, yi)))
    name = P.elements
    steps = [[(j, name[j], lab.label(name[i], name[j])) for j in bits(row)]
             for i, row in enumerate(P.cover_up)]
    return functools.lru_cache(maxsize=1)(functools.partial(_label_walk, P, steps))


def _label_walk(P: Poset, steps: list, lo: int) -> list:
    """The walk of ``_lower_walks`` from ``lo``: the DFS of
    ``Poset.maximal_chains_idx`` up ``steps``, each element's covers in
    index order with their labels, and no upper end; each step extends the
    chain and its label sequence by one cover."""
    ends = [{} for _ in range(P.n)]

    def dfs(i, chain, seq):
        ends[i][chain] = seq
        for j, e, l in steps[i]:
            dfs(j, chain + (e,), seq + (l,))

    dfs(lo, (P.elements[lo],), ())
    return ends


def _interval_spine(seqs: dict):
    """Spine of an interval, or a Violation, from ``seqs``: the interval's
    maximal chains, in ``Poset.chains`` order, mapped to their label
    sequences.

    Every valid spine is a bottom-to-top subchain of ``finest``, the common
    refinement of the weakly ascending maximal chains, whose gaps are
    constant: a gap that is one cover of the first ascending chain has that
    cover's label, and ``_gap_labels`` reads a longer one off every chain's
    map of its elements to their positions, built when first needed.

    Constant gaps are closed under refinement: a gap [u', v'] inside a
    constant gap [u, v] holds only covers of [u, v], so it is constant with
    the same label.  So some subchain of ``finest`` is constant iff
    ``finest`` is, and otherwise two spines compete.  A chain through a
    constant subchain S repeats each gap's label along that gap, as the
    ascending chains do, which pass through ``finest`` and so through S;
    so it ascends.  Hence for every constant S the chains through S are
    exactly the ascending chains, and one lexicographic test
    (``_lex_violation``) decides every candidate at once.

    The spine returned is the constant subchain with the fewest gaps and,
    among those, the least in lexicographic order of positions in
    ``finest`` = f_0 < ... < f_n.  Write L(j) for the earliest i with
    (f_i, f_j) constant.  By the closure, (f_i, f_j) is constant exactly for
    L(j) <= i < j, and L(j) <= L(j + 1).  So the walk down from the top
    through n, L(n), L(L(n)), ... reaches the bottom in the fewest gaps, and
    each of its elements is at or below the matching element of every other
    spine: by induction from the top, a spine element at or above f_j has
    its lower neighbour at or above L(j).  Candidates for L(j) are searched
    only in the run of f_i whose steps up the first ascending chain all
    carry the label of the step up from f_j-1, as a constant (f_i, f_j)
    holds those steps.
    """
    x, *_, y = next(iter(seqs))
    ascending = [c for c in seqs if _weakly_ascending(seqs[c])]
    if not ascending:
        return Violation("no_ascending_chain", (x, y), ())

    first = ascending[0]
    common = set(first).intersection(*map(set, ascending[1:]))
    finest = [e for e in first if e in common]
    step = dict(zip(first, seqs[first]))
    at = {e: k for k, e in enumerate(first)}
    positions = None
    kept, alphas = [y], []
    j = len(finest) - 1
    while j:
        run = j - 1
        while run and step[finest[run - 1]] == step[finest[j - 1]]:
            run -= 1
        for i in range(run, j):
            u, v = finest[i], finest[j]
            if at[v] - at[u] == 1:
                labels = {step[u]}  # one cover: the gap has that one label
            else:
                if positions is None:
                    positions = [({e: k for k, e in enumerate(c)}, seq)
                                 for c, seq in seqs.items()]
                labels = _gap_labels(positions, u, v)
            if len(labels) == 1:
                break
        else:
            return Violation("two_spines", (x, y), tuple(ascending[:2]))
        kept.append(finest[i])
        alphas.append(next(iter(labels)))
        j = i
    witness = _lex_violation(seqs, ascending)
    if witness:
        return Violation("lex_order", (x, y), witness)
    return AscentSpine(x, y, tuple(reversed(kept)), tuple(reversed(alphas)))


def _gap_labels(positions: list, u: str, v: str) -> set:
    """The labels of the gap [u, v], read off the chains through u and v,
    each given as (its map of elements to positions, its label sequence):
    each step of such a chain between u and v is a cover inside [u, v], and
    each cover inside [u, v] lies on such a chain (extend it down to u, up
    to v, and on to the interval's ends)."""
    return {l for pos, seq in positions if u in pos and v in pos
            for l in seq[pos[u]:pos[v]]}


def _lex_violation(seqs: dict, ascending: list):
    """None if every chain of ``seqs`` outside ``ascending`` comes strictly
    lexicographically after every chain in it; else the witness: the last
    ascending chain and the first other chain, in ``seqs`` order, not
    after it."""
    worst = max(seqs[c] for c in ascending)
    ascending_set = set(ascending)
    for o, seq in seqs.items():
        if seq <= worst and o not in ascending_set:
            return max(ascending, key=seqs.__getitem__), o
    return None


def _weakly_ascending(seq) -> bool:
    return all(a <= b for a, b in zip(seq, seq[1:]))


def interval_spine(P: Poset, lab: EdgeLabeling):
    """Spine of the full bottom-to-top interval of a bounded poset; returns
    an AscentSpine or a Violation."""
    P.require_bounded()
    return _interval_spine({c: lab.sequence(c) for c in P.chains(P.bottom, P.top)})


def verify_el(P: Poset, lab: EdgeLabeling) -> QuasiELResult:
    """Strict verification: every interval has a unique weakly ascending
    maximal chain, strictly lexicographically first."""
    walk = _lower_walks(P, lab)
    return _spine_verdict(P, (1 << P.n) - 1, lambda lo, hi: _strict_spine(walk(lo)[hi]))


def _strict_spine(seqs: dict):
    """The strict form of ``_interval_spine``: the interval's one weakly
    ascending chain, or a Violation."""
    x, *_, y = next(iter(seqs))
    ascending = [c for c in seqs if _weakly_ascending(seqs[c])]
    if len(ascending) != 1:
        kind = "no_ascending_chain" if not ascending else "two_spines"
        return Violation(kind, (x, y), tuple(ascending[:2]))
    a = ascending[0]
    if _lex_violation(seqs, ascending):
        return Violation("lex_order", (x, y), (a,))
    return AscentSpine(x, y, a, seqs[a])


def verify_quasi_cl(P: Poset, rlab: RootedLabeling, max_elements: int = 40) -> QuasiELResult:
    """Rooted-interval version of the relaxed verification.

    Enumerating roots is exponential, so this is gated by element count.
    """
    P.require_bounded()
    if P.n > max_elements:
        raise SizeLimit(f"poset has {P.n} elements, more than the rooted "
                        f"element limit {max_elements}")
    violations = []
    spines = {}
    walk = _lower_walks(P, EdgeLabeling(dict.fromkeys(P.covers())))  # chains only
    roots = walk(P.bottom)  # the chains of [bottom, x], (bottom,) at the bottom
    for xi, yi in _intervals(P, (1 << P.n) - 1):
        for root in roots[xi]:
            out = _rooted_interval_spine(P, xi, yi, rlab, root, walk(xi)[yi])
            if isinstance(out, Violation):
                violations.append(out)
            else:
                spines[(root, out.x, out.y)] = out
    return QuasiELResult(not violations, spines, tuple(violations))


def _rooted_interval_spine(P: Poset, lo: int, hi: int, rlab: RootedLabeling,
                           root: tuple, chains: dict):
    """The spine or Violation of [lo, hi] under ``root``; its maximal
    chains are the keys of ``chains``, in ``Poset.chains`` order."""
    x, y = P.elements[lo], P.elements[hi]

    def seq(c):
        out = []
        for k in range(len(c) - 1):
            out.append(rlab.label(root + c[1:k + 1], (c[k], c[k + 1])))
        return tuple(out)

    seqs = {c: seq(c) for c in chains}
    ascending = [c for c in chains if _weakly_ascending(seqs[c])]
    if not ascending:
        return Violation("no_ascending_chain", (x, y), (root,))
    common = set(ascending[0]).intersection(*map(set, ascending[1:]))
    spine = tuple(e for e in ascending[0] if e in common)
    spine_set = set(spine)
    # gap constancy across rooted chains
    gap_labels = {}
    for c in chains:
        if not spine_set <= set(c):
            continue
        for k in range(len(c) - 1):
            lo = max(i for i, e in enumerate(spine) if e in c[:k + 1])
            key = (spine[lo], spine[lo + 1])
            gap_labels.setdefault(key, set()).add(seqs[c][k])
    if any(len(v) != 1 for v in gap_labels.values()):
        return Violation("two_spines", (x, y), tuple(ascending[:2]))
    # with constant gaps the chains through the spine are the ascending
    # ones, as in ``_interval_spine``
    witness = _lex_violation(seqs, ascending)
    if witness:
        return Violation("lex_order", (x, y), (root, witness[1]))
    alphas = tuple(next(iter(gap_labels[(u, v)]))
                   for u, v in zip(spine, spine[1:]))
    return AscentSpine(x, y, spine, alphas)


# --------------------------------------------------------------------------
# first-label separation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationViolation:
    interval: tuple[str, str]
    ascending_atom: str
    other_atom: str


def first_label_separation(P: Poset, lab: EdgeLabeling, pair=None):
    """Atoms lying on a weakly ascending chain of an interval must receive
    strictly smaller first labels than atoms lying on none.

    Checks the given interval, or all intervals, and returns violations.
    """
    P.require_bounded()
    walk = _lower_walks(P, lab) if pair is None else None
    pairs = _intervals(P, (1 << P.n) - 1) if walk else [P.pair_idx(*pair)]
    out = []
    for xi, yi in pairs:
        x, y = P.elements[xi], P.elements[yi]
        seqs = walk(xi)[yi] if walk else {c: lab.sequence(c) for c in P.chains(xi, yi)}
        ascending = [c for c, seq in seqs.items() if _weakly_ascending(seq)]
        on_ascending = {c[1] for c in ascending if len(c) > 1}
        atoms = {c[1] for c in seqs if len(c) > 1}
        for a, b in itertools.product(sorted(on_ascending), sorted(atoms - on_ascending)):
            if not lab.label(x, a) < lab.label(x, b):
                out.append(SeparationViolation((x, y), a, b))
    return out
