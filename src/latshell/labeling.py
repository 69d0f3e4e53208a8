"""Cover-relation labelings from left-modular chains, and the relaxed
lexicographic verification machinery built on them.

A labeling assigns each cover relation an orderable label.  The verifier
checks, interval by interval, that the weakly ascending maximal chains are
exactly the maximal extensions of one spine chain, that every cover inside
a spine gap carries that gap's label, and that spine extensions strictly
precede all other maximal chains in lexicographic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    ChainNotValidated,
    IncompatiblePosets,
    InternalLabelingError,
    NoAtomGenerates,
    NotMaximal,
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

    def covers(self):
        return self.labels.keys()


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
    """Label statistics for a maximal chain."""
    elems = tuple(chain.elements if isinstance(chain, Chain) else chain)
    _require_maximal(P, elems)
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


def _require_maximal(P: Poset, elems):
    P.require_bounded()
    if P.idx(elems[0]) != P.bottom or P.idx(elems[-1]) != P.top:
        raise NotMaximal("chain must run from bottom to top")
    for a, b in zip(elems, elems[1:]):
        if not (P.cover_up[P.idx(a)] >> P.idx(b)) & 1:
            raise NotMaximal(f"({a!r}, {b!r}) is not a cover")


def lamplus_sequence(P: Poset, lab: EdgeLabeling, elems) -> tuple:
    """Tie-broken label sequence: (label, position of upper element).

    The linear extension used for tie-breaking is the element input order,
    which makes the induced lexicographic order on maximal chains total.
    """
    return tuple((lab.label(a, b), P.idx(b)) for a, b in zip(elems, elems[1:]))


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
    P.require_bounded()
    spines = {}
    violations = []
    for xi, yi in _intervals(P):
        out = _interval_spine(P, xi, yi, lab)
        if isinstance(out, Violation):
            violations.append(out)
        else:
            spines[(out.x, out.y)] = out
    return QuasiELResult(not violations, spines, tuple(violations))


def _intervals(P: Poset):
    """Every pair xi < yi of element indices: xi in input order, then the
    strict up-set of xi in input order."""
    for xi in range(P.n):
        for yi in bits(P.up[xi] & ~(1 << xi)):
            yield xi, yi


def _interval_spine(P: Poset, lo: int, hi: int, lab: EdgeLabeling):
    """Spine of the interval [lo, hi] of ``P`` (indices), or a Violation.

    Every valid spine is a bottom-to-top subchain of the common refinement
    of the weakly ascending maximal chains, so candidates are enumerated
    there, most merged first, and the first one whose gaps carry constant
    labels and whose extensions come strictly lexicographically first wins.
    """
    x, y = P.elements[lo], P.elements[hi]
    chains = P.chains(lo, hi)
    seqs = {c: lab.sequence(c) for c in chains}
    ascending = [c for c in chains if _weakly_ascending(seqs[c])]
    if not ascending:
        return Violation("no_ascending_chain", (x, y), ())

    common = set(ascending[0]).intersection(*map(set, ascending[1:]))
    finest = [e for e in ascending[0] if e in common]
    interior = finest[1:-1]

    any_constant = False
    lex_witness = None
    for size in range(len(interior) + 1):
        for kept in itertools.combinations(interior, size):
            spine = (finest[0],) + kept + (finest[-1],)
            gap_labels = []
            for u, v in zip(spine, spine[1:]):
                labels = _labels_within(P, lab, P.index[u], P.index[v])
                if len(labels) != 1:
                    gap_labels = None
                    break
                gap_labels.append(next(iter(labels)))
            if gap_labels is None:
                continue
            any_constant = True
            spine_set = set(spine)
            extensions = [c for c in chains if spine_set <= set(c)]
            others = [c for c in chains if not spine_set <= set(c)]
            ok = True
            if others:
                worst_ext = max(seqs[c] for c in extensions)
                for o in others:
                    if seqs[o] <= worst_ext:
                        ok = False
                        if lex_witness is None:
                            bad = max(extensions, key=lambda c: seqs[c])
                            lex_witness = (bad, o)
                        break
            if ok:
                return AscentSpine(x, y, spine, tuple(gap_labels))
    if not any_constant:
        return Violation("two_spines", (x, y), tuple(ascending[:2]))
    return Violation("lex_order", (x, y), lex_witness)


def _weakly_ascending(seq) -> bool:
    return all(a <= b for a, b in zip(seq, seq[1:]))


def _labels_within(P: Poset, lab: EdgeLabeling, lo: int, hi: int) -> set:
    """Labels of all covers inside the interval [lo, hi] of ``P`` (indices)."""
    members = P.up[lo] & P.down[hi]
    out = set()
    for i in bits(members):
        for j in bits(P.cover_up[i] & members):
            out.add(lab.label(P.elements[i], P.elements[j]))
    return out


def interval_spine(P: Poset, lab: EdgeLabeling):
    """Spine of the full bottom-to-top interval of a bounded poset; returns
    an AscentSpine or a Violation."""
    P.require_bounded()
    return _interval_spine(P, P.bottom, P.top, lab)


def verify_el(P: Poset, lab: EdgeLabeling) -> QuasiELResult:
    """Strict verification: every interval has a unique weakly ascending
    maximal chain, strictly lexicographically first."""
    P.require_bounded()
    spines = {}
    violations = []
    for xi, yi in _intervals(P):
        x, y = P.elements[xi], P.elements[yi]
        chains = P.chains(xi, yi)
        seqs = {c: lab.sequence(c) for c in chains}
        ascending = [c for c in chains if _weakly_ascending(seqs[c])]
        if len(ascending) != 1:
            kind = "no_ascending_chain" if not ascending else "two_spines"
            violations.append(Violation(kind, (x, y), tuple(ascending[:2])))
            continue
        a = ascending[0]
        if any(seqs[c] <= seqs[a] for c in chains if c != a):
            violations.append(Violation("lex_order", (x, y), (a,)))
            continue
        spines[(x, y)] = AscentSpine(x, y, a, lab.sequence(a))
    return QuasiELResult(not violations, spines, tuple(violations))


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
    roots = [P.chains(P.bottom, xi) for xi in range(P.n)]
    for xi, yi in _intervals(P):
        for root in roots[xi]:
            out = _rooted_interval_spine(P, xi, yi, rlab, root)
            if isinstance(out, Violation):
                violations.append(out)
            else:
                spines[(root, out.x, out.y)] = out
    return QuasiELResult(not violations, spines, tuple(violations))


def _rooted_interval_spine(P: Poset, lo: int, hi: int, rlab: RootedLabeling,
                           root: tuple):
    x, y = P.elements[lo], P.elements[hi]
    chains = P.chains(lo, hi)

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
    extensions = [c for c in chains if spine_set <= set(c)]
    others = [c for c in chains if not spine_set <= set(c)]
    if others and extensions:
        worst = max(seqs[c] for c in extensions)
        for o in others:
            if seqs[o] <= worst:
                return Violation("lex_order", (x, y), (root, o))
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
    pairs = _intervals(P) if pair is None else [P.pair_idx(*pair)]
    out = []
    for xi, yi in pairs:
        x, y = P.elements[xi], P.elements[yi]
        chains = P.chains(xi, yi)
        ascending = [c for c in chains if _weakly_ascending(lab.sequence(c))]
        on_ascending = {c[1] for c in ascending if len(c) > 1}
        atoms = {c[1] for c in chains if len(c) > 1}
        for a, b in itertools.product(sorted(on_ascending), sorted(atoms - on_ascending)):
            if not lab.label(x, a) < lab.label(x, b):
                out.append(SeparationViolation((x, y), a, b))
    return out
