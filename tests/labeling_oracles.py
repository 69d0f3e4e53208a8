"""The interval-based labeling verifiers, kept as oracles.

These are the relaxed and strict verifiers, the rooted verifier and the
first-label separation check as they stood when every interval was built
as its own sub-poset with ``interval`` and its chains enumerated there.
The library now reads each interval's chains off the root poset;
``test_labeling_oracles.py`` checks that it gives the same results.

``reference_verify_quasi_el`` and ``reference_verify_el`` are the library's
verifiers as they stood when each interval's chains were walked and
labelled on their own (``_sequences``), before one walk per lower end read
them all; they pin the order of spines and violations and the first error
of a partial labeling as well.
"""

from __future__ import annotations

import itertools

from latshell import labeling as lb
from latshell.errors import SizeLimit
from latshell.labeling import (
    AscentSpine,
    EdgeLabeling,
    QuasiELResult,
    RootedLabeling,
    SeparationViolation,
    Violation,
)
from latshell.poset import Poset, bits, interval, maximal_chains


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
    for xi in range(P.n):
        for yi in bits(P.up[xi] & ~(1 << xi)):
            x, y = P.elements[xi], P.elements[yi]
            sub = interval(P, x, y)
            out = _interval_spine(sub, lab)
            if isinstance(out, Violation):
                violations.append(out)
            else:
                spines[(x, y)] = out
    return QuasiELResult(not violations, spines, tuple(violations))


def _interval_spine(sub: Poset, lab: EdgeLabeling):
    """Spine of a single bounded interval, or a Violation.

    Every valid spine is a bottom-to-top subchain of the common refinement
    of the weakly ascending maximal chains, so candidates are enumerated
    there, most merged first, and the first one whose gaps carry constant
    labels and whose extensions come strictly lexicographically first wins.
    """
    x = sub.elements[sub.bottom]
    y = sub.elements[sub.top]
    chains = [tuple(sub.elements[i] for i in c) for c in sub.maximal_chains_idx()]
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
                labels = _labels_within(sub, lab, u, v)
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


def _labels_within(sub: Poset, lab: EdgeLabeling, u: str, v: str) -> set:
    """Labels of all covers inside the interval [u, v] of ``sub``."""
    ui, vi = sub.idx(u), sub.idx(v)
    members = sub.up[ui] & sub.down[vi]
    out = set()
    for i in bits(members):
        for j in bits(sub.cover_up[i] & members):
            out.add(lab.label(sub.elements[i], sub.elements[j]))
    return out


def verify_el(P: Poset, lab: EdgeLabeling) -> QuasiELResult:
    """Strict verification: every interval has a unique weakly ascending
    maximal chain, strictly lexicographically first."""
    P.require_bounded()
    spines = {}
    violations = []
    for xi in range(P.n):
        for yi in bits(P.up[xi] & ~(1 << xi)):
            x, y = P.elements[xi], P.elements[yi]
            sub = interval(P, x, y)
            chains = [tuple(sub.elements[i] for i in c)
                      for c in sub.maximal_chains_idx()]
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
    bottom = P.elements[P.bottom]
    for xi in range(P.n):
        x = P.elements[xi]
        roots = ([tuple(c.elements) for c in maximal_chains(interval(P, bottom, x))]
                 if xi != P.bottom else [(bottom,)])
        for yi in bits(P.up[xi] & ~(1 << xi)):
            y = P.elements[yi]
            sub = interval(P, x, y)
            for root in roots:
                out = _rooted_interval_spine(sub, rlab, root)
                if isinstance(out, Violation):
                    violations.append(out)
                else:
                    spines[(root, x, y)] = out
    return QuasiELResult(not violations, spines, tuple(violations))


def _rooted_interval_spine(sub: Poset, rlab: RootedLabeling, root: tuple):
    x = sub.elements[sub.bottom]
    y = sub.elements[sub.top]
    chains = [tuple(sub.elements[i] for i in c) for c in sub.maximal_chains_idx()]

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


def first_label_separation(P: Poset, lab: EdgeLabeling, pair=None):
    """Atoms lying on a weakly ascending chain of an interval must receive
    strictly smaller first labels than atoms lying on none.

    Checks the given interval, or all intervals, and returns violations.
    """
    P.require_bounded()
    pairs = [pair] if pair is not None else [
        (P.elements[xi], P.elements[yi])
        for xi in range(P.n) for yi in bits(P.up[xi] & ~(1 << xi))]
    out = []
    for x, y in pairs:
        sub = interval(P, x, y)
        chains = [tuple(sub.elements[i] for i in c) for c in sub.maximal_chains_idx()]
        ascending = [c for c in chains if _weakly_ascending(lab.sequence(c))]
        on_ascending = {c[1] for c in ascending if len(c) > 1}
        atoms = {c[1] for c in chains if len(c) > 1}
        for a, b in itertools.product(sorted(on_ascending), sorted(atoms - on_ascending)):
            if not lab.label(x, a) < lab.label(x, b):
                out.append(SeparationViolation((x, y), a, b))
    return out


def reference_verify_quasi_el(P: Poset, lab: EdgeLabeling) -> QuasiELResult:
    return lb._spine_verdict(P, (1 << P.n) - 1,
                             lambda lo, hi: lb._interval_spine(_sequences(P, lab, lo, hi)))


def reference_verify_el(P: Poset, lab: EdgeLabeling) -> QuasiELResult:
    return lb._spine_verdict(P, (1 << P.n) - 1,
                             lambda lo, hi: lb._strict_spine(_sequences(P, lab, lo, hi)))


def _sequences(P: Poset, lab: EdgeLabeling, lo: int, hi: int) -> dict:
    """The maximal chains of [lo, hi] (indices), in ``Poset.chains`` order,
    mapped to their label sequences."""
    return {c: lab.sequence(c) for c in P.chains(lo, hi)}
