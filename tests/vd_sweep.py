"""The constructive-VD outcome sweep: certificates and refusals on fixed
lattices, chains and targets.

Lattices: conftest's chain3, B2, B3, M3, N5, Π4 and D(12, 18, 24, 30, 36,
60, 72, 90), and the subgroup lattices of S3, A4 and S4.  Chains: every
left-modular maximal chain (and, on the subgroup lattices, the chief
series), each also thinned to its every-other-element subchain with the top
kept.  Per chain, with its left-modular labeling: every skeleton target
0 ... bound + 1 of ``constructive_vd_skeleton`` and ``constructive_vd_full``.
A case's outcome is the sha256 of its certificate's repr, or the error's
type and message.

The failing-labeling sweep reaches the recursion's self-checks, which no
valid labeling trips.  On the small conftest lattices (chain3, B2, B3, M3,
N5 and Π4, taken in turn) it draws 1 000 labelings from one seeded
generator, each cover labelled 1, 2 or 3 in ``Poset.covers`` order, and
runs ``constructive_vd_skeleton`` at every target 1 ... bound and
``constructive_vd_full``.  Most of these labelings are not quasi-EL.

``python tests/vd_sweep.py [--failing]`` (with ``src`` on PYTHONPATH)
prints one JSON line per case of the sweep (or of the failing-labeling
sweep); ``--write`` stores them in ``tests/golden/vd_sweep.jsonl`` (or
``tests/golden/vd_failing_sweep.jsonl``).  Do that only for a deliberate
certificate change, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "vd_sweep.jsonl")
FAILING_GOLDEN = os.path.join(HERE, "golden", "vd_failing_sweep.jsonl")
FAILING_SEED = 12
FAILING_LABELINGS = 1000


def _thinned(chain: tuple) -> tuple:
    """Every other element of ``chain``, the top kept."""
    out = chain[::2]
    return out if out[-1] == chain[-1] else out + chain[-1:]


def _outcome(fn, *args) -> str:
    from latshell.errors import LatshellError

    try:
        cert = fn(*args)[1]
    except LatshellError as exc:
        return f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(repr(cert).encode()).hexdigest()


def _lattices():
    """(name, lattice, chains) for every lattice of the sweep."""
    import conftest
    from latshell import groups as gm
    from latshell import lattice as lm

    posets = {"chain3": conftest.chain3_poset(), "b2": conftest.b2_poset(),
              "b3": conftest.subset_poset(3), "m3": conftest.m3_poset(),
              "n5": conftest.n5_poset(), "pi4": conftest.pi4_poset()}
    for n in (12, 18, 24, 30, 36, 60, 72, 90):
        posets[f"D({n})"] = conftest.divisor_poset(n)[0]
    for name, P in posets.items():
        L = lm.lattice_check(P)
        yield name, L, conftest.left_modular_maximal_chains(L)
    for name, G in (("L(S3)", gm.symmetric(3)), ("L(A4)", gm.alternating(4)),
                    ("L(S4)", gm.symmetric(4))):
        GL = gm.subgroup_lattice(G)
        yield name, GL.lattice, (conftest.left_modular_maximal_chains(GL.lattice)
                                 + [GL.chief])


def sweep() -> list[dict]:
    from latshell import complexes as cxm
    from latshell import labeling as lb
    from latshell import lattice as lm

    rows = []
    for name, L, chains in _lattices():
        for m in chains:
            for chain in (m.elements, _thinned(m.elements)):
                lab = lb.left_modular_labeling(
                    L, lm.verify_chain_modularity(L, chain))
                bound, _ = lb.min_chain_complexity(L.poset, lab)
                case = f"{name} {'<'.join(chain)}"
                for t in range(bound + 2):
                    rows.append({"case": f"{case} {t}", "outcome": _outcome(
                        cxm.constructive_vd_skeleton, L.poset, lab, t)})
                rows.append({"case": f"{case} full", "outcome": _outcome(
                    cxm.constructive_vd_full, L.poset, lab)})
    return rows


def failing_sweep() -> list[dict]:
    import conftest
    from latshell import complexes as cxm
    from latshell import labeling as lb

    posets = (("chain3", conftest.chain3_poset()), ("b2", conftest.b2_poset()),
              ("b3", conftest.subset_poset(3)), ("m3", conftest.m3_poset()),
              ("n5", conftest.n5_poset()), ("pi4", conftest.pi4_poset()))
    rng = random.Random(FAILING_SEED)
    rows = []
    for k in range(FAILING_LABELINGS):
        name, P = posets[k % len(posets)]
        lab = lb.EdgeLabeling({c: rng.randint(1, 3) for c in P.covers()})
        bound, _ = lb.min_chain_complexity(P, lab)
        case = f"{k} {name} {''.join(map(str, lab.labels.values()))}"
        for t in range(1, bound + 1):
            rows.append({"case": f"{case} {t}", "outcome": _outcome(
                cxm.constructive_vd_skeleton, P, lab, t)})
        rows.append({"case": f"{case} full", "outcome": _outcome(
            cxm.constructive_vd_full, P, lab)})
    return rows


def lines(rows) -> list[str]:
    return [json.dumps(row, sort_keys=True, ensure_ascii=False) for row in rows]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, HERE)
    failing = "--failing" in argv
    out = "\n".join(lines(failing_sweep() if failing else sweep())) + "\n"
    if "--write" in argv:
        with open(FAILING_GOLDEN if failing else GOLDEN, "w",
                  encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
