"""Work counts of the homology layer, per lattice and per group.

``python tests/homology_counts.py`` (with ``src`` on PYTHONPATH) runs the
homology the two heavy benchmark workloads ask for:

- on each of six lattices, B5, Π5, D(1260), D(4620) and the subgroup
  lattices of S4 and C2^4, ``depth(order_complex(P))`` and
  ``homology_consistency(P, lab)`` with the left-modular labeling of the
  chain ``vd_counts.py`` uses;
- on each of six groups, S4, C2^4, S4×C2, A5, S5 and PSL(2,7),
  ``solvability_by_depth`` and ``skeleton_shellability_criterion`` of its
  subgroup lattice, and ``thevenaz_check`` when the group is solvable.

Per lattice or group it prints:

- ``betti``: ``complexes.betti_numbers`` calls;
- ``fallbacks``: those of them with a mod-2 rank that may fall short of
  the rational one (the mod-2 Betti numbers on both sides of it are
  nonzero), so that it was taken again over the rationals
  (``complexes._boundary_rank`` called from dimension 2 up);
- ``intervals``: open intervals whose homology ``depth`` computed
  (``complexes._interval_floor`` calls);
- ``faces``: faces listed by ``SimplicialComplex.faces_by_dim``, which
  every Betti computation starts from;

then the totals of each part.  The counts are taken by wrapping those
functions for the length of the calls.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COLUMNS = ("betti", "fallbacks", "intervals", "faces")
GROUP_FILES = {
    "S4": "degree: 4\n(1 2)\n(1 2 3 4)\n",
    "C2^4": "degree: 8\n(1 2)\n(3 4)\n(5 6)\n(7 8)\n",
    "S4xC2": "degree: 6\n(1 2)\n(1 2 3 4)\n(5 6)\n",
    "A5": "degree: 5\n(1 2 3)\n(1 2 3 4 5)\n",
    "S5": "degree: 5\n(1 2)\n(1 2 3 4 5)\n",
    "PSL(2,7)": "degree: 7\n(1 2 3 4 5 6 7)\n(1 2)(3 6)\n",
}


def lattice_work(P, chain):
    """The homology of the skeleton-shelling workload on ``P``."""
    from latshell import complexes, labeling, lattice, morse, poset

    L = lattice.lattice_check(P)
    lab = labeling.left_modular_labeling(
        L, lattice.verify_chain_modularity(L, chain))
    complexes.depth(poset.order_complex(P))
    morse.homology_consistency(P, lab)


def group_work(text):
    """The homology of the group-solvability workload on one group."""
    from latshell import groups as gm

    GL = gm.subgroup_lattice(gm.parse_group_file(text))
    gm.solvability_by_depth(GL)
    gm.skeleton_shellability_criterion(GL)
    if gm.is_solvable(GL.group):
        gm.thevenaz_check(GL)


def counts(work, *args) -> dict:
    """The work counts of ``work(*args)``."""
    from latshell import complexes, groups, morse

    tally = dict.fromkeys(COLUMNS, 0)
    exact = []
    betti_numbers = complexes.betti_numbers
    boundary_rank = complexes._boundary_rank
    interval_floor = complexes._interval_floor
    faces_by_dim = complexes.SimplicialComplex.faces_by_dim

    def betti(*a, **kw):
        tally["betti"] += 1
        exact.clear()
        try:
            return betti_numbers(*a, **kw)
        finally:
            tally["fallbacks"] += bool(exact)

    def rank(cx, fbd, k):
        if k >= 2:
            exact.append(k)
        return boundary_rank(cx, fbd, k)

    def floor(*a):
        tally["intervals"] += 1
        return interval_floor(*a)

    def faces(self, limit=None):
        out = faces_by_dim(self, limit)
        tally["faces"] += sum(map(len, out.values()))
        return out

    patches = [(complexes, "betti_numbers", betti),
               (groups, "betti_numbers", betti),
               (morse, "betti_numbers", betti),
               (complexes, "_boundary_rank", rank),
               (complexes, "_interval_floor", floor),
               (complexes.SimplicialComplex, "faces_by_dim", faces)]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        work(*args)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return tally


def table(title, rows) -> None:
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{title:10}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, row in rows:
        for c in COLUMNS:
            total[c] += row[c]
        print(f"{name:10}" + "".join(f"{row[c]:11}" for c in COLUMNS))
    print(f"{'total':10}" + "".join(f"{total[c]:11}" for c in COLUMNS))


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import vd_counts

    table("lattice", [(name, counts(lattice_work, P, chain))
                      for name, P, chain in vd_counts.lattices()])
    print()
    table("group", [(name, counts(group_work, text))
                    for name, text in GROUP_FILES.items()])
    return 0


if __name__ == "__main__":
    sys.exit(main())
