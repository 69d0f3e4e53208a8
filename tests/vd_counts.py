"""Work counts of the constructive VD recursion, per lattice.

``python tests/vd_counts.py`` (with ``src`` on PYTHONPATH) runs one
``constructive_vd_skeleton(P, lab, r)`` on each of six lattices: B5, Π5,
D(1260), D(4620) and the subgroup lattices of S4 and C2^4, with the
left-modular labeling of a chain (the generators' chains, Π5's chain of
merges 12, 123, 1234, 12345, and the chief series) and r its chain
complexity bound.  Per lattice it prints:

- ``levels``: shedding levels run (``complexes._shed_level`` calls);
- ``distinct``: their distinct (mask, t) keys, a sub-poset's mask being
  its members as an index mask over the root;
- ``lookups``: spine lookups (``complexes._VDCache.spine`` calls), which
  the cache answers or passes to ``spines``;
- ``spines``: ``labeling._interval_spine`` calls;
- ``stats``: chain statistics computed (``labeling.stats_of_sequence``);
- ``walks``: chain walks (``Poset.maximal_chains_idx``);
- ``complexes``: order complexes built (``poset.chain_complex`` calls,
  which ``order_complex`` makes too);
- ``posets``: ``Poset`` objects built (``Poset.__init__`` calls);
- ``simplicial``: ``SimplicialComplex`` objects built (its ``__init__``
  calls, an ``OrderComplex``'s included);
- ``compacts``: ``SimplicialComplex.compact`` calls;

each over the call and then ``validate_vd_certificate`` and
``shelling_from_vd`` on its certificate, which add to no column;

then the totals.  The counts are taken by wrapping those functions for the
length of the calls.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COLUMNS = ("levels", "distinct", "lookups", "spines", "stats", "walks",
           "complexes", "posets", "simplicial", "compacts")


def lattices():
    """(name, poset, chain) for each of the six lattices."""
    import conftest
    from latshell import groups as gm

    pi5 = ["1|2|3|4|5", "12|3|4|5", "123|4|5", "1234|5", "12345"]
    yield "B5", conftest.subset_poset(5), ["e", "1", "12", "123", "1234",
                                           "12345"]
    yield "Pi5", conftest.partition_poset(5), pi5
    for n in (1260, 4620):
        yield (f"D({n})",) + conftest.divisor_poset(n)
    for name, G in (("L(S4)", gm.symmetric(4)),
                    ("L(C2^4)", gm.parse_group_file(
                        "degree: 8\n(1 2)\n(3 4)\n(5 6)\n(7 8)\n"))):
        GL = gm.subgroup_lattice(G)
        yield name, GL.lattice.poset, list(GL.chief.elements)


def counts(P, chain) -> dict:
    """The work counts of one ``constructive_vd_skeleton`` call on ``P``
    with the left-modular labeling of ``chain``, at its bound, and of the
    two readers of its certificate."""
    from latshell import complexes, labeling, lattice, poset

    L = lattice.lattice_check(P)
    lab = labeling.left_modular_labeling(
        L, lattice.verify_chain_modularity(L, chain))
    r, _ = labeling.min_chain_complexity(P, lab)
    keys = []
    tally = dict.fromkeys(COLUMNS[2:], 0)

    def counting(column, fn):
        def wrapped(*args, **kwargs):
            tally[column] += 1
            return fn(*args, **kwargs)
        return wrapped

    def level(sub, facets, t, cache, passed):
        keys.append((sub[2], t))
        return _shed_level(sub, facets, t, cache, passed)

    _shed_level = complexes._shed_level
    patches = [(complexes, "_shed_level", level)]
    for column, owner, attr in (
            ("lookups", complexes._VDCache, "spine"),
            ("spines", labeling, "_interval_spine"),
            ("stats", labeling, "stats_of_sequence"),
            ("walks", poset.Poset, "maximal_chains_idx"),
            ("complexes", poset, "chain_complex"),
            ("complexes", complexes, "chain_complex"),
            ("posets", poset.Poset, "__init__"),
            ("simplicial", complexes.SimplicialComplex, "__init__"),
            ("compacts", complexes.SimplicialComplex, "compact")):
        patches.append((owner, attr, counting(column, getattr(owner, attr))))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        cx, cert = complexes.constructive_vd_skeleton(P, lab, r)
        complexes.validate_vd_certificate(cert, cx)
        complexes.shelling_from_vd(cert, cx)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return {"levels": len(keys), "distinct": len(set(keys)), **tally}


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'lattice':10}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, P, chain in lattices():
        row = counts(P, chain)
        for c in COLUMNS:
            total[c] += row[c]
        print(f"{name:10}" + "".join(f"{row[c]:11}" for c in COLUMNS))
    print(f"{'total':10}" + "".join(f"{total[c]:11}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
