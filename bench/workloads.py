"""The benchmark's workloads.

Each workload's `setup(ls, rng, workdir)` takes a freshly imported latshell
package, a seeded random source and a directory for input files, and
returns the list of ops for one pass.  An op's `call` returns a dict of
facts about the program's output; the op passes when those facts equal
`expected`, which holds values fixed by theory, by the generators in
`lattices.py`, pinned in `lattices.GROUPS`, or pinned in the repository's
tests.  No expected value is taken from the output of the run that checks
it.
"""

from __future__ import annotations

import io
import itertools
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import lattices as lt


@dataclass
class Op:
    label: str
    call: Callable[[], dict]
    expected: dict
    # Name of the exception the op raised at the benchmark's creation, for a
    # documented program defect.  That failure is still counted, but only a
    # failure by this exception is taken as the known one.
    known_defect: str | None = None


# ----------------------------------------------------------------- helpers

def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _write_json(workdir: str, name: str, obj) -> str:
    return _write(workdir, name, json.dumps(obj))


def cli_op(ls, label, argv, expected, facts=None, known_defect=None) -> Op:
    """An in-process `latshell.cli.main(argv)` call with stdout captured.

    The facts are the exit code plus `facts(results)` of the JSON report
    when the exit code is 0 or 1.
    """
    def call():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = ls.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        got = {"exit": code}
        if facts is not None and code in (0, 1):
            got.update(facts(json.loads(out.getvalue())["results"]))
        return got

    return Op(label, call, expected, known_defect)


def nonzero(betti: dict) -> dict:
    """Betti numbers as {dimension: rank} without the zero entries."""
    return {int(k): v for k, v in betti.items() if v}


def lattice_of_group(ls, spec: lt.GroupSpec, rng) -> tuple:
    """Subgroup lattice of a relabelled group as a LatticeSpec whose chain
    is the chief series, with the group's pinned lattice sizes.  The
    lattice is an input the program builds, so set-up fails unless its
    sizes are the pinned ones."""
    G = ls.groups.parse_group_file(lt.relabelled_group_file(spec, rng))
    GL = ls.groups.subgroup_lattice(G)
    P = GL.lattice.poset
    out = lt.LatticeSpec(f"L({spec.name})", tuple(P.elements),
                         tuple(P.covers()), tuple(GL.chief.elements))
    pinned = spec.lattice_sizes()
    if out.sizes() != pinned:
        raise ValueError(f"subgroup lattice of {spec.name}: got {out.sizes()},"
                         f" pinned {pinned}")
    return out, pinned


def generated(spec: lt.LatticeSpec) -> tuple:
    """A generated lattice with the sizes its generator gives."""
    return spec, spec.sizes()


# ------------------------------------------------------- group-solvability

SOLVABILITY_GROUPS = ("S4", "C2^4", "S4xC2", "A5", "S5", "PSL(2,7)")

# Complement-chain refinement counts, which equal the single nonzero Betti
# number in degree r - 2: S4 is pinned in the tests, C2^4 is q^(n(n-1)/2)
# for q = 2, n = 4, and S4xC2 is this library's value at the benchmark's
# creation.
BOUQUETS = {"S4": 12, "C2^4": 64, "S4xC2": 24}

# Normal subgroups of the groups whose full lattice is reported.
NORMAL_COUNTS = {"S5": 3, "PSL(2,7)": 2}


def group_solvability(ls, rng, workdir) -> list[Op]:
    ops = []

    def group_file(spec, tag):
        return _write(workdir, f"{tag}.grp", lt.relabelled_group_file(spec, rng))

    for gname in SOLVABILITY_GROUPS:
        spec = lt.GROUPS[gname]
        verdict = "solvable" if spec.solvable else "nonsolvable"
        for method in ("depth", "skeleton"):
            path = group_file(spec, f"{gname}-{method}")
            ops.append(cli_op(
                ls, f"group solvable --method {method} {gname}",
                ["group", "solvable", "--method", method, path],
                {"exit": 0, "r": spec.chief_length, "verdict": verdict,
                 "derived_series_solvable": spec.solvable, "agree": True},
                lambda res: {k: res[k] for k in
                             ("r", "verdict", "derived_series_solvable", "agree")}))
    for gname, count in BOUQUETS.items():
        spec = lt.GROUPS[gname]
        path = group_file(spec, f"{gname}-thevenaz")
        ops.append(cli_op(
            ls, f"group thevenaz {gname}", ["group", "thevenaz", path],
            {"exit": 0, "ok": True, "r": spec.chief_length,
             "refinements": count, "betti": {spec.chief_length - 2: count}},
            lambda res: {"ok": res["ok"], "r": res["r"],
                         "refinements": res["complement_chain_refinements"],
                         "betti": nonzero(res["betti"])}))
    for gname, normals in NORMAL_COUNTS.items():
        spec = lt.GROUPS[gname]
        path = group_file(spec, f"{gname}-lattice")
        ops.append(cli_op(
            ls, f"group lattice {gname}", ["group", "lattice", path],
            {"exit": 0, "order": spec.order, "subgroups": spec.subgroups,
             "normal": normals, "r": spec.chief_length},
            lambda res: {"order": res["order"], "subgroups": res["subgroups"],
                         "normal": len(res["normal"]), "r": res["r"]}))
    return ops


# ------------------------------------------------------- skeleton-shelling

def _certify(ls, spec: lt.LatticeSpec) -> dict:
    """The README pipeline: chain check, labeling, constructive VD of the
    order-complex skeleton, certificate, shelling, and depth."""
    P = ls.build_poset(spec.elements, spec.covers)
    L = ls.lattice_check(P)
    m = ls.verify_chain_modularity(L, spec.chain)
    lab = ls.left_modular_labeling(L, m)
    quasi = ls.verify_quasi_el(P, lab)
    r, _ = ls.min_chain_complexity(P, lab)
    cx, cert = ls.constructive_vd_skeleton(P, lab, r)
    valid = ls.validate_vd_certificate(cert, cx)
    order = ls.shelling_from_vd(cert, cx)
    return {"kind": m.kind, "quasi_el": quasi.ok, "r": r,
            "skeleton_facets": len(cx.facets), "certificate": valid,
            "shelling": ls.verify_shelling(cx, order),
            "depth": ls.depth(ls.order_complex(P))}


def _homology(ls, spec: lt.LatticeSpec) -> dict:
    P = ls.build_poset(spec.elements, spec.covers)
    L = ls.lattice_check(P)
    lab = ls.left_modular_labeling(L, ls.verify_chain_modularity(L, spec.chain))
    rep = ls.homology_consistency(P, lab)
    return {"betti": nonzero(rep.betti), "consistent": rep.consistent}


def skeleton_shelling(ls, rng, workdir) -> list[Op]:
    # ((spec, sizes), nonzero Betti numbers, skeleton facets).  Betti numbers
    # are fixed by theory: B_n is an (n-2)-sphere, Pi_n a wedge of (n-1)!
    # (n-3)-spheres, D(n) for non-squarefree n is contractible, S4 is pinned
    # in the tests and C2^4 has 2^6 spheres of dimension 2.  For a maximal
    # modular chain the skeleton is the whole order complex, one facet per
    # maximal chain; for S4 the 63 facets of the non-pure skeleton are this
    # library's count at the benchmark's creation.
    # Pi_5's chain is left-modular only, as Pi_4's (see small_cases).
    two = "two-sided-modular"
    cases = [
        (generated(lt.boolean(5)), two, {3: 1}, None),
        (generated(lt.partition(5)), "left-modular", {2: 24}, None),
        (generated(lt.divisor(2 * 2 * 3 * 3 * 5 * 7)), two, {}, None),
        (generated(lt.divisor(2 * 2 * 3 * 5 * 7 * 11)), two, {}, None),
        (lattice_of_group(ls, lt.GROUPS["S4"], rng), two, {1: 12}, 63),
        (lattice_of_group(ls, lt.GROUPS["C2^4"], rng), two, {2: 64}, None),
    ]
    ops = []
    for (spec, sizes), kind, betti, facets in cases:
        ops.append(Op(
            f"certify {spec.name}",
            lambda s=lt.shuffled(spec, rng): _certify(ls, s),
            {"kind": kind, "quasi_el": True, "r": sizes.rank,
             "skeleton_facets": facets or sizes.chains,
             "certificate": True, "shelling": True, "depth": sizes.rank - 2}))
        ops.append(Op(
            f"homology_consistency {spec.name}",
            lambda s=lt.shuffled(spec, rng): _homology(ls, s),
            {"betti": betti, "consistent": True}))
    return ops


# ------------------------------------------------------- cli-small-reports

@dataclass(frozen=True)
class SmallCase:
    spec: lt.LatticeSpec
    sizes: lt.Sizes
    kind: str          # kind of the designated chain
    graded: bool
    betti: dict        # nonzero reduced Betti numbers of the order complex
    depth: int


def small_cases(ls, rng) -> list[SmallCase]:
    """Theory values.  A chain is two-sided-modular when each element x also
    satisfies (x v y) ^ z = x v (y ^ z) for all y and z >= x: true in
    distributive and modular lattices and for normal subgroups (Dedekind's
    law), false for b in N5 (y = a, z = c) and for 12|3|4 in Pi_4
    (y = 13|24, z = 12|34), whose chains are left-modular only.  Order
    complexes: B_n is an (n-2)-sphere, Pi_4 a wedge of 3! circles, D(n) for non-squarefree n, L(D4) (a 2-group that
    is not elementary abelian) and L(C12) ~ D(12) are contractible, N5 has
    two components, M3 and L(S3) are 3 and 4 points.  Every one has a
    maximal left-modular chain, so its order complex is vertex decomposable
    and its depth equals its minimum facet dimension."""
    two = "two-sided-modular"
    return [
        SmallCase(*generated(lt.boolean(2)), two, True, {0: 1}, 0),
        SmallCase(*generated(lt.boolean(3)), two, True, {1: 1}, 1),
        SmallCase(*generated(lt.boolean(4)), two, True, {2: 1}, 2),
        SmallCase(*generated(lt.partition(4)), "left-modular", True, {1: 6}, 1),
        SmallCase(*generated(lt.divisor(12)), two, True, {}, 1),
        SmallCase(*generated(lt.divisor(24)), two, True, {}, 2),
        SmallCase(*generated(lt.divisor(36)), two, True, {}, 2),
        SmallCase(*generated(lt.divisor(60)), two, True, {}, 2),
        SmallCase(*generated(lt.n5()), "left-modular", False, {0: 1}, 0),
        SmallCase(*generated(lt.m3()), two, True, {0: 2}, 0),
        SmallCase(*lattice_of_group(ls, lt.GROUPS["S3"], rng), two, True,
                  {0: 3}, 0),
        SmallCase(*lattice_of_group(ls, lt.GROUPS["D4"], rng), two, True, {}, 1),
        SmallCase(*lattice_of_group(ls, lt.GROUPS["C12"], rng), two, True,
                  {}, 1),
    ]


VD_VERTEX_LIMIT = 12


def _labeling_json(lab) -> dict:
    return {"edges": [{"from": x, "to": y, "label": l}
                      for (x, y), l in lab.labels.items()]}


def _shelling(ls, P, lab) -> tuple[list, list]:
    """The order-complex skeleton that the constructive vertex decomposition
    certifies, as facets, and the shelling order read off its certificate.
    The skeleton is the whole order complex except for N5, whose chain
    bound is 2."""
    r, _ = ls.min_chain_complexity(P, lab)
    cx, cert = ls.constructive_vd_skeleton(P, lab, r)
    return ([sorted(f) for f in cx.facet_name_sets()],
            [sorted(f) for f in ls.shelling_from_vd(cert, cx)])


def _bad_order(order: list):
    """The same facets led by two that meet in codimension at least two in
    the second, or None when no two facets do."""
    for i, j in itertools.permutations(range(len(order)), 2):
        first, second = order[i], order[j]
        if len(second) - len(set(first) & set(second)) >= 2:
            return [first, second] + [f for k, f in enumerate(order)
                                      if k not in (i, j)]
    return None


def cli_small_reports(ls, rng, workdir) -> list[Op]:
    ops = []
    for n, case in enumerate(small_cases(ls, rng)):
        spec, sizes, name = case.spec, case.sizes, case.spec.name
        facets = lt.order_complex_facets(spec)
        n_vertices = sizes.elements - 2

        def poset_file(tag):
            return _write_json(workdir, f"{n}-{tag}.json",
                               lt.poset_json(lt.shuffled(spec, rng)))

        def complex_file(tag, facet_list):
            shuffled = [rng.sample(f, len(f)) for f in facet_list]
            rng.shuffle(shuffled)
            return _write_json(workdir, f"{n}-{tag}.json", {"facets": shuffled})

        graded = {"graded": True, "rank": sizes.rank} if case.graded \
            else {"graded": False}
        ops.append(cli_op(
            ls, f"poset check {name}", ["poset", "check", poset_file("check")],
            {"exit": 0, "elements": sizes.elements,
             "covers": sizes.covers, "bounded": True, **graded},
            lambda res: {"elements": res["elements"], "covers": res["covers"],
                         "bounded": res["bounded"], "graded": res["graded"],
                         **({"rank": max(res["rank"].values())}
                            if res.get("graded") else {})}))
        ops.append(cli_op(
            ls, f"label modular {name}",
            ["label", "modular", "--poset", poset_file("modular"),
             "--chain", ",".join(spec.chain)],
            {"exit": 0, "chain_kind": case.kind, "r": sizes.rank,
             "edges": sizes.covers, "labels": list(range(1, sizes.rank + 1))},
            lambda res: {"chain_kind": res["chain_kind"], "r": res["r"],
                         "edges": len(res["labeling"]["edges"]),
                         "labels": sorted({e["label"] for e in
                                           res["labeling"]["edges"]})}))

        P = ls.build_poset(spec.elements, spec.covers)
        L = ls.lattice_check(P)
        lab = ls.left_modular_labeling(L, ls.verify_chain_modularity(L, spec.chain))
        for strict in (False, True):
            flag = ["--strict"] if strict else []
            tag = "strict" if strict else "plain"
            ops.append(cli_op(
                ls, f"label verify {tag} {name}",
                ["label", "verify", "--poset", poset_file(f"verify-{tag}"),
                 "--labeling", _write_json(workdir, f"{n}-lab-{tag}.json",
                                           _labeling_json(lab))] + flag,
                {"exit": 0, "ok": True, "spines": sizes.pairs},
                lambda res: {"ok": res["ok"], "spines": len(res["spines"])}))
        ops.append(cli_op(
            ls, f"morse report {name}",
            ["morse", "report", "--poset", poset_file("morse"),
             "--labeling", _write_json(workdir, f"{n}-lab-morse.json",
                                       _labeling_json(lab))],
            {"exit": 0, "consistent": True, "betti": case.betti},
            lambda res: {"consistent": res["consistent"],
                         "betti": nonzero(res["betti"])}))
        ops.append(cli_op(
            ls, f"complex depth {name}",
            ["complex", "depth", complex_file("depth", facets)],
            {"exit": 0, "depth": case.depth, "betti": case.betti},
            lambda res: {"depth": res["depth"], "betti": nonzero(res["betti"])}))
        if n_vertices <= VD_VERTEX_LIMIT:
            ops.append(cli_op(
                ls, f"complex vd {name}",
                ["complex", "vd", complex_file("vd", facets)],
                {"exit": 0, "vertex_decomposable": True,
                 "vertices": n_vertices, "facets": sizes.chains},
                lambda res: {k: res[k] for k in
                             ("vertex_decomposable", "vertices", "facets")}))

        skeleton, order = _shelling(ls, P, lab)
        bad = _bad_order(order)
        for tag, ord_, code in (("good", order, 0), ("bad", bad, 1)):
            if ord_ is None:
                continue
            ops.append(cli_op(
                ls, f"complex shell {tag} {name}",
                ["complex", "shell", complex_file(f"shell-{tag}", skeleton),
                 "--verify", _write_json(workdir, f"{n}-order-{tag}.json",
                                         {"facets": ord_})],
                {"exit": code, "shelling": code == 0},
                lambda res: {"shelling": res["shelling"]}))
    ops.extend(malformed_ops(ls, rng, workdir))
    return ops


def malformed_ops(ls, rng, workdir) -> list[Op]:
    """Bad inputs, each of which must exit 2 under the CLI contract."""
    b2 = lt.shuffled(lt.boolean(2), rng)
    poset = _write_json(workdir, "bad-b2.json", lt.poset_json(b2))
    # integer labels out of the bottom, strings into the top: every
    # maximal chain mixes the two types
    mixed = {"edges": [{"from": x, "to": y,
                        "label": k if x == b2.chain[0] else f"x{k}"}
                       for k, (x, y) in enumerate(b2.covers)]}
    arity = lt.poset_json(b2)
    arity["covers"][0] = arity["covers"][0] + [b2.chain[-1]]
    unknown = lt.poset_json(b2)
    unknown["extra"] = True
    faces = [["1"], ["2"]]
    rng.shuffle(faces)
    cases = [
        ("label verify mixed-type labels",
         ["label", "verify", "--poset", poset,
          "--labeling", _write_json(workdir, "bad-mixed.json", mixed)],
         "TypeError"),
        ("poset check cover of arity 3",
         ["poset", "check", _write_json(workdir, "bad-arity.json", arity)],
         "ValueError"),
        ("complex depth nested facets",
         ["complex", "depth",
          _write_json(workdir, "bad-nested.json",
                      {"facets": [[faces[0], "2"], ["3"]]})],
         "TypeError"),
        ("poset check invalid JSON",
         ["poset", "check", _write(workdir, "bad-json.json",
                                   json.dumps(lt.poset_json(b2))[:-1])],
         None),
        ("poset check unknown key",
         ["poset", "check", _write_json(workdir, "bad-key.json", unknown)],
         None),
        ("complex shell non-facet in order",
         ["complex", "shell", _write_json(workdir, "bad-cx.json", {"facets": faces}),
          "--verify", _write_json(workdir, "bad-order.json",
                                  {"facets": [["1", "2"]]})],
         None),
    ]
    return [cli_op(ls, label, argv, {"exit": 2}, known_defect=defect)
            for label, argv, defect in cases]


WORKLOADS = {
    "group-solvability": group_solvability,
    "skeleton-shelling": skeleton_shelling,
    "cli-small-reports": cli_small_reports,
}
