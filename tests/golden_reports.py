"""Golden CLI reports: fixed inputs, their exit codes and their JSON reports
without ``timing_seconds``.

``python tests/golden_reports.py`` (with ``src`` on PYTHONPATH) prints one
JSON line per case.  ``--write`` stores them in ``tests/golden/reports.jsonl``;
do that only for a deliberate report change, and say so in CHANGES.md.
``test_golden.py`` runs this script under two hash seeds and compares.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "reports.jsonl")

GROUP_FILES = {
    "S3": "degree: 3\n(1 2)\n(1 2 3)\n",
    "D4": "degree: 4\n(1 2 3 4)\n(1 4)(2 3)\n",
    "S4": "degree: 4\n(1 2)\n(1 2 3 4)\n",
    "A4": "degree: 4\n(1 2 3)\n(2 3 4)\n",
    "C2^4": "degree: 8\n(1 2)\n(3 4)\n(5 6)\n(7 8)\n",
    "A5": "degree: 5\n(1 2 3)\n(1 2 3 4 5)\n",
    "S4xC2": "degree: 6\n(1 2)\n(1 2 3 4)\n(5 6)\n",
    "S5": "degree: 5\n(1 2)\n(1 2 3 4 5)\n",
    "PSL(2,7)": "degree: 7\n(1 2 3 4 5 6 7)\n(1 2)(3 6)\n",
}

GROUP_COMMANDS = (
    ("lattice", ["group", "lattice"]),
    ("depth", ["group", "solvable", "--method", "depth"]),
    ("skeleton", ["group", "solvable", "--method", "skeleton"]),
    ("thevenaz", ["group", "thevenaz"]),
)


def _lattices():
    """The conftest lattices with their designated chains."""
    import conftest

    return {
        "chain3": (conftest.chain3_poset(), ["0", "a", "1"]),
        "b2": (conftest.b2_poset(), ["0", "a", "1"]),
        "b3": (conftest.subset_poset(3), ["e", "1", "12", "123"]),
        "m3": (conftest.m3_poset(), ["0", "a", "1"]),
        "n5": (conftest.n5_poset(), ["0", "b", "c", "1"]),
        "pi4": (conftest.pi4_poset(), ["1|2|3|4", "12|3|4", "123|4", "1234"]),
    }


def _bench_lattices():
    """The benchmark's small lattices with their designated chains: four
    divisor lattices, and the subgroup lattices of D4 and C12 with their
    chief series."""
    import conftest
    from latshell import groups as gm

    out = {f"D({n})": conftest.divisor_poset(n) for n in (12, 24, 36, 60)}
    for name, G in (("L(D4)", gm.dihedral(4)), ("L(C12)", gm.cyclic(12))):
        GL = gm.subgroup_lattice(G)
        out[name] = (GL.lattice.poset, list(GL.chief.elements))
    return out


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_").lower()


def _write_json(workdir: str, path: str, data) -> str:
    with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _order_json(order) -> dict:
    """A shelling order as an order file, each facet's names sorted."""
    return {"facets": [sorted(f) for f in order]}


def _lattice_cases(workdir: str, name: str, P, chain) -> list:
    """Labeling, Morse and complex cases on one lattice.  The order files
    of the ``complex shell`` cases are the shellings read off the
    constructive certificates (the whole order complex, when no chain
    repeats a label three times running, and the skeleton at the
    chain-complexity bound), so the reports' input digests pin them."""
    from latshell import complexes as cxm
    from latshell import labeling as lb
    from latshell import lattice as lm
    from latshell.cli import complex_json, labeling_json
    from latshell.errors import RepeatRunTooLong
    from latshell.poset import order_complex

    L = lm.lattice_check(P)
    lab = lb.left_modular_labeling(L, lm.verify_chain_modularity(L, chain))
    poset = f"{name}.json"
    labeling = _write_json(workdir, f"{name}.labeling.json", labeling_json(lab))
    full = order_complex(P)
    cx = _write_json(workdir, f"{name}.complex.json", complex_json(full))
    out = [
        (f"label verify {name}",
         ["label", "verify", "--poset", poset, "--labeling", labeling]),
        (f"label verify --strict {name}",
         ["label", "verify", "--strict", "--poset", poset,
          "--labeling", labeling]),
        (f"morse report {name}",
         ["morse", "report", "--poset", poset, "--labeling", labeling]),
        (f"complex vd {name}", ["complex", "vd", cx]),
        (f"complex depth {name}", ["complex", "depth", cx]),
    ]
    try:
        _, cert = cxm.constructive_vd_full(P, lab)
    except RepeatRunTooLong:
        pass
    else:
        order = _write_json(workdir, f"{name}.full-order.json",
                            _order_json(cxm.shelling_from_vd(cert, full)))
        out.append((f"complex shell full {name}",
                    ["complex", "shell", cx, "--verify", order]))
    bound, _ = lb.min_chain_complexity(P, lab)
    skel, cert = cxm.constructive_vd_skeleton(P, lab, bound)
    skel_path = _write_json(workdir, f"{name}.skeleton.json", complex_json(skel))
    order = _write_json(workdir, f"{name}.skeleton-order.json",
                        _order_json(cxm.shelling_from_vd(cert, skel)))
    out.append((f"complex shell skeleton {name}",
                ["complex", "shell", skel_path, "--verify", order]))
    return out


def cases(workdir: str) -> list[tuple[str, list[str]]]:
    """Write the input files into ``workdir``; return (case, argv) pairs
    whose paths are relative to it."""
    from latshell.cli import poset_json

    out = []
    for name, text in GROUP_FILES.items():
        path = f"{_slug(name)}.grp"
        with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
            fh.write(text)
        for tag, argv in GROUP_COMMANDS:
            out.append((f"group {tag} {name}", argv + [path]))
    # the trivial group, r = 0, which has no bouquet to compare
    with open(os.path.join(workdir, "trivial.grp"), "w", encoding="utf-8") as fh:
        fh.write("degree: 3\n")
    out.append(("group thevenaz trivial", ["group", "thevenaz", "trivial.grp"]))
    for name, (P, chain) in _lattices().items():
        path = f"{name}.json"
        with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
            json.dump(poset_json(P), fh)
        out.append((f"poset check {name}", ["poset", "check", path]))
        out.append((f"label modular {name}",
                    ["label", "modular", "--poset", path,
                     "--chain", ",".join(chain)]))
        out.extend(_lattice_cases(workdir, name, P, chain))
    # the constant labeling on the diamond: quasi-EL, but two spines
    b2, _ = _lattices()["b2"]
    path = _write_json(workdir, "b2.constant.json",
                       {"edges": [{"from": x, "to": y, "label": 1}
                                  for x, y in b2.covers()]})
    out.extend(_verify_cases("b2", "constant", path))
    # a chain listed with five redundant covers: the report names the
    # first of them in input order, (0, b)
    path = _write_json(workdir, "chain5.redundant.json", {
        "elements": ["0", "a", "b", "c", "1"],
        "covers": [["0", "a"], ["a", "b"], ["b", "c"], ["c", "1"],
                   ["0", "b"], ["a", "c"], ["b", "1"], ["0", "c"],
                   ["a", "1"]]})
    out.append(("poset check chain5 redundant", ["poset", "check", path]))
    out.extend(_failing_labeling_cases(workdir))
    # labels that json reads as non-finite floats (1e400 overflows to inf)
    # are refused with exit 2
    for tag in ("NaN", "1e400"):
        edges = [{"from": x, "to": y, "label": "LABEL" if k == 0 else 1}
                 for k, (x, y) in enumerate(b2.covers())]
        path = f"b2.{tag.lower()}.json"
        with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"edges": edges}).replace('"LABEL"', tag))
        out.append((f"label verify b2 {tag}",
                     ["label", "verify", "--poset", "b2.json",
                      "--labeling", path]))
    for name, (P, chain) in _bench_lattices().items():
        out.extend(_bench_lattice_cases(workdir, name, P, chain))
    return out


def _verify_cases(name: str, tag: str, labeling: str) -> list:
    """``label verify``, relaxed and ``--strict``, of one labeling file on
    the poset file of the lattice ``name``."""
    return [(" ".join(["label verify"] + flags + [name, tag]),
             ["label", "verify"] + flags
             + ["--poset", f"{name}.json", "--labeling", labeling])
            for flags in ([], ["--strict"])]


def _failing_labeling_cases(workdir: str) -> list:
    """Labelings whose reports carry violation chains: the left-modular
    labeling reversed (r + 1 - label), which fails on m3 (two spines), n5
    (no ascending chain) and pi4 (two spines on 11 intervals) and still
    passes on b3, and the diamond labeling (2, 3, 1, 0), whose one
    ascending chain comes lexicographically last."""
    from latshell import labeling as lb
    from latshell import lattice as lm
    from latshell.cli import labeling_json

    out = []
    lattices = _lattices()
    for name in ("b3", "m3", "n5", "pi4"):
        P, chain = lattices[name]
        L = lm.lattice_check(P)
        lab = lb.left_modular_labeling(L, lm.verify_chain_modularity(L, chain))
        r = len(chain) - 1
        path = _write_json(workdir, f"{name}.reversed.json", labeling_json(
            lb.EdgeLabeling({c: r + 1 - l for c, l in lab.labels.items()})))
        out.extend(_verify_cases(name, "reversed", path))
    path = _write_json(workdir, "b2.lex.json", {"edges": [
        {"from": x, "to": y, "label": l}
        for (x, y), l in ((("0", "a"), 2), (("a", "1"), 3),
                          (("0", "b"), 1), (("b", "1"), 0))]})
    out.extend(_verify_cases("b2", "lex", path))
    return out


def _bench_lattice_cases(workdir: str, name: str, P, chain) -> list:
    """``label verify`` (relaxed and strict), ``morse report`` and
    ``complex depth`` on one of the benchmark's small lattices, with the
    left-modular labeling of its chain."""
    from latshell import labeling as lb
    from latshell import lattice as lm
    from latshell.cli import complex_json, labeling_json, poset_json
    from latshell.poset import order_complex

    slug = _slug(name)
    poset = _write_json(workdir, f"{slug}.json", poset_json(P))
    L = lm.lattice_check(P)
    lab = lb.left_modular_labeling(L, lm.verify_chain_modularity(L, chain))
    labeling = _write_json(workdir, f"{slug}.labeling.json", labeling_json(lab))
    cx = _write_json(workdir, f"{slug}.complex.json",
                     complex_json(order_complex(P)))
    return [(" ".join(["label verify"] + flags + [name]),
             ["label", "verify"] + flags
             + ["--poset", poset, "--labeling", labeling])
            for flags in ([], ["--strict"])] + [
        (f"morse report {name}",
         ["morse", "report", "--poset", poset, "--labeling", labeling]),
        (f"complex depth {name}", ["complex", "depth", cx]),
    ]


def _untimed(text: str) -> str:
    return re.sub(r'^  "timing_seconds": [^\n]*\n', "", text, flags=re.M)


def run_all() -> list[dict]:
    from latshell.cli import main

    rows = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        todo = cases(workdir)
        os.chdir(workdir)
        try:
            for case, argv in todo:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(argv)
                rows.append({"case": case, "exit": code,
                             "stdout": _untimed(buf.getvalue())})
        finally:
            os.chdir(cwd)
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, HERE)
    lines = [json.dumps(row, sort_keys=True) for row in run_all()]
    if "--write" in argv:
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
