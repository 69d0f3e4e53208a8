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


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_").lower()


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
    for name, (P, chain) in _lattices().items():
        path = f"{name}.json"
        with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
            json.dump(poset_json(P), fh)
        out.append((f"poset check {name}", ["poset", "check", path]))
        out.append((f"label modular {name}",
                    ["label", "modular", "--poset", path,
                     "--chain", ",".join(chain)]))
    return out


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
