"""Work counts of the group layer, per group.

``python tests/group_counts.py`` (with ``src`` on PYTHONPATH) builds S4,
A5, S5, PSL(2,7), A6 and S6 and prints, per group:

- ``subgroups``: the number of subgroups;
- ``closures``: Dimino closures (``groups._extend`` calls) made by one
  ``subgroups(G)`` call;
- ``lattice``: the same, made by one ``subgroup_lattice(G)`` call, which
  enumerates the subgroups again and runs the join self-check;
- ``table_ms``: the time to build the multiplication table,
  ``G.table()``, in milliseconds, the least of three fresh builds.

The closures are counted by wrapping ``groups._extend`` for the length of
the call.
"""

from __future__ import annotations

import sys
import time

COLUMNS = ("subgroups", "closures", "lattice", "table_ms")
GROUP_FILES = {
    "S4": "degree: 4\n(1 2)\n(1 2 3 4)\n",
    "A5": "degree: 5\n(1 2 3)\n(1 2 3 4 5)\n",
    "S5": "degree: 5\n(1 2)\n(1 2 3 4 5)\n",
    "PSL(2,7)": "degree: 7\n(1 2 3 4 5 6 7)\n(1 2)(3 6)\n",
    "A6": "degree: 6\n(1 2 3)\n(2 3 4 5 6)\n",
    "S6": "degree: 6\n(1 2)\n(1 2 3 4 5 6)\n",
}


def closures(fn, *args):
    """(result of ``fn(*args)``, ``groups._extend`` calls it made)."""
    from latshell import groups as gm

    calls = 0
    extend = gm._extend

    def counting(*a):
        nonlocal calls
        calls += 1
        return extend(*a)

    gm._extend = counting
    try:
        return fn(*args), calls
    finally:
        gm._extend = extend


def counts(text: str) -> dict:
    from latshell import groups as gm

    seconds = []
    for _ in range(3):
        G = gm.parse_group_file(text)
        start = time.perf_counter()
        G.table()
        seconds.append(time.perf_counter() - start)
    subs, found = closures(gm.subgroups, G)
    _, lattice = closures(gm.subgroup_lattice, G)
    return {"subgroups": len(subs), "closures": found, "lattice": lattice,
            "table_ms": round(1000 * min(seconds), 1)}


def main(argv=None) -> int:
    print(f"{'group':10}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, text in GROUP_FILES.items():
        row = counts(text)
        print(f"{name:10}" + "".join(f"{row[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
