"""Work counts of the group layer, per group.

``python tests/group_counts.py`` (with ``src`` on PYTHONPATH) builds S4,
C2^4, S4xC2, A5, S5, PSL(2,7), A6 and S6 and prints, per group:

- ``subgroups``: the number of subgroups;
- ``closures``: Dimino closures (``groups._extend`` calls) made by one
  ``subgroups(G)`` call;
- ``lattice``: the same, made by one ``subgroup_lattice(G)`` call, which
  enumerates the subgroups again and runs the join self-check;
- ``pair_tests``: modular-pair tests (``lattice._pair_witness`` calls)
  made by one ``subgroup_lattice(G)`` call, all of them in the check that
  every normal subgroup is two-sided modular;
- ``table_ms``: the time to build the multiplication table,
  ``G.table()``, in milliseconds, the least of three fresh builds;
- ``lattice_ms``: the time of ``subgroup_lattice(G)`` on a built table,
  in milliseconds, the least of three calls.

The calls are counted by wrapping the function for the length of the
call.
"""

from __future__ import annotations

import sys
import time

COLUMNS = ("subgroups", "closures", "lattice", "pair_tests", "table_ms",
           "lattice_ms")
GROUP_FILES = {
    "S4": "degree: 4\n(1 2)\n(1 2 3 4)\n",
    "C2^4": "degree: 8\n(1 2)\n(3 4)\n(5 6)\n(7 8)\n",
    "S4xC2": "degree: 6\n(1 2)\n(1 2 3 4)\n(5 6)\n",
    "A5": "degree: 5\n(1 2 3)\n(1 2 3 4 5)\n",
    "S5": "degree: 5\n(1 2)\n(1 2 3 4 5)\n",
    "PSL(2,7)": "degree: 7\n(1 2 3 4 5 6 7)\n(1 2)(3 6)\n",
    "A6": "degree: 6\n(1 2 3)\n(2 3 4 5 6)\n",
    "S6": "degree: 6\n(1 2)\n(1 2 3 4 5 6)\n",
}


def counted(module, name: str, fn, *args):
    """(result of ``fn(*args)``, calls of ``module.name`` it made)."""
    calls = 0
    inner = getattr(module, name)

    def counting(*a):
        nonlocal calls
        calls += 1
        return inner(*a)

    setattr(module, name, counting)
    try:
        return fn(*args), calls
    finally:
        setattr(module, name, inner)


def closures(fn, *args):
    """(result of ``fn(*args)``, ``groups._extend`` calls it made)."""
    from latshell import groups as gm

    return counted(gm, "_extend", fn, *args)


def pair_tests(fn, *args):
    """(result of ``fn(*args)``, ``lattice._pair_witness`` calls it made)."""
    from latshell import lattice as lm

    return counted(lm, "_pair_witness", fn, *args)


def least_ms(fn, *args) -> float:
    """The least wall time of three calls of ``fn(*args)``, in ms."""
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        fn(*args)
        seconds.append(time.perf_counter() - start)
    return round(1000 * min(seconds), 1)


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
    _, tests = pair_tests(gm.subgroup_lattice, G)
    return {"subgroups": len(subs), "closures": found, "lattice": lattice,
            "pair_tests": tests, "table_ms": round(1000 * min(seconds), 1),
            "lattice_ms": least_ms(gm.subgroup_lattice, G)}


def main(argv=None) -> int:
    print(f"{'group':10}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, text in GROUP_FILES.items():
        row = counts(text)
        print(f"{name:10}" + "".join(f"{row[c]:>11}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
