"""The CLI's exit-code contract on generated adversarial inputs.

Every input goes through ``cli.main`` in-process.  The contract: the exit
code is 0 (verdict), 1 (failed verification) or 2 (bad input); stdout is
empty or one JSON document; and no exception escapes ``main`` except
argparse's usage exit, which is 2.  The strategies cover malformed cycle
strings, wide antichains, facets past ``--limit-faces`` and label files
with mixed-type or non-finite labels.  Inputs are kept small (degree at
most 4, small face and vertex limits), so the file runs in a few seconds.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshell.cli import main

CONTRACT = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def assert_contract(argv, files: dict) -> int:
    """Write ``files`` (name -> text) to a fresh directory, run ``argv``
    with ``{name}`` placeholders filled in by their paths, and check the
    contract.  Returns the exit code."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        paths = {}
        for name, text in files.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        try:
            code = main([a.format(**paths) for a in argv])
        except SystemExit as exc:
            assert exc.code == 2, f"argparse exited {exc.code!r}"
            code = 2
    assert code in (0, 1, 2)
    if out.getvalue().strip():
        json.loads(out.getvalue())
    return code


# ------------------------------------------------------------- group files

cycle_text = st.text(alphabet="()12345 ,+-_xe١", max_size=14)
group_file = st.builds(
    lambda header, lines: "\n".join([header] + lines) + "\n",
    st.one_of(st.integers(-2, 4).map(lambda d: f"degree: {d}"),
              st.sampled_from(["degree:", "degree: x", "deg: 3", ""])),
    st.lists(st.one_of(cycle_text,
                       st.sampled_from(["(1 2)", "(1 2 3 4)", "(1 2)(3 4)",
                                        "()", "(1 2)(1 3)", "(1 2 3)( )"])),
             max_size=3))


@CONTRACT
@given(group_file, st.sampled_from([["lattice"], ["solvable"],
                                    ["solvable", "--method", "skeleton"],
                                    ["thevenaz"]]))
def test_group_files_keep_the_contract(text, op):
    assert_contract(["group", op[0], "{group}", *op[1:]], {"group": text})


# ------------------------------------------------------- wide antichains

def antichain_files(width: int, bounded: bool, labels) -> dict:
    atoms = [f"a{i}" for i in range(width)]
    if bounded:
        elements = ["0", *atoms, "1"]
        covers = [["0", a] for a in atoms] + [[a, "1"] for a in atoms]
    else:
        elements, covers = atoms, []
    edges = [{"from": x, "to": y, "label": labels[k % len(labels)]}
             for k, (x, y) in enumerate(covers)]
    return {"poset": json.dumps({"elements": elements, "covers": covers}),
            "labeling": json.dumps({"edges": edges})}


@CONTRACT
@given(st.integers(1, 80), st.booleans(),
       st.lists(st.integers(-3, 3), min_size=1, max_size=4),
       st.sampled_from([["poset", "check", "{poset}"],
                        ["label", "verify", "--poset", "{poset}",
                         "--labeling", "{labeling}"],
                        ["label", "verify", "--strict", "--poset", "{poset}",
                         "--labeling", "{labeling}"],
                        ["morse", "report", "--poset", "{poset}",
                         "--labeling", "{labeling}"],
                        ["--limit-chains", "10", "morse", "report", "--poset",
                         "{poset}", "--labeling", "{labeling}"]]))
def test_wide_antichains_keep_the_contract(width, bounded, labels, argv):
    assert_contract(argv, antichain_files(width, bounded, labels))


# ------------------------------------------------ facets past the limit

@CONTRACT
@given(st.lists(st.lists(st.integers(0, 40), min_size=1, max_size=40),
                min_size=1, max_size=4),
       st.integers(1, 4096), st.integers(0, 8),
       st.one_of(st.just(["depth"]), st.just(["vd"]),
                 st.integers(-2, 3).map(lambda s: ["vd", "--skeleton", str(s)])))
def test_large_facets_keep_the_contract(facets, limit, vd_limit, op):
    text = json.dumps({"facets": [[f"v{v}" for v in dict.fromkeys(f)]
                                  for f in facets]})
    assert_contract(["--limit-faces", str(limit), "--limit-vd-vertices",
                     str(vd_limit), "complex", op[0], "{complex}", *op[1:]],
                    {"complex": text})


# ----------------------------------------------------------- label files

json_label = st.one_of(
    st.integers(-5, 5), st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3), st.booleans(), st.none(),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1))

B2 = {"elements": ["0", "a", "b", "1"],
      "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}


def finite_numbers(values) -> bool:
    return all(type(v) in (int, float) and math.isfinite(v) for v in values)


@CONTRACT
@given(st.lists(json_label, min_size=4, max_size=4),
       st.sampled_from([None, "1e400", "-1e400"]),
       st.sampled_from([["label", "verify"], ["morse", "report"]]))
def test_mixed_and_non_finite_labels_keep_the_contract(labels, raw, op):
    if raw is not None:
        labels[0] = "@raw@"
    edges = [{"from": x, "to": y, "label": v}
             for (x, y), v in zip(B2["covers"], labels)]
    # a literal that JSON reads as a non-finite float
    text = json.dumps({"edges": edges}).replace('"@raw@"', str(raw))
    code = assert_contract([*op, "--poset", "{poset}", "--labeling",
                            "{labeling}"],
                           {"poset": json.dumps(B2), "labeling": text})
    if raw is not None or not (finite_numbers(labels)
                               or all(isinstance(v, str) for v in labels)):
        assert code == 2


# ------------------------------------------------------- known breaches

@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="ROADMAP item 2: the recursive maximal-chain walk "
                          "overflows the stack on a 1 100-element chain")
def test_morse_report_on_a_long_chain_keeps_the_contract():
    names = [f"c{i}" for i in range(1100)]
    covers = [[a, b] for a, b in zip(names, names[1:])]
    edges = [{"from": a, "to": b, "label": 1} for a, b in covers]
    assert_contract(["morse", "report", "--poset", "{poset}",
                     "--labeling", "{labeling}"],
                    {"poset": json.dumps({"elements": names,
                                           "covers": covers}),
                     "labeling": json.dumps({"edges": edges})})
