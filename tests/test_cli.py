import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latshell import (
    constructive_vd_skeleton,
    lattice_check,
    left_modular_labeling,
    min_chain_complexity,
    order_complex,
    shelling_from_vd,
    verify_chain_modularity,
)
from latshell import groups as gm
from latshell.cli import (
    _json,
    _parser,
    _plain,
    complex_json,
    load_complex,
    load_labeling,
    load_poset,
    main,
    poset_json,
    run,
)
from latshell.errors import InputParseError, NotAPermutation

from conftest import divisor_poset, pi4_poset, subset_poset
from test_complexes import FACET_18, FACET_40_SKELETON_2, forbid_building

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


N5 = {"elements": ["0", "a", "b", "c", "1"],
      "covers": [["0", "a"], ["a", "1"], ["0", "b"], ["b", "c"], ["c", "1"]]}


@pytest.fixture
def n5_file(tmp_path):
    p = tmp_path / "n5.json"
    p.write_text(json.dumps(N5), encoding="utf-8")
    return str(p)


def test_poset_check(n5_file):
    code, text = run(["poset", "check", n5_file])
    assert code == 0
    body = json.loads(text)
    assert body["results"]["bounded"] is True
    assert body["results"]["graded"] is False
    assert body["element_order"] == N5["elements"]


def test_unknown_keys_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"elements": [], "covers": [], "extra": 1}))
    with pytest.raises(InputParseError):
        load_poset(str(p))


def test_bom_rejected(tmp_path):
    p = tmp_path / "bom.json"
    p.write_bytes(b"\xef\xbb\xbf" + json.dumps(N5).encode())
    with pytest.raises(InputParseError):
        load_poset(str(p))


def test_label_modular_and_roundtrip(n5_file, tmp_path):
    code, text = run(["label", "modular", "--poset", n5_file,
                      "--chain", "0,b,c,1"])
    assert code == 0
    body = json.loads(text)
    labeling = body["results"]["labeling"]
    expected = {("0", "b"): 1, ("b", "c"): 2, ("c", "1"): 3,
                ("0", "a"): 3, ("a", "1"): 1}
    got = {(e["from"], e["to"]): e["label"] for e in labeling["edges"]}
    assert got == expected

    lab_file = tmp_path / "lab.json"
    lab_file.write_text(json.dumps(labeling))
    assert load_labeling(str(lab_file), load_poset(n5_file)).labels == expected

    code, text = run(["label", "verify", "--poset", n5_file,
                      "--labeling", str(lab_file)])
    assert code == 0
    assert json.loads(text)["results"]["ok"] is True


def test_label_verify_failure(n5_file, tmp_path):
    bad = {"edges": [{"from": x, "to": y, "label": 1}
                     for x, y in (("0", "a"), ("a", "1"), ("0", "b"),
                                  ("b", "c"), ("c", "1"))]}
    bad["edges"][0]["label"] = 9  # descending along the short chain only
    bad["edges"][2]["label"] = 9
    lab_file = tmp_path / "bad.json"
    lab_file.write_text(json.dumps(bad))
    code, text = run(["label", "verify", "--poset", n5_file,
                      "--labeling", str(lab_file)])
    assert code == 1
    assert json.loads(text)["results"]["ok"] is False


def test_poset_roundtrip_through_report(n5_file, tmp_path):
    code, text = run(["poset", "check", n5_file])
    emitted = json.loads(text)["results"]["poset"]
    again = tmp_path / "again.json"
    again.write_text(json.dumps(emitted))
    P1 = load_poset(n5_file)
    P2 = load_poset(str(again))
    assert P1 == P2


def test_complex_commands(tmp_path):
    cx_file = tmp_path / "cx.json"
    cx_file.write_text(json.dumps(
        {"facets": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]}))
    code, text = run(["complex", "depth", str(cx_file)])
    assert code == 0
    body = json.loads(text)
    assert body["results"]["depth"] == 1
    assert body["results"]["betti"]["1"] == 1

    code, text = run(["complex", "vd", str(cx_file)])
    assert code == 0
    assert json.loads(text)["results"]["vertex_decomposable"] is True

    order = tmp_path / "order.json"
    order.write_text(json.dumps(
        {"facets": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]}))
    code, _ = run(["complex", "shell", str(cx_file), "--verify", str(order)])
    assert code == 0

    bad_cx = tmp_path / "two_edges.json"
    bad_cx.write_text(json.dumps({"facets": [["a", "b"], ["c", "d"]]}))
    bad_order = tmp_path / "bad_order.json"
    bad_order.write_text(json.dumps({"facets": [["a", "b"], ["c", "d"]]}))
    code, text = run(["complex", "shell", str(bad_cx), "--verify", str(bad_order)])
    assert code == 1

    roundtrip = load_complex(str(cx_file))
    emitted = {"facets": sorted(sorted(f) for f in roundtrip.facet_name_sets())}
    again = tmp_path / "cx2.json"
    again.write_text(json.dumps(emitted))
    assert load_complex(str(again)) == roundtrip


def test_morse_report(n5_file, tmp_path):
    lab = {"edges": [{"from": "0", "to": "b", "label": 1},
                     {"from": "b", "to": "c", "label": 2},
                     {"from": "c", "to": "1", "label": 3},
                     {"from": "0", "to": "a", "label": 3},
                     {"from": "a", "to": "1", "label": 1}]}
    lab_file = tmp_path / "lab.json"
    lab_file.write_text(json.dumps(lab))
    code, text = run(["morse", "report", "--poset", n5_file,
                      "--labeling", str(lab_file)])
    assert code == 0
    body = json.loads(text)["results"]
    assert body["consistent"] is True
    assert len(body["descending_chains"]) == 1
    assert body["connectivity_bound"] == -1
    assert "homological" in body["note"]


def test_group_commands(tmp_path):
    grp = tmp_path / "s3.grp"
    grp.write_text("degree: 3\n(1 2)\n(1 2 3)\n")
    code, text = run(["group", "lattice", str(grp)])
    assert code == 0
    body = json.loads(text)["results"]
    assert body["order"] == 6 and body["subgroups"] == 6 and body["r"] == 2

    code, text = run(["group", "solvable", "--method", "depth", str(grp)])
    assert code == 0
    body = json.loads(text)["results"]
    assert body["verdict"] == "solvable" and body["agree"] is True

    code, text = run(["group", "solvable", "--method", "skeleton", str(grp)])
    assert code == 0
    assert json.loads(text)["results"]["verdict"] == "solvable"

    code, text = run(["group", "thevenaz", str(grp)])
    assert code == 0
    body = json.loads(text)["results"]
    assert body["ok"] is True and body["complement_chain_refinements"] == 3


@pytest.mark.parametrize("text", ["degree: 3\n", "degree: 0\n"])
def test_thevenaz_accepts_the_trivial_group(tmp_path, text):
    # r = 0: the one-element lattice has no bouquet to compare
    grp = tmp_path / "trivial.grp"
    grp.write_text(text)
    code, out = run(["group", "thevenaz", str(grp)])
    assert code == 0
    body = json.loads(out)["results"]
    assert body["ok"] is True and body["r"] == 0
    assert body["betti"] == {"-1": 1}


def test_exit_code_2_on_parse_error(tmp_path):
    p = tmp_path / "cyclic.json"
    p.write_text(json.dumps({"elements": ["0", "a"],
                             "covers": [["0", "a"], ["a", "0"]]}))
    assert main(["poset", "check", str(p)]) == 2


@pytest.mark.parametrize("facets", [
    [[["1"], "2"], ["3"]],      # a nested facet
    ["ab", ["c"]],              # a bare string, once split into characters
    [["a", 1]],                 # a non-string vertex
    {"a": ["b"]},               # not an array of facets
])
def test_malformed_facets_exit_2(tmp_path, capsys, facets):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"facets": facets}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"facets": [["a", "b"], ["c"]]}))
    with pytest.raises(InputParseError):
        load_complex(str(bad))
    for argv in (["complex", "depth", str(bad)],
                 ["complex", "shell", str(good), "--verify", str(bad)]):
        assert main(argv) == 2
        body = json.loads(capsys.readouterr().out)
        assert body["error"] == "InputParseError"


def _fresh_report(argv, hash_seed="0"):
    """Exit code and output of ``latshell argv`` in a new process; a JSON
    report loses its ``timing_seconds`` and is re-dumped with sorted keys."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "latshell", *argv],
                          env=env, capture_output=True, text=True)
    return proc.returncode, _without_timing(proc.stdout)


def _without_timing(text):
    try:
        body = json.loads(text)
    except json.JSONDecodeError:
        return text
    body.pop("timing_seconds", None)
    return json.dumps(body, sort_keys=True)


def test_complex_reports_do_not_depend_on_hash_seed(tmp_path):
    b4 = (subset_poset(4), ["e", "1", "12", "123", "1234"])
    pi4 = (pi4_poset(), ["1|2|3|4", "12|3|4", "123|4", "1234"])
    for name, (P, chain) in (("b4", b4), ("pi4", pi4)):
        L = lattice_check(P)
        lab = left_modular_labeling(L, verify_chain_modularity(L, chain))
        cx, cert = constructive_vd_skeleton(P, lab, min_chain_complexity(P, lab)[0])
        cx_file = tmp_path / f"{name}.json"
        cx_file.write_text(json.dumps(complex_json(cx)))
        order_file = tmp_path / f"{name}-order.json"
        order_file.write_text(json.dumps(
            {"facets": [sorted(f) for f in shelling_from_vd(cert, cx)]}))
        for argv in (["complex", "depth", str(cx_file)],
                     ["complex", "shell", str(cx_file), "--verify", str(order_file)]):
            reports = [_fresh_report(argv, seed) for seed in ("0", "1")]
            assert reports[0] == reports[1], (name, argv[1])
            assert reports[0][0] == 0, (name, argv[1])


S4_X_C2 = "degree: 6\n(1 2)\n(1 2 3 4)\n(5 6)\n"


def test_topology_reports_do_not_depend_on_hash_seed(tmp_path):
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps(
        {"facets": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]}))
    two_edges = tmp_path / "two_edges.json"
    two_edges.write_text(json.dumps({"facets": [["a", "b"], ["c", "d"]]}))
    ls4 = tmp_path / "ls4.json"
    GL = gm.subgroup_lattice(gm.symmetric(4))
    ls4.write_text(json.dumps(complex_json(order_complex(GL.lattice.poset))))
    grp = tmp_path / "s4xc2.grp"
    grp.write_text(S4_X_C2)
    cases = [(["complex", "vd", str(cycle)], "vertex_decomposable", True),
             (["complex", "vd", str(two_edges)], "vertex_decomposable", False),
             (["complex", "depth", str(ls4)], "depth", 1),
             (["group", "solvable", "--method", "depth", str(grp)],
              "verdict", "solvable")]
    for argv, key, expected in cases:
        reports = [_fresh_report(argv, seed) for seed in ("0", "1")]
        assert reports[0] == reports[1], argv
        code, text = reports[0]
        assert code == 0
        assert json.loads(text)["results"][key] == expected, argv


def test_parser_is_built_once_and_reports_match_fresh_processes(tmp_path, capsys):
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps(
        {"facets": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]}))
    grp = tmp_path / "s3.grp"
    grp.write_text("degree: 3\n(1 2)\n(1 2 3)\n")
    runs = [
        ["--limit-faces", "3", "complex", "depth", str(cycle)],
        ["complex", "depth", str(cycle)],  # the limit must not stick
        ["--format", "text", "complex", "depth", str(cycle)],
        ["complex", "vd", "--skeleton", "0", str(cycle)],
        ["--limit-vd-vertices", "2", "complex", "vd", str(cycle)],
        ["complex", "vd", str(cycle)],
        ["group", "solvable", "--method", "skeleton", str(grp)],
        ["group", "solvable", str(grp)],  # back to the default method
        ["complex", "shell", str(cycle), "--verify", str(cycle)],
    ]
    for argv in runs:
        code = main(argv)
        assert (code, _without_timing(capsys.readouterr().out)) \
            == _fresh_report(argv), argv
    assert _parser() is _parser()


def test_large_facets_refused_before_building(tmp_path, monkeypatch, capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"facets": [[f"v{i}" for i in range(18)]]}))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(
        {"facets": [["a", "b", "c"], [f"w{i}" for i in range(40)]]}))
    forbid_building(monkeypatch)
    cases = [
        (["--limit-faces", "1000", "complex", "depth", str(big)], FACET_18),
        (["--limit-faces", "1000", "complex", "depth", str(wide)],
         FACET_40_SKELETON_2.format(1000)),
        (["complex", "vd", "--skeleton", "4", str(wide)],
         "complex has 43 vertices, more than the vertex limit 25; raise it "
         "with --limit-vd-vertices"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert json.loads(capsys.readouterr().out) == {
            "error": "SizeLimit", "message": message}


@pytest.mark.parametrize("data", [
    {"elements": ["0", "a", "1"], "covers": [["0", "a", "1"]]},  # arity 3
    {"elements": ["0", "a", "1"], "covers": [["0", "a"], "a1"]},  # a bare string
    {"elements": ["0", "a", "1"], "covers": [["0", "a"], ["a", 1]]},  # a number
    {"elements": ["0", "a", "1"], "covers": {"0": "a"}},  # not an array
    {"elements": [0, 1], "covers": [["0", "1"]]},  # non-string ids
    {"elements": "0a1", "covers": [["0", "a"], ["a", "1"]]},  # a bare string
])
def test_malformed_posets_exit_2(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(InputParseError):
        load_poset(str(bad))
    assert main(["poset", "check", str(bad)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "InputParseError"


@pytest.mark.parametrize("edges", [
    [{"from": 0, "to": "a", "label": 1}],  # a non-string end
    [{"from": "0", "to": ["a"], "label": 1}],
    [{"from": "0", "to": "a", "label": 1},  # mixed numbers and strings
     {"from": "a", "to": "1", "label": "x"}],
    [{"from": "0", "to": "a", "label": True}],  # a bool is not a number
    [{"from": "0", "to": "a", "label": [1]}],
    {"from": "0", "to": "a", "label": 1},  # not an array
])
def test_malformed_labelings_exit_2(tmp_path, capsys, n5_file, edges):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"edges": edges}))
    with pytest.raises(InputParseError):
        load_labeling(str(bad), load_poset(n5_file))
    for sub in ("label verify", "morse report"):
        assert main([*sub.split(), "--poset", n5_file, "--labeling", str(bad)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "InputParseError"


def test_labels_may_be_all_numbers_or_all_strings(tmp_path, n5_file):
    for labels in ([1, 2.5], ["x", "y"]):
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps({"edges": [
            {"from": "0", "to": "a", "label": labels[0]},
            {"from": "a", "to": "1", "label": labels[1]}]}))
        loaded = load_labeling(str(lab), load_poset(n5_file))
        assert sorted(loaded.labels.values()) == labels


@pytest.fixture
def chain2_file(tmp_path):
    p = tmp_path / "chain2.json"
    p.write_text(json.dumps({"elements": ["0", "1"], "covers": [["0", "1"]]}))
    return str(p)


def _labeling_exits_2(capsys, poset_file, lab_file, words):
    for sub in ("label verify", "morse report"):
        assert main([*sub.split(), "--poset", poset_file,
                     "--labeling", lab_file]) == 2
        body = json.loads(capsys.readouterr().out)
        assert body["error"] == "InputParseError" and words in body["message"]


def test_duplicate_labeling_edge_exits_2(tmp_path, capsys, chain2_file):
    lab = tmp_path / "dup.json"
    lab.write_text(json.dumps({"edges": [
        {"from": "0", "to": "1", "label": 1},
        {"from": "0", "to": "1", "label": 5}]}))
    with pytest.raises(InputParseError, match="listed twice"):
        load_labeling(str(lab), load_poset(chain2_file))
    _labeling_exits_2(capsys, chain2_file, str(lab), "listed twice")


def test_labeling_edge_that_is_not_a_cover_exits_2(tmp_path, capsys, chain2_file):
    lab = tmp_path / "stray.json"
    lab.write_text(json.dumps({"edges": [
        {"from": "0", "to": "1", "label": 1},
        {"from": "0", "to": "9", "label": 2}]}))
    with pytest.raises(InputParseError, match="not a cover"):
        load_labeling(str(lab), load_poset(chain2_file))
    _labeling_exits_2(capsys, chain2_file, str(lab), "not a cover")


@pytest.mark.parametrize("text, shown", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"),
    ("1e400", "inf")])
def test_non_finite_labels_exit_2(tmp_path, capsys, chain2_file, text, shown):
    # json reads these as floats; 1e400 overflows to inf
    lab = tmp_path / "nonfinite.json"
    lab.write_text('{"edges": [{"from": "0", "to": "1", "label": %s}]}' % text)
    words = f"has the non-finite label {shown}"
    with pytest.raises(InputParseError, match=words):
        load_labeling(str(lab), load_poset(chain2_file))
    _labeling_exits_2(capsys, chain2_file, str(lab), words)


def test_negative_group_degree_exits_2(tmp_path, capsys):
    grp = tmp_path / "neg.grp"
    grp.write_text("degree: -1\n")
    with pytest.raises(NotAPermutation, match="degree -1 is negative"):
        gm.parse_group_file(grp.read_text())
    assert main(["group", "lattice", str(grp)]) == 2
    body = json.loads(capsys.readouterr().out)
    assert body == {"error": "NotAPermutation",
                    "message": "degree -1 is negative"}


def test_order_limit_refuses_during_the_closure(tmp_path, capsys):
    # S9 has 362 880 elements; the walk stops past the default limit 720,
    # before it can know the order
    grp = tmp_path / "s9.grp"
    grp.write_text("degree: 9\n(1 2)\n(1 2 3 4 5 6 7 8 9)\n")
    assert main(["group", "lattice", str(grp)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "OrderLimit", "message": "group order exceeds the order limit "
                                          "720; raise it with --limit-order"}


def test_limit_faces_gates_morse_and_connectivity(tmp_path, capsys):
    P, _ = divisor_poset(60)
    poset = tmp_path / "d60.json"
    poset.write_text(json.dumps(poset_json(P)))
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps({"edges": [{"from": x, "to": y, "label": 1}
                                         for x, y in P.covers()]}))
    grp = tmp_path / "s5.grp"
    grp.write_text("degree: 5\n(1 2)\n(1 2 3 4 5)\n")
    for argv in (["morse", "report", "--poset", str(poset), "--labeling", str(lab)],
                 ["group", "solvable", "--method", "skeleton", str(grp)]):
        assert main(argv) == 0, argv
        capsys.readouterr()
        assert main(["--limit-faces", "3", *argv]) == 2, argv
        assert json.loads(capsys.readouterr().out)["error"] == "SizeLimit", argv


def test_overlapping_cycles_exit_2(tmp_path, capsys):
    grp = tmp_path / "overlap.grp"
    grp.write_text("degree: 4\n(1 2)(1 3)\n")
    assert main(["group", "lattice", str(grp)]) == 2
    body = json.loads(capsys.readouterr().out)
    assert body == {"error": "NotAPermutation",
                    "message": "cycle '1 3' shares a point with an earlier cycle"}


def test_non_digit_cycle_points_exit_2(tmp_path, capsys):
    # int() reads "1_0" as 10, so this file parsed as the transposition
    # (2 10) of degree 12
    grp = tmp_path / "underscore.grp"
    grp.write_text("degree: 12\n(1_0 2)\n")
    assert main(["group", "lattice", str(grp)]) == 2
    body = json.loads(capsys.readouterr().out)
    assert body == {"error": "NotAPermutation",
                    "message": "bad cycle '1_0 2': not a list of integers"}


def test_partial_labeling_names_the_first_missing_cover(tmp_path, capsys):
    # A walk up from 0 meets (a, c) before (0, b); the verifier names the
    # cover that reading the intervals in order meets first: [0, a] has
    # all its labels and [0, b] is the next interval.
    poset = tmp_path / "square.json"
    poset.write_text(json.dumps({"elements": ["0", "a", "b", "c"], "covers": [
        ["0", "a"], ["a", "c"], ["0", "b"], ["b", "c"]]}))
    lab = tmp_path / "partial.json"
    lab.write_text(json.dumps({"edges": [
        {"from": "0", "to": "a", "label": 1},
        {"from": "b", "to": "c", "label": 2}]}))
    for strict in ([], ["--strict"]):
        assert main(["label", "verify", "--poset", str(poset),
                     "--labeling", str(lab), *strict]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "UnknownElement", "message": "no label on cover ('0', 'b')"}


@dataclass(frozen=True)
class _Pair:
    first: object
    second: object


_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 1e22, 1e-7, math.nan, math.inf, -math.inf]))
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, st.text())
_HASHABLE = st.one_of(_LEAVES, st.tuples(_LEAVES, _LEAVES))
_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple),
    st.sets(_HASHABLE), st.frozensets(_HASHABLE),
    st.lists(st.text()),
    st.dictionaries(st.one_of(st.text(), st.integers(), st.booleans()), inner),
    st.builds(_Pair, inner, inner)), max_leaves=30)


@given(_VALUES)
@example({1: "int", "1": "str", True: "bool", "True": _Pair((), set())})
@settings(max_examples=300, deadline=None)
def test_report_walk_writes_the_bytes_of_json_dumps(value):
    """The JSON report is one walk over the raw results, byte for byte
    ``json.dumps`` of their ``_plain`` form."""
    body = {"results": value, "inputs": {"a.json": "0" * 64}, "warnings": []}
    assert _json(body, "\n") == json.dumps(_plain(body), indent=2, sort_keys=True)
    assert _json(value, "\n") == json.dumps(_plain(value), indent=2, sort_keys=True)
