import functools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshell import (
    classify_modularity,
    is_solvable,
    lattice_check,
    left_modular_labeling,
    maximal_chains,
    min_chain_complexity,
    order_complex,
    skeleton_shellability_criterion,
    solvability_by_depth,
    subgroup_lattice,
    subgroups,
    thevenaz_check,
    verify_chain_modularity,
    verify_quasi_el,
)
from latshell import groups as gm
from latshell.cli import main
from latshell.errors import (
    NotAPermutation,
    NotSolvable,
    OrderLimit,
    SelfCheckFailed,
    SizeLimit,
)
from latshell.labeling import stats_of_sequence

from conftest import partition_poset
from group_counts import closures, pair_tests
from group_oracles import (
    reference_extend,
    reference_generated_subgroup,
    reference_is_normal,
    reference_is_solvable,
    reference_meet_join,
    reference_subgroups,
    reference_table,
)
from lattice_oracles import reference_lattice_check

GROUP_FILES = {
    "C2^4": "degree: 8\n(1 2)\n(3 4)\n(5 6)\n(7 8)\n",
    "S4xC2": "degree: 6\n(1 2)\n(1 2 3 4)\n(5 6)\n",
    "PSL(2,7)": "degree: 7\n(1 2 3 4 5 6 7)\n(1 2)(3 6)\n",
}

GROUPS = {
    "S3": lambda: gm.symmetric(3),
    "D4": lambda: gm.dihedral(4),
    "C12": lambda: gm.cyclic(12),
    "S4": lambda: gm.symmetric(4),
    "C2^4": lambda: gm.parse_group_file(GROUP_FILES["C2^4"]),
    "A5": lambda: gm.alternating(5),
    "S4xC2": lambda: gm.parse_group_file(GROUP_FILES["S4xC2"]),
    "S5": lambda: gm.symmetric(5),
    "PSL(2,7)": lambda: gm.parse_group_file(GROUP_FILES["PSL(2,7)"]),
}


@functools.cache
def reference(name):
    """The group and its subgroups by the reference fixpoint, once per run."""
    G = GROUPS[name]()
    return G, reference_subgroups(G)


def test_group_from_generators():
    S3 = gm.group_from_generators(3, [(1, 0, 2), (1, 2, 0)])
    assert S3.order == 6
    A5 = gm.alternating(5)
    assert A5.order == 60
    trivial = gm.group_from_generators(4, [])
    assert trivial.order == 1
    with pytest.raises(NotAPermutation):
        gm.group_from_generators(3, [(0, 0, 1)])


def test_cycle_parsing():
    p = gm.parse_cycles("(1 2)(3 4)", 4)
    assert p == (1, 0, 3, 2)
    assert gm.parse_cycles("()", 3) == (0, 1, 2)
    # an empty cycle is the identity on its own, and refused in a product
    assert gm.parse_cycles("( )", 3) == (0, 1, 2)
    with pytest.raises(NotAPermutation):
        gm.parse_cycles("(1 5)", 3)


@pytest.mark.parametrize("text, message", [
    ("(1 2)(1 3)", "cycle '1 3' shares a point with an earlier cycle"),
    ("(1 2 3)(4 3)", "cycle '4 3' shares a point with an earlier cycle"),
    ("(1 x)", "bad cycle '1 x': not a list of integers"),
    ("(1 2) (3 4)", "bad cycle '1 2) (3 4': not a list of integers"),
    ("((1 2))", "bad cycle '(1 2)': not a list of integers"),
    # points are ASCII decimal digits, not whatever int() reads
    ("(1_0 2)", "bad cycle '1_0 2': not a list of integers"),
    ("(+1 2)", "bad cycle '+1 2': not a list of integers"),
    ("(\u0661 2)", "bad cycle '\u0661 2': not a list of integers"),
    ("(1 2 3)(  )", "bad cycle '  ': empty cycle in a product"),
    ("()()", "bad cycle '': empty cycle in a product"),
])
def test_malformed_cycles_are_refused(text, message):
    with pytest.raises(NotAPermutation) as exc:
        gm.parse_cycles(text, 4)
    assert str(exc.value) == message
    G = gm.parse_group_file("degree: 3\n(1 2)\n(1 2 3)\n")
    assert G.order == 6


def test_subgroup_counts():
    assert len(subgroups(gm.symmetric(3))) == 6
    assert len(subgroups(gm.symmetric(4))) == 30
    assert len(subgroups(gm.alternating(5))) == 59
    assert len(subgroups(gm.symmetric(5))) == 156
    assert len(subgroups(GROUPS["PSL(2,7)"]())) == 179
    # the reference fixpoint needs about half a minute on A6, so A6 is
    # checked by its count only
    assert len(subgroups(gm.alternating(6))) == 501
    with pytest.raises(OrderLimit):
        subgroups(gm.symmetric(4), order_limit=10)


@pytest.mark.parametrize("name", list(GROUPS))
def test_subgroups_match_reference(name):
    G, expected = reference(name)
    assert subgroups(G) == expected


@pytest.mark.parametrize("name", ["S3", "A4", "S4", "D4", "C12", "C2^4",
                                  "S4xC2", "A5"])
def test_normal_subgroups_match_reference(name):
    G = gm.alternating(4) if name == "A4" else GROUPS[name]()
    GL = subgroup_lattice(G)
    assert GL.normal_names == {nm for nm, H in zip(GL.names, GL.subgroup_sets)
                               if reference_is_normal(G, H)}


@pytest.mark.parametrize("name", ["S3", "S4", "S5", "A5", "PSL(2,7)", "C2^4",
                                  "S4xC2"])
def test_table_matches_reference(name):
    gens = list(GROUPS[name]().generators)
    shuffled = gens[::-1] + gens
    random.Random(name).shuffle(shuffled)
    for order in (gens, gens[::-1], shuffled):
        G = gm.group_from_generators(len(gens[0]), order)
        table, inverses = reference_table(G)
        assert G.table() == table
        assert G.inverse_indices() == inverses


RELABELLED = {
    "S4": lambda: gm.symmetric(4),
    "D6": lambda: gm.dihedral(6),
    "A5": lambda: gm.alternating(5),
    "C2^4": lambda: gm.parse_group_file(GROUP_FILES["C2^4"]),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(RELABELLED)), st.data())
def test_subgroups_of_relabelled_groups_match_reference(name, data):
    """The normalizer orbits come from Schreier generators, which depend
    on the points' labels and on the generators' order and repeats."""
    base = RELABELLED[name]()
    n = base.degree
    image = data.draw(st.permutations(range(n)))
    gens = []
    for g in base.generators:
        h = [0] * n
        for i in range(n):
            h[image[i]] = image[g[i]]
        gens.append(tuple(h))
    extra = data.draw(st.lists(st.sampled_from(gens + [base.identity]),
                               max_size=3))
    G = gm.group_from_generators(n, data.draw(st.permutations(gens + extra)))
    assert G.table() == reference_table(G)[0]
    assert subgroups(G) == reference_subgroups(G)
    # normality is read off each class's size in the same walk
    for members, _, _, normal in gm._subgroup_classes(G, gm.ORDER_LIMIT):
        H = frozenset(G.elements[i] for i in members)
        assert normal == reference_is_normal(G, H)


def test_s5_enumeration_closes_one_zuppo_per_normalizer_orbit():
    # every zuppo outside each representative made 901 closures on S5
    subs, calls = closures(subgroups, gm.symmetric(5))
    assert len(subs) == 156 and calls <= 300


def test_order_limit_message_and_gate():
    G = gm.symmetric(5)
    with pytest.raises(OrderLimit) as info:
        subgroups(G, order_limit=100)
    message = str(info.value)
    assert "120" in message and "100" in message and "--limit-order" in message
    # refused before the multiplication table is built
    assert G._table is None


def test_is_solvable_matches_derived_series():
    stock = [gm.symmetric(n) for n in range(1, 6)]
    stock += [gm.alternating(n) for n in range(3, 6)]
    stock += [gm.cyclic(n) for n in (1, 2, 6, 12)]
    stock += [gm.dihedral(n) for n in (3, 4, 6)]
    stock += [gm.klein_four()]
    stock += [GROUPS[name]() for name in ("C2^4", "S4xC2", "PSL(2,7)")]
    for G in stock:
        assert is_solvable(G) == reference_is_solvable(G), G


S5 = gm.symmetric(5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 119), max_size=4))
def test_generated_subgroup_matches_reference(picks):
    seed = [S5.elements[i] for i in picks]
    e = S5.index(S5.identity)
    got = gm._extend(S5.table(), {e}, [e], [], picks)[0]
    assert ({S5.elements[i] for i in got}
            == reference_generated_subgroup(S5, seed))


@functools.cache
def classes(name):
    G = gm.alternating(4) if name == "A4" else GROUPS[name]()
    return G, gm._subgroup_classes(G, gm.ORDER_LIMIT)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["S4", "A5", "S5", "PSL(2,7)"]), st.data())
def test_extend_matches_reference(name, data):
    """The coset step takes y.H in one itemgetter call; the closure keeps
    the members, the element order and the generators of the list-built
    cosets, from any subgroup (the trivial one's block has one element)
    and by any elements, inside it or not."""
    G, found = classes(name)
    members, elems, gens, _ = found[data.draw(
        st.one_of(st.just(0), st.integers(0, len(found) - 1)))]
    new = data.draw(st.lists(st.one_of(st.integers(0, G.order - 1),
                                       st.sampled_from(elems)), max_size=4))
    table = G.table()
    assert (gm._extend(table, members, elems, gens, new)
            == reference_extend(table, members, elems, gens, new))


@pytest.mark.parametrize("name", ["S3", "S4", "A4", "A5", "D4", "C2^4"])
def test_meet_and_join_tables_match_references(name):
    G, _ = classes(name)
    GL = subgroup_lattice(G)
    L, subs = GL.lattice, GL.subgroup_sets
    expected = reference_lattice_check(L.poset)
    assert L._meet == expected._meet and L._join == expected._join
    index = {h: k for k, h in enumerate(subs)}
    assert L._meet == [[index[a & b] for b in subs] for a in subs]


def outcome(fn, *args):
    """("value", None), or the type, check name and message of the error."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc).__name__, getattr(exc, "check", None), str(exc)
    return "value", None


def dropping(monkeypatch, k):
    """Make ``_subgroup_classes`` leave out its k-th subgroup."""
    enumerate_classes = gm._subgroup_classes

    def drop(G, order_limit):
        found = enumerate_classes(G, order_limit)
        del found[k]
        return found

    monkeypatch.setattr(gm, "_subgroup_classes", drop)


def dropped_reference(G, k):
    """The outcome of the reference meet assembly once H_k is left out."""
    subs = [m for m, *_ in gm._subgroup_classes(G, gm.ORDER_LIMIT)]
    del subs[k]
    masks = [sum(1 << i for i in m) for m in subs]
    return outcome(reference_meet_join, masks,
                   [f"H{i}" for i in range(len(masks))])


def pick(name, order, normal):
    """The index of the first subgroup of that order and normality."""
    _, found = classes(name)
    return next(k for k, (m, _, _, nm) in enumerate(found)
                if len(m) == order and nm == normal)


@pytest.mark.parametrize("name, order, normal, expected", [
    # D4's centre is the meet of its cyclic subgroup of order 4 and either
    # Klein four-group; without it the rest is still a lattice
    ("D4", 2, True, ("SelfCheckFailed", "meet")),
    # S4's normal Klein four-group is the meet of its three dihedral
    # subgroups; without it they have three maximal common lower bounds
    ("S4", 4, True, ("NotALattice", None)),
    # without the trivial subgroup there is no bottom
    ("S3", 1, True, ("Unbounded", None)),
])
def test_missing_intersection_raises_the_reference_error(monkeypatch, name,
                                                         order, normal, expected):
    G, _ = classes(name)
    k = pick(name, order, normal)
    reference_error = dropped_reference(G, k)
    assert reference_error[:2] == expected
    dropping(monkeypatch, k)
    assert outcome(subgroup_lattice, G) == reference_error


@pytest.mark.parametrize("name", ["S3", "D4", "S4"])
def test_every_dropped_subgroup_fails_as_the_reference(monkeypatch, name):
    """Leave out each subgroup in turn.  Where the reference assembly
    fails, the lattice fails with its error; where it passes, any failure
    comes from a later check."""
    G, found = classes(name)
    for k in range(len(found)):
        expected = dropped_reference(G, k)
        with monkeypatch.context() as m:
            dropping(m, k)
            got = outcome(subgroup_lattice, G)
        if expected[0] == "value":
            assert got[:2] in {("value", None),
                               ("SelfCheckFailed", "join")}, (k, got)
        else:
            assert got == expected, k


def test_c2_4_tests_each_pair_of_normal_subgroups_once():
    # all 67 subgroups of C2^4 are normal; classifying each on its own made
    # 7 060 pair tests, two for every ordered pair of incomparable ones
    GL, calls = pair_tests(subgroup_lattice, GROUPS["C2^4"]())
    assert len(GL.normal_names) == 67 and calls <= 3530


def test_group_lattice_report_is_deterministic(tmp_path):
    _, expected = reference("PSL(2,7)")
    grp = tmp_path / "psl27.grp"
    grp.write_text(GROUP_FILES["PSL(2,7)"])
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    reports = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-m", "latshell", "group",
                              "lattice", str(grp)], env=env, check=True,
                             capture_output=True, text=True).stdout
        body = json.loads(out)
        del body["timing_seconds"]
        reports.append(json.dumps(body, sort_keys=True))
    assert reports[0] == reports[1]

    # H0, H1, ... name the subgroups in the reference enumerator's order
    body = json.loads(reports[0])
    names = body["element_order"]
    assert names == [f"H{i}" for i in range(len(expected))]
    index = {h: i for i, h in enumerate(expected)}
    above = {i: [index[k] for k in expected if h < k]
             for i, h in enumerate(expected)}
    ref_covers = {(names[i], names[j]) for i in above for j in above[i]
                  if not any(j in above[m] for m in above[i])}
    assert {tuple(c) for c in body["results"]["poset"]["covers"]} == ref_covers


def test_self_check_failure_is_typed(tmp_path, monkeypatch, capsys):
    grp = tmp_path / "s3.grp"
    grp.write_text("degree: 3\n(1 2)\n(1 2 3)\n")
    # the join check closes one subgroup by another's generators with
    # _extend; once the subgroups are enumerated, a closure that always
    # returns the whole group disagrees with every join below the top
    enumerate_classes = gm._subgroup_classes

    def enumerate_then_break(G, order_limit):
        classes = enumerate_classes(G, order_limit)
        monkeypatch.setattr(gm, "_extend", lambda table, members, elems, gens,
                            new: (frozenset(range(len(table))), elems, gens))
        return classes

    monkeypatch.setattr(gm, "_subgroup_classes", enumerate_then_break)
    assert main(["group", "lattice", str(grp)]) == 1
    body = json.loads(capsys.readouterr().out)
    assert body["error"] == "SelfCheckFailed" and body["check"] == "join"
    assert "join" in body["message"]


@pytest.mark.parametrize("name", ["S3", "S4"])
def test_join_check_sees_a_dropped_generator(monkeypatch, name):
    # H1 has order 2; without its generator, closing any larger subgroup
    # that misses it gives that subgroup, not the join
    enumerate_classes = gm._subgroup_classes

    def drop_one(G, order_limit):
        classes = enumerate_classes(G, order_limit)
        members, elems, gens, normal = classes[1]
        assert len(members) == 2 and len(gens) == 1
        classes[1] = (members, elems, gens[1:], normal)
        return classes

    monkeypatch.setattr(gm, "_subgroup_classes", drop_one)
    with pytest.raises(SelfCheckFailed) as info:
        subgroup_lattice(GROUPS[name]())
    assert info.value.check == "join"


def test_subgroup_lattice_shapes(gl_s3, gl_a4):
    P = gl_s3.lattice.poset
    proper = [e for i, e in enumerate(P.elements)
              if i not in (P.bottom, P.top)]
    assert len(proper) == 4
    for a in proper:
        for b in proper:
            if a != b:
                assert not P.leq(a, b)

    assert len(gl_a4.names) == 10
    v4 = next(n for n, s in zip(gl_a4.names, gl_a4.subgroup_sets)
              if len(s) == 4)
    assert v4 in gl_a4.normal_names
    rep = classify_modularity(gl_a4.lattice, v4)
    assert rep.modular


def test_tiny_group_lattice():
    GL = subgroup_lattice(gm.cyclic(2))
    assert len(GL.names) == 2
    assert order_complex(GL.lattice.poset).is_empty
    assert GL.r == 1
    rep = solvability_by_depth(GL)
    assert rep.verdict == "solvable" and rep.depth_exact == -1 == GL.r - 2


@pytest.mark.parametrize("method", ["depth", "skeleton"])
def test_trivial_group_is_solvable(tmp_path, capsys, method):
    grp = tmp_path / "trivial.grp"
    grp.write_text("degree: 3\n")
    assert main(["group", "solvable", "--method", method, str(grp)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["r"] == 0
    assert results["verdict"] == "solvable" and results["agree"] is True


def test_s6_at_default_limits(tmp_path, capsys, monkeypatch):
    grp = tmp_path / "s6.grp"
    grp.write_text("degree: 6\n(1 2)\n(1 2 3 4 5 6)\n")
    built = []

    def keep(G, **kwargs):
        built.append(subgroup_lattice(G, **kwargs))
        return built[-1]

    monkeypatch.setattr(gm, "subgroup_lattice", keep)
    assert main(["group", "solvable", "--method", "depth", str(grp)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(built[0].names) == 1455 and built[0].r == 2 == results["r"]
    assert results["verdict"] == "nonsolvable" and results["agree"] is True


def test_chief_series(gl_s3, gl_s4, gl_a5):
    orders = [len(gl_s3.subgroup_of(n)) for n in gl_s3.chief.elements]
    assert orders == [1, 3, 6]
    assert gl_s3.r == 2 and is_solvable(gl_s3.group)

    orders = [len(gl_s4.subgroup_of(n)) for n in gl_s4.chief.elements]
    assert orders == [1, 4, 12, 24]
    assert gl_s4.r == 3 and is_solvable(gl_s4.group)

    orders = [len(gl_a5.subgroup_of(n)) for n in gl_a5.chief.elements]
    assert orders == [1, 60]
    assert gl_a5.r == 1 and not is_solvable(gl_a5.group)


def test_normal_subgroups_are_modular(gl_s3, gl_a4, gl_s4):
    for GL in (gl_s3, gl_a4, gl_s4):
        for name in GL.normal_names:
            assert classify_modularity(GL.lattice, name).modular


def test_solvability_by_depth(gl_s3, gl_s4, gl_a5):
    rep = solvability_by_depth(gl_s4)
    assert rep.verdict == "solvable" and rep.agree
    assert rep.depth_exact == rep.r - 2 == 1

    rep = solvability_by_depth(gl_s3)
    assert rep.verdict == "solvable" and rep.depth_exact == 0

    rep = solvability_by_depth(gl_a5)
    assert rep.verdict == "nonsolvable" and rep.agree
    assert rep.skeleton_cm

    # L(S4)'s complex is nonpure: its 1-skeleton has 92 faces and its
    # 2-skeleton, the checked one, 116.  At a face limit of 92 the depth is
    # still computed, and the checked skeleton is refused as it always was.
    with pytest.raises(SizeLimit) as info:
        solvability_by_depth(gl_s4, homology_limit=92)
    assert str(info.value) == ("complex has 116 faces, more than the face "
                               "limit 92; raise it with --limit-faces")


def test_skeleton_shellability(gl_s4, gl_a5):
    rep = skeleton_shellability_criterion(gl_s4)
    assert not rep.pure and rep.verdict == "solvable" and rep.agree

    rep = skeleton_shellability_criterion(gl_a5)
    assert rep.pure and rep.shellable and rep.verdict == "nonsolvable"

    GL = subgroup_lattice(gm.klein_four())
    rep = skeleton_shellability_criterion(GL)
    assert not rep.pure and rep.verdict == "solvable" and rep.agree


def test_constructive_branch_on_a_hand_built_lattice(monkeypatch):
    """No group of order below 240 reaches the constructive branch, so A5
    is paired with the partition lattice Pi5 and its left-modular chain of
    merges: r = 3, and every maximal chain has 4 covers, so the
    2-skeleton is pure."""
    L = lattice_check(partition_poset(5))
    chain = ["1|2|3|4|5", "12|3|4|5", "123|4|5", "12345"]
    GL = gm.GroupLattice(gm.alternating(5), [], [], L, set(),
                         verify_chain_modularity(L, chain))
    rep = skeleton_shellability_criterion(GL)
    assert (rep.r, rep.min_chain_covers, rep.pure) == (3, 4, True)
    assert rep.method == "constructive" and rep.shellable
    assert rep.verdict == "nonsolvable" and rep.agree

    # a pure skeleton forces the bound to r + 1; a smaller one is a bug
    monkeypatch.setattr(gm.lb, "min_chain_complexity", lambda P, lab: (3, None))
    with pytest.raises(SelfCheckFailed) as info:
        skeleton_shellability_criterion(GL)
    assert info.value.check == "chain-complexity"


def test_thevenaz(gl_s3, gl_a4, gl_a5):
    rep = thevenaz_check(gl_s3)
    assert rep.ok and rep.betti[0] == 3 == rep.complement_chain_refinements

    rep = thevenaz_check(gl_a4)
    assert rep.ok and rep.betti[0] == 4

    GL = subgroup_lattice(gm.cyclic(6))
    rep = thevenaz_check(GL)
    assert rep.ok and rep.betti[0] == 1 == rep.complement_chain_refinements

    with pytest.raises(NotSolvable):
        thevenaz_check(gl_a5)


def test_solvable_pipeline_pins_depth(gl_s3, gl_s4):
    # chief-series labeling is valid, its decomposition floor meets the
    # minimum chain length, so the depth is exactly r - 2
    for GL in (gl_s3, gl_s4):
        P = GL.lattice.poset
        lab = left_modular_labeling(GL.lattice, GL.chief)
        assert verify_quasi_el(P, lab).ok
        bound, _ = min_chain_complexity(P, lab)
        assert bound >= GL.r
        lo, _ = P.min_max_chain_covers()
        assert lo == GL.r  # minimum maximal-chain length of a solvable group
        rep = solvability_by_depth(GL)
        assert rep.depth_exact == GL.r - 2


def test_nonsolvable_chain_lengths_and_pigeonhole(gl_a5, gl_s5):
    for GL in (gl_a5, gl_s5):
        P = GL.lattice.poset
        lo, _ = P.min_max_chain_covers()
        assert lo >= GL.r + 2
        lab = left_modular_labeling(GL.lattice, GL.chief)
        bound, _ = min_chain_complexity(P, lab)
        assert bound >= GL.r + 1
        for c in maximal_chains(P):
            st = stats_of_sequence(c.elements, lab.sequence(c.elements))
            assert st.ell0 >= GL.r


def test_acyclic_solvable_groups_are_globally_trivial():
    # if everything vanishes up to r - 2 the complex is trivial everywhere
    from latshell.complexes import betti_numbers

    for G in (gm.symmetric(3), gm.symmetric(4), gm.alternating(4),
              gm.cyclic(6), gm.klein_four(), gm.dihedral(4),
              gm.cyclic(2), gm.cyclic(4), gm.cyclic(12)):
        GL = subgroup_lattice(G)
        betti = betti_numbers(order_complex(GL.lattice.poset))
        if all(betti.get(i, 0) == 0 for i in range(-1, GL.r - 1)):
            assert all(v == 0 for v in betti.values())


def test_exact_depth_gate_counts_faces(gl_s4, monkeypatch):
    """The exact depth is reported up to the face limit and not beyond it;
    L(S4)'s order complex has 116 faces."""
    monkeypatch.setattr(gm, "EXACT_DEPTH_FACE_LIMIT", 116)
    assert gm.solvability_by_depth(gl_s4).depth_exact == gl_s4.r - 2
    monkeypatch.setattr(gm, "EXACT_DEPTH_FACE_LIMIT", 115)
    rep = gm.solvability_by_depth(gl_s4)
    assert rep.depth_exact is None and rep.verdict == "solvable"
