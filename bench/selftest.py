"""Self-tests of the benchmark's generators, oracle and tracer.

    python3 bench/selftest.py

Kept out of the repository's pytest run (the file name does not match
test_*.py); they take about ten seconds.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import tempfile
import unittest

import lattices as lt
import run
from tracer import Tracer
from workloads import WORKLOADS, lattice_of_group

sys.path.insert(0, str(run.SRC))


class GeneratorSizes(unittest.TestCase):
    def test_lattice_sizes(self):
        # (elements, maximal chains)
        cases = [(lt.boolean(5), 32, 120), (lt.partition(5), 52, 180),
                 (lt.divisor(2 * 2 * 3 * 3 * 5 * 7), 36, 180),
                 (lt.divisor(2 * 2 * 3 * 5 * 7 * 11), 48, 360)]
        for spec, n, chains in cases:
            with self.subTest(spec.name):
                self.assertEqual(len(spec.elements), n)
                self.assertEqual(spec.maximal_chains(), chains)
                self.assertEqual(len(lt.order_complex_facets(spec)), chains)
        self.assertEqual(lt.boolean(2).strict_pairs(), 5)

    def test_group_orders(self):
        for spec in lt.GROUPS.values():
            with self.subTest(spec.name):
                self.assertEqual(lt.permutation_order(spec), spec.order)

    def test_subgroup_counts(self):
        ls = run.fresh_import()
        rng = random.Random(0)
        for spec in lt.GROUPS.values():
            with self.subTest(spec.name):
                G = ls.groups.parse_group_file(lt.relabelled_group_file(spec, rng))
                self.assertEqual(len(ls.groups.subgroups(G)), spec.subgroups)

    def test_pinned_subgroup_lattices(self):
        # brute force, independent of latshell; S4xC2's count was pinned
        # from the library's output
        for spec in lt.GROUPS.values():
            if spec.order > 48:
                continue
            with self.subTest(spec.name):
                subgroups, *lattice = lt.subgroup_sizes(spec)
                self.assertEqual(subgroups, spec.subgroups)
                if spec.lattice:
                    self.assertEqual(tuple(lattice), spec.lattice)

    def test_program_lattice_must_match_pins(self):
        ls = run.fresh_import()
        spec = lt.GROUPS["D4"]
        _, sizes = lattice_of_group(ls, spec, random.Random(0))
        self.assertEqual(sizes, lt.Sizes(10, 15, 24, 7, 3))
        wrong = dataclasses.replace(spec, lattice=(15, 24, 8))
        with self.assertRaises(ValueError):
            lattice_of_group(ls, wrong, random.Random(0))

    def test_relabelling_keeps_the_group(self):
        spec = lt.GROUPS["PSL(2,7)"]
        texts = {lt.relabelled_group_file(spec, random.Random(s)) for s in range(5)}
        self.assertGreater(len(texts), 1)
        for text in texts:
            degree, *gens = text.split("\n")[:-1]
            relabelled = dataclasses.replace(spec, generators=tuple(gens))
            self.assertEqual(lt.permutation_order(relabelled), spec.order)


def _scratch():
    run.OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT)


def _outcomes(workload, seed):
    """(label, facts) of every op of one pass, and the pass's failures."""
    with _scratch() as tmp:
        ls = run.fresh_import()
        ops = WORKLOADS[workload](ls, random.Random(seed), tmp)
        failures = []
        run.run_pass(ops, [], failures)
        return [(op.label, op.call()) for op in ops if not op.known_defect], failures


class Oracle(unittest.TestCase):
    def test_two_seeds_give_identical_verdicts(self):
        first, fail_a = _outcomes("cli-small-reports", "seed-a")
        second, fail_b = _outcomes("cli-small-reports", "seed-b")
        self.assertEqual(first, second)
        self.assertTrue(all(known for _, known, _ in fail_a + fail_b))

    def test_wrong_pinned_value_is_a_failed_op(self):
        with _scratch() as tmp:
            ls = run.fresh_import()
            ops = WORKLOADS["cli-small-reports"](ls, random.Random(1), tmp)
            op = next(o for o in ops if o.label == "poset check B3")
            self.assertIsNone(run.run_op(op))
            op.expected = dict(op.expected, elements=9)
            failures = []
            run.run_pass([op], [], failures)
            self.assertEqual([f[0] for f in failures], [op.label])
            self.assertIn("expected", failures[0][2])

    def test_known_defects_are_counted(self):
        _, failures = _outcomes("cli-small-reports", "seed-c")
        self.assertEqual(sorted(label for label, _, _ in failures),
                         ["complex depth nested facets",
                          "label verify mixed-type labels",
                          "poset check cover of arity 3"])
        self.assertTrue(all(known for _, known, _ in failures))

    def test_other_failure_of_a_known_defect_op_is_not_known(self):
        with _scratch() as tmp:
            ls = run.fresh_import()
            ops = WORKLOADS["cli-small-reports"](ls, random.Random(2), tmp)
            op = next(o for o in ops if o.label == "poset check cover of arity 3")
            # the input wrongly accepted, or rejected by another exception
            wrong_exit = dataclasses.replace(op, call=lambda: {"exit": 0})
            other = dataclasses.replace(op, known_defect="KeyError")
            failures = []
            run.run_pass([op, wrong_exit, other], [], failures)
            self.assertEqual([known for _, known, _ in failures],
                             [True, False, False])


class Tracing(unittest.TestCase):
    def test_self_time_and_uninstall(self):
        ls = run.fresh_import()
        original = ls.poset.build_poset
        spec = lt.boolean(3)
        tracer = Tracer()
        tracer.install()
        try:
            # wrapped where it is looked up: in its module and the package
            self.assertIsNot(ls.poset.build_poset, original)
            self.assertIs(ls.build_poset, ls.poset.build_poset)
            L = ls.lattice_check(ls.build_poset(spec.elements, spec.covers))
            ls.order_complex(L.poset)
        finally:
            tracer.uninstall()
        self.assertIs(ls.poset.build_poset, original)
        self.assertIs(ls.build_poset, original)
        seconds, calls = tracer.self_times()
        self.assertEqual(calls["poset.build_poset"], 1)
        self.assertEqual(calls["lattice.lattice_check"], 1)
        self.assertEqual(tracer.counts["poset.order_complex.facets"], 6)
        total = sum(end - start for _, start, end, parent in tracer.spans
                    if parent < 0)
        self.assertAlmostEqual(sum(seconds.values()), total, places=9)

    def test_untraced_setup_wraps_nothing(self):
        ls = run.fresh_import()
        self.assertFalse(hasattr(ls.cli.main, "__wrapped__"))
        self.assertFalse(hasattr(ls.poset.build_poset, "__wrapped__"))


if __name__ == "__main__":
    unittest.main()
