"""Self-test of the benchmark's checks.  Run from the repository root:

    python3 bench/selftest.py

It shows that a correct output passes, and that a corrupted output, a
non-zero exit or a catalog that contradicts the paper is counted as a failed
command.  It also checks the tail rule, the counter identities, and that two
traced runs of one command repeat their counts exactly.  Takes a few seconds.
"""

from __future__ import annotations

import json
import sys
import unittest

import check
import layers
import run

CHEAP = ("verify", "exclusions", "--p", "5")


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.env = run.child_env()
        cls.reference = check.load_reference()
        cls.good = run.run_cli(CHEAP, cls.env)

    def counted(self, child: run.Child) -> tuple[int, int]:
        failures = run.Failures(self.reference)
        failures.check(child)
        return failures.attempted, len(failures.rows)

    def test_correct_output_passes(self) -> None:
        self.assertEqual(self.good.returncode, 0)
        self.assertEqual(self.counted(self.good), (1, 0))

    def test_corrupted_output_fails(self) -> None:
        bad = bytearray(self.good.stdout)
        bad[-3] ^= 0x01
        child = run.Child(CHEAP, 0, bytes(bad), b"", 1.0, 1.0, 1.0)
        self.assertEqual(self.counted(child), (1, 1))
        self.assertEqual(self.counted(run.Child(CHEAP, 0, b"", b"", 1.0, 1.0, 1.0)), (1, 1))

    def test_nonzero_exit_fails(self) -> None:
        child = run.Child(CHEAP, 1, self.good.stdout, b"", 1.0, 1.0, 1.0)
        self.assertEqual(self.counted(child), (1, 1))

    def test_failing_process_is_counted(self) -> None:
        # A real child that prints the right bytes but exits 3.
        text = self.good.stdout.decode()
        program = f"import sys; sys.stdout.write({text!r}); sys.exit(3)"
        child = run.run_child([sys.executable, "-c", program], CHEAP, self.env)
        self.assertEqual(child.returncode, 3)
        self.assertEqual(child.stdout, self.good.stdout)
        self.assertEqual(self.counted(child), (1, 1))

    def test_paper_facts_catch_a_wrong_catalog(self) -> None:
        rows = [{"family": f"chi2({i})", "group_order": 16, "type": [4, 8], "chi": -2} for i in range(12)]
        self.assertTrue(check.paper_facts(("classify", "--p", "2"), json.dumps(rows).encode()))
        self.assertTrue(check.paper_facts(CHEAP, b"verify exclusions: FAIL\n"))
        dh1 = b"gens x y s t\nrel s (y t)^997\nmark x y s t\n"
        self.assertTrue(check.paper_facts(("construct", "--family", "dh1", "--p", "997"), dh1))
        self.assertEqual(check.paper_facts(CHEAP, self.good.stdout), [])


class TraceTest(unittest.TestCase):
    def test_traced_counts_repeat_and_identities_hold(self) -> None:
        env = run.child_env()
        runs = []
        for _ in range(2):
            child = run.run_traced(CHEAP, env)
            out, marker, trace = child.stdout.partition(run.TRACE_MARKER)
            self.assertTrue(marker)
            self.assertEqual(check.problems(check.load_reference(), CHEAP, child.returncode, out), [])
            runs.append(layers.totals([(json.loads(trace), len(out))]))
        first, second = runs
        self.assertEqual({n: first.get(n) for n in layers.EXACT}, {n: second.get(n) for n in layers.EXACT})
        self.assertGreater(first["maps.euler_characteristic_formula.calls"], 0)
        self.assertEqual(layers.identity_problems("exclusions", first, 0), [])
        broken = dict(first, **{"maps.subgroup_closure.calls": first["maps.euler_characteristic_formula.calls"] + 1})
        self.assertTrue(layers.identity_problems("exclusions", broken, 0))
        self.assertTrue(layers.identity_problems("exclusions", first, 1))


class TailTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self) -> None:
        self.assertIsNone(run.tail([1.0] * 19))
        self.assertEqual(run.tail([float(i) for i in range(20)])["percentile"], 50.0)
        self.assertEqual(run.tail([float(i) for i in range(100)])["percentile"], 90.0)


if __name__ == "__main__":
    unittest.main()
