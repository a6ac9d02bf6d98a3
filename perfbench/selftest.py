"""The benchmark's own test: its correctness gate and its attribution.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It feeds the correctness check deliberately wrong results and expects a
nonzero error rate, checks the host rescaling of timed samples, and
checks that the traced run's wrappers come off again and account for a
pipeline run's wall time.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layers  # noqa: E402
import scenarios  # noqa: E402
from checks import Tally, result_digest  # noqa: E402
from workloads import Samples, host_scaled, tail  # noqa: E402

from repro.core.pipeline import DBREPipeline  # noqa: E402
from repro.dependencies.fd import FunctionalDependency  # noqa: E402
from repro.relational.database import Database  # noqa: E402

SMALL = dataclasses.replace(scenarios.S5_SHAPE, parent_rows=20)


def _run(scenario):
    return DBREPipeline(scenario.database, scenario.expert).run(
        corpus=scenario.corpus
    )


class CorrectnessGate(unittest.TestCase):
    def setUp(self):
        self.scenario = scenarios.build(SMALL, 3)
        self.result = _run(self.scenario)

    def test_a_correct_run_passes(self):
        tally = Tally()
        tally.check("s", self.scenario.truth, self.result)
        tally.check("s", self.scenario.truth, _run(self.scenario))
        self.assertEqual((tally.attempted, tally.failed), (2, 0))
        self.assertEqual(tally.error_rate, 0.0)

    def test_a_lost_relation_fails_recovery(self):
        tally = Tally()
        tally.check("s", self.scenario.truth, self.result)
        wrong = _run(self.scenario)
        victim = wrong.restructured.schema.relation_names[0]
        wrong.restructured.drop_relation(victim)
        reason = tally.check("s", self.scenario.truth, wrong)
        self.assertIn("schema recovery", reason)
        self.assertGreater(tally.error_rate, 0.0)

    def test_a_changed_artifact_fails_the_digest(self):
        tally = Tally()
        tally.check("s", self.scenario.truth, self.result)
        wrong = _run(self.scenario)
        relation = wrong.restructured.schema.relation_names[0]
        attrs = wrong.restructured.schema.relation(relation).attribute_names
        wrong.rhs_result.fds.append(
            FunctionalDependency(relation, attrs[:1], attrs[-1:])
        )
        self.assertNotEqual(result_digest(wrong), result_digest(self.result))
        reason = tally.check("s", self.scenario.truth, wrong)
        self.assertIn("digest", reason)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_a_raised_run_counts_as_failed(self):
        tally = Tally()
        tally.fail("s: RuntimeError: boom")
        self.assertEqual(tally.error_rate, 1.0)


class Attribution(unittest.TestCase):
    def test_wrappers_come_off(self):
        original = Database.copy
        uninstall = layers.install(layers.LayerRecorder())
        self.assertIsNot(Database.copy, original)
        uninstall()
        self.assertIs(Database.copy, original)

    def test_self_times_account_for_the_run(self):
        scenario = scenarios.build(SMALL, 4)
        recorder = layers.LayerRecorder()
        uninstall = layers.install(recorder)
        try:
            _run(scenario)
        finally:
            uninstall()
        figures = layers.pipeline_layers(recorder, 1)
        total = sum(seconds for (scope, _key), seconds
                    in recorder.self_time.items() if scope == "run")
        self.assertAlmostEqual(total * 1000.0, figures["pipeline.traced_run_ms"],
                               places=6)
        self.assertEqual(recorder.calls["run", "relational.copy"], 1)
        self.assertGreater(figures["backends.count_distinct.calls"], 0)
        self.assertGreater(figures["relational.table_reads"], 0)
        self.assertGreater(figures["pipeline.attributed_share"], 0.5)


class Tail(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(tail(list(range(39))), ("p50", 19))
        self.assertEqual(tail(list(range(40)))[0], "p75")
        self.assertEqual(tail(list(range(99)))[0], "p75")
        self.assertEqual(tail(list(range(100)))[0], "p90")


class HostScaling(unittest.TestCase):
    def test_each_sample_uses_the_fastest_nearby_reference(self):
        reference = Samples()
        for start, seconds in ((0, 4.0), (1, 2.0), (2, 3.0), (5, 1.0),
                               (6, 8.0), (9, 5.0), (10, 6.0), (13, 7.0),
                               (14, 9.0)):
            reference.add(seconds, start, start + 0.5)
        timed = Samples()
        timed.add(6.0, 3, 4)  # nearest: 1, 2 before and 5, 6 after
        timed.add(10.0, 11, 12)  # nearest: 9, 10 before and 13, 14 after
        self.assertEqual(host_scaled(timed, reference), [6.0, 2.0])


if __name__ == "__main__":
    unittest.main()
