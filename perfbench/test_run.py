"""Self-tests of the benchmark harness (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

import run


def export(rows):
    """An export file of @rows (header first); returns its path."""
    fd, path = tempfile.mkstemp(suffix=".csv")
    with os.fdopen(fd, "wb") as f:
        f.write(b"\n".join(rows) + b"\n")
    return path


class CorrectnessTest(unittest.TestCase):
    ROWS = [b"workload,cores,smt,watts"] + [
        b"p%d,1,1,%d.5" % (i, 60 + i) for i in range(8)]

    def setUp(self):
        self.paths = []
        self.reference = run.csv_digests(self.track(export(self.ROWS)))

    def tearDown(self):
        for p in self.paths:
            os.remove(p)

    def track(self, path):
        self.paths.append(path)
        return path

    def failures(self, rows):
        return run.count_failures(
            run.csv_digests(self.track(export(rows))), self.reference)

    def test_identical_export_has_no_failures(self):
        self.assertEqual(self.failures(self.ROWS), 0)

    def test_one_corrupted_row_fails_exactly_one_job(self):
        rows = list(self.ROWS)
        rows[5] = rows[5].replace(b".5", b".6")
        self.assertEqual(self.failures(rows), 1)

    def test_missing_row_fails_that_job(self):
        self.assertEqual(self.failures(self.ROWS[:-1]), 1)

    def test_missing_export_fails_every_job(self):
        missing = os.path.join(tempfile.gettempdir(), "perfbench-absent.csv")
        self.assertIsNone(run.csv_digests(missing))
        self.assertEqual(run.count_failures(None, self.reference), 8)

    def test_changed_header_fails_every_job(self):
        rows = [b"workload,cores"] + self.ROWS[1:]
        self.assertEqual(self.failures(rows), 8)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def declared(self, section):
        return {m["name"]: m["unit"] for m in self.bench[section]}

    def test_names_are_well_formed(self):
        names = list(run.END_TO_END)
        for layer in run.LAYERS.values():
            names += list(layer)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_benchmark_json_lists_what_run_reports(self):
        self.assertEqual(self.declared("end_to_end"), run.END_TO_END)
        per_layer = {}
        for layer in run.LAYERS.values():
            per_layer.update(layer)
        self.assertEqual(self.declared("per_layer"), per_layer)
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))


class ResultTest(unittest.TestCase):
    def test_result_json_parses(self):
        metrics = {"campaign_user_s": {"value": 1.25, "unit": "s"}}
        line = json.dumps(run.result(True, 10, 0, metrics))
        parsed = json.loads(line)
        self.assertEqual(set(parsed),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(parsed["correct"], True)
        self.assertEqual(parsed["metrics"], metrics)

    def test_per_layer_covers_every_declared_metric(self):
        raw = {k: 1 for k in (
            "jobs", "gen_s", "gen_programs", "expand_s", "manifest_s",
            "decode_calls", "decode_s", "core_sims", "core_instrs",
            "core_s", "memo_hits", "power_calls", "power_s",
            "unbatched_runs", "unbatched_s", "cache_lookups",
            "cache_hits", "cache_lookup_s", "cache_stores",
            "cache_store_s", "cache_corrupt", "claims_acquired",
            "claims_stolen", "claims_s", "export_s", "export_bytes")}
        program = {"job_seconds": [{"seconds": 0.001}]}
        values = run.per_layer(raw, program, (2.0, 0.1), 2.2, 0.0)
        for layer in run.LAYERS.values():
            for name in layer:
                self.assertIn(name, values)

    def test_reconcile_marks_drifted_layers_stale(self):
        replay = {"core_sims": 5, "memo_hits": 7, "cache_hits": 0,
                  "cache_lookups": 12, "claims_acquired": 0}
        program = {"cache_hits": 0, "cache_misses": 12,
                   "claims_acquired": 12,
                   "metrics": {"counters": {"batch_core_sims": 5,
                                            "batch_memo_hits": 7}}}
        self.assertEqual(set(run.reconcile(replay, program)), {"claims"})


if __name__ == "__main__":
    unittest.main()
