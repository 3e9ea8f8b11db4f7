import json
import unittest

import _path
from simbench_lib import metrics

MANIFEST = _path.BENCH_DIR.parent / "BENCHMARK.json"


@unittest.skipUnless(MANIFEST.is_file(), "no BENCHMARK.json next to the benchmark")
class Contract(unittest.TestCase):
    def setUp(self):
        self.manifest = json.loads(MANIFEST.read_text())

    def test_end_to_end_metrics_match(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in self.manifest["end_to_end"]],
            [tuple(row) for row in metrics.END_TO_END])

    def test_per_layer_metrics_match(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.manifest["per_layer"]],
            metrics.per_layer())

    def test_workloads(self):
        from simbench_lib import bench
        self.assertEqual(sorted(w["name"] for w in self.manifest["workloads"]),
                         sorted(bench.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
