import shutil
import tempfile
import unittest
from pathlib import Path

import _path  # noqa: F401
from simbench_lib import bench

FIXED = Path(__file__).resolve().parent / "data" / "table4_fixed.csv"


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp())
        self.csv = self.dir / "table4_speedup_summary.csv"
        shutil.copy(FIXED, self.csv)
        self.recorded = {"table4_speedup_summary": bench.repro_output(0, self.csv)}

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_identical_output_passes(self):
        got = {"table4_speedup_summary": bench.repro_output(0, self.csv)}
        self.assertEqual(bench.repro_problems(got, self.recorded), [])

    def test_perturbed_csv_fails(self):
        data = bytearray(self.csv.read_bytes())
        data[-3] ^= 1  # one flipped bit in the last speedup
        self.csv.write_bytes(bytes(data))
        got = {"table4_speedup_summary": bench.repro_output(0, self.csv)}
        self.assertEqual(bench.repro_problems(got, self.recorded),
                         ["table4_speedup_summary CSV bytes differ from the record"])

    def test_missing_csv_and_exit_status_fail(self):
        self.csv.unlink()
        got = {"table4_speedup_summary": bench.repro_output(0, self.csv)}
        self.assertEqual(len(bench.repro_problems(got, self.recorded)), 1)
        got = {"table4_speedup_summary": bench.repro_output(134, self.csv)}
        self.assertEqual(bench.repro_problems(got, self.recorded),
                         ["table4_speedup_summary exited with 134"])

    def test_missing_binary_fails(self):
        self.assertEqual(len(bench.repro_problems({}, self.recorded)), 1)


if __name__ == "__main__":
    unittest.main()
