"""Runs the driver's compiled self-tests: the open-loop schedule, and the
campaign digest and reply checks failing on perturbed outputs. Builds the
benchmark first (incremental after the first time)."""

import subprocess
import unittest

import _path  # noqa: F401
from simbench_lib import bench


class DriverSelfTest(unittest.TestCase):
    def test_selftest(self):
        out = bench.build()
        proc = subprocess.run([str(out / "simbench_driver"), "selftest"],
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("selftest ok", proc.stdout)


if __name__ == "__main__":
    unittest.main()
