import unittest
from pathlib import Path

import _path  # noqa: F401
from simbench_lib import table4

FIXED = Path(__file__).resolve().parent / "data" / "table4_fixed.csv"


class Table4Mape(unittest.TestCase):
    def test_matches_a_hand_computed_value(self):
        # Cells both report: linpack@1, hpcg@192, nemo@16. gromacs@192 is
        # excluded as anomalous; wrf@128 is not in the paper's table.
        #   |1.3092 - 1.25| / 1.25 = 0.04736
        #   |3.2341 - 3.24| / 3.24 = 0.0018209877
        #   |0.5611 - 0.56| / 0.56 = 0.0019642857
        # mean x 100 = 1.70484245 %
        mape = table4.mape_pct(table4.read_csv(FIXED), table4.load_paper())
        self.assertAlmostEqual(mape, 1.70484245, places=6)

    def test_paper_table_excludes_the_anomalous_gromacs_cell(self):
        paper = table4.load_paper()
        self.assertNotIn(("gromacs", 192), paper)
        self.assertEqual(paper[("gromacs", 128)], 0.54)
        self.assertEqual(len(paper), 25)

    def test_no_common_cell_is_an_error(self):
        with self.assertRaises(ValueError):
            table4.mape_pct({("wrf", 128): 1.0}, table4.load_paper())


if __name__ == "__main__":
    unittest.main()
