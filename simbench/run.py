#!/usr/bin/env python3
"""ctesim benchmark entry point.

    python3 simbench/run.py --workload campaign|campaign_faults|repro|whatif \
        [--seed N] [--seconds S] [--trace 0|1]

Builds ctesim from the enclosing source tree (into $CARGO_TARGET_DIR or
.bench_build), runs the workload, checks its outputs and prints one JSON
result record as the last line of stdout. See README.md.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from simbench_lib.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
