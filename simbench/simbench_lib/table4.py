"""Accuracy of the simulated Table IV against the paper's values."""

import csv
import json
from pathlib import Path

PAPER = Path(__file__).resolve().parent.parent / "data" / "table4_paper.json"


def load_paper(path=PAPER):
    with open(path) as f:
        data = json.load(f)
    excluded = {(app, int(nodes)) for app, nodes in data["excluded"]}
    cells = {}
    for app, row in data["speedup"].items():
        for nodes, value in zip(data["nodes"], row):
            if value is not None and (app, nodes) not in excluded:
                cells[(app, nodes)] = float(value)
    return cells


def read_csv(path):
    with open(path, newline="") as f:
        return {(row["app"], int(row["nodes"])): float(row["speedup"])
                for row in csv.DictReader(f)}


def mape_pct(simulated, paper):
    """Mean absolute % error over the cells both tables report."""
    common = sorted(set(simulated) & set(paper))
    if not common:
        raise ValueError("no Table IV cell in common with the paper")
    return 100.0 * sum(abs(simulated[c] - paper[c]) / paper[c]
                       for c in common) / len(common)
