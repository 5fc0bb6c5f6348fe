"""Reproduce Table VI: Exact vs GreedyReplace under the WC model.

Usage: spark-submit jobs/table6.py [--n-target 40] [--theta 200] [--out out.csv]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import table5


if __name__ == "__main__":
    table5.main(model="WC", app="table6")
