"""Set-up probe: what a Table-1 process does before its first row.

Imports the engines the workloads call and builds the pinned manifest,
then prints ``ready``.  ``run.py`` starts this script several times and
times each start up to the ``ready`` line; the median is ``setup_s``.

Usage: python3 perfbench/setup_probe.py SEED
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import table1  # noqa: E402  (needs src on the path)

if __name__ == "__main__":
    table1.manifest(int(sys.argv[1]))
    print("ready", flush=True)
