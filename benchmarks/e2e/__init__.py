"""The repo's one wall-clock benchmark (see README.md in this directory).

``python -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line (the ``BENCHMARK.json``
contract); without ``--workload`` it runs all four and prints a report.
"""

import os

#: The checkout this package sits in, and the program it measures.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
