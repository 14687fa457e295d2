"""Live-cluster benchmark: closed-loop AllUpdates, TPC-B and TPC-W traffic.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/METHODS.md`` explains
the design.  Importing the package puts the repository's ``src`` directory
on ``sys.path`` so the benchmark runs from a plain checkout.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
