import sys
from pathlib import Path

# the benchmark's modules are flat files next to run.py; the package is in src/
BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
