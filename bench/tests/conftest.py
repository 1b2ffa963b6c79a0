import os
import sys
from pathlib import Path

# the benchmark's modules import each other as top-level modules, the way
# bench/run.py runs them
_BENCH = Path(__file__).resolve().parents[1]
for _path in (_BENCH.parent / "src", _BENCH):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

# The benchmark tests trace real solves and name package internals, so they
# stay out of the repository's default test run; run them with
#   BZTFLOW_BENCH_TESTS=1 python -m pytest bench/tests
if os.environ.get("BZTFLOW_BENCH_TESTS") != "1":
    collect_ignore_glob = ["test_*.py"]
