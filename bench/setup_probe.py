"""Time grosscalc's start-up in a fresh interpreter: import + default_env().

    python3 bench/setup_probe.py <src directory>

Prints the seconds spent.  Interpreter start-up itself is not counted.
"""
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import grosscalc.cli  # noqa: E402
from grosscalc import gclang  # noqa: E402

gclang.default_env()
print(time.perf_counter() - t0)
