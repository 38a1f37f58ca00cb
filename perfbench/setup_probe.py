"""Set-up time of one workload in a fresh process.

Times importing gapshrink and generating the workload's inputs with
gapshrink.datasets, and prints the seconds.  run.py starts it several
times and reports the median as setup_s.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gapshrink  # noqa: E402,F401
import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
workloads.make_inputs(workload, workloads.data_seed(int(sys.argv[2]), 0))
print(f"{time.perf_counter() - t0:.6f}")
