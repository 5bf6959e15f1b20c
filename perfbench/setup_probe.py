"""Time one benchmark set-up in a fresh process and print it in seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is the import of czcp (numpy included), the catalog load, and the
workload's input generation, golay_pair included.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    print(time.perf_counter() - T0)
