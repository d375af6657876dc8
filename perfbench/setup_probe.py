"""Set-up time of a fresh interpreter: import nilcommute and run one warm-up job.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from the start of this script to the end of the job.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import nilcommute  # noqa: E402,F401
from workloads import warmup_job  # noqa: E402

if __name__ == "__main__":
    ok, _ = warmup_job(sys.argv[1], int(sys.argv[2])).run()
    if not ok:
        sys.exit("warm-up job failed")
    print(time.perf_counter() - START)
