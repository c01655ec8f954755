"""One fresh-interpreter set-up, timed from the moment it was spawned.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED SPAWNED_AT`` where
``SPAWNED_AT`` is the spawner's ``time.time()``.  Prints the seconds from
that moment until the workload's first config is ready, then the median of
three machine-speed calibrations taken right after (see calibrate.py).
"""

import sys
import time

import statistics

import workloads
from calibrate import calibration_seconds


def main() -> None:
    name, seed, spawned_at = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    workloads.setup(workloads.WORKLOADS[name], seed)
    elapsed = time.time() - spawned_at
    print(elapsed, statistics.median(calibration_seconds() for _ in range(3)))


if __name__ == "__main__":
    main()
