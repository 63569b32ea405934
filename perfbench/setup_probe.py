"""Time config load + model build, the benchmark's set-up metric.

    python perfbench/setup_probe.py CONFIG_JSON MIN_SECONDS

Repeats `make_model(load_config(CONFIG_JSON))` at least once and until
MIN_SECONDS have passed, and prints the seconds of each build as a JSON
list.  It runs as its own process so that run.py, which spawns the CLI
children, stays small: the kernel folds the spawning process's peak resident
set into a child's `ru_maxrss`.
"""

import gc
import json
import sys
import time

from cerenkov_fiber.config import load_config, make_model


def main() -> None:
    path, min_seconds = sys.argv[1], float(sys.argv[2])
    times = []
    t_start = time.monotonic()
    while not times or time.monotonic() - t_start < min_seconds:
        gc.collect()
        t0 = time.perf_counter()
        model = make_model(load_config(path))
        times.append(time.perf_counter() - t0)
        del model
    print(json.dumps(times))


if __name__ == "__main__":
    main()
