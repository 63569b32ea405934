"""The benchmark workloads: one CLI command each, on a checked-in config.

Inputs are fixed; nothing here depends on the run's seed.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable

import checks
import oracles

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    args: dict
    check: Callable
    # Whether two runs write byte-identical files, so a traced run's output
    # can be compared with an untraced one byte for byte.
    deterministic: bool = True

    @property
    def config_path(self) -> str:
        return os.path.join(CONFIG_DIR, self.config)

    def argv(self, out_dir: str, config_path: str | None = None) -> list:
        config_path = config_path or self.config_path
        argv = [self.command, "--config", config_path, "--out", out_dir]
        for flag, value in self.args.items():
            argv += [f"--{flag}", str(value)]
        return argv

    def full_config(self) -> dict:
        with open(self.config_path) as fh:
            return oracles.full_config(json.load(fh))

    def check_output(self, out_dir: str) -> list:
        return self.check(out_dir, self.full_config(), self.args)


WORKLOADS = {
    # Above the Cerenkov threshold: 15 Lanczos solves dominate.
    "scan_above": Workload(
        "scan",
        "scan_above.json",
        {"pmin": 1.1, "pmax": 1.5, "steps": 3, "g": 0.05},
        checks.check_scan,
    ),
    # dim 368,397: basis enumeration, transitions and memory; one
    # below-threshold solve.
    "virial_large": Workload(
        "virial",
        "virial_large.json",
        {"p": "0.5,0,0", "g": 0.1},
        checks.check_virial,
    ),
    # dim 2,556, just above dense_cutoff: the shift-invert overlap path.
    "overlap_interior": Workload(
        "overlap",
        "overlap_interior.json",
        {"p": "1.5,0,0", "g": 0.05},
        checks.check_overlap,
        # eigsh(sigma=...) is called without v0, so ARPACK starts from a
        # random vector and the last digits differ from run to run.
        deterministic=False,
    ),
}
