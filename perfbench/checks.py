"""Output checks for each workload.

Each check reads the files one CLI run wrote and returns a list of failure
messages (empty when the output passes).  Every comparison is against an
independent computation from `oracles` or a property the method must have;
none compares against a stored copy of earlier output.
"""

import json
import os

import numpy as np

import oracles

# Central differences with h = 1e-3 carry an O(h^2 E''') truncation error and
# an O(solver_tol / h) rounding error, both far below this.
GRAD_AGREEMENT = 1e-5
# Slack for rounding in sums of at most a few thousand terms.
ROUNDING = 1e-9
# The kappa = inf residual must be small against the terms it balances.
VIRIAL_RESIDUAL_SHARE = 0.1
# |e0 - P^2/2 - g^2 E2| is O(g^4); the constant leaves room for the n_max and
# e_cut truncation while staying an order below g^2 |E2| on virial_large.
FOURTH_ORDER_CONSTANT = 20.0


def _vector(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


def _read_csv(path):
    """(comment lines, header, rows) of a CSV with '#' comment lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    return comments, body[0], body[1:]


def check_scan(out_dir: str, cfg: dict, args: dict) -> list:
    failures = []
    _, header, rows = _read_csv(os.path.join(out_dir, "scan.csv"))
    col = {name: i for i, name in enumerate(header)}
    shells = [name for name in header if name.startswith("n_shell_")]
    p_expected = np.linspace(args["pmin"], args["pmax"], args["steps"])
    if len(rows) != len(p_expected):
        return [f"scan: {len(rows)} rows, expected {len(p_expected)}"]
    shell_cap = cfg["n_max"] * oracles.shell_weight_sq_sum_max(cfg, len(shells))
    for row, p in zip(rows, p_expected):
        tag = f"scan p={row[col['p']]}"
        if row[col["status"]] != "ok":
            failures.append(f"{tag}: status {row[col['status']]!r}")
            continue
        if abs(float(row[col["p"]]) - p) > ROUNDING:
            failures.append(f"{tag}: expected p={p}")
        e0 = float(row[col["e0"]])
        bound = oracles.free_energy_bound(cfg, p * oracles.SCAN_AXIS)
        if not e0 <= bound + ROUNDING:
            failures.append(f"{tag}: e0={e0} above the free-state bound {bound}")
        fh, fd = float(row[col["grad_e_fh"]]), float(row[col["grad_e_fd"]])
        if not abs(fh - fd) <= GRAD_AGREEMENT:
            failures.append(f"{tag}: grad_e_fh={fh} and grad_e_fd={fd} disagree")
        overlap = float(row[col["vacuum_overlap"]])
        if not 0.0 <= overlap <= 1.0:
            failures.append(f"{tag}: vacuum_overlap={overlap} outside [0, 1]")
        numbers = np.array([float(row[col[name]]) for name in shells])
        if not np.all(numbers >= 0.0):
            failures.append(f"{tag}: negative shell number in {numbers.tolist()}")
        if not numbers.sum() <= shell_cap + ROUNDING:
            failures.append(
                f"{tag}: shell numbers sum to {numbers.sum()} > {shell_cap}"
            )
    return failures


def check_virial(out_dir: str, cfg: dict, args: dict) -> list:
    failures = []
    with open(os.path.join(out_dir, "virial.json")) as fh:
        rec = json.load(fh)
    P, g = _vector(args["p"]), float(args["g"])
    bare = 0.5 * float(P @ P)
    e0 = float(rec["e0"])
    if not e0 <= bare + ROUNDING:
        failures.append(f"virial: e0={e0} above P^2/2={bare}")
    second = g * g * oracles.second_order_energy(cfg, P)
    if not abs(e0 - bare - second) <= FOURTH_ORDER_CONSTANT * g**4:
        failures.append(
            f"virial: e0 - P^2/2 = {e0 - bare} differs from g^2 E2 = {second} "
            f"by more than {FOURTH_ORDER_CONSTANT} g^4"
        )
    if not float(rec["eigen_residual"]) <= cfg["solver_tol"]:
        failures.append(
            f"virial: eigen_residual {rec['eigen_residual']} > {cfg['solver_tol']}"
        )
    terms = [
        rec["number_energy_term"],
        rec["momentum_mixed_term"],
        -rec["drift_term"],
        -rec["source_term"],
    ]
    largest = max(abs(t) for t in terms)
    if not abs(rec["residual"] - sum(terms)) <= ROUNDING * largest:
        failures.append(
            f"virial: residual {rec['residual']} is not the signed sum of its "
            f"terms ({sum(terms)})"
        )
    if not abs(rec["residual"]) <= VIRIAL_RESIDUAL_SHARE * largest:
        failures.append(
            f"virial: |residual| {abs(rec['residual'])} is not small against "
            f"the largest term {largest}"
        )
    return failures


def check_overlap(out_dir: str, cfg: dict, args: dict) -> list:
    failures = []
    comments, header, rows = _read_csv(os.path.join(out_dir, "overlap.csv"))
    if header != ["energy", "weight"] or not rows:
        return [f"overlap: header {header} with {len(rows)} rows"]
    energies = np.array([float(r[0]) for r in rows])
    weights = np.array([float(r[1]) for r in rows])
    P, g = _vector(args["p"]), float(args["g"])
    if not np.all(weights >= 0.0):
        failures.append(f"overlap: {np.sum(weights < 0.0)} negative weights")
    total = float(weights.sum())
    if not total <= 1.0 + ROUNDING:
        failures.append(f"overlap: weights sum to {total} > 1 (Bessel)")
    moment = float(np.sum(weights * (energies - 0.5 * float(P @ P)) ** 2))
    limit = oracles.vacuum_second_moment(cfg, g)
    if not moment <= limit * (1.0 + ROUNDING):
        failures.append(
            f"overlap: second moment {moment} exceeds the sum rule {limit}"
        )
    captured = [
        float(field.split("=", 1)[1])
        for line in comments
        for field in line[1:].split()
        if field.startswith("captured_weight=")
    ]
    if len(captured) != 1 or not abs(captured[0] - total) <= ROUNDING * max(total, 1.0):
        failures.append(
            f"overlap: header captured_weight {captured} != body sum {total}"
        )
    return failures
