"""Command-line front end: load a config, run one experiment, emit files.

Exit codes: 0 success, 1 validation error (bad flags or config), 2 solver
failure.  Every failure prints a one-line JSON error record to stderr.

This is the only module that formats or writes output files.  A CSV file
opens with `# key=value` comment lines, the first the config fingerprint,
then a header row; a JSON file is an indented object with sorted keys and a
`fingerprint` field.  Numbers use round-trip decimal formatting, so outputs
are byte-identical for a fixed config fingerprint; a non-finite number is
`nan` in a CSV cell and `null` in JSON.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from cerenkov_fiber import cerenkov
from cerenkov_fiber.config import ConfigError, RunConfig, load_config, make_model
from cerenkov_fiber.fock import BasisSizeError
from cerenkov_fiber.grids import GridError
from cerenkov_fiber.observables import expect_number
from cerenkov_fiber.solver import EigensolverError
from cerenkov_fiber.spectra import (
    fh_gradient,
    mass_shell_scan,
    vacuum_overlap_distribution,
)
from cerenkov_fiber.virial import (
    DilationParameterError,
    check_kappa,
    sector_virial_residual,
    virial_residual,
)
from cerenkov_fiber.weights import ShellSpec, ConeSpec, cone_from_coupling

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2

_VALIDATION_ERRORS = (
    ConfigError,
    GridError,
    BasisSizeError,
    DilationParameterError,
    cerenkov.EmptyWindowError,
    ValueError,
)


class UsageError(ValueError):
    """Bad command line; mapped to the validation exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    return repr(float(x))


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _kappa(text: str) -> float:
    """argparse type: 'inf' or a finite float."""
    return math.inf if text == "inf" else _finite(text)


def _parse_vector(text: str) -> np.ndarray:
    """argparse type: three finite components PX,PY,PZ."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected PX,PY,PZ, got {text!r}")
    return np.array([_finite(p) for p in parts])


def _json_value(obj):
    """`obj` as plain JSON data, with every non-finite float as None."""
    if isinstance(obj, dict):
        return {key: _json_value(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_json_value(value) for value in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write(args, name: str, text: str) -> None:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(path)


def _write_csv(args, name: str, comments, header, rows) -> None:
    lines = [f"# {c}" for c in comments] + [",".join(header)]
    lines += [",".join(cells) for cells in rows]
    _write(args, name, "\n".join(lines) + "\n")


def _write_json(args, name: str, record) -> None:
    text = json.dumps(_json_value(record), indent=2, sort_keys=True, allow_nan=False)
    _write(args, name, text + "\n")


def _load(args) -> RunConfig:
    if args.config:
        return load_config(args.config)
    return RunConfig().validate()


def _cmd_spectrum(args) -> int:
    if args.pairs is not None and args.pairs < 1:
        raise UsageError(f"--pairs must be >= 1, got {args.pairs}")
    cfg = _load(args)
    model = make_model(cfg)
    P = args.p
    pairs = cfg.pairs if args.pairs is None else args.pairs
    result = model.lowest(P, args.g, count=pairs)
    psi = result.ground_vector()
    grad = fh_gradient(result, P, model.basis)
    record = {
        "fingerprint": cfg.fingerprint(),
        "p": list(P),
        "g": args.g,
        "eigenvalues": list(result.eigenvalues),
        "residual_norms": list(result.residual_norms),
        "method": result.method,
        "vacuum_overlap": float(psi[0] ** 2),
        "grad_e_fh": list(grad),
        "total_boson_number": expect_number(
            psi, np.ones(model.grid.n_modes), model.basis
        ),
    }
    _write_json(args, "spectrum.json", record)
    return EXIT_OK


def _cmd_scan(args) -> int:
    cfg = _load(args)
    model = make_model(cfg)
    exp = cfg.extras()
    rows = mass_shell_scan(
        model,
        args.pmin,
        args.pmax,
        args.steps,
        args.g,
        n_shell_max=exp.n_shell_max,
        fd_step=exp.fd_step,
        curvature_step=exp.curvature_step,
    )
    numbers = ["p", "e0", "grad_e_fh", "grad_e_fd", "curvature_fd"]
    shells = [f"n_shell_{n}" for n in range(1, exp.n_shell_max + 1)]
    columns = numbers + shells + ["vacuum_overlap", "status"]
    table = [
        [_fmt(getattr(row, name)) for name in numbers]
        + [_fmt(x) for x in row.shell_numbers]
        + [_fmt(row.vacuum_overlap), row.status]
        for row in rows
    ]
    fingerprint = cfg.fingerprint()
    _write_csv(args, "scan.csv", [f"fingerprint={fingerprint}"], columns, table)
    record = {
        "fingerprint": fingerprint,
        "g": args.g,
        "n_shell_max": exp.n_shell_max,
        "columns": columns,
        "rows": [asdict(row) for row in rows],
        "config": cfg.to_dict(),
    }
    _write_json(args, "scan.json", record)
    return EXIT_OK


def _sector_from_flag(text: str, axis, g: float, cfg: RunConfig):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--sector expects N,KIND, got {text!r}")
    try:
        n = int(parts[0])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    kind = parts[1]
    exp = cfg.extras()
    if exp.cone_plateau_cos is not None:
        cone = ConeSpec(axis, kind, exp.cone_plateau_cos, exp.cone_support_cos)
    else:
        cone = cone_from_coupling(kind, axis, g, gamma=exp.gamma)
    return ShellSpec(n), cone


def _cmd_virial(args) -> int:
    if args.sector is None and args.mode != "parallel":
        raise UsageError(f"--mode {args.mode} needs --sector")
    if args.sector is not None and args.kappa is not None:
        raise UsageError("--kappa applies only without --sector")
    cfg = _load(args)
    kappa = math.inf if args.kappa is None else args.kappa
    check_kappa(kappa, cfg.cutoff)
    model = make_model(cfg)
    P = args.p
    result = model.lowest(P, args.g)
    psi = result.ground_vector()
    eigen_residual = float(result.residual_norms[0])
    if args.sector is not None:
        axis = P / np.linalg.norm(P) if np.linalg.norm(P) > 0 else model.grid.axis
        shell, cone = _sector_from_flag(args.sector, axis, args.g, cfg)
        grad = fh_gradient(result, P, model.basis)
        report = sector_virial_residual(
            psi,
            grad,
            shell,
            cone,
            args.mode,
            args.g,
            model.basis,
            model.form_factor,
            eigen_residual=eigen_residual,
        )
    else:
        report = virial_residual(
            psi,
            P,
            args.g,
            kappa,
            model.basis,
            model.form_factor,
            eigen_residual=eigen_residual,
        )
    record = asdict(report)
    record["residual_dominates"] = report.residual_dominates
    if report.kappa == math.inf:
        record["kappa"] = "inf"
    record["fingerprint"] = cfg.fingerprint()
    record["p"] = list(P)
    record["g"] = args.g
    record["e0"] = result.ground_energy
    _write_json(args, "virial.json", record)
    return EXIT_OK


def _cmd_cerenkov(args) -> int:
    if args.thetas < 1:
        raise UsageError(f"--thetas must be >= 1, got {args.thetas}")
    cfg = _load(args)
    p_mag = float(np.linalg.norm(args.p))
    energy = args.e if args.e is not None else 0.5 * p_mag * p_mag
    rows = []
    for c in np.linspace(-1.0, 1.0, args.thetas):
        roots = cerenkov.resonance_momentum(p_mag, energy, float(c))
        cells = [_fmt(c), str(len(roots))]
        rows.append(cells + [_fmt(r) for r in roots] + [""] * (2 - len(roots)))
    header = ["cos_theta", "root_count", "root_1", "root_2"]
    _write_csv(args, "cerenkov.csv", [f"fingerprint={cfg.fingerprint()}"], header, rows)
    return EXIT_OK


def _cmd_golden_rule(args) -> int:
    cfg = _load(args)
    P = args.p
    gamma = cerenkov.golden_rule_rate(P, args.g, cfg.form_factor())
    threshold = cerenkov.cerenkov_threshold(float(np.linalg.norm(P)))
    record = {
        "fingerprint": cfg.fingerprint(),
        "p": list(P),
        "g": args.g,
        "rate": gamma,
        "threshold_cos": threshold,
    }
    _write_json(args, "golden_rule.json", record)
    return EXIT_OK


def _cmd_trial_scaling(args) -> int:
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    if not (0 < args.eps_min < args.eps_max < math.inf):
        raise UsageError(
            f"need finite 0 < eps-min < eps-max, got {args.eps_min} and {args.eps_max}"
        )
    cfg = _load(args)
    model = make_model(cfg)
    p_mag = float(np.linalg.norm(args.p))
    energy = args.e if args.e is not None else 0.5 * p_mag * p_mag
    epsilons = np.geomspace(args.eps_min, args.eps_max, args.points)
    rows = cerenkov.trial_scaling(
        args.p, energy, model.grid, model.basis, model.form_factor, args.g, epsilons
    )
    _write_csv(
        args,
        "trial_scaling.csv",
        [f"fingerprint={cfg.fingerprint()}"],
        ["epsilon", "element_abs", "norm", "ratio"],
        [[_fmt(x) for x in row] for row in rows],
    )
    return EXIT_OK


def _cmd_overlap(args) -> int:
    cfg = _load(args)
    model = make_model(cfg)
    if args.window == "auto":
        window = "auto"
    else:
        parts = args.window.split(",")
        if len(parts) != 2:
            raise UsageError(f"--window expects 'auto' or LO,HI, got {args.window!r}")
        window = (float(parts[0]), float(parts[1]))
    dist = vacuum_overlap_distribution(model, args.p, args.g, window=window)
    comments = [
        f"fingerprint={cfg.fingerprint()}",
        f"captured_weight={_fmt(dist.captured_weight)}"
        f" low_capture={str(dist.low_capture).lower()}",
    ]
    if dist.nodes is not None:
        lower, upper = dist.bracket
        comments.append(
            f"rows=gauss_nodes nodes={dist.nodes}"
            f" captured_bracket={_fmt(lower)},{_fmt(upper)}"
        )
    rows = [[_fmt(e), _fmt(w)] for e, w in zip(dist.energies, dist.weights)]
    _write_csv(args, "overlap.csv", comments, ["energy", "weight"], rows)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="cerenkov-fiber", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults when absent)")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("spectrum", help="low-lying eigenpairs at one momentum")
    common(p)
    p.add_argument(
        "--p", type=_parse_vector, required=True, help="total momentum PX,PY,PZ"
    )
    p.add_argument("--g", type=_finite, required=True)
    p.add_argument("--pairs", type=int, default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("scan", help="dispersion scan over |P|")
    common(p)
    p.add_argument("--pmin", type=_finite, required=True)
    p.add_argument("--pmax", type=_finite, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--g", type=_finite, required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("virial", help="dilation-identity residual on the ground state")
    common(p)
    p.add_argument("--p", type=_parse_vector, required=True)
    p.add_argument("--g", type=_finite, required=True)
    p.add_argument(
        "--kappa", type=_kappa, default=None, help="scaling window, number or 'inf'"
    )
    p.add_argument("--sector", default=None, help="N,KIND for the sector identity")
    p.add_argument(
        "--mode",
        default="parallel",
        choices=("parallel", "perpendicular"),
        help="sector generator direction",
    )
    p.set_defaults(func=_cmd_virial)

    p = sub.add_parser("cerenkov", help="resonance roots over a cos(theta) table")
    common(p)
    p.add_argument("--p", type=_parse_vector, required=True)
    p.add_argument("--e", type=_finite, default=None, help="target energy (P^2/2)")
    p.add_argument("--thetas", type=int, required=True)
    p.set_defaults(func=_cmd_cerenkov)

    p = sub.add_parser("golden-rule", help="decay rate of the bare state")
    common(p)
    p.add_argument("--p", type=_parse_vector, required=True)
    p.add_argument("--g", type=_finite, required=True)
    p.set_defaults(func=_cmd_golden_rule)

    p = sub.add_parser("trial-scaling", help="decay element vs window width")
    common(p)
    p.add_argument("--p", type=_parse_vector, required=True)
    p.add_argument("--g", type=_finite, default=0.05)
    p.add_argument("--e", type=_finite, default=None)
    p.add_argument("--eps-min", type=float, required=True)
    p.add_argument("--eps-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.set_defaults(func=_cmd_trial_scaling)

    p = sub.add_parser("overlap", help="bare-state overlap distribution")
    common(p)
    p.add_argument("--p", type=_parse_vector, required=True)
    p.add_argument("--g", type=_finite, required=True)
    p.add_argument("--window", default="auto")
    p.set_defaults(func=_cmd_overlap)

    return parser


def _error_record(kind: str, exc: BaseException) -> str:
    return json.dumps({"error": kind, "message": str(exc)})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(_error_record("usage", exc), file=sys.stderr)
        return EXIT_VALIDATION
    except EigensolverError as exc:
        print(_error_record("solver", exc), file=sys.stderr)
        return EXIT_SOLVER
    except _VALIDATION_ERRORS as exc:
        print(_error_record("validation", exc), file=sys.stderr)
        return EXIT_VALIDATION


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
