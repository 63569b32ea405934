"""Command-line front end: load a config, run one experiment, emit files.

Exit codes: 0 success, 1 validation error (bad flags or config), 2 solver
failure.  Every failure prints a one-line JSON error record to stderr.
Outputs are deterministic for a fixed config fingerprint; numeric fields use
round-trip decimal formatting.
"""

import argparse
import json
import math
import os
import sys

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
    DilationSpec,
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


def _parse_vector(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--p expects PX,PY,PZ, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path, record) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _load(args) -> RunConfig:
    if args.config:
        return load_config(args.config)
    return RunConfig().validate()


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _cmd_spectrum(args) -> int:
    if args.pairs is not None and args.pairs < 1:
        raise UsageError(f"--pairs must be >= 1, got {args.pairs}")
    cfg = _load(args)
    model = make_model(cfg)
    P = _parse_vector(args.p)
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
    path = _out_path(args, "spectrum.json")
    _write_json(path, record)
    print(path)
    return EXIT_OK


def _cmd_scan(args) -> int:
    cfg = _load(args)
    model = make_model(cfg)
    exp = cfg.extras()
    scan = mass_shell_scan(
        model,
        args.pmin,
        args.pmax,
        args.steps,
        args.g,
        n_shell_max=exp.n_shell_max,
        fd_step=exp.fd_step,
        curvature_step=exp.curvature_step,
        fingerprint=cfg.fingerprint(),
    )
    csv_path = _out_path(args, "scan.csv")
    json_path = _out_path(args, "scan.json")
    scan.to_csv(csv_path)
    scan.to_json(json_path, config=cfg.to_dict())
    print(csv_path)
    print(json_path)
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
    cfg = _load(args)
    model = make_model(cfg)
    P = _parse_vector(args.p)
    result = model.lowest(P, args.g)
    psi = result.ground_vector()
    eigen_residual = float(result.residual_norms[0])
    if args.sector:
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
        kappa = math.inf if args.kappa in (None, "inf") else float(args.kappa)
        spec = DilationSpec(kappa=kappa)
        report = virial_residual(
            psi,
            P,
            args.g,
            spec,
            model.basis,
            model.form_factor,
            eigen_residual=eigen_residual,
        )
    record = report.to_dict()
    record["fingerprint"] = cfg.fingerprint()
    record["p"] = list(P)
    record["g"] = args.g
    record["e0"] = result.ground_energy
    path = _out_path(args, "virial.json")
    _write_json(path, record)
    print(path)
    return EXIT_OK


def _cmd_cerenkov(args) -> int:
    if args.thetas < 1:
        raise UsageError(f"--thetas must be >= 1, got {args.thetas}")
    cfg = _load(args)
    P = _parse_vector(args.p)
    p_mag = float(np.linalg.norm(P))
    energy = args.e if args.e is not None else 0.5 * p_mag * p_mag
    cos_values = np.linspace(-1.0, 1.0, args.thetas)
    lines = [f"# fingerprint={cfg.fingerprint()}", "cos_theta,root_count,root_1,root_2"]
    for c in cos_values:
        roots = cerenkov.resonance_momentum(p_mag, energy, float(c))
        cells = [_fmt(c), str(len(roots))]
        cells += [_fmt(r) for r in roots] + [""] * (2 - len(roots))
        lines.append(",".join(cells))
    path = _out_path(args, "cerenkov.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(path)
    return EXIT_OK


def _cmd_golden_rule(args) -> int:
    cfg = _load(args)
    P = _parse_vector(args.p)
    gamma = cerenkov.golden_rule_rate(P, args.g, cfg.form_factor())
    threshold = cerenkov.cerenkov_threshold(float(np.linalg.norm(P)))
    record = {
        "fingerprint": cfg.fingerprint(),
        "p": list(P),
        "g": args.g,
        "rate": gamma,
        "threshold_cos": threshold,
    }
    path = _out_path(args, "golden_rule.json")
    _write_json(path, record)
    print(path)
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
    P = _parse_vector(args.p)
    p_mag = float(np.linalg.norm(P))
    energy = args.e if args.e is not None else 0.5 * p_mag * p_mag
    epsilons = np.geomspace(args.eps_min, args.eps_max, args.points)
    rows = cerenkov.trial_scaling(
        P, energy, model.grid, model.basis, model.form_factor, args.g, epsilons
    )
    lines = [f"# fingerprint={cfg.fingerprint()}", "epsilon,element_abs,norm,ratio"]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path = _out_path(args, "trial_scaling.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(path)
    return EXIT_OK


def _cmd_overlap(args) -> int:
    cfg = _load(args)
    model = make_model(cfg)
    P = _parse_vector(args.p)
    if args.window == "auto":
        window = "auto"
    else:
        parts = args.window.split(",")
        if len(parts) != 2:
            raise UsageError(f"--window expects 'auto' or LO,HI, got {args.window!r}")
        window = (float(parts[0]), float(parts[1]))
    dist = vacuum_overlap_distribution(model, P, args.g, window=window)
    path = _out_path(args, "overlap.csv")
    dist.to_csv(path, fingerprint=cfg.fingerprint())
    print(path)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="cerenkov-fiber", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults when absent)")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("spectrum", help="low-lying eigenpairs at one momentum")
    common(p)
    p.add_argument("--p", required=True, help="total momentum PX,PY,PZ")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--pairs", type=int, default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("scan", help="dispersion scan over |P|")
    common(p)
    p.add_argument("--pmin", type=float, required=True)
    p.add_argument("--pmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--g", type=float, required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("virial", help="dilation-identity residual on the ground state")
    common(p)
    p.add_argument("--p", required=True)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--kappa", default="inf", help="scaling window, number or 'inf'")
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
    p.add_argument("--p", required=True)
    p.add_argument("--e", type=float, default=None, help="target energy (P^2/2)")
    p.add_argument("--thetas", type=int, required=True)
    p.set_defaults(func=_cmd_cerenkov)

    p = sub.add_parser("golden-rule", help="decay rate of the bare state")
    common(p)
    p.add_argument("--p", required=True)
    p.add_argument("--g", type=float, required=True)
    p.set_defaults(func=_cmd_golden_rule)

    p = sub.add_parser("trial-scaling", help="decay element vs window width")
    common(p)
    p.add_argument("--p", required=True)
    p.add_argument("--g", type=float, default=0.05)
    p.add_argument("--e", type=float, default=None)
    p.add_argument("--eps-min", type=float, required=True)
    p.add_argument("--eps-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.set_defaults(func=_cmd_trial_scaling)

    p = sub.add_parser("overlap", help="bare-state overlap distribution")
    common(p)
    p.add_argument("--p", required=True)
    p.add_argument("--g", type=float, required=True)
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
