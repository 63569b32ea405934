"""Run `cerenkov_fiber.cli.main` in-process with spans around each layer.

    python perfbench/traced_cli.py SPANS_JSON SPAWN_TIME -- CLI_ARGS...

Wrappers are installed where the program looks each entry point up (a name
imported into `cli` is wrapped in `cli`, a method on its class), so the
program runs unchanged.  Spans (name, start, end, parent) and counts stay in
memory and are written to SPANS_JSON when the CLI returns.  SPAWN_TIME is
the parent's `time.monotonic()` just before it started this process.  A
target missing at the commit measured is listed as absent and not wrapped.
"""

import time

T_START = time.monotonic()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

DEGENERACY_TOL = 1e-9
OBSERVABLES = (
    "expect_number",
    "expect_field_momentum",
    "expect_field_energy",
    "expect_field_momentum_sq",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.counts = {}
        self.absent = []

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, n):
        self.counts[key] = max(self.counts.get(key, 0), n)

    def wrap(self, target, span, before=None, after=None):
        """Replace `module:attr` or `module:Class.attr` by a timed wrapper."""
        module_name, path = target.split(":")
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            inner = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append([span, time.monotonic(), None, parent])
            self.stack.append(index)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.monotonic()
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    from scipy.sparse.linalg import LinearOperator

    class CountingOperator(LinearOperator):
        """Applies the matrix unchanged and counts the applications."""

        def __init__(self, matrix):
            super().__init__(dtype=matrix.dtype, shape=matrix.shape)
            self.matrix = matrix

        def _matvec(self, x):
            tracer.add("solver.matvecs")
            return self.matrix.dot(x)

        def _matmat(self, x):
            tracer.add("solver.matvecs", x.shape[1])
            return self.matrix.dot(x)

    def count_matvecs(args, kwargs):
        if kwargs.get("sigma") is None and args:
            args = (CountingOperator(args[0]),) + tuple(args[1:])
        return args, kwargs

    def assembled(op):
        tracer.peak("hamiltonian.nnz", getattr(op, "matrix", op).nnz)

    def solved(result):
        vals = result.eigenvalues
        tracer.add("solver.pairs_computed", len(vals))
        cluster = sum(v - vals[0] <= DEGENERACY_TOL for v in vals)
        tracer.add("solver.pairs_used", int(cluster))

    def shift_inverted(result):
        vals = result[0] if isinstance(result, tuple) else result
        tracer.add("spectra.pairs_computed", len(vals))

    w = tracer.wrap
    w("cerenkov_fiber.cli:load_config", "config.load")
    w("cerenkov_fiber.cli:make_model", "config.make_model")
    w("cerenkov_fiber.config:build_grid", "grids.build")
    w(
        "cerenkov_fiber.config:build_basis",
        "fock.enumerate",
        after=lambda basis: tracer.peak("fock.dimension", basis.dimension),
    )
    w(
        "cerenkov_fiber.fock:FockBasis.transitions",
        "fock.transitions",
        after=lambda t: tracer.peak("fock.transitions", len(t[0])),
    )
    w(
        "cerenkov_fiber.spectra:build_fiber_hamiltonian",
        "hamiltonian.assemble",
        after=assembled,
    )
    w("cerenkov_fiber.spectra:lowest_eigenpairs", "solver.solve", after=solved)
    w("cerenkov_fiber.solver:eigsh", "solver.eigsh", before=count_matvecs)
    # spectra imports eigsh inside the overlap function, at call time
    w("scipy.sparse.linalg:eigsh", "spectra.shift_invert", after=shift_inverted)
    w("cerenkov_fiber.cli:mass_shell_scan", "spectra.scan")
    w(
        "cerenkov_fiber.cli:vacuum_overlap_distribution",
        "spectra.overlap",
        after=lambda d: tracer.add("spectra.pairs_reported", len(d.energies)),
    )
    # each module imports only some of the observables; wrap those it has
    for module in ("cli", "spectra", "virial"):
        module = f"cerenkov_fiber.{module}"
        try:
            namespace = vars(importlib.import_module(module))
        except ImportError:
            tracer.absent.append(module)
            continue
        for name in OBSERVABLES:
            if name in namespace:
                w(f"{module}:{name}", "observables.expect")
    w("cerenkov_fiber.cli:virial_residual", "virial.residual")
    w("cerenkov_fiber.cli:_write_json", "cli.write")
    w("cerenkov_fiber.spectra:MassShellScan.to_csv", "cli.write")
    w("cerenkov_fiber.spectra:MassShellScan.to_json", "cli.write")
    w("cerenkov_fiber.spectra:OverlapDistribution.to_csv", "cli.write")


def main() -> int:
    spans_path, spawn_time, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON SPAWN_TIME -- CLI_ARGS...")
    from cerenkov_fiber import cli

    tracer = Tracer()
    install(tracer)
    t_installed = time.monotonic()
    tracer.wrap("cerenkov_fiber.cli:main", "cli.main")
    code = cli.main(cli_args)
    t_main_end = time.monotonic()
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "spawn": float(spawn_time),
                "start": T_START,
                "installed": t_installed,
                "main_end": t_main_end,
                "exit_code": code,
                "spans": tracer.spans,
                "counts": tracer.counts,
                "absent": tracer.absent,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
