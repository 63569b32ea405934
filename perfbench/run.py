"""Benchmark runner for the cerenkov-fiber CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation runs the real CLI
(`python -m cerenkov_fiber.cli ...`) in a fresh child process, one at a
time in a closed loop, until the children have run for S seconds; every
output is checked (see checks.py).  With --trace 0 it prints the end-to-end metrics:
the child's wall time and peak resident set (medians over the children) and
the set-up time (median of repeated config loads and model builds, timed by
setup_probe.py).  With --trace 1 it alternates untraced children with traced
ones (traced_cli.py) and prints per-layer self times and counts plus the
tracing overhead.  The last line of standard output is one JSON object; with
`--workload all` the workloads run one after another and its metric names
carry the workload as a prefix.

The inputs are fixed; --seed is recorded and varies nothing.  Child
BLAS/OpenMP threads and the package's scan threads are pinned to 1.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

THREAD_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "CERENKOV_FIBER_THREADS": "1",
}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RESULTS = os.path.join(HERE, "results")

# Set-up is timed in bursts of repeated builds (setup_probe.py), one before
# each child and one after the last, each lasting at least this long and
# holding at least one build.  The host's speed drifts over seconds, so
# samples spread over the whole run give a median that repeats; a 7 ms
# build gets ~40 samples per burst, a 2 s one gets one.
SETUP_BURST_SECONDS = 1.0
# Every child is killed after this many seconds from the start of the run.
RUN_DEADLINE = 165

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = [
    "process.startup_s",
    "process.import_s",
    "cli.main_s",
    "config.load_s",
    "config.make_model_s",
    "grids.build_s",
    "fock.enumerate_s",
    "fock.transitions_s",
    "hamiltonian.assemble_s",
    "solver.solve_s",
    "spectra.scan_s",
    "spectra.overlap_s",
    "spectra.shift_invert_s",
    "observables.expect_s",
    "virial.residual_s",
    "cli.write_s",
    "process.exit_s",
]
# Both solver spans belong to the solver layer.
SPAN_LAYER = {"solver.eigsh": "solver.solve"}
CALL_COUNTS = {
    "hamiltonian.calls": "hamiltonian.assemble",
    "solver.calls": "solver.solve",
    "spectra.shift_invert_calls": "spectra.shift_invert",
    "observables.calls": "observables.expect",
}
TRACED_COUNTS = [
    "fock.dimension",
    "fock.transitions",
    "hamiltonian.nnz",
    "solver.matvecs",
    "solver.pairs_computed",
    "solver.pairs_used",
    "spectra.pairs_computed",
    "spectra.pairs_reported",
]


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    return env


def run_child(make_cmd, log_path: str, deadline: float) -> dict:
    """Start one child, wait for it, return wall time, peak RSS and exit code."""
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            make_cmd(t_spawn), stdout=log, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT,
        )
        signal.alarm(max(1, int(deadline - time.monotonic())))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = time.monotonic()
        except ChildTimeout:
            proc.kill()
            proc.wait()
            return {"exit_code": None, "timed_out": True}
        finally:
            signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": t_exit - t_spawn,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "t_exit": t_exit,
    }


def tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path)
        for f in files
    )


def tree_contents(path: str) -> dict:
    out = {}
    for d, _, files in os.walk(path):
        for f in files:
            with open(os.path.join(d, f), "rb") as fh:
                out[os.path.relpath(os.path.join(d, f), path)] = fh.read()
    return out


def check(workload, out_dir: str) -> list:
    try:
        return workload.check_output(out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output in {out_dir}: {exc!r}"]


def layer_metrics(trace: dict, t_exit: float) -> dict:
    """Self time per layer and counts from one traced child's spans."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    metrics = {name: 0.0 for name in LAYER_TIMES}
    calls = {}
    for (name, start, end, _), child_time in zip(spans, covered):
        key = SPAN_LAYER.get(name, name) + "_s"
        metrics[key] = metrics.get(key, 0.0) + (end - start) - child_time
        calls[name] = calls.get(name, 0) + 1
    metrics["process.startup_s"] = trace["start"] - trace["spawn"]
    metrics["process.import_s"] = trace["installed"] - trace["start"]
    metrics["process.exit_s"] = t_exit - trace["main_end"]
    for metric, span in CALL_COUNTS.items():
        metrics[metric] = calls.get(span, 0)
    for name in TRACED_COUNTS:
        metrics[name] = trace["counts"].get(name, 0)
    return metrics


def setup_burst(workload, times: list, deadline: float) -> list:
    """Append set-up samples from one setup_probe.py burst; return failures."""
    cmd = [
        sys.executable, os.path.join(HERE, "setup_probe.py"),
        workload.config_path, repr(SETUP_BURST_SECONDS),
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return ["set-up probe timed out"]
    if proc.returncode != 0:
        return [f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}"]
    times.extend(json.loads(proc.stdout.splitlines()[-1]))
    return []


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def run_workload(name: str, args) -> dict:
    """One closed-loop run of a workload; returns the result object."""
    t_run = time.monotonic()
    deadline = t_run + RUN_DEADLINE
    workload = WORKLOADS[name]
    out_root = os.path.join(OUT, name)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    os.makedirs(RESULTS, exist_ok=True)

    setup_times = []
    untraced, traced, failures = [], [], []

    def untraced_op() -> str:
        out_dir = os.path.join(out_root, f"op{len(untraced) + len(traced)}")
        rec = run_child(
            lambda t: [sys.executable, "-m", "cerenkov_fiber.cli"]
            + workload.argv(out_dir),
            out_dir + ".log",
            deadline,
        )
        untraced.append(rec)
        if rec["exit_code"] == 0:
            failures.extend(check(workload, out_dir))
        return out_dir

    def child_seconds() -> float:
        return sum(r.get("wall_s", 0.0) for r in untraced + traced)

    # the clock counts the children only, not the set-up bursts between them
    while not untraced or child_seconds() < args.seconds:
        if not args.trace:
            failures += setup_burst(workload, setup_times, deadline)
        out_dir = untraced_op()
        if untraced[-1]["exit_code"] != 0:
            break
        if not args.trace:
            continue
        traced_dir = os.path.join(out_root, f"op{len(untraced) + len(traced)}")
        spans_path = traced_dir + ".spans.json"
        rec = run_child(
            lambda t: [
                sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path,
                repr(t), "--", *workload.argv(traced_dir),
            ],
            traced_dir + ".log",
            deadline,
        )
        traced.append(rec)
        if rec["exit_code"] != 0:
            break
        failures += check(workload, traced_dir)
        same = tree_contents(traced_dir) == tree_contents(out_dir)
        if workload.deterministic and not same:
            failures.append(f"traced output {traced_dir} differs from {out_dir}")
        with open(spans_path) as fh:
            spans = json.load(fh)
        rec["layers"] = layer_metrics(spans, rec["t_exit"])
        rec["layers"]["cli.bytes_written"] = tree_bytes(traced_dir)
        rec["layers"]["trace.accounted_share"] = (
            sum(rec["layers"][metric] for metric in LAYER_TIMES) / rec["wall_s"]
        )
        rec["absent"] = spans["absent"]
    else:
        if args.trace:
            # close with an untraced child, so the untraced children bracket
            # the traced ones and a drift of the host's speed cancels
            untraced_op()
        else:
            failures += setup_burst(workload, setup_times, deadline)

    ops = untraced + traced
    failed = sum(1 for rec in ops if rec["exit_code"] != 0)
    ok_untraced = [rec for rec in untraced if rec["exit_code"] == 0]
    ok_traced = [rec for rec in traced if rec["exit_code"] == 0]
    metrics, units = {}, {}
    if not args.trace and ok_untraced and setup_times:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in ok_untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_untraced),
        }
        units = END_TO_END
    elif args.trace and ok_traced and ok_untraced:
        for metric in ok_traced[0]["layers"]:
            metrics[metric] = statistics.median(r["layers"][metric] for r in ok_traced)
        metrics["solver.pairs_used_share"] = (
            metrics["solver.pairs_used"] / metrics["solver.pairs_computed"]
            if metrics["solver.pairs_computed"] else 1.0
        )
        metrics["spectra.pairs_reported_share"] = (
            metrics["spectra.pairs_reported"] / metrics["spectra.pairs_computed"]
            if metrics["spectra.pairs_computed"] else 1.0
        )
        wall = statistics.median(r["wall_s"] for r in ok_traced)
        untraced_wall = statistics.median(r["wall_s"] for r in ok_untraced)
        metrics["trace.wall_s"] = wall
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_s"] = wall - untraced_wall
        units = {metric: unit_of(metric) for metric in metrics}
        absent = sorted({t for r in ok_traced for t in r["absent"]})
        for target in absent:
            print(f"layer entry point absent at this commit: {target}")
    correct = not failures and failed == 0 and bool(metrics)
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": workload.argv(os.path.join(out_root, "opN")),
        "nproc": os.cpu_count(),
        "thread_pin": THREAD_PIN,
        "setup_times_s": setup_times,
        "untraced": untraced,
        "traced": traced,
        "failures": failures,
        "run_s": time.monotonic() - t_run,
        "result": result,
    }
    path = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{name}: {len(ops)} operations, {failed} failed, "
          f"checks {'passed' if not failures else 'FAILED'}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cerenkov_fiber", "cli.py")):
        print(f"no package source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args)))
        return 0
    results = {name: run_workload(name, args) for name in WORKLOADS}
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, r in results.items()
            for metric, entry in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
