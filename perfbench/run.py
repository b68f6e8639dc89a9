"""qmaze benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload amplify|verify|solve_cli \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's src/ directory and nothing is installed. One client runs
tasks in a closed loop for S seconds, checking every answer against the
benchmark's own BFS and step walker (checks.py). The last line of output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 each task
is run once plain and once with span wrappers installed, and the metrics
are the per-layer ones (tracing.py). Lines before it describe the
environment, the instances, and every metric with its unit.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS, Outcome

# Set-up is repeated until both are met and the median is reported: a
# single short set-up is at the mercy of second-to-second speed swings.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
TAIL_BEYOND = 10


def load_program(root):
    """Import qmaze from <root>/src, and only from there."""
    src = root / "src"
    if not (src / "qmaze" / "__init__.py").is_file():
        sys.exit(f"error: no qmaze package under {src}")
    sys.path.insert(0, str(src))
    import importlib
    q = SimpleNamespace(**{name: importlib.import_module(f"qmaze.{name}")
                           for name in ("maze", "fitness", "search", "verify")})
    if Path(q.maze.__file__).resolve().parent != (src / "qmaze").resolve():
        sys.exit(f"error: qmaze was imported from {q.maze.__file__}, not {src}")
    return q


def environment(root):
    """Machine and software facts recorded with every run."""
    import numpy
    env = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), "unknown")
    except OSError:
        env["cpu_model"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    env["caches"] = caches
    env["commit"] = "unavailable (not a git checkout)"
    if (root / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def run_task(workload, j, tracer=None):
    """Task j; an exception is a failed task, not a failed run."""
    try:
        return workload.task(j, tracer)
    except Exception as exc:  # the loop must go on and report the failure
        traceback.print_exc(limit=3, file=sys.stderr)
        return Outcome(None, False, None, f"{type(exc).__name__}: {exc}")


def tail(times):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples above it). With too few samples, the max."""
    ordered = sorted(times)
    k = len(ordered)
    i = max(0, k - 1 - TAIL_BEYOND)
    return ordered[i], 100.0 * (i + 1) / k, k - 1 - i


def plain_run(workload, seconds):
    """Untimed set-up (repeated, median reported), then the timed loop."""
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    checked, errors = workload.check_setup()
    outcomes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        outcomes.append(run_task(workload, len(outcomes)))
    wall = time.perf_counter() - start

    attempted = len(outcomes)
    failed = [o for o in outcomes if o.error is not None]
    times = [o.seconds for o in outcomes if o.seconds is not None] or [0.0]
    costs = [o.cost for o in outcomes if o.cost is not None]
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "task_p50_s": (statistics.median(times), "s"),
        "task_tail_s": (tail_s, "s"),
        "tasks_per_s": ((attempted - len(failed)) / wall, "1/s"),
        "success_rate": (sum(o.success for o in outcomes) / attempted, "ratio"),
        "oracle_calls_per_sqrtN": (statistics.fmean(costs) if costs else 0.0, "ratio"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup_times)}: " + " ".join(f"{t:.4f}" for t in setup_times),
        f"task_tail_s: p{tail_pct:.1f} of {len(times)} task times ({beyond} beyond it)",
        f"tasks_per_s: {attempted - len(failed)} tasks completed in {wall:.3f} s",
        f"failed_frac {len(failed) / attempted:.4f} ratio"
        f" ({len(failed)} of {attempted} tasks; {len(errors)} of {checked} set-up checks)",
    ]
    return metrics, notes, attempted + checked, len(failed) + len(errors), \
        [o.error for o in failed] + errors


def traced_run(workload, seconds):
    """Set-up once under the tracer, then each task plain and traced."""
    tracer = tracing.Tracer()
    tracer.plan()
    with tracer.active(-1):
        workload.setup()
    checked, errors = workload.check_setup()
    plain_s = traced_s = 0.0
    outcomes = []
    start = time.perf_counter()
    j = 0
    while time.perf_counter() - start < seconds:
        plain = run_task(workload, j)
        with tracer.active(j):
            traced = run_task(workload, j, tracer)
        outcomes += [plain, traced]
        if plain.seconds is not None and traced.seconds is not None:
            plain_s += plain.seconds
            traced_s += traced.seconds
        j += 1
    overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
    metrics, not_seen, shares = tracing.layer_metrics(tracer, j, traced_s, overhead)
    failed = [o.error for o in outcomes if o.error is not None]
    notes = [
        f"traced tasks: {j}, each also run without tracing;"
        f" traced {traced_s:.3f} s vs plain {plain_s:.3f} s",
        "absent from the program: " + (", ".join(tracer.absent) or "none"),
        "not exercised by this workload (reported as 0): " + (", ".join(not_seen) or "none"),
        "share of traced task time inside each layer (nested layers overlap): "
        + ", ".join(f"{name} {share:.3f}" for name, share in
                    sorted(shares.items(), key=lambda kv: -kv[1])),
        "statevector.state_bytes is computed (N x itemsize), not measured;"
        " no bandwidth or roofline figure is given",
    ]
    return metrics, notes, len(outcomes) + checked, len(failed) + len(errors), \
        failed + errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    q = load_program(root)
    workload = WORKLOADS[args.workload](q, args.seed, root)
    try:
        run = traced_run if args.trace else plain_run
        metrics, notes, attempted, failed, errors = run(workload, args.seconds)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(environment(root)))
    print("instances " + json.dumps([inst.describe() for inst in workload.instances]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(note)
    for error in errors[:5]:
        print(f"FAILED: {error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
