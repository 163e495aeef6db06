"""Benchmark of the `ebrmaps` CLI: end-to-end time, CPU and memory per workload.

Run from the repository root (Python 3.10+, standard library only):

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

``--trace 0`` runs passes over the workload's commands (workloads.py), each
command in a fresh ``python -m ebrmaps.cli`` process with ``PYTHONPATH=src``,
in a closed loop while the next pass fits in ``--seconds`` (at least one
pass).  It reports

* ``wall_s``: wall seconds of one pass, built from the median wall time of
  each command over the run's passes (machine noise here comes in bursts of
  a few seconds, which a per-command median rejects better than a median of
  whole passes; the latter and its tail are in the details);
* ``cpu_s``: the same for user+sys CPU seconds, from each child's rusage,
  which includes the pool workers of ``--jobs``;
* ``peak_rss_mb``: the largest per-command median of peak RSS;
* ``setup_s``: median wall seconds of a fresh interpreter that imports
  ``ebrmaps`` and exits, probed a few times before the first pass and once
  after every command.

Every output is checked against reference.json and the paper's facts
(check.py).  A command fails on a wrong exit code or a wrong output;
``error_rate`` is failed over attempted commands.

``--trace 1`` reports the per-layer metrics of layers.py instead.  It
alternates traced passes (trace_child.py) and untraced passes over the
workload's serial commands, at least two traced and one untraced, checks the
counter identities and that every traced pass repeats the same counts, and
states the tracing overhead (traced minus untraced pass wall time).

``--seed`` orders the commands within each pass.  ``--workload-seed`` picks
the inputs: 0 (the default) gives the documented ones; any other value draws
the constructive primes from the lists in workloads.py.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment record and the details.  Without ``src/ebrmaps`` beside this
directory the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3  # before the first pass; one more follows every command
COMMAND_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0  # a traced run stops starting passes here, even short of its minimum
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TRACE_MARKER = b"\n\x00bench-trace\x00\n"  # trace_child.MARKER
SPAWN_MARKER = b"\n\x00bench-spawn\x00"  # spawn.MARKER


@dataclass
class Child:
    """One finished child process."""

    args: tuple[str, ...]
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: list[str], args: tuple[str, ...], env: dict) -> Child:
    """Run argv to completion through spawn.py, which measures it.

    The child gets its own process group, so a command that overruns
    ``COMMAND_TIMEOUT_S`` is killed together with any pool workers.
    """
    proc = subprocess.Popen(
        [sys.executable, "-I", "-S", str(BENCH_DIR / "spawn.py"), *argv],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    killer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        out, err = proc.communicate()
    finally:
        killer.cancel()
    err, marker, record = err.rpartition(SPAWN_MARKER)
    if not marker:
        return Child(args, proc.returncode or -1, out, err, 0.0, 0.0, 0.0)
    m = json.loads(record)
    return Child(args, m["returncode"], out, err, m["wall_s"], m["cpu_s"], m["peak_rss_mb"])


def run_cli(args: tuple[str, ...], env: dict) -> Child:
    return run_child([sys.executable, "-m", "ebrmaps.cli", *args], args, env)


def run_traced(args: tuple[str, ...], env: dict) -> Child:
    return run_child([sys.executable, str(BENCH_DIR / "trace_child.py"), *args], args, env)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Failures:
    """Failed commands, with what was wrong."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.rows: list[dict] = []

    def check(self, child: Child, stdout: bytes | None = None, extra: list[str] = ()) -> bool:
        self.attempted += 1
        out = child.stdout if stdout is None else stdout
        found = check.problems(self.reference, child.args, child.returncode, out) + list(extra)
        if found:
            self.rows.append({
                "command": check.command_key(child.args),
                "problems": found,
                "stderr_tail": child.stderr.decode("utf-8", "replace")[-500:],
            })
        return not found


# ---------------------------------------------------------------------------
# environment and set-up


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(env: dict) -> dict:
    """What the ROADMAP asks to record with every result."""
    probe = run_child(
        [sys.executable, "-c", "import sys, ebrmaps; sys.stdout.write(ebrmaps.__file__)"],
        ("import",), env,
    )
    imported = probe.stdout.decode()
    src = (ROOT / "src").resolve()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "ebrmaps_file": imported,
        "ebrmaps_from_src": probe.returncode == 0 and Path(imported).resolve().is_relative_to(src),
    }


def setup_time(env: dict) -> float:
    """Wall seconds of a fresh interpreter that imports ebrmaps and exits."""
    return run_child([sys.executable, "-c", "import ebrmaps"], ("import",), env).wall_s


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics


def tail(samples: list[float]) -> dict | None:
    """The highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return {"percentile": pct, "value": ordered[min(n - 1, int(n * pct / 100.0))]}
    return None


def end_to_end(commands, failures: Failures, env: dict, seconds: float, rng) -> tuple[dict, dict]:
    setup = [setup_time(env) for _ in range(SETUP_PROBES)]
    passes: list[list[Child]] = []
    start = time.perf_counter()
    while True:
        done = []
        for args in rng.sample(commands, len(commands)):
            done.append(run_cli(args, env))
            failures.check(done[-1])
            setup.append(setup_time(env))
        passes.append(done)
        typical = statistics.median(sum(c.wall_s for c in p) for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    samples: dict[str, dict[str, list[float]]] = {}
    for child in (c for p in passes for c in p):
        row = samples.setdefault(check.command_key(child.args), {"wall_s": [], "cpu_s": [], "peak_rss_mb": []})
        for name in row:
            row[name].append(getattr(child, name))
    medians = {
        key: {name: statistics.median(values) for name, values in row.items()}
        for key, row in samples.items()
    }
    metrics = {
        "wall_s": {"value": sum(m["wall_s"] for m in medians.values()), "unit": "s"},
        "cpu_s": {"value": sum(m["cpu_s"] for m in medians.values()), "unit": "s"},
        "peak_rss_mb": {"value": max(m["peak_rss_mb"] for m in medians.values()), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    walls = [sum(c.wall_s for c in p) for p in passes]
    details = {
        "passes": len(passes),
        "pass_wall_s_samples": walls,
        "pass_wall_s_median": statistics.median(walls),
        "pass_wall_s_tail": tail(walls),
        "setup_s_samples": setup,
        "per_command_median": medians,
    }
    return metrics, details


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics


def traced_pass(serial, failures: Failures, env: dict, rng) -> tuple[dict, int, float, list[str]]:
    """One pass of traced commands: layer totals, catalog rows, wall, absent names."""
    traces, rows, wall, absent = [], 0, 0.0, set()
    for args in rng.sample(serial, len(serial)):
        child = run_traced(args, env)
        out, marker, trace = child.stdout.partition(TRACE_MARKER)
        if not failures.check(child, out, [] if marker else ["traced command wrote no trace"]):
            continue
        data = json.loads(trace)
        traces.append((data, len(out)))
        absent.update(data["absent"])
        wall += child.wall_s
        if args[0] == "classify":
            rows += len(json.loads(out))
    return layers.totals(traces), rows, wall, sorted(absent)


def per_layer(workload, commands, failures: Failures, env: dict, seconds: float, rng) -> tuple[dict, dict]:
    serial = [c for c in commands if not workloads.is_parallel(c)]
    traced: list[tuple[dict, int, float, list[str]]] = []
    untraced_walls: list[float] = []
    start = time.perf_counter()
    while True:
        required = len(traced) < 2 or not untraced_walls
        next_traced = len(traced) < 2 or len(traced) <= len(untraced_walls) + 1
        if traced:
            estimate = traced[-1][2] if next_traced or not untraced_walls else untraced_walls[-1]
            elapsed = time.perf_counter() - start
            if elapsed + estimate > (RUN_LIMIT_S if required else seconds):
                break
        if next_traced:
            traced.append(traced_pass(serial, failures, env, rng))
        else:
            done = [run_cli(args, env) for args in rng.sample(serial, len(serial))]
            for child in done:
                failures.check(child)
            untraced_walls.append(sum(c.wall_s for c in done))

    first, rows, _, absent = traced[0]
    problems = layers.identity_problems(workload, first, rows)
    for i, (t, _, _, _) in enumerate(traced[1:], start=2):
        differ = [n for n in layers.EXACT if t.get(n, 0.0) != first.get(n, 0.0)]
        if differ:
            problems.append(f"traced pass {i} counts differ from pass 1: {differ}")
    metrics = {}
    for name, unit in layers.PER_LAYER:
        value = statistics.median(t.get(name, 0.0) for t, _, _, _ in traced)
        metrics[name] = {"value": value if unit in ("s", "ratio") else int(value), "unit": unit}
    traced_wall = statistics.median(t[2] for t in traced)
    untraced_wall = statistics.median(untraced_walls) if untraced_walls else None
    details = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced_walls),
        "not_traced": [check.command_key(c) for c in commands if c not in serial],
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "tracing_overhead_s": None if untraced_wall is None else traced_wall - untraced_wall,
        "absent_names": absent,
        "identity_problems": problems,
    }
    return metrics, details


# ---------------------------------------------------------------------------


def _print_metric(name: str, metric: dict, note: str = "") -> None:
    value = metric["value"]
    shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
    print(f"{name:<54} {shown} {metric['unit']:<6} {note}".rstrip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="orders the commands within each pass")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=0, help="input choice; 0 is the documented inputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ebrmaps" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'ebrmaps'}; run from a full checkout", file=sys.stderr)
        return 2

    env = child_env()
    rng = random.Random(args.seed)
    commands = workloads.commands(args.workload, args.workload_seed)
    failures = Failures(check.load_reference())
    record = environment(env)
    if not record["ebrmaps_from_src"]:
        print(f"error: ebrmaps did not import from src/: {record['ebrmaps_file']!r}", file=sys.stderr)
        return 2
    record.update(workload=args.workload, seed=args.seed, workload_seed=args.workload_seed,
                  commands=[check.command_key(c) for c in commands])
    print("environment " + json.dumps(record))

    if args.trace:
        metrics, details = per_layer(args.workload, commands, failures, env, args.seconds, rng)
        for name, metric in metrics.items():
            _print_metric(name, metric)
        if details["tracing_overhead_s"] is None:
            print("tracing overhead: not measured (no untraced pass fitted in the run)")
        else:
            print(f"tracing overhead: {details['tracing_overhead_s']:.3f} s per pass"
                  f" (traced {details['traced_wall_s']:.3f} s - untraced {details['untraced_wall_s']:.3f} s)")
        correct = not failures.rows and not details["identity_problems"]
    else:
        metrics, details = end_to_end(commands, failures, env, args.seconds, rng)
        t = details["pass_wall_s_tail"]
        tail_note = f"p{t['percentile']:g} {t['value']:.4f} s" if t else "no percentile has 10 samples beyond it"
        _print_metric("wall_s", metrics["wall_s"], f"{details['passes']} samples of each command; pass tail: {tail_note}")
        _print_metric("cpu_s", metrics["cpu_s"], f"{details['passes']} samples of each command")
        _print_metric("peak_rss_mb", metrics["peak_rss_mb"], "largest command, median over passes")
        _print_metric("setup_s", metrics["setup_s"], f"median of {len(details['setup_s_samples'])} import probes")
        correct = not failures.rows
    error_rate = {"value": len(failures.rows) / max(failures.attempted, 1), "unit": "ratio"}
    _print_metric("error_rate", error_rate, f"{len(failures.rows)} failed / {failures.attempted} attempted")
    details["failures"] = failures.rows
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": failures.attempted,
        "failed": len(failures.rows),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
