"""palcomp benchmark: the real CLI, one command at a time, in a closed loop.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Workloads: grid, deep, verify (see workloads.py and README.md), or ``all``
to run the three in turn.  One client runs the workload's commands in order,
each in a fresh interpreter (so every cache starts empty, as for a CLI user),
the next starting when the previous has exited.  A pass is one run through
the commands; a new pass starts if at least half of it fits in --seconds,
so a run measures for --seconds give or take half a pass.
Every command's output is checked against a second path, and a command
that exits non-zero, fails its check or outlives CMD_TIMEOUT_S is a failure.

The end-to-end times are given at a reference machine speed.  Before every
job, and beside every set-up sample, the driver times a reference child: a
fresh interpreter that runs a fixed pure-Python big-integer series inversion
and imports nothing from palcomp.  Each pass's times are scaled by
REF_NOMINAL_S over the median reference time of that pass.  A shared machine
changes speed by a third within minutes; the reference slows with it, and
the ratio does not.  The raw times are printed beside the scaled ones.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates plain passes
with passes through traced_cli.py and prints the per-layer metrics.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give each metric by name with its
unit, its sample count and, where there are enough samples, a tail
percentile, and the environment of the run.  The exit status is 0 whenever a
result is printed, and 1, with no result, when the palcomp sources are
missing or do not import.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from traced_cli import TRACE_PREFIX
from workloads import VERIFY_CHECKS, WORKLOADS, CheckFailed, Job

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACED_CLI = BENCH_DIR / "traced_cli.py"
# What the installed `palcomp` console script runs.
CLI_STUB = "import sys; from palcomp.cli import main; sys.exit(main())"
IMPORT_STUB = "import palcomp.cli"
# The reference child: a fresh interpreter running a fixed series inversion
# with big-integer coefficients, the kind of work palcomp's commands do.  It
# imports nothing from palcomp, so no change to the program moves it.
REFERENCE_STUB = """
from math import comb
n = 90
tail = [(p, s, (-1) ** (p + s) * comb(p + s, s)) for p in range(3) for s in range(3) if p or s]
rows = [[0] * (n + 1) for _ in range(n + 1)]
rows[0][0] = 1
for p in range(n + 1):
    for s in range(n + 1):
        if p or s:
            rows[p][s] = -sum(c * rows[p - dp][s - ds] for dp, ds, c in tail if dp <= p and ds <= s)
assert rows[n][n] != 0
"""
# The reference child's wall time at the reference speed: a scaled time is
# what the run would have taken had the reference child taken this long.
REF_NOMINAL_S = 0.1
SETUP_PER_PASS = 5
CMD_TIMEOUT_S = 60.0
# A workload stops starting commands this long after it began, so that a
# run ends inside the 180 s a caller allows even when commands hang.
RUN_LIMIT_S = 165.0
MIB = 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Outcome:
    returncode: int | None  # None when killed at its timeout
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mib: float


@dataclass
class Pass:
    walls_s: list[float] = field(default_factory=list)
    rss_mib: list[float] = field(default_factory=list)
    cells: int = 0
    attempted: int = 0
    failed: int = 0
    complete: bool = True
    traces: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    # Untraced passes only: set-up samples taken beside the pass, and the
    # reference child's wall times, one before every job and every set-up
    # sample.
    setup_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.walls_s)

    @property
    def scale(self) -> float:
        """Factor from this pass's wall times to the reference speed."""
        return REF_NOMINAL_S / statistics.median(self.ref_s)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_command(cmd: list[str], timeout: float) -> Outcome:
    """Run one child to exit; time it and read its peak RSS through wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                killed = True
                break
            for key, _ in selector.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(
        returncode=None if killed else proc.returncode,
        stdout=b"".join(chunks[proc.stdout]).decode("ascii", "replace"),
        stderr=b"".join(chunks[proc.stderr]).decode("ascii", "replace"),
        wall_s=wall,
        maxrss_mib=usage.ru_maxrss / MIB,
    )


def cli_command(argv: tuple[str, ...], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(TRACED_CLI), *argv]
    return [sys.executable, "-c", CLI_STUB, *argv]


def split_trace(stderr: str) -> tuple[str, dict | None]:
    lines = stderr.splitlines(keepends=True)
    if lines and lines[-1].startswith(TRACE_PREFIX):
        return "".join(lines[:-1]), json.loads(lines[-1][len(TRACE_PREFIX):])
    return stderr, None


def run_pass(jobs: list[Job], traced: bool, stop_at: float, reference: bool = False) -> Pass:
    result = Pass()
    for job in jobs:
        if reference:
            result.ref_s.append(time_reference())
        outputs = []
        for argv in job.commands:
            timeout = min(CMD_TIMEOUT_S, stop_at - time.perf_counter())
            if timeout <= 0:
                result.complete = False
                result.errors.append("run time limit reached; pass cut short")
                return result
            outcome = run_command(cli_command(argv, traced), timeout)
            result.attempted += 1
            result.walls_s.append(outcome.wall_s)
            result.rss_mib.append(outcome.maxrss_mib)
            stderr, trace = split_trace(outcome.stderr)
            if outcome.returncode is None:
                result.errors.append(f"timed out after {timeout:.0f} s: palcomp {' '.join(argv)}")
            elif outcome.returncode != 0:
                result.errors.append(f"exit {outcome.returncode}: palcomp {' '.join(argv)}: "
                                     f"{stderr.strip()[-300:]}")
            elif traced and trace is None:
                result.errors.append(f"no trace from: palcomp {' '.join(argv)}")
            else:
                outputs.append(outcome.stdout)
                if trace is not None:
                    result.traces.append(trace)
        if len(outputs) < len(job.commands):
            result.failed += len(job.commands) - len(outputs)
            continue
        try:
            result.cells += job.check(outputs)
        except CheckFailed as error:
            result.failed += len(job.commands)
            result.errors.append(f"{error}: {' | '.join(' '.join(a) for a in job.commands)}")
    return result


def measure(jobs: list[Job], seconds: float, trace: bool, stop_at: float):
    """Passes until the next would end more than half a pass past
    `seconds`, so a run lasts `seconds` give or take half a pass.  Without
    `trace`, SETUP_PER_PASS import timings come before every pass and after
    the last, so set-up is sampled across the whole run; with `trace`, each
    plain pass is followed by a traced one."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        setup = measure_setup() if not trace else ([], [])
        plain.append(run_pass(jobs, False, stop_at, reference=not trace))
        plain[-1].setup_s += setup[0]
        plain[-1].ref_s += setup[1]
        if trace:
            traced.append(run_pass(jobs, True, stop_at))
        cut = not plain[-1].complete or (trace and not traced[-1].complete)
        elapsed = time.perf_counter() - start
        if cut or elapsed + elapsed / len(plain) / 2 > seconds:
            break
    if not trace:
        setup = measure_setup()
        plain[-1].setup_s += setup[0]
        plain[-1].ref_s += setup[1]
    return plain, traced


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of a fresh interpreter importing palcomp.cli, each
    preceded by a reference child; returns both lists."""
    walls, refs = [], []
    for _ in range(SETUP_PER_PASS):
        refs.append(time_reference())
        outcome = run_command([sys.executable, "-c", IMPORT_STUB], CMD_TIMEOUT_S)
        if outcome.returncode != 0:
            raise SystemExit(f"error: palcomp.cli does not import:\n{outcome.stderr}")
        walls.append(outcome.wall_s)
    return walls, refs


def time_reference() -> float:
    """Wall time of one reference child."""
    outcome = run_command([sys.executable, "-c", REFERENCE_STUB], CMD_TIMEOUT_S)
    if outcome.returncode != 0:
        raise SystemExit(f"error: the reference child failed:\n{outcome.stderr}")
    return outcome.wall_s


def check_program() -> None:
    """Refuse to run unless palcomp imports from this checkout's sources;
    the first import also compiles the bytecode the timed imports reuse."""
    if not (SRC / "palcomp" / "cli.py").is_file():
        raise SystemExit(f"error: no palcomp sources under {SRC}")
    outcome = run_command(
        [sys.executable, "-c", "import palcomp.cli; print(palcomp.cli.__file__)"], CMD_TIMEOUT_S)
    location = Path(outcome.stdout.strip()).resolve()
    if outcome.returncode != 0 or SRC.resolve() not in location.parents:
        raise SystemExit(f"error: palcomp.cli does not import from {SRC}:\n{outcome.stderr}")


def percentile_summary(values: list[float], unit: str) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit}"
    if n > 10:
        p = (n - 10) * 100 // n
        rank = max(1, math.ceil(p * n / 100))
        text += f", p{p} {sorted(values)[rank - 1]:.6g} {unit}"
    return text + f", n={n}"


def environment(seed: int, workload: str) -> dict:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        cpuinfo = ""
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True).stdout.strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": seed,
        "workload": workload,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(plain: list[Pass]) -> tuple[dict, list[str]]:
    """Times are scaled to the reference speed pass by pass.  Each
    command's time is then its median over the complete passes, which keeps
    a stall in one pass from moving the pass total."""
    passes = [p for p in plain if p.complete] or plain
    per_command = [statistics.median(times) for times in
                   zip(*([w * p.scale for w in p.walls_s] for p in passes))]
    raw_per_command = [statistics.median(times) for times in zip(*(p.walls_s for p in passes))]
    commands = [w * p.scale for p in passes for w in p.walls_s]
    setup = [s * p.scale for p in plain for s in p.setup_s]
    refs = [r for p in plain for r in p.ref_s]
    attempted = sum(p.attempted for p in plain)
    failed = sum(p.failed for p in plain)
    wall_s = sum(per_command)
    metrics = {
        "wall_s": metric(wall_s, "s"),
        "cells_per_s": metric(statistics.median(p.cells for p in passes) / wall_s, "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mib": metric(max(r for p in plain for r in p.rss_mib), "MiB"),
    }
    lines = [
        f"wall_s        {wall_s:.6g} s (one pass of {len(per_command)} commands, each at its median "
        f"over {len(passes)} passes; pass totals "
        f"{percentile_summary([p.wall_s * p.scale for p in passes], 's')})",
        f"cells_per_s   {metrics['cells_per_s']['value']:.6g} 1/s ({passes[0].cells} checked values per pass)",
        f"max_cmd_s     {max(per_command):.6g} s (the slowest command at its median; not in the result)",
        f"setup_s       {percentile_summary(setup, 's')} (fresh interpreter importing palcomp.cli)",
        f"peak_rss_mib  {metrics['peak_rss_mib']['value']:.6g} MiB (largest child of the run)",
        f"failed_frac   {failed / attempted:.6g} ({failed} of {attempted} commands)",
        f"command_s     {percentile_summary(commands, 's')} (every command)",
        f"reference_s   {percentile_summary(refs, 's')} (raw; scaled times assume {REF_NOMINAL_S} s)",
        f"raw wall_s {sum(raw_per_command):.6g} s, max_cmd_s {max(raw_per_command):.6g} s, "
        f"setup_s {statistics.median(s for p in plain for s in p.setup_s):.6g} s (unscaled)",
    ]
    return metrics, lines


def per_layer(plain: list[Pass], traced: list[Pass]) -> tuple[dict, list[str]]:
    passes = [p for p in traced if p.complete] or traced
    plain_passes = [p for p in plain if p.complete] or plain
    rows = [layer_figures(p) for p in passes]
    exact = [{k: v for k, v in row.items() if v[1] == "count"} for row in rows]
    metrics = {}
    for name, (_, unit) in rows[0].items():
        values = [row[name][0] for row in rows]
        metrics[name] = metric(values[0] if unit == "count" else statistics.median(values), unit)
    traced_wall = statistics.median(p.wall_s for p in passes)
    plain_wall = statistics.median(p.wall_s for p in plain_passes)
    metrics["trace.overhead_frac"] = metric(traced_wall / plain_wall - 1, "ratio")
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"trace counts repeat across {len(rows)} traced passes: "
                 f"{'yes' if all(e == exact[0] for e in exact) else 'NO'}")
    return metrics, lines


def layer_figures(p: Pass) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass, summed over its commands."""
    busy: Counter = Counter()
    timers: Counter = Counter()
    counts: Counter = Counter()
    for trace in p.traces:
        busy.update(trace["busy_s"])
        timers.update(trace["timers_s"])
        counts.update(trace["counts"])
    cache_entries = max((t["cache_entries"] for t in p.traces), default=0)
    distinct_n = sum(t["enumerated_n"] for t in p.traces)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    figures = {
        "cli.self_s": (busy["cli"], "s"),
        "cli.commands": (len(p.traces), "count"),
        "formulas.busy_s": (busy["formulas"], "s"),
        "formulas.cells": (counts["formulas.cells"], "count"),
        "formulas.plus_evals": (counts["formulas.plus_evals"], "count"),
        "formulas.plus_evals_per_cell": (ratio(counts["formulas.plus_evals"], counts["formulas.cells"]), "ratio"),
        "core.binom_calls": (counts["core.binom_calls"], "count"),
        "genfun.busy_s": (busy["genfun"], "s"),
        "genfun.series_inverse_s": (timers["genfun.series_inverse_s"], "s"),
        "genfun.poly_mul_s": (timers["genfun.poly_mul_s"], "s"),
        "genfun.expansions": (counts["genfun.expansions"], "count"),
        "genfun.coeffs_expanded": (counts["genfun.coeffs_expanded"], "count"),
        "genfun.coeffs_read": (counts["genfun.coeffs_read"], "count"),
        "genfun.coeff_yield": (ratio(counts["genfun.coeffs_read"], counts["genfun.coeffs_expanded"]), "ratio"),
        "genfun.cache_entries": (cache_entries, "count"),
        "oracle.busy_s": (busy["oracle"], "s"),
        "oracle.enum_passes": (counts["oracle.enum_passes"], "count"),
        "oracle.compositions_enumerated": (counts["oracle.compositions_enumerated"], "count"),
        "oracle.passes_per_n": (ratio(counts["oracle.enum_passes"], distinct_n), "ratio"),
        "bijection.busy_s": (busy["bijection"], "s"),
        "bijection.calls": (counts["bijection.calls"], "count"),
        "verify.busy_s": (busy["verify"], "s"),
    }
    for check in VERIFY_CHECKS:
        figures[f"verify.{check}_s"] = (timers[f"verify.{check}_s"], "s")
    return figures


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    jobs = WORKLOADS[name](random.Random(seed))
    env = environment(seed, name)
    plain, traced = measure(jobs, seconds, trace, deadline)
    if trace:
        metrics, lines = per_layer(plain, traced)
    else:
        metrics, lines = end_to_end(plain)
    env["loadavg_end"] = os.getloadavg()
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {name}: {len(plain)} plain and {len(traced)} traced passes, "
          f"{len(jobs)} jobs per pass, one client, closed loop")
    for error in dict.fromkeys(e for p in passes for e in p.errors):
        print(f"FAILED {error}")
    for line in lines:
        print(f"  {line}")
    print(f"env {json.dumps(env)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    check_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.perf_counter() + RUN_LIMIT_S
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
