"""Benchmark of the hdiv-geodecomp CLI: fresh-process suites on named workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each invocation of the CLI is a
fresh process (``python3 -m hdiv_geodecomp.cli ... --jobs 1``), because
users pay interpreter start, imports and cold process-wide caches on every
call.  One iteration runs the workload's invocations one after another;
iterations repeat until ``--seconds`` is spent (at least one), and every
metric is the median over iterations.  Times are calibrated to a reference
machine speed (``calibrate`` and ``spawn``).  Every report is checked
against the references in ``bench/references``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
invocation once plain and once traced (``bench/tracer.py`` wraps each layer
from outside the package) and prints the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--record`` rewrites the workload's reference
reports from one iteration at the given seed instead of checking them.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import math
import os
import statistics
import select
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import checker
import meshgen
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
# A hard stop for one run, set-up included: a process still running then is killed.
RUN_DEADLINE_S = 170.0
# A typical calibrate() time on the reference machine (bench/README.md), and
# how often a running invocation is paused to calibrate.
CALIBRATION_REF_S = 0.0136
PROBE_PERIOD_S = 2.0


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]


def _suite_3d_traceless(seed: int, work: Path):
    argv = ("all", "--family", "traceless", "--degree", "2", "--k", "0",
            "--mesh", "refine(two_tets)", "--seed", str(seed))
    props = {"mesh": "refine(two_tets)", "cells": 16, "distinct_shapes": 16,
             "assemble_per_invocation": 4}
    return [Invocation("traceless_r2_two_tets", argv)], props


def _element_certs_3d(seed: int, work: Path):
    invocations = [
        Invocation("traceless_r3_k0", ("all", "--family", "traceless", "--dim", "3", "--degree", "3", "--k", "0")),
        Invocation("symmetric_r3_k1", ("all", "--family", "symmetric", "--dim", "3", "--degree", "3", "--k", "1")),
        Invocation("unisolvence_traceless_r4_k1",
                   ("unisolvence", "--family", "traceless", "--dim", "3", "--degree", "4", "--k", "1")),
    ]
    return invocations, {"mesh": None, "assemble_per_invocation": 0}


def _suite_2d_perturbed(seed: int, work: Path):
    props = {"assemble_per_invocation": 4}
    paths = {}
    for label, refinements in (("mesh_64", 2), ("mesh_16", 1)):
        verts, cells = meshgen.perturbed_mesh(refinements, seed)
        path = work / f"{label}.json"
        path.write_text(meshgen.mesh_json(verts, cells))
        paths[label] = str(path.relative_to(ROOT))
        props[label] = meshgen.mesh_properties(verts, cells)
    invocations = [
        Invocation("face_r2_64", ("all", "--family", "face", "--degree", "2", "--k", "-1",
                                  "--mesh", paths["mesh_64"], "--seed", str(seed))),
        Invocation("symmetric_r3_16", ("all", "--family", "symmetric", "--degree", "3", "--k", "0",
                                       "--mesh", paths["mesh_16"], "--seed", str(seed))),
    ]
    return invocations, props


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, work dir) -> the invocations and the input properties recorded with them
    inputs: Callable[[int, Path], tuple[list[Invocation], dict]]
    touches_mesh: bool
    geometry_from_seed: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite_3d_traceless", _suite_3d_traceless, touches_mesh=True, geometry_from_seed=False),
        Workload("element_certs_3d", _element_certs_3d, touches_mesh=False, geometry_from_seed=False),
        Workload("suite_2d_perturbed", _suite_2d_perturbed, touches_mesh=True, geometry_from_seed=True),
    )
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Trace names a workload must hit; the mesh layers only where a mesh is used.
MESH_TRACE_NAMES = {
    "mesh.load", "mesh.validate", "assembly.assemble", "assembly.dual", "assembly.conformity",
    "assembly.div_onto", "assembly.infsup", "dofs.build_dofs", "linalg.invert", "linalg.solve_many",
}


@dataclass
class Outcome:
    """One invocation: its process measurements and whether its report checked out."""

    wall: float  # without the pauses for calibration
    setup: float
    cpu: float
    rss_mb: float
    program_s: float  # the report's timings.total
    problem: str | None
    speed: float  # machine speed around the process, 1.0 when not probed


@dataclass
class Run:
    deadline: float
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("HDIV_GEODECOMP_JOBS", None)
    return env


def _calibration_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(i, i * i + 1) * Fraction(3, 7)
    return total


def calibrate() -> float:
    """Time a fixed piece of pure-Python Fraction arithmetic: the median of nine repeats.

    The machine's speed drifts by tens of percent over minutes; this tracks
    it.  The package is never imported here, so no change to it can move
    the result.
    """
    times = []
    for _ in range(9):
        start = perf_counter()
        _calibration_work()
        times.append(perf_counter() - start)
    return statistics.median(times)


def spawn(argv: list[str], log: Path, deadline: float, probe: bool = False):
    """Run one process to completion.

    Returns the elapsed wall s, the part of it the process spent paused,
    user+system CPU s, max RSS MB, the exit code and the machine speed.
    CPU and RSS come from ``wait4``, so they include the process's threads
    and any children it waited for.  The process gets its own process
    group, and a group still running at the deadline is killed.  With
    probe, the machine is calibrated before and after the process and every
    PROBE_PERIOD_S while the whole group is stopped with SIGSTOP; speed is
    CALIBRATION_REF_S over the mean calibration time, else 1.0.
    """
    samples = [calibrate()] if probe else []
    paused = 0.0
    with open(log, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
        pidfd = os.pidfd_open(proc.pid)
        try:
            next_probe = start + PROBE_PERIOD_S if probe else math.inf
            while True:
                wait = min(next_probe, deadline) - perf_counter()
                if select.select([pidfd], [], [], None if wait == math.inf else max(wait, 0.0))[0]:
                    break
                if perf_counter() >= deadline:
                    os.killpg(proc.pid, signal.SIGKILL)
                    next_probe = deadline = math.inf
                    continue
                os.killpg(proc.pid, signal.SIGSTOP)
                pause = perf_counter()
                try:
                    samples.append(calibrate())
                finally:
                    os.killpg(proc.pid, signal.SIGCONT)
                paused += perf_counter() - pause
                next_probe = perf_counter() + PROBE_PERIOD_S
            elapsed = perf_counter() - start
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            os.close(pidfd)
    if probe:
        samples.append(calibrate())
    speed = CALIBRATION_REF_S / statistics.mean(samples) if samples else 1.0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return elapsed, paused, cpu, usage.ru_maxrss / 1024, proc.returncode, speed


def run_invocation(inv: Invocation, index: int, run: Run, expect: dict | None,
                   same_geometry: bool, spans_out: Path | None = None) -> Outcome:
    out = WORK / f"{inv.name}.report.json"
    out.unlink(missing_ok=True)
    cli_argv = [*inv.argv, "--jobs", "1", "--out", str(out.relative_to(ROOT))]
    if spans_out is None:
        argv = [sys.executable, "-m", "hdiv_geodecomp.cli", *cli_argv]
    else:
        argv = [sys.executable, str(Path(tracer.__file__)), str(spans_out), str(index), "--", *cli_argv]
    elapsed, paused, cpu, rss, code, speed = spawn(argv, WORK / f"{inv.name}.log", run.deadline,
                                                   probe=spans_out is None)
    program_s, problem = 0.0, None
    if code != 0:
        problem = f"exit code {code}; see {WORK / (inv.name + '.log')}"
    elif not out.exists():
        problem = "no report written"
    else:
        report = json.loads(out.read_text())
        program_s = report["timings"]["total"] / 1000
        if expect is not None:
            diffs = checker.differences(checker.normalize(report), expect[inv.name], same_geometry)
            if diffs:
                problem = "; ".join(diffs[:5])
    run.attempted += 1
    if problem is not None:
        run.failed += 1
        run.problems.append(f"{inv.name}: {problem}")
    # The pauses fall inside the program's own timings.total, which sees
    # them as elapsed time, so set-up is elapsed time minus that total.
    return Outcome(elapsed - paused, elapsed - program_s, cpu, rss, program_s, problem, speed)


def iteration_metrics(outcomes: list[Outcome], normalize: bool = True) -> dict:
    """Sums over one iteration; normalized times are in reference-speed seconds."""
    scale = [o.speed if normalize else 1.0 for o in outcomes]
    return {
        "wall_s": sum(o.wall * k for o, k in zip(outcomes, scale)),
        "setup_s": sum(o.setup * k for o, k in zip(outcomes, scale)),
        "cpu_s": sum(o.cpu * k for o, k in zip(outcomes, scale)),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }


def prepare(workload: Workload, seed: int) -> tuple[list[Invocation], dict]:
    """Benchmark set-up, outside every measurement: inputs, bytecode, a warm import."""
    WORK.mkdir(exist_ok=True)
    invocations, props = workload.inputs(seed, WORK)
    compileall.compile_dir(str(SRC), quiet=1)
    code = spawn([sys.executable, "-c", "import hdiv_geodecomp.cli"], WORK / "warmup.log",
                 perf_counter() + 60)[4]
    if code != 0:
        raise RuntimeError(f"cannot import hdiv_geodecomp from {SRC}; see {WORK / 'warmup.log'}")
    return invocations, props


def _range_note(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"min {min(values):.4g}, max {max(values):.4g}, n={len(values)}"


def measure(invocations, run: Run, expect, same_geometry, seconds: float) -> list[list[Outcome]]:
    """Repeat the workload until the next iteration would overrun ``seconds``."""
    iterations = []
    start = perf_counter()
    while True:
        outcomes = [run_invocation(inv, i, run, expect, same_geometry) for i, inv in enumerate(invocations)]
        iterations.append(outcomes)
        for inv, o in zip(invocations, outcomes):
            print(f"  {inv.name}: wall {o.wall:.3f} s, program {o.program_s:.3f} s, cpu {o.cpu:.3f} s, "
                  f"rss {o.rss_mb:.1f} MB, speed {o.speed:.3f}{'' if o.problem is None else ', FAILED'}")
        elapsed = perf_counter() - start
        per_iteration = elapsed / len(iterations)
        if elapsed + per_iteration > seconds or perf_counter() + 1.5 * per_iteration > run.deadline:
            return iterations


def traced(invocations, run: Run, expect, same_geometry, workload: Workload) -> dict:
    """Each invocation plain, then traced, back to back, so that slow phases
    of the machine hit both sides of the overhead ratio alike."""
    plain, outcomes, dumps = [], [], []
    for i, inv in enumerate(invocations):
        plain.append(run_invocation(inv, i, run, expect, same_geometry))
        spans_out = WORK / f"{inv.name}.spans.json"
        spans_out.unlink(missing_ok=True)
        outcome = run_invocation(inv, i, run, expect, same_geometry, spans_out)
        outcomes.append(outcome)
        if outcome.problem is None:
            dumps.append(json.loads(spans_out.read_text()))
    if run.failed:
        return {}
    metrics = tracer.layer_metrics(dumps, sum(o.wall for o in outcomes), sum(o.wall for o in plain))
    fired = {name for d in dumps for name, n in d["counts"].items() if n > 0}
    required = {name for _, _, name, _ in tracer.SPANS} | {name for _, _, name in tracer.COUNTS}
    if not workload.touches_mesh:
        required -= MESH_TRACE_NAMES
    missing = sorted(required - fired)
    if missing:
        raise RuntimeError(f"wrappers that {workload.name} must hit never fired: {missing}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference reports from one iteration at this seed")
    args = parser.parse_args(argv)
    if not (SRC / "hdiv_geodecomp" / "cli.py").is_file():
        print(f"error: no hdiv_geodecomp source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    run = Run(deadline=perf_counter() + RUN_DEADLINE_S)
    workload = WORKLOADS[args.workload]

    setup_start = perf_counter()
    invocations, props = prepare(workload, args.seed)
    print(f"workload {workload.name}, seed {args.seed}")
    print(f"inputs: {json.dumps(props, sort_keys=True)}")
    print(f"benchmark set-up {perf_counter() - setup_start:.2f} s")

    if args.record:
        for i, inv in enumerate(invocations):
            run_invocation(inv, i, run, None, True)
        if run.failed:
            print("\n".join(run.problems), file=sys.stderr)
            return 1
        reports = {inv.name: checker.normalize(json.loads((WORK / f"{inv.name}.report.json").read_text()))
                   for inv in invocations}
        checker.save_references(workload.name, args.seed, reports)
        print(f"recorded {len(reports)} reference reports in {checker.reference_path(workload.name)}")
        return 0

    refs = checker.load_references(workload.name)
    expect = refs["reports"]
    same_geometry = not workload.geometry_from_seed or args.seed == refs["seed"]
    if args.trace:
        values = traced(invocations, run, expect, same_geometry, workload)
        units = tracer.LAYER_UNITS
    else:
        iterations = measure(invocations, run, expect, same_geometry, args.seconds)
        values = {}
        for name, unit in END_TO_END_UNITS.items():
            series = [iteration_metrics(o)[name] for o in iterations]
            raw = statistics.median(iteration_metrics(o, normalize=False)[name] for o in iterations)
            values[name] = statistics.median(series)
            print(f"{name} = {values[name]:.4f} {unit} (median; {_range_note(series)}; as timed {raw:.4f} {unit})")
        units = END_TO_END_UNITS
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"fail_ratio = {run.failed}/{run.attempted} = {run.failed / run.attempted:.4g} ratio")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
