"""End-to-end and per-layer benchmark of the bearing-forge CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The package is not installed: every
child runs ``python -m bearing_forge.cli`` with ``PYTHONPATH=src``, one
process at a time, as a user would.

``--trace 0`` runs fresh CLI processes for S seconds, cycling through
``perfbench/probe.py`` (a fixed piece of work that measures the host's
current speed), ``validate`` (set-up) and ``run --oracles`` (a whole
simulation).  It divides the CPU time of each ``validate`` and ``run`` by
the matching probe CPU time around it and reports the median of these
ratios, scaled to a reference probe time (see ``END_TO_END``), and the
median peak RSS.
``--trace 1`` runs the same ``run`` command in pairs, once plain and once
under ``perfbench/tracer.py``, and reports per-module numbers from the
traced spans plus the tracing overhead.  Every invocation's outputs
are checked; one that exits non-zero or fails a check counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
record the environment and print each metric with its unit.

Workloads (BENCHMARK.json gives the reason for each):

* ``square_known``    bundled square_known.json, known frequencies;
* ``square_adaptive`` bundled square_adaptive.json, adaptive estimation;
* ``swarm_adaptive``  64-agent complete graph generated from ``--seed``.

The bundled scenarios keep their shipped gains, step, record cadence and
disturbances; only the horizon is shortened (``--t-final``) so that one run
holds several invocations.  Their inputs do not depend on the seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import swarm
from tracer import layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "bearing_forge" / "data"
REFERENCE = HERE / "reference"
WORK = HERE / "_work"

# One BLAS thread: the operators are at most a few hundred wide, and a single
# thread keeps timings repeatable on a shared host (nproc is recorded).
BLAS_THREADS = 1
MIN_REPEATS = 3           # timed invocations per metric, even past the deadline
MIN_TRACED_PAIRS = 2
IMPORT_PROBES = 7         # fresh interpreters per side for cli.import_s
CHILD_TIMEOUT_S = 120.0

# Output checks.  XI_TOL is the xi-flow tolerance of the acceptance tests;
# TRAJ_TOL bounds |x - ref| / (1 + |ref|) for every trajectory.csv cell
# against the reference recorded from the unmodified program.
XI_TOL = 1e-6
TRAJ_TOL = 1e-9

WORKLOADS = {
    "square_known": {"bundled": "square_known.json", "t_final": 10.0},
    "square_adaptive": {"bundled": "square_adaptive.json", "t_final": 5.0},
    "swarm_adaptive": {"bundled": None, "t_final": None},
}

# End-to-end metric -> unit.  The children are single-threaded, so their
# CPU time (user + system, from the rusage of os.wait4) equals their wall
# time on an idle host, but leaves out the time the host gives to others.
# The host's own speed also swings: the same swarm_adaptive run took from
# 2.2 to 4.1 CPU s within a few minutes on a 2-vCPU KVM guest.  So a run
# repeats the cycle probe, validate, run and ends with one more probe, and
#
#   setup_s   = PROBE_START_REF_S * median over cycles of validate CPU / probe start CPU
#   cli_run_s = PROBE_REF_S       * median over cycles of run CPU / probe CPU
#
# where a probe time is the mean of the probes before and after the cycle,
# and the start CPU is the probe's interpreter start and imports, which is
# what most of validate is.  So these are CPU seconds on a host where
# probe.py takes the reference times.  On that guest this cut the spread of
# ten-cycle medians from 0.13-0.16 of their median to 0.02-0.06.  Raw wall,
# CPU and probe medians are printed beside the result.
END_TO_END = {
    "cli_run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PROBE_START_REF_S = 0.40   # interpreter start + numpy/scipy.linalg import
PROBE_REF_S = 0.70         # the whole probe.py child

# per-layer metric -> (span name, field of tracer.layer_totals, unit)
SPAN_METRICS = {
    "cli.oracle_report_self_s": ("cli.oracle_report", "self", "s"),
    "cli.write_trajectory_csv_s": ("cli.write_trajectory_csv", "total", "s"),
    "scenario.parse_config_s": ("scenario.parse_config", "total", "s"),
    "scenario.compile_scenario_self_s": ("scenario.compile_scenario", "self", "s"),
    "formation_graph.build_bearing_laplacian_s": (
        "formation_graph.build_bearing_laplacian", "total", "s"),
    "formation_graph.localize_followers_calls": (
        "formation_graph.localize_followers", "calls", "count"),
    "formation_graph.localize_followers_s": (
        "formation_graph.localize_followers", "total", "s"),
    "internal_model.synthesize_calls": ("internal_model.synthesize", "calls", "count"),
    "internal_model.synthesize_s": ("internal_model.synthesize", "total", "s"),
    "disturbance.build_canonical_s": ("disturbance.build_canonical", "total", "s"),
    "control_laws.validate_gains_calls": ("control_laws.validate_gains", "calls", "count"),
    "control_laws.validate_gains_s": ("control_laws.validate_gains", "total", "s"),
    "sim_engine.Engine_init_s": ("sim_engine.Engine.__init__", "total", "s"),
    "sim_engine.rhs_calls": ("sim_engine.Engine.rhs", "calls", "count"),
    "sim_engine.rhs_s": ("sim_engine.Engine.rhs", "total", "s"),
    "sim_engine.integrate_self_s": ("sim_engine.integrate", "self", "s"),
    "sim_engine.metrics_self_s": ("sim_engine.metrics", "self", "s"),
    "sim_engine.xi_oracle_s": ("sim_engine.xi_oracle", "total", "s"),
    "sim_engine.spectral_abscissa_s": ("sim_engine.spectral_abscissa", "total", "s"),
    "sim_engine.build_certificate_calls": ("sim_engine.build_certificate", "calls", "count"),
    "sim_engine.build_certificate_s": ("sim_engine.build_certificate", "total", "s"),
    "sim_engine.lyapunov_monitor_calls": ("sim_engine.lyapunov_monitor", "calls", "count"),
    "sim_engine.lyapunov_monitor_self_s": ("sim_engine.lyapunov_monitor", "self", "s"),
}
DERIVED_UNITS = {
    "cli.import_s": "s",
    "cli.csv_bytes": "bytes",
    "sim_engine.rhs_us_per_call": "us",
    "sim_engine.steps_per_s": "1/s",
    "trace.overhead_s": "s",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Spawns children one at a time and counts attempts and failures."""

    def __init__(self, work):
        self.work = work
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.timed_out = False

    def spawn(self, argv):
        """Run one child to completion.

        Returns (exit code, wall s, CPU s, peak RSS MB, log text); the CPU
        time is user + system time from the child's own rusage.
        """
        log_path = self.work / "child.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if wall >= CHILD_TIMEOUT_S:
            self.timed_out = True
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, log_path.read_text()

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")

    def run_checked(self, argv, out, adaptive, reference):
        """One ``run --oracles`` into ``out``, checked: (wall s, CPU s, peak RSS MB)."""
        shutil.rmtree(out, ignore_errors=True)
        code, wall, cpu, rss, log = self.spawn(argv)
        if code != 0:
            self.record("run", [f"exit {code}: {log.strip()[-200:]}"])
        else:
            self.record("run", check_run(out, adaptive, reference))
        return wall, cpu, rss

    def probe(self):
        """Run probe.py once: (start-and-import CPU s, total CPU s).

        The probe is not the program, so it does not count as an attempt;
        if it fails the benchmark stops without a result.
        """
        code, _, cpu, _, log = self.spawn([sys.executable, str(HERE / "probe.py")])
        try:
            work = float(log.strip().splitlines()[-1])
        except (IndexError, ValueError):
            work = math.nan
        if code != 0 or not 0 < work < cpu:
            sys.exit(f"perfbench: probe.py failed (exit {code}): {log.strip()[-200:]}")
        return cpu - work, cpu


def _num(x):
    return float(x) if isinstance(x, (int, float)) else math.nan


def compare_trajectory(path, ref_path):
    """Problems found comparing a trajectory.csv cell by cell with a reference."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(ref_path, newline="") as fh:
        ref = list(csv.reader(fh))
    if rows[:1] != ref[:1]:
        return ["trajectory.csv header differs from the reference"]
    if len(rows) != len(ref):
        return [f"trajectory.csv has {len(rows)} rows, reference {len(ref)}"]
    for row, ref_row in zip(rows[1:], ref[1:]):
        if len(row) != len(ref_row):
            return ["trajectory.csv row length differs from the reference"]
        for x, r in zip(row, ref_row):
            if x == "" or r == "":
                if x != r:
                    return ["trajectory.csv blank cells differ from the reference"]
                continue
            err = abs(float(x) - float(r)) / (1.0 + abs(float(r)))
            if not err <= TRAJ_TOL:
                return [f"trajectory.csv deviates from the reference by {err:.3e}"]
    return []


def check_run(out, adaptive, reference):
    """Problems found in the output directory of one ``run --oracles``."""
    try:
        mts = json.loads((out / "metrics.json").read_text())
        orc = json.loads((out / "oracles.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = [
        f"metrics.json {key} = {value!r} is not finite"
        for key, value in mts.items()
        if not isinstance(value, str) and not math.isfinite(_num(value))
    ]
    if not _num(orc.get("spectral_abscissa")) < 0:
        problems.append(f"spectral abscissa {orc.get('spectral_abscissa')!r} is not < 0")
    if not _num(orc.get("xi_max_deviation")) < XI_TOL:
        problems.append(f"xi_max_deviation {orc.get('xi_max_deviation')!r} >= {XI_TOL:g}")
    if adaptive and orc.get("lyapunov", {}).get("non_increasing") is not True:
        problems.append("Lyapunov monitor is not non-increasing")
    if reference is not None:
        problems += compare_trajectory(out / "trajectory.csv", reference)
    return problems


def prepare(name, seed, work):
    """Scenario path, extra CLI arguments and workload parameters."""
    spec = WORKLOADS[name]
    if spec["bundled"]:
        path = DATA / spec["bundled"]
        extra = ["--t-final", repr(spec["t_final"])]
        reference = REFERENCE / f"{name}.csv"
    else:
        path = work / f"{name}_{seed}.json"
        path.write_text(swarm.scenario_json(seed))
        extra, reference = [], None
    data = json.loads(path.read_text())
    return path, extra, reference, workload_params(data, spec["t_final"])


def workload_params(data, t_final=None):
    """n, d, state dimension, RK4 steps and recorded samples of a scenario."""
    graph, integ = data["graph"], data["integration"]
    n, d, n_l = graph["n_agents"], graph["dimension"], len(graph["leaders"])
    mode = data["controller"]["mode"]
    t_final = integ["t_final"] if t_final is None else t_final
    h = integ.get("step", 1e-3)
    every = integ.get("record_every", 100)
    steps = int(round(t_final / h))
    orders = [
        2 * len(data.get("disturbances", {}).get(str(i), {}).get("sinusoids", [])) + 1
        for i in range(n_l + 1, n + 1)
    ]
    q_f = sum(orders) * d
    k = sum(orders) if mode == "adaptive" else 0
    return {
        "n": n,
        "d": d,
        "mode": mode,
        "state_dim": n * d + (n - n_l) * d + 2 * q_f + k,
        "steps": steps,
        "samples": steps // every + 1 + (1 if steps % every else 0),
    }


def environment(name, seed, args, params):
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = res.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "params": params,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_end_to_end(runner, cli, scenario, extra, reference, adaptive, seconds):
    out = runner.work / "out"
    validate = cli + ["validate", str(scenario)] + extra
    run = cli + ["run", str(scenario), "--oracles", "--out", str(out)] + extra

    def do_validate():
        code, wall, cpu, _, log = runner.spawn(validate)
        ok = code == 0 and log.startswith("valid:")
        runner.record("validate", [] if ok else [f"exit {code}: {log.strip()[-200:]}"])
        return wall, cpu

    # warm-up: byte-compiles the package, fills the file cache
    runner.probe()
    do_validate()
    raw = {key: [] for key in (
        "probe_start_cpu_s", "probe_cpu_s", "validate_wall_s", "validate_cpu_s",
        "run_wall_s", "run_cpu_s", "peak_rss_mb")}

    def add_probe():
        start, total = runner.probe()
        raw["probe_start_cpu_s"].append(start)
        raw["probe_cpu_s"].append(total)

    # A cycle that would end past the deadline is not started, so that a
    # run lasts about --seconds.
    deadline = time.perf_counter() + seconds
    cycle = 0.0
    while not runner.timed_out and (
        len(raw["run_cpu_s"]) < MIN_REPEATS or time.perf_counter() + cycle < deadline
    ):
        begun = time.perf_counter()
        add_probe()
        wall, cpu = do_validate()
        raw["validate_wall_s"].append(wall)
        raw["validate_cpu_s"].append(cpu)
        wall, cpu, mb = runner.run_checked(run, out, adaptive, reference)
        raw["run_wall_s"].append(wall)
        raw["run_cpu_s"].append(cpu)
        raw["peak_rss_mb"].append(mb)
        cycle = time.perf_counter() - begun
    add_probe()
    for key, values in raw.items():
        print(f"raw {key}: median {statistics.median(values):.6g} of {len(values)} "
              f"(min {min(values):.6g}, max {max(values):.6g})")

    def scaled(ref, cpus, probes):
        around = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
        return ref * statistics.median(c / p for c, p in zip(cpus, around))

    return {
        "setup_s": scaled(
            PROBE_START_REF_S, raw["validate_cpu_s"], raw["probe_start_cpu_s"]),
        "cli_run_s": scaled(PROBE_REF_S, raw["run_cpu_s"], raw["probe_cpu_s"]),
        "peak_rss_mb": statistics.median(raw["peak_rss_mb"]),
    }


def measure_layers(runner, cli, scenario, extra, reference, adaptive, params, seconds):
    out = runner.work / "out"
    spans_path = runner.work / "spans.json"
    tail = ["run", str(scenario), "--oracles", "--out", str(out)] + extra
    tracer = [sys.executable, str(HERE / "tracer.py"), str(spans_path)]
    samples = {}

    def add(metric, value):
        samples.setdefault(metric, []).append(value)

    # --seconds covers the import probes too; a pair of runs that would end
    # past the deadline is not started.
    deadline = time.perf_counter() + seconds
    bare, imported = [], []
    for _ in range(IMPORT_PROBES):
        for argv, walls in (
            ([sys.executable, "-c", "pass"], bare),
            ([sys.executable, "-c", "import bearing_forge.cli"], imported),
        ):
            code, wall, _, _, log = runner.spawn(argv)
            runner.record("import probe", [] if code == 0 else [log.strip()[-200:]])
            walls.append(wall)
    add("cli.import_s", min(imported) - min(bare))

    plain, traced, missing = [], [], set()
    pair = 0.0
    while not runner.timed_out and (
        len(traced) < MIN_TRACED_PAIRS or time.perf_counter() + pair < deadline
    ):
        begun = time.perf_counter()
        plain.append(runner.run_checked(cli + tail, out, adaptive, reference)[0])
        spans_path.unlink(missing_ok=True)
        traced.append(runner.run_checked(tracer + tail, out, adaptive, reference)[0])
        pair = time.perf_counter() - begun
        csv_path = out / "trajectory.csv"
        if not (spans_path.exists() and csv_path.exists()):
            continue
        add("cli.csv_bytes", csv_path.stat().st_size)
        traced_run = json.loads(spans_path.read_text())
        missing.update(traced_run["missing"])
        totals = layer_totals(traced_run["spans"])
        empty = {"calls": 0, "total": 0.0, "self": 0.0}
        for metric, (span, field, _) in SPAN_METRICS.items():
            add(metric, totals.get(span, empty)[field])
        # 0 when the function is gone or never called
        rhs = totals.get("sim_engine.Engine.rhs", empty)
        add("sim_engine.rhs_us_per_call",
            1e6 * rhs["total"] / rhs["calls"] if rhs["calls"] else 0.0)
        integrate = totals.get("sim_engine.integrate", empty)
        add("sim_engine.steps_per_s",
            params["steps"] / integrate["total"] if integrate["total"] else 0.0)
    add("trace.overhead_s", min(traced) - min(plain))
    for target in sorted(missing):
        print("untraced, not found in the program:", target)
    return samples


def summarize(samples, units):
    """Median of each per-layer metric's samples (lower median for counts)."""
    values = {}
    for name, unit in units.items():
        got = samples.get(name)
        if not got:
            sys.exit(f"perfbench: no samples for {name}")
        stat = statistics.median_low if unit in ("count", "bytes") else statistics.median
        values[name] = stat(got)
        print(f"{name}: {stat.__name__} of {len(got)} (min {min(got):.6g}, "
              f"max {max(got):.6g})")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bearing_forge" / "cli.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'bearing_forge'}; "
                 "run from the repository root")

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        scenario, extra, reference, params = prepare(args.workload, args.seed, work)
        adaptive = params["mode"] == "adaptive"
        print("environment:", json.dumps(environment(args.workload, args.seed, args, params)))
        runner = Runner(work)
        cli = [sys.executable, "-m", "bearing_forge.cli"]
        if args.trace:
            samples = measure_layers(
                runner, cli, scenario, extra, reference, adaptive, params, args.seconds
            )
            units = {m: u for m, (_, _, u) in SPAN_METRICS.items()} | DERIVED_UNITS
            values = summarize(samples, units)
        else:
            values = measure_end_to_end(
                runner, cli, scenario, extra, reference, adaptive, args.seconds
            )
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another workload's directory is still there
            pass

    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit}")
    for problem in runner.problems:
        print("FAILED", problem)
    print(f"failed_ops_frac = {runner.failed / max(runner.attempted, 1):.6g} ratio "
          f"({runner.failed} of {runner.attempted} invocations)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
