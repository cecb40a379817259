"""Child CPU time and peak RSS of whole `bearing-forge` processes, beside
the interpreter's own floors.

Each measurement is one child process, run to completion and reaped with
``os.wait4``: its CPU time is ``ru_utime + ru_stime`` and its peak RSS
``ru_maxrss``.  The commands are

* the floors ``python -c pass``, ``python -c "import numpy"`` and ``python
  -c "import gc; gc.disable(); import numpy, json; gc.freeze()"``: the
  third imports NumPy as the program does, with the cyclic GC off until the
  imports are frozen, so that the program's own share is read off it and
  not off the second, which pays the GC's scans of NumPy's import objects
  and at shutdown;
* per source tree, ``python -m bearing_forge.cli validate`` and ``run
  --oracles`` (its ``src`` on PYTHONPATH, one BLAS thread) on the benchmark's
  three inputs at the benchmark's horizons: the bundled squares cut to 10 s
  (known) and 5 s (adaptive) with ``--t-final``, and the seed-7
  ``swarm_adaptive`` formation, written by a ``perfbench/swarm.py`` child,
  at its own 0.5 s.

On Linux a child's peak RSS also covers the address space it was spawned
from, so this driver loads no NumPy: it stays below 20 MB
(``driver_peak_rss_mb``), under every command above but ``python -c pass``,
whose reading is the driver's, and the program's readings are its own.
Each tree first runs one ``validate`` that writes its bytecode, as the
benchmark's warm-up does.

    python3 scripts/process_sweep.py [--baseline PARENT/src] [--rounds N]
        [--out BENCH_process.json]

With ``--baseline``, the same commands run from a second source tree,
``src`` of a checkout of the parent commit, recorded as ``parent``.  The two
trees take turns within each round, first one and then the other in
alternate rounds, and each round gives one ratio parent / this tree per
command and quantity; the median ratio is recorded as ``ratio`` and the
least and largest beside it as ``ratio_range``, so that a ratio whose range
straddles 1 is seen to be host noise.  Each quantity is kept as the
quartiles [q1, median, q3] over the rounds.  Run from anywhere; 11 rounds
take about 30 s with ``--baseline`` on a 2-core Xeon.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# before any child starts: importing setup_sweep pins BLAS to one thread,
# and loads no NumPy until environment() is called, which runs in a child
from setup_sweep import ROOT, SEED, tree_sha256, write_json

DATA = ROOT / "src" / "bearing_forge" / "data"
ROUNDS = 11
FLOORS = {
    "python -c pass": ["-c", "pass"],
    "python -c 'import numpy'": ["-c", "import numpy"],
    "python -c 'import gc; gc.disable(); import numpy, json; gc.freeze()'": [
        "-c", "import gc; gc.disable(); import numpy, json; gc.freeze()"],
}


def inputs(tmp):
    """(name, scenario, flags) of the benchmark's three inputs, at the
    horizons of perfbench/run.py's workloads."""
    swarm = Path(tmp) / "swarm_adaptive.json"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "swarm.py"), str(SEED), str(swarm)],
        check=True,
    )
    return (
        ("square_known", DATA / "square_known.json", ["--t-final", "10.0"]),
        ("square_adaptive", DATA / "square_adaptive.json", ["--t-final", "5.0"]),
        ("swarm_adaptive", swarm, []),
    )


def spawn(argv, env, cwd):
    """(CPU s, peak RSS MB) of one child that must exit 0."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.exit(f"{' '.join(argv)} exited {proc.returncode}: {err.read().decode()}")
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def quartiles(values, digits):
    return [round(q, digits) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summary(runs):
    """Quartiles of CPU ms and peak RSS MB over the rounds of one command."""
    return {
        "cpu_ms": quartiles([cpu * 1e3 for cpu, _ in runs], 1),
        "peak_rss_mb": quartiles([rss for _, rss in runs], 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="src directory of a checkout of the parent commit")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--out", default=str(ROOT / "BENCH_process.json"))
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")

    trees = {"this_tree": ROOT / "src"}
    if args.baseline:
        trees["parent"] = Path(args.baseline).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        commands = {}
        for name, scenario, flags in inputs(tmp):
            commands[f"{name} validate"] = ["validate", str(scenario), *flags]
            commands[f"{name} run --oracles"] = [
                "run", str(scenario), "--oracles", "--out", out, *flags]
        envs = {tree: {**os.environ, "PYTHONPATH": str(src)} for tree, src in trees.items()}
        cli = [sys.executable, "-m", "bearing_forge.cli"]
        for env in envs.values():
            spawn(cli + commands["square_known validate"], env, tmp)

        floors = {name: [] for name in FLOORS}
        runs = {tree: {name: [] for name in commands} for tree in trees}
        for k in range(args.rounds):
            for name, flags in FLOORS.items():
                floors[name].append(spawn([sys.executable, *flags], os.environ, tmp))
            for tree in list(trees)[:: 1 if k % 2 == 0 else -1]:
                for name, command in commands.items():
                    runs[tree][name].append(spawn(cli + command, envs[tree], tmp))
            print(f"round {k + 1} of {args.rounds}", flush=True)
        env_record = json.loads(subprocess.run(
            [sys.executable, "-c",
             "import json, setup_sweep; print(json.dumps(setup_sweep.environment()))"],
            cwd=Path(__file__).parent, check=True, capture_output=True, text=True,
        ).stdout)

    rows = []
    for name in commands:
        row = {"command": name}
        for tree in trees:
            row[tree] = summary(runs[tree][name])
        if args.baseline:
            ratios = {
                key: [p[i] / t[i] for p, t in zip(runs["parent"][name], runs["this_tree"][name])]
                for i, key in enumerate(("cpu_ms", "peak_rss_mb"))
            }
            row["ratio"] = {key: round(statistics.median(r), 3) for key, r in ratios.items()}
            row["ratio_range"] = {
                key: [round(min(r), 3), round(max(r), 3)] for key, r in ratios.items()
            }
        rows.append(row)
        print(json.dumps(row), flush=True)
    result = {
        "command": "python3 scripts/process_sweep.py"
        + (" --baseline PARENT/src" if args.baseline else "")
        + (f" --rounds {args.rounds}" if args.rounds != ROUNDS else ""),
        "environment": env_record,
        "rounds": args.rounds,
        "statistic": "quartiles [q1, median, q3] over rounds of each child's CPU time "
        "(ru_utime + ru_stime of os.wait4), ms, and peak RSS (ru_maxrss), MB; ratio "
        "is the median of the per-round ratios parent / this tree, ratio_range "
        "their least and largest",
        "driver_peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2),
        "trees": {name: {"src_sha256": tree_sha256(src)} for name, src in trees.items()},
        "floors": {name: summary(r) for name, r in floors.items()},
        "rows": rows,
    }
    write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
