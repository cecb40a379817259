"""CPU time of scenario set-up over formation size: `load_scenario` and
`build_bearing_laplacian` on seeded planar complete graphs.

Each formation (n = 8, 16, 32, 64 and 128 agents, so 28 to 8128 edges)
comes from the generator of the ``swarm_adaptive`` benchmark workload
(``perfbench/swarm.py``, used as it is, with its agent count set per size)
at SEED, switched to known mode and written to a scenario file.  Each
measurement is a fresh child process that imports the package from a source
tree, loads the file once to warm up and then LOADS times, and times each
load (`load_scenario`: parse, compile and every load-time check) and each
`BearingSet.from_positions` and `build_bearing_laplacian` of the compiled
graph; it reports the median CPU time of each.  The sweep makes ROUNDS such
measurements per size and tree, and keeps their median.

    python3 scripts/setup_sweep.py [--baseline PARENT/src] [--out BENCH_setup_sweep.json]

With ``--baseline``, the same is measured for a second source tree, ``src``
of a checkout of the parent commit, recorded as ``parent``.  The two trees
take turns within each round, first one and then the other in alternate
rounds, and each round gives one ratio parent / this tree per quantity; the
median ratio is recorded as ``speedup`` and the least and largest ratio
beside it as ``speedup_range``, so that a ratio whose range straddles 1 is
seen to be host noise.  Each tree is identified by the SHA-256 of its
Python files.  Run from anywhere; it runs with one BLAS thread, as the
benchmark does, and takes about 30 s with ``--baseline`` on a 2-core Xeon.

``scripts/stepper_sweep.py`` takes its formations, BLAS pinning (on import,
before NumPy loads), environment record and JSON writer from here.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SEED = 7                         # the seed of the swarm_adaptive workload's formation
SIZES = (8, 16, 32, 64, 128)
ROUNDS = 7                       # child processes per size and tree; the median is kept
LOADS = 5                        # timed loads per child; the median is kept


def formation(n_agents, mode):
    """The generator's n_agents formation at SEED in mode, as a scenario dict."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import swarm

    default = swarm.N_AGENTS
    swarm.N_AGENTS = n_agents
    try:
        data = swarm.make_scenario(SEED)
    finally:
        swarm.N_AGENTS = default
    data["controller"]["mode"] = mode
    return data


def child(src, path):
    """Median CPU times, in seconds, of loading the scenario file and of
    rebuilding its bearings and bearing Laplacian, with the package
    imported from src; printed as one JSON line."""
    sys.path.insert(0, src)
    from bearing_forge.formation_graph import BearingSet, build_bearing_laplacian
    from bearing_forge.scenario import load_scenario

    sc = load_scenario(path)
    load, bearing, laplacian = [], [], []
    for _ in range(LOADS):
        start = time.process_time()
        sc = load_scenario(path)
        load.append(time.process_time() - start)
        start = time.process_time()
        bearings = BearingSet.from_positions(sc.graph, sc.p_star0)
        bearing.append(time.process_time() - start)
        start = time.process_time()
        build_bearing_laplacian(sc.graph, bearings)
        laplacian.append(time.process_time() - start)
    print(json.dumps({
        "load_scenario_s": statistics.median(load),
        "from_positions_s": statistics.median(bearing),
        "build_bearing_laplacian_s": statistics.median(laplacian),
    }))


def measure(src, path):
    out = subprocess.run(
        [sys.executable, __file__, "--child", str(src), str(path)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def tree_sha256(src):
    digest = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    """The host and library versions a sweep ran with."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def write_json(path, result):
    Path(path).write_text(json.dumps(result, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="src directory of a checkout of the parent commit")
    parser.add_argument("--out", default=str(ROOT / "BENCH_setup_sweep.json"))
    parser.add_argument("--child", nargs=2, metavar=("SRC", "SCENARIO"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0

    trees = {"this_tree": ROOT / "src"}
    if args.baseline:
        trees["parent"] = Path(args.baseline).resolve()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n_agents in SIZES:
            path = Path(tmp) / f"complete_{n_agents}.json"
            path.write_text(json.dumps(formation(n_agents, "known")))
            runs = {name: [] for name in trees}
            for k in range(ROUNDS):
                for name in list(trees)[:: 1 if k % 2 == 0 else -1]:
                    runs[name].append(measure(trees[name], path))
            row = {"n_agents": n_agents, "edges": n_agents * (n_agents - 1) // 2}
            for name, results in runs.items():
                row[name] = {
                    key: round(statistics.median(r[key] for r in results), 6)
                    for key in results[0]
                }
            if args.baseline:
                ratios = {
                    key: [p[key] / t[key] for p, t in zip(runs["parent"], runs["this_tree"])]
                    for key in row["this_tree"]
                }
                row["speedup"] = {
                    key: round(statistics.median(r), 2) for key, r in ratios.items()
                }
                row["speedup_range"] = {
                    key: [round(min(r), 2), round(max(r), 2)] for key, r in ratios.items()
                }
            rows.append(row)
            print(json.dumps(row), flush=True)
    result = {
        "command": "python3 scripts/setup_sweep.py"
        + (" --baseline PARENT/src" if args.baseline else ""),
        "environment": environment(),
        "seed": SEED,
        "mode": "known",
        "rounds": ROUNDS,
        "loads_per_round": LOADS,
        "statistic": "median over rounds of each child's median CPU time "
        "(time.process_time) per call, s; speedup is the median of the "
        "per-round ratios parent / this tree, speedup_range their least and largest",
        "trees": {name: {"src_sha256": tree_sha256(src)} for name, src in trees.items()},
        "rows": rows,
    }
    write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
