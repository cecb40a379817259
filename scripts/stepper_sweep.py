"""Time per step of the operator stepper against the staged stepper, over
formation size, in known and adaptive mode, as `integrate` runs them: one
chunk advance of CHECK_CHUNK states at a time.

Each formation comes from the seeded generator of the ``swarm_adaptive``
benchmark workload (``perfbench/swarm.py``, used as it is, with its agent
count set per size, at the seed of ``scripts/setup_sweep.py``), compiled
once per mode.  For each one the script times the chunk advances of
``Engine.operator_step`` (doubling in known mode, one step at a time in
adaptive mode) and of ``Engine.rk4`` from the same initial state, and
records the operator step's multiply-add count, ``Engine.operator_macs``,
and its build time: ``Engine.operator_step()`` and the first chunk, which
squares the powers in known mode, less one median chunk.  Each stepper's
time per step is kept as the quartiles of its timed stretches; a row is
decided only when the two interquartile ranges do not overlap, and the
crossover is bracketed from the decided rows alone, with the undecided ones
listed beside it.  ``sim_engine.OPERATOR_MAX_MACS``, the count below which
``integrate`` takes the operator step, is set from the crossover this
sweep finds.

    python3 scripts/stepper_sweep.py [--out BENCH_stepper_crossover.json]

Run from anywhere; it runs with one BLAS thread, as the benchmark does, and
takes well under a minute on a 2-core host.
"""

import argparse
import json
import statistics
import sys
import time

# before anything loads NumPy: importing setup_sweep pins BLAS to one thread
from setup_sweep import ROOT, SEED, environment, formation, write_json

import numpy as np  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))

from bearing_forge.scenario import compile_scenario  # noqa: E402
from bearing_forge.sim_engine import CHECK_CHUNK, OPERATOR_MAX_MACS, Engine  # noqa: E402

# agent counts per mode; state dim is 19 n - 34 (adaptive) and 16 n - 28
# (known) with the generator's one sinusoid and constant per follower.
# 41 agents is the largest known formation below OPERATOR_MAX_MACS.
SIZES = {
    "adaptive": (4, 6, 8, 10, 12, 14, 16, 20, 24),
    "known": (8, 16, 24, 32, 41, 48, 56, 64, 72, 80),
}
CHUNKS = 3                       # chunk advances per timed stretch
REPEATS = 7                      # timed stretches per stepper, summarised by quartiles


def us_per_step(advances, y0):
    """Quartiles [q1, median, q3] over REPEATS stretches of CHUNKS chunk
    advances from y0, in µs per step, for each advance; the advances take
    turns, so that a change of host speed during the sweep reaches all of
    them alike."""
    out = np.empty((CHECK_CHUNK, len(y0)))
    times = [[] for _ in advances]
    for _ in range(REPEATS):
        for advance, spent in zip(advances, times):
            y = y0
            start = time.perf_counter()
            for _ in range(CHUNKS):
                y = advance(y, out)
            spent.append((time.perf_counter() - start) / (CHUNKS * CHECK_CHUNK))
    return [
        [round(q * 1e6, 1) for q in statistics.quantiles(t, n=4, method="inclusive")]
        for t in times
    ]


def measure(n_agents, mode):
    eng = Engine(compile_scenario(formation(n_agents, mode)))
    y0 = eng.initial_state()
    start = time.perf_counter()
    operator = eng.operator_step()
    operator(y0, np.empty((CHECK_CHUNK, eng.dim)))
    first_s = time.perf_counter() - start
    operator_q, staged_q = us_per_step([operator, eng.rk4()], y0)
    # decided when the interquartile ranges do not overlap
    if operator_q[2] < staged_q[0]:
        faster = True
    elif staged_q[2] < operator_q[0]:
        faster = False
    else:
        faster = None
    return {
        "mode": mode,
        "n_agents": n_agents,
        "dim": eng.dim,
        "n_prod": eng.n_prod,
        "operator_macs": eng.operator_macs,
        "operator_build_s": round(first_s - operator_q[1] * CHECK_CHUNK * 1e-6, 4),
        "operator_us_per_step": operator_q[1],
        "staged_us_per_step": staged_q[1],
        "operator_us_quartiles": [operator_q[0], operator_q[2]],
        "staged_us_quartiles": [staged_q[0], staged_q[2]],
        "operator_faster": faster,
    }


def crossover(rows):
    """From the decided rows, the largest multiply-add count at which the
    operator step was faster and the smallest at which the staged step was;
    and the counts of the undecided rows."""
    won = [r["operator_macs"] for r in rows if r["operator_faster"] is True]
    lost = [r["operator_macs"] for r in rows if r["operator_faster"] is False]
    return {
        "largest_macs_operator_faster": max(won, default=None),
        "smallest_macs_staged_faster": min(lost, default=None),
        "undecided_macs": [
            r["operator_macs"] for r in rows if r["operator_faster"] is None
        ],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_stepper_crossover.json"))
    args = parser.parse_args(argv)

    rows = []
    for mode, sizes in SIZES.items():
        for n_agents in sizes:
            row = measure(n_agents, mode)
            rows.append(row)
            print(json.dumps(row), flush=True)
    result = {
        "command": "python3 scripts/stepper_sweep.py",
        "environment": environment(),
        "seed": SEED,
        "steps_per_stretch": CHUNKS * CHECK_CHUNK,
        "stretches": REPEATS,
        "operator_max_macs": OPERATOR_MAX_MACS,
        "crossover": {
            mode: crossover([r for r in rows if r["mode"] == mode]) for mode in SIZES
        },
        "largest_known_below_bound": max(
            (r for r in rows
             if r["mode"] == "known" and r["operator_macs"] < OPERATOR_MAX_MACS),
            key=lambda r: r["dim"],
        ),
        "rows": rows,
    }
    write_json(args.out, result)
    print(json.dumps(result["crossover"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
