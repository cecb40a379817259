"""Record the reference trajectories that ``run.py`` checks outputs against.

    python3 perfbench/record_reference.py

Runs ``run --oracles`` once for each bundled workload, with the same
arguments as the benchmark, and stores its trajectory.csv as
``perfbench/reference/<workload>.csv``.  The committed references were
recorded from the program before any optimisation; re-record them only when
a change of results is intended and stated.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

from run import DATA, REFERENCE, ROOT, WORK, WORKLOADS, child_env


def main():
    REFERENCE.mkdir(exist_ok=True)
    out = WORK / "reference"
    for name, spec in WORKLOADS.items():
        if not spec["bundled"]:
            continue
        shutil.rmtree(out, ignore_errors=True)
        subprocess.run(
            [sys.executable, "-m", "bearing_forge.cli", "run", str(DATA / spec["bundled"]),
             "--oracles", "--out", str(out), "--t-final", repr(spec["t_final"])],
            cwd=ROOT, env=child_env(), check=True,
        )
        shutil.copyfile(out / "trajectory.csv", REFERENCE / f"{name}.csv")
    shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    main()
