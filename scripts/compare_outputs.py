"""Byte identity and largest differences of the outputs of `run --oracles`
between two source trees.

Each case runs ``python -m bearing_forge.cli run SCENARIO --oracles --out
DIR`` once from each tree (its ``src`` on PYTHONPATH, one BLAS thread, as
the benchmark runs it) and compares the files the two runs wrote
(``trajectory.csv``, ``metrics.json``, ``oracles.json``).  The cases are

* the benchmark's three inputs at the benchmark's horizons: the bundled
  squares cut to 10 s (known) and 5 s (adaptive) with ``--t-final``, and the
  seed-7 ``swarm_adaptive`` formation of ``perfbench/swarm.py`` (used as it
  is) at its own 0.5 s, in its own adaptive mode and, with ``--mode``, in
  known and in feedback_only mode;
* two inputs whose followers have different orders, in known and in
  adaptive mode: the committed 3-D cube ``tests/data/cube_mixed.json`` (one
  follower of order 11 among five of order 3, so the groups' order is not
  the followers') at its own 5 s, and the bundled adaptive square with
  follower 3 rejecting a constant only (order 1) and follower 4 five
  sinusoids (order 11), built here, at 5 s;
* the two bundled squares at their shipped horizons, 50 s and 200 s.

For each file the result says whether the two are byte-identical and gives
the largest absolute, relative and scaled difference over the file, and per
column (CSV) or per number (JSON, by its dotted key) the same three values
and the row where the absolute one occurs, for the columns that differ
at all; a column that is not listed is equal in every row.  Of a value a
of this tree and b of the baseline, the relative difference is
|a - b| / max(|a|, |b|) and the scaled one |a - b| / (1 + |b|): the
relative one reads rounding on a cell near zero as large, the scaled one
does not.  The exit code and stderr of every run are kept, so a run that
fails on one tree shows.

    python3 scripts/compare_outputs.py --baseline PARENT/src
        [--horizons benchmark|shipped|all] [--out BENCH_compare_outputs.json]

``--baseline`` is the ``src`` of the other tree, usually a checkout of the
parent commit; against this tree's own ``src`` every file must come out
byte-identical.  Run from anywhere; all cases take about 7 s on a 2-core
host, most of it the 200 s adaptive square and the cube.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# before anything loads NumPy: importing setup_sweep pins BLAS to one thread
from setup_sweep import ROOT, SEED, environment, tree_sha256, write_json

import numpy as np  # noqa: E402

DATA = ROOT / "src" / "bearing_forge" / "data"
FILES = ("trajectory.csv", "metrics.json", "oracles.json")
# (name, horizons group, scenario, --t-final and --mode, None for the file's own)
CASES = (
    ("square_known", "benchmark", "square_known", 10.0, None),
    ("square_adaptive", "benchmark", "square_adaptive", 5.0, None),
    ("swarm_adaptive", "benchmark", "swarm", None, None),
    ("swarm_known", "benchmark", "swarm", None, "known"),
    ("swarm_feedback_only", "benchmark", "swarm", None, "feedback_only"),
    ("cube_mixed_known", "benchmark", "cube", None, "known"),
    ("cube_mixed_adaptive", "benchmark", "cube", None, None),
    ("square_1_11_known", "benchmark", "square_1_11", 5.0, "known"),
    ("square_1_11_adaptive", "benchmark", "square_1_11", 5.0, None),
    ("square_known_50s", "shipped", "square_known", None, None),
    ("square_adaptive_200s", "shipped", "square_adaptive", None, None),
)


def run(src, scenario, t_final, mode, out):
    """Exit code and stderr of one `run --oracles` from the tree src."""
    argv = [sys.executable, "-m", "bearing_forge.cli", "run", str(scenario),
            "--oracles", "--out", str(out)]
    if t_final is not None:
        argv += ["--t-final", repr(t_final)]
    if mode is not None:
        argv += ["--mode", mode]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stderr.strip()


def differences(a, b):
    """Largest |a - b|, its row, and largest relative and scaled difference
    of two float columns, b the baseline's; NaNs in the same places count as
    equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(a - b)
        diff[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
        diff[np.isnan(diff)] = np.inf
        # fmax: a NaN against a number is scaled by the number, so it reads inf
        scale = np.fmax(np.abs(a), np.abs(b))
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=diff > 0)
        scaled = np.divide(diff, 1.0 + np.abs(b), out=diff.copy(), where=np.isfinite(b))
    row = int(diff.argmax())
    return float(diff[row]), row, float(rel.max()), float(scaled.max())


def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    values = [[float(x) if x else np.nan for x in r] for r in rows]
    return header, np.array(values).reshape(-1, len(header))


def leaves(tree, where=""):
    """The numbers of a JSON tree by dotted key; other values as they are."""
    for key, value in tree.items():
        name = f"{where}.{key}" if where else key
        if isinstance(value, dict):
            yield from leaves(value, name)
        else:
            yield name, value


def compare_file(name, a, b):
    """The comparison of one output file of the two runs."""
    if not (a.exists() and b.exists()):
        missing = [p.parent.name for p in (a, b) if not p.exists()]
        return {"identical": False, "missing": missing}
    if a.read_bytes() == b.read_bytes():
        return {"identical": True, "max_abs": 0.0, "max_rel": 0.0, "max_scaled": 0.0,
                "columns": {}}
    result = {"identical": False, "max_abs": 0.0, "max_rel": 0.0, "max_scaled": 0.0}
    if name.endswith(".csv"):
        (head_a, va), (head_b, vb) = read_csv(a), read_csv(b)
        if head_a != head_b or va.shape != vb.shape:
            return {"identical": False, "shape": [list(va.shape), list(vb.shape)]}
        columns = {h: (va[:, k], vb[:, k]) for k, h in enumerate(head_a)}
    else:
        ta, tb = dict(leaves(json.loads(a.read_text()))), dict(leaves(json.loads(b.read_text())))
        if ta.keys() != tb.keys():
            return {"identical": False, "keys": sorted(ta.keys() ^ tb.keys())}
        columns = {}
        for key in ta:
            if isinstance(ta[key], (int, float)) and not isinstance(ta[key], bool):
                columns[key] = ([ta[key]], [tb[key]])
            elif ta[key] != tb[key]:
                result.setdefault("unequal", {})[key] = [ta[key], tb[key]]
    differ = {}
    for key, (ca, cb) in columns.items():
        max_abs, row, max_rel, max_scaled = differences(ca, cb)
        if max_abs:
            differ[key] = {"max_abs": max_abs, "max_rel": max_rel, "max_scaled": max_scaled,
                           "row": row}
            result["max_abs"] = max(result["max_abs"], max_abs)
            result["max_rel"] = max(result["max_rel"], max_rel)
            result["max_scaled"] = max(result["max_scaled"], max_scaled)
    result["columns"] = differ
    return result


def swarm_scenario(path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import swarm

    path.write_text(swarm.scenario_json(SEED))
    return path


def square_1_11_scenario(path):
    """The bundled adaptive square with follower 3 rejecting a constant
    only (order 1) and follower 4 a constant and five sinusoids (order 11)."""
    data = json.loads((DATA / "square_adaptive.json").read_text())
    data["disturbances"]["3"].pop("sinusoids")
    data["disturbances"]["4"]["sinusoids"] = [
        {"frequency": float(w), "amplitudes": [1e-3, 8e-4], "phases": [0.3 * w, -0.5]}
        for w in range(1, 6)
    ]
    path.write_text(json.dumps(data))
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, help="src directory of the other tree")
    parser.add_argument("--horizons", choices=("benchmark", "shipped", "all"), default="all")
    parser.add_argument("--out", default=str(ROOT / "BENCH_compare_outputs.json"))
    args = parser.parse_args(argv)
    trees = {"this_tree": ROOT / "src", "baseline": Path(args.baseline).resolve()}

    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for case, group, scenario, t_final, mode in CASES:
            if args.horizons not in (group, "all"):
                continue
            path = (swarm_scenario(tmp / "swarm_adaptive.json") if scenario == "swarm"
                    else square_1_11_scenario(tmp / "square_1_11.json")
                    if scenario == "square_1_11"
                    else ROOT / "tests" / "data" / "cube_mixed.json" if scenario == "cube"
                    else DATA / f"{scenario}.json")
            runs = {name: run(src, path, t_final, mode, tmp / case / name)
                    for name, src in trees.items()}
            files = {
                f: compare_file(f, tmp / case / "this_tree" / f, tmp / case / "baseline" / f)
                for f in FILES
            }
            row = {
                "case": case,
                "horizons": group,
                "t_final": t_final or json.loads(path.read_text())["integration"]["t_final"],
                "mode": mode or json.loads(path.read_text())["controller"]["mode"],
                "runs": {name: {"exit": code, "stderr": err}
                         for name, (code, err) in runs.items()},
                "identical": all(f["identical"] for f in files.values()),
                "files": files,
            }
            cases.append(row)
            print(json.dumps({"case": case, "identical": row["identical"]}), flush=True)
    result = {
        "command": "python3 scripts/compare_outputs.py --baseline PARENT/src"
        + (f" --horizons {args.horizons}" if args.horizons != "all" else ""),
        "environment": environment(),
        "seed": SEED,
        "trees": {name: {"src_sha256": tree_sha256(src)} for name, src in trees.items()},
        "all_identical": all(c["identical"] for c in cases),
        "cases": cases,
    }
    write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
