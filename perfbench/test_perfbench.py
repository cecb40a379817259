"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import swarm
from run import (
    DATA,
    DERIVED_UNITS,
    END_TO_END,
    HERE,
    Runner,
    REFERENCE,
    ROOT,
    SPAN_METRICS,
    SRC,
    WORKLOADS,
    TRAJ_TOL,
    child_env,
    compare_trajectory,
    workload_params,
)
from tracer import Tracer, layer_totals

sys.path.insert(0, str(SRC))


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    layer_units = {name: unit for name, (_, _, unit) in SPAN_METRICS.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units | DERIVED_UNITS


def test_generator_is_deterministic():
    assert swarm.scenario_json(7) == swarm.scenario_json(7)
    assert swarm.scenario_json(7) != swarm.scenario_json(8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_gate_margin(seed):
    data = swarm.make_scenario(seed)
    desired = data["geometry"]["desired_positions"]
    pos = np.array([desired[str(i)] for i in range(1, swarm.N_AGENTS + 1)])
    assert swarm.min_separation(pos) >= swarm.MIN_SEPARATION
    kappa_v = data["controller"]["kappa_v"]
    assert kappa_v * swarm.lambda_min_ff(pos) >= swarm.GATE_MARGIN
    for i in range(swarm.N_LEADERS + 1, swarm.N_AGENTS + 1):
        freqs = [s["frequency"] for s in data["disturbances"][str(i)]["sinusoids"]]
        assert len(set(freqs)) == len(freqs) and min(freqs) > 0


def test_generator_laplacian_matches_package():
    from bearing_forge.formation_graph import (
        BearingSet,
        SensingGraph,
        build_bearing_laplacian,
    )

    pos = np.random.default_rng(3).uniform(-1, 1, size=(6, 2))
    edges = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    graph = SensingGraph(n=6, d=2, n_l=2, edges=edges)
    B = build_bearing_laplacian(graph, BearingSet.from_positions(graph, pos)).B
    assert np.allclose(swarm.bearing_laplacian(pos), B, atol=1e-12)


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["b", 6.5, 7.0, 0],
    ]
    totals = layer_totals(spans)
    assert totals["root"] == {"calls": 1, "total": 10.0, "self": 10.0 - 3.0 - 1.5}
    assert totals["a"] == {"calls": 1, "total": 3.0, "self": 2.0}
    assert totals["leaf"] == {"calls": 1, "total": 1.0, "self": 1.0}
    assert totals["b"] == {"calls": 2, "total": 1.5, "self": 1.5}


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["c", 1.0, 4.0, 0], ["c", 3.0, 12.0, 0]]
    assert layer_totals(spans)["p"]["self"] == pytest.approx(1.0)


def test_tracer_lists_targets_the_program_lacks():
    tracer = Tracer()
    tracer.install([
        ("bearing_forge.cli", "no_such_function", "cli.none"),
        ("bearing_forge.no_such_module.Cls", "f", "none.f"),
    ])
    assert tracer.missing == [
        "bearing_forge.cli.no_such_function",
        "bearing_forge.no_such_module.Cls.f",
    ]


def _traced_short_run(tmp_path, scenario, t_final):
    spans = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(spans), "run", str(scenario),
         "--oracles", "--out", str(tmp_path / "out"), "--t-final", repr(t_final)],
        cwd=ROOT, env=child_env(), check=True, capture_output=True,
    )
    return layer_totals(json.loads(spans.read_text())["spans"])


@pytest.mark.parametrize(
    "name, certificates", [("square_known", 0), ("square_adaptive", 2)]
)
def test_traced_counts_match_the_code(tmp_path, name, certificates):
    scenario = DATA / f"{name}.json"
    totals = _traced_short_run(tmp_path, scenario, 0.5)
    steps = workload_params(json.loads(scenario.read_text()), 0.5)["steps"]
    assert steps == 500
    assert totals["sim_engine.Engine.rhs"]["calls"] == 4 * steps
    for span in ("sim_engine.build_certificate", "sim_engine.lyapunov_monitor"):
        assert totals.get(span, {"calls": 0})["calls"] == certificates


def test_trajectory_check_flags_a_changed_cell(tmp_path):
    ref = REFERENCE / "square_known.csv"
    assert compare_trajectory(ref, ref) == []
    lines = ref.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 100 * TRAJ_TOL))
    lines[5] = ",".join(cells)
    changed = tmp_path / "trajectory.csv"
    changed.write_text("\n".join(lines) + "\n")
    assert compare_trajectory(changed, ref)
    shutil.copyfile(ref, changed)
    assert compare_trajectory(changed, ref) == []


def test_probe_splits_start_from_total(tmp_path):
    start, total = Runner(tmp_path).probe()
    assert 0 < start < total
