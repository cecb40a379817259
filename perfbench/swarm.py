"""Seeded generator of the ``swarm_adaptive`` scenario.

A complete sensing graph on 64 agents in the plane with leaders {1, 2}.
Every follower carries a constant disturbance plus one sinusoid of its own
random frequency and starts slightly off its target.  The controller runs
in adaptive mode.

Positions are redrawn until two conditions hold, both checked with the
generator's own bearing Laplacian (numpy only, independent of the package):

* every pair of agents is at least ``MIN_SEPARATION`` apart;
* ``KAPPA_V * lambda_min(B_ff) >= GATE_MARGIN``, twice the program's
  adaptive gain threshold of 1, so that the program's gain gate passes with
  room to spare.  On random complete graphs lambda_min(B_ff) varies by more
  than an order of magnitude between draws, so a fixed kappa_v alone would
  fail the gate on some seeds.

The same seed gives a byte-identical file.  Usage:

    python3 perfbench/swarm.py SEED OUT.json
"""

from __future__ import annotations

import json
import sys

import numpy as np

N_AGENTS = 64
DIM = 2
N_LEADERS = 2
BOX = 10.0                  # positions are drawn uniformly from [-BOX, BOX]^2
MIN_SEPARATION = 0.3
KAPPA_P = 1.0
KAPPA_V = 10.0
GATE_MARGIN = 2.0
ADAPTATION_RATE = 20.0
LEADER_VELOCITY = (0.5, 0.25)
STEP = 1e-3
T_FINAL = 0.5
RECORD_EVERY = 10
MAX_DRAWS = 10_000


def bearing_laplacian(pos):
    """Bearing Laplacian of the complete graph on the rows of ``pos``."""
    n, d = pos.shape
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    np.fill_diagonal(dist, 1.0)
    g = diff / dist[..., None]
    P = np.eye(d) - g[..., :, None] * g[..., None, :]
    P[np.arange(n), np.arange(n)] = 0.0
    B = -P.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    for i, block in enumerate(P.sum(axis=1)):
        B[i * d : (i + 1) * d, i * d : (i + 1) * d] = block
    return B


def min_separation(pos):
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def lambda_min_ff(pos, n_l=N_LEADERS):
    k = n_l * pos.shape[1]
    return float(np.linalg.eigvalsh(bearing_laplacian(pos)[k:, k:])[0])


def draw_positions(rng):
    for _ in range(MAX_DRAWS):
        pos = np.round(rng.uniform(-BOX, BOX, size=(N_AGENTS, DIM)), 6)
        if min_separation(pos) < MIN_SEPARATION:
            continue
        if KAPPA_V * lambda_min_ff(pos) >= GATE_MARGIN:
            return pos
    raise RuntimeError(f"no admissible formation in {MAX_DRAWS} draws")


def _vec(x):
    return [round(float(v), 6) for v in x]


def make_scenario(seed):
    """Scenario dict for ``seed``; the CLI reads it like any user file."""
    rng = np.random.default_rng(seed)
    pos = draw_positions(rng)
    followers = range(N_LEADERS + 1, N_AGENTS + 1)
    v_c = np.array(LEADER_VELOCITY)
    initial_positions, initial_velocities, disturbances = {}, {}, {}
    for i in followers:
        initial_positions[str(i)] = _vec(pos[i - 1] + rng.uniform(-0.02, 0.02, DIM))
        initial_velocities[str(i)] = _vec(v_c + rng.uniform(-0.02, 0.02, DIM))
        disturbances[str(i)] = {
            "constant": _vec(rng.uniform(-0.05, 0.05, DIM)),
            "sinusoids": [
                {
                    "frequency": round(float(rng.uniform(0.5, 3.0)), 6),
                    "amplitudes": _vec(rng.uniform(0.01, 0.05, DIM)),
                    "phases": _vec(rng.uniform(0.0, 2.0 * np.pi, DIM)),
                }
            ],
        }
    return {
        "graph": {
            "n_agents": N_AGENTS,
            "dimension": DIM,
            "leaders": list(range(1, N_LEADERS + 1)),
            "edges": [
                [i, j]
                for i in range(1, N_AGENTS + 1)
                for j in range(i + 1, N_AGENTS + 1)
            ],
        },
        "geometry": {
            "desired_positions": {str(i + 1): _vec(p) for i, p in enumerate(pos)},
            "initial_positions": initial_positions,
            "initial_velocities": initial_velocities,
            "leader_velocity": _vec(v_c),
        },
        "disturbances": disturbances,
        "controller": {
            "mode": "adaptive",
            "kappa_p": KAPPA_P,
            "kappa_v": KAPPA_V,
            "adaptation_rate": ADAPTATION_RATE,
        },
        "integration": {
            "step": STEP,
            "t_final": T_FINAL,
            "record_every": RECORD_EVERY,
            "collision_threshold": 1e-3,
        },
        "outputs": {"directory": "out/swarm_adaptive", "oracles": True},
    }


def scenario_json(seed):
    return json.dumps(make_scenario(seed), separators=(",", ":")) + "\n"


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: swarm.py SEED OUT.json")
    with open(sys.argv[2], "w") as fh:
        fh.write(scenario_json(int(sys.argv[1])))
