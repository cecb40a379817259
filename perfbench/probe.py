"""Host-speed probe: a fixed piece of work that uses none of the program.

    python3 perfbench/probe.py

It starts an interpreter, imports numpy and scipy.linalg as the CLI does,
then runs a fixed, deterministic mix of work shaped like the simulation:
a small-array RK4 loop with a pairwise-distance check (interpreter and
numpy call overhead), products with a dense 372-wide operator, 124×124
SVDs, small matrix exponentials, and CSV text of floats.  It prints the CPU
seconds of that work.  ``run.py`` runs it as a child between CLI
invocations: the child's rusage CPU time is the total, and the total minus
the printed work time is the start-and-import cost.  Both change only with
the host, so they measure how fast the host is right now.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg


def work():
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((36, 36)) * 0.05
    x = np.ones(36)
    acc = 0.0
    for i in range(6000):
        k1 = a @ x
        k2 = a @ (x + 5e-4 * k1)
        k3 = a @ (x + 5e-4 * k2)
        k4 = a @ (x + 1e-3 * k3)
        x = x + (1e-3 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        p = x[:8].reshape(4, 2)
        diff = p[:, None, :] - p[None, :, :]
        acc += float(np.min(np.einsum("ijk,ijk->ij", diff, diff) + np.eye(4)))
    b = rng.standard_normal((372, 372)) / 372
    y = rng.standard_normal(372)
    for _ in range(600):
        y = b @ y
        y /= np.linalg.norm(y)
    c = rng.standard_normal((124, 124))
    for _ in range(30):
        acc += float(np.linalg.svd(c, compute_uv=False)[0])
    s = rng.standard_normal((6, 6)) * 0.1
    for k in range(200):
        acc += float(scipy.linalg.expm(s * (k * 1e-2))[0, 0])
    rows = [",".join(repr(float(v)) for v in x[:12] * (i + 1)) for i in range(6000)]
    return acc + len("\n".join(rows))


if __name__ == "__main__":
    start = time.process_time()
    work()
    print(f"{time.process_time() - start:.9f}")
