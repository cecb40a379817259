"""Batch command-line front end.

Subcommands:
    run       integrate a scenario and write trajectory CSV + metrics JSON
    validate  run all load-time checks and report
    spectrum  print the closed-loop eigenvalues and spectral abscissa
    localize  print the localized follower target positions

Exit codes: 0 success, 3 collision, 4 non-finite divergence, 5 I/O error,
2 any other named failure (parse, validation, a Lyapunov certificate).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import BearingForgeError, CollisionDetected, NonFiniteState
from .scenario import MODES, OVERRIDES, load_scenario
from .sim_engine import (
    build_certificate,
    closed_loop_spectrum,
    integrate,
    lyapunov_monitor,
    metrics,
    xi_oracle,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COLLISION = 3
EXIT_NONFINITE = 4
EXIT_IO = 5


def _fmt(x):
    return format(float(x), ".17g")


def write_trajectory_csv(path, traj, sc, mts, V=None):
    """Trajectory CSV: t, per-agent p/v, per-follower and global error norms,
    min pairwise distance, V (blank outside adaptive monitoring).

    Each number is written as format(x, ".17g"); a row is one %-format of
    its values, with the CRLF line ends of the csv module's default dialect.
    """
    n, d, n_l = sc.n, sc.d, sc.n_l
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"p_{i}_{a}" for a in range(d)]
    for i in range(1, n + 1):
        header += [f"v_{i}_{a}" for a in range(d)]
    for i in range(n_l + 1, n + 1):
        header.append(f"err_p_norm_{i}")
    header += ["err_p_norm", "err_v_norm", "min_dist", "V"]

    S = len(traj.times)
    columns = [
        traj.times[:, None],
        traj.positions.reshape(S, -1),
        traj.velocities.reshape(S, -1),
        mts["err_p"],
        mts["err_p_norm"][:, None],
        mts["err_v_norm"][:, None],
        traj.min_dist[:, None],
    ]
    if V is not None:
        columns.append(np.asarray(V)[:, None])
    rows = np.hstack(columns).tolist()
    row = ",".join(["%.17g"] * len(rows[0])) + ("" if V is not None else ",") + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join([row % tuple(r) for r in rows]))


def oracle_report(sc, traj):
    """Proof-level diagnostics: closed-loop spectrum, xi deviation, and (in
    adaptive mode) the monotonicity verdict of the Lyapunov certificate,
    whose positivity checks passed at load.

    Returns (report, V): V is the monitor series of adaptive mode, None
    otherwise.
    """
    report = {
        "spectral_abscissa": float(closed_loop_spectrum(sc).real.max()),
        "xi_max_deviation": float(xi_oracle(traj, sc)),
    }
    V = None
    if sc.mode == "adaptive":
        cert = build_certificate(sc)
        V = lyapunov_monitor(traj, cert, sc)
        bad = ~np.isfinite(V)
        if bad.any():
            k = int(bad.argmax())
            raise NonFiniteState(
                f"oracles.lyapunov: V = {V[k]} is not finite at t={traj.times[k]:.6f}"
            )
        slack = 1e-8 * (1.0 + V[:-1])
        report["lyapunov"] = {
            "gamma": cert.gamma,
            "gamma_sigma": cert.gamma_sigma,
            "lambda_min_Qc": cert.lambda_min_Qc,
            "V_initial": float(V[0]),
            "V_terminal": float(V[-1]),
            "non_increasing": bool(np.all(np.diff(V) <= slack)),
        }
    return report, V


def _non_finite(tree, where):
    """(dotted name, value) of the first non-finite float of a JSON-ready
    dict, nested dicts included, or None."""
    for key, value in tree.items():
        name = f"{where}.{key}"
        if isinstance(value, dict):
            found = _non_finite(value, name)
            if found:
                return found
        elif isinstance(value, float) and not math.isfinite(value):
            return name, value
    return None


def cmd_run(args):
    sc = load_scenario(args.scenario, _overrides(args))
    traj = integrate(sc)
    mts = metrics(traj, sc)

    report, V = None, None
    if args.oracles or sc.oracles:
        report, V = oracle_report(sc, traj)

    summary = {
        "mode": sc.mode,
        "t_final": sc.t_final,
        "step": sc.h,
        "terminal_err_p": mts["terminal_err_p"],
        "terminal_err_v": mts["terminal_err_v"],
        "decay_rate": mts["decay_rate"],
        "min_distance": mts["min_distance"],
    }
    for tree, where in ((summary, "metrics"), (report or {}, "oracles")):
        bad = _non_finite(tree, where)
        if bad:
            raise NonFiniteState(f"{bad[0]} = {bad[1]} is not finite")

    out_dir = sc.output_dir
    os.makedirs(out_dir, exist_ok=True)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj, sc, mts, V)
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    if report is not None:
        with open(os.path.join(out_dir, "oracles.json"), "w") as fh:
            json.dump(report, fh, indent=2)

    print(
        f"run ok: terminal err_p={mts['terminal_err_p']:.3e} "
        f"err_v={mts['terminal_err_v']:.3e} min_dist={mts['min_distance']:.3e}"
    )
    return EXIT_OK


def cmd_validate(args):
    sc = load_scenario(args.scenario, _overrides(args))
    print(
        f"valid: n={sc.n} d={sc.d} n_l={sc.n_l} mode={sc.mode} "
        f"lambda_min(B_ff)={sc.laplacian.ff_eigenvalues[0]:.6g}"
    )
    return EXIT_OK


def cmd_spectrum(args):
    sc = load_scenario(args.scenario, _overrides(args))
    eig = closed_loop_spectrum(sc)
    for lam in eig:
        print(f"{lam.real:+.12e} {lam.imag:+.12e}j")
    print(f"spectral abscissa: {float(eig.real.max()):.12e}")
    return EXIT_OK


def cmd_localize(args):
    sc = load_scenario(args.scenario, _overrides(args))
    for idx, i in enumerate(range(sc.n_l + 1, sc.n + 1)):
        coords = " ".join(_fmt(x) for x in sc.p_star0[sc.n_l + idx])
        print(f"agent {i}: {coords}")
    return EXIT_OK


def _overrides(args):
    return {key: getattr(args, key) for key in OVERRIDES}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bearing-forge",
        description="Bearing-based formation control with disturbance rejection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("run", cmd_run),
        ("validate", cmd_validate),
        ("spectrum", cmd_spectrum),
        ("localize", cmd_localize),
    ):
        p = sub.add_parser(name)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--kappa-p", dest="kappa_p", type=float)
        p.add_argument("--kappa-v", dest="kappa_v", type=float)
        p.add_argument("--t-final", dest="t_final", type=float)
        p.add_argument("--h", dest="h", type=float)
        p.add_argument("--mode", choices=MODES)
        p.add_argument("--out", dest="output_dir", help="output directory override")
        if name == "run":
            p.add_argument("--oracles", action="store_true")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CollisionDetected as exc:
        print(f"collision: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    except NonFiniteState as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except BearingForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
