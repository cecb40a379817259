import contextlib
import copy
import csv
import dataclasses
import functools
import gc
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bearing_forge
from bearing_forge import bundled_scenario, cli, errors
from bearing_forge.errors import ParseError, ValidationError
from bearing_forge.scenario import (
    MAX_SAMPLE_BYTES,
    MAX_STEPS,
    closed_loop_spectrum,
    compile_scenario,
    load_scenario,
)
from bearing_forge.sim_engine import (
    Engine,
    integrate,
    metrics,
    xi_oracle,
)

from conftest import assemble_A_sigma, base_scenario_dict, per_follower, replace
from test_engine_equivalence import complete_formation_data


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestBundledScenarios:
    def test_unknown_name_rejected(self):
        with pytest.raises(
            FileNotFoundError, match="^no bundled scenario named 'no_such.json'$"
        ):
            bundled_scenario("no_such")

    def test_square_known_loads(self):
        sc = load_scenario(bundled_scenario("square_known"))
        assert (sc.n, sc.d, sc.n_l, sc.mode) == (4, 2, 2, "known")
        np.testing.assert_allclose(
            sc.p_star0, [[0, 0], [1, 0], [1, 1], [0, 1]], atol=1e-10
        )

    def test_square_adaptive_loads(self):
        sc = load_scenario(bundled_scenario("square_adaptive"))
        assert sc.mode == "adaptive"
        assert sc.kappa_v * np.linalg.eigvalsh(sc.laplacian.B_ff)[0] > 1


class TestValidation:
    def test_duplicate_frequency(self):
        data = base_scenario_dict()
        data["disturbances"] = {
            "3": {
                "sinusoids": [
                    {"frequency": 2.0, "amplitudes": [1, 0], "phases": [0, 0]},
                    {"frequency": 2.0, "amplitudes": [0, 1], "phases": [0, 0]},
                ]
            }
        }
        with pytest.raises(ValidationError, match="DuplicateFrequency"):
            compile_scenario(data)

    def test_collinear_not_localizable(self):
        data = base_scenario_dict()
        data["geometry"]["desired_positions"] = {
            "1": [0, 0], "2": [1, 0], "3": [2, 0], "4": [3, 0]
        }
        with pytest.raises(ValidationError, match="NotLocalizable"):
            compile_scenario(data)

    def test_leader_must_start_at_target(self):
        data = base_scenario_dict()
        data["geometry"]["initial_positions"] = {"1": [0.5, 0.5]}
        with pytest.raises(ValidationError, match="leader"):
            compile_scenario(data)

    def test_bearing_position_disagreement(self):
        data = base_scenario_dict()
        bearings = []
        for (i, j) in data["graph"]["edges"]:
            p = np.array(data["geometry"]["desired_positions"][str(i)], dtype=float)
            q = np.array(data["geometry"]["desired_positions"][str(j)], dtype=float)
            g = (p - q) / np.linalg.norm(p - q)
            bearings.append({"edge": [i, j], "bearing": list(g)})
        bearings[0]["bearing"] = [0.0, 1.0]  # contradicts the positions
        data["geometry"]["desired_bearings"] = bearings
        with pytest.raises(ValidationError, match="disagrees"):
            compile_scenario(data)

    def _given_bearings(self, data):
        """desired_bearings agreeing with the base square's desired positions."""
        pos = data["geometry"]["desired_positions"]
        out = []
        for i, j in data["graph"]["edges"]:
            diff = np.subtract(pos[str(i)], pos[str(j)], dtype=float)
            out.append({"edge": [i, j], "bearing": list(diff / np.linalg.norm(diff))})
        return out

    def test_disagreement_names_first_edge(self):
        """The check runs over all edges at once and names the first edge,
        in the order (i, j), i < j, that disagrees."""
        data = base_scenario_dict()
        bearings = self._given_bearings(data)
        bearings[4]["bearing"] = [0.0, 1.0]          # edge [1, 3]
        bearings[5]["bearing"] = [0.0, 1.0]          # edge [2, 4]
        data["geometry"]["desired_bearings"] = bearings
        with pytest.raises(ValidationError) as exc:
            compile_scenario(data)
        assert str(exc.value) == (
            "geometry: desired bearing for edge (1,3) disagrees with the one "
            "derived from desired_positions"
        )

    def test_missing_bearing_names_edge(self):
        data = base_scenario_dict()
        data["geometry"]["desired_bearings"] = self._given_bearings(data)[:-1]
        del data["geometry"]["desired_positions"]["4"]
        with pytest.raises(ValidationError) as exc:
            compile_scenario(data)
        assert str(exc.value) == "geometry.desired_bearings: edge (2,4) has no bearing"

    def test_given_bearings_name_their_edge(self):
        data = base_scenario_dict()
        bearings = self._given_bearings(data)
        data["geometry"]["desired_bearings"] = bearings + [
            {"edge": [2, 1], "bearing": [0.0, 1.0]}
        ]
        with pytest.raises(ValidationError) as exc:
            compile_scenario(data)
        assert str(exc.value) == (
            "geometry.desired_bearings: ValueError: conflicting bearings for edge (2,1)"
        )
        bearings[3]["bearing"] = [0.0, 2.0]          # edge [4, 1]
        data["geometry"]["desired_bearings"] = bearings
        with pytest.raises(ValidationError) as exc:
            compile_scenario(data)
        assert str(exc.value) == (
            "geometry.desired_bearings: NonUnitInput: bearing for edge (4,1) "
            "has norm 2.000000000000"
        )

    def test_repeated_bearing_must_agree(self):
        """An edge given twice in the same orientation follows the rule of
        the two orientations: an agreeing repeat changes nothing, and a
        conflicting one is named rather than replacing the earlier entry
        (it used to move the localized agents 3 and 4 to (0.2, 0.2) and
        (0.2, 0.4))."""
        data = base_scenario_dict()
        bearings = self._given_bearings(data)
        data["geometry"]["desired_bearings"] = bearings
        for agent in ("3", "4"):
            del data["geometry"]["desired_positions"][agent]
        once = compile_scenario(copy.deepcopy(data)).p_star0
        data["geometry"]["desired_bearings"] = bearings + [bearings[1]]  # edge [2, 3]
        assert compile_scenario(copy.deepcopy(data)).p_star0.tobytes() == once.tobytes()
        data["geometry"]["desired_bearings"] = bearings + [
            {"edge": [2, 3], "bearing": [1, 0]}
        ]
        with pytest.raises(ValidationError) as exc:
            compile_scenario(data)
        assert str(exc.value) == (
            "geometry.desired_bearings: ValueError: conflicting bearings for edge (2,3)"
        )

    def test_leaders_must_be_prefix(self):
        data = base_scenario_dict()
        data["graph"]["leaders"] = [1, 3]
        with pytest.raises(ValidationError, match="leaders"):
            compile_scenario(data)

    def test_disturbance_on_leader_rejected(self):
        data = base_scenario_dict()
        data["disturbances"] = {"1": {"constant": [0.1, 0.0]}}
        with pytest.raises(ValidationError, match="not a follower"):
            compile_scenario(data)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "graph": [,]\n}')
        with pytest.raises(ParseError, match="line 2"):
            load_scenario(str(path))

    def test_unknown_mode(self):
        data = base_scenario_dict()
        data["controller"]["mode"] = "mystery"
        with pytest.raises(ValidationError, match="mode"):
            compile_scenario(data)

    def test_adaptive_gain_gate(self):
        data = base_scenario_dict()
        data["controller"]["mode"] = "adaptive"  # kappa_v = 1 < 1/0.2929
        with pytest.raises(ValidationError, match="gain"):
            compile_scenario(data)


class TestOverrides:
    def test_gain_override_revalidated(self, tmp_path):
        data = base_scenario_dict()
        data["controller"]["mode"] = "adaptive"
        data["controller"]["kappa_v"] = 4.0
        path = write_scenario(tmp_path, data)
        sc = load_scenario(path, {"kappa_v": 5.0})
        assert sc.kappa_v == 5.0
        with pytest.raises(ValidationError):
            load_scenario(path, {"kappa_v": 0.1})

    def test_mode_and_t_final_overrides(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario_dict())
        sc = load_scenario(path, {"mode": "feedback_only", "t_final": 7.5})
        assert sc.mode == "feedback_only"
        assert sc.t_final == 7.5

    def test_unknown_override_rejected(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario_dict())
        with pytest.raises(ValidationError, match="^unknown override 'step'$"):
            load_scenario(path, {"step": 0.01})


def test_explicit_eta_init_lands_in_the_state():
    """A per-follower eta_init vector is follower 3's compensator state at
    t = 0, its m rows of d entries in order; follower 4 keeps the default
    N kron v_f(0).  xi = eta + T vartheta - N v then still follows its
    exact flow."""
    with open(bundled_scenario("square_known")) as fh:
        data = json.load(fh)
    data["controller"]["eta_init"] = {"3": [1, 2, 3, 4, 5, 6]}
    data["integration"]["t_final"] = 10.0
    sc = compile_scenario(data)
    eng = Engine(sc)
    ((eta, _, _),) = eng.blocks(eng.initial_state())
    assert eta[0].tolist() == [[1, 2], [3, 4], [5, 6]]
    assert eta[1].tobytes() == np.kron(per_follower(sc)[1].N, sc.v_f0[1]).tobytes()
    assert xi_oracle(integrate(sc), sc) < 1e-6


class TestCli:
    def run_scenario_file(self, tmp_path, mutate=None, name="s.json"):
        data = base_scenario_dict()
        data["geometry"]["initial_positions"] = {"3": [1.01, 0.99]}
        data["integration"]["t_final"] = 1.0
        if mutate:
            mutate(data)
        return write_scenario(tmp_path, data, name)

    def test_run_exit_ok(self, tmp_path, capsys):
        path = self.run_scenario_file(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", path, "--out", out]) == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "metrics.json").exists()
        assert "run ok" in capsys.readouterr().out

    def test_validate_exit_ok(self, tmp_path, capsys):
        path = self.run_scenario_file(tmp_path)
        assert cli.main(["validate", path]) == 0
        assert "valid:" in capsys.readouterr().out

    def test_spectrum_reports_abscissa(self, tmp_path, capsys):
        path = self.run_scenario_file(tmp_path)
        assert cli.main(["spectrum", path]) == 0
        sc = load_scenario(path)
        abscissa = closed_loop_spectrum(sc).real.max()
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"spectral abscissa: {abscissa:.12e}"
        A = assemble_A_sigma(
            sc.laplacian.B_ff, per_follower(sc), sc.d, sc.kappa_p, sc.kappa_v
        )
        dense = np.linalg.eigvals(A).real.max()
        assert abs(abscissa - dense) <= 1e-12 * abs(dense)

    @pytest.mark.parametrize("kappa_v", ["1", "12"])
    def test_spectrum_lines(self, capsys, kappa_v):
        """spectrum prints the 2 n_f d + q_f closed-loop eigenvalues of the
        square (complex feedback roots at kappa_v 1, real ones at 12), one a
        line: those of the compensator as exact integers, and every real one
        with +0 as its imaginary part."""
        path = bundled_scenario("square_known")
        assert cli.main(["spectrum", path, "--kappa-v", kappa_v]) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert len(lines) == 2 * 4 + 12
        assert not any(line.endswith("-0.000000000000e+00j") for line in lines)
        for k in (1, 2, 3):
            assert lines.count(f"-{k}.000000000000e+00 +0.000000000000e+00j") == 4

    def test_localize_prints_followers(self, tmp_path, capsys):
        path = self.run_scenario_file(tmp_path)
        assert cli.main(["localize", path]) == 0
        out = capsys.readouterr().out
        assert "agent 3:" in out and "agent 4:" in out

    def test_validation_exit_code(self, tmp_path, capsys):
        def mutate(data):
            data["controller"]["kappa_p"] = -1.0

        path = self.run_scenario_file(tmp_path, mutate)
        assert cli.main(["validate", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert cli.main(["run", "/nonexistent/scenario.json"]) == 2

    def test_bad_gain_override_exit_code(self, tmp_path, capsys):
        def mutate(data):
            data["controller"]["mode"] = "adaptive"
            data["controller"]["kappa_v"] = 4.0

        path = self.run_scenario_file(tmp_path, mutate)
        assert cli.main(["run", path, "--kappa-v", "0.1"]) == 2

    def test_collision_exit_code(self, tmp_path, capsys):
        def mutate(data):
            data["geometry"]["initial_positions"] = {"3": [1.0, 0.05]}
            data["geometry"]["initial_velocities"] = {"3": [0.5, -2.0]}

        path = self.run_scenario_file(tmp_path, mutate)
        assert cli.main(["run", path, "--out", str(tmp_path / "c")]) == 3
        assert "collision" in capsys.readouterr().err

    def test_crossing_within_one_step_exit_code(self, tmp_path, capsys):
        """Follower 3 passes 2e-4 from leader 2 inside the first step while
        both states are 0.015 apart: a per-state check misses it."""

        def mutate(data):
            data["geometry"]["initial_positions"] = {"3": [0.985, 2e-4]}
            data["geometry"]["initial_velocities"] = {"3": [30.5, 0.0]}

        path = self.run_scenario_file(tmp_path, mutate)
        assert cli.main(["run", path, "--out", str(tmp_path / "c")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("collision: agents 2 and 3 at distance ")
        assert err.rstrip().endswith("between t=0.000000 and t=0.001000")

    def test_isolated_follower_exit_code(self, tmp_path, capsys):
        def mutate(data):
            # follower 4 loses all three of its edges
            data["graph"]["edges"] = [[1, 2], [2, 3], [1, 3]]

        path = self.run_scenario_file(tmp_path, mutate)
        assert cli.main(["validate", path]) == 2
        assert "localization: NotLocalizable" in capsys.readouterr().err

    def test_divergence_prints_one_line(self, tmp_path, monkeypatch):
        """Gains of 1e4 put h = 1e-3 far outside the RK4 stability region:
        the step gate rejects them at load with one line.  Set after the
        load-time checks, they diverge: exit 4 with the divergence message
        alone on stderr, and the overflow on the way to it raises no NumPy
        warnings."""
        proc = subprocess.run(
            [
                sys.executable, "-m", "bearing_forge.cli", "run",
                bundled_scenario("square_known"),
                "--kappa-p", "1e4", "--kappa-v", "1e4", "--t-final", "1",
                "--out", str(tmp_path / "div"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: integration: step 0.001 is outside the stability region of "
            "RK4 at the closed-loop eigenvalue lambda = -2.707e+04+0j, which "
            "allows steps below 0.0001029"
        ]
        sc = load_scenario(bundled_scenario("square_known"), {"t_final": 1.0})
        sc = replace(sc, kappa_p=1e4, kappa_v=1e4)
        monkeypatch.setattr(cli, "load_scenario", lambda *args: sc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _main_stderr(["run", "s.json", "--out", str(tmp_path / "div")])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert (code, err) == (
            4, ["divergence: non-finite state component at t=0.072000"]
        )

    def test_validate_names_coincident_pair(self, tmp_path):
        """On a 64-agent complete graph (2016 edges) in which agents 17 and
        40 coincide, validate exits 2 with one line naming that pair."""
        n = 64
        angle = 2 * np.pi * np.arange(n) / n
        pos = np.column_stack([np.cos(angle), np.sin(angle)]) * (1 + np.arange(n) / n)[:, None]
        pos[39] = pos[16]
        data = base_scenario_dict()
        data["graph"].update(
            n_agents=n,
            edges=[[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)],
        )
        data["geometry"]["desired_positions"] = {
            str(i + 1): p.tolist() for i, p in enumerate(pos)
        }
        code, err = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert code == 2
        assert err == [
            "error: geometry.desired_positions: DegenerateBearing: edge (17,40): "
            "points coincide within 1e-09 or are too far apart: "
            "||p_i - p_j|| = 0.000e+00"
        ]

    @pytest.mark.parametrize(
        "field",
        [
            ("geometry", "initial_positions"),
            ("geometry", "initial_velocities"),
            ("disturbances", "3", "constant"),
        ],
        ids=["position", "velocity", "disturbance"],
    )
    def test_huge_state_reports_finite_values(self, tmp_path, capsys, field):
        """An entry of 1e200 (finite, but its square is beyond float range)
        runs in known mode to finite metrics and oracles, with no NumPy
        warning, and they are 1e100 times those of an entry of 1e100: the
        known-mode loop is linear, and the rest of the scenario is far below
        rounding at both scales."""
        results = []
        for big in (1e100, 1e200):
            with open(bundled_scenario("square_known")) as fh:
                data = json.load(fh)
            node = data
            for key in field[:-1]:
                node = node[key]
            node[field[-1]] = {"3": [big, 0.0]} if field[0] == "geometry" else [big, 0.0]
            out = tmp_path / f"huge{big:g}"
            argv = ["run", write_scenario(tmp_path, data), "--oracles",
                    "--t-final", "1", "--out", str(out)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli.main(argv) == 0
            assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
            printed = capsys.readouterr()
            assert printed.err == ""
            assert printed.out.startswith("run ok") and "inf" not in printed.out
            with open(out / "metrics.json") as fh:
                summary = json.load(fh)
            with open(out / "oracles.json") as fh:
                report = json.load(fh)
            results.append((summary, report))
        (lo, lo_rep), (hi, hi_rep) = results
        for key in ("terminal_err_p", "terminal_err_v"):
            assert hi[key] == pytest.approx(1e100 * lo[key], rel=1e-9)
        # the xi deviation is rounding error, relative to the state's size
        assert lo_rep["xi_max_deviation"] <= 1e-6 * 1e100
        assert hi_rep["xi_max_deviation"] <= 1e-6 * 1e200

    def test_huge_state_adaptive_names_lyapunov(self, tmp_path):
        """In adaptive mode the Lyapunov value of the same 1e200 position is
        beyond float range: exit 4 with one line naming it."""
        with open(bundled_scenario("square_adaptive")) as fh:
            data = json.load(fh)
        data["geometry"]["initial_positions"] = {"3": [1e200, 0.0]}
        code, err = _main_stderr(
            ["run", write_scenario(tmp_path, data), "--oracles", "--t-final", "1",
             "--out", str(tmp_path / "huge")]
        )
        assert code == 4
        assert err == ["divergence: oracles.lyapunov: V = inf is not finite at t=0.000000"]

    def test_non_finite_metric_writes_nothing(self, tmp_path):
        """Two follower positions of 1.3e308 stay finite over two steps, but
        their joint error norm is beyond float range: exit 4 with one line
        naming the metric, and no output file is written."""
        with open(bundled_scenario("square_known")) as fh:
            data = json.load(fh)
        data["geometry"]["initial_positions"] = {"3": [1.3e308, 0.0], "4": [0.0, 1.3e308]}
        out = tmp_path / "huge"
        code, err = _main_stderr(
            ["run", write_scenario(tmp_path, data), "--oracles", "--t-final", "0.002",
             "--out", str(out)]
        )
        assert code == 4
        assert err == ["divergence: metrics.terminal_err_p = inf is not finite"]
        assert not out.exists()

    def test_determinism_byte_identical(self, tmp_path):
        path = self.run_scenario_file(tmp_path)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert cli.main(["run", path, "--out", out1]) == 0
        assert cli.main(["run", path, "--out", out2]) == 0
        b1 = (tmp_path / "r1" / "trajectory.csv").read_bytes()
        b2 = (tmp_path / "r2" / "trajectory.csv").read_bytes()
        assert b1 == b2

    @pytest.mark.parametrize("mode", ["known", "adaptive"])
    def test_csv_bytes_match_per_cell_format(self, tmp_path, mode):
        """write_trajectory_csv writes the bytes of a csv.writer fed with
        format(float(x), ".17g") per cell: the V column is blank in known
        mode and holds the monitor series in adaptive mode."""

        def mutate(data):
            data["controller"].update(mode=mode, kappa_v=4.0)

        sc = load_scenario(self.run_scenario_file(tmp_path, mutate))
        traj = integrate(sc)
        mts = metrics(traj, sc)
        V = cli.oracle_report(sc, traj)[1]
        assert (V is None) == (mode == "known")
        cli.write_trajectory_csv(tmp_path / "fast.csv", traj, sc, mts, V)

        def fmt(x):
            return format(float(x), ".17g")

        with open(tmp_path / "fast.csv", newline="") as fh:
            header = next(csv.reader(fh))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        for s, t in enumerate(traj.times):
            row = [fmt(t)]
            row += [fmt(x) for x in traj.positions[s].ravel()]
            row += [fmt(x) for x in traj.velocities[s].ravel()]
            row += [fmt(x) for x in mts["err_p"][s]]
            row += [fmt(mts["err_p_norm"][s]), fmt(mts["err_v_norm"][s])]
            row += [fmt(traj.min_dist[s]), fmt(V[s]) if V is not None else ""]
            writer.writerow(row)
        assert (tmp_path / "fast.csv").read_bytes() == expected.getvalue().encode()

    def test_csv_round_trip(self, tmp_path):
        """CSV floats are written with enough digits to reproduce the terminal
        metrics exactly on re-parse."""
        path = self.run_scenario_file(tmp_path)
        out = tmp_path / "rt"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        with open(out / "metrics.json") as fh:
            summary = json.load(fh)
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        last = rows[-1]
        assert abs(float(last["err_p_norm"]) - summary["terminal_err_p"]) <= 1e-12
        assert abs(float(last["err_v_norm"]) - summary["terminal_err_v"]) <= 1e-12

    @pytest.mark.parametrize("command", ["validate", "spectrum", "localize"])
    def test_oracles_flag_only_on_run(self, tmp_path, capsys, command):
        path = self.run_scenario_file(tmp_path)
        with pytest.raises(SystemExit) as exc_info:
            cli.main([command, path, "--oracles"])
        assert exc_info.value.code == 2
        assert "--oracles" in capsys.readouterr().err

    def test_adaptive_oracles_v_column(self, tmp_path):
        """The CSV's V column is the monitor series the oracle report judged."""

        def mutate(data):
            data["controller"].update(mode="adaptive", kappa_v=4.0)

        path = self.run_scenario_file(tmp_path, mutate)
        out = tmp_path / "orc"
        assert cli.main(["run", path, "--out", str(out), "--oracles"]) == 0
        with open(out / "oracles.json") as fh:
            lyap = json.load(fh)["lyapunov"]
        with open(out / "trajectory.csv", newline="") as fh:
            V = [float(row["V"]) for row in csv.DictReader(fh)]
        assert V[0] == lyap["V_initial"] and V[-1] == lyap["V_terminal"]

    def test_oracles_written(self, tmp_path):
        path = self.run_scenario_file(tmp_path)
        out = tmp_path / "orc"
        assert cli.main(["run", path, "--out", str(out), "--oracles"]) == 0
        with open(out / "oracles.json") as fh:
            report = json.load(fh)
        assert report["spectral_abscissa"] < 0
        assert report["xi_max_deviation"] < 1e-6

    def test_five_sinusoids_validate_and_run(self, tmp_path):
        """Follower 3 of square_known with five sinusoids at w = 1..5 (r = 5,
        cond T = 7.5e8) validates, and a 20 s run follows the exact xi-flow."""
        with open(bundled_scenario("square_known")) as fh:
            data = json.load(fh)
        data["disturbances"]["3"]["sinusoids"] = [
            {"frequency": float(w), "amplitudes": [0.001, 0.0008], "phases": [0.3, -0.5]}
            for w in range(1, 6)
        ]
        path = write_scenario(tmp_path, data)
        assert _main_stderr(["validate", path]) == (0, [])
        out = tmp_path / "five"
        code, _ = _main_stderr(
            ["run", path, "--oracles", "--t-final", "20", "--out", str(out)]
        )
        assert code == 0
        with open(out / "oracles.json") as fh:
            report = json.load(fh)
        assert report["spectral_abscissa"] < 0
        assert report["xi_max_deviation"] < 1e-6

    def test_certificate_at_the_gain_gate(self, tmp_path):
        """kappa_v = 2 + sqrt(2) puts kappa_v lambda_min(B_ff) - 1 at 2.2e-16
        on square_adaptive, where the certificate's lambda_min(Q) would carry
        no digits: validate and run --oracles exit 2 with one line naming
        the margin of 1e-8, and write nothing.  Just above the margin both
        exit 0, and the certificate's constants are finite."""
        path = bundled_scenario("square_adaptive")
        out = tmp_path / "edge"
        run = ["run", path, "--oracles", "--t-final", "0.01", "--out", str(out)]
        line = (
            "error: gains: GainConditionViolated: adaptive gain condition: "
            "kappa_v*lambda_min(B_ff) - 1 = 2.22045e-16 is below the margin 1e-8"
        )
        for argv in (["validate", path], run):
            assert _main_stderr(argv + ["--kappa-v", "3.414213562373099"]) == (
                2, [line]
            )
        assert not out.exists()

        mu_1 = load_scenario(path).laplacian.ff_eigenvalues[0]
        above = repr(float((1.0 + 1.5e-8) / mu_1))
        for argv in (["validate", path], run):
            assert _main_stderr(argv + ["--kappa-v", above]) == (0, [])
        with open(out / "oracles.json") as fh:
            lyapunov = json.load(fh)["lyapunov"]
        assert 0 < lyapunov["lambda_min_Qc"] < 1e-7
        assert all(np.isfinite(v) for v in lyapunov.values())

    @staticmethod
    def order_13_scenario(tmp_path):
        """square_adaptive with six sinusoids on follower 3 (order 13, G_i
        of condition number 2.3e18)."""
        with open(bundled_scenario("square_adaptive")) as fh:
            data = json.load(fh)
        data["disturbances"]["3"]["sinusoids"] = [
            {"frequency": 0.5 * k, "amplitudes": [0.1, 0.1], "phases": [0.0, 0.5]}
            for k in range(1, 7)
        ]
        return write_scenario(tmp_path, data)

    ORDER_13_LINE = (
        "error: certificate: CertificateFailed: G_c is not positive definite "
        "at order 13"
    )

    def test_certificate_failure_exits_2(self, tmp_path, monkeypatch):
        """At order 13, G_i rounds to a matrix that is not positive definite.
        The certificate's checks run at load, so validate and run --oracles
        both exit 2 with one line naming the certificate and the order, and
        write nothing; nothing is integrated."""
        path = self.order_13_scenario(tmp_path)
        assert _main_stderr(["validate", path]) == (2, [self.ORDER_13_LINE])

        def fail(sc):
            raise AssertionError("integrated a scenario that fails at load")

        monkeypatch.setattr(cli, "integrate", fail)
        out = tmp_path / "six"
        code, err = _main_stderr(
            ["run", path, "--oracles", "--t-final", "0.1", "--out", str(out)]
        )
        assert (code, err) == (2, [self.ORDER_13_LINE])
        assert not out.exists()

    def test_infinite_gamma_exits_2(self, tmp_path, monkeypatch):
        """kappa_p = 1e-320 passes the gain gate, but lambda_min(Q) is then
        subnormal and gamma_sigma overflows, so the Lyapunov value would be
        inf at t = 0.  validate and run exit 2 at load with one line naming
        the certificate, and nothing is integrated or written; forming
        gamma_sigma raises no NumPy warning.  A kappa_p whose bound on
        gamma_sigma stays finite passes without the exact value: its load
        takes the eigvalsh calls of a default one, and the overflowing bound
        adds the one of B_ff W B_ff."""
        path = bundled_scenario("square_adaptive")
        line = (
            "error: certificate: CertificateFailed: gamma is beyond float "
            "range (lambda_min(Q) 1.714e-321)"
        )
        assert _main_stderr(["validate", path, "--kappa-p", "1e-320"]) == (2, [line])

        def fail(sc):
            raise AssertionError("integrated a scenario that fails at load")

        monkeypatch.setattr(cli, "integrate", fail)
        out = tmp_path / "inf"
        argv = ["run", path, "--kappa-p", "1e-320", "--oracles", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _main_stderr(argv) == (2, [line])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not out.exists()
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        shapes = {}
        for kappa_p, code in (("1", 0), ("1e-300", 0), ("1e-320", 2)):
            calls.clear()
            assert _main_stderr(["validate", path, "--kappa-p", kappa_p])[0] == code
            shapes[kappa_p] = list(calls)
        assert shapes["1e-300"] == shapes["1"]
        assert shapes["1e-320"] == shapes["1"] + [(4, 4)]

    @pytest.mark.parametrize(
        "rate, line",
        [
            ("1e-310", "nan summed up to follower 3"),
            ("1e-306", "inf summed up to follower 4"),
        ],
        ids=["rate-1e-310", "rate-1e-306"],
    )
    def test_unrepresentable_estimate_term_exits_2(
        self, tmp_path, monkeypatch, rate, line
    ):
        """At adaptation rate 1e-310, Lambda^-1 is not finite, and at 1e-306
        each follower's th~' Lam^-1 th~ at t = 0 (1.21e308 and 7.6e307) is
        finite but their sum is not, so V would be nan or inf at t = 0.
        validate and run --oracles exit 2 at load with one line naming the
        lowest follower at fault, and nothing is integrated or written."""
        with open(bundled_scenario("square_adaptive")) as fh:
            data = json.load(fh)
        data["controller"]["adaptation_rate"] = float(rate)
        path = write_scenario(tmp_path, data)
        expected = [
            "error: certificate: CertificateFailed: th~' Lam^-1 th~ is not "
            f"finite at t = 0 ({line})"
        ]
        assert _main_stderr(["validate", path]) == (2, expected)

        def fail(sc):
            raise AssertionError("integrated a scenario that fails at load")

        monkeypatch.setattr(cli, "integrate", fail)
        out = tmp_path / "out"
        argv = ["run", path, "--oracles", "--t-final", "0.1", "--out", str(out)]
        assert _main_stderr(argv) == (2, expected)
        assert not out.exists()

    def test_run_solves_each_lyapunov_system_once(self, tmp_path, monkeypatch):
        """run --oracles on the adaptive square, in process, solves the
        (m^2, m^2) Lyapunov system of its one order (m = 3) once: at load,
        where the certificate is made, and not again for the oracle."""
        shapes, solve = [], np.linalg.solve

        def counted(a, b):
            shapes.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        argv = [
            "run", bundled_scenario("square_adaptive"), "--oracles",
            "--t-final", "0.2", "--out", str(tmp_path / "out"),
        ]
        assert _main_stderr(argv) == (0, [])
        assert shapes.count((9, 9)) == 1

    def test_adaptive_load_takes_one_eigvalsh_of_the_follower_block(self, monkeypatch):
        """Loading an adaptive scenario takes one eigvalsh of n_f d size, the
        spectrum of B_ff: the certificate's gamma_sigma is not formed at
        load while its bound is finite."""
        shapes, eigvalsh = [], np.linalg.eigvalsh

        def counted(a):
            shapes.append(np.shape(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        sc = load_scenario(bundled_scenario("square_adaptive"))
        nfd = sc.n_f * sc.d
        assert shapes.count((nfd, nfd)) == 1

    def test_certificate_failure_on_any_blas_thread_count(self, tmp_path):
        """The same scenario in fresh processes with one and with two BLAS
        threads: the rounded lambda_min(G_i) at order 13 is +5.7e-3 on one
        thread and -1.1 on two, both far inside the eigvalsh error bound
        m eps lambda_max(G_i) = 37.  On both, validate, run, run --oracles,
        spectrum and localize each exit 2 with the same line and write
        nothing."""
        path = self.order_13_scenario(tmp_path)
        for threads in ("1", "2"):
            env = dict(os.environ)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            out = tmp_path / f"threads_{threads}"
            proc = subprocess.run(
                [sys.executable, "-c", ORDER_13_COMMANDS, path, str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, (threads, proc.stderr)
            assert proc.stdout.splitlines() == ["[2, 2, 2, 2, 2]"], threads
            assert proc.stderr.splitlines() == [self.ORDER_13_LINE] * 5, threads
            assert not out.exists()


# each command on the order-13 scenario in one process: argv[1] is the
# scenario, argv[2] an output directory that must stay absent
ORDER_13_COMMANDS = """
import sys
from bearing_forge import cli

path, out = sys.argv[1:]
opts = ["--t-final", "0.1", "--out", out]
print([
    cli.main(argv + opts)
    for argv in (
        ["validate", path], ["run", path], ["run", path, "--oracles"],
        ["spectrum", path], ["localize", path],
    )
])
"""


# validate, spectrum, localize and run in one fresh process (argv[1] is the
# output directory of run); prints, per command, whether sim_engine,
# rk4_operator, argparse and locale are loaded after it
COMMAND_IMPORTS = """
import json, sys
from bearing_forge import bundled_scenario, cli

path, loaded = bundled_scenario("square_known"), {}
for command, *opts in (
    ["validate"], ["spectrum"], ["localize"],
    ["run", "--t-final", "0.1", "--out", sys.argv[1]],
):
    assert cli.main([command, path, *opts]) == 0
    loaded[command] = [
        name in sys.modules
        for name in ("bearing_forge.sim_engine", "bearing_forge.rk4_operator",
                     "argparse", "locale")
    ]
print(json.dumps(loaded))
"""


def test_only_run_imports_the_engine(tmp_path):
    """validate, spectrum and localize decide everything at load, so they
    import neither sim_engine nor rk4_operator; run imports both.  A stray
    import of either on the load path would make every command compile
    them.  No command imports argparse, or locale, which building an
    argparse parser imports through its gettext lookups: each costs every
    process its import."""
    proc = subprocess.run(
        [sys.executable, "-c", COMMAND_IMPORTS, str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "validate": [False, False, False, False],
        "spectrum": [False, False, False, False],
        "localize": [False, False, False, False],
        "run": [True, True, False, False],
    }


# public names that no command calls, each with its reason
CENSUS_ALLOWED = set()


def public_code(module):
    """(dotted name, code object) of each public function of the module and
    each public method or property of its classes, as defined there."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj.__code__
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, property):
                    fn = member.fget
                elif isinstance(member, functools.cached_property):
                    fn = member.func
                else:
                    fn = getattr(member, "__func__", member)   # a classmethod's function
                if inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn.__code__


def test_commands_call_every_public_name(tmp_path):
    """Every public function, method and property of the package's modules
    is called by a command: validate, spectrum, localize and run --oracles
    on the bundled squares in known, adaptive and feedback_only mode, and
    run --oracles on a 64-agent formation past OPERATOR_MAX_MACS, which
    takes the staged step.  Code that only tests call belongs in the tests.
    Out of scope are the package's own __init__ (bundled_scenario names the
    shipped files) and dunder methods, so exception constructors and
    cli.__getattr__."""
    swarm = write_scenario(tmp_path, complete_formation_data(64, "known", t_final=0.005))
    runs = [
        [command, bundled_scenario(name), "--mode", mode, "--t-final", "0.2"]
        for name, mode in (
            ("square_known", "known"),
            ("square_known", "feedback_only"),
            ("square_adaptive", "adaptive"),
        )
        for command in ("validate", "spectrum", "localize", "run")
    ] + [["run", swarm]]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(argv + (["--oracles"] if argv[0] == "run" else [])
                         + ["--out", str(tmp_path / "out")])
                for argv in runs
            ]
    finally:
        sys.setprofile(outer)
    assert codes == [0] * len(runs)

    uncalled = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(bearing_forge.__path__)
        for name, code in public_code(importlib.import_module(f"bearing_forge.{info.name}"))
        if code not in called
    ]
    unused = sorted(set(uncalled) - CENSUS_ALLOWED)
    assert not unused, f"no command calls {', '.join(unused)}"
    stale = sorted(CENSUS_ALLOWED - set(uncalled))
    assert not stale, f"a command calls the allowed {', '.join(stale)}"


def test_run_through_runpy(tmp_path):
    """run works when a tool executes cli through runpy.run_module, as
    `python -m cProfile -m bearing_forge.cli` does: there
    sys.modules["__main__"] is the tool, not the module that runs."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "cProfile", "-o", str(tmp_path / "profile"),
            "-m", "bearing_forge.cli", "run", bundled_scenario("square_known"),
            "--t-final", "0.1", "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("run ok")


# validate on argv[2] in a fresh process, entered as argv[1] names: "module"
# runs cli as __main__, as `python -m bearing_forge.cli` does; "script" calls
# cli.main() on sys.argv, as the console script does.  Prints the exit code
# and gc.get_freeze_count()
ENTRY_FREEZE = """
import gc, runpy, sys
entry, path = sys.argv[1:]
sys.argv = ["bearing-forge", "validate", path]
if entry == "module":
    try:
        runpy.run_module("bearing_forge.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
else:
    from bearing_forge import cli
    code = cli.main()
print(code, gc.get_freeze_count())
"""


@pytest.mark.parametrize("entry", ["module", "script"])
def test_the_program_entry_freezes_the_gc(entry):
    """cli.main on the process's own command line moves what is imported by
    then out of the cyclic GC's reach, so that no later collection and not
    the shutdown scans it again."""
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_FREEZE, entry, bundled_scenario("square_known")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, count = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0 and count > 0


# the command line argv[1:] in a fresh process, entered as `python -m
# bearing_forge.cli` enters it (runpy, as __main__), after a full collection
# so that what this script allocated does not set one off; prints the exit
# code and the generation of each cyclic collection that started while
# nothing was frozen
ENTRY_COLLECTIONS = """
import gc, json, runpy, sys
sys.argv = ["bearing-forge", *sys.argv[1:]]
unfrozen = []
def record(phase, info):
    if phase == "start" and gc.get_freeze_count() == 0:
        unfrozen.append(info["generation"])
gc.collect()
gc.callbacks.append(record)
try:
    runpy.run_module("bearing_forge.cli", run_name="__main__")
except SystemExit as exc:
    print(json.dumps([exc.code, unfrozen]))
"""


@pytest.mark.parametrize("command", [["validate"], ["run", "--t-final", "0.1"]])
def test_the_module_entry_collects_nothing_before_the_freeze(tmp_path, command):
    """`python -m bearing_forge.cli` turns the cyclic GC off before its
    imports, and main() freezes what they made before turning it back on,
    so no collection scans the objects that NumPy's and the package's
    imports create (with the GC on through the imports, about 30)."""
    argv = [command[0], bundled_scenario("square_known"), *command[1:],
            "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_COLLECTIONS, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]


def test_main_with_argv_leaves_the_gc_unfrozen():
    """An in-process call with argv, as the tests and perfbench's tracer
    make, leaves the host's permanent generation as it was."""
    before = gc.get_freeze_count()
    try:
        assert _main_stderr(["validate", bundled_scenario("square_known")]) == (0, [])
    finally:
        after = gc.get_freeze_count()
        if after != before:
            gc.unfreeze()
    assert after == before


# the command-line contract: argv after the program name (SQ stands for the
# bundled square_known), the exit code, and the token that stderr names when
# one argument is at fault
SQ = bundled_scenario("square_known")
COMMAND_LINES = [
    (["validate", SQ, "--t-final=10"], 0, None),
    (["validate", "--t-final", "10", "--mode", "known", SQ], 0, None),
    (["validate", SQ, "--t-f", "10"], 0, None),
    (["validate", SQ, "--kappa-p", "-1"], 2, "kappa_p"),
    (["validate", SQ, "--oracles"], 2, "--oracles"),
    (["validate", SQ, "--mode", "bogus"], 2, "bogus"),
    (["validate", SQ, "--h", "abc"], 2, "abc"),
    (["validate"], 2, None),
    (["validate", SQ, SQ + ".2"], 2, SQ + ".2"),
    (["bogus", SQ], 2, "bogus"),
    ([], 2, None),
    (["-h"], 0, None),
    (["run", "-h"], 0, None),
]
COMMAND_NAMES = ["run", "validate", "spectrum", "localize"]


@pytest.mark.parametrize(
    "argv, code, token", COMMAND_LINES,
    ids=[" ".join(a.replace(SQ, "SQ") for a in argv) or "empty" for argv, _, _ in COMMAND_LINES],
)
def test_command_line_contract(argv, code, token):
    """Long options as --name value and --name=value, by a unique prefix,
    before or after the scenario; --oracles on run only.  A usage error
    raises SystemExit(2) with a usage line and an error line on stderr; -h
    raises SystemExit(0) with the commands, and on run its --oracles, on
    stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
            usage = exc.code != 0
        else:
            usage = False
    assert got == code, err.getvalue()
    if token is not None:
        assert token in err.getvalue()
    if usage:
        lines = err.getvalue().splitlines()
        assert lines[0].startswith("usage: bearing-forge")
        assert lines[-1].startswith("bearing-forge") and ": error: " in lines[-1]
    if argv == ["-h"]:
        assert all(name in out.getvalue() for name in COMMAND_NAMES)
    if argv == ["run", "-h"]:
        assert "--oracles" in out.getvalue()


# each error class, one instance, and the exit code and stderr prefix that
# the CLI documents for it
LIBRARY_ERRORS = [
    (errors.BearingForgeError("boom"), 2, "error"),
    (errors.DegenerateBearing("boom"), 2, "error"),
    (errors.NonUnitInput("boom"), 2, "error"),
    (errors.MissingBearing((3, 4)), 2, "error"),
    (errors.NotLocalizable("boom"), 2, "error"),
    (errors.DuplicateFrequency("boom"), 2, "error"),
    (errors.NonPositiveFrequency("boom"), 2, "error"),
    (errors.NonFiniteExosystem("boom"), 2, "error"),
    (errors.SingularT("boom"), 2, "error"),
    (errors.GainConditionViolated("boom"), 2, "error"),
    (errors.CollisionDetected(0.5, (1, 2), 1e-4), 3, "collision"),
    (errors.NonFiniteState("boom"), 4, "divergence"),
    (errors.CertificateFailed("boom"), 2, "error"),
    (errors.ParseError("boom"), 2, "error"),
    (errors.ValidationError("boom"), 2, "error"),
    (OSError("boom"), 5, "io error"),
]


def test_every_error_class_has_an_exit_code():
    classes = {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.BearingForgeError)
    }
    assert classes <= {type(exc) for exc, _, _ in LIBRARY_ERRORS}


@pytest.mark.parametrize(
    "exc, code, prefix", LIBRARY_ERRORS,
    ids=[type(exc).__name__ for exc, _, _ in LIBRARY_ERRORS],
)
def test_error_exit_codes(monkeypatch, exc, code, prefix):
    """An error raised in a command exits with its documented code and one
    stderr line, no traceback."""

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "load_scenario", fail)
    assert _main_stderr(["run", "s.json"]) == (code, [f"{prefix}: {exc}"])


_DROP = object()


def _mutate(data, path, value):
    """Set the JSON field at path (a tuple of keys/indices) to value, or
    delete it when value is _DROP."""
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value


def _main_stderr(argv):
    """(exit code, stderr lines) of cli.main(argv), stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue().splitlines()


ADAPTIVE_CONTROLLER = {"mode": "adaptive", "kappa_p": 1.0, "kappa_v": 4.0}
# follower 3's one sinusoid in the bundled squares
SINUSOID = {"frequency": 2.0, "amplitudes": [0.001, 0.0008], "phases": [0.3, -0.5]}
R2 = 0.5**0.5
# the unit square of the bundled scenarios given by its bearings, with the
# desired positions of the leaders and of an agent the graph does not have
GEOMETRY_UNKNOWN_POSITION = {
    "desired_positions": {"1": [0, 0], "2": [1, 0], "9": [5, 5]},
    "desired_bearings": [
        {"edge": [1, 2], "bearing": [-1, 0]},
        {"edge": [2, 3], "bearing": [0, -1]},
        {"edge": [3, 4], "bearing": [1, 0]},
        {"edge": [4, 1], "bearing": [0, 1]},
        {"edge": [1, 3], "bearing": [-R2, -R2]},
        {"edge": [2, 4], "bearing": [R2, -R2]},
    ],
    "leader_velocity": [0.5, 0],
}


class TestMalformedInput:
    """Every bad input exits 2 with one named line, never a traceback or a
    silently wrong run; overrides pass the same checks as the file."""

    @pytest.mark.parametrize(
        "flag",
        [
            ["--h", "-1"],
            ["--h", "0"],
            ["--t-final", "-5"],
            ["--t-final", "0"],
            ["--t-final", "nan"],
            ["--h", "inf"],
            ["--kappa-p", "nan"],
            ["--kappa-p", "1e308"],
            ["--kappa-v", "1e308"],
        ],
        ids=lambda flag: " ".join(flag),
    )
    def test_bad_override_rejected(self, tmp_path, flag):
        argv = ["run", bundled_scenario("square_known"), "--out", str(tmp_path)]
        code, err = _main_stderr(argv + flag)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "path, value",
        [
            (("graph", "n_agents"), "four"),
            (("graph", "edges", 0), ["a", 2]),
            (("graph", "edges"), 5),
            (("controller", "kappa_p"), None),
            (("disturbances", "3", "sinusoids", 0, "frequency"), [1, 2]),
            (("geometry", "desired_positions", "3"), [float("nan"), 1.0]),
            (("integration", "t_final"), float("nan")),
            (("integration", "step"), float("inf")),
            (("controller", "kappa_v"), float("nan")),
            (("integration", "t_final"), 0.0001),
            (("integration", "t_final"), 1.0005),
            (("controller", "freeze_theta"), "false"),
            (("controller", "eta_init"), {"1": [1, 2]}),
            (("controller", "eta_init"), {"9": [0, 0, 0, 0, 0, 0]}),
            (("controller",), {**ADAPTIVE_CONTROLLER, "adaptation_rate": 1e-310}),
            (("controller",), {**ADAPTIVE_CONTROLLER, "adaptation_rate": 1e-306}),
            (
                ("controller",),
                {
                    **ADAPTIVE_CONTROLLER,
                    "adaptation_gains": {"3": [[1, 4, 3], [4, 16, 12], [3, 12, 9]]},
                },
            ),
            (
                ("controller",),
                {**ADAPTIVE_CONTROLLER, "theta_hat_init": {"1": [1, 2, 3]}},
            ),
            (
                ("controller",),
                {**ADAPTIVE_CONTROLLER, "adaptation_gains": {"7": [[1]]}},
            ),
            (("geometry",), GEOMETRY_UNKNOWN_POSITION),
            (("geometry", "initial_positions", "03"), [5, 5]),
            (("geometry", "initial_positions", " 3"), [5, 5]),
            (("geometry", "initial_positions", "+3"), [5, 5]),
            (("integration", "t_final"), 1e12),
            (
                ("integration",),
                {"step": 0.001, "t_final": 1e12, "record_every": 10**16},
            ),
            (("disturbances", "3", "sinusoids", 0, "frequency"), 1e160),
            (("disturbances", "3", "sinusoids", 0, "amplitudes"), [1e308, 1e308]),
            (("disturbances", "3", "sinusoids", 0, "frequency"), 1e150),
            (("geometry", "desired_positions", "1"), [1e200, 0]),
            (
                ("geometry", "desired_bearings"),
                [{"edge": [1, 2], "bearing": [1e200, 0]}],
            ),
        ],
        ids=[
            "n_agents-string", "edge-string", "edges-int", "kappa_p-null",
            "frequency-list", "position-nan", "t_final-nan", "step-inf",
            "kappa_v-nan", "t_final-below-step", "t_final-not-whole",
            "freeze_theta-string", "eta_init-leader", "eta_init-unknown",
            "adaptation_rate-1e-310", "adaptation_rate-1e-306",
            "adaptation_gains-singular",
            "theta_hat_init-leader", "adaptation_gains-unknown",
            "desired_positions-unknown", "id-leading-zero", "id-space",
            "id-plus", "t_final-huge", "steps-huge", "frequency-1e160",
            "amplitudes-1e308", "frequency-1e150", "desired_positions-1e200",
            "desired_bearings-1e200",
        ],
    )
    def test_bad_file_rejected(self, tmp_path, path, value):
        with open(bundled_scenario("square_known")) as fh:
            data = json.load(fh)
        _mutate(data, path, value)
        code, err = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")


    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "directory, flags",
        [("", []), ("a\0b", []), ("out", ["--out", ""])],
        ids=["empty", "nul", "override-empty"],
    )
    def test_bad_output_directory_rejected(
        self, tmp_path, monkeypatch, command, directory, flags
    ):
        """An empty directory name, or one with a NUL character, is rejected
        at load with one line, so run stops before it integrates: it used to
        integrate the whole scenario and then fail to write (exit 5, or a
        ValueError traceback for the NUL)."""
        with open(bundled_scenario("square_known")) as fh:
            data = json.load(fh)
        data["outputs"] = {"directory": directory}
        path = write_scenario(tmp_path, data)

        def fail(*args):
            raise AssertionError("integrated a scenario with a bad directory")

        monkeypatch.setattr(cli, "integrate", fail)
        code, err = _main_stderr([command, path, *flags])
        bad = "''" if flags else repr(directory)
        assert (code, err) == (
            2,
            [
                "error: outputs.directory: expected a non-empty directory name "
                f"without NUL characters, got {bad}"
            ],
        )

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "out", ["file", os.path.join("file", "sub")], ids=["file", "file-sub"]
    )
    def test_output_directory_through_a_file_rejected(
        self, tmp_path, monkeypatch, command, out
    ):
        """An output directory that is an existing file, or lies below one,
        fails at load with one line naming outputs.directory, so run stops
        before it integrates: it used to integrate the whole scenario and
        then fail to create the directory (exit 5)."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")

        def fail(*args):
            raise AssertionError("integrated a scenario it cannot write")

        monkeypatch.setattr(cli, "integrate", fail)
        path = bundled_scenario("square_known")
        code, err = _main_stderr([command, path, "--out", out])
        assert (code, err) == (
            2, ["error: outputs.directory: 'file' exists and is not a directory"]
        )
        assert (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize(
        "where, path, key",
        [
            ("scenario", (), "controler"),
            ("graph", ("graph",), "n_agent"),
            ("geometry", ("geometry",), "initial_position"),
            ("controller", ("controller",), "kapa_p"),
            ("integration", ("integration",), "colision_threshold"),
            ("outputs", ("outputs",), "oracle"),
            ("disturbances[3]", ("disturbances", "3"), "constants"),
            (
                "disturbances[3].sinusoids",
                ("disturbances", "3", "sinusoids", 0),
                "frequencies",
            ),
            (
                "geometry.desired_bearings",
                ("geometry", "desired_bearings", 0),
                "bearings",
            ),
        ],
        ids=lambda x: x if isinstance(x, str) else None,
    )
    def test_unknown_field_rejected(self, tmp_path, where, path, key):
        """A field the compile does not read, such as a misspelled optional
        field, is named with its object rather than ignored."""
        with open(bundled_scenario("square_known")) as fh:
            data = json.load(fh)
        data["geometry"]["desired_bearings"] = copy.deepcopy(
            GEOMETRY_UNKNOWN_POSITION["desired_bearings"]
        )
        _mutate(data, path + (key,), 1.0)
        code, err = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert (code, err) == (2, [f"error: {where}: unknown field '{key}'"])

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("theta_hat_init", {"3": [1, 2]}, "theta_hat_init[3]: expected 3 entries"),
            (
                "adaptation_gains",
                {"4": [[-1.0]]},
                "adaptation_gains[4]: expected 3x3 matrix, got (1, 1)",
            ),
        ],
    )
    def test_adaptive_fields_checked_in_every_mode(self, tmp_path, field, value, message):
        """A malformed adaptive-only field is named in known mode too, not
        ignored because the mode does not use it."""
        with open(bundled_scenario("square_known")) as fh:
            data = json.load(fh)
        data["controller"][field] = value
        code, err = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert (code, err) == (2, [f"error: controller.{message}"])

    @pytest.mark.parametrize("command", [["validate"], ["run", "--oracles"]])
    def test_lambda_asymmetric_past_relative_tolerance(self, tmp_path, command):
        """An asymmetry of 1e-5 in an entry of 1 is rejected: the symmetry
        gate compares with 1e-12 max|Lambda| and no relative slack."""
        with open(bundled_scenario("square_adaptive")) as fh:
            data = json.load(fh)
        data["controller"]["adaptation_gains"] = {
            "3": [[4, 1.00001, 0], [1, 4, 0], [0, 0, 4]]
        }
        data["outputs"]["directory"] = str(tmp_path / "out")
        code, err = _main_stderr([*command, write_scenario(tmp_path, data)])
        assert (code, err) == (
            2, ["error: gains: GainConditionViolated: Lambda for follower 3 not symmetric"]
        )

    @pytest.mark.parametrize("scenario", ["square_known", "square_adaptive"])
    def test_rank_one_lambda_rejected_in_every_mode(self, tmp_path, scenario):
        """A rank-one Lambda, whose least eigenvalue eigvalsh rounds to
        +2.7e-17, is not certainly definite: `validate` names it at the
        gain gate in known mode too, and in adaptive mode before the
        certificate's th~ term could fail on its inverse."""
        with open(bundled_scenario(scenario)) as fh:
            data = json.load(fh)
        data["controller"]["adaptation_gains"] = {
            "3": [[1, 4, 3], [4, 16, 12], [3, 12, 9]]
        }
        code, err = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert (code, err) == (
            2, ["error: gains: GainConditionViolated: Lambda for follower 3 not positive definite"]
        )

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("controller", "eta_init"), {"3": [1, 2, 3]},
             "controller.eta_init[3]: expected 6 entries"),
            (("controller", "eta_init"), "zero",
             "controller.eta_init: unknown policy 'zero'"),
            (("geometry", "leader_velocity"), [0.5, 0, 0],
             "geometry.leader_velocity: expected 2 coordinates, got shape (3,)"),
            (("graph", "leaders"), [1, 2, 3, 4],
             "graph.leaders: need 1 <= n_l < n, got n_l=4, n=4"),
            (("geometry", "initial_velocities", "1" * 5000), [0, 0],
             "geometry.initial_velocities: agent 1.111e+4999 is not a follower"),
            (("geometry", "initial_velocities", "1" * 4000), [0, 0],
             "geometry.initial_velocities: agent 1.111e+3999 is not a follower"),
            (("geometry", "initial_positions", "9" * 5000), [0, 0],
             "geometry.initial_positions: unknown agent 1.000e+5000"),
            (("geometry", "initial_positions", "10"), [0, 0],
             "geometry.initial_positions: unknown agent 10"),
            (("controller", "mode"), "a" * 100_000,
             f"controller.mode: unknown mode '{'a' * 12}...{'a' * 13}'"),
            (("controller", "mode"), "a\nb", "controller.mode: unknown mode 'a\\nb'"),
            (("controller", "eta_init"), "a" * 100_000,
             f"controller.eta_init: unknown policy '{'a' * 12}...{'a' * 13}'"),
            (("controller", "eta_init"), list(range(100_000)),
             "controller.eta_init: unknown policy [0, 1, 2, 3, ...]"),
            (("graph", "leaders"), list(range(3, 50_003)),
             "graph.leaders: leaders must be exactly 1..n_l, got [3, 4, 5, 6, ...]"),
            (("k" * 100_000,), 1,
             f"scenario: unknown field '{'k' * 12}...{'k' * 13}'"),
            (("graph",), {"n_agents": 2, "dimension": 2, "leaders": [1], "edges": [[1, 2]]},
             "graph: need at least 3 agents, got n=2"),
            (("graph", "dimension"), 1, "graph: need dimension >= 2, got d=1"),
            (("graph", "edges", 0), [3, 3], "graph.edges: malformed edge (3, 3)"),
            (("graph", "edges", 0), [1, 9], "graph.edges: malformed edge (1, 9)"),
            (("graph", "edges", 0), [1, 2, 3], "graph.edges: malformed edge (1, 2, 3)"),
            (("graph", "leaders"), [], "graph.leaders: need 1 <= n_l < n, got n_l=0, n=4"),
            (("disturbances", "3", "sinusoids", 0, "frequency"), 0,
             "disturbances[3]: NonPositiveFrequency: frequency 0.0 must be positive"),
            (("disturbances", "3", "sinusoids", 0, "frequency"), -1,
             "disturbances[3]: NonPositiveFrequency: frequency -1.0 must be positive"),
            (("disturbances", "3", "sinusoids"), [SINUSOID, SINUSOID],
             "disturbances[3]: DuplicateFrequency: frequencies 2.0 and 2.0 closer "
             "than 1e-09"),
        ],
        ids=["eta_init-length", "eta_init-policy", "vector-length", "all-leaders",
             "id-5000-digits", "id-4000-digits", "agent-id-5000-digits", "id-10",
             "mode-100KB", "mode-newline", "eta_init-100KB",
             "eta_init-100000-entries", "leaders-50000", "field-100KB", "n_agents-2",
             "dimension-1", "edge-self-loop", "edge-unknown-agent", "edge-triple",
             "no-leaders", "frequency-0",
             "frequency-negative", "frequency-repeated"],
    )
    def test_bad_value_names_its_field(self, tmp_path, path, value, message):
        """One short line that names the field.  An agent id of more digits
        than the last agent's names no agent and is echoed in scientific
        form past 16 digits, without int(), which refuses a string of more
        than 4300 digits; a long or multi-line value is echoed cut, on one
        line."""
        with open(bundled_scenario("square_known")) as fh:
            data = json.load(fh)
        _mutate(data, path, value)
        code, err = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert (code, err) == (2, [f"error: {message}"])
        assert len(err[0]) < 200

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"kappa_v": 1.0}', '"kappa_v": 1.0, "kappa_p": 50.0}', "kappa_p"),
            ('"disturbances": {', '"disturbances": {"4": {"constant": [5, 5]}, ', "4"),
        ],
        ids=["controller-kappa_p", "disturbances-4"],
    )
    def test_repeated_key_rejected(self, tmp_path, old, new, key):
        """json.load keeps the last of a key's values; a key given twice in
        one object is refused, not read as its last value."""
        with open(bundled_scenario("square_known")) as fh:
            text = fh.read()
        assert text.count(old) == 1
        path = tmp_path / "scenario.json"
        path.write_text(text.replace(old, new))
        code, err = _main_stderr(["validate", str(path)])
        assert (code, err) == (
            2, [f"error: scenario file {path} repeats the key '{key}' in an object"]
        )

    @pytest.mark.parametrize(
        "case",
        ["not-utf8", "5000-digits", "graph-nested-100000", "n_agents-1e300",
         "h-1e-300", "t_final-1e308", "h-1e-320", "kappa_p-100000-entries",
         "kappa_p-1e400", "edge-1e4000"],
    )
    def test_unreadable_or_huge_input_is_one_short_line(self, tmp_path, case):
        """A file that is not UTF-8, holds an integer literal past Python's
        int-to-str digit limit or nests past the parser's recursion limit
        fails to parse with a named line; a count of more than 16 digits is
        printed in scientific form, and so is a bad integer value, while a
        bad list is echoed by its first entries.  A t_final / step past
        float range is over the step limit, not a fraction of a step."""
        path = tmp_path / "scenario.json"
        flags = []
        if case == "not-utf8":
            path.write_bytes(b'{"graph": "\xff\xfe"}')
            message = f"scenario file {path} is not UTF-8: invalid start byte at byte 11"
        elif case == "5000-digits":
            path.write_text('{"graph": {"n_agents": ' + "9" * 5000 + "}}")
            message = (
                f"malformed JSON in {path}: an integer literal of more than "
                f"{sys.get_int_max_str_digits()} digits"
            )
        elif case == "graph-nested-100000":
            path.write_text('{"graph": ' + "[" * 100_000 + "]" * 100_000 + "}")
            message = (
                f"malformed JSON in {path}: lists or objects nested deeper than "
                "the parser's recursion limit"
            )
        else:
            with open(bundled_scenario("square_known")) as fh:
                data = json.load(fh)
            if case == "n_agents-1e300":
                data["graph"]["n_agents"] = 10**300
                message = (
                    "graph: the bearing Laplacian of 1.000e+300 agents in dimension 2 "
                    "would take 3.052e+595 MiB, over the limit of 1024 MiB"
                )
            elif case == "kappa_p-100000-entries":
                data["controller"]["kappa_p"] = list(range(100_000))
                message = "controller.kappa_p: expected a finite number, got [0, 1, 2, 3, ...]"
            elif case == "kappa_p-1e400":
                data["controller"]["kappa_p"] = 10**400
                message = "controller.kappa_p: expected a finite number, got 1.000e+400"
            elif case == "edge-1e4000":
                data["graph"]["edges"][0] = [1, 10**4000]
                message = (
                    "graph.edges: malformed edge "
                    f"(1, {'1' + '0' * 17}...{'0' * 19})"
                )
            elif case == "h-1e-300":
                flags = ["--h", "1e-300"]
                message = (
                    "integration: the run would record 5.000e+299 samples of its "
                    "36-entry state, 1.373e+296 MiB, over the limit of 1024 MiB"
                )
            elif case == "t_final-1e308":
                flags = ["--t-final", "1e308"]
                message = (
                    "integration: t_final / step = 1e+308 / 0.001 overflows, "
                    "over the limit of 10000000 steps"
                )
            else:
                flags = ["--h", "1e-320"]
                message = (
                    "integration: t_final / step = 50.0 / 1e-320 overflows, "
                    "over the limit of 10000000 steps"
                )
            write_scenario(tmp_path, data)
        code, err = _main_stderr(["validate", str(path)] + flags)
        assert (code, err) == (2, [f"error: {message}"])
        assert len(err[0]) < 200

    def test_deeply_nested_vector_is_one_named_line(self, tmp_path):
        """A leader_velocity nested 900 deep parses (json's limit is the
        interpreter's, 1000) and is rejected by its field, in a fresh
        process, whose shallow stack lets the parse through."""
        with open(bundled_scenario("square_known")) as fh:
            data = json.load(fh)
        data["geometry"]["leader_velocity"] = "@"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data).replace('"@"', "[" * 900 + "]" * 900))
        proc = subprocess.run(
            [sys.executable, "-m", "bearing_forge.cli", "validate", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: geometry.leader_velocity: lists nested more than 16 deep"
        ]

    def test_top_level_must_be_an_object(self, tmp_path):
        code, err = _main_stderr(["validate", write_scenario(tmp_path, [1, 2])])
        assert (code, err) == (2, ["error: scenario: top level must be a JSON object"])

    def test_adaptive_scenario_runs_known(self):
        """The adaptive square's well-formed adaptive fields pass in known mode."""
        path = bundled_scenario("square_adaptive")
        assert _main_stderr(["validate", path, "--mode", "known"]) == (0, [])

    def test_bearing_off_the_graph_rejected(self, tmp_path):
        """A desired bearing on a pair that is not a sensing edge is an
        error, not ignored."""
        with open(bundled_scenario("square_known")) as fh:
            data = json.load(fh)
        data["graph"]["edges"].remove([1, 3])
        data["geometry"]["desired_bearings"] = [{"edge": [1, 3], "bearing": [0, 1]}]
        code, err = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert (code, err) == (
            2, ["error: geometry.desired_bearings: (1,3) is not a sensing edge"]
        )

    @pytest.mark.parametrize("value", [0, -1.0])
    def test_collision_threshold_must_be_positive(self, tmp_path, value):
        """A threshold of zero or below would switch the collision check off."""
        with open(bundled_scenario("square_known")) as fh:
            data = json.load(fh)
        data["integration"]["collision_threshold"] = value
        code, err = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert (code, err) == (
            2,
            [
                "error: integration: step, t_final and collision_threshold must "
                "be positive, record_every >= 1"
            ],
        )

    def test_run_size_bound_names_the_size(self, tmp_path):
        """validate rejects a run whose recorded samples would exceed
        MAX_SAMPLE_BYTES before anything is allocated, and says how big."""
        with open(bundled_scenario("square_known")) as fh:
            data = json.load(fh)
        data["integration"]["t_final"] = 1e12
        code, err = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert code == 2
        assert err == [
            "error: integration: the run would record 10000000000001 samples "
            "of its 36-entry state, 2746582031 MiB, over the limit of 1024 MiB"
        ]
        # just inside the limit: record_every 1 at the largest whole sample count
        rows = MAX_SAMPLE_BYTES // (36 * 8)
        data["integration"].update(t_final=(rows - 1) * 1e-3, record_every=1)
        code, _ = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert code == 0
        data["integration"]["t_final"] = rows * 1e-3
        code, _ = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert code == 2

    @pytest.mark.parametrize("name", ["square_known", "square_adaptive"])
    def test_record_every_beyond_int64(self, tmp_path, name):
        """A recording interval of 2**63, past int64 and past the run's
        steps, records t = 0 and t_final only."""
        with open(bundled_scenario(name)) as fh:
            data = json.load(fh)
        data["integration"]["record_every"] = 2**63
        out = tmp_path / "out"
        argv = ["run", write_scenario(tmp_path, data), "--t-final", "0.2", "--out", str(out)]
        assert _main_stderr(argv) == (0, [])
        with open(out / "trajectory.csv", newline="") as fh:
            times = [float(row["t"]) for row in csv.DictReader(fh)]
        assert times == [0.0, 0.2]

    @pytest.mark.parametrize(
        "name, flags, mode, limit",
        [
            # these two ran to err_p = 1.041e+93 and 2.570e+11 with exit 0
            ("square_adaptive", ["--h", "0.3", "--t-final", "60"],
             "the closed-loop eigenvalue lambda = -10.57+0j", "0.2635"),
            ("square_known", ["--h", "1", "--t-final", "100"],
             "the closed-loop eigenvalue lambda = -3+0j", "0.9284"),
            # 20 rad/s on follower 3 allows h < 2 sqrt 2 / 20, below the
            # 0.9284 of lambda = -3
            ("square_known_20", ["--h", "0.2", "--t-final", "100"],
             "the disturbance frequency omega = 20", "0.1414"),
        ],
        ids=["adaptive-h0.3", "known-h1", "omega-h0.2"],
    )
    def test_step_outside_rk4_stability_rejected(self, tmp_path, name, flags, mode, limit):
        """A step with which RK4 grows a closed-loop mode, |R(h lambda)|
        >= 1, or a disturbance mode, |h omega| >= 2 sqrt 2, is rejected
        with one line naming the mode that allows the smallest step."""
        with open(bundled_scenario(name.removesuffix("_20"))) as fh:
            data = json.load(fh)
        if name.endswith("_20"):
            data["disturbances"]["3"]["sinusoids"][0]["frequency"] = 20.0
        argv = ["run", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        h = flags[1]
        assert _main_stderr(argv + flags) == (
            2,
            [f"error: integration: step {h} is outside the stability region of "
             f"RK4 at {mode}, which allows steps below {limit}"],
        )
        below = ["--h", limit[:-1], "--t-final", limit[:-1]]
        assert _main_stderr(["validate", argv[1]] + below) == (0, [])

    def test_underflowed_mode_counts_as_damped(self, tmp_path):
        """A stable mode whose h lambda underflows, so that p = R(h lambda) - 1
        is 0, is one RK4 keeps bounded: at kappa_p = 5e-324 the slow root
        is -4.9e-324, and at kappa_p = 1e-300, kappa_v = 1e300 it is -0, and
        neither allows "steps below 0".  The mode that limits the step is
        named instead."""
        path = bundled_scenario("square_known")
        assert _main_stderr(["validate", path, "--kappa-p", "5e-324"]) == (0, [])
        out = tmp_path / "out"
        argv = ["run", path, "--kappa-p", "5e-324", "--t-final", "5", "--out", str(out)]
        assert _main_stderr(argv) == (0, [])
        with open(out / "metrics.json") as fh:
            assert json.load(fh)["terminal_err_p"] < 1e-2
        flags = ["--kappa-p", "1e-300", "--kappa-v", "1e300"]
        assert _main_stderr(["validate", path] + flags) == (
            2,
            ["error: integration: step 0.001 is outside the stability region of "
             "RK4 at the closed-loop eigenvalue lambda = -2.707e+300+0j, which "
             "allows steps below 1.029e-300"],
        )
        adaptive = ["validate", bundled_scenario("square_adaptive"), "--kappa-p", "5e-324"]
        code, err = _main_stderr(adaptive)
        assert code == 2 and len(err) == 1 and err[0].startswith("error: certificate: ")

    def test_laplacian_size_bound_names_the_size(self, tmp_path):
        """A formation whose dense bearing Laplacian, (n d)^2 entries, would
        exceed MAX_SAMPLE_BYTES is rejected before it is allocated (100 000
        agents need 298 GiB); n d = 11 585 is the largest it admits, which a
        dimension of 1 then fails in the graph check."""
        data = base_scenario_dict()
        data["graph"].update(n_agents=100_000, edges=[[1, 2], [1, 3], [2, 3]])
        data["geometry"]["desired_bearings"] = [
            {"edge": [1, 2], "bearing": [-1, 0]},
            {"edge": [1, 3], "bearing": [0, -1]},
            {"edge": [2, 3], "bearing": [0, -1]},
        ]
        del data["geometry"]["desired_positions"]["3"]
        del data["geometry"]["desired_positions"]["4"]
        assert _main_stderr(["validate", write_scenario(tmp_path, data)]) == (
            2,
            ["error: graph: the bearing Laplacian of 100000 agents in dimension 2 "
             "would take 305175 MiB, over the limit of 1024 MiB"],
        )
        assert 11_585**2 * 8 <= MAX_SAMPLE_BYTES < 11_586**2 * 8
        data["graph"].update(n_agents=11_585, dimension=1)
        assert _main_stderr(["validate", write_scenario(tmp_path, data)]) == (
            2, ["error: graph: need dimension >= 2, got d=1"]
        )
        data["graph"]["n_agents"] = 11_586
        code, err = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert code == 2 and err[0].startswith("error: graph: the bearing Laplacian")

    def test_step_bound_names_the_count(self, tmp_path):
        """validate rejects a run of more than MAX_STEPS steps even when it
        records few samples, and names the count and the limit."""
        with open(bundled_scenario("square_known")) as fh:
            data = json.load(fh)
        data["integration"].update(t_final=1e12, record_every=10**16)
        code, err = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert code == 2
        assert err == [
            "error: integration: the run would take 1000000000000000 steps, "
            f"over the limit of {MAX_STEPS}"
        ]
        data["integration"].update(t_final=MAX_STEPS * 1e-3, record_every=10**6)
        code, _ = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert code == 0
        data["integration"]["t_final"] = (MAX_STEPS + 1) * 1e-3
        code, _ = _main_stderr(["validate", write_scenario(tmp_path, data)])
        assert code == 2


def _mutation_sites(node, path=()):
    """(droppable keys, replaceable scalar leaves, objects of named fields)
    at and below node, as paths.  An object keyed by agent ids is not one of
    named fields."""
    keys, leaves, objects = [], [], []
    if isinstance(node, dict) and not all(k.isdigit() for k in node):
        objects.append(path)
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            keys.append(path + (key,))
        if isinstance(value, (dict, list)):
            k, l, o = _mutation_sites(value, path + (key,))
            keys += k
            leaves += l
            objects += o
        else:
            leaves.append(path + (key,))
    return keys, leaves, objects


def _bundled_sites():
    keys, leaves, objects = [], [], []
    for name in ("square_known", "square_adaptive"):
        with open(bundled_scenario(name)) as fh:
            k, l, o = _mutation_sites(json.load(fh))
        keys += [(name, p) for p in k]
        leaves += [(name, p) for p in l]
        objects += [(name, p) for p in o]
    return keys, leaves, objects


_KEYS, _LEAVES, _OBJECTS = _bundled_sites()
_UNKNOWN = object()              # insert a field that no scenario object has
# 1e200 reaches overflow in the disturbance realization and the geometry,
# 1e308 in a gain's product with lambda_max(B_ff), and 2**63 is past int64;
# MAX_STEPS and MAX_SAMPLE_BYTES keep a huge t_final or record_every cheap;
# a step of 1.0 is outside RK4's stability region on both squares
_REPLACEMENTS = [
    "x", None, [], [1.0, 2.0], {}, {"a": 1}, True, False,
    float("nan"), float("inf"), float("-inf"), 0, 0.0, -1, -2.5, 1e200,
    1e308, 2**63, 1.0,
]


@dataclasses.dataclass(frozen=True)
class _Nested:
    """Empty JSON lists nested depth deep, written into the file as text
    (json.dump would recurse once per level)."""

    depth: int

    def text(self):
        return "[" * self.depth + "]" * self.depth


# 900 levels parse and reach the scenario's readers; 100 000 exceed the
# parser's recursion limit
_NESTINGS = [_Nested(900), _Nested(100_000)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from(_KEYS), st.just(_DROP)),
        st.tuples(st.sampled_from(_LEAVES), st.sampled_from(_REPLACEMENTS)),
        st.tuples(st.sampled_from(_OBJECTS), st.just(_UNKNOWN)),
        st.tuples(st.sampled_from(_KEYS), st.sampled_from(_NESTINGS)),
    )
)
@example((("square_known", ("graph",)), _Nested(100_000)))
@example((("square_known", ("geometry", "leader_velocity")), _Nested(900)))
def test_fuzz_mutated_bundled_scenario(mutation):
    """validate on a bundled scenario with one key dropped, one leaf
    replaced, one unknown field inserted or one value replaced by deeply
    nested lists exits 0 or 2, never raises, and writes at most one stderr
    line; an unknown field always exits 2 and is named, and deep nesting
    always exits 2."""
    (name, path), value = mutation
    with open(bundled_scenario(name)) as fh:
        data = json.load(fh)
    if value is _UNKNOWN:
        _mutate(data, path + ("not_a_field",), 1.0)
    else:
        _mutate(data, path, "@nested@" if isinstance(value, _Nested) else value)
    text = json.dumps(data)
    if isinstance(value, _Nested):
        text = text.replace('"@nested@"', value.text())
    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "s.json")
        with open(scenario, "w") as fh:
            fh.write(text)
        code, err = _main_stderr(["validate", scenario])
    assert code in (0, 2)
    assert len(err) <= 1
    if value is _UNKNOWN:
        assert code == 2 and "unknown field 'not_a_field'" in err[0]
    if isinstance(value, _Nested):
        assert code == 2 and len(err[0]) < 200
