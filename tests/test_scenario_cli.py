import copy
import csv
import json

import numpy as np
import pytest

from bearing_forge import bundled_scenario, cli
from bearing_forge.errors import ParseError, ValidationError
from bearing_forge.scenario import compile_scenario, load_scenario, parse_config

from conftest import base_scenario_dict


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestBundledScenarios:
    def test_square_known_loads(self):
        sc = load_scenario(bundled_scenario("square_known"))
        assert (sc.n, sc.d, sc.n_l, sc.mode) == (4, 2, 2, "known")
        np.testing.assert_allclose(
            sc.p_star0, [[0, 0], [1, 0], [1, 1], [0, 1]], atol=1e-10
        )

    def test_square_adaptive_loads(self):
        sc = load_scenario(bundled_scenario("square_adaptive"))
        assert sc.mode == "adaptive"
        assert sc.gains.kappa_v * np.linalg.eigvalsh(sc.laplacian.B_ff)[0] > 1


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
            compile_scenario(parse_config(data))

    def test_collinear_not_localizable(self):
        data = base_scenario_dict()
        data["geometry"]["desired_positions"] = {
            "1": [0, 0], "2": [1, 0], "3": [2, 0], "4": [3, 0]
        }
        with pytest.raises(ValidationError, match="NotLocalizable"):
            compile_scenario(parse_config(data))

    def test_feedback_only_rejects_disturbance(self):
        data = base_scenario_dict()
        data["controller"]["mode"] = "feedback_only"
        data["disturbances"] = {"3": {"constant": [0.1, 0.0]}}
        with pytest.raises(ValidationError, match="feedback_only"):
            compile_scenario(parse_config(data))

    def test_leader_must_start_at_target(self):
        data = base_scenario_dict()
        data["geometry"]["initial_positions"] = {"1": [0.5, 0.5]}
        with pytest.raises(ValidationError, match="leader"):
            compile_scenario(parse_config(data))

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
            compile_scenario(parse_config(data))

    def test_leaders_must_be_prefix(self):
        data = base_scenario_dict()
        data["graph"]["leaders"] = [1, 3]
        with pytest.raises(ValidationError, match="leaders"):
            parse_config(data)

    def test_disturbance_on_leader_rejected(self):
        data = base_scenario_dict()
        data["disturbances"] = {"1": {"constant": [0.1, 0.0]}}
        with pytest.raises(ValidationError, match="not a follower"):
            parse_config(data)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "graph": [,]\n}')
        with pytest.raises(ParseError, match="line 2"):
            load_scenario(str(path))

    def test_unknown_mode(self):
        data = base_scenario_dict()
        data["controller"]["mode"] = "mystery"
        with pytest.raises(ValidationError, match="mode"):
            parse_config(data)

    def test_adaptive_gain_gate(self):
        data = base_scenario_dict()
        data["controller"]["mode"] = "adaptive"  # kappa_v = 1 < 1/0.2929
        with pytest.raises(ValidationError, match="gain"):
            compile_scenario(parse_config(data))


class TestOverrides:
    def test_gain_override_revalidated(self, tmp_path):
        data = base_scenario_dict()
        data["controller"]["mode"] = "adaptive"
        data["controller"]["kappa_v"] = 4.0
        path = write_scenario(tmp_path, data)
        sc = load_scenario(path, {"kappa_v": 5.0})
        assert sc.gains.kappa_v == 5.0
        with pytest.raises(ValidationError):
            load_scenario(path, {"kappa_v": 0.1})

    def test_mode_and_t_final_overrides(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario_dict())
        sc = load_scenario(path, {"mode": "feedback_only", "t_final": 7.5})
        assert sc.mode == "feedback_only"
        assert sc.t_final == 7.5


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
        assert "spectral abscissa" in capsys.readouterr().out

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

    def test_determinism_byte_identical(self, tmp_path):
        path = self.run_scenario_file(tmp_path)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert cli.main(["run", path, "--out", out1]) == 0
        assert cli.main(["run", path, "--out", out2]) == 0
        b1 = (tmp_path / "r1" / "trajectory.csv").read_bytes()
        b2 = (tmp_path / "r2" / "trajectory.csv").read_bytes()
        assert b1 == b2

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
