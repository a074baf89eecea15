import json
import tracemalloc

import numpy as np
import pytest

from entcov.cli import main
from entcov.criterion import correlation_data_from_state
from entcov.observables import collective_spin_set
from entcov.states import spin_ensemble_state, werner_mix


def read_config(path):
    line = next(l for l in path.read_text().splitlines() if l.startswith("# config: "))
    return json.loads(line[len("# config: "):])


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestWernerBell:
    def test_sweep_csv_and_flip_bracket(self, tmp_path):
        out = tmp_path / "wb.csv"
        code = main(["werner-bell", "--mu-steps", "201", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["mu", "eig_1", "eig_2", "eig_3", "det", "verdict"]
        assert len(rows) == 201
        detected = [float(r["mu"]) for r in rows if r["verdict"] == "ENTANGLED"]
        undetected = [float(r["mu"]) for r in rows if r["verdict"] == "UNDETECTED"]
        assert max(undetected) < 1 / 3 < min(detected)
        assert min(detected) - max(undetected) == pytest.approx(0.005, abs=1e-12)

    def test_byte_identical_across_runs(self, tmp_path):
        out = tmp_path / "a.csv"
        argv = ["werner-bell", "--mu-steps", "41", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_invalid_grid_is_validation_error(self, tmp_path):
        code = main(["werner-bell", "--mu-max", "1.5", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_config_holds_only_its_own_settings(self, tmp_path):
        out = tmp_path / "wb.csv"
        assert main(["werner-bell", "--mu-steps", "5", "--out", str(out)]) == 0
        assert read_config(out) == {
            "experiment": "WERNER_BELL", "mu_grid": [0.0, 1.0, 5],
            "tolerance": 1e-9, "out": str(out),
        }


class TestSpinEnsemble:
    def test_small_sweep_columns(self, tmp_path):
        out = tmp_path / "spin.csv"
        code = main(
            ["spin-ensemble", "--m", "2", "--t-steps", "9", "--t-max", "0.4",
             "--criteria", "cm,ds,ppt", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header[:2] == ["mu", "t"]
        assert "cm_verdict" in header and "ds_det" in header and "ppt_min_eig" in header
        assert len(rows) == 9
        t0 = rows[0]
        assert t0["cm_verdict"] == "UNDETECTED"
        assert float(t0["ppt_min_eig"]) >= -1e-10

    def test_rotation_flag_preserves_cm_window(self, tmp_path):
        base, rot = tmp_path / "base.csv", tmp_path / "rot.csv"
        r = ["0.7071067811865476", "0.7071067811865476", "0",
             "-0.7071067811865476", "0.7071067811865476", "0", "0", "0", "1"]
        assert main(["spin-ensemble", "--m", "3", "--t-steps", "13",
                     "--criteria", "cm", "--out", str(base)]) == 0
        assert main(["spin-ensemble", "--m", "3", "--t-steps", "13",
                     "--criteria", "cm", "--rotate", *r, "--out", str(rot)]) == 0
        _, rows_a = read_rows(base)
        _, rows_b = read_rows(rot)
        for ra, rb in zip(rows_a, rows_b):
            assert ra["cm_verdict"] == rb["cm_verdict"]
            assert float(ra["cm_eig_1"]) == pytest.approx(float(rb["cm_eig_1"]), abs=1e-9)

    @pytest.mark.parametrize("rotate", [False, True])
    def test_criteria_sweep_builds_no_dense_state(self, tmp_path, monkeypatch, rotate):
        def refuse(*args, **kwargs):
            raise AssertionError("dense Werner state built by a cm,ds,ppt sweep")

        # werner_mix and as_matrix both build through WernerState.density()
        monkeypatch.setattr("entcov.cli.werner_mix", refuse)
        monkeypatch.setattr("entcov.states.WernerState.density", refuse)
        argv = ["spin-ensemble", "--m", "3", "--mu-min", "0.5", "--mu-steps", "2",
                "--t-steps", "5", "--criteria", "cm,ds,ppt", "--out", str(tmp_path / "s.csv")]
        if rotate:
            argv += ["--rotate", "0", "1", "0", "-1", "0", "0", "0", "0", "1"]
        assert main(argv) == 0
        _, rows = read_rows(tmp_path / "s.csv")
        assert len(rows) == 10

    @pytest.mark.parametrize("rotate", [False, True])
    def test_byte_identical_across_runs(self, tmp_path, rotate):
        out = tmp_path / "s.csv"
        argv = ["spin-ensemble", "--m", "20", "--mu-min", "0.5", "--mu-steps", "2",
                "--t-steps", "11", "--t-max", "0.3", "--criteria", "cm,ds,ppt",
                "--out", str(out)]
        if rotate:
            argv += ["--rotate", "0.6", "0.8", "0", "-0.8", "0.6", "0", "0", "0", "1"]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_ensemble_amplitudes_built_once_per_sweep(self, tmp_path, monkeypatch):
        import entcov.cli
        import entcov.states

        calls = []
        original = entcov.states.spin_coherent_x

        def counting(m):
            calls.append(m)
            return original(m)

        for module in (entcov.states, entcov.cli):
            monkeypatch.setattr(module, "spin_coherent_x", counting, raising=False)
        argv = ["spin-ensemble", "--m", "20", "--t-steps", "50", "--criteria", "cm,ds",
                "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        assert calls == [20]

    def test_region_map_batches_svd_and_gram(self, tmp_path, monkeypatch):
        # one SVD per sweep, and every psi's Gram matrix built once whatever
        # the number of mu steps
        import entcov.criterion

        svd_calls, gram_states = [], []
        svd, gram = np.linalg.svd, entcov.criterion._centered_gram

        def counting_svd(a, *args, **kwargs):
            svd_calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def counting_gram(psis, *args, **kwargs):
            gram_states.append(len(psis))
            return gram(psis, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(entcov.criterion, "_centered_gram", counting_gram)
        for mu_steps in ("6", "2"):
            svd_calls.clear()
            gram_states.clear()
            argv = ["spin-ensemble", "--m", "20", "--mu-min", "0", "--mu-max", "1",
                    "--mu-steps", mu_steps, "--t-steps", "31", "--t-max", "0.3",
                    "--criteria", "cm,ppt", "--out", str(tmp_path / "r.csv")]
            assert main(argv) == 0
            assert svd_calls == [(31, 21, 21)]
            assert gram_states == [31]

    def test_region_map_memory_within_former_peak(self, tmp_path):
        # the map before the grid route peaked at 642 KB traced (643.8, 643.0
        # and 641.8 KB in three warm calls); the bound is set below that, not
        # fitted to the grid route
        argv = ["spin-ensemble", "--m", "20", "--mu-min", "0", "--mu-max", "1",
                "--mu-steps", "6", "--t-steps", "31", "--t-max", "0.3",
                "--criteria", "cm,ppt", "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 0  # warm: first-call caches are not the sweep's memory
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 640e3

    def test_config_keys(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["spin-ensemble", "--m", "2", "--t-steps", "2", "--out", str(out)]) == 0
        assert sorted(read_config(out)) == [
            "criteria", "ew_box", "ew_decay", "ew_sweeps", "ew_t0", "experiment", "jobs",
            "m", "mu_grid", "out", "rotate", "seed", "t_grid", "tolerance",
        ]

    def test_criteria_sweep_memory_follows_operators_not_dimension(self, tmp_path):
        # at M = 40 one D x D complex matrix (D = 41^2) takes 45 MB
        argv = ["spin-ensemble", "--m", "40", "--t-steps", "3", "--criteria", "cm,ds",
                "--out", str(tmp_path / "s.csv")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16e6

    def test_large_m_sweep_product_state_undetected(self, tmp_path):
        # at M = 400 (D = 401^2) one D x D complex matrix would take 414 GB;
        # the t = 0 row is a product state, so neither criterion may fire
        out = tmp_path / "s.csv"
        argv = ["spin-ensemble", "--m", "400", "--t-steps", "3", "--criteria", "cm,ds,ppt",
                "--out", str(out)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 170e6
        _, rows = read_rows(out)
        assert [float(r["t"]) for r in rows] == [0.0, 0.25, 0.5]
        assert rows[0]["cm_verdict"] == "UNDETECTED"
        assert rows[0]["ds_verdict"] == "UNDETECTED"
        assert float(rows[0]["ppt_min_eig"]) >= -1e-10
        assert all(float(r["ppt_min_eig"]) < 0 for r in rows[1:])

    def test_witness_cap_error(self, tmp_path):
        code = main(["spin-ensemble", "--m", "20", "--criteria", "ew",
                     "--t-steps", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.slow
    def test_witness_column_seeded(self, tmp_path):
        out = tmp_path / "ew.csv"
        code = main(
            ["spin-ensemble", "--m", "1", "--t-steps", "2", "--t-max", "0.3",
             "--criteria", "cm,ew", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_rows(out)
        assert "ew_min_expectation" in header
        assert all(float(r["ew_residual"]) <= 1e-6 for r in rows)

    def test_jobs_capped_at_witness_points(self, tmp_path, monkeypatch):
        requested = []

        class SerialPool:
            """Records the worker count and maps in this process."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("entcov.cli.ProcessPoolExecutor", SerialPool)
        argv = ["spin-ensemble", "--m", "1", "--t-steps", "2", "--criteria", "ew",
                "--ew-sweeps", "1"]
        assert main(argv + ["--jobs", "10000", "--out", str(tmp_path / "many.csv")]) == 0
        assert requested and max(requested) <= 2
        assert main(argv + ["--jobs", "1", "--out", str(tmp_path / "one.csv")]) == 0
        _, many = read_rows(tmp_path / "many.csv")
        _, one = read_rows(tmp_path / "one.csv")
        assert len(many) == 2
        assert many == one


class TestFromData:
    def export(self, tmp_path, m=2, mu=1.0, t=0.3):
        rho = werner_mix(spin_ensemble_state(m, t), mu)
        data = correlation_data_from_state(rho, collective_spin_set(m))
        path = tmp_path / "data.json"
        path.write_text(json.dumps(data.to_dict()))
        return rho, path

    def test_round_trip_verdict(self, tmp_path, capsys):
        _, path = self.export(tmp_path)
        assert main(["from-data", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: ENTANGLED" in out
        assert "min_eigenvalue:" in out

    def test_identity_data_undetected(self, tmp_path, capsys):
        payload = {
            "labels": ["a", "b"], "partition": ["A", "B"], "pt_parity": [1, 1],
            "means": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]],
            "Omega": [[0.0, 0.0], [0.0, 0.0]],
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(payload))
        assert main(["from-data", "--input", str(path)]) == 0
        assert "verdict: UNDETECTED" in capsys.readouterr().out

    def test_cross_partition_commutator_rejected(self, tmp_path):
        payload = {
            "labels": ["a", "b"], "partition": ["A", "B"], "pt_parity": [1, 1],
            "means": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]],
            "Omega": [[0.0, 0.3], [-0.3, 0.0]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["from-data", "--input", str(path)]) == 2

    @pytest.mark.parametrize(
        "field, value", [("means", [float("nan"), 0.0]), ("labels", ["a", "a"])]
    )
    def test_invalid_record_rejected_by_name(self, tmp_path, capsys, field, value):
        payload = {
            "labels": ["a", "b"], "partition": ["A", "B"], "pt_parity": [1, 1],
            "means": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]],
            "Omega": [[0.0, 0.0], [0.0, 0.0]],
        }
        payload[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["from-data", "--input", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [1.5, -1.7, True, "1"])
    def test_non_unit_parity_rejected(self, tmp_path, capsys, entry):
        _, path = self.export(tmp_path)
        payload = json.loads(path.read_text())
        payload["pt_parity"][4] = entry
        path.write_text(json.dumps(payload))
        assert main(["from-data", "--input", str(path)]) == 2
        assert "pt_parity entry" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        assert main(["from-data", "--input", str(path)]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert main(["from-data", "--input", str(tmp_path / "absent.json")]) == 2


class TestTolerance:
    """The verdict tolerance must be finite and positive, on every command."""

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_from_data_rejects_tolerance(self, tmp_path, capsys, tol):
        # the M = 2, t = 0 record is a product state: --tol -1 called it ENTANGLED
        rho = werner_mix(spin_ensemble_state(2, 0.0), 1.0)
        path = tmp_path / "data.json"
        data = correlation_data_from_state(rho, collective_spin_set(2))
        path.write_text(json.dumps(data.to_dict()))
        assert main(["from-data", "--input", str(path), f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert "tolerance must be finite and positive" in captured.err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["werner-bell", "--mu-steps", "3"],
        ["spin-ensemble", "--m", "1", "--t-steps", "2", "--criteria", "cm,ew"],
    ])
    def test_sweep_rejects_tolerance_before_any_witness(self, tmp_path, capsys, monkeypatch,
                                                        command, tol):
        import entcov.cli

        calls = []
        monkeypatch.setattr(entcov.cli, "witness_optimize", lambda *args: calls.append(args))
        out = tmp_path / "out.csv"
        assert main([*command, f"--tol={tol}", "--out", str(out)]) == 2
        assert not out.exists() and not calls
        assert "tolerance must be finite and positive" in capsys.readouterr().err


class TestNonFiniteInputs:
    """A NaN or Inf setting is rejected by name before any output is written."""

    @pytest.mark.parametrize("command, message", [
        (["werner-bell", "--mu-min", "nan"], "mu grid bounds must be finite"),
        (["spin-ensemble", "--m", "2", "--t-max", "nan"], "t grid bounds must be finite"),
        (["spin-ensemble", "--m", "2", "--t-max", "inf"], "t grid bounds must be finite"),
    ])
    def test_grid_bound(self, tmp_path, capsys, command, message):
        out = tmp_path / "x.csv"
        assert main([*command, "--out", str(out)]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("criteria", ["ds", "cm"])
    def test_rotation(self, tmp_path, capsys, criteria):
        # ds alone would otherwise write NaN, which is not JSON, into the config line
        out = tmp_path / "x.csv"
        argv = ["spin-ensemble", "--m", "2", "--t-steps", "2", "--criteria", criteria,
                "--rotate", "nan", "0", "0", "0", "1", "0", "0", "0", "1", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert "rotation matrix contains NaN or Inf" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [
        ("--t0", "nan", "t0"), ("--t0", "inf", "t0"), ("--box", "nan", "box_scale"),
    ])
    def test_witness_schedule(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "w.csv"
        argv = ["witness", "--m", "1", "--sweeps", "3", flag, value, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not out.exists() and "verdict" not in captured.out
        assert f"{name} must lie in (0, inf), got {value}" in captured.err


class TestOtherCommands:
    def test_uncertainty_suite_quick(self, capsys):
        assert main(["uncertainty-suite", "--trials", "25", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6

    @pytest.mark.slow
    def test_witness_command_with_csv(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code = main(
            ["witness", "--m", "1", "--mu", "1.0", "--t", "0.5", "--seed", "2",
             "--sweeps", "40", "--t0", "0.2", "--decay", "0.9", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header[0] == "min_expectation"
        assert len(rows) == 1
        assert "min_expectation:" in capsys.readouterr().out

    def test_witness_cap(self):
        assert main(["witness", "--m", "20"]) == 2

    def test_usage_errors(self):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1
        assert main(["spin-ensemble"]) == 1  # missing required --m

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
