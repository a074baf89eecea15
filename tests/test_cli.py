import json
import tracemalloc

import numpy as np
import pytest

from entcov.cli import _flip_midpoints, _write_csv, build_parser, main
from entcov.criterion import (CriterionGrid, correlation_data_from_state, criterion_matrix,
                              detect)
from entcov.observables import (collective_spin_set, hp_quadrature_block, hp_quadrature_set,
                                pauli_product_set, rotate_so3)
from entcov.reference import PptGrid
from entcov.states import (GRID_CHUNK_BYTES, PureStateStack, WernerState, bell_state,
                           product_state, spin_coherent_x, spin_ensemble_state,
                           szsz_evolve_blocks, werner_mix)


ROTATE_45Z = ["0.7071067811865476", "0.7071067811865476", "0", "-0.7071067811865476",
              "0.7071067811865476", "0", "0", "0", "1"]


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

    def test_rows_are_the_per_mu_reports(self, tmp_path):
        # one detect call of the stacked matrices gives each mu's own report, bit for bit
        out = tmp_path / "wb.csv"
        assert main(["werner-bell", "--mu-steps", "41", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        for row, mu in zip(rows, np.linspace(0.0, 1.0, 41), strict=True):
            report = detect(criterion_matrix(werner_mix(bell_state(), mu), pauli_product_set()))
            assert float(row["mu"]) == mu
            assert [float(row[f"eig_{k + 1}"]) for k in range(3)] == report.eigenvalues.tolist()
            assert float(row["det"]) == report.determinant
            assert row["verdict"] == report.verdict

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

    @pytest.mark.parametrize("criteria", ["cm,ds", "ds"])
    def test_cm_ds_sweep_forms_one_gram(self, tmp_path, monkeypatch, criteria):
        # ds reads the sextet's Gram matrices: one call of all n_t states
        import entcov.criterion

        gram_states, gram = [], entcov.criterion._centered_gram

        def counting_gram(psis, *args, **kwargs):
            gram_states.append(len(psis))
            return gram(psis, *args, **kwargs)

        monkeypatch.setattr(entcov.criterion, "_centered_gram", counting_gram)
        argv = ["spin-ensemble", "--m", "20", "--mu-min", "0.5", "--mu-steps", "3",
                "--t-steps", "17", "--criteria", criteria, "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        assert gram_states == [17]

    @pytest.mark.parametrize("m", [1, 2, 20])
    @pytest.mark.parametrize("rotate", [False, True])
    def test_ds_columns_match_quadrature_set(self, tmp_path, m, rotate):
        out = tmp_path / "s.csv"
        argv = ["spin-ensemble", "--m", str(m), "--mu-min", "0.4", "--mu-steps", "3",
                "--t-steps", "9", "--t-max", "0.4", "--criteria", "cm,ds", "--out", str(out)]
        spin = collective_spin_set(m)
        if rotate:
            argv += ["--rotate", *ROTATE_45Z]
            spin = rotate_so3(spin, np.array([float(x) for x in ROTATE_45Z]).reshape(3, 3))
        assert main(argv) == 0
        _, rows = read_rows(out)
        quads = hp_quadrature_set(m, spin_set=spin)
        c = spin_coherent_x(m)
        mus = np.linspace(0.4, 1.0, 3)
        states, = szsz_evolve_blocks(product_state(c, c), np.linspace(0.0, 0.4, 9))
        cm_grid = CriterionGrid(spin)
        cm_grid.add(states)
        grid = cm_grid.matrices(mus)
        points = [(i, mu, j) for i, mu in enumerate(mus) for j in range(9)]
        for row, (i, mu, j) in zip(rows, points, strict=True):
            cm = detect(grid[i, j])
            assert [float(row[f"cm_eig_{k + 1}"]) for k in range(6)] == cm.eigenvalues.tolist()
            assert float(row["cm_det"]) == cm.determinant
            assert row["cm_verdict"] == cm.verdict
            c_ds = criterion_matrix(WernerState(states[j], mu), quads)
            ds = detect(c_ds)
            bound = 1e-12 * max(1.0, np.linalg.norm(c_ds, 2))
            assert abs(float(row["ds_min_eig"]) - ds.min_eigenvalue) <= bound
            assert row["ds_verdict"] == ds.verdict

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

    def test_sweep_memory_does_not_grow_with_t_steps(self, tmp_path):
        # the t grid is evolved and reduced block by block: from 8 to 128 steps
        # at M = 60 a sweep holding every amplitude row grew by 120 rows
        # (7.9 MB); the bound is a quarter of one row per extra t
        dim = 61 ** 2
        peaks = []
        for steps in ("8", "8", "128"):
            argv = ["spin-ensemble", "--m", "60", "--t-steps", steps, "--criteria", "cm,ds,ppt",
                    "--out", str(tmp_path / "s.csv")]
            tracemalloc.start()
            try:
                code = main(argv)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        # the first call is the warm-up: first-call caches are not the sweep's memory
        assert peaks[2] - peaks[1] < 120 * dim * 16 / 4

    def test_block_boundaries_change_no_bit(self, tmp_path, monkeypatch):
        # 100 steps at M = 20 span three blocks; every cell equals the grids
        # of the whole stack of evolved states, added as one block, bit for bit
        import entcov.criterion

        gram_states, gram = [], entcov.criterion._centered_gram

        def counting_gram(psis, *args, **kwargs):
            gram_states.append(len(psis))
            return gram(psis, *args, **kwargs)

        monkeypatch.setattr(entcov.criterion, "_centered_gram", counting_gram)
        out = tmp_path / "s.csv"
        argv = ["spin-ensemble", "--m", "20", "--mu-min", "0.6", "--mu-steps", "2",
                "--t-steps", "100", "--t-max", "0.4", "--criteria", "cm,ds,ppt",
                "--out", str(out)]
        assert main(argv) == 0
        block = GRID_CHUNK_BYTES // (21 ** 2 * 16)
        assert len(gram_states) >= 3
        assert gram_states == [block] * (100 // block) + [100 % block]
        _, rows = read_rows(out)
        c = spin_coherent_x(20)
        mus = np.linspace(0.6, 1.0, 2)
        blocks = szsz_evolve_blocks(product_state(c, c), np.linspace(0.0, 0.4, 100))
        states = PureStateStack(21, 21, np.concatenate([b.amplitudes for b in blocks]))
        cm_grid, ppt_grid = CriterionGrid(collective_spin_set(20)), PptGrid()
        cm_grid.add(states)
        ppt_grid.add(states)
        grid, ppt = cm_grid.matrices(mus), ppt_grid.min_eigenvalues(mus)
        cells = [(cm, ds, ppt_ij)
                 for grid_mu, ppt_mu in zip(grid, ppt)
                 for cm, ds, ppt_ij in zip(detect(grid_mu).eigenvalues,
                                           detect(hp_quadrature_block(grid_mu, 20)).eigenvalues,
                                           ppt_mu)]
        for row, (cm, ds, ppt_ij) in zip(rows, cells, strict=True):
            assert [float(row[f"cm_eig_{k + 1}"]) for k in range(6)] == cm.tolist()
            assert float(row["ds_min_eig"]) == ds[0]
            assert float(row["ppt_min_eig"]) == ppt_ij

    def test_repeated_criterion_rejected_before_any_state(self, tmp_path, capsys, monkeypatch):
        import entcov.cli

        def refuse(*args, **kwargs):
            raise AssertionError("states evolved before the criteria were checked")

        monkeypatch.setattr(entcov.cli, "szsz_evolve_blocks", refuse)
        out = tmp_path / "x.csv"
        argv = ["spin-ensemble", "--m", "2", "--t-steps", "2", "--criteria", "cm,ds,cm",
                "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert "criterion 'cm' is repeated" in capsys.readouterr().err

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

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
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
        "field, value", [("means", [float("nan"), 0.0]), ("labels", ["a", "a"]),
                         ("labels", "ab"), ("partition", "AB"), ("pt_parity", 1)]
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

    @pytest.mark.parametrize("labels, partition, v, omega, lowest", [
        # both members on A, a commutator no pair of variances of 0.1 allows
        (["x_A", "p_A"], ["A", "A"], [[0.1, 0.0], [0.0, 0.1]], [[0.0, 2.0], [-2.0, 0.0]],
         "-0.9"),
        (["x_A", "x_B"], ["A", "B"], [[-1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]],
         "-1"),
    ], ids=["commutator-beyond-variances", "negative-variance"])
    def test_uncertainty_relation_violation_rejected(self, tmp_path, capsys, labels, partition,
                                                     v, omega, lowest):
        # both records were certified ENTANGLED, though no state produces them
        payload = {"labels": labels, "partition": partition, "pt_parity": [1, 1],
                   "means": [0.0, 0.0], "V": v, "Omega": omega}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["from-data", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert (f"uncertainty relation violated: V + (i/2) Omega has minimum eigenvalue "
                f"{lowest};") in captured.err

    def test_small_scale_violation_rejected(self, tmp_path, capsys):
        # V = diag(-5e-11, 1e-12): the scale floor of 1 let it through, and
        # with --tol 1e-12 it was certified ENTANGLED
        payload = {"labels": ["x_A", "x_B"], "partition": ["A", "B"], "pt_parity": [1, 1],
                   "means": [0.0, 0.0], "V": [[-5e-11, 0.0], [0.0, 1e-12]],
                   "Omega": [[0.0, 0.0], [0.0, 0.0]]}
        path = tmp_path / "small.json"
        path.write_text(json.dumps(payload))
        assert main(["from-data", "--input", str(path), "--tol", "1e-12"]) == 2
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert "uncertainty relation violated" in captured.err

    @pytest.mark.parametrize("top, name", [([1, 2], "list"), ("text", "str"), (3.5, "float"),
                                           (None, "NoneType")])
    def test_non_object_top_level_rejected_by_name(self, tmp_path, capsys, top, name):
        path = tmp_path / "top.json"
        path.write_text(json.dumps(top))
        assert main(["from-data", "--input", str(path)]) == 2
        assert f"correlation data must be a JSON object, got {name}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag, value, name", [
        ("--ew-t0", "nan", "ew_t0"), ("--ew-t0", "inf", "ew_t0"), ("--ew-decay", "2", "ew_decay"),
    ])
    def test_witness_settings_of_a_sweep_without_ew(self, tmp_path, capsys, monkeypatch,
                                                    flag, value, name):
        # they land in the config line, so they are checked whatever the criteria,
        # and before any state is evolved
        import entcov.cli

        def refuse(*args, **kwargs):
            raise AssertionError("states evolved before the settings were checked")

        monkeypatch.setattr(entcov.cli, "szsz_evolve_blocks", refuse)
        out = tmp_path / "x.csv"
        argv = ["spin-ensemble", "--m", "2", "--t-steps", "2", "--criteria", "cm",
                flag, value, "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert f"{name}: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_witness_time(self, tmp_path, capsys, value):
        out = tmp_path / "w.csv"
        assert main(["witness", "--m", "1", f"--t={value}", "--out", str(out)]) == 2
        assert not out.exists()
        assert f"--t must be finite, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, seed", [
        (["witness", "--m", "1"], "-1"),
        (["spin-ensemble", "--m", "2", "--t-steps", "2", "--criteria", "cm,ew"], "-3"),
        (["spin-ensemble", "--m", "2", "--t-steps", "2", "--criteria", "cm"], "-3"),
        (["uncertainty-suite", "--trials", "3"], "-1"),
    ])
    def test_negative_seed(self, capsys, monkeypatch, command, seed):
        import entcov.cli

        def refuse(*args, **kwargs):
            raise AssertionError("states evolved before the seed was checked")

        for name in ("szsz_evolve_blocks", "spin_ensemble_state", "witness_optimize",
                     "run_property_battery"):
            monkeypatch.setattr(entcov.cli, name, refuse)
        assert main([*command, f"--seed={seed}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"seed must be >= 0, got {seed}" in captured.err


class TestSweepSettings:
    """A sweep setting out of range is rejected by name before any output is written."""

    @pytest.mark.parametrize("flags, message", [
        (["--t-steps", "0"], "t grid needs at least 1 step"),
        (["--t-min", "1", "--t-max", "0"], "t grid has min 1.0 > max 0.0"),
        (["--criteria", "xx"], "unknown criterion 'xx'; choose from cm,ds,ppt,ew"),
        (["--jobs", "0"], "jobs must be >= 1"),
        (["--m", "0"], "ensemble size must be >= 1"),
    ], ids=["t-steps-0", "t-min-above-max", "unknown-criterion", "jobs-0", "m-0"])
    def test_rejected_by_name(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.csv"
        assert main(["spin-ensemble", "--m", "2", "--t-steps", "2", *flags,
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert not out.exists() and captured.out == ""
        assert message in captured.err


class TestOtherCommands:
    def test_csv_to_stdout_without_out(self, tmp_path, capsys):
        out = tmp_path / "wb.csv"
        assert main(["werner-bell", "--mu-steps", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["werner-bell", "--mu-steps", "5"]) == 0
        printed = capsys.readouterr().out
        # the same CSV but for the out entry of its config line, then the flip comment
        csv = out.read_text().replace(json.dumps(str(out)), "null")
        assert printed == csv + "verdict flip at mu = 0.375\n"

    def test_linalg_failure_is_numerical_exit(self, tmp_path, capsys, monkeypatch):
        import entcov.cli

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(entcov.cli, "detect", fail)
        out = tmp_path / "wb.csv"
        assert main(["werner-bell", "--mu-steps", "3", "--out", str(out)]) == 3
        assert not out.exists()
        assert "numerical failure: Eigenvalues did not converge" in capsys.readouterr().err

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

    def test_witness_csv_row_is_the_stdout_result(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert main(["witness", "--m", "1", "--sweeps", "1", "--out", str(out)]) == 0
        printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines()[:3])
        header, rows = read_rows(out)
        assert header[:3] == ["min_expectation", "feasibility_residual", "iterations"]
        assert len(header) == 19 and len(rows) == 1
        assert rows[0]["iterations"] == "15"
        assert {name: rows[0][name] for name in header[:3]} == printed

    def test_witness_cap(self):
        assert main(["witness", "--m", "20"]) == 2

    def test_usage_errors(self):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1
        assert main(["spin-ensemble"]) == 1  # missing required --m

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestParserReuse:
    """One parser per process: each call parses into a fresh namespace."""

    def sweep(self, out, *flags):
        return main(["spin-ensemble", "--m", "2", "--t-steps", "3", *flags, "--out", str(out)])

    def test_two_calls_build_one_parser(self, tmp_path):
        build_parser.cache_clear()
        assert self.sweep(tmp_path / "a.csv") == 0
        assert self.sweep(tmp_path / "b.csv", "--criteria", "cm,ds") == 0
        assert build_parser.cache_info().misses == 1
        assert build_parser() is build_parser()

    def test_no_option_carries_over(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert self.sweep(first, "--rotate", *ROTATE_45Z, "--criteria", "cm,ds",
                          "--seed", "5", "--mu-min", "0.5") == 0
        assert self.sweep(second) == 0
        config = read_config(second)
        assert config["rotate"] is None
        assert config["criteria"] == ["cm"]
        assert config["seed"] == 0
        assert config["mu_grid"] == [1.0, 1.0, 1]
        assert read_config(first)["rotate"] == [float(x) for x in ROTATE_45Z]

    def test_usage_error_leaves_next_call_intact(self, tmp_path):
        fresh = tmp_path / "fresh.csv"
        assert self.sweep(fresh, "--rotate", *ROTATE_45Z) == 0
        after = tmp_path / "after.csv"
        assert main(["spin-ensemble", "--m", "2", "--t-steps", "x"]) == 1
        assert main(["spin-ensemble", "--rotate", "1", "0"]) == 1
        assert self.sweep(after, "--rotate", *ROTATE_45Z) == 0
        # the same bytes but for the out path in the config line
        assert after.read_text() == fresh.read_text().replace(str(fresh), str(after))


# values no sweep reaches: signed zero, the smallest subnormal and normal,
# the largest finite float, one, the infinities and nan
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1.0,
               np.inf, -np.inf, np.nan]


class TestWriteCsv:
    """Every numeric cell has the bytes of format(x, ".17g"), verdicts are
    written as they are."""

    def write(self, tmp_path, columns):
        out = tmp_path / "t.csv"
        _write_csv(out, {"experiment": "TEST"}, [], columns)
        return read_rows(out)

    def test_one_row(self, tmp_path):
        columns = {f"x{i}": [x] for i, x in enumerate(EDGE_FLOATS)}
        header, rows = self.write(tmp_path, columns)
        assert header == list(columns)
        assert rows == [{name: format(x, ".17g") for name, x in zip(header, EDGE_FLOATS)}]

    def test_many_rows_with_verdicts(self, tmp_path):
        rng = np.random.default_rng(3)
        x = np.resize(EDGE_FLOATS, 200)
        y = rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200)
        verdict = np.where(rng.random(200) < 0.5, "ENTANGLED", "UNDETECTED")
        header, rows = self.write(tmp_path, {"x": x, "verdict": verdict, "y": y})
        assert header == ["x", "verdict", "y"]
        assert rows == [{"x": format(a, ".17g"), "verdict": v, "y": format(b, ".17g")}
                        for a, v, b in zip(x.tolist(), verdict.tolist(), y.tolist())]


def test_flip_midpoints_equal_cell_by_cell_scan():
    rng = np.random.default_rng(5)
    for n in [1, 2, 3, 31, 200]:
        xs = np.sort(rng.normal(size=n))
        for flags in (rng.random(n) < 0.5, np.zeros(n, bool), np.arange(n) >= n // 2):
            scan = [0.5 * (xs[i - 1] + xs[i]) for i in range(1, n) if flags[i] != flags[i - 1]]
            assert np.array(_flip_midpoints(xs, flags)).tobytes() == np.array(scan).tobytes()
