import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcov.criterion import ENTANGLED, UNDETECTED, criterion_matrix, detect
from entcov.linalg import kron, partial_transpose
from entcov.observables import collective_spin_set, rotate_so3
from entcov.reference import (
    WITNESS_VERDICT_TOL,
    AnnealParams,
    PptGrid,
    WitnessResult,
    decomposable_split,
    duan_simon_report,
    ppt_min_eigenvalue,
    witness_operator,
    witness_optimize,
)
from entcov.states import (
    DensityMatrix,
    PureState,
    WernerState,
    bell_state,
    product_state,
    spin_coherent_x,
    spin_ensemble_state,
    werner_mix,
)

import oracles

FAST_ANNEAL = AnnealParams(t0=0.15, decay=0.95, sweeps=80)


class TestPptMinEigenvalue:
    def test_maximally_mixed(self):
        rho = DensityMatrix(2, 2, np.eye(4, dtype=complex) / 4)
        assert ppt_min_eigenvalue(rho) == pytest.approx(0.25)

    def test_bell_state(self):
        assert ppt_min_eigenvalue(bell_state().density()) == pytest.approx(-0.5)

    def test_werner_closed_form(self):
        # (1 - mu)/4 - mu/2 crosses zero at mu = 1/3
        for mu in np.linspace(0, 1, 11):
            rho = werner_mix(bell_state(), mu)
            assert ppt_min_eigenvalue(rho) == pytest.approx((1 - 3 * mu) / 4, abs=1e-12)

    def test_product_states_stay_positive(self, rng):
        for _ in range(200):
            da = int(rng.integers(2, 4))
            db = int(rng.integers(2, 4))
            psi = np.kron(oracles.random_pure(rng, da), oracles.random_pure(rng, db))
            rho = DensityMatrix(da, db, np.outer(psi, psi.conj()))
            assert ppt_min_eigenvalue(rho) >= -1e-12

    def test_dense_route_is_symmetrized_eigvalsh(self, rng):
        for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
            g = oracles.random_hermitian(rng, dim_a * dim_b)
            # a rounding-sized anti-Hermitian part that the eigensolve must drop
            m = oracles.random_density(rng, dim_a * dim_b) + 1e-14j * g
            sigma = partial_transpose(m, dim_a, dim_b, "B")
            expected = np.linalg.eigvalsh((sigma + sigma.conj().T) / 2)[0]
            assert ppt_min_eigenvalue(DensityMatrix(dim_a, dim_b, m)) == expected

    def test_raw_matrix_rejected(self):
        # a raw array carries no bipartition to transpose over
        with pytest.raises(TypeError, match="needs a PureState, WernerState or DensityMatrix, "
                                            "got ndarray"):
            ppt_min_eigenvalue(np.eye(4) / 4)

    def test_closed_form_product_state(self, rng):
        # a rank-1 amplitude matrix has s2 = 0 up to rounding
        for da, db in ((2, 3), (3, 3), (1, 3)):
            amps = np.kron(oracles.random_pure(rng, da), oracles.random_pure(rng, db))
            assert ppt_min_eigenvalue(PureState(da, db, amps)) >= -1e-14

    def test_closed_form_single_level(self):
        # the 1 x 1 space has no zero eigenvalue to pad the spectrum with
        psi = PureState(1, 1, np.ones(1, dtype=complex))
        for mu in (0.0, 0.5, 1.0):
            assert ppt_min_eigenvalue(WernerState(psi, mu)) == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 3), (3, 2), (3, 3), (1, 3), (3, 1)]),
    mu=st.floats(0.0, 1.0),
)
def test_closed_form_ppt_matches_dense_oracle(seed, dims, mu):
    rng = np.random.default_rng(seed)
    da, db = dims
    psi = PureState(da, db, oracles.random_pure(rng, da * db))
    # a PureState is the mu = 1 Werner mixture
    for state, weight in ((WernerState(psi, mu), mu), (psi, 1.0)):
        sigma = oracles.partial_transpose_loops(werner_mix(psi, weight).matrix, da, db)
        assert abs(ppt_min_eigenvalue(state) - np.linalg.eigvalsh(sigma)[0]) <= 1e-12


class TestPptGrid:
    def test_cells_equal_single_state_calls(self):
        psis = [spin_ensemble_state(20, t) for t in np.linspace(0.0, 0.3, 7)]
        mus = [0.0, 0.45, 1.0]
        ppt = PptGrid()
        # in two blocks, gathered in the order added
        ppt.add(psis[:3])
        ppt.add(psis[3:])
        grid = ppt.min_eigenvalues(mus)
        assert grid.shape == (3, 7)
        for i, mu in enumerate(mus):
            for j, psi in enumerate(psis):
                assert grid[i, j] == ppt_min_eigenvalue(WernerState(psi, mu))

    def test_rejects_states_of_another_shape(self):
        with pytest.raises(ValueError, match="share one shape"):
            PptGrid().add([spin_ensemble_state(2, 0.1), bell_state()])
        # and across the blocks of one grid
        grid = PptGrid()
        grid.add([spin_ensemble_state(2, 0.1)])
        with pytest.raises(ValueError, match="share one shape"):
            grid.add([bell_state()])


class TestDuanSimon:
    def test_product_state_undetected(self):
        m = 6
        rho = product_state(spin_coherent_x(m), spin_coherent_x(m)).density()
        assert duan_simon_report(rho, m).verdict == UNDETECTED

    def test_detects_inside_window(self):
        rho = werner_mix(spin_ensemble_state(6, 0.1), 1.0)
        assert duan_simon_report(rho, 6).verdict == ENTANGLED

    def test_window_matches_six_operator_criterion(self):
        m = 4
        evaluator_set = collective_spin_set(m)
        for t in np.linspace(0.0, 0.6, 13):
            rho = werner_mix(spin_ensemble_state(m, t), 1.0)
            cm = detect(criterion_matrix(rho, evaluator_set)).verdict
            ds = duan_simon_report(rho, m).verdict
            assert cm == ds

    def test_rotated_axes_detect_less(self):
        m = 6
        r = np.array([[1, 1, 0], [-1, 1, 0], [0, 0, np.sqrt(2)]]) / np.sqrt(2)
        rotated = rotate_so3(collective_spin_set(m), r)
        optimal, rotated_hits = 0, 0
        for t in np.linspace(0.01, 0.6, 25):
            rho = werner_mix(spin_ensemble_state(m, t), 1.0)
            if duan_simon_report(rho, m).verdict == ENTANGLED:
                optimal += 1
            if duan_simon_report(rho, m, spin_set=rotated).verdict == ENTANGLED:
                rotated_hits += 1
        assert 0 < rotated_hits < optimal


class TestDecomposableSplit:
    def test_psd_matrix_is_feasible(self, rng):
        w = oracles.random_hermitian(rng, 9)
        w = w @ w.conj().T / 9
        feasible, residual, _ = decomposable_split(w, 3, 3)
        assert feasible and residual <= 1e-8

    def test_transposed_psd_is_feasible(self, rng):
        q = oracles.random_hermitian(rng, 9)
        q = q @ q.conj().T / 9
        w = partial_transpose(q, 3, 3, "A")
        feasible, residual, _ = decomposable_split(w, 3, 3)
        assert feasible and residual <= 1e-8

    def test_sum_of_both_parts_is_feasible(self, rng):
        p = oracles.random_hermitian(rng, 9)
        p = p @ p.conj().T / 9
        q = oracles.random_hermitian(rng, 9)
        q = q @ q.conj().T / 9
        w = p + partial_transpose(q, 3, 3, "A")
        feasible, residual, cert = decomposable_split(w, 3, 3)
        assert feasible
        # the returned certificate must actually split w
        assert np.linalg.eigvalsh(cert)[0] >= -1e-7
        rest = partial_transpose(w - cert, 3, 3, "A")
        assert np.linalg.eigvalsh((rest + rest.conj().T) / 2)[0] >= -1e-7

    def test_negative_identity_is_infeasible(self):
        feasible, residual, _ = decomposable_split(-np.eye(9), 3, 3)
        assert not feasible
        assert residual > 1e-3

    def test_rejects_unequal_sides(self):
        with pytest.raises(ValueError):
            decomposable_split(np.eye(6), 2, 3)


@pytest.fixture(scope="module")
def entangled_run():
    """The seed-0 FAST_ANNEAL run on the M = 2, t = 0.3 pure state, made once
    for every test that reads it."""
    rho = werner_mix(spin_ensemble_state(2, 0.3), 1.0)
    return rho, witness_optimize(rho, 2, FAST_ANNEAL, seed=0)


class TestWitnessOptimize:
    @pytest.mark.slow
    def test_maximally_mixed_floor(self):
        d = 9
        rho = DensityMatrix(3, 3, np.eye(d, dtype=complex) / d)
        result = witness_optimize(rho, 2, FAST_ANNEAL, seed=3)
        # every trace-one candidate has expectation exactly 1/D here
        assert result.min_expectation == pytest.approx(1 / d, abs=1e-12)

    @pytest.mark.slow
    def test_detects_strongly_entangled_point(self, entangled_run):
        _, result = entangled_run
        assert result.min_expectation < -1e-3

    @pytest.mark.slow
    def test_result_invariants(self, entangled_run):
        rho, result = entangled_run
        assert result.coefficients[0, 0] == pytest.approx(1 / 9)
        assert result.feasibility_residual <= 1e-6
        assert result.iterations == 80 * 15
        w = witness_operator(result.coefficients, 2)
        assert np.trace(w).real == pytest.approx(1.0, abs=1e-9)
        value = np.einsum("ab,ba->", rho.matrix, w).real
        assert value == pytest.approx(result.min_expectation, abs=1e-10)

    @pytest.mark.slow
    def test_deterministic_for_fixed_seed(self):
        rho = werner_mix(spin_ensemble_state(2, 0.25), 0.95)
        quick = AnnealParams(t0=0.15, decay=0.9, sweeps=25)
        a = witness_optimize(rho, 2, quick, seed=11)
        b = witness_optimize(rho, 2, quick, seed=11)
        assert a.min_expectation == b.min_expectation
        assert np.array_equal(a.coefficients, b.coefficients)

    @pytest.mark.slow
    def test_detection_implies_npt(self, entangled_run):
        # decomposable witnesses cannot detect PPT states; the shared run is
        # the case (mu, t, seed) = (1.0, 0.3, 0)
        runs = [entangled_run]
        for mu, t, seed in [(1.0, 0.15, 1), (0.9, 0.2, 2)]:
            rho = werner_mix(spin_ensemble_state(2, t), mu)
            runs.append((rho, witness_optimize(rho, 2, FAST_ANNEAL, seed=seed)))
        for rho, result in runs:
            if result.min_expectation < -1e-6:
                assert ppt_min_eigenvalue(rho) < 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            AnnealParams(decay=1.5)
        with pytest.raises(ValueError):
            AnnealParams(sweeps=0)
        with pytest.raises(ValueError):
            AnnealParams(box_scale=-1.0)

    @pytest.mark.parametrize("field", ["t0", "box_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_params_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must lie in \(0, inf\)"):
            AnnealParams(**{field: value})

    def test_verdict_at_tolerance_boundary(self):
        # an expectation of exactly -WITNESS_VERDICT_TOL is not below it
        def verdict(value):
            return WitnessResult(value, np.zeros((4, 4)), 0.0, 0, 0).verdict

        assert verdict(-WITNESS_VERDICT_TOL) == UNDETECTED
        assert verdict(np.nextafter(-WITNESS_VERDICT_TOL, -1.0)) == ENTANGLED
        assert verdict(0.1) == UNDETECTED

    def test_dimension_mismatch_rejected(self):
        rho = werner_mix(bell_state(), 0.5)
        with pytest.raises(ValueError, match="dimension"):
            witness_optimize(rho, 3, FAST_ANNEAL, seed=0)

    def test_state_of_another_bipartition_rejected(self, rng):
        # a 2x8 state has the D = 16 of m = 3, but not its 4x4 bipartition
        rho = DensityMatrix(2, 8, oracles.random_density(rng, 16))
        with pytest.raises(ValueError, match="state dimensions 2x8 do not match "
                                             "witness basis 4x4"):
            witness_optimize(rho, 3, FAST_ANNEAL, seed=0)


class TestWitnessOperator:
    def test_identity_coefficients(self):
        c = np.zeros((4, 4))
        c[0, 0] = 1 / 9
        assert np.allclose(witness_operator(c, 2), np.eye(9) / 9)

    def test_mixed_term(self):
        from entcov.observables import collective_spin_matrices

        sx, _, sz = collective_spin_matrices(2)
        c = np.zeros((4, 4))
        c[1, 3] = 0.5
        assert np.allclose(witness_operator(c, 2), 0.5 * kron(sx, sz))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            witness_operator(np.zeros((3, 3)), 2)


@pytest.mark.parametrize("build, message", [
    (lambda: PptGrid().add([]), "a grid needs at least one state"),
    (lambda: PptGrid().min_eigenvalues([1.0]), "a grid needs at least one state"),
    (lambda: decomposable_split(np.eye(9), 2, 2), "matrix dimension 9 != dim_a[*]dim_b = 4"),
    (lambda: witness_operator(np.full((4, 4), np.nan), 1),
     "coefficients contain NaN or Inf entries"),
    (lambda: witness_operator(np.diag([np.inf, 0, 0, 0]), 1),
     "coefficients contain NaN or Inf entries"),
], ids=["ppt-empty-grid", "ppt-no-block", "split-dimension", "witness-nan", "witness-inf"])
def test_invalid_input_rejected_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("w, message", [
    (np.stack([np.eye(4) / 4] * 4), r"expected a square matrix, got shape \(4, 4, 4\)"),
    (np.full((4, 4), np.nan), "matrix contains NaN or Inf entries"),
    (np.ones((9, 4)), r"expected a square matrix, got shape \(9, 4\)"),
], ids=["stack", "nan", "not-square"])
def test_decomposable_split_rejects_malformed_witness(monkeypatch, w, message):
    # by name, before any eigensolve: a stack is not one witness
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve reached before the witness was checked")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    with pytest.raises(ValueError, match=message):
        decomposable_split(w, 2, 2)
