import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entcov.criterion import (
    ENTANGLED,
    UNDETECTED,
    CorrelationData,
    CriterionEvaluator,
    CriterionReport,
    DataValidationError,
    commutation_matrix,
    correlation_data_from_state,
    covariance_commutation,
    covariance_matrix,
    criterion_grid,
    criterion_matrix,
    criterion_matrix_from_data,
    detect,
    uncertainty_matrix,
)
from entcov.criterion import GRID_CHUNK_BYTES, _amplitude_moments, _covariance_parts, _moments
from entcov.linalg import HermiticityError, partial_transpose
from entcov.observables import (
    Observable,
    ObservableSet,
    collective_spin_set,
    pauli_product_set,
    rotate_so3,
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
from oracles import criterion_matrix_pt_state


def maximally_mixed(da, db):
    d = da * db
    return DensityMatrix(da, db, np.eye(d, dtype=complex) / d)


class TestCovarianceMatrix:
    def test_maximally_mixed_pauli_products(self):
        v = covariance_matrix(maximally_mixed(2, 2), pauli_product_set())
        assert np.allclose(v, np.eye(3), atol=1e-12)

    def test_bell_state_perfect_correlations(self):
        v = covariance_matrix(werner_mix(bell_state(), 1.0), pauli_product_set())
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_identity_observable_has_zero_variance(self, rng):
        rho = oracles.random_density(rng, 4)
        v = covariance_matrix(rho, [np.eye(4)])
        assert v.shape == (1, 1)
        assert v[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_entrywise_oracle(self, rng):
        rho = oracles.random_density(rng, 6)
        mats = [oracles.random_hermitian(rng, 6) for _ in range(4)]
        v = covariance_matrix(rho, mats)
        for j in range(4):
            for k in range(4):
                expected = oracles.covariance_entry(rho, mats[j], mats[k])
                assert v[j, k] == pytest.approx(expected, abs=1e-10)


class TestCommutationMatrix:
    def test_pauli_products_commute(self, rng):
        rho = oracles.random_density(rng, 4)
        omega = commutation_matrix(rho, pauli_product_set())
        assert np.allclose(omega, 0.0, atol=1e-12)

    def test_collective_entries_at_t_zero(self):
        m = 5
        rho = product_state(spin_coherent_x(m), spin_coherent_x(m)).density()
        omega = commutation_matrix(rho, collective_spin_set(m))
        assert omega[0, 1] == pytest.approx(0.0, abs=1e-10)  # 2<Sz_A>
        assert omega[1, 2] == pytest.approx(2 * m, rel=1e-12)  # 2<Sx_A>
        # operators on different subsystems commute
        assert np.allclose(omega[:3, 3:], 0.0, atol=1e-12)

    def test_matches_entrywise_oracle(self, rng):
        rho = oracles.random_density(rng, 5)
        mats = [oracles.random_hermitian(rng, 5) for _ in range(3)]
        omega = commutation_matrix(rho, mats)
        for j in range(3):
            for k in range(3):
                expected = oracles.commutation_entry(rho, mats[j], mats[k])
                assert omega[j, k] == pytest.approx(expected, abs=1e-10)


class TestUncertaintyMatrix:
    def test_maximally_mixed_pauli_products(self):
        u = uncertainty_matrix(maximally_mixed(2, 2), pauli_product_set())
        assert np.allclose(u, np.eye(3), atol=1e-12)

    def test_composition_from_v_and_omega(self, rng):
        rho = oracles.random_density(rng, 6)
        mats = [oracles.random_hermitian(rng, 6) for _ in range(4)]
        u = uncertainty_matrix(rho, mats)
        v = covariance_matrix(rho, mats)
        omega = commutation_matrix(rho, mats)
        assert np.allclose(u, v + 0.5j * omega, atol=1e-12)

    def test_pure_state_equals_gram_matrix(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 8))
            psi = oracles.random_pure(rng, dim)
            mats = [oracles.random_hermitian(rng, dim) for _ in range(int(rng.integers(1, 5)))]
            f = np.array([x @ psi - np.vdot(psi, x @ psi).real * psi for x in mats]).T
            gram = f.conj().T @ f
            u = uncertainty_matrix(np.outer(psi, psi.conj()), mats)
            assert np.abs(u - gram).max() < 1e-10

    def test_psd_on_random_mixed_states(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            rho = oracles.random_density(rng, dim)
            mats = [oracles.random_hermitian(rng, dim) for _ in range(int(rng.integers(1, 6)))]
            u = uncertainty_matrix(rho, mats)
            assert np.linalg.eigvalsh(u)[0] >= -1e-9


class TestObservableInputs:
    def test_bare_observable_rejected(self):
        # a local member stores its factor, which has no joint dimensions
        member = collective_spin_set(2)[0]
        with pytest.raises(ValueError, match="'Sx_A' needs an ObservableSet"):
            covariance_matrix(np.eye(9) / 9, [member])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 3), (3, 2)]),
    n_a=st.integers(0, 3),
    n_b=st.integers(0, 3),
    mu=st.floats(0.0, 1.0),
)
def test_werner_moments_match_dense_moments(seed, dims, n_a, n_b, mu):
    # random complex factors: the B factors must enter transposed
    assume(n_a + n_b >= 1)
    rng = np.random.default_rng(seed)
    da, db = dims
    members = [
        Observable(f"a{i}", oracles.random_hermitian(rng, da), "A") for i in range(n_a)
    ] + [
        Observable(f"b{i}", oracles.random_hermitian(rng, db), "B") for i in range(n_b)
    ]
    order = rng.permutation(len(members))
    obs_set = ObservableSet(tuple(members[i] for i in order), da, db)
    psi = PureState(da, db, oracles.random_pure(rng, da * db))
    fast = uncertainty_matrix(WernerState(psi, mu), obs_set)
    dense = uncertainty_matrix(werner_mix(psi, mu), obs_set)
    assert np.abs(fast - dense).max() <= 1e-12 * max(1.0, np.linalg.norm(dense, 2))


class TestCriterionMatrix:
    def test_werner_bell_threshold_eigenvalue(self):
        rho = werner_mix(bell_state(), 1 / 3)
        eigs = np.linalg.eigvalsh(criterion_matrix(rho, pauli_product_set()))
        assert abs(eigs[0]) < 1e-9

    def test_werner_bell_closed_form_spectrum(self):
        # diagonal 1 - mu^2, off-diagonal -mu(1 + mu) gives
        # eigenvalues {(1 + mu)(1 - 3 mu), 1 + mu, 1 + mu}
        for mu in (0.0, 0.2, 0.5, 0.9, 1.0):
            rho = werner_mix(bell_state(), mu)
            eigs = np.sort(np.linalg.eigvalsh(criterion_matrix(rho, pauli_product_set())))
            expected = np.sort([(1 + mu) * (1 - 3 * mu), 1 + mu, 1 + mu])
            assert np.allclose(eigs, expected, atol=1e-12)

    def test_product_state_is_psd(self):
        m = 6
        rho = product_state(spin_coherent_x(m), spin_coherent_x(m)).density()
        eigs = np.linalg.eigvalsh(criterion_matrix(rho, collective_spin_set(m)))
        assert eigs[0] >= -1e-9

    def test_pure_bell_has_exactly_one_negative_eigenvalue(self):
        rho = werner_mix(bell_state(), 1.0)
        eigs = np.linalg.eigvalsh(criterion_matrix_pt_state(rho, pauli_product_set()))
        assert int((eigs < -1e-9).sum()) == 1

    def test_operator_path_equals_state_path(self, rng):
        for m, mu, t in [(2, 1.0, 0.3), (3, 0.6, 0.2), (4, 0.85, 0.45)]:
            rho = werner_mix(spin_ensemble_state(m, t), mu)
            obs_set = collective_spin_set(m)
            a = criterion_matrix(rho, obs_set)
            b = criterion_matrix_pt_state(rho, obs_set)
            assert np.abs(a - b).max() < 1e-10

    def test_b_side_product_transpose_identity(self, rng):
        # (X_B Y_B)^(T_B) = Y_B^(T_B) X_B^(T_B)
        da, db = 3, 4
        for _ in range(20):
            x = np.kron(np.eye(da), oracles.random_hermitian(rng, db))
            y = np.kron(np.eye(da), oracles.random_hermitian(rng, db))
            lhs = partial_transpose(x @ y, da, db, "B")
            rhs = partial_transpose(y, da, db, "B") @ partial_transpose(x, da, db, "B")
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_spectrum_invariant_under_so3_rotation(self, rng):
        m = 3
        rho = werner_mix(spin_ensemble_state(m, 0.25), 0.9)
        base = collective_spin_set(m)
        eigs0 = np.linalg.eigvalsh(criterion_matrix(rho, base))
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            eigs = np.linalg.eigvalsh(criterion_matrix(rho, rotate_so3(base, q)))
            assert np.abs(eigs - eigs0).max() < 1e-9

    def test_time_reversal_leaves_spectrum_unchanged(self):
        m = 4
        obs_set = collective_spin_set(m)
        for t in (0.1, 0.3, 0.7):
            plus = np.linalg.eigvalsh(
                criterion_matrix(spin_ensemble_state(m, t).density(), obs_set)
            )
            minus = np.linalg.eigvalsh(
                criterion_matrix(spin_ensemble_state(m, -t).density(), obs_set)
            )
            assert np.allclose(plus, minus, atol=1e-10)

    def test_detection_implies_negative_partial_transpose(self):
        # soundness on a coarse sweep: wherever the criterion fires, the
        # partially transposed state must have a negative eigenvalue
        for m in (2, 3, 4):
            obs_set = collective_spin_set(m)
            evaluator = CriterionEvaluator(obs_set)
            for mu in np.linspace(0, 1, 9):
                for t in np.linspace(0, 0.6, 9):
                    rho = werner_mix(spin_ensemble_state(m, t), mu)
                    eigs = np.linalg.eigvalsh(evaluator.matrix(rho))
                    if eigs[0] < -1e-9:
                        pt = partial_transpose(rho.matrix, m + 1, m + 1, "B")
                        assert np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0] < -1e-10

    def test_large_ensemble_soundness_spot_check(self):
        m = 20
        rho = werner_mix(spin_ensemble_state(m, 0.05), 1.0)
        eigs = np.linalg.eigvalsh(criterion_matrix(rho, collective_spin_set(m)))
        assert eigs[0] < -1e-9
        pt = partial_transpose(rho.matrix, m + 1, m + 1, "B")
        assert np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0] < -1e-10

    def test_single_observable_never_detects(self, rng):
        m = 2
        rho = werner_mix(spin_ensemble_state(m, 0.3), 1.0)
        single = ObservableSet((collective_spin_set(m)[1],), m + 1, m + 1)
        c = criterion_matrix(rho, single)
        assert c.shape == (1, 1)
        assert c[0, 0].real >= 0.0
        assert detect(c).verdict == UNDETECTED

    def test_evaluator_rejects_wrong_dimension(self):
        evaluator = CriterionEvaluator(pauli_product_set())
        with pytest.raises(ValueError, match="dimension"):
            evaluator.matrix(np.eye(9) / 9)
        evaluator = CriterionEvaluator(collective_spin_set(2))
        with pytest.raises(ValueError, match="dimension"):
            evaluator.matrix(WernerState(spin_ensemble_state(3, 0.1), 0.5))

    def test_werner_state_on_joint_set_takes_dense_route(self):
        evaluator = CriterionEvaluator(pauli_product_set())
        for mu in (0.0, 0.4, 1.0):
            dense = evaluator.matrix(werner_mix(bell_state(), mu))
            assert np.array_equal(evaluator.matrix(WernerState(bell_state(), mu)), dense)
        assert np.array_equal(evaluator.matrix(bell_state()), evaluator.matrix(bell_state().density()))

    def test_pure_state_is_werner_state_at_mu_one(self):
        evaluator = CriterionEvaluator(collective_spin_set(4))
        psi = spin_ensemble_state(4, 0.2)
        assert np.array_equal(evaluator.matrix(psi), evaluator.matrix(WernerState(psi, 1.0)))


class TestSetTables:
    """The operator-only tables live on the ObservableSet, built once."""

    def test_dense_tables_built_once_per_set(self, monkeypatch):
        import entcov.criterion
        import entcov.observables

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return partial_transpose(*args, **kwargs)

        for module in (entcov.criterion, entcov.observables):
            monkeypatch.setattr(module, "partial_transpose", counting, raising=False)
        obs_set = collective_spin_set(3)
        for t in (0.1, 0.3):
            criterion_matrix(werner_mix(spin_ensemble_state(3, t), 0.7), obs_set)
        assert len(calls) == 6 + 21  # the singles and the j <= k products, once

    def test_cached_tables_carry_nothing_between_states(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))

        def rotated():
            return rotate_so3(collective_spin_set(2), q)

        psi_a = spin_ensemble_state(2, 0.2)
        psi_b = PureState(3, 3, oracles.random_pure(rng, 9))
        psi_q = PureState(2, 2, oracles.random_pure(rng, 4))
        cases = [
            (rotated, [werner_mix(psi_a, 0.6), WernerState(psi_b, 0.3), psi_a,
                       psi_b.density(), WernerState(psi_a, 0.9), psi_b]),
            (pauli_product_set, [werner_mix(bell_state(), 0.4), WernerState(psi_q, 0.8),
                                 bell_state(), psi_q.density(), psi_q]),
        ]
        for build, states in cases:
            shared = build()
            for state in states:
                got = criterion_matrix(state, shared)
                assert got.tobytes() == criterion_matrix(state, build()).tobytes()


class TestSharedDenseReader:
    """Moments and criterion matrix of a DensityMatrix trace one cached table."""

    def test_joint_matrices_formed_once_per_set(self, monkeypatch):
        calls = []
        original = ObservableSet.matrices

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(ObservableSet, "matrices", counting)
        obs_set = collective_spin_set(2)
        rho = werner_mix(spin_ensemble_state(2, 0.3), 0.8)
        criterion_matrix(rho, obs_set)
        covariance_commutation(rho, obs_set)
        covariance_commutation(werner_mix(spin_ensemble_state(2, 0.1), 0.5), obs_set)
        correlation_data_from_state(rho, obs_set)
        assert len(calls) == 1

    def test_first_dense_call_fills_preallocated_table(self):
        # the 27 transposed operators and products of the M = 4 sextet take
        # 27 x 25^2 x 16 B; stacking lists of them peaked at twice that
        m = 4
        rho = werner_mix(spin_ensemble_state(m, 0.2), 0.9)
        obs_set = collective_spin_set(m)
        table_bytes = 27 * (m + 1) ** 4 * 16
        tracemalloc.start()
        try:
            criterion_matrix(rho, obs_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * table_bytes

    def test_raw_operators_of_another_shape_rejected_by_position(self, rng):
        rho = oracles.random_density(rng, 4)
        mats = [oracles.random_hermitian(rng, 4), oracles.random_hermitian(rng, 4),
                oracles.random_hermitian(rng, 2)]
        with pytest.raises(ValueError, match=r"observable 2 has shape \(2, 2\)"):
            covariance_commutation(rho, mats)
        with pytest.raises(ValueError, match=r"observable 0 has shape \(4,\)"):
            covariance_commutation(rho, [np.ones(4)])
        with pytest.raises(ValueError, match=r"observable 1 has shape \(4, 4\)"):
            covariance_commutation(oracles.random_density(rng, 2), [mats[2], mats[0]])

    def test_criterion_matrix_needs_an_observable_set(self, rng):
        with pytest.raises(TypeError, match="ObservableSet"):
            criterion_matrix(oracles.random_density(rng, 4), [np.eye(4)])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 3), (3, 2)]),
    n_a=st.integers(0, 2),
    n_b=st.integers(0, 2),
    n_joint=st.integers(0, 2),
    rank=st.integers(1, 6),
)
def test_dense_moments_match_entrywise_oracle(seed, dims, n_a, n_b, n_joint, rank):
    # the moments trace the PT_B tables against PT_B(rho); the oracle traces
    # the untransposed joint operators against rho, entry by entry
    assume(n_a + n_b + n_joint >= 1)
    rng = np.random.default_rng(seed)
    da, db = dims
    members = (
        [Observable(f"a{i}", oracles.random_hermitian(rng, da), "A") for i in range(n_a)]
        + [Observable(f"b{i}", oracles.random_hermitian(rng, db), "B") for i in range(n_b)]
        + [Observable(f"j{i}", oracles.random_hermitian(rng, da * db), "JOINT")
           for i in range(n_joint)]
    )
    order = rng.permutation(len(members))
    obs_set = ObservableSet(tuple(members[i] for i in order), da, db)
    rho = DensityMatrix(da, db, oracles.random_density(rng, da * db, rank))
    means, v, omega = _moments(rho, obs_set)
    r, mats = rho.matrix, obs_set.matrices()
    pairs = [(x, y) for x in mats for y in mats]
    shape = (len(mats), len(mats))
    expected_v = np.reshape([oracles.covariance_entry(r, x, y) for x, y in pairs], shape)
    expected_omega = np.reshape([oracles.commutation_entry(r, x, y) for x, y in pairs], shape)
    tol = 1e-12 * max(1.0, np.linalg.norm(v, 2))
    assert np.abs(means - [oracles.expectation(r, x).real for x in mats]).max() <= tol
    assert np.abs(v - expected_v).max() <= tol
    assert np.abs(omega - expected_omega).max() <= tol


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 3), (3, 2)]),
    n_a=st.integers(0, 3),
    n_b=st.integers(0, 3),
    mu=st.floats(0.0, 1.0),
)
def test_werner_route_matches_dense_route(seed, dims, n_a, n_b, mu):
    # random complex Hermitian factors have no definite transpose parity, so
    # the parity sign map of the correlation-data route cannot serve them
    assume(n_a + n_b >= 1)
    rng = np.random.default_rng(seed)
    da, db = dims
    members = [
        Observable(f"a{i}", oracles.random_hermitian(rng, da), "A")
        for i in range(n_a)
    ] + [
        Observable(f"b{i}", oracles.random_hermitian(rng, db), "B")
        for i in range(n_b)
    ]
    order = rng.permutation(len(members))
    evaluator = CriterionEvaluator(ObservableSet(tuple(members[i] for i in order), da, db))
    psi = PureState(da, db, oracles.random_pure(rng, da * db))
    fast = evaluator.matrix(WernerState(psi, mu))
    dense = evaluator.matrix(werner_mix(psi, mu))
    assert np.abs(fast - dense).max() <= 1e-12 * max(1.0, np.linalg.norm(dense, 2))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 3), (3, 2)]),
    n_a=st.integers(0, 3),
    n_b=st.integers(0, 3),
    n_psi=st.integers(1, 4),
    mus=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
)
def test_grid_route_matches_dense_route(seed, dims, n_a, n_b, n_psi, mus):
    # every (mu, psi) cell of the grid against the dense route on werner_mix
    assume(n_a + n_b >= 1)
    rng = np.random.default_rng(seed)
    da, db = dims
    members = [
        Observable(f"a{i}", oracles.random_hermitian(rng, da), "A") for i in range(n_a)
    ] + [
        Observable(f"b{i}", oracles.random_hermitian(rng, db), "B") for i in range(n_b)
    ]
    order = rng.permutation(len(members))
    obs_set = ObservableSet(tuple(members[i] for i in order), da, db)
    psis = [PureState(da, db, oracles.random_pure(rng, da * db)) for _ in range(n_psi)]
    grid = criterion_grid(psis, mus, obs_set)
    moments = [_covariance_parts(k) for _, k in _amplitude_moments(psis, mus, obs_set, False)]
    assert grid.shape == (len(mus), n_psi, len(obs_set), len(obs_set))
    for i, mu in enumerate(mus):
        v_grid, omega_grid = moments[i]
        for j, psi in enumerate(psis):
            rho = werner_mix(psi, mu)
            c = criterion_matrix(rho, obs_set)
            v, omega = covariance_commutation(rho, obs_set)
            bound = 1e-12 * max(1.0, np.linalg.norm(c, 2))
            assert np.abs(grid[i, j] - c).max() <= bound
            assert np.abs(v_grid[j] - v).max() <= bound
            assert np.abs(omega_grid[j] - omega).max() <= bound


def test_grid_chunks_change_no_bit():
    # M = 20 holds a few psi per chunk; cells on both sides of each chunk
    # boundary must equal the single-state calls bit for bit
    spin = collective_spin_set(20)
    per_psi = (2 * len(spin) + 1) * spin.dim_a * spin.dim_b * 16
    chunk = GRID_CHUNK_BYTES // per_psi
    assert chunk >= 1
    ts = np.linspace(0.0, 0.3, 2 * chunk + 1)
    psis = [spin_ensemble_state(20, t) for t in ts]
    mus = [0.3, 1.0]
    grid = criterion_grid(psis, mus, spin)
    evaluator = CriterionEvaluator(spin)
    for i, mu in enumerate(mus):
        for j, psi in enumerate(psis):
            single = criterion_matrix(WernerState(psi, mu), spin)
            assert grid[i, j].tobytes() == single.tobytes()
    assert evaluator.matrix(psis[chunk]).tobytes() == grid[1, chunk].tobytes()


class TestGridInputs:
    def test_rejects_mixing_weight_outside_unit_interval(self):
        spin = collective_spin_set(2)
        with pytest.raises(ValueError, match="mixing parameters"):
            criterion_grid([spin_ensemble_state(2, 0.1)], [0.5, 1.5], spin)

    def test_rejects_states_of_another_shape(self):
        spin = collective_spin_set(2)
        with pytest.raises(ValueError, match="share one shape"):
            criterion_grid([spin_ensemble_state(2, 0.1), spin_ensemble_state(3, 0.1)],
                           [1.0], spin)
        with pytest.raises(ValueError, match="do not match observables"):
            criterion_grid([spin_ensemble_state(3, 0.1)], [1.0], spin)

    def test_rejects_a_joint_set(self):
        with pytest.raises(ValueError, match="tagged 'A' or 'B'"):
            criterion_grid([bell_state()], [1.0], pauli_product_set())


def _definite_parity_factor(rng, dim, odd):
    """Real symmetric (transpose parity +1) or purely imaginary
    antisymmetric (parity -1) Hermitian factor."""
    g = rng.standard_normal((dim, dim))
    return 1j * (g - g.T) / 2 if odd else (g + g.T) / 2


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 3), (3, 2)]),
    n_a=st.integers(0, 3),
    n_b=st.integers(0, 3),
    mu=st.floats(0.0, 1.0),
)
def test_data_route_matches_evaluator_routes(seed, dims, n_a, n_b, mu):
    # PT_B leaves A-side factors alone, so every A member has parity +1
    # whether its factor is real symmetric or imaginary antisymmetric
    assume(n_a + n_b >= 1)
    rng = np.random.default_rng(seed)
    da, db = dims
    members = []
    for i in range(n_a):
        a = _definite_parity_factor(rng, da, rng.random() < 0.5)
        members.append(Observable(f"a{i}", a, "A", 1))
    for i in range(n_b):
        odd = bool(rng.random() < 0.5)
        b = _definite_parity_factor(rng, db, odd)
        members.append(Observable(f"b{i}", b, "B", -1 if odd else 1))
    order = rng.permutation(len(members))
    obs_set = ObservableSet(tuple(members[i] for i in order), da, db)
    evaluator = CriterionEvaluator(obs_set)
    psi = PureState(da, db, oracles.random_pure(rng, da * db))
    rho = werner_mix(psi, mu)
    data = correlation_data_from_state(rho, obs_set)
    from_data = criterion_matrix_from_data(data)
    loops = oracles.criterion_matrix_from_data_loops(
        data.partition, data.pt_parity, data.v, data.omega
    )
    assert from_data.tobytes() == loops.tobytes()  # bit for bit, signed zeros included
    for state in (WernerState(psi, mu), rho):
        c = evaluator.matrix(state)
        assert np.abs(from_data - c).max() <= 1e-12 * max(1.0, np.linalg.norm(c, 2))
    # the amplitude-route export matches the dense one
    exported = correlation_data_from_state(WernerState(psi, mu), obs_set)
    assert (exported.labels, exported.partition, exported.pt_parity) == (
        data.labels, data.partition, data.pt_parity
    )
    bound = 1e-12 * max(1.0, np.linalg.norm(data.v, 2))
    for got, want in ((exported.means, data.means), (exported.v, data.v),
                      (exported.omega, data.omega)):
        assert np.abs(got - want).max() <= bound


class TestDetect:
    def test_identity_undetected(self):
        report = detect(np.eye(6))
        assert report.verdict == UNDETECTED
        assert report.determinant == pytest.approx(1.0)
        assert report.min_eigenvalue == pytest.approx(1.0)

    def test_werner_half_detected(self):
        rho = werner_mix(bell_state(), 0.5)
        report = detect(criterion_matrix(rho, pauli_product_set()))
        assert report.verdict == ENTANGLED
        assert report.eigenvalues[0] < -1e-3

    def test_spin_ensemble_outside_window_undetected(self):
        rho = werner_mix(spin_ensemble_state(20, 0.2), 1.0)
        report = detect(criterion_matrix(rho, collective_spin_set(20)))
        assert report.verdict == UNDETECTED

    def test_eigenvalues_sorted_ascending(self, rng):
        report = detect(oracles.random_hermitian(rng, 6))
        assert np.all(np.diff(report.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            detect(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_tolerance_not_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            detect(np.eye(2), tol)

    def test_stack_reports_equal_single_reports(self, rng):
        stack = np.array([oracles.random_hermitian(rng, 5) for _ in range(6)]
                         + [np.eye(5)])
        reports = detect(stack, 1e-3)
        assert len(reports) == 7
        for m, report in zip(stack, reports):
            single = detect(m, 1e-3)
            assert report.eigenvalues.tobytes() == single.eigenvalues.tobytes()
            assert report.min_eigenvalue == single.min_eigenvalue
            assert report.determinant == single.determinant
            assert report.verdict == single.verdict
            assert report.tolerance == single.tolerance
        assert reports[-1].verdict == UNDETECTED

    def test_stack_with_non_hermitian_member_rejected(self, rng):
        stack = np.array([oracles.random_hermitian(rng, 3) for _ in range(4)])
        stack[2, 0, 1] += 0.5
        with pytest.raises(HermiticityError, match="stack member 2"):
            detect(stack)

    def test_stack_with_nan_member_rejected(self, rng):
        stack = np.array([oracles.random_hermitian(rng, 3) for _ in range(4)])
        stack[3, 1, 1] = np.nan
        with pytest.raises(ValueError, match=r"NaN or Inf entries \(stack member 3\)"):
            detect(stack)

    def test_report_verdict_derived_at_tolerance_boundary(self):
        # a minimum of exactly -tol is not below it; anything lower is
        tol = 1e-9
        at = CriterionReport(np.array([-tol, 2.0]), tol)
        assert (at.min_eigenvalue, at.determinant, at.verdict) == (-tol, -2 * tol, UNDETECTED)
        for below in (np.nextafter(-tol, -1.0), -2 * tol, -1.0):
            report = CriterionReport(np.array([below, 2.0]), tol)
            assert report.min_eigenvalue == below
            assert report.verdict == ENTANGLED


class TestCorrelationDataPath:
    def build_data(self, m=3, mu=0.9, t=0.25):
        rho = werner_mix(spin_ensemble_state(m, t), mu)
        obs_set = collective_spin_set(m)
        return rho, obs_set, correlation_data_from_state(rho, obs_set)

    def test_reconstruction_matches_matrix_path(self):
        rho, obs_set, data = self.build_data()
        from_data = criterion_matrix_from_data(data)
        direct = criterion_matrix(rho, obs_set)
        assert np.abs(from_data - direct).max() < 1e-10

    def test_werner_export_memory_follows_operators_not_dimension(self):
        # at M = 40 one D x D complex matrix (D = 41^2) takes 45 MB
        m = 40
        state = WernerState(spin_ensemble_state(m, 0.05), 0.8)
        tracemalloc.start()
        try:
            data = correlation_data_from_state(state, collective_spin_set(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.v.shape == (6, 6)
        assert peak < 16e6

    def test_polarized_large_ensemble_data_is_psd(self):
        m = 20
        rho = product_state(spin_coherent_x(m), spin_coherent_x(m)).density()
        data = correlation_data_from_state(rho, collective_spin_set(m))
        eigs = np.linalg.eigvalsh(criterion_matrix_from_data(data))
        assert eigs[0] >= -1e-9

    def test_trivial_reduction_to_v(self):
        data = CorrelationData(
            labels=("a", "b"),
            partition=("A", "B"),
            pt_parity=(1, 1),
            means=np.zeros(2),
            v=np.eye(2),
            omega=np.zeros((2, 2)),
        )
        assert np.allclose(criterion_matrix_from_data(data), np.eye(2))

    def test_json_round_trip_preserves_verdict(self):
        rho, obs_set, data = self.build_data(mu=1.0, t=0.2)
        payload = json.loads(json.dumps(data.to_dict()))
        restored = CorrelationData.from_dict(payload)
        a = detect(criterion_matrix_from_data(restored))
        b = detect(criterion_matrix(rho, obs_set))
        assert a.verdict == b.verdict
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)

    def test_joint_support_rejected(self):
        rho = werner_mix(bell_state(), 0.7)
        with pytest.raises(DataValidationError, match="locally supported"):
            correlation_data_from_state(rho, pauli_product_set())

    def test_missing_parity_rejected(self):
        m = 2
        rho = werner_mix(spin_ensemble_state(m, 0.3), 1.0)
        rotated = rotate_so3(collective_spin_set(m), np.eye(3))
        with pytest.raises(DataValidationError, match="parity"):
            correlation_data_from_state(rho, rotated)

    def test_asymmetric_v_rejected(self):
        data = CorrelationData(
            labels=("a", "b"),
            partition=("A", "B"),
            pt_parity=(1, 1),
            means=np.zeros(2),
            v=np.array([[1.0, 0.2], [0.1, 1.0]]),
            omega=np.zeros((2, 2)),
        )
        with pytest.raises(DataValidationError, match="symmetric"):
            data.validate()

    def test_cross_partition_commutator_rejected(self):
        data = CorrelationData(
            labels=("a", "b"),
            partition=("A", "B"),
            pt_parity=(1, 1),
            means=np.zeros(2),
            v=np.eye(2),
            omega=np.array([[0.0, 0.5], [-0.5, 0.0]]),
        )
        with pytest.raises(DataValidationError, match="partition"):
            data.validate()

    def test_a_side_parity_is_ignored(self):
        _, _, data = self.build_data()
        flipped = replace(data, pt_parity=tuple(
            -1 if tag == "A" else s for tag, s in zip(data.partition, data.pt_parity)
        ))
        assert np.array_equal(
            criterion_matrix_from_data(flipped), criterion_matrix_from_data(data)
        )

    def test_nonfinite_means_rejected(self):
        for bad in (np.nan, np.inf):
            data = CorrelationData(
                labels=("a", "b"),
                partition=("A", "B"),
                pt_parity=(1, 1),
                means=np.array([bad, 0.0]),
                v=np.eye(2),
                omega=np.zeros((2, 2)),
            )
            with pytest.raises(DataValidationError, match="means contains NaN or Inf"):
                data.validate()

    def test_duplicate_labels_rejected(self):
        data = CorrelationData(
            labels=("a", "a", "b"),
            partition=("A", "A", "B"),
            pt_parity=(1, 1, 1),
            means=np.zeros(3),
            v=np.eye(3),
            omega=np.zeros((3, 3)),
        )
        with pytest.raises(DataValidationError, match="duplicate labels 'a'"):
            data.validate()

    def test_missing_field_rejected(self):
        with pytest.raises(DataValidationError, match="missing field"):
            CorrelationData.from_dict({"labels": ["a"]})

    @pytest.mark.parametrize("entry", [1.5, -1.7, True, "1"])
    def test_non_unit_parity_rejected_by_name(self, entry):
        _, _, data = self.build_data()
        payload = data.to_dict()
        payload["pt_parity"][4] = entry
        with pytest.raises(DataValidationError, match="pt_parity entry"):
            CorrelationData.from_dict(payload).validate()

    def test_export_with_numpy_parities_reads_back(self):
        m = 2
        members = tuple(Observable(o.label, o.matrix, o.support, np.int64(o.pt_parity))
                        for o in collective_spin_set(m))
        obs_set = ObservableSet(members, m + 1, m + 1)
        data = correlation_data_from_state(werner_mix(spin_ensemble_state(m, 0.3), 0.9), obs_set)
        restored = CorrelationData.from_dict(json.loads(json.dumps(data.to_dict()))).validate()
        assert restored.pt_parity == (1, 1, 1, 1, -1, 1)
        assert np.array_equal(criterion_matrix_from_data(restored),
                              criterion_matrix_from_data(data))

    def test_float_unit_parity_accepted(self):
        _, _, data = self.build_data()
        payload = data.to_dict()
        payload["pt_parity"] = [float(s) for s in payload["pt_parity"]]
        restored = CorrelationData.from_dict(payload).validate()
        assert restored.pt_parity == data.pt_parity
        assert np.array_equal(
            criterion_matrix_from_data(restored), criterion_matrix_from_data(data)
        )
