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
    CriterionGrid,
    CriterionReport,
    DataValidationError,
    correlation_data_from_state,
    covariance_commutation,
    criterion_matrix,
    criterion_matrix_from_data,
    detect,
    uncertainty_matrix,
)
from entcov.criterion import (_centered_gram, _diagonal_scaling, _gram_factors, _moments,
                              _transpose_b_pairs)
from entcov.linalg import HermiticityError, hermitize, partial_transpose
from entcov.observables import (
    Observable,
    ObservableSet,
    collective_spin_set,
    hp_quadrature_set,
    pauli_product_set,
    rotate_so3,
)
from entcov.states import (
    GRID_CHUNK_BYTES,
    DensityMatrix,
    PureState,
    PureStateStack,
    WernerState,
    bell_state,
    product_state,
    spin_coherent_x,
    spin_ensemble_state,
    szsz_evolve_blocks,
    werner_mix,
)

import oracles
from oracles import criterion_matrix_pt_state


def grid_matrices(psis, mus, obs_set):
    """CriterionGrid matrices of psis added as one block."""
    grid = CriterionGrid(obs_set)
    grid.add(psis)
    return grid.matrices(mus)


def maximally_mixed(da, db):
    d = da * db
    return DensityMatrix(da, db, np.eye(d, dtype=complex) / d)


class TestCovarianceMatrix:
    def test_maximally_mixed_pauli_products(self):
        v = covariance_commutation(maximally_mixed(2, 2), pauli_product_set())[0]
        assert np.allclose(v, np.eye(3), atol=1e-12)

    def test_bell_state_perfect_correlations(self):
        v = covariance_commutation(werner_mix(bell_state(), 1.0), pauli_product_set())[0]
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_identity_observable_has_zero_variance(self, rng):
        rho = oracles.random_density(rng, 4)
        v = covariance_commutation(rho, [np.eye(4)])[0]
        assert v.shape == (1, 1)
        assert v[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_entrywise_oracle(self, rng):
        rho = oracles.random_density(rng, 6)
        mats = [oracles.random_hermitian(rng, 6) for _ in range(4)]
        v = covariance_commutation(rho, mats)[0]
        for j in range(4):
            for k in range(4):
                expected = oracles.covariance_entry(rho, mats[j], mats[k])
                assert v[j, k] == pytest.approx(expected, abs=1e-10)


class TestCommutationMatrix:
    def test_pauli_products_commute(self, rng):
        rho = oracles.random_density(rng, 4)
        omega = covariance_commutation(rho, pauli_product_set())[1]
        assert np.allclose(omega, 0.0, atol=1e-12)

    def test_collective_entries_at_t_zero(self):
        m = 5
        rho = product_state(spin_coherent_x(m), spin_coherent_x(m)).density()
        omega = covariance_commutation(rho, collective_spin_set(m))[1]
        assert omega[0, 1] == pytest.approx(0.0, abs=1e-10)  # 2<Sz_A>
        assert omega[1, 2] == pytest.approx(2 * m, rel=1e-12)  # 2<Sx_A>
        # operators on different subsystems commute
        assert np.allclose(omega[:3, 3:], 0.0, atol=1e-12)

    def test_matches_entrywise_oracle(self, rng):
        rho = oracles.random_density(rng, 5)
        mats = [oracles.random_hermitian(rng, 5) for _ in range(3)]
        omega = covariance_commutation(rho, mats)[1]
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
        v, omega = covariance_commutation(rho, mats)
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
            covariance_commutation(np.eye(9) / 9, [member])

    def test_non_hermitian_raw_operator_rejected_by_position(self):
        # ObservableSet's own rule: the relative defect ||x - x†|| / ||x||,
        # 1e-9 here, exceeds INPUT_HERMITICITY_TOL (1e-10) and fails
        x = np.eye(2, dtype=complex)
        x[0, 1] = 1e-9
        for call in (lambda ops: covariance_commutation(np.eye(2) / 2, ops),
                     lambda ops: uncertainty_matrix(np.eye(2) / 2, ops)):
            with pytest.raises(ValueError, match="observable 1 is not Hermitian"):
                call([np.eye(2), x])
        with pytest.raises(ValueError, match="observable 0 is not Hermitian"):
            covariance_commutation(np.eye(2) / 2, [[[0, 1], [0, 0]]])
        # within the tolerance the raw operator is accepted
        x[0, 1] = 1e-11
        assert covariance_commutation(np.eye(2) / 2, [x])[0].shape == (1, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raw_operator_rejected_by_position(self, bad):
        x = np.eye(2, dtype=complex)
        x[1, 1] = bad
        for ops, i in (([x], 0), ([np.eye(2), x], 1)):
            with pytest.raises(ValueError, match=f"observable {i} contains NaN or Inf entries"):
                covariance_commutation(np.eye(2) / 2, ops)


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
    means, u = _moments(rho, obs_set)
    v, omega = u.real, 2.0 * u.imag
    r, mats = rho.matrix, obs_set.matrices()
    pairs = [(x, y) for x in mats for y in mats]
    shape = (len(mats), len(mats))
    expected_v = np.reshape([oracles.covariance_entry(r, x, y) for x, y in pairs], shape)
    expected_omega = np.reshape([oracles.commutation_entry(r, x, y) for x, y in pairs], shape)
    tol = 1e-12 * max(1.0, np.linalg.norm(v, 2))
    assert np.abs(means - [oracles.expectation(r, x).real for x in mats]).max() <= tol
    assert np.abs(v - expected_v).max() <= tol
    assert np.abs(omega - expected_omega).max() <= tol


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 3), (3, 2)]),
    n_a=st.integers(0, 3),
    n_b=st.integers(0, 3),
    definite=st.booleans(),
    rank=st.integers(1, 6),
)
def test_criterion_is_transpose_rule_on_pt_set_moments(seed, dims, n_a, n_b, definite, rank):
    # the paper's identity on mixed states: the criterion matrix of a set is
    # the transpose rule applied to the moments of its members PT_B(xi_j),
    # here from the dense route on pt_set, which reads pt_set's own tables
    assume(n_a + n_b >= 1)
    rng = np.random.default_rng(seed)
    da, db = dims
    if definite:
        obs_set = _definite_parity_set(rng, da, db, n_a, n_b)
    else:
        members = (
            [Observable(f"a{i}", oracles.random_hermitian(rng, da), "A") for i in range(n_a)]
            + [Observable(f"b{i}", oracles.random_hermitian(rng, db), "B") for i in range(n_b)]
        )
        obs_set = ObservableSet(tuple(members[i] for i in rng.permutation(len(members))), da, db)
    rho = DensityMatrix(da, db, oracles.random_density(rng, da * db, rank))
    c = criterion_matrix(rho, obs_set)
    k = _moments(rho, obs_set.pt_set)[1]
    expected = hermitize(_transpose_b_pairs(k, obs_set.on_b))
    assert np.abs(c - expected).max() <= 1e-12 * max(1.0, np.linalg.norm(c, 2))
    # PT_B is an involution, bit for bit, and keeps each member's parity
    for o, back, pt in zip(obs_set, obs_set.pt_set.pt_set, obs_set.pt_set):
        assert (back.label, back.support) == (o.label, o.support)
        assert back.matrix.tobytes() == o.matrix.tobytes()
        assert pt.pt_parity == o.pt_parity


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
    grid = grid_matrices(psis, mus, obs_set)
    # the grid of a set holds the moments of its pt_set, so the moments of
    # the set are the grid of its pt_set
    moment_grid = CriterionGrid(obs_set.pt_set)
    moment_grid.add(psis)
    u = hermitize(moment_grid._moments(mus)[1])
    assert grid.shape == (len(mus), n_psi, len(obs_set), len(obs_set))
    for i, mu in enumerate(mus):
        v_grid, omega_grid = u[i].real, 2.0 * u[i].imag
        for j, psi in enumerate(psis):
            rho = werner_mix(psi, mu)
            c = criterion_matrix(rho, obs_set)
            v, omega = covariance_commutation(rho, obs_set)
            bound = 1e-12 * max(1.0, np.linalg.norm(c, 2))
            assert np.abs(grid[i, j] - c).max() <= bound
            assert np.abs(v_grid[j] - v).max() <= bound
            assert np.abs(omega_grid[j] - omega).max() <= bound


def test_grid_chunks_change_no_bit():
    # M = 20 holds three psi per chunk, by the kernel's accounting of v and
    # its one temporary, 2 N D 16 bytes per psi; cells on both sides of each
    # chunk boundary must equal the single-state calls bit for bit
    spin = collective_spin_set(20)
    per_psi = 2 * len(spin) * spin.dim_a * spin.dim_b * 16
    chunk = GRID_CHUNK_BYTES // per_psi
    assert chunk == 3
    ts = np.linspace(0.0, 0.3, 2 * chunk + 1)
    psis = [spin_ensemble_state(20, t) for t in ts]
    mus = [0.3, 1.0]
    grid = grid_matrices(psis, mus, spin)
    evaluator = CriterionEvaluator(spin)
    for i, mu in enumerate(mus):
        for j, psi in enumerate(psis):
            single = criterion_matrix(WernerState(psi, mu), spin)
            assert grid[i, j].tobytes() == single.tobytes()
    assert evaluator.matrix(psis[chunk]).tobytes() == grid[1, chunk].tobytes()


class TestDiagonalFactors:
    """A factor with exactly zero off-diagonal entries scales the amplitude
    matrix instead of multiplying it, with the all-matmul route's bits."""

    @staticmethod
    def assert_gram_equals_matmul_route(psis, obs_set):
        # the set's grid, which the criterion reads, and its pt_set's, which
        # the moments read
        for s in (obs_set, obs_set.pt_set):
            factors = [o.matrix for o in s]
            p, g_c = _centered_gram(psis, s, _gram_factors(s))
            p_ref, g_ref = oracles.centered_gram_matmul(psis.matrices(), factors, s.on_b)
            assert p.tobytes() == p_ref.tobytes()
            assert g_c.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 20])
    def test_spin_sets_equal_matmul_route(self, m):
        r2 = 0.7071067811865476
        spin = collective_spin_set(m)
        c = spin_coherent_x(m)
        # 23 times are one block up to M = 20
        psis, = szsz_evolve_blocks(product_state(c, c), np.linspace(-0.4, 3.5, 23))
        # S^z_A and S^z_B, rotated about z or as the quadratures p_A and p_B
        sets = ((spin, [2, 5]),
                (rotate_so3(spin, [[r2, r2, 0], [-r2, r2, 0], [0, 0, 1]]), [2, 5]),
                (hp_quadrature_set(m), [1, 3]))
        for obs_set, sz_members in sets:
            diagonal = [i for i, (o, on_b) in enumerate(zip(obs_set, obs_set.on_b))
                        if _diagonal_scaling(o.matrix, on_b) is not None]
            assert diagonal == sz_members
            self.assert_gram_equals_matmul_route(psis, obs_set)

    def test_zero_phase_rows_equal_matmul_route_in_value(self):
        # at t = 0 the amplitudes are real, so G_c has exact zeros whose
        # sign depends on how p psi^T is formed: the values must agree, and
        # every bit of the nonzero entries
        spin = collective_spin_set(20)
        c = spin_coherent_x(20)
        psis, = szsz_evolve_blocks(product_state(c, c), [0.0, -0.0, 0.05, 0.0])
        factors = [o.matrix for o in spin]
        p, g_c = _centered_gram(psis, spin, _gram_factors(spin))
        p_ref, g_ref = oracles.centered_gram_matmul(psis.matrices(), factors, spin.on_b)
        assert p.tobytes() == p_ref.tobytes()
        assert np.array_equal(g_c, g_ref)
        nonzero = g_ref.view(float) != 0
        assert g_c.view(float)[nonzero].tobytes() == g_ref.view(float)[nonzero].tobytes()

    def test_random_local_set_equals_matmul_route(self, rng):
        da, db = 2, 3
        obs_set = ObservableSet((
            Observable("za", np.diag(rng.standard_normal(da)), "A"),
            Observable("ha", oracles.random_hermitian(rng, da), "A"),
            Observable("zb", np.diag(rng.standard_normal(db)), "B"),
            Observable("hb", oracles.random_hermitian(rng, db), "B"),
        ), da, db)
        diagonal = [_diagonal_scaling(o.matrix, on_b) is not None
                    for o, on_b in zip(obs_set, obs_set.on_b)]
        assert diagonal == [True, False, True, False]
        psis = PureStateStack(da, db, [oracles.random_pure(rng, da * db) for _ in range(7)])
        self.assert_gram_equals_matmul_route(psis, obs_set)

    def test_one_off_diagonal_entry_is_not_diagonal(self):
        f = np.diag([1.0, -2.0, 0.5]).astype(complex)
        assert np.array_equal(_diagonal_scaling(f, True), [1.0, 1.0, -2.0, -2.0, 0.5, 0.5])
        assert np.array_equal(_diagonal_scaling(f, False), [[1.0], [-2.0], [0.5]])
        f[2, 0] = 1e-300
        for on_b in (False, True):
            assert _diagonal_scaling(f, on_b) is None
            # nor is a diagonal with an imaginary entry
            assert _diagonal_scaling(np.diag([1.0, 1e-12j]), on_b) is None


class TestGridInputs:
    def test_rejects_mixing_weight_outside_unit_interval(self):
        spin = collective_spin_set(2)
        with pytest.raises(ValueError, match="mixing parameters"):
            grid_matrices([spin_ensemble_state(2, 0.1)], [0.5, 1.5], spin)

    def test_rejects_states_of_another_shape(self):
        spin = collective_spin_set(2)
        with pytest.raises(ValueError, match="share one shape"):
            grid_matrices([spin_ensemble_state(2, 0.1), spin_ensemble_state(3, 0.1)],
                          [1.0], spin)
        with pytest.raises(ValueError, match="do not match observables"):
            grid_matrices([spin_ensemble_state(3, 0.1)], [1.0], spin)

    def test_rejects_a_joint_set(self):
        with pytest.raises(ValueError, match="tagged 'A' or 'B'"):
            grid_matrices([bell_state()], [1.0], pauli_product_set())

    def test_rejects_an_empty_grid_by_name(self):
        # it was blamed on shapes: "grid states must share one shape, got []"
        with pytest.raises(ValueError, match="a grid needs at least one state"):
            grid_matrices([], [1.0], collective_spin_set(2))
        # and a grid of blocks that were never added
        with pytest.raises(ValueError, match="a grid needs at least one state"):
            CriterionGrid(collective_spin_set(2)).matrices([1.0])
        # a later block of another shape is named, as a first one is
        grid = CriterionGrid(collective_spin_set(2))
        grid.add([spin_ensemble_state(2, 0.1)])
        with pytest.raises(ValueError, match="do not match observables"):
            grid.add([spin_ensemble_state(3, 0.1)])


class TestStateBipartition:
    """A state that carries a bipartition is held to the set's on every
    route, with the amplitude route's message; a raw array keeps the size
    check.  The dense route read only D, so a 3x2 state passed a 2x3 set."""

    def test_density_matrix_of_the_mirrored_shape_rejected(self, rng):
        obs_set = _definite_parity_set(rng, 2, 3, 2, 2)
        rho = oracles.random_density(rng, 6)
        message = "state dimensions 3x2 do not match observables 2x3"
        psi = PureState(3, 2, oracles.random_pure(rng, 6))
        for state in (DensityMatrix(3, 2, rho), psi, WernerState(psi, 0.5)):
            for route in (criterion_matrix, covariance_commutation):
                with pytest.raises(ValueError, match=message):
                    route(state, obs_set)
        assert criterion_matrix(rho, obs_set).shape == (4, 4)
        with pytest.raises(ValueError, match="state dimension 4 does not match observables 6"):
            criterion_matrix(np.eye(4) / 4, obs_set)

    def test_joint_set_checks_the_state_shape(self):
        psi = PureState(4, 1, bell_state().amplitudes)
        for state in (psi, WernerState(psi, 0.5), psi.density()):
            with pytest.raises(ValueError, match="state dimensions 4x1 do not match "
                                                 "observables 2x2"):
                criterion_matrix(state, pauli_product_set())
        assert criterion_matrix(bell_state(), pauli_product_set()).shape == (3, 3)


def _definite_parity_factor(rng, dim, odd):
    """Real symmetric (transpose parity +1) or purely imaginary
    antisymmetric (parity -1) Hermitian factor."""
    g = rng.standard_normal((dim, dim))
    return 1j * (g - g.T) / 2 if odd else (g + g.T) / 2


def _definite_parity_set(rng, da, db, n_a, n_b):
    """n_a A members and n_b B members of random definite parity, shuffled.
    No parity is passed: each member derives its own, +1 for every A member
    (PT_B leaves A-side factors alone) and -1 for an imaginary antisymmetric
    B factor, so the routes that read it check the derivation."""
    members = []
    for i in range(n_a):
        a = _definite_parity_factor(rng, da, rng.random() < 0.5)
        members.append(Observable(f"a{i}", a, "A"))
    for i in range(n_b):
        odd = bool(rng.random() < 0.5)
        b = _definite_parity_factor(rng, db, odd)
        members.append(Observable(f"b{i}", b, "B"))
    order = rng.permutation(len(members))
    return ObservableSet(tuple(members[i] for i in order), da, db)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 3), (3, 2)]),
    n_a=st.integers(0, 3),
    n_b=st.integers(0, 3),
    mu=st.floats(0.0, 1.0),
)
def test_data_route_matches_evaluator_routes(seed, dims, n_a, n_b, mu):
    assume(n_a + n_b >= 1)
    rng = np.random.default_rng(seed)
    da, db = dims
    obs_set = _definite_parity_set(rng, da, db, n_a, n_b)
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 3), (3, 2)]),
    n_a=st.integers(0, 3),
    n_b=st.integers(0, 3),
    n_terms=st.integers(1, 4),
)
def test_separable_exports_validate_and_stay_psd(seed, dims, n_a, n_b, n_terms):
    # a mixture of product pure states: its record meets the uncertainty
    # relation, and its criterion matrix is positive semidefinite
    assume(n_a + n_b >= 1)
    rng = np.random.default_rng(seed)
    da, db = dims
    obs_set = _definite_parity_set(rng, da, db, n_a, n_b)
    weights = rng.dirichlet(np.ones(n_terms))
    products = [product_state(oracles.random_pure(rng, da), oracles.random_pure(rng, db))
                for _ in range(n_terms)]
    rho = sum(w * psi.density().matrix for w, psi in zip(weights, products))
    data = correlation_data_from_state(DensityMatrix(da, db, rho), obs_set).validate()
    c = criterion_matrix_from_data(data)
    assert np.linalg.eigvalsh(c)[0] >= -1e-10 * max(1.0, np.linalg.norm(c, 2))


@pytest.mark.parametrize("m", [2, 20])
@pytest.mark.parametrize("quadratures", [False, True], ids=["sextet", "quadratures"])
def test_pure_state_exports_validate(m, quadratures):
    # for a pure state V + (i/2) Omega is the Gram matrix of the vectors
    # (xi_j - <xi_j>) psi, singular at t = 0 and t = pi/2, where the state is
    # a product of two coherent states: its rounding must not read as a
    # broken uncertainty relation
    obs_set = hp_quadrature_set(m) if quadratures else collective_spin_set(m)
    for t in (0.0, 0.05, 0.3, np.pi / 2):
        psi = spin_ensemble_state(m, t)
        for state in (psi, psi.density()) if m == 2 else (psi,):
            data = correlation_data_from_state(state, obs_set).validate()
            lowest = np.linalg.eigvalsh(data.v + 0.5j * data.omega)[0]
            if t in (0.0, np.pi / 2):
                assert abs(lowest) <= 1e-12 * max(1.0, np.abs(data.v).max())


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 3), (3, 2)]),
    n_a=st.integers(0, 3),
    n_b=st.integers(0, 3),
    definite=st.booleans(),
    route=st.sampled_from(["raw", "amplitude", "dense"]),
    rank=st.integers(1, 6),
    mu=st.floats(0.0, 1.0),
)
def test_one_map_gives_u_v_omega_and_record(seed, dims, n_a, n_b, definite, route, rank, mu):
    # every route reads one uncertainty matrix, exactly Hermitian, whose real
    # part is V and twice its imaginary part Omega, bit for bit, in the
    # moment functions and in the record alike
    assume(n_a + n_b >= 1)
    rng = np.random.default_rng(seed)
    da, db = dims
    if definite:
        obs_set = _definite_parity_set(rng, da, db, n_a, n_b)
    else:
        members = (
            [Observable(f"a{i}", oracles.random_hermitian(rng, da), "A") for i in range(n_a)]
            + [Observable(f"b{i}", oracles.random_hermitian(rng, db), "B") for i in range(n_b)]
        )
        obs_set = ObservableSet(tuple(members[i] for i in rng.permutation(len(members))), da, db)
    if route == "amplitude":
        state, obs = WernerState(PureState(da, db, oracles.random_pure(rng, da * db)), mu), obs_set
    else:
        state = DensityMatrix(da, db, oracles.random_density(rng, da * db, rank))
        state, obs = (state.matrix, obs_set.matrices()) if route == "raw" else (state, obs_set)
    u = uncertainty_matrix(state, obs)
    v, omega = covariance_commutation(state, obs)
    assert np.array_equal(u, u.conj().T)
    assert np.array_equal(u.real, v)
    assert np.array_equal(2.0 * u.imag, omega)
    if definite and route != "raw":
        data = correlation_data_from_state(state, obs)
        assert np.array_equal(data.v, v)
        assert np.array_equal(data.omega, omega)


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
        assert len(reports.eigenvalues) == 7
        for i, m in enumerate(stack):
            single = detect(m, 1e-3)
            assert reports.eigenvalues[i].tobytes() == single.eigenvalues.tobytes()
            assert reports.min_eigenvalue[i] == single.min_eigenvalue
            assert reports.determinant[i] == single.determinant
            assert reports.verdict[i] == single.verdict
            assert reports.tolerance == single.tolerance
        assert reports.verdict[-1] == UNDETECTED

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

    def test_stack_report_properties_are_member_arrays(self, rng):
        stack = np.array([oracles.random_hermitian(rng, 4) for _ in range(5)] + [np.eye(4)])
        report = detect(stack, 1e-3)
        members = [CriterionReport(eigs, report.tolerance) for eigs in report.eigenvalues]
        assert report.eigenvalues.shape == (6, 4)
        assert report.min_eigenvalue.tolist() == [r.min_eigenvalue for r in members]
        assert report.determinant.tolist() == [r.determinant for r in members]
        assert report.verdict.tolist() == [r.verdict for r in members]
        assert [type(x) for x in (members[0].min_eigenvalue, members[0].determinant,
                                  members[0].verdict)] == [float, float, str]
        # a report is read through its arrays: it is neither sized nor indexed
        for one in (report, detect(np.eye(3))):
            with pytest.raises(TypeError):
                len(one)
            with pytest.raises(TypeError):
                one[0]

    def test_empty_matrix_rejected_and_empty_stack_kept(self):
        with pytest.raises(ValueError, match="dimension at least 1, got 0 x 0"):
            detect(np.zeros((0, 0)))
        empty = detect(np.zeros((0, 3, 3)))
        assert empty.eigenvalues.shape == (0, 3)
        assert empty.min_eigenvalue.shape == empty.verdict.shape == (0,)


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
        # 45 degrees about z mixes S^x_B and S^y_B, of opposite parities
        m = 2
        rho = werner_mix(spin_ensemble_state(m, 0.3), 1.0)
        c = np.sqrt(0.5)
        rotated = rotate_so3(collective_spin_set(m), [[c, c, 0], [-c, c, 0], [0, 0, 1]])
        with pytest.raises(DataValidationError,
                           match="observable \"Sx_B'\" is not locally supported with a "
                                 "definite transpose parity"):
            correlation_data_from_state(rho, rotated)

    @pytest.mark.parametrize("m", [2, 20])
    @pytest.mark.parametrize("r, parities", [
        (np.eye(3), [1, 1, 1, 1, -1, 1]),
        ([[0, -1, 0], [1, 0, 0], [0, 0, 1]], [1, 1, 1, -1, 1, 1]),
        ([[0, 0, 1], [-1, 0, 0], [0, -1, 0]], [1, 1, 1, 1, 1, -1]),
    ], ids=["identity", "90-about-z", "signed-permutation"])
    def test_rotations_with_definite_parity_export(self, m, r, parities):
        # these rotated members have exact parities; a declared parity that
        # every rotation cleared had the data route reject them all
        state = WernerState(spin_ensemble_state(m, 0.05), 0.9)
        rotated = rotate_so3(collective_spin_set(m), r)
        data = correlation_data_from_state(state, rotated)
        assert list(data.pt_parity) == parities
        direct = criterion_matrix(state, rotated)
        bound = 1e-12 * max(1.0, np.linalg.norm(direct, 2))
        assert np.abs(criterion_matrix_from_data(data) - direct).max() <= bound

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

    def test_tuple_fields_read_back(self):
        # only the types tuple() misreads (str, dict) are rejected
        _, _, data = self.build_data()
        payload = data.to_dict()
        for field in ("labels", "partition", "pt_parity"):
            payload[field] = tuple(payload[field])
        restored = CorrelationData.from_dict(payload).validate()
        assert (restored.labels, restored.partition, restored.pt_parity) == (
            data.labels, data.partition, data.pt_parity)
        assert np.array_equal(criterion_matrix_from_data(restored),
                              criterion_matrix_from_data(data))

    def test_missing_field_rejected(self):
        with pytest.raises(DataValidationError, match="missing field"):
            CorrelationData.from_dict({"labels": ["a"]})

    @pytest.mark.parametrize("entry", [1.5, -1.7, True, "1", False,
                                       pytest.param(np.bool_(True), id="numpy-bool"), 0, 1j])
    def test_non_unit_parity_rejected_by_name(self, entry):
        _, _, data = self.build_data()
        payload = data.to_dict()
        payload["pt_parity"][4] = entry
        with pytest.raises(DataValidationError, match="pt_parity entry"):
            CorrelationData.from_dict(payload).validate()

    @pytest.mark.parametrize("dtype", [np.int64, np.int8])
    def test_numpy_integer_parity_round_trips_through_json(self, dtype):
        _, _, data = self.build_data()
        record = replace(data, pt_parity=np.array(data.pt_parity, dtype=dtype))
        exported = record.validate().to_dict()
        assert [type(s) for s in exported["pt_parity"]] == [int] * data.n
        restored = CorrelationData.from_dict(json.loads(json.dumps(exported))).validate()
        assert restored.pt_parity == data.pt_parity
        assert np.array_equal(criterion_matrix_from_data(restored),
                              criterion_matrix_from_data(data))

    @pytest.mark.parametrize("entry", [True, pytest.param(np.bool_(True), id="numpy-bool")])
    def test_bool_parity_rejected_when_built_directly(self, entry):
        _, _, data = self.build_data()
        parities = list(data.pt_parity)
        parities[4] = entry
        with pytest.raises(DataValidationError, match="pt_parity entry True"):
            replace(data, pt_parity=parities).validate()

    def test_float_unit_parity_accepted(self):
        _, _, data = self.build_data()
        payload = data.to_dict()
        payload["pt_parity"] = [float(s) for s in payload["pt_parity"]]
        restored = CorrelationData.from_dict(payload).validate()
        assert restored.pt_parity == data.pt_parity
        assert np.array_equal(
            criterion_matrix_from_data(restored), criterion_matrix_from_data(data)
        )


VALID_RECORD = dict(labels=("a", "b"), partition=("A", "A"), pt_parity=(1, 1),
                    means=np.zeros(2), v=np.eye(2), omega=np.zeros((2, 2)))


@pytest.mark.parametrize("field, value, message", [
    ("labels", (), "no operators in correlation data"),
    ("pt_parity", (1,), "pt_parity has length 1, expected 2"),
    ("means", np.zeros(3), r"means has shape \(3,\), expected \(2,\)"),
    ("partition", ("A", "C"), "partition tag 'C' must be 'A' or 'B'"),
    ("v", np.eye(3), r"V has shape \(3, 3\), expected \(2, 2\)"),
    ("omega", [[0.0, np.nan], [np.nan, 0.0]], "Omega contains NaN or Inf entries"),
    ("omega", [[0.0, 0.5], [0.5, 0.0]], "Omega is not antisymmetric"),
    ("v", np.diag([-1.0, 1.0]), "uncertainty relation violated: .* minimum eigenvalue -1;"),
    ("omega", [[0.0, 4.0], [-4.0, 0.0]],
     "uncertainty relation violated: .* minimum eigenvalue -1;"),
], ids=["no-operators", "length-mismatch", "means-shape", "partition-C", "v-shape",
        "omega-nan", "omega-symmetric", "negative-variance", "commutator-beyond-variances"])
def test_invalid_record_rejected_by_name(field, value, message):
    data = CorrelationData(**{**VALID_RECORD, field: value})
    with pytest.raises(DataValidationError, match=message):
        data.validate()


@pytest.mark.parametrize("scale", [1e-12, 1.0])
@pytest.mark.parametrize("partition, v, omega, message", [
    (("A", "A"), [[100.0, 50.0], [-50.0, 100.0]], np.zeros((2, 2)),
     "covariance matrix V is not symmetric"),
    (("A", "B"), 100 * np.eye(2), [[0.0, 50.0], [-50.0, 0.0]],
     r"Omega\[0,1\] is nonzero across the A/B partition"),
    (("A", "B"), np.diag([-50.0, 1.0]), np.zeros((2, 2)),
     "uncertainty relation violated: .* minimum eigenvalue -5"),
], ids=["asymmetric-v", "cross-partition-omega", "negative-variance"])
def test_record_checks_scale_with_the_record(scale, partition, v, omega, message):
    # the scales were floored at 1, so the records at 1e-12 passed every check
    record = {**VALID_RECORD, "partition": partition, "v": scale * np.asarray(v),
              "omega": scale * np.asarray(omega)}
    with pytest.raises(DataValidationError, match=message):
        CorrelationData(**record).validate()


def test_zero_record_checked_exactly():
    # with V = Omega = 0 the record scale is 0 and every check is exact
    assert CorrelationData(**{**VALID_RECORD, "v": np.zeros((2, 2))}).validate()
    with pytest.raises(DataValidationError, match="not symmetric"):
        CorrelationData(**{**VALID_RECORD, "v": [[0.0, 1e-300], [0.0, 0.0]]}).validate()


def test_raw_operator_list_export_rejected_by_name():
    # it failed with "'numpy.ndarray' object has no attribute 'support'"
    for rho in (np.eye(4) / 4, bell_state()):
        with pytest.raises(TypeError, match="correlation data needs an ObservableSet"):
            correlation_data_from_state(rho, [np.eye(4)])


def test_empty_raw_operator_list_rejected():
    with pytest.raises(ValueError, match="observable list is empty"):
        covariance_commutation(np.eye(2) / 2, [])
