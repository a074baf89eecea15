import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from entcov.criterion import covariance_commutation, criterion_matrix, uncertainty_matrix
from entcov.linalg import partial_transpose
from entcov.observables import PAULI_X, PAULI_Z, collective_spin_matrices, collective_spin_set
from entcov.reference import AnnealParams, witness_optimize
from entcov.states import (
    GRID_CHUNK_BYTES,
    DensityMatrix,
    PureState,
    PureStateStack,
    WernerState,
    as_matrix,
    as_state_stack,
    bell_state,
    mixing_weights,
    product_state,
    spin_coherent_x,
    spin_ensemble_state,
    szsz_evolve_blocks,
    werner_mix,
)
from entcov.uncertainty import variance

import oracles


def evolve(state, ts):
    """The amplitude rows of every block of szsz_evolve_blocks, in order."""
    return np.concatenate([b.amplitudes for b in szsz_evolve_blocks(state, ts)])


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(2, 2, np.array([1.0, 0, 0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState(2, 2, np.array([1.0, 0, 0]))

    def test_rejects_non_finite_amplitudes(self):
        # a NaN norm fails no tolerance comparison, so it is rejected by name
        with pytest.raises(ValueError, match="NaN or Inf"):
            PureState(2, 2, np.array([np.nan, 0, 0, 0]))

    def test_rejects_amplitudes_of_two_axes(self):
        # the one check a PureState keeps before its PureStateStack row check
        with pytest.raises(ValueError, match="amplitude vector has shape"):
            PureState(2, 2, np.array([[1.0, 0], [0, 0]]))

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            PureState(0, 1, np.array([1.0]))

    def test_density_round_trip(self, rng):
        psi = oracles.random_pure(rng, 6)
        rho = PureState(2, 3, psi).density()
        assert np.allclose(rho.matrix, np.outer(psi, psi.conj()))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(2, 2, m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(2, 2, np.eye(4, dtype=complex))

    def test_rejects_non_finite_entries(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            DensityMatrix(2, 2, m)

    def test_min_eigenvalue_is_symmetrized_eigvalsh(self, rng):
        for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
            g = oracles.random_hermitian(rng, dim_a * dim_b)
            # a rounding-sized anti-Hermitian part that the eigensolve must drop
            m = oracles.random_density(rng, dim_a * dim_b) + 1e-14j * g
            expected = np.linalg.eigvalsh((m + m.conj().T) / 2)[0]
            assert DensityMatrix(dim_a, dim_b, m).min_eigenvalue() == expected

    def test_validate_flags_negative_eigenvalue(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        state = DensityMatrix(2, 2, m)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            state.validate()


class TestRawStateRules:
    """A raw array given as a state is held to DensityMatrix's rules."""

    @pytest.mark.parametrize("m, match", [
        ([[2, 0], [0, 0]], "trace"),
        ([[1, 1], [0, 0]], "not Hermitian"),
        ([[np.nan, 0], [0, 1]], "NaN or Inf"),
        ([[0.5, np.inf], [np.inf, 0.5]], "NaN or Inf"),
    ])
    def test_rejected_by_name(self, m, match):
        with pytest.raises(ValueError, match=match):
            as_matrix(m)
        with pytest.raises(ValueError, match=match):
            DensityMatrix(2, 1, m)
        op = PAULI_Z if match == "trace" else PAULI_X
        with pytest.raises(ValueError, match=match):
            variance(m, op)

    def test_valid_raw_state_accepted_as_is(self, rng):
        rho = oracles.random_density(rng, 4)
        assert as_matrix(rho).tobytes() == rho.astype(complex).tobytes()
        assert variance(np.eye(2) / 2, PAULI_Z) == pytest.approx(1.0)


def test_state_stack_rejected_as_one_state():
    # it failed inside as_matrix with "must be real number, not PureState"
    stack = PureStateStack(3, 3, [spin_ensemble_state(2, t).amplitudes for t in (0.1, 0.2)])
    spin = collective_spin_set(2)
    calls = (lambda: as_matrix(stack),
             lambda: criterion_matrix(stack, spin),
             lambda: covariance_commutation(stack, spin),
             lambda: uncertainty_matrix(stack, spin),
             lambda: witness_optimize(stack, 2, AnnealParams(sweeps=1)))
    for call in calls:
        with pytest.raises(TypeError, match="a PureStateStack is a grid of states, not one "
                                            "state: it goes to CriterionGrid or PptGrid"):
            call()


class TestBellState:
    def test_amplitudes(self):
        psi = bell_state()
        assert psi.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
        assert psi.amplitudes[3] == pytest.approx(1 / math.sqrt(2))
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)

    def test_reduced_state_is_maximally_mixed(self):
        rho = bell_state().density().matrix
        reduced = oracles.partial_trace_b(rho, 2, 2)
        assert np.allclose(reduced, np.eye(2) / 2)


class TestWernerMix:
    def test_mu_zero_is_maximally_mixed(self):
        rho = werner_mix(bell_state(), 0.0)
        assert np.allclose(rho.matrix, np.eye(4) / 4)

    def test_mu_one_is_projector(self):
        psi = bell_state()
        rho = werner_mix(psi, 1.0)
        assert np.allclose(rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()))

    def test_half_mixed_bell_spectrum(self):
        rho = werner_mix(bell_state(), 0.5)
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert np.allclose(eigs, [1 / 8, 1 / 8, 1 / 8, 5 / 8], atol=1e-12)

    @pytest.mark.parametrize("mu", [-0.01, 1.01, 2.0])
    def test_rejects_mu_out_of_range(self, mu):
        with pytest.raises(ValueError):
            werner_mix(bell_state(), mu)
        with pytest.raises(ValueError, match="outside"):
            WernerState(bell_state(), mu)

    def test_rejects_nan_mu(self):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\] \(none outside\), got nan$"):
            WernerState(bell_state(), np.nan)

    def test_werner_state_density_is_werner_mix(self, rng):
        psi = PureState(2, 3, oracles.random_pure(rng, 6))
        state = WernerState(psi, 0.3)
        assert np.array_equal(state.density().matrix, werner_mix(psi, 0.3).matrix)
        assert np.array_equal(as_matrix(state), werner_mix(psi, 0.3).matrix)
        with pytest.raises(ValueError, match="PureState"):
            WernerState(psi.density(), 0.3)

    def test_valid_density_matrix_for_random_inputs(self, rng):
        for _ in range(200):
            da = int(rng.integers(2, 4))
            db = int(rng.integers(2, 4))
            psi = PureState(da, db, oracles.random_pure(rng, da * db))
            mu = float(rng.uniform())
            werner_mix(psi, mu).validate()


class TestPureStateStack:
    def rows(self, rng, n=5, dim=6):
        return np.array([oracles.random_pure(rng, dim) for _ in range(n)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_row_by_index(self, rng, bad):
        amps = self.rows(rng)
        amps[3, 2] = bad
        with pytest.raises(ValueError, match="amplitude row 3 contains NaN or Inf"):
            PureStateStack(2, 3, amps)

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, 0.5, 0.0])
    def test_rejects_row_norm_by_index(self, rng, scale):
        amps = self.rows(rng)
        amps[4] *= scale
        with pytest.raises(ValueError, match="amplitude row 4 has norm .* deviates from 1"):
            PureStateStack(2, 3, amps)

    @pytest.mark.parametrize("shape", [(0, 6), (6,), (2, 5), (1, 2, 3)])
    def test_rejects_shape(self, shape):
        with pytest.raises(ValueError, match="amplitude stack has shape"):
            PureStateStack(2, 3, np.ones(shape, dtype=complex) / np.sqrt(6))

    def test_rows_are_checked_pure_states_and_matrices_a_view(self, rng):
        amps = self.rows(rng)
        stack = PureStateStack(2, 3, amps)
        assert stack.amplitudes is amps  # a complex C-ordered array is not copied
        assert np.shares_memory(stack.matrices(), amps)
        assert stack.matrices().shape == (5, 2, 3)
        assert len(stack) == 5
        for row, psi in zip(amps, stack, strict=True):
            assert isinstance(psi, PureState)
            assert psi.amplitudes.tobytes() == row.tobytes()
        assert stack[-1].amplitudes.tobytes() == amps[-1].tobytes()

    def test_list_conversion(self, rng):
        psis = [PureState(2, 3, row) for row in self.rows(rng)]
        stack = as_state_stack(psis)
        assert np.array_equal(stack.amplitudes, [psi.amplitudes for psi in psis])
        assert as_state_stack(stack) is stack
        with pytest.raises(ValueError, match="share one shape"):
            as_state_stack(psis + [PureState(3, 2, psis[0].amplitudes)])
        with pytest.raises(ValueError, match="must be PureStates"):
            as_state_stack([psis[0].density()])

    def test_evolved_grid_is_one_stack(self):
        state = product_state(spin_coherent_x(4), spin_coherent_x(4))
        grid, = szsz_evolve_blocks(state, np.linspace(0.0, 0.5, 7))
        assert isinstance(grid, PureStateStack)
        assert grid.amplitudes.shape == (7, 25)


class TestSpinCoherentX:
    def test_single_qubit(self):
        assert np.allclose(spin_coherent_x(1), [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_two_qubits_binomial(self):
        assert np.allclose(spin_coherent_x(2), [0.5, 1 / math.sqrt(2), 0.5])

    def test_mean_collective_x_is_m(self):
        m = 7
        amps = spin_coherent_x(m)
        sx, _, _ = collective_spin_matrices(m)
        assert np.vdot(amps, sx @ amps).real == pytest.approx(m, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 17, 31, 45])
    def test_positive_symmetric_normalized(self, m):
        amps = spin_coherent_x(m)
        assert np.all(amps > 0)
        assert np.allclose(amps, amps[::-1], rtol=1e-12)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [31, 40, 200, 2000])
    def test_exact_to_an_ulp(self, m):
        amps = spin_coherent_x(m)
        assert np.all(amps > 0)
        with localcontext() as ctx:
            ctx.prec = 60
            for k in range(m + 1):
                exact = (Decimal(math.comb(m, k)) / 2**m).sqrt()
                assert abs(Decimal(amps[k]) - exact) <= Decimal("2.3e-16") * exact, k
        assert abs(np.linalg.norm(amps) - 1.0) <= 1e-15

    @pytest.mark.parametrize("m", range(2, 31, 2))
    def test_even_m_bitwise_equals_float_binomials(self, m):
        # C(M, k) < 2^53 is exact in a float and 2^(M/2) is a power of two
        float_route = np.array([math.sqrt(math.comb(m, k)) for k in range(m + 1)]) / 2 ** (m / 2)
        assert np.array_equal(spin_coherent_x(m), float_route)


class TestSzszEvolve:
    def test_time_zero_is_identity(self):
        state = product_state(spin_coherent_x(3), spin_coherent_x(3))
        evolved = evolve(state, [0.0])[0]
        assert np.array_equal(evolved, state.amplitudes)

    def test_phase_matches_matrix_exponential(self):
        m = 1
        t = 0.3
        sx, _, sz = collective_spin_matrices(m)
        state0 = product_state(spin_coherent_x(m), spin_coherent_x(m))
        expected = expm(1j * t * np.kron(sz, sz)) @ state0.amplitudes
        assert np.allclose(evolve(state0, [t])[0], expected, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_disentangles_at_half_pi(self, m):
        rho = spin_ensemble_state(m, math.pi / 2).density()
        pt = partial_transpose(rho.matrix, m + 1, m + 1, "B")
        assert np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0] >= -1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=6),
        t=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    def test_norm_preserved_and_pi_periodic(self, m, t):
        state = spin_ensemble_state(m, t)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        shifted = spin_ensemble_state(m, t + math.pi)
        fidelity = abs(np.vdot(shifted.amplitudes, state.amplitudes))
        assert fidelity == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_time_by_index(self, bad):
        # the time, not the amplitude row its phases would fill with NaN
        state = product_state(spin_coherent_x(2), spin_coherent_x(2))
        with pytest.raises(ValueError, match="evolution time 1 is not finite"):
            szsz_evolve_blocks(state, [0.1, bad, 0.2])

    def test_requires_equal_sides(self):
        state = product_state(spin_coherent_x(2), spin_coherent_x(3))
        with pytest.raises(ValueError):
            szsz_evolve_blocks(state, [0.1])

    @pytest.mark.parametrize("m", [1, 2, 3, 20, 200])
    def test_phase_table_bitwise_equals_per_entry_exp(self, m):
        # t = 0, negative t and t beyond pi, in one grid and one at a time
        state = product_state(spin_coherent_x(m), spin_coherent_x(m))
        ts = np.array([0.0, -0.7, 0.013, 0.5, math.pi, 3.9, -5.2])
        expected = oracles.szsz_evolve_entries(state.amplitudes, m, ts)
        assert evolve(state, ts).tobytes() == expected.tobytes()
        for t, row in zip(ts, expected):
            assert evolve(state, [t]).tobytes() == row.tobytes()

    def test_blocks_hold_at_most_their_bytes_and_the_grid_rows(self):
        # 441 amplitudes of 16 bytes: GRID_CHUNK_BYTES holds 37 rows at M = 20
        state = product_state(spin_coherent_x(20), spin_coherent_x(20))
        rows = GRID_CHUNK_BYTES // (441 * 16)
        assert rows == 37
        ts = np.linspace(-0.3, 0.5, 2 * rows + 3)
        blocks = [b.amplitudes for b in szsz_evolve_blocks(state, ts)]
        assert [len(b) for b in blocks] == [rows, rows, 3]
        expected = oracles.szsz_evolve_entries(state.amplitudes, 20, ts)
        assert np.concatenate(blocks).tobytes() == expected.tobytes()

    def test_grid_rows_equal_single_times(self):
        state = product_state(spin_coherent_x(20), spin_coherent_x(20))
        ts = np.linspace(-0.3, 0.5, 17)
        grid, = szsz_evolve_blocks(state, ts)
        assert len(grid) == len(ts)
        for t, evolved in zip(ts, grid):
            single = evolve(state, [t])[0]
            assert evolved.amplitudes.tobytes() == single.tobytes()


@pytest.mark.parametrize("build, message", [
    (lambda: DensityMatrix(0, 2, np.eye(0)), "subsystem dimensions must be positive"),
    (lambda: DensityMatrix(2, 2, np.eye(2) / 2),
     r"matrix has shape \(2, 2\), expected \(4, 4\)"),
    (lambda: mixing_weights([[0.5]]), "mixing parameters must form a 1-D list"),
    (lambda: as_matrix(np.ones((2, 3)) / 2), r"expected a square matrix, got shape \(2, 3\)"),
    (lambda: spin_coherent_x(0), "ensemble size must be >= 1"),
    (lambda: product_state(np.eye(2), [1.0]), "amplitude vectors must be one-dimensional"),
    (lambda: szsz_evolve_blocks(product_state([1.0, 0.0], [1.0, 0.0]), []),
     "the evolution needs at least one time"),
], ids=["dimension-0", "wrong-shape", "weights-2d", "non-square-raw", "coherent-m0",
        "product-2d", "no-time"])
def test_invalid_input_rejected_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()
