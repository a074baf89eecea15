import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcov.criterion import detect
from entcov.linalg import (
    HermiticityError,
    hermitian_eigenvalues,
    kron,
    partial_transpose,
    psd_project,
)

import oracles
from oracles import SX, SY, SZ


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_block_convention(self):
        assert np.allclose(kron(SZ, SZ), np.diag([1, -1, -1, 1]))

    def test_hand_expanded_entry(self):
        # sigma^x block (0,1) times sigma^y entry (0,1) lands at (0,3)
        assert kron(SX, SY)[0, 3] == -1j

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            kron(np.ones((2, 3)), np.eye(2))


class TestPartialTranspose:
    def test_identity_invariant(self):
        m = np.eye(4) / 4
        assert np.allclose(partial_transpose(m, 2, 2, "B"), m)

    def test_bell_projector_matches_hand_construction(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        pt = partial_transpose(np.outer(psi, psi.conj()), 2, 2, "B")
        assert np.allclose(pt, oracles.bell_pt_matrix(), atol=1e-14)

    @pytest.mark.parametrize("subsystem", ["A", "B"])
    def test_matches_index_loop_oracle(self, rng, subsystem):
        for da, db in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            m = rng.standard_normal((da * db, da * db)) + 1j * rng.standard_normal(
                (da * db, da * db)
            )
            expected = oracles.partial_transpose_loops(m, da, db, subsystem)
            assert np.array_equal(partial_transpose(m, da, db, subsystem), expected)

    def test_involution_and_isometry(self, rng):
        for _ in range(1000):
            da = int(rng.integers(2, 7))
            db = int(rng.integers(2, 7))
            d = da * db
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            pt = partial_transpose(m, da, db, "B")
            assert np.array_equal(partial_transpose(pt, da, db, "B"), m)
            assert np.isclose(np.linalg.norm(pt), np.linalg.norm(m), rtol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4), 2, 3, "B")

    def test_unknown_subsystem(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4), 2, 2, "C")


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(3)), [1, 1, 1])

    def test_pauli_spectrum(self):
        assert np.allclose(hermitian_eigenvalues(SX), [-1, 1])

    def test_bell_pt_spectrum(self):
        eigs = hermitian_eigenvalues(oracles.bell_pt_matrix())
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-14)

    def test_ascending_and_sum_equals_trace(self, rng):
        for _ in range(50):
            m = oracles.random_hermitian(rng, int(rng.integers(2, 9)))
            eigs = hermitian_eigenvalues(m)
            assert np.all(np.diff(eigs) >= 0)
            assert np.isclose(eigs.sum(), np.trace(m).real, rtol=1e-10)

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(HermiticityError) as info:
            hermitian_eigenvalues(m)
        assert info.value.defect > 0

    def test_stack_member_checked_on_its_own_scale(self, rng):
        # a defect of 1e-6 on a unit member is hidden by a large neighbour's norm
        # in a whole-stack norm; each member is measured against its own
        stack = np.array([1e6 * oracles.random_hermitian(rng, 3),
                          oracles.random_hermitian(rng, 3)])
        stack[1, 0, 1] += 1e-6
        with pytest.raises(HermiticityError, match="stack member 1"):
            hermitian_eigenvalues(stack, stacked=True)

    def test_symmetrizes_rounding_noise(self, rng):
        m = oracles.random_hermitian(rng, 5)
        noisy = m + 1e-13 * rng.standard_normal((5, 5))
        assert np.allclose(hermitian_eigenvalues(noisy), hermitian_eigenvalues(m), atol=1e-11)


class TestPsdProject:
    def test_identity_fixed_point(self):
        assert np.allclose(psd_project(np.eye(3)), np.eye(3))

    def test_clip_rule(self):
        assert np.allclose(psd_project(np.diag([1.0, -2.0])), np.diag([1.0, 0.0]))

    def test_bell_pt_clip(self):
        projected = psd_project(oracles.bell_pt_matrix())
        assert np.allclose(
            np.linalg.eigvalsh(projected), [0.0, 0.5, 0.5, 0.5], atol=1e-14
        )

    def test_output_psd_and_fixed_point_on_psd(self, rng):
        for _ in range(100):
            m = oracles.random_hermitian(rng, int(rng.integers(2, 8)))
            out = psd_project(m)
            assert np.linalg.eigvalsh(out)[0] >= -1e-12
            assert np.allclose(psd_project(out), out, atol=1e-12)


class TestHermitianDeterminant:
    """The determinant of a Hermitian matrix as detect reports it."""

    def test_identity(self):
        assert detect(np.eye(3)).determinant == pytest.approx(1.0)

    def test_diagonal(self):
        assert detect(np.diag([2.0, 3.0])).determinant == pytest.approx(6.0)

    def test_bell_pt(self):
        assert detect(oracles.bell_pt_matrix()).determinant == pytest.approx(-1 / 16)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(min_value=2, max_value=12), seed=st.integers(0, 2**32 - 1))
    def test_equals_eigenvalue_product(self, dim, seed):
        m = oracles.random_hermitian(np.random.default_rng(seed), dim)
        det = detect(m).determinant
        expected = np.prod(hermitian_eigenvalues(m))
        assert det == pytest.approx(expected, rel=1e-9, abs=1e-12)
