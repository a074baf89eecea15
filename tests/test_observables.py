import numpy as np
import pytest

from entcov.linalg import partial_transpose
from entcov.observables import (
    Observable,
    ObservableSet,
    collective_spin_matrices,
    collective_spin_set,
    hp_quadrature_block,
    hp_quadrature_set,
    pauli_product_set,
    rotate_so3,
)
from entcov.criterion import criterion_matrix, is_unit_parity
from entcov.states import DensityMatrix, product_state, spin_coherent_x

import oracles


def commutator(x, y):
    return x @ y - y @ x


@pytest.fixture
def polarized_rho():
    m = 4
    psi = product_state(spin_coherent_x(m), spin_coherent_x(m))
    return m, psi.density().matrix


class TestPauliProductSet:
    def test_members_square_to_identity(self):
        for obs in pauli_product_set():
            assert np.allclose(obs.matrix @ obs.matrix, np.eye(4))

    def test_pt_parity_of_yy(self):
        # PT_B maps YY to -YY, but a JOINT member's parity is not derived:
        # nothing reads it, and the data route takes local members only
        obs_set = pauli_product_set()
        yy = obs_set[1]
        assert yy.pt_parity is None
        assert [o.pt_parity for o in obs_set] == [None, None, None]
        pt = partial_transpose(yy.matrix, 2, 2, "B")
        assert np.allclose(pt, -yy.matrix)

    def test_pt_set_refuses_a_joint_member_by_name(self):
        with pytest.raises(ValueError, match="observable 'XX' is JOINT; pt_set needs members "
                                             "tagged 'A' or 'B'"):
            pauli_product_set().pt_set
        # a JOINT member after local ones is named too
        mixed = ObservableSet((collective_spin_set(1)[0], pauli_product_set()[2]), 2, 2)
        with pytest.raises(ValueError, match="observable 'ZZ' is JOINT"):
            mixed.pt_set

    def test_members_mutually_commute(self):
        mats = pauli_product_set().matrices()
        for i in range(3):
            for j in range(3):
                assert np.allclose(commutator(mats[i], mats[j]), 0)


class TestCollectiveSpinSet:
    def test_single_qubit_reduces_to_paulis(self):
        sx, sy, sz = collective_spin_matrices(1)
        assert np.allclose(sx, oracles.SX)
        assert np.allclose(sy, oracles.SY)
        assert np.allclose(sz, oracles.SZ)

    def test_polarized_mean(self, polarized_rho):
        m, rho = polarized_rho
        obs_set = collective_spin_set(m)
        sx_a = obs_set.matrices()[0]
        assert np.trace(rho @ sx_a).real == pytest.approx(m, rel=1e-12)

    def test_pauli_sum_commutator(self):
        obs_set = collective_spin_set(3)
        sx_a, sy_a, sz_a = (obs_set[i].matrix for i in range(3))
        assert np.allclose(commutator(sx_a, sy_a), 2j * sz_a, atol=1e-12)

    def test_pt_set_transposes_b_factors_only(self):
        obs_set = collective_spin_set(3)
        pt = obs_set.pt_set
        assert pt is obs_set.pt_set
        assert pt.labels == obs_set.labels
        assert all(pt[i] is obs_set[i] for i in range(3))
        for o, t in zip(obs_set[3:], pt[3:]):
            # the view b^T: PT_B(I (x) b) = I (x) b^T
            assert np.shares_memory(t.matrix, o.matrix)
            assert np.array_equal(t.matrix, o.matrix.T)
            assert t.matrix.T.tobytes() == o.matrix.tobytes()
        # S^y_B has parity -1, so its transpose is -S^y_B
        assert np.array_equal(pt[4].matrix, -obs_set[4].matrix)

    def test_pt_parity_of_sy_b(self):
        obs_set = collective_spin_set(3)
        assert obs_set[4].pt_parity == -1
        sy_b = obs_set.matrices()[4]
        pt = partial_transpose(sy_b, 4, 4, "B")
        assert np.allclose(pt, -sy_b)

    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_casimir(self, m):
        sx, sy, sz = collective_spin_matrices(m)
        total = sx @ sx + sy @ sy + sz @ sz
        assert np.allclose(total, m * (m + 2) * np.eye(m + 1), atol=1e-9)

    def test_a_and_b_operators_commute(self):
        mats = collective_spin_set(4).matrices()
        for i in range(3):
            for j in range(3, 6):
                norm = np.linalg.norm(commutator(mats[i], mats[j]))
                assert norm < 1e-12

    def test_supports_and_labels(self):
        obs_set = collective_spin_set(2)
        assert [o.support for o in obs_set] == ["A", "A", "A", "B", "B", "B"]
        assert len(set(obs_set.labels)) == 6


class TestHpQuadratureSet:
    def test_canonical_commutator_on_polarized_state(self, polarized_rho):
        m, rho = polarized_rho
        quads = hp_quadrature_set(m)
        x_a, p_a = quads.matrices()[:2]
        value = np.trace(rho @ commutator(x_a, p_a))
        assert value == pytest.approx(1j, abs=1e-12)

    def test_zero_mean_and_vacuum_variance(self, polarized_rho):
        m, rho = polarized_rho
        x_a = hp_quadrature_set(m).matrices()[0]
        mean = np.trace(rho @ x_a).real
        second = np.trace(rho @ x_a @ x_a).real
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert second - mean**2 == pytest.approx(0.5, rel=1e-12)

    def test_parities(self):
        quads = hp_quadrature_set(3)
        assert [q.pt_parity for q in quads] == [1, 1, -1, 1]
        assert quads.labels == ("x_A", "p_A", "x_B", "p_B")

    def test_rotated_source_clears_parity(self):
        # a rotation that mixes S^y and S^z leaves the B quadratures without a
        # definite parity; the identity rotation keeps every parity
        c = np.sqrt(0.5)
        about_x = np.array([[1, 0, 0], [0, c, -c], [0, c, c]])
        quads = hp_quadrature_set(2, spin_set=rotate_so3(collective_spin_set(2), about_x))
        assert [q.pt_parity for q in quads] == [1, 1, None, None]
        quads = hp_quadrature_set(2, spin_set=rotate_so3(collective_spin_set(2), np.eye(3)))
        assert [q.pt_parity for q in quads] == [1, 1, -1, 1]

    @pytest.mark.parametrize("rotated", [False, True])
    def test_criterion_matrix_is_sextet_block(self, rng, rotated):
        # the criterion matrix is bilinear in the operators: the quadratures'
        # is the sextet's (y, z) block over 2M, here on the dense route
        m = 3
        spin = collective_spin_set(m)
        if rotated:
            spin = rotate_so3(spin, np.linalg.qr(rng.normal(size=(3, 3)))[0])
        rho = DensityMatrix(m + 1, m + 1, oracles.random_density(rng, (m + 1) ** 2))
        direct = criterion_matrix(rho, hp_quadrature_set(m, spin_set=spin))
        block = hp_quadrature_block(criterion_matrix(rho, spin), m)
        assert np.abs(block - direct).max() <= 1e-13 * max(1.0, np.linalg.norm(direct, 2))
        stack = np.array([criterion_matrix(rho, spin)] * 3).reshape(3, 1, 6, 6)
        assert hp_quadrature_block(stack, m).shape == (3, 1, 4, 4)

    def test_rejects_non_sextet(self):
        with pytest.raises(ValueError):
            hp_quadrature_set(2, spin_set=pauli_product_set())

    def test_rejects_sextet_of_another_size(self):
        # a mismatched sextet would be scaled by 1/sqrt(2m), not 1/sqrt(2M)
        with pytest.raises(ValueError, match="spin_set has dimensions 3x3, expected 6x6"):
            hp_quadrature_set(5, spin_set=collective_spin_set(2))
        with pytest.raises(ValueError, match="spin_set"):
            hp_quadrature_set(1, spin_set=rotate_so3(collective_spin_set(2), np.eye(3)))


class TestRotateSo3:
    def test_identity_rotation(self):
        obs_set = collective_spin_set(2)
        rotated = rotate_so3(obs_set, np.eye(3))
        for before, after in zip(obs_set, rotated):
            assert np.allclose(after.matrix, before.matrix)
            assert after.pt_parity == before.pt_parity

    def test_diagonal_xy_rotation(self):
        # x' = (x + y)/sqrt(2), y' = (y - x)/sqrt(2), z' = z
        r = np.array([[1, 1, 0], [-1, 1, 0], [0, 0, np.sqrt(2)]]) / np.sqrt(2)
        obs_set = collective_spin_set(3)
        rotated = rotate_so3(obs_set, r)
        expected = (obs_set[0].matrix + obs_set[1].matrix) / np.sqrt(2)
        assert np.allclose(rotated[0].matrix, expected, atol=1e-12)

    def test_commutator_covariance(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rotated = rotate_so3(collective_spin_set(2), q)
        sx, sy, sz = (rotated[i].matrix for i in range(3))
        assert np.allclose(commutator(sx, sy), 2j * sz, atol=1e-10)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            rotate_so3(collective_spin_set(2), np.ones((3, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        # NaN fails every comparison, so the orthogonality test alone lets it through
        r = np.eye(3)
        r[0, 0] = value
        with pytest.raises(ValueError, match="rotation matrix contains NaN or Inf"):
            rotate_so3(collective_spin_set(2), r)


class TestValidation:
    @pytest.mark.parametrize("support", ["A", "JOINT"])
    def test_rejects_non_finite_factor(self, support):
        # NaN fails every comparison, so the set's Hermiticity and parity tests let it through
        m = np.eye(2 if support == "A" else 4, dtype=complex)
        m[1, 1] = np.nan
        with pytest.raises(ValueError, match="observable 'bad' contains NaN or Inf"):
            Observable("bad", m, support)

    def test_rejects_non_hermitian_member(self):
        bad = Observable("bad", np.array([[0, 1], [0, 0]]), "A")
        good = Observable("id", np.eye(2), "A")
        with pytest.raises(ValueError, match="Hermitian"):
            ObservableSet((bad, good), 2, 1)

    def test_takes_no_parity_argument(self):
        # the parity is derived from the member, so there is no claim to pass
        with pytest.raises(TypeError):
            Observable("yy", np.kron(oracles.SY, oracles.SY), "JOINT", 1)
        with pytest.raises(TypeError):
            Observable("z", oracles.SZ, "B", pt_parity=1)

    @pytest.mark.parametrize("parity", [True, False, np.bool_(True), 1.5, "1", 0, 1j])
    def test_rejects_non_unit_parity(self, parity):
        # Observable refuses a parity of any value, and the +1/-1 rule that
        # exported parities are held to refuses each of these
        with pytest.raises(TypeError):
            Observable("z", oracles.SZ, "A", parity)
        assert not is_unit_parity(parity)

    @pytest.mark.parametrize("members, dim_a, dim_b", [
        ((Observable("a", np.zeros((0, 0)), "A"), Observable("b", np.eye(2), "B")), 0, 2),
        ((Observable("a", np.eye(2), "A"),), 2, -1),
    ])
    def test_rejects_non_positive_dimension(self, members, dim_a, dim_b):
        # refused before the member checks, which a 0 x 0 factor on a side of
        # dimension 0 would pass
        with pytest.raises(ValueError, match="subsystem dimensions must be positive"):
            ObservableSet(members, dim_a, dim_b)

    def test_rejects_duplicate_labels(self):
        a = Observable("w", np.eye(2), "A")
        b = Observable("w", np.kron(oracles.SZ, oracles.SZ), "JOINT")
        with pytest.raises(ValueError, match="duplicate"):
            ObservableSet((a, b), 2, 2)

    def test_rejects_dimension_mismatch(self):
        a = Observable("w", np.eye(4), "A")
        with pytest.raises(ValueError, match="shape"):
            ObservableSet((a,), 2, 3)

    def test_rejects_false_support_tag(self):
        # on the Bell state this set gave eigenvalues [-2, 1, 2] by the dense
        # route and [0, 0, 1] by the correlation-data route, with no error
        members = (
            Observable("ZZ", np.kron(oracles.SZ, oracles.SZ), "A"),
            Observable("Z_A", np.kron(oracles.SZ, np.eye(2)), "A"),
            Observable("XX", np.kron(oracles.SX, oracles.SX), "B"),
        )
        with pytest.raises(ValueError, match=r"'ZZ' is tagged 'A' but has shape \(4, 4\)"):
            ObservableSet(members, 2, 2)
        with pytest.raises(ValueError, match=r"'Z_A' is tagged 'A' but has shape \(4, 4\)"):
            ObservableSet(members[1:], 2, 2)
        with pytest.raises(ValueError, match=r"'XX' is tagged 'B' but has shape \(4, 4\)"):
            ObservableSet(members[2:], 2, 2)

    def test_local_parity_checked_on_factor(self):
        # PT_B transposes a B factor and leaves an A factor alone
        assert Observable("Sy_B", oracles.SY, "B").pt_parity == -1
        assert Observable("Sy_A", oracles.SY, "A").pt_parity == 1
        assert Observable("Sx_B", oracles.SX, "B").pt_parity == 1

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_hermiticity_measured_on_member_norm(self, scale):
        # an absolute floor below norm 1 accepted 1e-12 |0><1| as Hermitian
        nilpotent = Observable("n", scale * np.array([[0, 1], [0, 0]]), "A")
        with pytest.raises(ValueError, match="observable 'n' is not Hermitian"):
            ObservableSet((nilpotent,), 2, 2)
        assert len(ObservableSet((Observable("y", scale * oracles.SY, "A"),), 2, 2)) == 1

    @pytest.mark.parametrize("matrix, support, parity", [
        (1e-12 * oracles.SY, "B", -1),
        (1e12 * oracles.SX, "B", 1),
        (oracles.SX + oracles.SY, "B", None),
        (1e-12 * oracles.SY, "A", 1),
        (oracles.SX + oracles.SY, "A", 1),
        (np.zeros((2, 2)), "B", 1),
        (np.kron(oracles.SZ, oracles.SZ), "JOINT", None),
    ], ids=["small-Sy-B", "large-Sx-B", "Sx+Sy-B", "small-Sy-A", "Sx+Sy-A", "zero-B", "ZZ"])
    def test_parity_measured_on_member_norm(self, matrix, support, parity):
        # an absolute floor would give 1e-12 S^y_B both signs, and 1e12 S^x_B neither
        derived = Observable("o", matrix, support).pt_parity
        assert derived == parity and type(derived) is type(parity)

    @pytest.mark.parametrize("build, message", [
        (lambda: Observable("c", np.eye(2), "C"), "unknown support tag 'C'"),
        (lambda: Observable("r", np.ones((2, 3)), "A"), "observable 'r' is not a square matrix"),
        (lambda: ObservableSet((), 2, 2), "observable set is empty"),
        (lambda: collective_spin_matrices(0), "ensemble size must be >= 1"),
        (lambda: hp_quadrature_set(0), "ensemble size must be >= 1"),
        (lambda: rotate_so3(collective_spin_set(1), np.eye(2)),
         r"rotation must be 3x3, got shape \(2, 2\)"),
    ], ids=["support-C", "non-square", "empty-set", "spins-m0", "quadratures-m0",
            "rotation-2x2"])
    def test_invalid_input_rejected_by_name(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_local_factors(self):
        m = 3
        obs_set = collective_spin_set(m)
        spins = collective_spin_matrices(m)
        eye = np.eye(m + 1)
        joint = obs_set.matrices()
        for i, o in enumerate(obs_set):
            assert np.array_equal(o.matrix, spins[i % 3])
            embedded = np.kron(spins[i % 3], eye) if i < 3 else np.kron(eye, spins[i % 3])
            assert np.array_equal(joint[i], embedded)
        pauli = pauli_product_set()
        for o, x in zip(pauli, pauli.matrices()):
            assert x is o.matrix

    def test_every_generated_set_passes_own_invariants(self):
        # construction re-runs validation, so this is the self-check
        pauli_product_set()
        collective_spin_set(6)
        hp_quadrature_set(6)
