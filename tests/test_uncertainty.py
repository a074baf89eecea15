import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcov.criterion import uncertainty_matrix
from entcov.states import PureState, bell_state, werner_mix
from entcov.suite import run_property_battery
from entcov.uncertainty import (
    UncertaintyReport,
    invariant_decomposition,
    schrodinger_I2,
    schrodinger_I3,
    uncertainty_report,
    variance,
)

import oracles
from oracles import SX, SY, SZ

KET0 = np.diag([1.0, 0.0]).astype(complex)  # |0><0|
MIXED_QUBIT = np.eye(2, dtype=complex) / 2


class TestVariance:
    def test_pauli_on_basis_state(self):
        assert variance(KET0, SX) == pytest.approx(1.0)
        assert variance(KET0, SZ) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_raw_operator_hermiticity_measured_on_its_norm(self, scale):
        # an absolute floor below norm 1 gave 1e-12 |0><1| a variance of 0.0
        with pytest.raises(ValueError, match="observable 0 is not Hermitian"):
            variance(MIXED_QUBIT, scale * np.array([[0, 1], [0, 0]]))
        assert variance(MIXED_QUBIT, scale * SY) == pytest.approx(scale**2)


class TestSchrodingerI2:
    def test_saturated_on_basis_state(self):
        # variances 1 and 1, commutator term |<sigma_z>|^2 = 1 saturates
        assert schrodinger_I2(KET0, SX, SY) == pytest.approx(0.0, abs=1e-12)

    def test_identical_operators_give_zero(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            rho = oracles.random_density(rng, dim)
            x = oracles.random_hermitian(rng, dim)
            assert schrodinger_I2(rho, x, x) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_qubit(self):
        assert schrodinger_I2(MIXED_QUBIT, SX, SY) == pytest.approx(1.0)

    def test_nonnegative_on_random_states(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            rho = oracles.random_density(rng, dim)
            x = oracles.random_hermitian(rng, dim)
            y = oracles.random_hermitian(rng, dim)
            assert schrodinger_I2(rho, x, y) >= -1e-9

    def test_matches_explicit_pair_formula(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            rho = oracles.random_density(rng, dim)
            x = oracles.random_hermitian(rng, dim)
            y = oracles.random_hermitian(rng, dim)
            expected = oracles.pair_residual(rho, x, y)
            scale = variance(rho, x) * variance(rho, y)
            assert abs(schrodinger_I2(rho, x, y) - expected) <= 1e-12 * scale


class TestSchrodingerI3:
    def test_zero_variance_member_gives_zero(self):
        assert schrodinger_I3(KET0, SX, SY, SZ) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert schrodinger_I3(MIXED_QUBIT, SX, SY, SZ) == pytest.approx(1.0)

    def test_pure_state_matches_uncertainty_determinant(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            psi = oracles.random_pure(rng, dim)
            mats = [oracles.random_hermitian(rng, dim) for _ in range(3)]
            rho = np.outer(psi, psi.conj())
            via_vectors = oracles.triple_residual_overlap(psi, mats)
            assert schrodinger_I3(rho, *mats) == pytest.approx(via_vectors, abs=1e-9)

    def test_accepts_pure_state_object(self):
        psi = bell_state()
        mats = [np.kron(s, np.eye(2)) for s in (SX, SY, SZ)]
        direct = schrodinger_I3(psi, *mats)
        via_density = schrodinger_I3(psi.density(), *mats)
        assert direct == pytest.approx(via_density, abs=1e-10)

    def test_mixed_state_determinant_path(self, rng):
        rho = werner_mix(bell_state(), 0.6)
        mats = [np.kron(s, np.eye(2)) for s in (SX, SY, SZ)]
        value = schrodinger_I3(rho, *mats)
        r = rho.matrix
        u = np.array([
            [oracles.covariance_entry(r, x, y) + 0.5j * oracles.commutation_entry(r, x, y)
             for y in mats]
            for x in mats
        ])
        assert value == pytest.approx(np.linalg.det(u).real, abs=1e-12)
        assert value >= -1e-9

    def test_nonnegative_on_random_mixed_states(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            rho = oracles.random_density(rng, dim)
            mats = [oracles.random_hermitian(rng, dim) for _ in range(3)]
            assert schrodinger_I3(rho, *mats) >= -1e-9


class TestInvariantDecomposition:
    def test_order_one_is_trace(self, rng):
        m = oracles.random_hermitian(rng, 5)
        assert invariant_decomposition(m, 1) == pytest.approx(np.trace(m).real, rel=1e-12)

    def test_order_n_is_determinant(self, rng):
        m = oracles.random_hermitian(rng, 5)
        assert invariant_decomposition(m, 5) == pytest.approx(
            np.linalg.det(m).real, rel=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=6),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_principal_minor_enumeration(self, dim, k, seed):
        if k > dim:
            return
        m = oracles.random_hermitian(np.random.default_rng(seed), dim)
        expected = oracles.principal_minor_sum(m, k)
        assert invariant_decomposition(m, k) == pytest.approx(expected, rel=1e-8, abs=1e-9)

    def test_rejects_out_of_range_order(self):
        with pytest.raises(ValueError, match="outside"):
            invariant_decomposition(np.eye(3), 4)
        with pytest.raises(ValueError, match="outside"):
            invariant_decomposition(np.eye(3), 0)

    def test_order_correspondence_with_residual_sums(self, rng):
        # invariants of the uncertainty matrix collect the residuals order
        # by order: trace = sum of variances, second = pair residuals,
        # third (N = 3) = the triple residual
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            psi = oracles.random_pure(rng, dim)
            rho = np.outer(psi, psi.conj())
            mats = [oracles.random_hermitian(rng, dim) for _ in range(3)]
            u = uncertainty_matrix(rho, mats)
            total_var = sum(variance(rho, x) for x in mats)
            assert invariant_decomposition(u, 1) == pytest.approx(total_var, abs=1e-9)
            pair_sum = (
                schrodinger_I2(rho, mats[0], mats[1])
                + schrodinger_I2(rho, mats[1], mats[2])
                + schrodinger_I2(rho, mats[0], mats[2])
            )
            assert invariant_decomposition(u, 2) == pytest.approx(pair_sum, abs=1e-9)
            triple = schrodinger_I3(rho, *mats)
            assert invariant_decomposition(u, 3) == pytest.approx(triple, abs=1e-9)


class TestUncertaintyReport:
    def test_report_contents(self, rng):
        dim = 4
        rho = oracles.random_density(rng, dim)
        mats = [oracles.random_hermitian(rng, dim) for _ in range(4)]
        report = uncertainty_report(rho, mats)
        assert report.n == 4
        assert set(report.invariant_sums) == {1, 2, 3, 4}
        singles = [s for s in report.i_values if len(s) == 1]
        pairs = [s for s in report.i_values if len(s) == 2]
        triples = [s for s in report.i_values if len(s) == 3]
        assert (len(singles), len(pairs), len(triples)) == (4, 6, 4)
        assert sum(report.i_values[s] for s in singles) == pytest.approx(
            report.invariant_sums[1], abs=1e-9
        )
        assert sum(report.i_values[s] for s in pairs) == pytest.approx(
            report.invariant_sums[2], abs=1e-9
        )
        assert sum(report.i_values[s] for s in triples) == pytest.approx(
            report.invariant_sums[3], abs=1e-9
        )

    def test_all_values_nonnegative(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            rho = oracles.random_density(rng, dim)
            mats = [oracles.random_hermitian(rng, dim) for _ in range(int(rng.integers(1, 5)))]
            report = uncertainty_report(rho, mats)
            assert min(report.i_values.values()) >= -1e-9
            assert min(report.invariant_sums.values()) >= -1e-9

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            UncertaintyReport(n=1, i_values={(0,): -1.0}, invariant_sums={1: -1.0})


@pytest.mark.parametrize("build, message", [
    (lambda: run_property_battery(trials=0), "trials and max_n must be positive"),
    (lambda: UncertaintyReport(n=1, i_values={(0,): 1.0}, invariant_sums={1: -1.0}),
     "order-1 invariant -1.000e[+]00 is negative"),
], ids=["battery-no-trials", "negative-invariant"])
def test_invalid_input_rejected_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()
