import numpy as np
import pytest

import concentratable.limits as limits
from concentratable import (
    BudgetError,
    QubitSet,
    ValidationError,
    ce_purity,
    make_ghz,
    make_haar_random,
    make_product,
    purity,
)
from concentratable.oracle import (
    DensityMatrix,
    LocalKrausPair,
    apply_local_kraus,
    apply_separable_sequence,
    dense_reduced_purity,
    density_matrix,
    random_local_kraus,
    reduced_density_matrix,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)

class TestDensityMatrix:
    def test_from_statevector_passes_invariants(self):
        density_matrix(make_haar_random(3, 0))

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            DensityMatrix(1, bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(1, np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5])
        with pytest.raises(ValidationError):
            DensityMatrix(1, bad)

    def test_reduced_states_valid(self):
        psi = make_haar_random(4, 1)
        for mask in range(1, 1 << 4):
            reduced_density_matrix(psi, QubitSet(4, mask))

class TestDenseReducedPurity:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ghz_proper_subsets_are_half(self, n):
        psi = make_ghz(n)
        for mask in range(1, (1 << n) - 1):
            assert dense_reduced_purity(psi, QubitSet(n, mask)) == pytest.approx(
                0.5, abs=1e-12
            )

    def test_full_set_is_one(self):
        psi = make_haar_random(4, 2)
        assert dense_reduced_purity(psi, QubitSet.full(4)) == pytest.approx(1.0, abs=1e-12)

    def test_complement_symmetry(self):
        psi = make_haar_random(5, 3)
        for mask in range(1 << 5):
            alpha = QubitSet(5, mask)
            assert abs(
                dense_reduced_purity(psi, alpha)
                - dense_reduced_purity(psi, alpha.complement())
            ) <= 1e-10

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(limits, "DENSE_ORACLE_MAX_QUBITS", 3)
        with pytest.raises(BudgetError):
            dense_reduced_purity(make_haar_random(4, 4), QubitSet(4, 0b1))

def test_purity_convexity():
    # Mixtures of random pure states; purity is convex in the state.
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(1, 4))
        dim = 1 << n
        rhos = []
        for _ in range(2):
            rho = np.zeros((dim, dim), dtype=complex)
            weights = rng.dirichlet(np.ones(3))
            for w in weights:
                vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                vec /= np.linalg.norm(vec)
                rho += w * np.outer(vec, vec.conj())
            rhos.append(rho)
        p = float(rng.uniform())
        mixed = p * rhos[0] + (1 - p) * rhos[1]
        lhs = np.trace(mixed @ mixed).real
        rhs = p * np.trace(rhos[0] @ rhos[0]).real + (1 - p) * np.trace(rhos[1] @ rhos[1]).real
        assert lhs <= rhs + 1e-10

class TestRandomLocalKraus:
    def test_completeness_residual(self):
        for seed in range(200):
            pair = random_local_kraus(seed, 0)
            residual = (
                pair.m0.conj().T @ pair.m0 + pair.m1.conj().T @ pair.m1 - np.eye(2)
            )
            assert np.abs(residual).max() <= 1e-10

    def test_deterministic(self):
        a = random_local_kraus(7, 1)
        b = random_local_kraus(7, 1)
        np.testing.assert_array_equal(a.m0, b.m0)
        np.testing.assert_array_equal(a.m1, b.m1)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValidationError):
            LocalKrausPair(0, np.eye(2), np.eye(2))

class TestApplyLocalKraus:
    def test_unitary_pair_single_branch(self):
        pair = LocalKrausPair(0, np.array([[0, 1], [1, 0]], dtype=complex), np.zeros((2, 2)))
        psi = make_haar_random(2, 8)
        outcomes = apply_local_kraus(psi, pair)
        assert len(outcomes) == 1
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)

    def test_balanced_identity_pair_keeps_state(self):
        pair = LocalKrausPair(1, np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2))
        psi = make_haar_random(3, 9)
        outcomes = apply_local_kraus(psi, pair)
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.probability == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(
                np.abs(outcome.post_state.amplitudes), np.abs(psi.amplitudes), atol=1e-12
            )
            for mask in range(1 << 3):
                assert purity(outcome.post_state, QubitSet(3, mask)) == pytest.approx(
                    purity(psi, QubitSet(3, mask)), abs=1e-12
                )

    def test_measure_and_reset_kills_entanglement(self):
        # m0 = |0><0|, m1 = |0><1| measures qubit 0 and resets it to |0>.
        pair = LocalKrausPair(
            0,
            np.array([[1, 0], [0, 0]], dtype=complex),
            np.array([[0, 1], [0, 0]], dtype=complex),
        )
        plus = make_product([(INV_SQRT2, INV_SQRT2)])
        for outcome in apply_local_kraus(plus, pair):
            assert outcome.probability == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(outcome.post_state.amplitudes, [1, 0], atol=1e-12)
        bell = make_ghz(2)
        assert ce_purity(bell, QubitSet.full(2)).value == pytest.approx(0.25, abs=1e-12)
        for outcome in apply_local_kraus(bell, pair):
            assert ce_purity(outcome.post_state, QubitSet.full(2)).value == pytest.approx(
                0.0, abs=1e-12
            )

    def test_probabilities_sum_to_one(self):
        for seed in range(50):
            psi = make_haar_random(3, 300 + seed)
            outcomes = apply_local_kraus(psi, random_local_kraus(seed, seed % 3))
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValidationError):
            apply_local_kraus(make_ghz(2), random_local_kraus(0, 2))

class TestMonotonicityTrials:
    def test_local_purity_never_drops_on_average(self):
        rng = np.random.default_rng(10)
        for trial in range(100):
            n = int(rng.integers(2, 5))
            psi = make_haar_random(n, int(rng.integers(2**32)))
            pair = random_local_kraus(int(rng.integers(2**32)), int(rng.integers(0, n)))
            branches = apply_local_kraus(psi, pair)
            for mask in range(1 << n):
                alpha = QubitSet(n, mask)
                averaged = sum(b.probability * purity(b.post_state, alpha) for b in branches)
                assert averaged >= purity(psi, alpha) - 1e-9

    def test_ce_never_grows_on_average(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            n = int(rng.integers(2, 5))
            psi = make_haar_random(n, int(rng.integers(2**32)))
            pair = random_local_kraus(int(rng.integers(2**32)), int(rng.integers(0, n)))
            branches = apply_local_kraus(psi, pair)
            s = QubitSet(n, int(rng.integers(1, 1 << n)))
            averaged = sum(
                b.probability * ce_purity(b.post_state, s).value for b in branches
            )
            assert averaged <= ce_purity(psi, s).value + 1e-9

class TestSeparableSequence:
    def test_branch_structure(self):
        psi = make_haar_random(3, 12)
        pairs = [random_local_kraus(1, 0), random_local_kraus(2, 2)]
        branches = apply_separable_sequence(psi, pairs)
        assert 1 <= len(branches) <= 4
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-9)

    def test_average_purity_and_ce_monotonicity(self):
        rng = np.random.default_rng(13)
        for trial in range(25):
            n = int(rng.integers(2, 5))
            psi = make_haar_random(n, int(rng.integers(2**32)))
            pairs = [
                random_local_kraus(int(rng.integers(2**32)), int(rng.integers(0, n)))
                for _ in range(2)
            ]
            branches = apply_separable_sequence(psi, pairs)
            for mask in range(1 << n):
                alpha = QubitSet(n, mask)
                averaged = sum(b.probability * purity(b.post_state, alpha) for b in branches)
                assert averaged >= purity(psi, alpha) - 1e-9
            s = QubitSet(n, int(rng.integers(1, 1 << n)))
            averaged_ce = sum(
                b.probability * ce_purity(b.post_state, s).value for b in branches
            )
            assert averaged_ce <= ce_purity(psi, s).value + 1e-9

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(limits, "SEPARABLE_BRANCH_MAX", 2)
        psi = make_haar_random(2, 14)
        pairs = [random_local_kraus(s, 0) for s in range(2)]
        with pytest.raises(BudgetError):
            apply_separable_sequence(psi, pairs)
