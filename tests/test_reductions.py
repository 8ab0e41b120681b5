import numpy as np
import pytest

import concentratable.limits as limits
from concentratable.errors import BudgetError, ValidationError
from concentratable.oracle import dense_reduced_purity, reduced_density_matrix
from concentratable.reductions import (
    cross_purity,
    purity,
    purity_array,
    purity_arrays,
    purity_table,
    submasks,
)
from concentratable.states import (
    QubitSet,
    Statevector,
    make_ghz,
    make_haar_random,
    make_product,
    make_w,
)


def all_subsets(n):
    return [QubitSet(n, mask) for mask in range(1 << n)]


class TestPurityValues:
    def test_ghz3_single_qubit(self):
        # Dense-oracle value for the GHZ marginal is the maximally mixed 1/2.
        psi = make_ghz(3)
        alpha = QubitSet.from_labels(3, [0])
        assert dense_reduced_purity(psi, alpha) == pytest.approx(0.5, abs=1e-12)
        assert purity(psi, alpha) == pytest.approx(0.5, abs=1e-12)

    def test_w3_single_qubit(self):
        # lambda = {1/3, 2/3} across the cut, so Tr rho^2 = 1 - 2*(1/3)*(2/3) = 5/9.
        psi = make_w(3)
        alpha = QubitSet.from_labels(3, [0])
        assert dense_reduced_purity(psi, alpha) == pytest.approx(5 / 9, abs=1e-12)
        assert purity(psi, alpha) == pytest.approx(5 / 9, abs=1e-12)

    def test_product_state_marginals_pure(self):
        psi = make_product([(1, 0), (0.6, 0.8), (1 / np.sqrt(2), 1j / np.sqrt(2))])
        for alpha in all_subsets(3):
            assert purity(psi, alpha) == pytest.approx(1.0, abs=1e-12)

    def test_empty_subset_is_exactly_one(self):
        psi = make_haar_random(3, 0)
        assert purity(psi, QubitSet(3, 0)) == 1.0

    def test_full_subset_is_one(self):
        psi = make_haar_random(4, 1)
        assert purity(psi, QubitSet.full(4)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_dense_oracle_all_subsets(self, n):
        psi = make_haar_random(n, 40 + n)
        for alpha in all_subsets(n):
            assert purity(psi, alpha) == pytest.approx(
                dense_reduced_purity(psi, alpha), abs=1e-10
            )

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_complement_symmetry(self, n):
        psi = make_haar_random(n, 60 + n)
        for alpha in all_subsets(n):
            assert abs(purity(psi, alpha) - purity(psi, alpha.complement())) <= 1e-10

    def test_global_phase_invariance(self):
        psi = make_haar_random(3, 70)
        alpha = QubitSet(3, 0b011)
        reference = purity(psi, alpha)
        for phase in (-1.0, 1j, -1j):
            rotated = Statevector(3, phase * psi.amplitudes)
            assert purity(rotated, alpha) == reference
        rotated = Statevector(3, np.exp(0.7j) * psi.amplitudes)
        assert purity(rotated, alpha) == pytest.approx(reference, abs=1e-13)

    def test_range(self):
        for seed in range(10):
            psi = make_haar_random(4, 80 + seed)
            for alpha in all_subsets(4):
                value = purity(psi, alpha)
                assert 2.0 ** (-alpha.cardinality) - 1e-10 <= value <= 1.0 + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            purity(make_ghz(2), QubitSet(3, 0b1))


class TestCrossPurity:
    def test_reduces_to_purity_for_equal_states(self):
        psi = make_haar_random(4, 90)
        for alpha in all_subsets(4):
            assert cross_purity(psi, psi, alpha) == pytest.approx(
                purity(psi, alpha), abs=1e-12
            )

    def test_no_complement_symmetry_for_distinct_states(self):
        # |00> vs |01>: qubit 0 marginals agree, qubit 1 marginals are orthogonal.
        psi = make_product([(1, 0), (1, 0)])
        phi = make_product([(1, 0), (0, 1)])
        assert cross_purity(psi, phi, QubitSet.from_labels(2, [0])) == pytest.approx(1.0)
        assert cross_purity(psi, phi, QubitSet.from_labels(2, [1])) == pytest.approx(0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_oracle(self, n):
        psi = make_haar_random(n, 100 + n)
        phi = make_haar_random(n, 200 + n)
        for alpha in all_subsets(n):
            if alpha.cardinality == 0:
                continue
            dense = np.trace(
                reduced_density_matrix(psi, alpha).entries
                @ reduced_density_matrix(phi, alpha).entries
            ).real
            assert cross_purity(psi, phi, alpha) == pytest.approx(dense, abs=1e-10)


class TestSubsets:
    def test_submask_enumeration(self):
        assert set(submasks(0b101)) == {0b000, 0b001, 0b100, 0b101}

    def test_zero_mask(self):
        assert list(submasks(0)) == [0]

    @pytest.mark.parametrize("mask", [0b1, 0b111, 0b10110])
    def test_count_is_power_of_two(self, mask):
        subs = list(submasks(mask))
        assert len(subs) == 1 << bin(mask).count("1")
        assert len(set(subs)) == len(subs)


class TestPurityTable:
    def test_singleton_structure(self):
        psi = make_haar_random(3, 110)
        table = purity_table(psi, QubitSet.from_labels(3, [0]))
        assert set(table) == {0b000, 0b001}
        assert table[0] == 1.0

    def test_ghz3_full_table(self):
        table = purity_table(make_ghz(3), QubitSet.full(3))
        assert len(table) == 8
        assert table[0] == pytest.approx(1.0)
        assert table[0b111] == pytest.approx(1.0, abs=1e-12)
        for mask in (0b001, 0b010, 0b100, 0b011, 0b101, 0b110):
            assert table[mask] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_dense_oracle_entrywise(self, n):
        psi = make_haar_random(n, 120 + n)
        table = purity_table(psi, QubitSet.full(n))
        for mask, value in table.items():
            assert value == pytest.approx(
                dense_reduced_purity(psi, QubitSet(n, mask)), abs=1e-10
            )

    def test_empty_set_is_exactly_one(self):
        # As for ``purity``: the empty cut is 1.0 exactly, never a Gram product.
        psi = make_ghz(3)
        assert purity_table(psi, QubitSet(3, 0)) == {0: 1.0}
        assert purity_array(psi)[0] == 1.0
        assert purity_arrays([psi, make_w(3)])[:, 0].tolist() == [1.0, 1.0]

    def test_budget_error_names_count(self, monkeypatch):
        monkeypatch.setattr(limits, "PURITY_DISTRIBUTION_MAX_QUBITS", 3)
        psi = make_haar_random(4, 130)
        with pytest.raises(BudgetError, match="16"):
            purity_table(psi, QubitSet.full(4))
