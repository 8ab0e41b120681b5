import numpy as np
import pytest

from concentratable import (
    BudgetError,
    QubitSet,
    Statevector,
    ValidationError,
    inner_product,
    make_ghz,
    make_haar_random,
    make_product,
    make_w,
    permute_qubits,
    perturb,
    purity,
    statevector_from_dict,
    statevector_to_dict,
    trace_distance_pure,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestStatevector:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            Statevector(2, np.array([1.0, 0.0]))

    def test_rejects_non_normalized(self):
        with pytest.raises(ValidationError):
            Statevector(1, np.array([1.0, 1.0]))

    def test_rejects_norm_just_outside_tolerance(self):
        amps = np.array([1.0 + 2e-10, 0.0])
        with pytest.raises(ValidationError):
            Statevector(1, amps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            Statevector(1, np.array([bad, 0.0]))

    def test_accepts_norm_within_tolerance(self):
        amps = np.array([1.0 + 1e-11, 0.0])
        Statevector(1, amps)

    def test_amplitudes_are_immutable(self):
        psi = make_ghz(2)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValidationError):
            Statevector(0, np.array([1.0]))

    def test_rejects_enormous_n_without_building_two_to_the_n(self):
        with pytest.raises(ValidationError, match=r"expected 2\^1000000000000 amplitudes"):
            Statevector(10**12, np.array([1.0, 0.0]))


class TestQubitSet:
    def test_from_labels_and_back(self):
        s = QubitSet.from_labels(4, [0, 2])
        assert s.mask == 0b101
        assert s.labels() == (0, 2)
        assert s.cardinality == 2
        assert 0 in s and 2 in s and 1 not in s

    def test_complement(self):
        s = QubitSet(3, 0b011)
        assert s.complement().mask == 0b100

    def test_mask_out_of_range(self):
        with pytest.raises(ValidationError):
            QubitSet(2, 0b100)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            QubitSet.from_labels(2, [2])


class TestMakeProduct:
    def test_zero_zero(self):
        psi = make_product([(1, 0), (1, 0)])
        np.testing.assert_allclose(psi.amplitudes, [1, 0, 0, 0])

    def test_plus_zero(self):
        psi = make_product([(INV_SQRT2, INV_SQRT2), (1, 0)])
        np.testing.assert_allclose(psi.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0])

    def test_non_normalized_factor(self):
        with pytest.raises(ValidationError):
            make_product([(1, 1), (1, 0)])

    def test_empty(self):
        with pytest.raises(ValidationError):
            make_product([])


class TestFamilies:
    def test_ghz2_is_bell(self):
        np.testing.assert_allclose(make_ghz(2).amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2])

    def test_ghz3_support(self):
        amps = make_ghz(3).amplitudes
        assert np.flatnonzero(amps).tolist() == [0, 7]

    def test_ghz1_is_plus(self):
        np.testing.assert_allclose(make_ghz(1).amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_w3(self):
        amps = make_w(3).amplitudes
        assert np.flatnonzero(amps).tolist() == [1, 2, 4]
        np.testing.assert_allclose(amps[[1, 2, 4]], 1 / np.sqrt(3))

    def test_w1(self):
        np.testing.assert_allclose(make_w(1).amplitudes, [0, 1])

    def test_w2_is_psi_plus(self):
        np.testing.assert_allclose(make_w(2).amplitudes, [0, INV_SQRT2, INV_SQRT2, 0])

    @pytest.mark.parametrize("factory", [make_ghz, make_w])
    def test_rejects_n_below_one(self, factory):
        with pytest.raises(ValidationError):
            factory(0)

    @pytest.mark.parametrize("factory", [make_ghz, make_w, lambda n: make_haar_random(n, 1)])
    @pytest.mark.parametrize("n", [21, 10**11])
    def test_oversized_n_is_a_budget_error(self, factory, n):
        with pytest.raises(BudgetError, match=f"a {n}-qubit state needs 2\\^{n} amplitudes"):
            factory(n)

    @pytest.mark.parametrize("factory", [make_ghz, make_w])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_permutation_symmetric(self, factory, n):
        psi = factory(n)
        rng = np.random.default_rng(n)
        perm = list(rng.permutation(n))
        np.testing.assert_array_equal(
            permute_qubits(psi, perm).amplitudes, psi.amplitudes
        )


class TestHaar:
    def test_deterministic_in_seed(self):
        a = make_haar_random(3, 7)
        b = make_haar_random(3, 7)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_distinct_seeds_differ(self):
        a = make_haar_random(3, 7)
        b = make_haar_random(3, 8)
        assert np.abs(a.amplitudes - b.amplitudes).max() > 1e-3

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            make_haar_random(3, -1)

    def test_normalized(self):
        for seed in range(20):
            psi = make_haar_random(4, seed)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-10

    def test_mean_single_qubit_purity_two_qubits(self):
        # Haar average of Tr[rho_j^2] on 2 qubits is (d+d)/(d*d+1) = 4/5,
        # confirmed by brute-force Monte Carlo with the dense oracle.
        total = 0.0
        alpha = QubitSet.from_labels(2, [0])
        for seed in range(10_000):
            total += purity(make_haar_random(2, seed), alpha)
        assert abs(total / 10_000 - 0.8) < 0.01


class TestInnerProduct:
    def test_self_overlap(self):
        psi = make_haar_random(3, 0)
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_w_orthogonal(self):
        assert inner_product(make_ghz(3), make_w(3)) == 0.0

    def test_zero_plus(self):
        zero = make_product([(1, 0)])
        plus = make_ghz(1)
        assert inner_product(zero, plus) == pytest.approx(INV_SQRT2)

    def test_conjugate_linear_in_first_argument(self):
        a = make_haar_random(2, 1)
        b = make_haar_random(2, 2)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            inner_product(make_ghz(2), make_ghz(3))


class TestTraceDistance:
    def test_identical(self):
        psi = make_haar_random(3, 4)
        assert trace_distance_pure(psi, psi) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal(self):
        zero = make_product([(1, 0)])
        one = make_product([(0, 1)])
        assert trace_distance_pure(zero, one) == 1.0

    def test_symmetry_exact(self):
        a = make_haar_random(3, 5)
        b = make_haar_random(3, 6)
        assert trace_distance_pure(a, b) == trace_distance_pure(b, a)

    def test_triangle_inequality(self):
        for seed in range(50):
            a = make_haar_random(2, 3 * seed)
            b = make_haar_random(2, 3 * seed + 1)
            c = make_haar_random(2, 3 * seed + 2)
            assert trace_distance_pure(a, c) <= (
                trace_distance_pure(a, b) + trace_distance_pure(b, c) + 1e-12
            )


class TestPerturb:
    def test_hits_requested_distance(self):
        psi = make_haar_random(3, 11)
        for eps in (0.1, 0.001, 0.0001):
            phi = perturb(psi, eps)
            assert abs(np.linalg.norm(phi.amplitudes) - 1.0) <= 1e-10
            assert trace_distance_pure(psi, phi) == pytest.approx(eps, abs=1e-9)

    def test_small_epsilon_overlap(self):
        psi = make_haar_random(3, 12)
        phi = perturb(psi, 1e-6)
        assert abs(inner_product(psi, phi)) >= 1.0 - 1e-11

    def test_full_epsilon_orthogonal(self):
        # eps=1 sends |+>^n to the normalized projection of |0...0>.
        psi = make_product([(INV_SQRT2, INV_SQRT2)] * 3)
        phi = perturb(psi, 1.0)
        assert abs(inner_product(psi, phi)) <= 1e-12

    def test_rejects_all_zero_state(self):
        zero = make_product([(1, 0), (1, 0)])
        with pytest.raises(ValidationError):
            perturb(zero, 0.1)

    def test_rejects_epsilon_out_of_range(self):
        psi = make_haar_random(2, 13)
        with pytest.raises(ValidationError):
            perturb(psi, 0.0)


class TestPermuteQubits:
    def test_swap_two_qubits(self):
        # |01> with qubits 0,1 swapped becomes |10>.
        psi = make_product([(1, 0), (0, 1)])
        swapped = permute_qubits(psi, [1, 0])
        np.testing.assert_allclose(swapped.amplitudes, [0, 0, 1, 0])

    def test_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            permute_qubits(make_ghz(2), [0, 0])


class TestSerialization:
    def test_round_trip(self):
        psi = make_haar_random(3, 21)
        again = statevector_from_dict(statevector_to_dict(psi))
        np.testing.assert_array_equal(again.amplitudes, psi.amplitudes)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            statevector_from_dict({"n": 2, "amplitudes": [[1.0, 0.0]]})

    def test_rejects_bad_norm(self):
        data = {"n": 1, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}
        with pytest.raises(ValidationError):
            statevector_from_dict(data)

    def test_rejects_missing_keys(self):
        with pytest.raises(ValidationError):
            statevector_from_dict({"amplitudes": []})

    @pytest.mark.parametrize("pair", [[1], [1, 0, 0], 1, ["a", "b"]])
    def test_rejects_malformed_amplitude_pair(self, pair):
        with pytest.raises(ValidationError, match="malformed state record"):
            statevector_from_dict({"n": 1, "amplitudes": [pair, [0, 0]]})
