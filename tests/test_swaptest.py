import numpy as np
import pytest
from scipy import stats

import concentratable.limits as limits
import concentratable.swaptest as swaptest_module
from concentratable import (
    BudgetError,
    ConsistencyError,
    JointState,
    OutcomeDistribution,
    QubitSet,
    Statevector,
    ValidationError,
    apply_controlled_projector,
    ce_from_histogram,
    distribution_via_purities,
    exact_distribution,
    full_circuit_oracle,
    full_distribution_via_purities,
    identical_copy_distribution,
    make_ghz,
    make_haar_random,
    make_haar_random_stack,
    make_product,
    make_w,
    outcome_probability,
    pair_marginal,
    permute_qubits,
    post_measurement,
    sample,
    singlet_fidelity,
    zero_outcome_probability,
)
from concentratable.swaptest import (
    MAX_SHOTS,
    SINGLET,
    distribution_from_dict,
    draw_outcomes,
    exact_distributions,
    distribution_to_dict,
    histogram_from_dict,
    histogram_to_dict,
    post_measurements,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def dist_as_map(dist):
    return dict(zip(dist.bitstrings(), dist.probabilities))


class TestControlledProjector:
    def test_orthogonal_branches_annihilate(self):
        joint = JointState.from_copies(make_haar_random(2, 0), make_haar_random(2, 1))
        once = apply_controlled_projector(joint, 0, 0)
        twice = apply_controlled_projector(once, 0, 1)
        assert np.abs(twice.amplitudes).max() <= 1e-15

    def test_antisymmetric_projection_of_01(self):
        # |0> and |1> as the two copies: projecting on z=1 leaves (|01>-|10>)/2.
        zero = make_product([(1, 0)])
        one = make_product([(0, 1)])
        joint = JointState.from_copies(zero, one)
        projected = apply_controlled_projector(joint, 0, 1)
        np.testing.assert_allclose(projected.amplitudes, [0, 0.5, -0.5, 0], atol=1e-15)
        assert projected.norm_squared == pytest.approx(0.5, abs=1e-12)

    def test_identical_product_copies_have_no_antisymmetric_part(self):
        psi = make_product([(0.6, 0.8), (1, 0)])
        joint = JointState.from_copies(psi, psi)
        projected = apply_controlled_projector(joint, 0, 1)
        assert projected.norm_squared <= 1e-15

    def test_projector_pair_conserves_norm(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            m = int(rng.integers(1, 5))
            joint = JointState.from_copies(
                make_haar_random(m, int(rng.integers(2**32))),
                make_haar_random(m, int(rng.integers(2**32))),
            )
            k = int(rng.integers(0, m))
            zero = apply_controlled_projector(joint, k, 0)
            one = apply_controlled_projector(joint, k, 1)
            assert zero.norm_squared + one.norm_squared == pytest.approx(
                joint.norm_squared, abs=1e-12
            )

    def test_qubit_out_of_range(self):
        joint = JointState.from_copies(make_ghz(2), make_ghz(2))
        with pytest.raises(ValidationError):
            apply_controlled_projector(joint, 2, 0)


class TestJointState:
    def test_from_copies_is_normalized(self):
        joint = JointState.from_copies(make_haar_random(3, 3), make_haar_random(3, 4))
        assert joint.norm_squared == pytest.approx(1.0, abs=1e-12)

    def test_rejects_overnormalized(self):
        with pytest.raises(ValidationError):
            JointState(1, 2.0 * np.ones(4))

    def test_rejects_copy_size_mismatch(self):
        with pytest.raises(ValidationError):
            JointState.from_copies(make_ghz(2), make_ghz(3))


class TestExactDistribution:
    def test_w3_identical_copies(self):
        dist = exact_distribution(make_w(3), make_w(3), QubitSet.full(3))
        table = dist_as_map(dist)
        assert table["000"] == pytest.approx(2 / 3, abs=1e-12)
        for z in ("011", "101", "110"):
            assert table[z] == pytest.approx(1 / 9, abs=1e-12)
        for z in ("001", "010", "100", "111"):
            assert table[z] == pytest.approx(0.0, abs=1e-12)

    def test_ghz4_identical_copies(self):
        # Even weight >= 2 gives 1/2^n each (7 strings at n=4), rest of the
        # mass sits on the all-zero string.
        dist = exact_distribution(make_ghz(4), make_ghz(4), QubitSet.full(4))
        table = dist_as_map(dist)
        even_heavy = [z for z in dist.bitstrings() if z.count("1") % 2 == 0 and z != "0000"]
        assert len(even_heavy) == 7
        for z in even_heavy:
            assert table[z] == pytest.approx(1 / 16, abs=1e-12)
        assert table["0000"] == pytest.approx(9 / 16, abs=1e-12)
        for z in dist.bitstrings():
            if z.count("1") % 2 == 1:
                assert table[z] <= 1e-12

    def test_two_bell_pairs_cross_outcome_vanishes(self):
        bell = make_ghz(2)
        psi = Statevector(4, np.kron(bell.amplitudes, bell.amplitudes))
        dist = exact_distribution(psi, psi, QubitSet.full(4))
        # Ones at qubit 1 (first pair) and qubit 2 (second pair).
        assert dist.probability("0110") <= 1e-12
        oracle = full_circuit_oracle(psi, psi, QubitSet.full(4))
        np.testing.assert_allclose(dist.probabilities, oracle.probabilities, atol=1e-10)

    def test_subset_test_marginalizes(self):
        psi = make_haar_random(4, 5)
        tested = QubitSet.from_labels(4, [1, 3])
        sub = exact_distribution(psi, psi, tested)
        full = exact_distribution(psi, psi, QubitSet.full(4))
        # Marginalize the full-register distribution onto qubits 1 and 3.
        marginal = np.zeros(4)
        for index, p in enumerate(full.probabilities):
            z = format(index, "04b")
            marginal[int(z[1] + z[3], 2)] += p
        np.testing.assert_allclose(sub.probabilities, marginal, atol=1e-12)

    def test_product_inputs_factorize(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            seeds = rng.integers(2**32, size=4)
            a, b = make_haar_random(1, int(seeds[0])), make_haar_random(1, int(seeds[1]))
            a2, b2 = make_haar_random(1, int(seeds[2])), make_haar_random(1, int(seeds[3]))
            psi = Statevector(2, np.kron(a.amplitudes, b.amplitudes))
            phi = Statevector(2, np.kron(a2.amplitudes, b2.amplitudes))
            joint_dist = exact_distribution(psi, phi, QubitSet.full(2)).probabilities
            first = exact_distribution(a, a2, QubitSet.full(1)).probabilities
            second = exact_distribution(b, b2, QubitSet.full(1)).probabilities
            np.testing.assert_allclose(joint_dist, np.kron(first, second), atol=1e-10)

    def test_two_qubit_concurrence_identity(self):
        # p(11) = lambda1*lambda2 = C^2/4 with lambdas the squared Schmidt
        # coefficients of the 2x2 amplitude matrix.
        for seed in range(20):
            psi = make_haar_random(2, 400 + seed)
            singular = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False)
            lambdas = singular**2
            p11 = exact_distribution(psi, psi, QubitSet.full(2)).probability("11")
            assert p11 == pytest.approx(lambdas[0] * lambdas[1], abs=1e-10)

    def test_permutation_covariance(self):
        psi = make_haar_random(4, 7)
        tested = QubitSet.from_labels(4, [0, 1, 3])
        dist = exact_distribution(psi, psi, tested)
        perm = [2, 0, 3, 1]
        permuted_state = permute_qubits(psi, perm)
        permuted_tested = QubitSet.from_labels(4, [perm[k] for k in tested.labels()])
        permuted_dist = exact_distribution(permuted_state, permuted_state, permuted_tested)
        # Bit for original label t appears at the sorted position of perm[t].
        new_labels = list(permuted_tested.labels())
        for index, p in enumerate(dist.probabilities):
            z = format(index, "03b")
            bits = {perm[t]: z[j] for j, t in enumerate(tested.labels())}
            z_new = "".join(bits[l] for l in new_labels)
            assert permuted_dist.probability(z_new) == pytest.approx(p, abs=1e-12)

    def test_outcome_budget(self, monkeypatch):
        monkeypatch.setattr(limits, "OUTCOME_ENUM_MAX_QUBITS", 2)
        psi = make_haar_random(3, 8)
        with pytest.raises(BudgetError):
            exact_distribution(psi, psi, QubitSet.full(3))

    def test_joint_register_budget(self, monkeypatch):
        monkeypatch.setenv("CE_MAX_QUBITS", "4")
        psi = make_haar_random(3, 9)
        with pytest.raises(BudgetError):
            exact_distribution(psi, psi, QubitSet.full(3))


class TestOutcomeDistribution:
    def test_tiny_negative_clamped(self):
        probs = np.array([1.0, -1e-13, 0.0, 1e-13])
        dist = OutcomeDistribution(QubitSet.full(2), probs)
        assert dist.probabilities[1] == 0.0

    def test_large_negative_raises(self):
        probs = np.array([1.0, -1e-9, 0.0, 1e-9])
        with pytest.raises(ConsistencyError):
            OutcomeDistribution(QubitSet.full(2), probs)

    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution(QubitSet.full(1), np.array([0.5, 0.4]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution(QubitSet.full(1), np.array([np.nan, np.nan]))

    def test_probability_lookup_validates(self):
        dist = exact_distribution(make_ghz(2), make_ghz(2), QubitSet.full(2))
        with pytest.raises(ValidationError):
            dist.probability("012")

    def test_bitstrings_are_a_fresh_list_each_call(self):
        dist = OutcomeDistribution(QubitSet.full(2), np.full(4, 0.25))
        first = dist.bitstrings()
        first[0] = "11"
        first.append("00")
        assert dist.bitstrings() == ["00", "01", "10", "11"]
        assert dist.bitstrings() is not dist.bitstrings()

    @pytest.mark.parametrize("m", range(1, 15))
    def test_bitstrings_are_the_table_indices_in_binary(self, m):
        dist = OutcomeDistribution(QubitSet.full(m), np.full(1 << m, 2.0**-m))
        assert dist.bitstrings() == [format(i, f"0{m}b") for i in range(1 << m)]


class TestPurityRouteDistribution:
    def test_odd_weight_is_zero(self):
        for seed in range(5):
            psi = make_haar_random(3, 500 + seed)
            for z in ("001", "010", "100", "111"):
                assert distribution_via_purities(psi, z) <= 1e-10

    def test_ghz3_weight_two(self):
        assert distribution_via_purities(make_ghz(3), "011") == pytest.approx(
            0.125, abs=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_projector_route_everywhere(self, n):
        psi = make_haar_random(n, 600 + n)
        dist = exact_distribution(psi, psi, QubitSet.full(n))
        for index, p in enumerate(dist.probabilities):
            z = format(index, f"0{n}b")
            assert distribution_via_purities(psi, z) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_full_transform_matches_projector_route(self, n):
        psi = make_haar_random(n, 700 + n)
        via_purities = full_distribution_via_purities(psi)
        direct = exact_distribution(psi, psi, QubitSet.full(n))
        np.testing.assert_allclose(
            via_purities.probabilities, direct.probabilities, atol=1e-10
        )

    def test_walsh_kernel_against_explicit_signs(self):
        rng = np.random.default_rng(10)
        values = rng.standard_normal(8)
        transformed = swaptest_module._fwht(values)
        for z in range(8):
            explicit = sum(
                (-1) ** bin(z & x).count("1") * values[x] for x in range(8)
            )
            assert transformed[z] == pytest.approx(explicit, abs=1e-12)

    @staticmethod
    def _fwht_five_ops(values):
        """The butterfly as first written: copy the left half, then two sums and two stores."""
        a = np.array(values, dtype=float)
        lead, size = a.shape[:-1], a.shape[-1]
        h = 1
        while h < size:
            a = a.reshape(lead + (-1, 2 * h))
            left = a[..., :h].copy()
            a[..., :h] = left + a[..., h:]
            a[..., h:] = left - a[..., h:]
            h *= 2
        return a.reshape(lead + (-1,))

    @pytest.mark.parametrize("lead", [(), (1,), (5,), (2, 3)])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 6, 10])
    def test_walsh_kernel_equals_the_five_op_butterfly_bitwise(self, lead, m):
        rng = np.random.default_rng(1000 + m)
        values = rng.standard_normal(lead + (1 << m,))
        before = values.copy()
        transformed = swaptest_module._fwht(values)
        expected = self._fwht_five_ops(values)
        assert transformed.shape == values.shape
        assert np.array_equal(transformed.view(np.uint64), expected.view(np.uint64))
        # The input is left as it was; integer input is read as float.
        assert np.array_equal(values, before)
        ints = rng.integers(-9, 10, lead + (1 << m,))
        assert np.array_equal(swaptest_module._fwht(ints), self._fwht_five_ops(ints))

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(limits, "PURITY_DISTRIBUTION_MAX_QUBITS", 2)
        with pytest.raises(BudgetError):
            distribution_via_purities(make_haar_random(3, 11), "000")


class TestSingleOutcomeProbabilities:
    def test_outcome_probability_matches_distribution(self):
        psi = make_haar_random(3, 12)
        dist = exact_distribution(psi, psi, QubitSet.full(3))
        for index, p in enumerate(dist.probabilities):
            z = format(index, "03b")
            assert outcome_probability(psi, psi, z) == pytest.approx(p, abs=1e-12)

    def test_zero_outcome_probability_matches_distribution(self):
        psi = make_haar_random(4, 13)
        tested = QubitSet.from_labels(4, [0, 2])
        dist = exact_distribution(psi, psi, tested)
        assert zero_outcome_probability(psi, psi, tested) == pytest.approx(
            dist.probability("00"), abs=1e-12
        )


class TestSample:
    def test_deterministic_in_seed(self):
        psi = make_haar_random(3, 14)
        a = sample(psi, psi, QubitSet.full(3), 500, 42)
        b = sample(psi, psi, QubitSet.full(3), 500, 42)
        assert a.counts == b.counts

    def test_different_seeds_differ(self):
        psi = make_haar_random(3, 14)
        a = sample(psi, psi, QubitSet.full(3), 500, 42)
        b = sample(psi, psi, QubitSet.full(3), 500, 43)
        assert a.counts != b.counts

    def test_product_state_always_all_zero(self):
        psi = make_product([(0.6, 0.8), (INV_SQRT2, INV_SQRT2 * 1j)])
        hist = sample(psi, psi, QubitSet.full(2), 300, 1)
        assert hist.counts == {"00": 300}

    def test_odd_weight_never_sampled_for_identical_copies(self):
        psi = make_haar_random(4, 15)
        hist = sample(psi, psi, QubitSet.full(4), 2000, 2)
        assert all(z.count("1") % 2 == 0 for z in hist.counts)

    def test_ghz3_zero_fraction_within_three_sigma(self):
        psi = make_ghz(3)
        shots = 100_000
        hist = sample(psi, psi, QubitSet.full(3), shots, 3)
        p = 5 / 8
        sigma = np.sqrt(p * (1 - p) / shots)
        assert abs(hist.counts["000"] / shots - p) <= 3 * sigma

    def test_counts_total(self):
        psi = make_haar_random(2, 16)
        hist = sample(psi, psi, QubitSet.full(2), 777, 4)
        assert sum(hist.counts.values()) == 777

    @pytest.mark.parametrize(
        "state", [make_w(3), make_ghz(4), make_haar_random(3, 17)],
        ids=["w3", "ghz4", "haar3"],
    )
    def test_chi_squared_goodness_of_fit(self, state):
        shots = 100_000
        hist = sample(state, state, QubitSet.full(state.n_qubits), shots, 5)
        dist = exact_distribution(state, state, QubitSet.full(state.n_qubits))
        expected = dist.probabilities * shots
        observed = np.zeros_like(expected)
        for z, count in hist.counts.items():
            observed[int(z, 2)] = count
        support = expected > 1e-9
        # Outcomes with zero probability must never be drawn at all.
        assert observed[~support].sum() == 0
        result = stats.chisquare(observed[support], expected[support])
        assert result.pvalue >= 1e-3

    def test_rejects_zero_shots(self):
        psi = make_ghz(2)
        with pytest.raises(ValidationError):
            sample(psi, psi, QubitSet.full(2), 0, 1)

    def test_counts_are_one_multinomial_draw(self):
        # Identical copies draw from the purity law, unequal ones from the pair basis.
        psi, phi = make_haar_random(3, 14), make_haar_random(3, 18)
        for copy, law in (
            (psi, identical_copy_distribution(psi, QubitSet.full(3)).probabilities),
            (phi, exact_distribution(psi, phi, QubitSet.full(3)).probabilities),
        ):
            counts = np.random.default_rng(42).multinomial(500, law / law.sum())
            hist = sample(psi, copy, QubitSet.full(3), 500, 42)
            assert hist.counts == {format(i, "03b"): int(c) for i, c in enumerate(counts) if c}
            assert all(type(c) is int for c in hist.counts.values())

    def test_shot_counts_up_to_int64_max(self):
        psi = make_ghz(4)
        hist = sample(psi, psi, QubitSet.full(4), MAX_SHOTS, 7)
        assert sum(hist.counts.values()) == MAX_SHOTS == 2**63 - 1
        with pytest.raises(ValidationError):
            sample(psi, psi, QubitSet.full(4), MAX_SHOTS + 1, 7)


class TestDrawOutcomes:
    def test_is_searchsorted_on_the_normalized_cdf(self):
        law = exact_distribution(make_w(3), make_w(3), QubitSet.full(3)).probabilities
        uniforms = np.random.default_rng(0).random(1000)
        cdf = np.cumsum(law)
        expected = np.searchsorted(cdf / cdf[-1], uniforms, side="right")
        np.testing.assert_array_equal(draw_outcomes(law, uniforms), expected)

    @pytest.mark.parametrize("n", [3, 5])
    def test_never_draws_zero_probability_outcomes(self, n):
        # Odd n: the last outcome, all ones, has odd weight. Odd-weight and
        # (as in singlet-projection) all-zero entries are set to exactly 0.
        stack = make_haar_random_stack(n, range(40))
        laws = np.array(exact_distributions(stack, stack, QubitSet.full(n)))
        laws[:, np.bitwise_count(np.arange(1 << n)) % 2 == 1] = 0.0
        laws[:, 0] = 0.0
        uniforms = np.random.default_rng(n).random((40, 5000))
        uniforms[:, :2] = [0.0, np.nextafter(1.0, 0.0)]
        drawn = draw_outcomes(laws[:, None, :], uniforms)
        assert drawn.shape == uniforms.shape
        assert (np.take_along_axis(laws, drawn, axis=1) > 0.0).all()

    def test_frequencies_follow_the_law(self):
        law = exact_distribution(make_ghz(4), make_ghz(4), QubitSet.full(4)).probabilities
        draws = 100_000
        drawn = draw_outcomes(law, np.random.default_rng(1).random(draws))
        observed = np.bincount(drawn, minlength=len(law))
        support = law > 0.0
        assert observed[~support].sum() == 0
        assert stats.chisquare(observed[support], law[support] * draws).pvalue >= 1e-3

    @pytest.mark.parametrize("u", [1.0, -0.25, float("nan"), float("inf")])
    def test_a_uniform_outside_the_unit_interval_is_refused(self, u):
        # u = 1.0 used to return index 4 of 4 outcomes, and NaN index 0 even where p(0) = 0.
        law = np.array([0.0, 0.5, 0.5, 0.0])
        with pytest.raises(ValidationError, match=r"^uniform outside \[0, 1\)"):
            draw_outcomes(law, u)
        with pytest.raises(ValidationError, match=r"^row 2: uniform outside"):
            draw_outcomes(law, [0.0, 0.5, u])

    def test_a_law_without_positive_total_is_refused(self):
        laws = np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match=r"^row 1: outcome law sums to 0\.0"):
            draw_outcomes(laws, [0.1, 0.2, 0.3])
        with pytest.raises(ValidationError, match=r"^outcome law sums to nan"):
            draw_outcomes(np.array([np.nan, 1.0]), 0.5)


class TestPostMeasurement:
    def test_zero_one_pair_becomes_singlet(self):
        zero = make_product([(1, 0)])
        one = make_product([(0, 1)])
        outcome = post_measurement(zero, one, "1")
        assert outcome.probability == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(
            outcome.post_state.amplitudes, SINGLET, atol=1e-12
        )

    def test_ghz2_all_ones(self):
        psi = make_ghz(2)
        outcome = post_measurement(psi, psi, "11")
        assert outcome.probability == pytest.approx(0.25, abs=1e-12)
        for k in range(2):
            fid = singlet_fidelity(pair_marginal(outcome.post_state, k))
            assert fid >= 1.0 - 1e-9

    def test_zero_outcome_probability_complements_entanglement(self):
        from concentratable import ce_purity

        psi = make_haar_random(3, 18)
        outcome = post_measurement(psi, psi, "000")
        ce = ce_purity(psi, QubitSet.full(3)).value
        assert outcome.probability == pytest.approx(1.0 - ce, abs=1e-10)

    def test_singlet_marginals_on_sampled_outcomes(self):
        rng = np.random.default_rng(19)
        checked = 0
        for trial in range(40):
            n = int(rng.integers(2, 5))
            psi = make_haar_random(n, int(rng.integers(2**32)))
            hist = sample(psi, psi, QubitSet.full(n), 1, int(rng.integers(2**32)))
            (z,) = hist.counts
            if "1" not in z:
                continue
            outcome = post_measurement(psi, psi, z)
            for k, bit in enumerate(z):
                if bit == "1":
                    fid = singlet_fidelity(pair_marginal(outcome.post_state, k))
                    assert fid >= 1.0 - 1e-9
                    checked += 1
        assert checked > 0

    def test_impossible_outcome_rejected(self):
        psi = make_product([(1, 0), (1, 0)])
        with pytest.raises(ValidationError):
            post_measurement(psi, psi, "11")

    def test_post_state_is_row_zero_read_only(self):
        psi, phi = make_haar_random(3, 20), make_haar_random(3, 21)
        outcome = post_measurement(psi, phi, "101")
        probabilities, posts = post_measurements([psi], [phi], [0b101])
        assert not outcome.post_state.amplitudes.flags.writeable
        assert outcome.post_state.amplitudes.tobytes() == posts[0].tobytes()
        assert outcome.probability == probabilities[0]


class TestCircuitOracle:
    def test_single_qubit_overlap_formula(self):
        for seed in range(10):
            a = make_haar_random(1, 800 + seed)
            b = make_haar_random(1, 900 + seed)
            dist = full_circuit_oracle(a, b, QubitSet.full(1))
            overlap_sq = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
            assert dist.probability("0") == pytest.approx((1 + overlap_sq) / 2, abs=1e-12)
            assert dist.probability("1") == pytest.approx((1 - overlap_sq) / 2, abs=1e-12)

    def test_two_qubit_basis_inputs(self):
        # Basis-state inputs factorize into (1 +/- delta)(1 +/- delta)/4.
        for i1, i2, j1, j2 in [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 0)]:
            psi = make_product([((1, 0), (0, 1))[i1], ((1, 0), (0, 1))[i2]])
            phi = make_product([((1, 0), (0, 1))[j1], ((1, 0), (0, 1))[j2]])
            dist = full_circuit_oracle(psi, phi, QubitSet.full(2))
            d1, d2 = float(i1 == j1), float(i2 == j2)
            expected = {
                "00": (1 + d1) * (1 + d2) / 4,
                "01": (1 + d1) * (1 - d2) / 4,
                "10": (1 - d1) * (1 + d2) / 4,
                "11": (1 - d1) * (1 - d2) / 4,
            }
            for z, p in expected.items():
                assert dist.probability(z) == pytest.approx(p, abs=1e-12)

    def test_matches_projector_route_on_haar_pair(self):
        psi = make_haar_random(3, 20)
        phi = make_haar_random(3, 21)
        direct = exact_distribution(psi, phi, QubitSet.full(3))
        circuit = full_circuit_oracle(psi, phi, QubitSet.full(3))
        np.testing.assert_allclose(circuit.probabilities, direct.probabilities, atol=1e-10)

    def test_matches_projector_route_on_subset(self):
        psi = make_haar_random(4, 22)
        phi = make_haar_random(4, 23)
        tested = QubitSet.from_labels(4, [0, 3])
        direct = exact_distribution(psi, phi, tested)
        circuit = full_circuit_oracle(psi, phi, tested)
        np.testing.assert_allclose(circuit.probabilities, direct.probabilities, atol=1e-10)

    def test_register_budget(self, monkeypatch):
        monkeypatch.setenv("CE_MAX_QUBITS", "8")
        psi = make_haar_random(3, 24)
        with pytest.raises(BudgetError):
            full_circuit_oracle(psi, psi, QubitSet.full(3))


class TestSerialization:
    def test_distribution_round_trip(self):
        psi = make_haar_random(3, 25)
        dist = exact_distribution(psi, psi, QubitSet.from_labels(3, [0, 2]))
        data = distribution_to_dict(dist)
        assert data["tested_mask"] == 0b101
        assert all(set(e) == {"z", "p_or_count"} for e in data["entries"])
        again = distribution_from_dict(data, 3)
        np.testing.assert_allclose(again.probabilities, dist.probabilities, atol=1e-15)

    def test_histogram_round_trip(self):
        psi = make_haar_random(2, 26)
        hist = sample(psi, psi, QubitSet.full(2), 250, 9)
        again = histogram_from_dict(histogram_to_dict(hist), 2)
        assert again == hist

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tested_mask", "abc"),
            ("tested_mask", float("inf")),
            ("p_or_count", "x"),
            ("p_or_count", 1e400),
        ],
    )
    def test_malformed_distribution_record_is_a_validation_error(self, field, value):
        psi = make_haar_random(2, 27)
        data = distribution_to_dict(exact_distribution(psi, psi, QubitSet.full(2)))
        if field == "tested_mask":
            data[field] = value
        else:
            data["entries"][0][field] = value
        # An infinite probability parses and is then refused as a law.
        with pytest.raises(ValidationError, match="malformed distribution record|NaN or infinity"):
            distribution_from_dict(data, 2)

    @pytest.mark.parametrize("field", ["tested_mask", "shots", "seed", "p_or_count"])
    @pytest.mark.parametrize("value", ["abc", float("inf"), float("nan")])
    def test_malformed_histogram_record_is_a_validation_error(self, field, value):
        psi = make_haar_random(2, 28)
        data = histogram_to_dict(sample(psi, psi, QubitSet.full(2), 100, 3))
        if field == "p_or_count":
            data["entries"][0][field] = value
        else:
            data[field] = value
        with pytest.raises(ValidationError, match="malformed histogram record"):
            histogram_from_dict(data, 2)

    def test_negative_count_is_a_validation_error(self):
        # The counts still sum to the shots; the estimate used to take the
        # square root of a negative variance.
        data = {
            "tested_mask": 0b11,
            "shots": 100,
            "seed": 0,
            "entries": [{"z": "00", "p_or_count": -5}, {"z": "11", "p_or_count": 105}],
        }
        with pytest.raises(ValidationError, match="count of '00' is -5"):
            ce_from_histogram(histogram_from_dict(data, 2))
