import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concentratable import limits
from concentratable.cli import main
from concentratable.errors import BudgetError, ConsistencyError, ValidationError
from concentratable.measures import (
    CEResult,
    ce_all_subsets,
    ce_distribution,
    ce_even_weight,
    ce_from_histogram,
    ce_purity,
    ce_shots,
    ce_sweep,
    ce_two_state,
    compare_ghz_w,
    concentratable_entanglement,
    ghz_closed_form,
    n_tangle,
    w_closed_form,
    w_post_projection_ce,
)
from concentratable.oracle import LocalKrausPair, apply_local_kraus
from concentratable.reductions import purity_array, purity_arrays, purity_table
from concentratable.states import (
    QubitSet,
    Statevector,
    make_ghz,
    make_haar_random,
    make_product,
    make_w,
    permute_qubits,
    perturb,
    trace_distance_pure,
)
from concentratable.swaptest import (
    exact_distribution,
    identical_copy_distribution,
    outcome_probability,
    sample,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)

def random_nonempty_subset(rng, n):
    return QubitSet(n, int(rng.integers(1, 1 << n)))

class TestCePurity:
    def test_ghz3_single_qubit(self):
        result = ce_purity(make_ghz(3), QubitSet.from_labels(3, [1]))
        assert result.value == pytest.approx(0.25, abs=1e-12)
        assert result.method == "purity_sum"
        assert result.detail["terms"] == 2

    def test_w3_full_set(self):
        result = ce_purity(make_w(3), QubitSet.full(3))
        assert result.value == pytest.approx(1 / 3, abs=1e-12)

    def test_product_state_vanishes_everywhere(self):
        psi = make_product([(0.6, 0.8), (1, 0), (INV_SQRT2, -INV_SQRT2)])
        for mask in range(1, 8):
            assert ce_purity(psi, QubitSet(3, mask)).value == pytest.approx(0.0, abs=1e-12)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValidationError):
            ce_purity(make_ghz(2), QubitSet(2, 0))

class TestCeAllSubsets:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_rows_match_ce_purity(self, n):
        states = [make_haar_random(n, seed) for seed in range(3)] + [make_ghz(n), make_w(n)]
        values = ce_all_subsets(purity_arrays(states))
        assert values.shape == (5, 1 << n)
        for row, psi in zip(values, states):
            assert row[0] == 0.0
            for mask in range(1, 1 << n):
                assert abs(row[mask] - ce_purity(psi, QubitSet(n, mask)).value) <= 1e-15

    def test_one_state(self):
        values = ce_all_subsets(purity_array(make_ghz(3)))
        assert values[0b111] == pytest.approx(ghz_closed_form(3, 3), abs=1e-15)

    def test_significantly_negative_value_rejected(self):
        with pytest.raises(ConsistencyError):
            ce_all_subsets(np.array([1.0, 1.1]))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown method 'shots'"):
            ce_all_subsets(np.array([0.5, 0.5]), "shots")


def even_touching(n, mask):
    """Even-weight outcomes with a 1 on some qubit of label mask s, by outcome-table
    index (qubit k is bit n-1-k): the selection ``ce_even_weight`` sums, built here
    from integer masks rather than by reversing the axes of a table."""
    index = np.arange(1 << n)
    table_mask = sum(1 << (n - 1 - k) for k in range(n) if mask >> k & 1)
    return ((index & table_mask) != 0) & (np.bitwise_count(index) % 2 == 0)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["ghz", "w", "haar"]),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["purity_sum", "distribution_zero_set", "even_weight_sum"]),
)
def test_sweep_matches_one_subset_routes(kind, n, seed, method):
    psi = make_haar_random(n, seed) if kind == "haar" else {"ghz": make_ghz, "w": make_w}[kind](n)
    subsets = [QubitSet(n, mask) for mask in range(1, 1 << n)]
    law = identical_copy_distribution(psi, QubitSet.full(n)).probabilities
    for swept, s in zip(ce_sweep(psi, subsets, method), subsets, strict=True):
        one = concentratable_entanglement(psi, s, method)
        assert (swept.s, swept.method) == (s, one.method)
        assert abs(swept.value - one.value) <= 1e-12
        assert swept.detail.keys() == one.detail.keys()
        for key, value in one.detail.items():
            assert type(swept.detail[key]) is type(value)
            assert abs(swept.detail[key] - value) <= 1e-12
        if method == "even_weight_sum":
            selected = even_touching(n, s.mask)
            assert abs(swept.value - float(np.vecdot(law, selected))) <= 1e-12
            assert swept.detail["terms"] == one.detail["terms"] == int(selected.sum())


def test_sweep_validates_every_subset_first():
    psi = make_ghz(3)
    with pytest.raises(ValidationError, match="empty subset"):
        ce_sweep(psi, [QubitSet(3, 1), QubitSet(3, 0)], "even_weight_sum")
    with pytest.raises(ValidationError):
        ce_sweep(psi, [QubitSet(3, 1), QubitSet(2, 1)])
    with pytest.raises(ValidationError, match="unknown method"):
        ce_sweep(psi, [QubitSet(3, 1), QubitSet(3, 2)], "shots")


class TestCeDistribution:
    def test_ghz4_full_set(self):
        result = ce_distribution(make_ghz(4), QubitSet.full(4))
        assert result.value == pytest.approx(7 / 16, abs=1e-12)
        assert result.method == "distribution_zero_set"

    def test_bell_pair_every_subset(self):
        # Two-qubit entanglement: C(s) = C^2/4 = 1/4 for every nonempty s.
        bell = make_ghz(2)
        for mask in (0b01, 0b10, 0b11):
            assert ce_distribution(bell, QubitSet(2, mask)).value == pytest.approx(
                0.25, abs=1e-12
            )

    def test_matches_purity_route_on_haar(self):
        rng = np.random.default_rng(0)
        psi = make_haar_random(6, 1)
        for _ in range(10):
            s = random_nonempty_subset(rng, 6)
            assert ce_distribution(psi, s).value == pytest.approx(
                ce_purity(psi, s).value, abs=1e-9
            )

class TestCeEvenWeight:
    def test_w3_single_qubit(self):
        # Weight-2 outcomes touching qubit 0 carry 2/9 in total.
        result = ce_even_weight(make_w(3), QubitSet.from_labels(3, [0]))
        assert result.value == pytest.approx(2 / 9, abs=1e-12)
        assert result.method == "even_weight_sum"

    def test_full_set_complements_zero_outcome(self):
        psi = make_haar_random(4, 2)
        dist = exact_distribution(psi, psi, QubitSet.full(4))
        result = ce_even_weight(psi, QubitSet.full(4))
        assert result.value == pytest.approx(1.0 - dist.probability("0000"), abs=1e-10)

    def test_ghz5_pairs_match_purity_route(self):
        psi = make_ghz(5)
        rng = np.random.default_rng(3)
        for _ in range(5):
            labels = rng.choice(5, size=2, replace=False)
            s = QubitSet.from_labels(5, (int(l) for l in labels))
            assert ce_even_weight(psi, s).value == pytest.approx(
                ce_purity(psi, s).value, abs=1e-9
            )

class TestCeShots:
    def test_ghz3_full_set_within_three_sigma(self):
        result = ce_shots(make_ghz(3), QubitSet.full(3), 100_000, 11)
        sigma = result.detail["stderr"]
        assert result.method == "shots"
        assert abs(result.value - 3 / 8) <= 3 * sigma

    def test_product_state_exactly_zero(self):
        psi = make_product([(1, 0), (0.6, 0.8)])
        result = ce_shots(psi, QubitSet.full(2), 500, 12)
        assert result.value == 0.0
        assert result.detail["stderr"] == 0.0

    def test_rejects_too_few_shots(self):
        with pytest.raises(ValidationError):
            ce_shots(make_ghz(2), QubitSet.full(2), 99, 1)

    def test_from_histogram_matches(self):
        psi = make_ghz(3)
        hist = sample(psi, psi, QubitSet.full(3), 1000, 13)
        estimate = ce_from_histogram(hist)
        zero_fraction = hist.counts.get("000", 0) / 1000
        assert estimate.value == pytest.approx(1.0 - zero_fraction, abs=1e-15)

class TestRouteAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_three_routes_agree_on_haar(self, n):
        rng = np.random.default_rng(n)
        for trial in range(5):
            psi = make_haar_random(n, int(rng.integers(2**32)))
            s = random_nonempty_subset(rng, n)
            a = ce_purity(psi, s).value
            b = ce_distribution(psi, s).value
            c = ce_even_weight(psi, s).value
            assert abs(a - b) <= 1e-9
            assert abs(a - c) <= 1e-9

class TestAutoSelection:
    def test_small_subset_uses_purities(self):
        psi = make_haar_random(5, 4)
        result = concentratable_entanglement(psi, QubitSet.from_labels(5, [0, 1]))
        assert result.method == "purity_sum"

    def test_large_subset_uses_purities(self, capsys):
        psi = make_haar_random(5, 5)
        result = concentratable_entanglement(psi, QubitSet.from_labels(5, [0, 1, 2, 3]))
        assert result.method == "purity_sum"
        # The 12-qubit full set is beyond the SWAP-test route's default cap;
        # "auto" answers it and agrees with the even-weight route.
        values = {}
        for method in ("auto", "even_weight_sum"):
            code = main(["ce", "--haar", "12", "--state-seed", "3", "--method", method])
            assert code == 0
            line = capsys.readouterr().out
            values[method] = float(line.split(" = ")[1].split()[0])
            assert line.rstrip().endswith("[purity_sum]" if method == "auto" else "[even_weight_sum]")
        assert values["auto"] == pytest.approx(values["even_weight_sum"], abs=1e-9)

    def test_explicit_method_honored(self):
        psi = make_haar_random(3, 6)
        result = concentratable_entanglement(psi, QubitSet.full(3), method="even_weight_sum")
        assert result.method == "even_weight_sum"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            concentratable_entanglement(make_ghz(2), QubitSet.full(2), method="magic")

class TestCeTwoState:
    def test_equal_copies_reduce_to_single_state(self):
        psi = make_haar_random(4, 7)
        for mask in (0b0001, 0b1010, 0b1111):
            s = QubitSet(4, mask)
            assert ce_two_state(psi, psi, s) == pytest.approx(
                ce_purity(psi, s).value, abs=1e-12
            )

    @pytest.mark.parametrize("epsilon", [0.1, 0.001, 0.0001])
    def test_error_bound_on_perturbed_pairs(self, epsilon):
        s = QubitSet.full(3)
        for seed in range(100):
            psi = make_haar_random(3, 1000 + seed)
            phi = perturb(psi, epsilon)
            cross = ce_two_state(psi, phi, s)
            excess = (cross - ce_purity(psi, s).value) + (cross - ce_purity(phi, s).value)
            assert -1e-9 <= excess < 4 * epsilon * epsilon

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            ce_two_state(make_ghz(2), make_ghz(3), QubitSet.full(2))


def test_purity_kinds_share_one_cap(monkeypatch):
    # purity-table, cross-purity and purity-terms all read PURITY_DISTRIBUTION_MAX_QUBITS.
    monkeypatch.setattr(limits, "PURITY_DISTRIBUTION_MAX_QUBITS", 3)
    calls = [
        lambda psi: ce_purity(psi, QubitSet.full(psi.n_qubits)),
        lambda psi: purity_table(psi, QubitSet.full(psi.n_qubits)),
        lambda psi: ce_sweep(psi, [QubitSet(psi.n_qubits, 1), QubitSet(psi.n_qubits, 2)]),
        lambda psi: ce_two_state(psi, psi, QubitSet.full(psi.n_qubits)),
        lambda psi: identical_copy_distribution(psi, QubitSet.full(psi.n_qubits)),
    ]
    for call in calls:
        call(make_haar_random(3, 5))
        with pytest.raises(BudgetError, match="cap"):
            call(make_haar_random(4, 5))

class TestNTangle:
    def test_ghz4(self):
        psi = make_ghz(4)
        assert n_tangle(psi) == pytest.approx(1.0, abs=1e-12)
        assert outcome_probability(psi, psi, "1111") == pytest.approx(1 / 16, abs=1e-12)

    def test_w4(self):
        psi = make_w(4)
        assert n_tangle(psi) == pytest.approx(0.0, abs=1e-12)
        assert outcome_probability(psi, psi, "1111") <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_all_ones_probability_for_even_n(self, n):
        for seed in range(5):
            psi = make_haar_random(n, 2000 + seed)
            p_ones = outcome_probability(psi, psi, "1" * n)
            assert (1 << n) * p_ones == pytest.approx(n_tangle(psi), abs=1e-9)

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_n_all_ones_probability_vanishes(self, n):
        # Odd weight can never be measured; no identity with the tangle is claimed.
        for seed in range(5):
            psi = make_haar_random(n, 3000 + seed)
            assert outcome_probability(psi, psi, "1" * n) <= 1e-12

class TestClosedForms:
    def test_ghz_values(self):
        assert ghz_closed_form(3, 3) == pytest.approx(3 / 8)
        for n in range(2, 8):
            assert ghz_closed_form(n, 1) == pytest.approx(1 / 4)
        assert ghz_closed_form(5, 4) == pytest.approx(15 / 32)
        assert ghz_closed_form(5, 5) == pytest.approx(15 / 32)

    def test_w_values(self):
        for n in range(2, 8):
            assert w_closed_form(n, 1) == pytest.approx((n - 1) / n**2)
            assert w_closed_form(n, n) == pytest.approx((n - 1) / (2 * n))
        assert w_closed_form(4, 2) == pytest.approx(5 / 16)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_match_computed_values_on_random_subsets(self, n):
        rng = np.random.default_rng(n)
        ghz, w = make_ghz(n), make_w(n)
        for cardinality in range(1, n + 1):
            labels = rng.permutation(n)[:cardinality]
            s = QubitSet.from_labels(n, (int(l) for l in labels))
            assert ce_purity(ghz, s).value == pytest.approx(
                ghz_closed_form(n, cardinality), abs=1e-10
            )
            assert ce_purity(w, s).value == pytest.approx(
                w_closed_form(n, cardinality), abs=1e-10
            )

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            ghz_closed_form(3, 0)
        with pytest.raises(ValidationError):
            ghz_closed_form(3, 4)
        with pytest.raises(ValidationError):
            w_closed_form(3, 4)

def project_last_qubit(psi, bit):
    """Project qubit n-1 onto |bit> and renormalize; returns (probability, state)."""
    matrix = np.zeros((2, 2), dtype=complex)
    matrix[bit, bit] = 1.0
    other = np.zeros((2, 2), dtype=complex)
    other[1 - bit, 1 - bit] = 1.0
    pair = LocalKrausPair(psi.n_qubits - 1, matrix, other)
    outcome = apply_local_kraus(psi, pair)[0]
    return outcome.probability, outcome.post_state

class TestWPostProjection:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_zero_branch_is_smaller_w(self, n):
        probability, state = project_last_qubit(make_w(n), 0)
        # Simulated branch probability is (n-1)/n, reported alongside the
        # quoted 1 - 1/n^2 without asserting the two coincide.
        assert probability == pytest.approx((n - 1) / n, abs=1e-12)
        expected = np.kron(make_w(n - 1).amplitudes, [1.0, 0.0])
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_zero_branch_entanglement_matches_formula(self, n):
        _, state = project_last_qubit(make_w(n), 0)
        for cardinality in range(1, n):
            value, quoted_probability = w_post_projection_ce(n, cardinality)
            s = QubitSet.from_labels(n, range(cardinality))
            assert ce_purity(state, s).value == pytest.approx(value, abs=1e-10)
            assert quoted_probability == pytest.approx(1 - 1 / n**2)

    def test_one_branch_is_product(self):
        probability, state = project_last_qubit(make_w(4), 1)
        assert probability == pytest.approx(1 / 4, abs=1e-12)
        assert ce_purity(state, QubitSet.full(4)).value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_ghz_projection_kills_entanglement(self, bit):
        _, state = project_last_qubit(make_ghz(4), bit)
        assert ce_purity(state, QubitSet.full(4)).value == pytest.approx(0.0, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            w_post_projection_ce(1, 1)
        with pytest.raises(ValidationError):
            w_post_projection_ce(4, 4)

class TestCompare:
    def test_first_row_value(self):
        rows = compare_ghz_w(4)
        by_c = {row["cardinality"]: row for row in rows}
        assert by_c[1]["delta"] == pytest.approx(1 / 4 - 3 / 16)

    def test_all_rows_positive(self):
        assert all(row["delta"] > 0 for row in compare_ghz_w(16))

    def test_full_set_column_decreases_beyond_five(self):
        rows = [r for r in compare_ghz_w(20) if r["cardinality"] == r["n"]]
        deltas = [r["delta"] for r in rows]
        # The c=n difference peaks early, then falls towards zero.
        for prev, nxt in zip(deltas[1:], deltas[2:]):
            assert nxt < prev
        assert deltas[-1] < 0.05

    def test_rejects_small_n_max(self):
        with pytest.raises(ValidationError):
            compare_ghz_w(3)

    def test_n_max_is_capped(self):
        rows = compare_ghz_w(limits.COMPARE_MAX_QUBITS)
        assert len(rows) == 5 * (limits.COMPARE_MAX_QUBITS - 3) - 2
        with pytest.raises(BudgetError, match="cap n <= 1024"):
            compare_ghz_w(limits.COMPARE_MAX_QUBITS + 1)

class TestCEResult:
    def test_bound_enforced(self):
        with pytest.raises(ValidationError):
            CEResult(0.9, QubitSet(3, 0b1), "purity_sum")

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            CEResult(0.1, QubitSet(3, 0b1), "guesswork")

    def test_csv_row_shape(self):
        result = ce_purity(make_ghz(3), QubitSet.full(3))
        row = result.csv_row()
        assert row[:4] == (3, 0b111, 3, "purity_sum")
        assert row[4] == pytest.approx(3 / 8)

    def test_local_unitary_invariance(self):
        # A single-qubit unitary must not change any CE value.
        rng = np.random.default_rng(21)
        psi = make_haar_random(3, 22)
        theta = 0.37
        unitary = np.array(
            [
                [np.cos(theta), -np.sin(theta) * 1j],
                [-np.sin(theta) * 1j, np.cos(theta)],
            ]
        )
        pair = LocalKrausPair(1, unitary, np.zeros((2, 2)))
        (rotated,) = apply_local_kraus(psi, pair)
        for mask in range(1, 8):
            s = QubitSet(3, mask)
            assert ce_purity(rotated.post_state, s).value == pytest.approx(
                ce_purity(psi, s).value, abs=1e-10
            )

    def test_global_phase_invariance(self):
        # A global phase leaves every purity unchanged, but not every rounding:
        # the Gram product sums the same terms in another order, so C(s) may
        # move in its last bits (at most 2 eps over these cases).
        eps = np.finfo(float).eps
        phases = (1, -1, 1j, -1j, np.exp(0.7j))
        for n in range(2, 7):
            for seed in range(50):
                psi = make_haar_random(n, seed)
                rotated = [Statevector(n, phase * psi.amplitudes) for phase in phases]
                for mask in range(1, 1 << n):
                    s = QubitSet(n, mask)
                    value = ce_purity(psi, s).value
                    for phase, phi in zip(phases, rotated):
                        assert abs(ce_purity(phi, s).value - value) <= 4 * eps, (n, seed, mask, phase)

    def test_permutation_relabels_subsets(self):
        psi = make_haar_random(4, 24)
        perm = [3, 1, 0, 2]
        relabeled = permute_qubits(psi, perm)
        for mask in (0b0011, 0b1010):
            s = QubitSet(4, mask)
            s_perm = QubitSet.from_labels(4, [perm[k] for k in s.labels()])
            assert ce_purity(relabeled, s_perm).value == pytest.approx(
                ce_purity(psi, s).value, abs=1e-12
            )

class TestContinuity:
    def test_bound_on_perturbed_pairs(self):
        rng = np.random.default_rng(25)
        for trial in range(50):
            n = int(rng.integers(2, 5))
            psi = make_haar_random(n, int(rng.integers(2**32)))
            epsilon = float(rng.uniform(1e-3, 0.9))
            phi = perturb(psi, epsilon)
            s = random_nonempty_subset(rng, n)
            gap = abs(ce_purity(psi, s).value - ce_purity(phi, s).value)
            one_norm = 2.0 * trace_distance_pure(psi, phi)
            assert gap <= 2.0 * one_norm + 1e-9
