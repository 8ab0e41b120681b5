import numpy as np
import pytest

import concentratable.states as states_module
from concentratable.states import join_stacks
from concentratable import (
    BudgetError,
    QubitSet,
    StateStack,
    Statevector,
    ValidationError,
    make_ghz,
    make_graph_state,
    make_haar_random,
    make_haar_random_stack,
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


class TestStateStack:
    def test_rows_are_states(self):
        stack = StateStack(1, [[1, 0], [INV_SQRT2, INV_SQRT2]])
        assert len(stack) == 2
        assert isinstance(stack[1], Statevector)
        np.testing.assert_array_equal(stack[1].amplitudes, [INV_SQRT2, INV_SQRT2])
        with pytest.raises(ValueError):
            stack.amplitudes[0, 0] = 0.0

    def test_names_the_row_that_is_not_normalized(self):
        with pytest.raises(ValidationError, match="row 1: state norm 2.0 deviates"):
            StateStack(1, [[1, 0], [2, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="NaN or infinity"):
            StateStack(1, [[1, 0], [bad, 0]])

    @pytest.mark.parametrize("shape", [(2,), (0, 2), (2, 3), (1, 2, 2)])
    def test_rejects_malformed_shapes(self, shape):
        values = np.zeros(shape)
        if values.size:
            values.reshape(-1, shape[-1])[:, 0] = 1.0
        with pytest.raises(ValidationError, match="expected a nonempty stack"):
            StateStack(1, values)

    def test_of_stacks_states_of_one_size(self):
        psi, phi = make_ghz(2), make_w(2)
        stack = StateStack.of([psi, phi])
        np.testing.assert_array_equal(stack.amplitudes, [psi.amplitudes, phi.amplitudes])
        assert StateStack.of(stack) is stack
        with pytest.raises(ValidationError, match="second state is over 3 qubits"):
            StateStack.of([psi, make_ghz(3)])
        with pytest.raises(ValidationError, match="need at least one state"):
            StateStack.of([])
        with pytest.raises(ValidationError, match="built from Statevectors"):
            StateStack.of([stack, stack])

    def test_of_is_read_only_and_bit_exact(self):
        psi, phi = make_haar_random(3, 1), make_haar_random(3, 2)
        amps = StateStack.of([psi, phi]).amplitudes
        assert not amps.flags.writeable
        assert amps.tobytes() == psi.amplitudes.tobytes() + phi.amplitudes.tobytes()

    def test_rows_are_read_only_views(self):
        stack = make_haar_random_stack(3, [1, 2, 3])
        for b in range(-3, 3):
            row = stack[b].amplitudes
            assert not row.flags.writeable
            assert np.shares_memory(row, stack.amplitudes)
            np.testing.assert_array_equal(row, stack.amplitudes[b])
        with pytest.raises(IndexError):
            stack[3]

    @pytest.mark.parametrize("index", [slice(0, 1), np.array([0]), 1.0, None])
    def test_row_index_must_be_an_integer(self, index):
        stack = make_haar_random_stack(2, [1, 2])
        with pytest.raises(ValidationError):
            stack[index]

    def test_checked_states_are_not_checked_again(self, monkeypatch):
        stack = make_haar_random_stack(2, [1, 2, 3])
        calls = []
        frozen = states_module._frozen_amplitudes

        def counted(*args, **kwargs):
            calls.append(args)
            return frozen(*args, **kwargs)

        monkeypatch.setattr(states_module, "_frozen_amplitudes", counted)
        rows = list(stack)
        again = StateStack.of(rows)
        joined = join_stacks(stack, again)
        assert calls == []
        np.testing.assert_array_equal(again.amplitudes, stack.amplitudes)
        assert not joined.amplitudes.flags.writeable
        assert joined.amplitudes.tobytes() == 2 * stack.amplitudes.tobytes()

    def test_join_stacks_takes_stacks_of_one_size(self):
        stack = make_haar_random_stack(2, [1, 2])
        with pytest.raises(ValidationError, match="second state is over 3 qubits"):
            join_stacks(stack, make_haar_random_stack(3, [1]))
        for bad in [(), (stack, make_ghz(2))]:
            with pytest.raises(ValidationError, match="one or more StateStacks"):
                join_stacks(*bad)


class TestHaarStack:
    def test_one_seed_is_make_haar_random(self):
        (row,) = make_haar_random_stack(4, [11]).amplitudes
        np.testing.assert_array_equal(row, make_haar_random(4, 11).amplitudes)

    def test_rows_do_not_depend_on_their_neighbours(self):
        a = make_haar_random_stack(3, [5, 6, 7])
        b = make_haar_random_stack(3, [9, 6])
        np.testing.assert_array_equal(a.amplitudes[1], b.amplitudes[1])

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -2"):
            make_haar_random_stack(3, [1, -2])

    def test_oversized_n_is_a_budget_error(self):
        with pytest.raises(BudgetError, match="a 21-qubit state"):
            make_haar_random_stack(21, [1])


class TestGraphState:
    def test_path_signs(self):
        # Path 0-1-2: basis state x picks up -1 once per edge with both ends 1.
        psi = make_graph_state([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        np.testing.assert_allclose(
            psi.amplitudes * 2**1.5, [1, 1, 1, -1, 1, 1, -1, 1], rtol=0, atol=1e-15
        )

    def test_edgeless_graph_is_plus_product(self):
        psi = make_graph_state(np.zeros((3, 3), dtype=int))
        np.testing.assert_allclose(psi.amplitudes, np.full(8, 2**-1.5), rtol=0, atol=1e-15)

    def test_two_vertex_edge_is_maximally_entangled(self):
        psi = make_graph_state([[0, 1], [1, 0]])
        assert purity(psi, QubitSet(2, 1)) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize(
        "adjacency, message",
        [
            ([[0, 1], [0, 0]], "not symmetric"),
            ([[0, 2], [2, 0]], "entries must be 0 or 1"),
            ([[0, 0.5], [0.5, 0]], "entries must be 0 or 1"),
            ([[0, np.nan], [np.nan, 0]], "entries must be 0 or 1"),
            ([[1, 0], [0, 0]], "self-loop"),
            ([[0, 1, 0], [1, 0, 1]], "square matrix"),
            ([], "square matrix"),
        ],
    )
    def test_rejects_malformed_adjacency(self, adjacency, message):
        with pytest.raises(ValidationError, match=message):
            make_graph_state(adjacency)

    @pytest.mark.parametrize(
        "adjacency, message",
        [
            (np.full((21, 21), 2), "entries must be 0 or 1"),
            (np.triu(np.ones((21, 21), dtype=int), 1), "not symmetric"),
            (np.eye(21, dtype=int), "self-loop"),
        ],
    )
    def test_validation_before_budget(self, adjacency, message):
        with pytest.raises(ValidationError, match=message):
            make_graph_state(adjacency)

    def test_oversized_graph_is_a_budget_error(self, monkeypatch):
        monkeypatch.setenv("CE_MAX_QUBITS", "4")
        with pytest.raises(BudgetError, match="a 5-qubit state"):
            make_graph_state(np.zeros((5, 5), dtype=int))


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

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            trace_distance_pure(make_ghz(2), make_ghz(3))


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
        assert abs(np.vdot(psi.amplitudes, phi.amplitudes)) >= 1.0 - 1e-11

    def test_full_epsilon_orthogonal(self):
        # eps=1 sends |+>^n to the normalized projection of |0...0>.
        psi = make_product([(INV_SQRT2, INV_SQRT2)] * 3)
        phi = perturb(psi, 1.0)
        assert abs(np.vdot(psi.amplitudes, phi.amplitudes)) <= 1e-12

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
        # A whole float n reads as that integer.
        again = statevector_from_dict(statevector_to_dict(psi) | {"n": 3.0})
        assert again.n_qubits == 3
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
