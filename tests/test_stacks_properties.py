"""Property tests of the stacked producers and the stacked pair-basis kernel.

Each stacked function is checked row by row against its single-state
counterpart and against an independent reference: the per-seed Kraus
construction written out below, the per-seed Haar draw, dense Kronecker
products for local operations, and the explicit ancilla+Fredkin circuit
for SWAP-test laws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concentratable.oracle as oracle_module
import concentratable.swaptest as swaptest_module
from concentratable import (
    ConsistencyError,
    QubitSet,
    StateStack,
    ValidationError,
    exact_distribution,
    exact_distributions,
    full_circuit_oracle,
    make_haar_random,
    make_haar_random_stack,
    zero_outcome_probabilities,
    zero_outcome_probability,
)
from concentratable.oracle import (
    LocalKrausPair,
    apply_local_kraus,
    apply_local_kraus_stack,
    random_local_kraus,
    random_local_kraus_stack,
)

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)
seeds = st.integers(0, 2**32 - 1)
seed_lists = st.lists(seeds, min_size=1, max_size=8)


def reference_kraus(seed):
    """The per-seed construction: four 2x2 draws, then one SVD, eigh and QR."""
    rng = np.random.default_rng(seed)
    gaussian = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m0 = gaussian / np.linalg.svd(gaussian, compute_uv=False)[0]
    remainder = np.eye(2) - m0.conj().T @ m0
    eigenvalues, vectors = np.linalg.eigh(remainder)
    root = vectors @ np.diag(np.sqrt(np.clip(eigenvalues, 0.0, None))) @ vectors.conj().T
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r)
    return m0, (q * (phases / np.abs(phases))) @ root


def reference_haar(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


@PROPERTY_SETTINGS
@given(seed_lists, st.integers(0, 5))
def test_kraus_stack_equals_each_seed_bitwise(seed_list, qubit):
    ops = random_local_kraus_stack(seed_list)
    assert ops.shape == (len(seed_list), 2, 2, 2)
    for pair, seed in zip(ops, seed_list):
        single = random_local_kraus(seed, qubit)
        np.testing.assert_array_equal(pair[0], single.m0)
        np.testing.assert_array_equal(pair[1], single.m1)
        m0, m1 = reference_kraus(seed)
        np.testing.assert_array_equal(pair[0], m0)
        np.testing.assert_array_equal(pair[1], m1)


@PROPERTY_SETTINGS
@given(st.integers(1, 7), seed_lists)
def test_haar_stack_rows_match_each_seed(n, seed_list):
    stack = make_haar_random_stack(n, seed_list)
    assert stack.amplitudes.shape == (len(seed_list), 1 << n)
    for row, seed in zip(stack.amplitudes, seed_list):
        np.testing.assert_allclose(row, make_haar_random(n, seed).amplitudes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(row, reference_haar(n, seed), rtol=0, atol=1e-15)


@st.composite
def kraus_cases(draw):
    n = draw(st.integers(1, 6))
    size = draw(st.integers(1, 6))
    stack = make_haar_random_stack(n, draw(st.lists(seeds, min_size=size, max_size=size)))
    ops = random_local_kraus_stack(draw(st.lists(seeds, min_size=size, max_size=size)))
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    return stack, ops, qubits


@PROPERTY_SETTINGS
@given(kraus_cases())
def test_branch_stacks_match_each_state_and_dense_products(case):
    stack, ops, qubits = case
    n = stack.n_qubits
    probabilities, posts = apply_local_kraus_stack(stack, ops, qubits)
    assert probabilities.shape == (len(stack), 2)
    assert posts.amplitudes.shape == (2 * len(stack), 1 << n)
    for b, (psi, pair, qubit) in enumerate(zip(stack, ops, qubits)):
        single = apply_local_kraus(psi, LocalKrausPair(qubit, pair[0], pair[1]))
        kept = [j for j in range(2) if probabilities[b, j] > 0]
        assert len(single) == len(kept)
        for outcome, j in zip(single, kept):
            assert abs(outcome.probability - probabilities[b, j]) <= 1e-14
            np.testing.assert_allclose(
                outcome.post_state.amplitudes, posts.amplitudes[2 * b + j], rtol=0, atol=1e-14
            )
        for j in range(2):
            dense = np.kron(np.kron(np.eye(1 << qubit), pair[j]), np.eye(1 << (n - 1 - qubit)))
            branch = dense @ psi.amplitudes
            probability = float(np.vdot(branch, branch).real)
            assert abs(probability - probabilities[b, j]) <= 1e-14
            np.testing.assert_allclose(
                branch / np.sqrt(probability), posts.amplitudes[2 * b + j], rtol=0, atol=1e-14
            )


def test_dropped_branch_reads_zero_and_keeps_the_input_row():
    # Measuring |0> on a qubit in |0>: branch 1 has probability 0 and is dropped.
    stack = StateStack(2, [[1, 0, 0, 0], [0, 0, 0, 1]])
    projective = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], dtype=complex)
    probabilities, posts = apply_local_kraus_stack(stack, np.stack([projective] * 2), [0, 1])
    np.testing.assert_array_equal(probabilities, [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(posts.amplitudes, [[1, 0, 0, 0]] * 2 + [[0, 0, 0, 1]] * 2)
    (kept,) = apply_local_kraus(stack[0], LocalKrausPair(0, *projective))
    assert kept.probability == 1.0


def test_stacked_kraus_validation():
    stack = make_haar_random_stack(2, [1, 2])
    with pytest.raises(ValidationError, match="deviates from the identity"):
        apply_local_kraus_stack(stack, np.stack([np.stack([np.eye(2)] * 2)] * 2), 0)
    ops = random_local_kraus_stack([3, 4])
    with pytest.raises(ValidationError, match="qubit 2 out of range"):
        apply_local_kraus_stack(stack, ops, [0, 2])
    with pytest.raises(ValidationError, match="Kraus pairs"):
        apply_local_kraus_stack(stack, ops[:1], 0)
    # A row whose branches do not add up to 1 is named by a ConsistencyError.
    with pytest.raises(ConsistencyError, match="branch probabilities sum to"):
        oracle_module._branches(stack.amplitudes * 1.1, ops, np.array([0, 0]), 2)


@st.composite
def copy_stacks(draw, n_max=4):
    n = draw(st.integers(1, n_max))
    size = draw(st.integers(1, 5))
    states = make_haar_random_stack(n, draw(st.lists(seeds, min_size=size, max_size=size)))
    primes = make_haar_random_stack(n, draw(st.lists(seeds, min_size=size, max_size=size)))
    tested = QubitSet(n, draw(st.integers(1, (1 << n) - 1)))
    return states, primes, tested


@PROPERTY_SETTINGS
@given(copy_stacks())
def test_stacked_laws_match_single_calls_and_circuit(case):
    states, primes, tested = case
    tables = exact_distributions(states, primes, tested)
    zeros = zero_outcome_probabilities(states, primes, tested)
    identical = exact_distributions(states, states, tested)
    for b, (psi, psi_prime) in enumerate(zip(states, primes)):
        # Same kernel, same summation order: equal bit for bit.
        np.testing.assert_array_equal(
            tables[b], exact_distribution(psi, psi_prime, tested).probabilities
        )
        assert zeros[b] == zero_outcome_probability(psi, psi_prime, tested)
        circuit = full_circuit_oracle(psi, psi_prime, tested).probabilities
        np.testing.assert_allclose(tables[b], circuit, rtol=0, atol=1e-12)
        assert abs(zeros[b] - circuit[0]) <= 1e-12
        np.testing.assert_allclose(
            identical[b], full_circuit_oracle(psi, psi, tested).probabilities, rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("chunk", [1, 16, 64, 1 << 16])
def test_chunked_stacks_equal_unchunked_rows(monkeypatch, chunk):
    # A chunk smaller than one joint vector still holds one pair of copies.
    monkeypatch.setattr(swaptest_module, "JOINT_CHUNK_AMPLITUDES", chunk)
    for n in (1, 2, 3):
        states = make_haar_random_stack(n, range(7))
        primes = make_haar_random_stack(n, range(100, 107))
        for tested in (QubitSet.full(n), QubitSet(n, 1)):
            tables = exact_distributions(states, primes, tested)
            zeros = zero_outcome_probabilities(states, primes, tested)
            for b in range(7):
                np.testing.assert_array_equal(
                    tables[b], exact_distribution(states[b], primes[b], tested).probabilities
                )
                assert zeros[b] == zero_outcome_probability(states[b], primes[b], tested)


def test_stacked_law_validation():
    states = make_haar_random_stack(2, [1, 2])
    with pytest.raises(ValidationError, match="2 states against 1"):
        exact_distributions(states, make_haar_random_stack(2, [3]), QubitSet.full(2))
    with pytest.raises(ValidationError, match="second state is over 3 qubits"):
        zero_outcome_probabilities(states, make_haar_random_stack(3, [3, 4]), QubitSet.full(2))
    with pytest.raises(ValidationError, match="no tested qubits"):
        exact_distributions(states, states, QubitSet(2, 0))
    tables = exact_distributions(states, states, QubitSet.full(2))
    assert not tables.flags.writeable
