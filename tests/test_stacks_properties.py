"""Property tests of the stacked producers and the stacked pair-basis kernel.

Each stacked function is checked row by row against its single-state
counterpart and against an independent reference: the per-seed generators
of ``np.random.default_rng``, the per-seed Kraus construction written out
below, the per-seed Haar draw, dense Kronecker
products for local operations, the explicit ancilla+Fredkin circuit for
SWAP-test laws, dense reduced density matrices for cross purities, and
dense density matrices and Pauli-Y products for trace distances and
n-tangles.
Where the single-state function is the stacked one on one row, the rows
must match it bit for bit.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import concentratable.oracle as oracle_module
import concentratable.swaptest as swaptest_module
from concentratable.errors import ConsistencyError, ValidationError
from concentratable.measures import ce_two_state, ce_two_states, n_tangle, n_tangles
from concentratable.oracle import (
    LocalKrausPair,
    apply_local_kraus,
    apply_local_kraus_stack,
    random_local_kraus,
    random_local_kraus_stack,
    reduced_density_matrix,
)
from concentratable.reductions import cross_purities, cross_purity
from concentratable.states import (
    NORM_ATOL,
    QubitSet,
    StateStack,
    Statevector,
    _generators,
    make_haar_random,
    make_haar_random_stack,
    perturb,
    perturb_stack,
    trace_distance_pure,
    trace_distances_pure,
)
from concentratable.swaptest import (
    CONDITION_FLOOR,
    exact_distribution,
    exact_distributions,
    full_circuit_oracle,
    outcome_probabilities,
    outcome_probability,
    pair_marginal,
    pair_marginals,
    post_measurement,
    post_measurements,
    singlet_fidelities,
    singlet_fidelity,
    zero_outcome_probabilities,
    zero_outcome_probability,
)

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)
# Seeds of one, two, three and more uint32 words of entropy, and the edges between them.
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64]
seeds = st.integers(0, 2**130) | st.sampled_from(EDGE_SEEDS)
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
    """The per-seed draw, divided by the norm the stack divides its rows by."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(seeds, min_size=1, max_size=40))
@example(EDGE_SEEDS + EDGE_SEEDS[::-1] + [2**130, 7, 7])
def test_generators_start_where_default_rng_starts(seed_list):
    generators = _generators(seed_list)
    assert len(generators) == len(seed_list)
    for rng, seed in zip(generators, seed_list):
        reference = np.random.default_rng(seed)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.standard_normal(64).tobytes() == reference.standard_normal(64).tobytes()


@pytest.mark.parametrize("bad", [-1, -(2**70), 1.5, 2.0, np.float64(3.0)])
def test_bad_seeds_raise_what_they_raised_before(bad):
    # The Kraus stack raises what default_rng raises; the Haar stack refuses a
    # negative seed itself and passes any other bad seed on to numpy.
    with pytest.raises((TypeError, ValueError)) as numpy_error:
        np.random.default_rng(bad)
    expected = numpy_error.type, f"^{re.escape(str(numpy_error.value))}$"
    with pytest.raises(expected[0], match=expected[1]):
        random_local_kraus_stack([3, bad])
    if bad < 0:
        expected = ValidationError, f"^seed must be >= 0, got {bad}$"
    with pytest.raises(expected[0], match=expected[1]):
        make_haar_random_stack(2, [3, bad])


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
        assert row.tobytes() == make_haar_random(n, seed).amplitudes.tobytes()
        assert row.tobytes() == reference_haar(n, seed).tobytes()


def _rows_pass_statevector_checks(stack):
    """Every row of a builder's stack is one ``Statevector`` accepts as it is."""
    assert isinstance(stack, StateStack) and not stack.amplitudes.flags.writeable
    assert np.isfinite(stack.amplitudes).all()
    for row in stack.amplitudes:
        assert abs(np.linalg.norm(row) - 1.0) <= NORM_ATOL
        checked = Statevector(stack.n_qubits, row)
        assert np.array_equal(checked.amplitudes, row)
    rechecked = StateStack(stack.n_qubits, stack.amplitudes)
    assert np.array_equal(rechecked.amplitudes, stack.amplitudes)


@PROPERTY_SETTINGS
@given(st.integers(1, 6), seed_lists, st.floats(1e-6, 1.0), st.data())
def test_builder_rows_pass_the_checks_they_skip(n, seed_list, epsilon, data):
    # The Haar, perturbed and post-measurement stacks wrap the rows they normalized
    # without checking them again; each row must still pass Statevector's checks.
    states = make_haar_random_stack(n, seed_list)
    _rows_pass_statevector_checks(states)
    _rows_pass_statevector_checks(perturb_stack(states, epsilon))
    rows = len(states)
    qubits = data.draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows))
    ops = random_local_kraus_stack(data.draw(st.lists(seeds, min_size=rows, max_size=rows)))
    _, posts = apply_local_kraus_stack(states, ops, qubits)
    assert len(posts) == 2 * len(states)
    _rows_pass_statevector_checks(posts)


def test_empty_haar_stack_is_refused():
    # The message a checked StateStack gives an empty stack.
    message = r"^expected a nonempty stack of rows of 2\^3 amplitudes, got shape \(0, 8\)$"
    with pytest.raises(ValidationError, match=message):
        make_haar_random_stack(3, [])
    with pytest.raises(ValidationError, match=message):
        StateStack(3, np.empty((0, 8)))


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


@PROPERTY_SETTINGS
@given(copy_stacks(n_max=5), st.data())
def test_cross_purity_rows_match_single_calls_and_dense_traces(case, data):
    states, primes, s = case
    n = states.n_qubits
    alpha = QubitSet(n, data.draw(st.integers(0, (1 << n) - 1)))
    values = cross_purities(states, primes, alpha)
    two_state = ce_two_states(states, primes, s)
    for b, (psi, psi_prime) in enumerate(zip(states, primes)):
        assert values[b] == cross_purity(psi, psi_prime, alpha)
        assert two_state[b] == ce_two_state(psi, psi_prime, s)
        if alpha.mask:
            rho = reduced_density_matrix(psi, alpha).entries
            rho_prime = reduced_density_matrix(psi_prime, alpha).entries
            assert abs(values[b] - np.trace(rho @ rho_prime).real) <= 1e-12
        else:
            assert values[b] == 1.0


@st.composite
def conditioned_cases(draw, n_max=4):
    """Identical-copy stacks with one outcome per row that has probability above the floor."""
    n = draw(st.integers(1, n_max))
    size = draw(st.integers(1, 5))
    states = make_haar_random_stack(n, draw(st.lists(seeds, min_size=size, max_size=size)))
    laws = exact_distributions(states, states, QubitSet.full(n))
    outcomes = [draw(st.sampled_from(np.flatnonzero(law > 1e-6).tolist())) for law in laws]
    return states, np.array(outcomes), laws


def _check_conditioned_rows(states, outcomes, laws):
    n = states.n_qubits
    z = [format(int(outcome), f"0{n}b") for outcome in outcomes]
    probabilities, posts = post_measurements(states, states, outcomes)
    marginals = pair_marginals(posts, n, range(n))
    fidelities = singlet_fidelities(marginals)
    ones = outcome_probabilities(states, states, "1" * n)
    for b, psi in enumerate(states):
        # The stacked forms are the single-state code on more rows: bit for bit.
        single = post_measurement(psi, psi, z[b])
        assert probabilities[b] == single.probability
        np.testing.assert_array_equal(posts[b], single.post_state)
        assert probabilities[b] == outcome_probability(psi, psi, z[b])
        assert ones[b] == outcome_probability(psi, psi, "1" * n)
        for k in range(n):
            marginal = pair_marginal(single.post_state, k)
            np.testing.assert_array_equal(marginals[b, k], marginal)
            assert fidelities[b, k] == singlet_fidelity(marginal)
            if z[b][k] == "1":
                assert abs(fidelities[b, k] - 1.0) <= 1e-12
        # The table route adds the same weights in another order.
        assert abs(probabilities[b] - laws[b][outcomes[b]]) <= 1e-15
        assert abs(ones[b] - laws[b][-1]) <= 1e-15


@PROPERTY_SETTINGS
@given(conditioned_cases())
def test_conditioned_rows_match_single_calls(case):
    _check_conditioned_rows(*case)


@PROPERTY_SETTINGS
@given(copy_stacks())
def test_outcome_probability_rows_match_single_calls_and_circuit(case):
    states, primes, _ = case
    n = states.n_qubits
    circuits = [
        full_circuit_oracle(psi, phi, QubitSet.full(n)).probabilities
        for psi, phi in zip(states, primes)
    ]
    for z in ("0" * n, "1" * n, "1" + "0" * (n - 1)):
        values = outcome_probabilities(states, primes, z)
        for b, (psi, psi_prime) in enumerate(zip(states, primes)):
            assert values[b] == outcome_probability(psi, psi_prime, z)
            assert abs(values[b] - circuits[b][int(z, 2)]) <= 1e-12


@pytest.mark.parametrize("chunk", [1, 16, 64, 1 << 16])
def test_chunked_conditioned_rows_equal_single_calls(monkeypatch, chunk):
    monkeypatch.setattr(swaptest_module, "JOINT_CHUNK_AMPLITUDES", chunk)
    for n in (1, 2, 3):
        states = make_haar_random_stack(n, range(7))
        laws = exact_distributions(states, states, QubitSet.full(n))
        # Each row's most likely outcome that is not all-zero (n = 1 has only that one).
        outcomes = np.array([int(np.argmax(law[1:])) + 1 if n > 1 else 0 for law in laws])
        _check_conditioned_rows(states, outcomes, laws)
        primes = make_haar_random_stack(n, range(100, 107))
        values = outcome_probabilities(states, primes, "1" * n)
        for b in range(7):
            assert values[b] == outcome_probability(states[b], primes[b], "1" * n)


def test_stacked_row_below_the_condition_floor_is_named():
    # Odd-weight outcomes of identical copies have probability 0 (up to rounding).
    states = make_haar_random_stack(3, [1, 2, 3])
    laws = exact_distributions(states, states, QubitSet.full(3))
    assert laws[2][0b100] <= CONDITION_FLOOR
    with pytest.raises(ValidationError, match=r"row 2: outcome '100' has probability .*condition"):
        post_measurements(states, states, [0b000, 0b110, 0b100])
    with pytest.raises(ValidationError, match=r"^outcome '100' has probability"):
        post_measurement(states[2], states[2], "100")
    with pytest.raises(ValidationError, match="outcome indices"):
        post_measurements(states, states, [0, 1, 8])
    with pytest.raises(ValidationError, match="row 1: cannot take marginals of a zero vector"):
        pair_marginals(np.stack([np.eye(64)[0], np.zeros(64)]), 3, [0])
    with pytest.raises(ValidationError, match="qubit 3 out of range"):
        pair_marginal(np.eye(64)[0], 3)


@st.composite
def perturbed_cases(draw):
    """A Haar stack (n = 1..6, B = 1..8) with one epsilon or one per row, at or above 1e-6."""
    n, seed_list = draw(st.integers(1, 6)), draw(seed_lists)
    epsilon = st.floats(1e-6, 1.0)
    rows = len(seed_list)
    epsilons = draw(st.one_of(epsilon, st.lists(epsilon, min_size=rows, max_size=rows)))
    return make_haar_random_stack(n, seed_list), epsilons


def dense_trace_distance(a, b):
    """Half the trace norm of |a><a| - |b><b|, from its eigenvalues."""
    difference = np.outer(a, a.conj()) - np.outer(b, b.conj())
    return 0.5 * np.abs(np.linalg.eigvalsh(difference)).sum()


@PROPERTY_SETTINGS
@given(perturbed_cases())
def test_perturbed_rows_match_single_calls_and_sit_at_epsilon(case):
    states, epsilons = case
    row_epsilons = np.broadcast_to(epsilons, len(states))
    perturbed = perturb_stack(states, epsilons)
    distances = trace_distances_pure(states, perturbed)
    assert perturbed.n_qubits == states.n_qubits and len(perturbed) == len(states)
    for b, epsilon in enumerate(row_epsilons.tolist()):
        single = perturb(states[b], epsilon)
        assert np.array_equal(perturbed.amplitudes[b], single.amplitudes)
        assert distances[b] == trace_distance_pure(states[b], perturbed[b])
        assert abs(distances[b] - epsilon) <= 1e-9
        dense = dense_trace_distance(states.amplitudes[b], perturbed.amplitudes[b])
        assert abs(dense - epsilon) <= 1e-9


@PROPERTY_SETTINGS
@given(st.integers(1, 10), seed_lists, st.floats(-12.0, 0.0))
@example(3, [1], -8.0)  # read 0.0 when the distance came from 1 - |<a|b>|^2
def test_perturbed_distance_keeps_small_epsilons(n, seed_list, exponent):
    # A stored amplitude carries rounding of about 1e-16, so no stored pair
    # sits at a distance known better than that: the distance must equal eps
    # to a relative 1e-12, or to 1e-15 where eps < 1e-3 puts the relative
    # bound below that rounding.
    epsilon = 10.0**exponent
    states = make_haar_random_stack(n, seed_list)
    distances = trace_distances_pure(states, perturb_stack(states, epsilon))
    assert np.abs(distances - epsilon).max() <= max(1e-12 * epsilon, 1e-15), (epsilon, distances)


@PROPERTY_SETTINGS
@given(st.integers(1, 6), seed_lists)
def test_n_tangle_rows_match_single_calls_and_the_dense_product(n, seed_list):
    states = make_haar_random_stack(n, seed_list)
    tangles = n_tangles(states)
    y_n = np.ones((1, 1))
    for _ in range(n):
        y_n = np.kron(y_n, np.array([[0.0, -1j], [1j, 0.0]]))
    for b, psi in enumerate(states):
        assert tangles[b] == n_tangle(psi)
        overlap = np.vdot(psi.amplitudes, y_n @ psi.amplitudes.conj())
        assert abs(tangles[b] - abs(overlap) ** 2) <= 1e-12


def test_perturb_stack_validation_names_the_row():
    states = make_haar_random_stack(3, [1, 2, 3])
    zero = np.zeros((3, 8), dtype=complex)
    zero[:, 0] = 1j
    with_zero = StateStack(3, np.concatenate([states.amplitudes[:2], zero[:1]]))
    with pytest.raises(ValidationError, match=r"^row 1: epsilon must lie in \(0, 1\], got nan$"):
        perturb_stack(states, [0.1, np.nan, 0.2])
    with pytest.raises(ValidationError, match=r"^row 2: epsilon must lie in \(0, 1\], got 1.5$"):
        perturb_stack(states, [0.1, 0.2, 1.5])
    # One epsilon for every row, or one row, names none.
    with pytest.raises(ValidationError, match=r"^epsilon must lie in \(0, 1\], got 0.0$"):
        perturb_stack(states, 0.0)
    with pytest.raises(ValidationError, match=r"^epsilon must lie in \(0, 1\], got inf$"):
        perturb_stack(StateStack.of([states[0]]), [np.inf])
    with pytest.raises(ValidationError, match=r"^row 2: psi is \|0...0> up to phase"):
        perturb_stack(with_zero, 0.1)
    with pytest.raises(ValidationError, match=r"^psi is \|0...0> up to phase"):
        perturb_stack(StateStack(3, zero[:1]), 0.1)
    # The epsilon range is checked before the |0...0> test.
    with pytest.raises(ValidationError, match=r"^row 0: epsilon must lie"):
        perturb_stack(with_zero, [-1.0, 0.1, 0.1])
    with pytest.raises(ValidationError, match="expected one epsilon or 3"):
        perturb_stack(states, [0.1, 0.2])


def test_stacked_trace_distance_validation():
    with pytest.raises(ValidationError, match="second state is over 2 qubits"):
        trace_distances_pure(make_haar_random_stack(3, [1]), make_haar_random_stack(2, [1]))
    with pytest.raises(ValidationError, match="2 states against 1 second copies"):
        trace_distances_pure(make_haar_random_stack(3, [1, 2]), make_haar_random_stack(3, [1]))
