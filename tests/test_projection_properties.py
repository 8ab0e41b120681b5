"""Bit-identity of the pair-by-pair projection against the transform-and-mask form.

``swaptest._kept`` projects each tested pair onto the observed outcome, and
drops each pair that every row reads 1 on. The reference below is the form
it replaced: rotate every tested pair of the whole two-copy vector into the
pair basis, then zero every entry whose singlet pattern differs from the
row's outcome. Every probability and post-state of ``outcome_probabilities``,
``zero_outcome_probabilities`` and ``post_measurements`` must equal the
reference's by ``tobytes()``, so signed zeros count, for n = 1..7, random
tested subsets, one outcome for all rows or one per row, and chunks of 16,
256 and the default number of joint amplitudes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concentratable.swaptest as swaptest_module
from concentratable.errors import ValidationError
from concentratable.states import QubitSet, StateStack, make_haar_random_stack
from concentratable.swaptest import (
    apply_controlled_projector,
    outcome_probabilities,
    post_measurements,
    zero_outcome_probabilities,
)

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)
CHUNKS = [16, 256, swaptest_module.JOINT_CHUNK_AMPLITUDES]
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def rotate(joint, m, labels):
    """The 2x2 Hadamard on each listed pair's (|01>, |10>) block, in place."""
    for k in labels:
        view = joint.reshape(-1, 2, 1 << (m - 1), 2, 1 << (m - 1 - k))
        up, down = view[:, 0, :, 1], view[:, 1, :, 0]
        up_scaled, down_scaled = up * _INV_SQRT2, down * _INV_SQRT2
        np.add(up_scaled, down_scaled, out=up)
        np.subtract(up_scaled, down_scaled, out=down)


def singlet_patterns(m, labels):
    """Outcome of each pair-basis joint index (A, B): A & ~B on ``labels``, packed in label order."""
    labels = np.array(labels, dtype=int)
    packed = ((np.arange(1 << m)[:, None] >> (m - 1 - labels)) & 1) @ (
        1 << np.arange(len(labels))[::-1]
    )
    return (packed[:, None] & ~packed[None, :]).reshape(-1)


def rotate_and_mask(amps, amps_prime, m, labels, outcomes, posts=None):
    """The transform-and-mask kernel: every tested pair rotated into the pair
    basis, then every entry off the row's outcome set to 0.0; the
    probability is the vecdot of the whole row.
    """
    index = singlet_patterns(m, labels)
    column = np.empty((len(amps), 1), dtype=np.intp)
    column[:, 0] = outcomes
    probabilities = np.empty(len(amps))
    step = max(1, swaptest_module.JOINT_CHUNK_AMPLITUDES >> (2 * m))
    for start in range(0, len(amps), step):
        rows = slice(start, start + step)
        joint = (amps[rows, :, None] * amps_prime[rows, None, :]).reshape(-1, 1 << (2 * m))
        rotate(joint, m, labels)
        joint[index != column[rows]] = 0.0
        probabilities[rows] = np.vecdot(joint, joint).real
        if posts is not None:
            posts[rows] = joint
    return probabilities


def outputs(call):
    """``call()``'s arrays as bytes, or the message of the ValidationError it
    raises (an outcome at or below the condition floor)."""
    try:
        result = call()
    except ValidationError as exc:
        return str(exc)
    return [np.asarray(part).tobytes() for part in (result if isinstance(result, tuple) else [result])]


def assert_same_as_reference(call):
    got = outputs(call)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swaptest_module, "_kept", rotate_and_mask)
        expected = outputs(call)
    assert got == expected


seeds = st.integers(0, 2**32 - 1)


@st.composite
def stacks(draw, n, size):
    """A Haar stack, or one with some amplitudes of each row set to a signed
    zero (each times 0.0) and the rest renormalized, so exact zeros of
    either sign reach the kernel."""
    states = make_haar_random_stack(n, draw(st.lists(seeds, min_size=size, max_size=size)))
    if not draw(st.booleans()):
        return states
    rng = np.random.default_rng(draw(seeds))
    keep = rng.random(states.amplitudes.shape) < draw(st.floats(0.1, 0.9))
    keep[np.arange(size), rng.integers(0, 1 << n, size)] = True
    amps = states.amplitudes * np.where(keep, 1.0, 0.0)
    return StateStack(n, amps / np.linalg.norm(amps, axis=1, keepdims=True))


@st.composite
def pair_cases(draw, n_max=7):
    """Copy stacks (identical or not) of n = 1..n_max qubits, 1-6 rows."""
    n = draw(st.integers(1, n_max))
    size = draw(st.integers(1, 6))
    states = draw(stacks(n, size))
    return states, states if draw(st.booleans()) else draw(stacks(n, size))


@st.composite
def row_outcomes(draw, n, size):
    """One outcome per row: a shared base with some labels left free per row,
    so the rows of a chunk share some labels and differ on others."""
    base = draw(st.integers(0, (1 << n) - 1))
    free = draw(st.integers(0, (1 << n) - 1))
    flips = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size))
    return np.array([base ^ (flip & free) for flip in flips])


@pytest.mark.parametrize("chunk", CHUNKS)
@PROPERTY_SETTINGS
@given(pair_cases(), st.data())
def test_one_outcome_for_every_row_matches_rotate_and_mask(chunk, case, data):
    states, primes = case
    n = states.n_qubits
    tested = QubitSet(n, data.draw(st.integers(1, (1 << n) - 1)))
    z = format(data.draw(st.integers(0, (1 << n) - 1)), f"0{n}b")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swaptest_module, "JOINT_CHUNK_AMPLITUDES", chunk)
        assert_same_as_reference(lambda: zero_outcome_probabilities(states, primes, tested))
        for outcome in (z, "1" * n, "0" * n):
            assert_same_as_reference(lambda: outcome_probabilities(states, primes, outcome))


@pytest.mark.parametrize("chunk", CHUNKS)
@PROPERTY_SETTINGS
@given(pair_cases(), st.data())
def test_outcomes_per_row_match_rotate_and_mask(chunk, case, data):
    states, primes = case
    n = states.n_qubits
    outcomes = data.draw(row_outcomes(n, len(states)))
    if primes is states:
        # Identical copies give odd-weight outcomes no weight: the last label
        # makes each weight even, so only it may turn from shared to free.
        outcomes ^= np.array([bin(outcome).count("1") & 1 for outcome in outcomes])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swaptest_module, "JOINT_CHUNK_AMPLITUDES", chunk)
        assert_same_as_reference(lambda: post_measurements(states, primes, outcomes))
        # All rows on one outcome: every pair is projected, none masked.
        same = np.full(len(states), outcomes[0])
        assert_same_as_reference(lambda: post_measurements(states, primes, same))


@PROPERTY_SETTINGS
@given(pair_cases(n_max=5), st.data())
def test_controlled_projector_matches_rotate_and_mask(case, data):
    states, primes = case
    n = states.n_qubits
    joint = np.kron(states.amplitudes[0], primes.amplitudes[0])
    qubit, z_bit = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 1))
    expected = joint.copy()
    rotate(expected, n, [qubit])
    expected[singlet_patterns(n, [qubit]) != z_bit] = 0.0
    rotate(expected, n, [qubit])
    projected = apply_controlled_projector(joint, qubit, z_bit)
    assert projected.tobytes() == expected.tobytes()
