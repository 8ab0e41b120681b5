"""Exact and sampled simulation of the parallelized SWAP test.

Two copies of an m-qubit state are held as one 4^m joint vector; copy-A
qubits come first, so copy-A qubit k sits on axis k and copy-B qubit k on
axis m+k of the (2,)*2m tensor view. Control qubit k reads 1 exactly when
the pair (A_k, B_k) is projected onto the singlet, and 0 on the symmetric
subspace. One 2x2 Hadamard on the (|01>, |10>) block of each tested pair
gives the singlet a slot of its own, so the control-register law is a
marginal of |amplitude|^2, found in one O(m * 4^m) pass without ancillas.
The explicit ancilla+Fredkin circuit is kept as a cross-checking oracle.

The kernel runs on stacks: ``exact_distributions``,
``zero_outcome_probabilities``, ``outcome_probabilities`` and
``post_measurements`` take B pairs of copies as (B, 2^m) ``StateStack``s
and hold their joint vectors as one contiguous (B, 4^m) array, whose rows
fold into the high axis of each pair view. Every pair-basis step and one
``bincount`` (with each row's outcomes offset by one table) then serve a
whole chunk of rows. A single outcome is kept by zeroing every joint entry
whose singlet pattern differs from it, one pattern per row, so any outcome
probability and any post-measurement state come from one helper,
``_kept``. Each single-state function is row 0 of its stacked form,
so checks and budgets run only in the stacked forms, validation first.

Two copies of one n-qubit state need no joint vector: on a tested set s
of m' qubits, p(z) = 2^-m' * sum over subsets alpha of s of
(-1)^{|z & alpha|} Tr[rho_alpha^2], one Walsh transform of the 2^m'
subset purities that the cached purity plan of ``reductions`` gives.
``identical_copy_distribution`` computes that law (n <= 14) in O(2^n)
memory, where the pair basis needs O(4^n). ``outcome_distribution`` is
the one route policy: copies with equal amplitudes take the purity law,
any other pair the pair basis. The CLI's ``dist``, ``sample`` and
``distill`` read their laws through it.
``exact_distribution`` and the stacked forms stay the pair-basis
simulation of the test, and ``post_measurement`` still needs the 4^n
vector, so ``distill`` keeps the two-copy cap.

Outcome bitstrings are written with the lowest tested qubit label
leftmost, matching the package-wide "qubit 0 is the most significant bit"
convention; a bitstring and its table index are related by int(z, 2).

A law's table is rendered in one call per form: ``outcome_table_text``
(the lines ``dist`` prints) and ``outcome_table_json`` (the file ``dist``
writes) each fill a cached per-m ``%``-format, built once from the 2^m
labels, with the tuple of the law's values. ``%.12g`` and ``%r`` write a
finite float as ``f"{p:.12g}"`` and ``repr(p)`` do, -0.0 included, so the
bytes equal those of one f-string per outcome.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import ConsistencyError, ValidationError
from .reductions import _plan, _state_purities
from .states import (
    QubitSet,
    StateStack,
    Statevector,
    _row,
    _wrap_checked,
    paired_stacks,
    require_same_qubits,
)

PROB_CLAMP_FLOOR = -1e-12
#: ``post_measurement`` refuses to condition on an outcome this likely or less.
CONDITION_FLOOR = 1e-12

#: The two-qubit singlet (|01> - |10>)/sqrt(2) produced on a |1> control.
SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / np.sqrt(2.0)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class JointState:
    """Vector on copy-A (x) copy-B, possibly shrunk by earlier projections."""

    n_qubits_per_copy: int
    amplitudes: np.ndarray

    def __post_init__(self):
        m = self.n_qubits_per_copy
        if m < 1:
            raise ValidationError(f"n_qubits_per_copy must be >= 1, got {m}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << (2 * m),):
            raise ValidationError(
                f"expected {1 << (2 * m)} joint amplitudes, got shape {amps.shape}"
            )
        if float(np.vdot(amps, amps).real) > 1.0 + 1e-10:
            raise ValidationError("joint state norm exceeds 1")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_copies(cls, psi: Statevector, psi_prime: Statevector) -> "JointState":
        require_same_qubits(psi, psi_prime)
        return cls(psi.n_qubits, np.kron(psi.amplitudes, psi_prime.amplitudes))

    @property
    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact probabilities over control bitstrings of a SWAP test.

    Index bit (m-1-j) holds the outcome for the j-th smallest tested label,
    i.e. probabilities[int(z, 2)] is the probability of bitstring z.
    """

    tested: QubitSet
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        m = self.tested.cardinality
        if probs.shape != (1 << m,):
            raise ValidationError(f"expected {1 << m} probabilities, got {probs.shape}")
        object.__setattr__(self, "probabilities", _checked_probabilities(probs))

    def bitstrings(self) -> list[str]:
        """The 2^m outcome bitstrings in table order, as a new list."""
        return list(_outcome_labels(self.tested.cardinality))

    def probability(self, z: str) -> float:
        _check_bitstring(z, self.tested.cardinality)
        return float(self.probabilities[int(z, 2)])


@dataclass(frozen=True)
class ShotHistogram:
    """Empirical bitstring counts from sampled SWAP-test runs."""

    tested: QubitSet
    shots: int
    counts: dict[str, int]
    seed: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValidationError(f"shots must be >= 1, got {self.shots}")
        m = self.tested.cardinality
        for z, count in self.counts.items():
            _check_bitstring(z, m)
            if count < 0:
                raise ValidationError(f"count of {z!r} is {count}, expected >= 0")
        total = sum(self.counts.values())
        if total != self.shots:
            raise ValidationError(f"counts sum to {total}, expected {self.shots}")


@dataclass(frozen=True)
class MeasurementOutcome:
    """One probabilistic branch: (probability, normalized post-state)."""

    probability: float
    post_state: object  # Statevector for local operations, JointState for SWAP tests

    def __post_init__(self):
        if not -1e-12 <= self.probability <= 1.0 + 1e-10:
            raise ValidationError(f"branch probability {self.probability} out of [0, 1]")
        # Statevector normalizes at construction; JointState only bounds its norm.
        norm_squared = getattr(self.post_state, "norm_squared", None)
        if norm_squared is not None and abs(np.sqrt(norm_squared) - 1.0) > 1e-10:
            raise ValidationError(f"post state norm^2 is {norm_squared!r}, expected 1")


def _checked_probabilities(probs: np.ndarray) -> np.ndarray:
    """Read-only outcome law(s) on the last axis, small negatives clamped to 0.

    Raises unless every entry is finite and at least PROB_CLAMP_FLOOR and
    every law sums to 1 within 1e-10.
    """
    if not np.isfinite(probs).all():
        raise ValidationError("probabilities contain NaN or infinity")
    low = float(probs.min())
    if low < PROB_CLAMP_FLOOR:
        raise ConsistencyError(
            f"probability {low} below {PROB_CLAMP_FLOOR}; the outcome law is broken"
        )
    probs = np.where(probs < 0.0, 0.0, probs)
    totals = probs.sum(axis=-1)
    off = np.abs(totals - 1.0) > 1e-10
    if off.any():
        raise ValidationError(f"probabilities sum to {float(totals[off][0])!r}, expected 1")
    probs.setflags(write=False)
    return probs


@functools.lru_cache(maxsize=16)
def _outcome_labels(m: int) -> tuple[str, ...]:
    """Bitstring z of every outcome of m tested qubits, at table index int(z, 2).

    Kept per m, as are the two table formats built from it
    (``_outcome_lines_format`` and ``_outcome_entries_format``): the outcomes
    cap (m <= 14) leaves at most 14 of each, 1.2 MB of labels and about
    1.1 MB of formats at m = 14, and ``dist`` builds them once per process.
    """
    return tuple(format(i, f"0{m}b") for i in range(1 << m))


@functools.lru_cache(maxsize=16)
def _outcome_lines_format(m: int) -> str:
    """``%``-format of the 2^m lines "z  p" of a law, p written by ``%.12g``."""
    return "\n".join(["%s  %%.12g" % z for z in _outcome_labels(m)])


@functools.lru_cache(maxsize=16)
def _outcome_entries_format(m: int) -> str:
    """``%``-format of the 2^m JSON entries of a law, p written by ``%r``."""
    return ", ".join(['{"p_or_count": %%r, "z": "%s"}' % z for z in _outcome_labels(m)])


def _check_bitstring(z: str, length: int) -> None:
    if not isinstance(z, str) or len(z) != length or set(z) - {"0", "1"}:
        raise ValidationError(f"expected a {length}-bit string of 0/1, got {z!r}")


#: Joint amplitudes the stacked pair kernel holds at once (256 KiB of
#: complex128). Larger stacks run in chunks of rows, one pair of copies at
#: least, so the memory of ``exact_distributions`` does not grow with the
#: number of states.
JOINT_CHUNK_AMPLITUDES = 1 << 14


def _pair_view(amps: np.ndarray, m: int, k: int) -> np.ndarray:
    # Axes: (high, copy-A qubit k, middle, copy-B qubit k, low). In a contiguous
    # (B, 4^m) stack of joint vectors the rows fold into the high axis.
    return amps.reshape(-1, 2, 1 << (m - 1), 2, 1 << (m - 1 - k))


def _pair_hadamard(amps: np.ndarray, m: int, labels) -> None:
    """Self-inverse, in-place map of each listed pair into the pair basis.

    (|01>, |10>) -> ((|01> + |10>)/sqrt(2), (|01> - |10>)/sqrt(2)), so slot
    (a_k=1, b_k=0) holds the singlet amplitude and the rest are symmetric.
    ``amps`` is one joint vector or a contiguous (B, 4^m) stack of them.
    """
    for k in labels:
        view = _pair_view(amps, m, k)
        up, down = view[:, 0, :, 1], view[:, 1, :, 0]
        # Scaled contiguous copies: 2 strided reads + 2 writes, freed before the next pair.
        up_scaled, down_scaled = up * _INV_SQRT2, down * _INV_SQRT2
        np.add(up_scaled, down_scaled, out=up)
        np.subtract(up_scaled, down_scaled, out=down)
        del up_scaled, down_scaled


def _pair_basis_chunks(amps: np.ndarray, amps_prime: np.ndarray, m: int, labels):
    """Yield (rows, joint) per chunk of rows of (B, 2^m) copy stacks: ``joint``
    holds the chunk's joint vectors A (x) B in the pair basis of ``labels``.
    """
    step = max(1, JOINT_CHUNK_AMPLITUDES >> (2 * m))
    for start in range(0, len(amps), step):
        rows = slice(start, start + step)
        joint = (amps[rows, :, None] * amps_prime[rows, None, :]).reshape(-1, 1 << (2 * m))
        _pair_hadamard(joint, m, labels)
        yield rows, joint


# Each entry holds 2^m ints (8 KiB at the 10-qubit copies the default cap
# allows), so the cache stays under 1 MB; the 4^m outcome index built from it
# is not kept.
@functools.lru_cache(maxsize=64)
def _packed(m: int, labels) -> np.ndarray:
    """Read-only bits of each copy index on ``labels`` (hashable), packed in label order."""
    labels = np.array(labels, dtype=int)
    tested_bits = (np.arange(1 << m)[:, None] >> (m - 1 - labels)) & 1
    packed = tested_bits @ (1 << np.arange(len(labels))[::-1])
    packed.setflags(write=False)
    return packed


def _outcome_index(m: int, labels) -> np.ndarray:
    """Control outcome of each joint index in the pair basis, as a table index.

    Slot (a_k=1, b_k=0) holds the singlet, so the outcome of joint index
    (A, B) is the pattern A & ~B on ``labels``, packed in label order.
    """
    packed = _packed(m, labels)
    # Packing commutes with bitwise logic, so pack(A & ~B) = pack(A) & ~pack(B).
    return (packed[:, None] & ~packed[None, :]).reshape(-1)


def _kept(amps: np.ndarray, amps_prime: np.ndarray, m: int, labels, outcomes, posts=None):
    """Unchecked probability of each row's control outcome, for (B, 2^m) copy stacks.

    Row b keeps the entries of its pair-basis joint vector on control
    outcome ``outcomes[b]`` (a table index over ``labels``; one index serves
    every row) and zeroes the rest; its probability is the kept norm^2. A
    (B, 4^m) ``posts`` array receives the kept joint rows.
    """
    index = _outcome_index(m, labels)
    column = np.empty((len(amps), 1), dtype=np.intp)
    column[:, 0] = outcomes
    probabilities = np.empty(len(amps))
    for rows, joint in _pair_basis_chunks(amps, amps_prime, m, labels):
        joint[index != column[rows]] = 0.0
        probabilities[rows] = np.vecdot(joint, joint).real
        if posts is not None:
            posts[rows] = joint
    return probabilities


def apply_controlled_projector(joint: JointState, qubit: int, z_bit: int) -> JointState:
    """Project the joint state on control outcome ``z_bit`` for one tested qubit."""
    m = joint.n_qubits_per_copy
    if not 0 <= qubit < m:
        raise ValidationError(f"qubit {qubit} out of range for {m} qubits per copy")
    if z_bit not in (0, 1):
        raise ValidationError(f"z_bit must be 0 or 1, got {z_bit}")
    amps = joint.amplitudes.copy()
    _pair_hadamard(amps, m, (qubit,))
    amps[_outcome_index(m, (qubit,)) != z_bit] = 0.0
    _pair_hadamard(amps, m, (qubit,))
    return JointState(m, amps)


def _require_tested_nonempty(tested: QubitSet) -> None:
    if tested.cardinality == 0:
        raise ValidationError("no tested qubits: the control register would be empty")


def _copy_stacks(states, states_prime, tested: QubitSet) -> tuple[StateStack, StateStack]:
    """``paired_stacks`` over ``tested``'s qubits, then the two-copy budget;
    callers check their other arguments first.
    """
    states, states_prime = paired_stacks(states, states_prime, tested)
    limits.require("two-copies", 2 * states.n_qubits)
    return states, states_prime


def exact_distribution(
    psi: Statevector, psi_prime: Statevector, tested: QubitSet
) -> OutcomeDistribution:
    """Exact control-register distribution of the parallelized SWAP test:
    row 0 of ``exact_distributions``.
    """
    return OutcomeDistribution(tested, exact_distributions([psi], [psi_prime], tested)[0])


def exact_distributions(states, states_prime, tested: QubitSet) -> np.ndarray:
    """Control-register laws of many SWAP tests: row b is
    ``exact_distribution(states[b], states_prime[b], tested).probabilities``.

    ``states`` and ``states_prime`` are ``StateStack``s (or sequences of
    states) of equal length over the same qubits. In the pair basis of the
    tested pairs, a law is one ``bincount`` of |amplitude|^2 over the
    singlet pattern A & ~B of the copy indices: O(n * 4^n) time and O(4^n)
    memory, whatever the number of outcomes. Every pair-basis step and one
    ``bincount`` per chunk of rows serve all the pairs of copies, and each
    row is added up in the same order as alone, so a row equals the row of a
    one-row stack bit for bit. Chunks hold at most
    ``JOINT_CHUNK_AMPLITUDES`` joint amplitudes (one pair of copies at
    least). Returns a read-only (B, 2^m') array, m' the number of tested
    qubits, with each row checked like an ``OutcomeDistribution``.
    """
    states, states_prime = paired_stacks(states, states_prime, tested)
    _require_tested_nonempty(tested)
    limits.require("outcomes", tested.cardinality)
    m, labels = states.n_qubits, tested.labels()
    limits.require("two-copies", 2 * m)
    amps, amps_prime = states.amplitudes, states_prime.amplitudes
    size = 1 << len(labels)
    index = _outcome_index(m, labels)
    step = min(len(amps), max(1, JOINT_CHUNK_AMPLITUDES >> (2 * m)))
    if step > 1:
        # One bincount per chunk: row r's outcomes are offset by r tables.
        index = (index + (np.arange(step) * size)[:, None]).reshape(-1)
    tables = np.empty((len(amps), size))
    for rows, joint in _pair_basis_chunks(amps, amps_prime, m, labels):
        weights = np.abs(joint)
        weights *= weights
        count = len(weights)
        probs = np.bincount(
            index[: weights.size], weights=weights.reshape(-1), minlength=count * size
        )
        tables[rows] = probs.reshape(count, size)
    return _checked_probabilities(tables)


def outcome_probability(psi: Statevector, psi_prime: Statevector, z: str) -> float:
    """Probability of one full-register control bitstring: entry 0 of ``outcome_probabilities``."""
    return float(outcome_probabilities([psi], [psi_prime], z)[0])


def outcome_probabilities(states, states_prime, z: str) -> np.ndarray:
    """Probability of the full-register control bitstring ``z`` for each pair of copies.

    Entry b is ``outcome_probability(states[b], states_prime[b], z)``, bit for
    bit; the pair-basis steps run once per chunk of rows, as in
    ``exact_distributions``.
    """
    states = StateStack.of(states)
    n = states.n_qubits
    _check_bitstring(z, n)
    states, states_prime = _copy_stacks(states, states_prime, QubitSet.full(n))
    return _kept(states.amplitudes, states_prime.amplitudes, n, range(n), int(z, 2))


def zero_outcome_probability(
    psi: Statevector, psi_prime: Statevector, tested: QubitSet
) -> float:
    """Probability of the all-zero outcome of a SWAP test on ``tested`` only:
    entry 0 of ``zero_outcome_probabilities``.
    """
    return float(zero_outcome_probabilities([psi], [psi_prime], tested)[0])


def zero_outcome_probabilities(states, states_prime, tested: QubitSet) -> np.ndarray:
    """All-zero outcome probability of a SWAP test on ``tested`` for each pair of copies.

    Entry b is ``zero_outcome_probability(states[b], states_prime[b], tested)``,
    bit for bit; the pair-basis steps run once per chunk of rows, as in
    ``exact_distributions``.
    """
    states, states_prime = _copy_stacks(states, states_prime, tested)
    return _kept(states.amplitudes, states_prime.amplitudes, states.n_qubits, tested.labels(), 0)


def _fwht(values: np.ndarray) -> np.ndarray:
    """b[z] = sum_x (-1)^{popcount(z & x)} a[x] via the Walsh butterfly, on the last axis."""
    a = np.array(values, dtype=float)
    lead, size = a.shape[:-1], a.shape[-1]
    h = 1
    while h < size:
        a = a.reshape(lead + (-1, 2 * h))
        left, right = a[..., :h], a[..., h:]
        total = left + right
        np.subtract(left, right, out=right)
        left[...] = total
        h *= 2
    return a.reshape(lead + (-1,))


def _walsh_law(purities: np.ndarray) -> np.ndarray:
    """Outcome law of identical copies on m tested qubits, from their 2^m subset purities.

    p(z) = 2^-m * sum over local masks x of (-1)^{|S1 & x|} Tr[rho_x^2],
    bit j of a local mask standing for the j-th smallest tested label and
    S1 being the tested labels where z is 1: one Walsh transform of the
    purities on the last axis (leading axes are separate states), returned
    by table index int(z, 2). On the full register a local mask is a label
    mask. Independent of the pair-basis route.
    """
    return _reverse_bits(_fwht(purities) / purities.shape[-1])


def _reverse_bits(tables: np.ndarray) -> np.ndarray:
    """Each table on the last axis re-indexed by its bit-reversed index: local mask (bit j =
    j-th tested label) <-> table index (first label most significant), (2,)*m axes reversed."""
    m = tables.shape[-1].bit_length() - 1
    return tables.reshape((-1,) + (2,) * m).transpose(0, *range(m, 0, -1)).reshape(tables.shape)


def identical_copy_distribution(psi: Statevector, tested: QubitSet) -> OutcomeDistribution:
    """Exact SWAP-test law on ``tested`` for two copies of psi, from purities.

    The 2^m purities of the subsets of ``tested`` come from one cached
    purity plan, listed in ascending submask order, which is the local mask
    order ``_walsh_law`` transforms. No two-copy vector is built, so the
    cost is that of the purities, not O(m * 4^n). Caps: ``purity-terms``
    (n) and ``outcomes`` (m).
    """
    require_same_qubits(psi, tested)
    _require_tested_nonempty(tested)
    limits.require("purity-terms", psi.n_qubits)
    limits.require("outcomes", tested.cardinality)
    purities = _state_purities(psi.amplitudes, _plan(psi.n_qubits, tested.mask))
    return OutcomeDistribution(tested, _walsh_law(purities))


def outcome_distribution(
    psi: Statevector, psi_prime: Statevector, tested: QubitSet
) -> OutcomeDistribution:
    """The SWAP-test law the commands print and draw from: the route policy.

    Copies with equal amplitudes take ``identical_copy_distribution``
    (n <= 14); any other pair takes the pair-basis ``exact_distribution``.
    """
    if np.array_equal(psi.amplitudes, psi_prime.amplitudes):
        return identical_copy_distribution(psi, tested)
    return exact_distribution(psi, psi_prime, tested)


def distribution_via_purities(psi: Statevector, z: str) -> float:
    """p(z) for identical copies, from the signed sum of all 2^n subset purities."""
    _check_bitstring(z, psi.n_qubits)
    return identical_copy_distribution(psi, QubitSet.full(psi.n_qubits)).probability(z)


def full_distribution_via_purities(psi: Statevector) -> OutcomeDistribution:
    """Full-register distribution from one purity table and a Walsh transform."""
    return identical_copy_distribution(psi, QubitSet.full(psi.n_qubits))


MAX_SHOTS = 2**63 - 1  # numpy draws the counts of ``sample`` as int64


def sample(
    psi: Statevector,
    psi_prime: Statevector,
    tested: QubitSet,
    shots: int,
    seed: int,
) -> ShotHistogram:
    """Counts of ``shots`` SWAP-test runs: the nonzero entries of one
    ``default_rng(seed).multinomial(shots, p)`` draw, p being the exact law
    of ``outcome_distribution`` (over its sum: numpy refuses an entry
    rounded above 1). O(2^m) for any shot count up to ``MAX_SHOTS``.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValidationError(f"shots must be in 1..{MAX_SHOTS}, got {shots}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    law = outcome_distribution(psi, psi_prime, tested).probabilities
    counts = np.random.default_rng(seed).multinomial(shots, law / law.sum())
    labels = _outcome_labels(tested.cardinality)
    labelled = {labels[i]: int(counts[i]) for i in np.flatnonzero(counts)}
    return ShotHistogram(tested, shots, labelled, seed)


def draw_outcomes(laws: np.ndarray, uniforms) -> np.ndarray:
    """Inverse-CDF outcome index of each uniform u in [0, 1) under its law.

    ``laws`` holds laws on the last axis; ``uniforms`` broadcasts against the
    rest. Each CDF is divided by its last entry, so no u < 1 lands past the
    last outcome with p > 0, and the index is the count of CDF entries <= u
    (``searchsorted(side="right")``), so no outcome with p = 0 is drawn. A
    law whose total is not positive, and a u that is NaN or outside [0, 1),
    is a ``ValidationError`` that names its row (its flat index).
    """
    cdf = np.cumsum(laws, axis=-1)
    uniforms = np.asarray(uniforms, dtype=float)
    totals = cdf[..., -1]
    for values, bad, what in (
        (totals, ~(totals > 0.0), "outcome law sums to"),
        (uniforms, ~((uniforms >= 0.0) & (uniforms < 1.0)), "uniform outside [0, 1):"),
    ):
        if bad.any():
            b = int(np.argmax(bad))
            value = float(values.flat[b])
            raise ValidationError(f"{_row(b, bad.size)}{what} {value!r}; cannot draw an outcome")
    cdf /= cdf[..., -1:]
    return np.count_nonzero(cdf <= uniforms[..., None], axis=-1)


def post_measurement(psi: Statevector, psi_prime: Statevector, z: str) -> MeasurementOutcome:
    """Normalized joint state after observing control bitstring ``z``, plus p(z).

    Wherever z has a 1, the corresponding pair of copy qubits lands in the
    singlet (|01> - |10>)/sqrt(2). This is row 0 of ``post_measurements``.
    """
    n = psi.n_qubits
    _check_bitstring(z, n)
    probabilities, posts = post_measurements([psi], [psi_prime], [int(z, 2)])
    return MeasurementOutcome(float(probabilities[0]), _wrap_checked(JointState, n, posts[0]))


def post_measurements(states, states_prime, outcomes) -> tuple[np.ndarray, np.ndarray]:
    """``post_measurement`` of each pair of copies, row b conditioned on the
    full-register outcome with table index ``outcomes[b]`` (int(z, 2)).

    Returns the outcome probabilities, shape (B,), and the normalized joint
    post-states as a (B, 4^m) array; row b equals ``post_measurement(states[b],
    states_prime[b], z_b)`` bit for bit. A probability out of
    (``CONDITION_FLOOR``, 1] is a ``ValidationError``, and so is a post-state
    whose norm is off 1 by more than 1e-10, as a ``MeasurementOutcome`` would
    reject it; either names its row when there is more than one.
    """
    states = StateStack.of(states)
    m = states.n_qubits
    outcomes = np.asarray(outcomes)
    if (
        outcomes.shape != (len(states),)
        or outcomes.dtype.kind not in "iu"
        or ((outcomes < 0) | (outcomes >= 1 << m)).any()
    ):
        raise ValidationError(
            f"expected {len(states)} outcome indices in [0, {1 << m}), got {outcomes!r}"
        )
    states, states_prime = _copy_stacks(states, states_prime, QubitSet.full(m))
    labels = range(m)
    posts = np.empty((len(states), 1 << (2 * m)), dtype=np.complex128)
    probabilities = _kept(states.amplitudes, states_prime.amplitudes, m, labels, outcomes, posts)
    out_of_range = (probabilities <= CONDITION_FLOOR) | (probabilities > 1.0 + 1e-10)
    if out_of_range.any():
        b = int(np.argmax(out_of_range))
        z = _outcome_labels(m)[outcomes[b]]
        raise ValidationError(
            f"{_row(b, len(states))}outcome {z!r} has probability {probabilities[b]}; "
            "cannot condition on it"
        )
    _pair_hadamard(posts, m, labels)
    posts /= np.sqrt(probabilities)[:, None]
    off = np.abs(np.sqrt(np.vecdot(posts, posts).real) - 1.0) > 1e-10
    if off.any():
        b = int(np.argmax(off))
        raise ValidationError(f"{_row(b, len(states))}post state norm is off 1 by more than 1e-10")
    return probabilities, posts


def pair_marginal(joint: JointState, qubit: int) -> np.ndarray:
    """4x4 reduced density matrix of (copy-A qubit k, copy-B qubit k).

    This is ``pair_marginals`` on one joint vector and one qubit.
    """
    return pair_marginals(joint.amplitudes[None], joint.n_qubits_per_copy, [qubit])[0, 0]


def pair_marginals(joints: np.ndarray, m: int, qubits) -> np.ndarray:
    """Reduced density matrices of (copy-A qubit k, copy-B qubit k) for each
    row of a (B, 4^m) stack of joint vectors and each k in ``qubits``.

    Each row is normalized first. Returns a (B, len(qubits), 4, 4) array;
    entry [b, j] is ``pair_marginal(JointState(m, joints[b]), qubits[j])``
    bit for bit. An error names the row when there is more than one.
    """
    joints = np.asarray(joints, dtype=np.complex128)
    if joints.ndim != 2 or joints.shape[1] != 1 << (2 * m):
        raise ValidationError(
            f"expected rows of {1 << (2 * m)} joint amplitudes, got shape {joints.shape}"
        )
    for qubit in qubits:
        if not 0 <= qubit < m:
            raise ValidationError(f"qubit {qubit} out of range for {m} qubits per copy")
    norms = np.sqrt(np.vecdot(joints, joints).real)
    if (norms <= 0.0).any():
        b = int(np.argmax(norms <= 0.0))
        raise ValidationError(f"{_row(b, len(joints))}cannot take marginals of a zero vector")
    normalized = joints / norms[:, None]
    marginals = np.empty((len(joints), len(qubits), 4, 4), dtype=np.complex128)
    for j, k in enumerate(qubits):
        # Axes: (row, high, copy-A qubit k, middle, copy-B qubit k, low); the
        # pair's two axes go first, the rest keep their order.
        tensor = normalized.reshape(len(joints), 1 << k, 2, 1 << (m - 1), 2, 1 << (m - 1 - k))
        matrix = tensor.transpose(0, 2, 4, 1, 3, 5).reshape(len(joints), 4, -1)
        marginals[:, j] = matrix @ matrix.conj().swapaxes(-1, -2)
    return marginals


def singlet_fidelity(pair_density: np.ndarray) -> float:
    """Overlap of a two-qubit density matrix with the singlet state.

    This is ``singlet_fidelities`` on one matrix.
    """
    return float(singlet_fidelities(pair_density))


def singlet_fidelities(pair_densities: np.ndarray) -> np.ndarray:
    """Overlap with the singlet of each 4x4 density matrix on the last two axes."""
    return np.vecdot(SINGLET, pair_densities @ SINGLET).real


# ---------------------------------------------------------------------------
# Explicit-circuit oracle: ancillas, Hadamards, and Fredkin gates.

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def _apply_single_qubit(state: np.ndarray, n_total: int, qubit: int, gate: np.ndarray) -> np.ndarray:
    tensor = state.reshape((2,) * n_total)
    tensor = np.moveaxis(np.tensordot(gate, tensor, axes=([1], [qubit])), 0, qubit)
    return tensor.reshape(-1)


def _apply_fredkin(state: np.ndarray, n_total: int, control: int, a: int, b: int) -> np.ndarray:
    pos_c = n_total - 1 - control
    pos_a = n_total - 1 - a
    pos_b = n_total - 1 - b
    idx = np.arange(1 << n_total)
    differ = ((idx >> pos_a) ^ (idx >> pos_b)) & 1
    swapped = idx ^ ((differ << pos_a) | (differ << pos_b))
    source = np.where((idx >> pos_c) & 1 == 1, swapped, idx)
    return state[source]


def full_circuit_oracle(
    psi: Statevector, psi_prime: Statevector, tested: QubitSet
) -> OutcomeDistribution:
    """Simulate the literal test circuit: |0> ancillas, H, Fredkins, H, measure.

    Builds the (m' + 2m)-qubit register with one ancilla per tested qubit
    and returns the exact ancilla marginal distribution. Slow but direct;
    used to cross-check the projector route.
    """
    require_same_qubits(psi, psi_prime, tested)
    _require_tested_nonempty(tested)
    labels = tested.labels()
    m = psi.n_qubits
    m_tested = len(labels)
    n_total = m_tested + 2 * m
    limits.require("circuit", n_total)
    state = np.zeros(1 << n_total, dtype=np.complex128)
    state[: 1 << (2 * m)] = np.kron(psi.amplitudes, psi_prime.amplitudes)
    for j in range(m_tested):
        state = _apply_single_qubit(state, n_total, j, _HADAMARD)
    for j, t in enumerate(labels):
        state = _apply_fredkin(state, n_total, j, m_tested + t, m_tested + m + t)
    for j in range(m_tested):
        state = _apply_single_qubit(state, n_total, j, _HADAMARD)
    weights = np.abs(state.reshape((2,) * n_total)) ** 2
    probs = weights.sum(axis=tuple(range(m_tested, n_total))).reshape(-1)
    return OutcomeDistribution(tested, probs)


# ---------------------------------------------------------------------------
# Text and JSON forms. The ``*_to_dict`` and ``*_from_dict`` pairs are the
# public record forms; the CLI writes its outcome-table files with
# ``outcome_table_json``, which renders the same record straight to text,
# byte for byte what ``json.dumps(to_dict(...), sort_keys=True)`` gives.


def outcome_table_text(dist: OutcomeDistribution) -> str:
    """The 2^m lines "z  p" that ``dist`` prints, p by ``%.12g``, with no
    final newline: one ``%`` of the law's values into the cached per-m
    format, the same text as one f-string ``f"{z}  {p:.12g}"`` per outcome.
    """
    return _outcome_lines_format(dist.tested.cardinality) % tuple(dist.probabilities.tolist())


def outcome_table_json(
    table: OutcomeDistribution | ShotHistogram, estimate: dict | None = None
) -> str:
    """One line of JSON for ``table``'s record, newline-terminated.

    Equals ``json.dumps(distribution_to_dict(table), sort_keys=True) + "\\n"``
    (``histogram_to_dict`` for a histogram, with an ``"estimate"`` key when
    ``estimate`` is given) without building a dict per entry. Each value is
    written by ``repr``, as ``json`` writes a finite float or an int: a law's
    2^m entries are one ``%`` of its values into the cached per-m format, a
    histogram's (whose labels vary) one join of fragments. The other keys go
    through ``json.dumps``; "entries" sorts before each of them.
    """
    if isinstance(table, OutcomeDistribution):
        values = tuple(table.probabilities.tolist())
        entries = _outcome_entries_format(table.tested.cardinality) % values
        rest = {"tested_mask": table.tested.mask}
    else:
        entries = ", ".join(
            [f'{{"p_or_count": {int(c)}, "z": "{z}"}}' for z, c in sorted(table.counts.items())]
        )
        rest = {"tested_mask": table.tested.mask, "shots": table.shots, "seed": table.seed}
    if estimate is not None:
        rest["estimate"] = estimate
    return f'{{"entries": [{entries}], {json.dumps(rest, sort_keys=True)[1:]}\n'


def distribution_to_dict(dist: OutcomeDistribution) -> dict:
    return {
        "tested_mask": dist.tested.mask,
        "entries": [
            {"z": z, "p_or_count": p}
            for z, p in zip(dist.bitstrings(), dist.probabilities.tolist())
        ],
    }


def distribution_from_dict(data: dict, n_qubits: int) -> OutcomeDistribution:
    try:
        tested = QubitSet(n_qubits, int(data["tested_mask"]))
        entries = {e["z"]: float(e["p_or_count"]) for e in data["entries"]}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed distribution record: {exc}") from exc
    m = tested.cardinality
    probs = np.zeros(1 << m)
    for z, p in entries.items():
        _check_bitstring(z, m)
        probs[int(z, 2)] = p
    return OutcomeDistribution(tested, probs)


def histogram_to_dict(hist: ShotHistogram) -> dict:
    return {
        "tested_mask": hist.tested.mask,
        "shots": hist.shots,
        "seed": hist.seed,
        "entries": [
            {"z": z, "p_or_count": int(c)} for z, c in sorted(hist.counts.items())
        ],
    }


def histogram_from_dict(data: dict, n_qubits: int) -> ShotHistogram:
    try:
        tested = QubitSet(n_qubits, int(data["tested_mask"]))
        counts = {e["z"]: int(e["p_or_count"]) for e in data["entries"]}
        shots = int(data["shots"])
        seed = int(data["seed"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed histogram record: {exc}") from exc
    return ShotHistogram(tested, shots, counts, seed)
