"""Exact and sampled simulation of the parallelized SWAP test.

Two copies of an m-qubit state are held as one 4^m joint vector; copy-A
qubits come first, so copy-A qubit k sits on axis k and copy-B qubit k on
axis m+k of the (2,)*2m tensor view. Control qubit k reads 1 exactly when
the pair (A_k, B_k) is projected onto the singlet, and 0 on the symmetric
subspace. One 2x2 Hadamard on the (|01>, |10>) block of each tested pair
gives the singlet a slot of its own, so the control-register law is a
marginal of |amplitude|^2, found in one O(m * 4^m) pass without ancillas.
The explicit ancilla+Fredkin circuit is kept as a cross-checking oracle.

The kernel also runs on stacks: ``exact_distributions``,
``zero_outcome_probabilities``, ``outcome_probabilities`` and
``post_measurements`` take B pairs of copies as (B, 2^m) ``StateStack``s
and hold their joint vectors as one contiguous (B, 4^m) array, whose rows
fold into the high axis of each pair view. Every pair-basis step and one
``bincount`` (with each row's outcomes offset by one table) then serve a
whole chunk of rows. A single outcome is kept by zeroing every joint entry
whose singlet pattern differs from it, one pattern per row, so any outcome
probability and any post-measurement state come from one helper,
``_kept_chunks``. The single-state functions (``exact_distribution``,
``zero_outcome_probability``, ``outcome_probability``,
``post_measurement``, and ``pair_marginal`` and ``singlet_fidelity`` on
the post-states) are the same code on one pair of copies.

Outcome bitstrings are written with the lowest tested qubit label
leftmost, matching the package-wide "qubit 0 is the most significant bit"
convention; a bitstring and its table index are related by int(z, 2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import ConsistencyError, ValidationError
from .reductions import purity_array
from .states import QubitSet, StateStack, Statevector, paired_stacks, require_same_qubits

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
        m = self.tested.cardinality
        return [format(i, f"0{m}b") for i in range(1 << m)]

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
        for z in self.counts:
            _check_bitstring(z, m)
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
            f"probability {low} below {PROB_CLAMP_FLOOR}; projector logic is broken"
        )
    probs = np.where(probs < 0.0, 0.0, probs)
    totals = probs.sum(axis=-1)
    off = np.abs(totals - 1.0) > 1e-10
    if off.any():
        raise ValidationError(f"probabilities sum to {float(totals[off][0])!r}, expected 1")
    probs.setflags(write=False)
    return probs


def _check_bitstring(z: str, length: int) -> None:
    if not isinstance(z, str) or len(z) != length or set(z) - {"0", "1"}:
        raise ValidationError(f"expected a {length}-bit string of 0/1, got {z!r}")


#: Joint amplitudes the stacked pair kernel holds at once (256 KiB of
#: complex128). Larger stacks run in chunks of rows, one pair of copies at
#: least, so the memory of ``exact_distributions`` does not grow with the
#: number of states: its tracemalloc peak was 1.0 MB for 8 six-qubit pairs
#: of copies, against 0.23 MB for one.
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


def _pair_basis(amps: np.ndarray, amps_prime: np.ndarray, m: int, labels) -> np.ndarray:
    """Joint vector A (x) B of the copies in the pair basis of ``labels``.

    One state per copy gives a 4^m vector; (B, 2^m) stacks give (B, 4^m).
    """
    joint = (amps[..., :, None] * amps_prime[..., None, :]).reshape(amps.shape[:-1] + (-1,))
    _pair_hadamard(joint, m, labels)
    return joint


def _pair_basis_chunks(amps: np.ndarray, amps_prime: np.ndarray, m: int, labels):
    """Yield (rows, joint): the (b, 4^m) pair-basis joint stack of each chunk of rows."""
    step = max(1, JOINT_CHUNK_AMPLITUDES >> (2 * m))
    for start in range(0, len(amps), step):
        rows = slice(start, start + step)
        yield rows, _pair_basis(amps[rows], amps_prime[rows], m, labels)


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


def _outcome_tables(amps: np.ndarray, amps_prime: np.ndarray, m: int, labels) -> np.ndarray:
    """Unchecked (B, 2^m') control-register laws of (B, 2^m) copy stacks.

    See ``exact_distribution``; m' is the number of tested labels.
    """
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
    return tables


def _kept_chunks(amps: np.ndarray, amps_prime: np.ndarray, m: int, labels, outcomes):
    """Yield (rows, joint, probabilities) per chunk of rows of (B, 2^m) copy stacks.

    ``joint`` is the chunk's pair-basis joint stack with every entry off row
    b's control outcome ``outcomes[b]`` (a table index over ``labels``; one
    index serves every row) set to 0, and ``probabilities`` the norm^2 of
    each kept row, the probability of its outcome.
    """
    index = _outcome_index(m, labels)
    column = np.empty((len(amps), 1), dtype=np.intp)
    column[:, 0] = outcomes
    for rows, joint in _pair_basis_chunks(amps, amps_prime, m, labels):
        joint[index != column[rows]] = 0.0
        yield rows, joint, np.array([np.vdot(row, row).real for row in joint])


def _outcome_rows(amps: np.ndarray, amps_prime: np.ndarray, m: int, labels, outcomes) -> np.ndarray:
    """Unchecked probability of each row's control outcome on ``labels``; see ``_kept_chunks``."""
    probabilities = np.empty(len(amps))
    for rows, _, kept in _kept_chunks(amps, amps_prime, m, labels, outcomes):
        probabilities[rows] = kept
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
    states, states_prime = paired_stacks(states, states_prime, tested)
    limits.require("two-copies", 2 * states.n_qubits)
    return states, states_prime


def exact_distribution(
    psi: Statevector, psi_prime: Statevector, tested: QubitSet
) -> OutcomeDistribution:
    """Exact control-register distribution of the parallelized SWAP test.

    In the pair basis of the tested pairs, the table is one ``bincount`` of
    |amplitude|^2 over the singlet pattern A & ~B of the copy indices:
    O(n * 4^n) time and O(4^n) memory, whatever the number of outcomes.
    This is ``exact_distributions`` on one pair of copies.
    """
    require_same_qubits(psi, psi_prime, tested)
    _require_tested_nonempty(tested)
    limits.require("outcomes", tested.cardinality)
    limits.require("two-copies", 2 * psi.n_qubits)
    table = _outcome_tables(
        psi.amplitudes[None], psi_prime.amplitudes[None], psi.n_qubits, tested.labels()
    )
    return OutcomeDistribution(tested, table[0])


def exact_distributions(states, states_prime, tested: QubitSet) -> np.ndarray:
    """Control-register laws of many SWAP tests: row b is
    ``exact_distribution(states[b], states_prime[b], tested).probabilities``.

    ``states`` and ``states_prime`` are ``StateStack``s (or sequences of
    states) of equal length over the same qubits. Every pair-basis step and
    one ``bincount`` per chunk of rows serve all the pairs of copies, and
    each row is added up in the same order as alone, so the rows equal the
    single-state tables bit for bit. Chunks hold at most
    ``JOINT_CHUNK_AMPLITUDES`` joint amplitudes (one pair of copies at
    least). Returns a read-only (B, 2^m) array with each row checked like an
    ``OutcomeDistribution``.
    """
    states, states_prime = _copy_stacks(states, states_prime, tested)
    _require_tested_nonempty(tested)
    limits.require("outcomes", tested.cardinality)
    tables = _outcome_tables(
        states.amplitudes, states_prime.amplitudes, states.n_qubits, tested.labels()
    )
    return _checked_probabilities(tables)


def outcome_probability(psi: Statevector, psi_prime: Statevector, z: str) -> float:
    """Probability of one full-register control bitstring.

    This is ``outcome_probabilities`` on one pair of copies.
    """
    require_same_qubits(psi, psi_prime)
    _check_bitstring(z, psi.n_qubits)
    limits.require("two-copies", 2 * psi.n_qubits)
    n = psi.n_qubits
    values = _outcome_rows(psi.amplitudes[None], psi_prime.amplitudes[None], n, range(n), int(z, 2))
    return float(values[0])


def outcome_probabilities(states, states_prime, z: str) -> np.ndarray:
    """Probability of the full-register control bitstring ``z`` for each pair of copies.

    Entry b is ``outcome_probability(states[b], states_prime[b], z)``, bit for
    bit; the pair-basis steps run once per chunk of rows, as in
    ``exact_distributions``.
    """
    states = StateStack.of(states)
    n = states.n_qubits
    states, states_prime = _copy_stacks(states, states_prime, QubitSet.full(n))
    _check_bitstring(z, n)
    return _outcome_rows(states.amplitudes, states_prime.amplitudes, n, range(n), int(z, 2))


def zero_outcome_probability(
    psi: Statevector, psi_prime: Statevector, tested: QubitSet
) -> float:
    """Probability of the all-zero outcome of a SWAP test on ``tested`` only.

    This is ``zero_outcome_probabilities`` on one pair of copies.
    """
    require_same_qubits(psi, psi_prime, tested)
    limits.require("two-copies", 2 * psi.n_qubits)
    zeros = _outcome_rows(
        psi.amplitudes[None], psi_prime.amplitudes[None], psi.n_qubits, tested.labels(), 0
    )
    return float(zeros[0])


def zero_outcome_probabilities(states, states_prime, tested: QubitSet) -> np.ndarray:
    """All-zero outcome probability of a SWAP test on ``tested`` for each pair of copies.

    Entry b is ``zero_outcome_probability(states[b], states_prime[b], tested)``,
    bit for bit; the pair-basis steps run once per chunk of rows, as in
    ``exact_distributions``.
    """
    states, states_prime = _copy_stacks(states, states_prime, tested)
    return _outcome_rows(
        states.amplitudes, states_prime.amplitudes, states.n_qubits, tested.labels(), 0
    )


def _fwht(values: np.ndarray) -> np.ndarray:
    """b[z] = sum_x (-1)^{popcount(z & x)} a[x] via the Walsh butterfly, on the last axis."""
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


def _walsh_law(purities: np.ndarray) -> np.ndarray:
    """Full-register outcome law of identical copies, from all 2^n subset purities.

    p(z) = 2^-n * sum over label masks x of (-1)^{|S1 & x|} Tr[rho_x^2],
    S1 being the labels where z is 1: one Walsh transform of the purities
    on the last axis (leading axes are separate states), returned by table
    index int(z, 2). Independent of the pair-basis route.
    """
    n = purities.shape[-1].bit_length() - 1
    lead = purities.shape[:-1]
    by_label_mask = _fwht(purities) / (1 << n)
    # Label mask (bit k = qubit k) -> table index (qubit 0 most significant)
    # is a bit reversal: reversing the qubit axes of the (2,)*n view.
    axes = tuple(range(len(lead))) + tuple(range(len(lead) + n - 1, len(lead) - 1, -1))
    return by_label_mask.reshape(lead + (2,) * n).transpose(axes).reshape(lead + (-1,))


def _purity_walsh_law(psi: Statevector) -> np.ndarray:
    """``_walsh_law`` of psi's 2^n purities."""
    limits.require("purity-terms", psi.n_qubits)
    return _walsh_law(purity_array(psi))


def distribution_via_purities(psi: Statevector, z: str) -> float:
    """p(z) for identical copies, from the signed sum of all 2^n subset purities."""
    _check_bitstring(z, psi.n_qubits)
    value = float(_purity_walsh_law(psi)[int(z, 2)])
    if value < PROB_CLAMP_FLOOR:
        raise ConsistencyError(f"purity-route probability {value} below {PROB_CLAMP_FLOOR}")
    return max(value, 0.0)


def full_distribution_via_purities(psi: Statevector) -> OutcomeDistribution:
    """Full-register distribution from one purity table and a Walsh transform."""
    return OutcomeDistribution(QubitSet.full(psi.n_qubits), _purity_walsh_law(psi))


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
    (over its sum: numpy refuses an entry rounded above 1). O(2^m) for any
    shot count up to ``MAX_SHOTS``.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValidationError(f"shots must be in 1..{MAX_SHOTS}, got {shots}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    law = exact_distribution(psi, psi_prime, tested).probabilities
    counts = np.random.default_rng(seed).multinomial(shots, law / law.sum())
    m = tested.cardinality
    labelled = {format(i, f"0{m}b"): int(counts[i]) for i in np.flatnonzero(counts)}
    return ShotHistogram(tested, shots, labelled, seed)


def draw_outcomes(laws: np.ndarray, uniforms) -> np.ndarray:
    """Inverse-CDF outcome index of each uniform u in [0, 1) under its law.

    ``laws`` holds laws on the last axis; ``uniforms`` broadcasts against the
    rest. Each CDF is divided by its last entry, so no u < 1 lands past the
    last outcome with p > 0, and the index is the count of CDF entries <= u
    (``searchsorted(side="right")``), so no outcome with p = 0 is drawn.
    """
    cdf = np.cumsum(laws, axis=-1)
    cdf /= cdf[..., -1:]
    return np.count_nonzero(cdf <= np.asarray(uniforms)[..., None], axis=-1)


def post_measurement(psi: Statevector, psi_prime: Statevector, z: str) -> MeasurementOutcome:
    """Normalized joint state after observing control bitstring ``z``, plus p(z).

    Wherever z has a 1, the corresponding pair of copy qubits lands in the
    singlet (|01> - |10>)/sqrt(2). This is ``post_measurements`` on one pair
    of copies.
    """
    n = psi.n_qubits
    require_same_qubits(psi, psi_prime)
    _check_bitstring(z, n)
    limits.require("two-copies", 2 * n)
    probabilities, posts = _post_states(
        psi.amplitudes[None], psi_prime.amplitudes[None], n, np.array([int(z, 2)])
    )
    return MeasurementOutcome(float(probabilities[0]), JointState(n, posts[0]))


def post_measurements(states, states_prime, outcomes) -> tuple[np.ndarray, np.ndarray]:
    """``post_measurement`` of each pair of copies, row b conditioned on the
    full-register outcome with table index ``outcomes[b]`` (int(z, 2)).

    Returns the outcome probabilities, shape (B,), and the normalized joint
    post-states as a (B, 4^m) array; row b equals ``post_measurement(states[b],
    states_prime[b], z_b)`` bit for bit. A row whose outcome has probability
    ``CONDITION_FLOOR`` or less is a ``ValidationError`` that names the row,
    and so is a post-state whose norm is off 1 by more than 1e-10, as a
    ``MeasurementOutcome`` would reject it.
    """
    states = StateStack.of(states)
    m = states.n_qubits
    states, states_prime = _copy_stacks(states, states_prime, QubitSet.full(m))
    outcomes = np.asarray(outcomes)
    if (
        outcomes.shape != (len(states),)
        or outcomes.dtype.kind not in "iu"
        or ((outcomes < 0) | (outcomes >= 1 << m)).any()
    ):
        raise ValidationError(
            f"expected {len(states)} outcome indices in [0, {1 << m}), got {outcomes!r}"
        )
    probabilities, posts = _post_states(states.amplitudes, states_prime.amplitudes, m, outcomes)
    off = np.abs(np.sqrt(np.vecdot(posts, posts).real) - 1.0) > 1e-10
    if off.any():
        b = int(np.argmax(off))
        raise ValidationError(f"row {b}: post state norm is off 1 by more than 1e-10")
    return probabilities, posts


def _post_states(amps, amps_prime, m: int, outcomes: np.ndarray):
    """(probabilities, normalized joint post-states) of ``post_measurements``.

    A probability out of (``CONDITION_FLOOR``, 1] is a ``ValidationError``
    that names its row when there is more than one; the post-states' norms
    are left to the callers to check.
    """
    labels = range(m)
    probabilities = np.empty(len(amps))
    posts = np.empty((len(amps), 1 << (2 * m)), dtype=np.complex128)
    for rows, joint, kept in _kept_chunks(amps, amps_prime, m, labels, outcomes):
        probabilities[rows], posts[rows] = kept, joint
    out_of_range = (probabilities <= CONDITION_FLOOR) | (probabilities > 1.0 + 1e-10)
    if out_of_range.any():
        b = int(np.argmax(out_of_range))
        row = f"row {b}: " if len(amps) > 1 else ""
        z = format(int(outcomes[b]), f"0{m}b")
        raise ValidationError(
            f"{row}outcome {z!r} has probability {probabilities[b]}; cannot condition on it"
        )
    _pair_hadamard(posts, m, labels)
    posts /= np.sqrt(probabilities)[:, None]
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
        where = f"row {b}: " if len(joints) > 1 else ""
        raise ValidationError(f"{where}cannot take marginals of a zero vector")
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
# JSON forms.


def distribution_to_dict(dist: OutcomeDistribution) -> dict:
    return {
        "tested_mask": dist.tested.mask,
        "entries": [
            {"z": z, "p_or_count": float(p)}
            for z, p in zip(dist.bitstrings(), dist.probabilities)
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
