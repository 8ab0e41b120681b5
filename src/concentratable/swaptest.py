"""Exact and sampled simulation of the parallelized SWAP test.

Two copies of an m-qubit state are held as one 4^m joint vector; copy-A
qubits come first, so copy-A qubit k sits on axis k and copy-B qubit k on
axis m+k of the (2,)*2m tensor view. Control qubit k reads 1 exactly when
the pair (A_k, B_k) is projected onto the singlet, and 0 on the symmetric
subspace. One 2x2 Hadamard on the (|01>, |10>) block of each tested pair
gives the singlet a slot of its own, so the control-register law is a
marginal of |amplitude|^2, found in one O(m * 4^m) pass without ancillas.
The explicit ancilla+Fredkin circuit is kept as a cross-checking oracle.

The kernel also runs on stacks: ``exact_distributions`` and
``zero_outcome_probabilities`` take B pairs of copies as (B, 2^m)
``StateStack``s and hold their joint vectors as one contiguous (B, 4^m)
array, whose rows fold into the high axis of each pair view. Every
pair-basis step and one ``bincount`` (with each row's outcomes offset by
one table) then serve a whole chunk of rows. ``exact_distribution`` and
``zero_outcome_probability`` are the same code on one pair of copies.

Outcome bitstrings are written with the lowest tested qubit label
leftmost, matching the package-wide "qubit 0 is the most significant bit"
convention; a bitstring and its table index are related by int(z, 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import ConsistencyError, ValidationError
from .reductions import purity_array
from .states import QubitSet, StateStack, Statevector, require_same_qubits

PROB_CLAMP_FLOOR = -1e-12

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


def _keep_outcome(amps: np.ndarray, m: int, labels, bits) -> None:
    """In the pair basis, zero every entry whose singlet pattern on ``labels`` is not ``bits``.

    ``amps`` is one joint vector or a contiguous (B, 4^m) stack of them.
    """
    for k, bit in zip(labels, bits):
        view = _pair_view(amps, m, k)
        if bit:
            view[:, 0] = 0.0
            view[:, 1, :, 1] = 0.0
        else:
            view[:, 1, :, 0] = 0.0


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


def _outcome_tables(amps: np.ndarray, amps_prime: np.ndarray, m: int, labels) -> np.ndarray:
    """Unchecked (B, 2^m') control-register laws of (B, 2^m) copy stacks.

    See ``exact_distribution``; m' is the number of tested labels.
    """
    size = 1 << len(labels)
    # Outcome index of each copy index: its tested bits, packed in label order.
    tested_bits = (np.arange(1 << m)[:, None] >> (m - 1 - np.array(labels, dtype=int))) & 1
    packed = tested_bits @ (1 << np.arange(len(labels))[::-1])
    # Packing commutes with bitwise logic, so pack(A & ~B) = pack(A) & ~pack(B).
    index = (packed[:, None] & ~packed[None, :]).reshape(-1)
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


def _zero_outcome_rows(amps: np.ndarray, amps_prime: np.ndarray, m: int, labels) -> np.ndarray:
    """Unchecked all-zero outcome probability of each row of (B, 2^m) copy stacks."""
    zeros = np.empty(len(amps))
    for rows, joint in _pair_basis_chunks(amps, amps_prime, m, labels):
        _keep_outcome(joint, m, labels, [0] * len(labels))
        zeros[rows] = [np.vdot(row, row).real for row in joint]
    return zeros


def _conditioned(psi: Statevector, psi_prime: Statevector, labels, bits):
    """Pair-basis joint vector kept to control outcome ``bits`` on ``labels``, and its norm^2."""
    amps = _pair_basis(psi.amplitudes, psi_prime.amplitudes, psi.n_qubits, labels)
    _keep_outcome(amps, psi.n_qubits, labels, bits)
    return amps, float(np.vdot(amps, amps).real)


def apply_controlled_projector(joint: JointState, qubit: int, z_bit: int) -> JointState:
    """Project the joint state on control outcome ``z_bit`` for one tested qubit."""
    m = joint.n_qubits_per_copy
    if not 0 <= qubit < m:
        raise ValidationError(f"qubit {qubit} out of range for {m} qubits per copy")
    if z_bit not in (0, 1):
        raise ValidationError(f"z_bit must be 0 or 1, got {z_bit}")
    amps = joint.amplitudes.copy()
    _pair_hadamard(amps, m, (qubit,))
    _keep_outcome(amps, m, (qubit,), (z_bit,))
    _pair_hadamard(amps, m, (qubit,))
    return JointState(m, amps)


def _require_tested_nonempty(tested: QubitSet) -> None:
    if tested.cardinality == 0:
        raise ValidationError("no tested qubits: the control register would be empty")


def _copy_stacks(states, states_prime, tested: QubitSet) -> tuple[StateStack, StateStack]:
    states, states_prime = StateStack.of(states), StateStack.of(states_prime)
    require_same_qubits(states, states_prime, tested)
    if len(states) != len(states_prime):
        raise ValidationError(f"{len(states)} states against {len(states_prime)} second copies")
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
    """Probability of one full-register control bitstring."""
    require_same_qubits(psi, psi_prime)
    _check_bitstring(z, psi.n_qubits)
    limits.require("two-copies", 2 * psi.n_qubits)
    return _conditioned(psi, psi_prime, range(psi.n_qubits), [int(bit) for bit in z])[1]


def zero_outcome_probability(
    psi: Statevector, psi_prime: Statevector, tested: QubitSet
) -> float:
    """Probability of the all-zero outcome of a SWAP test on ``tested`` only.

    This is ``zero_outcome_probabilities`` on one pair of copies.
    """
    require_same_qubits(psi, psi_prime, tested)
    limits.require("two-copies", 2 * psi.n_qubits)
    zeros = _zero_outcome_rows(
        psi.amplitudes[None], psi_prime.amplitudes[None], psi.n_qubits, tested.labels()
    )
    return float(zeros[0])


def zero_outcome_probabilities(states, states_prime, tested: QubitSet) -> np.ndarray:
    """All-zero outcome probability of a SWAP test on ``tested`` for each pair of copies.

    Entry b is ``zero_outcome_probability(states[b], states_prime[b], tested)``,
    bit for bit; the pair-basis steps run once per chunk of rows, as in
    ``exact_distributions``.
    """
    states, states_prime = _copy_stacks(states, states_prime, tested)
    return _zero_outcome_rows(
        states.amplitudes, states_prime.amplitudes, states.n_qubits, tested.labels()
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


def sample(
    psi: Statevector,
    psi_prime: Statevector,
    tested: QubitSet,
    shots: int,
    seed: int,
) -> ShotHistogram:
    """Sampled SWAP-test runs, one bit per tested qubit per shot.

    Each shot walks the tested qubits in ascending label order, drawing the
    control bit from the two projected-branch norms conditioned on the bits
    already fixed. Branch norms are precomputed once (they are shot
    independent); the per-shot randomness comes from a dedicated generator
    seeded with (seed, shot index), so histograms do not depend on how
    shots might be batched or threaded.
    """
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    dist = exact_distribution(psi, psi_prime, tested)
    m = tested.cardinality
    # masses[d][i] is the joint norm^2 after fixing the first d control bits to i.
    masses = [dist.probabilities]
    while len(masses[-1]) > 1:
        masses.append(masses[-1].reshape(-1, 2).sum(axis=1))
    masses.reverse()
    counts: dict[int, int] = {}
    for shot in range(shots):
        rng = np.random.default_rng((seed, shot))
        uniforms = rng.random(m)
        node = 0
        for depth in range(m):
            p_zero = masses[depth + 1][2 * node] / masses[depth][node]
            node = 2 * node + (0 if uniforms[depth] < p_zero else 1)
        counts[node] = counts.get(node, 0) + 1
    labelled = {format(i, f"0{m}b"): c for i, c in sorted(counts.items())}
    return ShotHistogram(tested, shots, labelled, seed)


def post_measurement(psi: Statevector, psi_prime: Statevector, z: str) -> MeasurementOutcome:
    """Normalized joint state after observing control bitstring ``z``, plus p(z).

    Wherever z has a 1, the corresponding pair of copy qubits lands in the
    singlet (|01> - |10>)/sqrt(2).
    """
    n = psi.n_qubits
    require_same_qubits(psi, psi_prime)
    _check_bitstring(z, n)
    limits.require("two-copies", 2 * n)
    amps, probability = _conditioned(psi, psi_prime, range(n), [int(bit) for bit in z])
    if probability <= 1e-12:
        raise ValidationError(f"outcome {z!r} has probability {probability}; cannot condition on it")
    _pair_hadamard(amps, n, range(n))
    amps /= np.sqrt(probability)
    return MeasurementOutcome(probability, JointState(n, amps))


def pair_marginal(joint: JointState, qubit: int) -> np.ndarray:
    """4x4 reduced density matrix of (copy-A qubit k, copy-B qubit k)."""
    m = joint.n_qubits_per_copy
    if not 0 <= qubit < m:
        raise ValidationError(f"qubit {qubit} out of range for {m} qubits per copy")
    norm = np.sqrt(joint.norm_squared)
    if norm <= 0.0:
        raise ValidationError("cannot take marginals of a zero vector")
    tensor = (joint.amplitudes / norm).reshape((2,) * (2 * m))
    tensor = np.moveaxis(tensor, (qubit, m + qubit), (0, 1))
    matrix = tensor.reshape(4, -1)
    return matrix @ matrix.conj().T


def singlet_fidelity(pair_density: np.ndarray) -> float:
    """Overlap of a two-qubit density matrix with the singlet state."""
    return float(np.vdot(SINGLET, pair_density @ SINGLET).real)


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
    except (KeyError, TypeError) as exc:
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
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed histogram record: {exc}") from exc
    return ShotHistogram(tested, shots, counts, seed)
