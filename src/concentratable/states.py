"""n-qubit pure states as dense complex amplitude vectors.

Index convention, used everywhere in this package: qubit k (0-based)
occupies bit (n - 1 - k) of the amplitude index, so qubit 0 is the most
significant bit and basis state |q0 q1 ... q_{n-1}> sits at index
int("q0 q1 ... q_{n-1}", 2). Reshaping amplitudes to shape (2,)*n puts
qubit k on axis k.
``make_haar_random`` is row 0 of ``make_haar_random_stack``: as elsewhere
(bar the purity executor, see ``reductions``), one body per object.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import ValidationError

NORM_ATOL = 1e-10


def _frozen_amplitudes(values, n: int, stacked: bool = False) -> np.ndarray:
    """Read-only copy of one state's amplitudes, or of a (B, 2^n) stack's rows, each checked."""
    amps = np.asarray(values, dtype=np.complex128)
    size = amps.shape[-1] if amps.ndim else 0
    # The bit-length test comes first, so 1 << n is only built for a sane n.
    if amps.ndim != 1 + stacked or size.bit_length() != n + 1 or size != 1 << n or not amps.size:
        rows = "a nonempty stack of rows of " if stacked else ""
        raise ValidationError(f"expected {rows}2^{n} amplitudes, got shape {amps.shape}")
    if not np.isfinite(amps).all():
        raise ValidationError("amplitudes contain NaN or infinity")
    norms = np.linalg.norm(amps, axis=-1)
    deviation = np.abs(norms - 1.0)
    if (deviation > NORM_ATOL).any():
        worst = int(np.argmax(deviation))
        where = f"row {worst}: " if stacked else ""
        norm = float(np.ravel(norms)[worst])
        raise ValidationError(f"{where}state norm {norm!r} deviates from 1 by more than {NORM_ATOL}")
    amps = amps.copy()
    amps.setflags(write=False)
    return amps


@dataclass(frozen=True)
class Statevector:
    """Normalized amplitude vector of an n-qubit pure state. Immutable."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {self.n_qubits}")
        object.__setattr__(self, "amplitudes", _frozen_amplitudes(self.amplitudes, self.n_qubits))

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def tensor(self) -> np.ndarray:
        """View of the amplitudes with shape (2,)*n; axis k is qubit k."""
        return self.amplitudes.reshape((2,) * self.n_qubits)


@dataclass(frozen=True)
class StateStack:
    """B normalized n-qubit states as one read-only (B, 2^n) array; row b is state b.

    Every row passes the checks of ``Statevector``. The batched kernels
    (``purity_arrays``, ``exact_distributions``, ``apply_local_kraus_stack``)
    take a stack and run each numpy step once for all of its rows.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {self.n_qubits}")
        amps = _frozen_amplitudes(self.amplitudes, self.n_qubits, stacked=True)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def of(cls, states: "StateStack | Sequence[Statevector]") -> "StateStack":
        """The stack of one or more states over the same qubits, in the given order.

        A ``StateStack`` is returned as it is.
        """
        if isinstance(states, StateStack):
            return states
        if not states:
            raise ValidationError("need at least one state")
        require_same_qubits(*states)
        return cls(states[0].n_qubits, np.stack([psi.amplitudes for psi in states]))

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __getitem__(self, row: int) -> Statevector:
        return Statevector(self.n_qubits, self.amplitudes[row])


@dataclass(frozen=True)
class QubitSet:
    """Subset of the qubit labels {0, ..., n-1}, stored as a bitmask.

    Bit k of ``mask`` is set iff qubit k belongs to the subset. Note the
    mask is over labels, not over amplitude-index bit positions.
    """

    n_qubits: int
    mask: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if not 0 <= self.mask < (1 << self.n_qubits):
            raise ValidationError(
                f"mask {self.mask:#b} out of range for {self.n_qubits} qubits"
            )

    @classmethod
    def from_labels(cls, n_qubits: int, labels: Iterable[int]) -> "QubitSet":
        mask = 0
        for label in labels:
            if not 0 <= label < n_qubits:
                raise ValidationError(f"qubit label {label} out of range for n={n_qubits}")
            mask |= 1 << label
        return cls(n_qubits, mask)

    @classmethod
    def full(cls, n_qubits: int) -> "QubitSet":
        return cls(n_qubits, (1 << n_qubits) - 1)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def labels(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.n_qubits) if self.mask >> k & 1)

    def complement(self) -> "QubitSet":
        return QubitSet(self.n_qubits, self.mask ^ ((1 << self.n_qubits) - 1))

    def __contains__(self, label: int) -> bool:
        return 0 <= label < self.n_qubits and bool(self.mask >> label & 1)


def require_same_qubits(psi: Statevector, *others) -> None:
    """Raise ValidationError unless every qubit set or state in ``others`` is over psi's qubits."""
    for other in others:
        if other.n_qubits != psi.n_qubits:
            what = "subset" if isinstance(other, QubitSet) else "second state"
            raise ValidationError(
                f"{what} is over {other.n_qubits} qubits, state has {psi.n_qubits}"
            )


def paired_stacks(states, states_prime, *others) -> tuple[StateStack, StateStack]:
    """Two stacks (or sequences of states) as ``StateStack``s of equal length
    over the same qubits, which every qubit set in ``others`` must also be over.
    """
    states, states_prime = StateStack.of(states), StateStack.of(states_prime)
    require_same_qubits(states, states_prime, *others)
    if len(states) != len(states_prime):
        raise ValidationError(f"{len(states)} states against {len(states_prime)} second copies")
    return states, states_prime


def make_product(single_qubit_states: Sequence[tuple[complex, complex]]) -> Statevector:
    """Tensor product of single-qubit states, each given as (amp0, amp1)."""
    if not single_qubit_states:
        raise ValidationError("need at least one single-qubit factor")
    amps = np.ones(1, dtype=np.complex128)
    for j, pair in enumerate(single_qubit_states):
        factor = np.asarray(pair, dtype=np.complex128)
        if factor.shape != (2,):
            raise ValidationError(f"factor {j} is not a single-qubit pair")
        if abs(np.linalg.norm(factor) - 1.0) > NORM_ATOL:
            raise ValidationError(f"factor {j} is not normalized")
        amps = np.kron(amps, factor)
    return Statevector(len(single_qubit_states), amps)


def make_ghz(n: int) -> Statevector:
    """(|0...0> + |1...1>)/sqrt(2); for n=1 this is |+>."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    limits.require("state", n)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return Statevector(n, amps)


def make_w(n: int) -> Statevector:
    """Equal superposition of the n basis states with a single 1 bit."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    limits.require("state", n)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[[1 << k for k in range(n)]] = 1.0 / np.sqrt(n)
    return Statevector(n, amps)


def make_haar_random(n: int, seed: int) -> Statevector:
    """Haar-random pure state: normalized i.i.d. complex Gaussian vector.

    The real parts are the first 2^n standard normals of
    ``np.random.default_rng(seed)`` and the imaginary parts the next 2^n.
    This is row 0 of ``make_haar_random_stack``.
    """
    return make_haar_random_stack(n, [seed])[0]


def make_haar_random_stack(n: int, seeds: Sequence[int]) -> StateStack:
    """Haar-random states as a stack: row b is ``make_haar_random(n, seeds[b])``.

    Each row keeps its own seed's stream, so a state does not depend on
    which other seeds share its stack. Only the generator seeding and the
    draw run once per row; the complex rows, the norms and the checks run
    once for the stack.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    limits.require("state", n)
    draws = np.empty((len(seeds), 2, 1 << n))
    for row, seed in zip(draws, seeds):
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
        np.random.default_rng(seed).standard_normal(out=row)
    amps = draws[:, 0] + 1j * draws[:, 1]
    return StateStack(n, amps / np.linalg.norm(amps, axis=-1, keepdims=True))


def make_graph_state(adjacency) -> Statevector:
    """Graph state of a simple undirected graph: a CZ on every edge of |+>^n.

    ``adjacency`` is a symmetric n x n matrix of 0s and 1s with a zero
    diagonal; entry (a, b) = 1 joins qubits a and b. The amplitude of basis
    state x is (-1)^e(x) / 2^(n/2), e(x) being the number of edges with both
    ends 1 in x. For a subset A, Tr rho_A^2 = 2^-rank(Gamma[A, complement])
    with the rank over GF(2) (Hein, Eisert and Briegel, PRA 69, 062311, 2004).
    """
    gamma = np.asarray(adjacency)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1] or gamma.shape[0] < 1:
        raise ValidationError(f"adjacency must be a nonempty square matrix, got shape {gamma.shape}")
    n = gamma.shape[0]
    limits.require("state", n)
    if not np.isin(gamma, (0, 1)).all():
        raise ValidationError("adjacency entries must be 0 or 1")
    if (gamma != gamma.T).any():
        raise ValidationError("adjacency is not symmetric")
    if np.diagonal(gamma).any():
        raise ValidationError("adjacency has a self-loop (nonzero diagonal)")
    signs = np.ones(1)
    for k in range(1, n + 1):
        # Qubit k-1 joins as the new lowest index bit; qubit j < k-1 is bit k-2-j of the old index.
        neighbours = sum(1 << (k - 2 - j) for j in range(k - 1) if gamma[k - 1, j])
        flips = np.bitwise_count(np.arange(1 << (k - 1)) & neighbours) & 1
        signs = np.stack([signs, signs * (1.0 - 2.0 * flips)], axis=-1).reshape(-1)
    return Statevector(n, signs / 2.0 ** (n / 2))


def inner_product(a: Statevector, b: Statevector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    require_same_qubits(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def trace_distance_pure(a: Statevector, b: Statevector) -> float:
    """Trace distance between pure states: sqrt(1 - |<a|b>|^2)."""
    overlap = abs(inner_product(a, b))
    return float(np.sqrt(max(0.0, 1.0 - overlap * overlap)))


def perturb(psi: Statevector, epsilon: float) -> Statevector:
    """Deterministic nearby state at trace distance exactly epsilon.

    Mixes psi with the normalized component of |0...0> orthogonal to psi:
    psi' = delta*psi + sqrt(1-delta^2)*u with delta = sqrt(1-eps^2), so
    <psi|psi'> = delta and the trace distance comes out to epsilon.
    Fails when psi is |0...0> up to phase (the orthogonal component vanishes).
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon}")
    c0 = psi.amplitudes[0]
    if abs(c0) >= 1.0 - 1e-12:
        raise ValidationError("psi is |0...0> up to phase; the projected |0> vanishes")
    residual = -np.conj(c0) * psi.amplitudes
    residual[0] += 1.0
    residual /= np.linalg.norm(residual)
    delta = np.sqrt(max(0.0, 1.0 - epsilon * epsilon))
    amps = delta * psi.amplitudes + np.sqrt(1.0 - delta * delta) * residual
    return Statevector(psi.n_qubits, amps / np.linalg.norm(amps))


def permute_qubits(psi: Statevector, permutation: Sequence[int]) -> Statevector:
    """Relabel qubits: qubit k of the input becomes qubit permutation[k]."""
    n = psi.n_qubits
    if sorted(permutation) != list(range(n)):
        raise ValidationError(f"not a permutation of 0..{n - 1}: {permutation}")
    order = [0] * n
    for k, target in enumerate(permutation):
        order[target] = k
    return Statevector(n, np.transpose(psi.tensor(), order).reshape(-1))


def statevector_to_dict(psi: Statevector) -> dict:
    """JSON form: {"n": int, "amplitudes": [[re, im], ...]} in index order."""
    return {
        "n": psi.n_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }


def statevector_from_dict(data: dict) -> Statevector:
    try:
        n = int(data["n"])
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]], dtype=np.complex128)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed state record: {exc}") from exc
    return Statevector(n, amps)
