"""n-qubit pure states as dense complex amplitude vectors.

Index convention, used everywhere in this package: qubit k (0-based)
occupies bit (n - 1 - k) of the amplitude index, so qubit 0 is the most
significant bit and basis state |q0 q1 ... q_{n-1}> sits at index
int("q0 q1 ... q_{n-1}", 2). Reshaping amplitudes to shape (2,)*n puts
qubit k on axis k.
``make_haar_random`` is row 0 of ``make_haar_random_stack``: as elsewhere,
one body per object. (A purity plan may also run gathered or, for one
state, by a program, each bit-identical to its per-node walk; see
``reductions``.) The seeded stacks, the Haar stack here and
``oracle.random_local_kraus_stack``, take their rows' generators from
``_generators``, which hashes all of a stack's seeds in one vectorized
pass; row b still reads the stream of ``np.random.default_rng(seeds[b])``.

Amplitudes from outside are checked once, when a ``Statevector`` or
``StateStack`` is built. A builder wraps the rows it normalized itself
(``_wrap_checked``) and does not check them again: the Haar stack, the
perturbed stack and ``oracle.apply_local_kraus_stack``'s post-states are
finite, unit-norm rows by construction.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields

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


def _wrap_checked(cls, n: int, amplitudes: np.ndarray):
    """``cls(n, amplitudes)`` for a frozen state class, without its ``__post_init__``.

    Only for amplitudes that already passed that class's checks: rows of a
    checked stack, checked states or stacks stacked, post-states whose
    norms ``post_measurements`` bounded, and finite rows a builder divided
    by their own norms itself. They are made read-only here.
    """
    amplitudes.setflags(write=False)
    wrapped = object.__new__(cls)
    for field, value in zip(fields(cls), (n, amplitudes)):
        object.__setattr__(wrapped, field.name, value)
    return wrapped


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

    Every row passes the checks of ``Statevector``, once: a row is a
    read-only view of the stack, and a stack of ``Statevector``s is not
    checked again. The batched kernels
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
        if not all(isinstance(psi, Statevector) for psi in states):
            raise ValidationError("a stack is built from Statevectors")
        require_same_qubits(*states)
        return _wrap_checked(cls, states[0].n_qubits, np.stack([psi.amplitudes for psi in states]))

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __getitem__(self, row: int) -> Statevector:
        try:
            row = operator.index(row)
        except TypeError:
            raise ValidationError(f"a stack row index must be an integer, got {row!r}") from None
        return _wrap_checked(Statevector, self.n_qubits, self.amplitudes[row])


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


def join_stacks(*stacks: StateStack) -> StateStack:
    """The rows of checked stacks over the same qubits, one stack after another.

    The rows passed their checks when each stack was built, so they are not
    checked again.
    """
    if not stacks or not all(isinstance(stack, StateStack) for stack in stacks):
        raise ValidationError("join_stacks takes one or more StateStacks")
    require_same_qubits(*stacks)
    amps = np.concatenate([stack.amplitudes for stack in stacks])
    return _wrap_checked(StateStack, stacks[0].n_qubits, amps)


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


# numpy's ``SeedSequence.generate_state`` hash: output word i mixes pool word
# i % 4 with the running constant h_i, h_0 = _HASH_INIT, h_(i+1) = h_i * _HASH_MULT
# mod 2^32, as ((pool ^ h_i) * h_(i+1)) ^ (that >> 16). PCG64 takes the first
# eight words, read little-endian as four uint64: its state, then its increment.
_HASH_INIT, _HASH_MULT = 0x8B51F9DD, 0x58F38DED
_HASH_XOR = np.array([_HASH_INIT * _HASH_MULT**i % 2**32 for i in range(8)], np.uint32).reshape(2, 4)
_HASH_TIMES = np.array([_HASH_INIT * _HASH_MULT**i % 2**32 for i in range(1, 9)], np.uint32).reshape(2, 4)
_LITTLE_WORD, _LITTLE_PAIR, _PAIR = np.dtype("<u4"), np.dtype("<u8"), np.dtype(np.uint64)


@functools.cache
def _seed_words():
    """The ``ISeedSequence`` that hands each new PCG64 the next row of precomputed words.

    Every generator of one ``_generators`` call keeps the one instance as its
    ``seed_seq``, so none of them can spawn. Built on first use, so importing
    the package does not load ``numpy.random``.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, rows):
            self._rows = iter(rows)

        def generate_state(self, n_words, dtype=np.uint32):
            return next(self._rows)

    return SeedWords


def _generators(seeds: Sequence[int]) -> list[np.random.Generator]:
    """One Generator per seed, each in the state ``np.random.default_rng(seed)`` starts in.

    numpy mixes each seed's entropy itself (``SeedSequence(seed).pool``), so
    a seed of any size is read, and a bad one refused, as ``default_rng``
    does. The hash that turns a pool into PCG64's seed words, which
    ``default_rng`` runs as a Python loop over numpy scalars, runs here once
    for all rows. Each generator's words are one contiguous uint64 row,
    since PCG64 reads the buffer directly.
    """
    words = np.array([np.random.SeedSequence(seed).pool for seed in seeds], np.uint32)
    words = words.reshape(-1, 1, 4) ^ _HASH_XOR
    words *= _HASH_TIMES
    words ^= words >> 16
    words = words.reshape(-1, 8).astype(_LITTLE_WORD, copy=False)
    rows = _seed_words()(words.view(_LITTLE_PAIR).astype(_PAIR, copy=False))
    return [np.random.Generator(np.random.PCG64(rows)) for _ in range(len(words))]


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
    which other seeds share its stack. The seeds are hashed once for the
    stack (``_generators``); only building each row's generator and its
    draw run once per row. The complex rows and the norms run once for the
    stack, and the rows, normalized here, are wrapped without a second check.
    The norms are ``np.linalg.norm(..., axis=-1)``, not ``_norms``, which
    differs in the last bit on some rows (see ``_norms``).
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    for seed in seeds:
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
    limits.require("state", n)
    if not len(seeds):
        raise ValidationError(
            f"expected a nonempty stack of rows of 2^{n} amplitudes, got shape (0, {1 << n})"
        )
    draws = np.empty((len(seeds), 2, 1 << n))
    for row, rng in zip(draws, _generators(seeds)):
        rng.standard_normal(out=row)
    amps = draws[:, 0] + 1j * draws[:, 1]
    return _wrap_checked(StateStack, n, amps / np.linalg.norm(amps, axis=-1, keepdims=True))


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
    if not np.isin(gamma, (0, 1)).all():
        raise ValidationError("adjacency entries must be 0 or 1")
    if (gamma != gamma.T).any():
        raise ValidationError("adjacency is not symmetric")
    if np.diagonal(gamma).any():
        raise ValidationError("adjacency has a self-loop (nonzero diagonal)")
    limits.require("state", n)
    signs = np.ones(1)
    for k in range(1, n + 1):
        # Qubit k-1 joins as the new lowest index bit; qubit j < k-1 is bit k-2-j of the old index.
        neighbours = sum(1 << (k - 2 - j) for j in range(k - 1) if gamma[k - 1, j])
        flips = np.bitwise_count(np.arange(1 << (k - 1)) & neighbours) & 1
        signs = np.stack([signs, signs * (1.0 - 2.0 * flips)], axis=-1).reshape(-1)
    return Statevector(n, signs / 2.0 ** (n / 2))


def _row(b: int, rows: int) -> str:
    """Error-message prefix naming row ``b`` of ``rows`` rows; empty for one row."""
    return f"row {b}: " if rows > 1 else ""


def _norms(rows: np.ndarray) -> np.ndarray:
    """Each complex row's 2-norm as a column, bit-identical to ``np.linalg.norm`` of the row.

    That holds for ``np.linalg.norm`` of one 1-D row, not for
    ``np.linalg.norm(rows, axis=-1)``, which sums in another order and
    differs in the last bit on 16-32% of Gaussian rows at n = 1..8 (1,000
    rows each); the Haar stack divides by the latter, so swapping the two
    would move every such state.
    """
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))[:, None]


def trace_distance_pure(a: Statevector, b: Statevector) -> float:
    """Trace distance between pure states: sqrt(1 - |<a|b>|^2).

    This is row 0 of ``trace_distances_pure``.
    """
    return float(trace_distances_pure([a], [b])[0])


def trace_distances_pure(states, states_prime) -> np.ndarray:
    """``trace_distance_pure`` of each pair of rows of two stacks (or sequences of states).

    sqrt(1 - |<a|b>|^2) is the norm of b - <a|b> a, the part of b orthogonal
    to a; reading that norm keeps a distance of 1e-12 to about 1e-16, where
    1 - |<a|b>|^2 would round it to 0 below about 1e-8. The smaller of the
    two one-sided norms is symmetric to the last bit, and it reads no
    distance between a row and a longer copy of it.
    """
    states, states_prime = paired_stacks(states, states_prime)
    a, b = states.amplitudes, states_prime.amplitudes
    overlaps = np.vecdot(a, b)[:, None]
    return np.minimum(_norms(b - overlaps * a), _norms(a - overlaps.conj() * b))[:, 0]


def perturb(psi: Statevector, epsilon: float) -> Statevector:
    """Deterministic nearby state at trace distance epsilon.

    Mixes psi with the normalized component u of |0...0> orthogonal to psi:
    psi' = sqrt(1 - eps^2) psi + eps u, so the part of psi' orthogonal to
    psi has norm eps and the trace distance comes out to epsilon, to about
    1e-16 for any epsilon in (0, 1].
    Fails when psi is |0...0> up to phase (the orthogonal component vanishes).
    This is row 0 of ``perturb_stack``.
    """
    return perturb_stack([psi], epsilon)[0]


def perturb_stack(states, epsilons) -> StateStack:
    """``perturb`` of each row of a stack (or sequence of states): row b is
    states[b] moved to trace distance epsilons[b]; one epsilon serves every row.

    Every epsilon is checked before any state: an epsilon outside (0, 1]
    (NaN included), then a row that is |0...0> up to phase, raises a
    ``ValidationError`` naming its row when there is more than one.
    """
    states = StateStack.of(states)
    amps, rows = states.amplitudes, len(states)
    eps = np.asarray(epsilons, dtype=np.float64)
    if eps.ndim and eps.shape != (rows,):
        raise ValidationError(f"expected one epsilon or {rows}, got shape {eps.shape}")
    bad = ~((eps > 0.0) & (eps <= 1.0))
    if bad.any():
        b = int(np.argmax(bad))
        where = _row(b, rows) if eps.ndim else ""
        raise ValidationError(f"{where}epsilon must lie in (0, 1], got {float(eps.flat[b])}")
    c0 = amps[:, 0]
    vanishing = np.abs(c0) >= 1.0 - 1e-12
    if vanishing.any():
        b = int(np.argmax(vanishing))
        raise ValidationError(
            f"{_row(b, rows)}psi is |0...0> up to phase; the projected |0> vanishes"
        )
    residual = -np.conj(c0)[:, None] * amps
    residual[:, 0] += 1.0
    residual /= _norms(residual)
    eps = eps[..., None]
    mixed = np.sqrt(1.0 - eps * eps) * amps + eps * residual
    return _wrap_checked(StateStack, states.n_qubits, mixed / _norms(mixed))


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
        if isinstance(data["n"], bool) or isinstance(data["n"], float) and n != data["n"]:
            raise ValueError(f"n must be a whole number, got {data['n']!r}")
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]], dtype=np.complex128)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed state record: {exc}") from exc
    return Statevector(n, amps)
