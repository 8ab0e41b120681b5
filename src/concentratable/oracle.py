"""Slow, obviously-correct references and random local-operation generators.

The references materialize dense density matrices or expand full branch
trees; size caps keep them at test scale, and they are not optimization
targets. The random local operations come in stacks for ``verify``:
``random_local_kraus_stack`` seeds many seeds' generators in one pass
(``states._generators``) and builds their Kraus pairs with batched
``np.linalg`` calls, and ``apply_local_kraus_stack`` applies them to a
``StateStack``; ``random_local_kraus`` and ``apply_local_kraus`` are their
row 0, as elsewhere (a purity plan may run gathered or, for one state,
by a program, each bit-identical to its per-node walk; see
``reductions``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import ConsistencyError, ValidationError
from .states import (
    QubitSet,
    StateStack,
    Statevector,
    _generators,
    _wrap_checked,
    require_same_qubits,
)
from .swaptest import MeasurementOutcome


@dataclass(frozen=True)
class DensityMatrix:
    """Validated dense density matrix (Hermitian, unit trace, PSD)."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        dim = 1 << self.n_qubits
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.shape != (dim, dim):
            raise ValidationError(f"expected {dim}x{dim} matrix, got {entries.shape}")
        if np.abs(entries - entries.conj().T).max() > 1e-10:
            raise ValidationError("matrix is not Hermitian")
        if abs(np.trace(entries).real - 1.0) > 1e-10:
            raise ValidationError(f"trace is {np.trace(entries)!r}, expected 1")
        if float(np.linalg.eigvalsh(entries).min()) < -1e-9:
            raise ValidationError("matrix has a significantly negative eigenvalue")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def density_matrix(psi: Statevector) -> DensityMatrix:
    """|psi><psi| as a dense matrix."""
    return DensityMatrix(psi.n_qubits, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def _partial_trace(rho: np.ndarray, n: int, keep_labels: tuple[int, ...]) -> np.ndarray:
    """Trace out, one qubit at a time, everything not in keep_labels."""
    tensor = rho.reshape((2,) * (2 * n))
    remaining = list(range(n))
    for label in range(n):
        if label in keep_labels:
            continue
        pos = remaining.index(label)
        tensor = np.trace(tensor, axis1=pos, axis2=len(remaining) + pos)
        remaining.remove(label)
    dim = 1 << len(remaining)
    return tensor.reshape(dim, dim)


def reduced_density_matrix(psi: Statevector, alpha: QubitSet) -> DensityMatrix:
    """Reduced state on the qubits in alpha, by dense partial trace."""
    require_same_qubits(psi, alpha)
    limits.require("dense", psi.n_qubits)
    if alpha.cardinality == 0:
        raise ValidationError("reduced state on the empty set is the scalar 1")
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(alpha.cardinality, _partial_trace(rho, psi.n_qubits, alpha.labels()))


def dense_reduced_purity(psi: Statevector, alpha: QubitSet) -> float:
    """Tr[rho_alpha^2] by materializing the full density matrix. Reference only."""
    require_same_qubits(psi, alpha)
    limits.require("dense", psi.n_qubits)
    if alpha.cardinality == 0:
        return 1.0
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    reduced = _partial_trace(rho, psi.n_qubits, alpha.labels())
    return float(np.trace(reduced @ reduced).real)


def _require_complete(ops: np.ndarray) -> None:
    """Raise unless m0+ m0 + m1+ m1 = 1 to 1e-10 for each (..., 2, 2, 2) pair [m0, m1]."""
    completeness = np.einsum("...kji,...kjl->...il", ops.conj(), ops)
    if np.abs(completeness - np.eye(2)).max() > 1e-10:
        raise ValidationError("m0+ m0 + m1+ m1 deviates from the identity")


@dataclass(frozen=True)
class LocalKrausPair:
    """Two-outcome generalized measurement {m0, m1} on one qubit."""

    qubit: int
    m0: np.ndarray
    m1: np.ndarray

    def __post_init__(self):
        for name, op in (("m0", self.m0), ("m1", self.m1)):
            op = np.asarray(op, dtype=np.complex128)
            if op.shape != (2, 2):
                raise ValidationError(f"{name} must be 2x2, got {op.shape}")
            op = op.copy()
            op.setflags(write=False)
            object.__setattr__(self, name, op)
        _require_complete(np.stack([self.m0, self.m1]))


def random_local_kraus(seed: int, qubit: int) -> LocalKrausPair:
    """Random two-outcome Kraus pair, deterministic in the seed.

    m0 is a Gaussian matrix scaled by its largest singular value (so
    1 - m0+ m0 stays PSD); m1 is a Haar-random unitary times the PSD
    square root of the remainder, which makes the pair complete.

    Stream contract: the pair reads the first 16 standard normals of
    ``np.random.default_rng(seed)``, as four 2x2 blocks in row-major order:
    the real and imaginary parts of m0's Gaussian, then those of the
    unitary's Gaussian. This is entry 0 of ``random_local_kraus_stack``.
    """
    m0, m1 = random_local_kraus_stack([seed])[0]
    return LocalKrausPair(qubit, m0, m1)


def random_local_kraus_stack(seeds) -> np.ndarray:
    """Kraus pairs for many seeds: entry [b, j] is m_j of ``random_local_kraus(seeds[b], .)``.

    Each seed gets a generator in the state of its own ``default_rng``, all
    of them seeded in one pass (``states._generators``), and one draw of the
    16 normals that ``random_local_kraus`` reads; the SVD, eigh and QR then run
    batched over the (B, 2, 2) stacks. Returns a read-only (B, 2, 2, 2)
    array whose pairs are each complete to 1e-10, like ``LocalKrausPair``.
    The qubit is chosen when the pairs are applied
    (``apply_local_kraus_stack``).
    """
    draws = np.empty((len(seeds), 4, 2, 2))
    for row, rng in zip(draws, _generators(seeds)):
        rng.standard_normal(out=row)
    gaussian = draws[:, 0] + 1j * draws[:, 1]
    m0 = gaussian / np.linalg.svd(gaussian, compute_uv=False)[:, :1, None]
    remainder = np.eye(2) - m0.conj().swapaxes(-1, -2) @ m0
    eigenvalues, vectors = np.linalg.eigh(remainder)
    roots = np.sqrt(np.clip(eigenvalues, 0.0, None))
    root = (vectors * roots[:, None, :]) @ vectors.conj().swapaxes(-1, -2)
    # Haar unitary: QR of a complex Gaussian, with R's diagonal phases moved into Q.
    q, r = np.linalg.qr((draws[:, 2] + 1j * draws[:, 3]) / np.sqrt(2.0))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    m1 = (q * (phases / np.abs(phases))[:, None, :]) @ root
    ops = np.stack([m0, m1], axis=1)
    _require_complete(ops)
    ops.setflags(write=False)
    return ops


def _branches(amps: np.ndarray, ops: np.ndarray, qubits: np.ndarray, n: int):
    """Branch probabilities (B, 2) and normalized branches (B, 2, 2^n) of each row's pair.

    Row b applies ops[b] to qubit qubits[b] of amps[b]; the rows on one
    qubit take one ``einsum``. A branch below 1e-14 gets probability 0 and
    the input row as its post-state, so every row of the result is a state.
    """
    branches = np.empty((len(amps), 2, 1 << n), dtype=np.complex128)
    for qubit in sorted(set(qubits.tolist())):
        rows = np.flatnonzero(qubits == qubit)
        # Axis 2 of the view is the qubit's bit, n-1-qubit of the amplitude index.
        view = amps[rows].reshape(len(rows), 1 << qubit, 2, -1)
        out = np.einsum("bkij,bhjl->bkhil", ops[rows], view)
        branches[rows] = out.reshape(len(rows), 2, -1)
    probabilities = np.vecdot(branches, branches).real
    totals = probabilities.sum(axis=1)
    broken = np.abs(totals - 1.0) > 1e-10
    if broken.any():
        raise ConsistencyError(f"branch probabilities sum to {float(totals[broken][0])!r}")
    dropped = probabilities < 1e-14
    probabilities[dropped] = 0.0
    branches /= np.sqrt(np.where(dropped, 1.0, probabilities))[..., None]
    branches[dropped] = np.broadcast_to(amps[:, None], branches.shape)[dropped]
    return probabilities, branches


def _check_qubits(qubits, n: int, count: int) -> np.ndarray:
    """``count`` qubit labels in range(n), from one label or one per row."""
    qubits = np.asarray(qubits, dtype=np.int64)
    if qubits.ndim == 0:
        qubits = np.full(count, qubits)
    if qubits.shape != (count,):
        raise ValidationError(f"expected {count} qubits, got shape {qubits.shape}")
    bad = (qubits < 0) | (qubits >= n)
    if bad.any():
        raise ValidationError(f"qubit {int(qubits[bad][0])} out of range for n={n}")
    return qubits


def apply_local_kraus(psi: Statevector, k: LocalKrausPair) -> list[MeasurementOutcome]:
    """Both branches (p_j, psi_j) of the measurement; zero branches omitted.

    This is row 0 of ``apply_local_kraus_stack``.
    """
    ops = np.stack([k.m0, k.m1])[None]
    probabilities, posts = apply_local_kraus_stack(StateStack.of([psi]), ops, k.qubit)
    return [
        MeasurementOutcome(float(p), posts[j]) for j, p in enumerate(probabilities[0]) if p > 0.0
    ]


def apply_local_kraus_stack(states: StateStack, ops: np.ndarray, qubits):
    """Both branches of a local measurement on each state of a stack.

    Row b applies the pair ops[b] = [m0, m1] (as from
    ``random_local_kraus_stack``) to qubit qubits[b] of states[b] (one
    ``qubits`` label serves every row); one numpy step serves each group
    of rows on the same qubit. Returns
    (probabilities, posts): a (B, 2) array, and a ``StateStack`` whose row
    2b + j is the normalized branch j of state b. A ``ConsistencyError``
    names a state whose branch probabilities do not sum to 1 within 1e-10,
    and a branch below 1e-14 is dropped: its probability reads 0 and its
    post-state row holds the input state, so weighting by the probabilities
    ignores it (``apply_local_kraus`` omits it).
    """
    n = states.n_qubits
    ops = np.asarray(ops, dtype=np.complex128)
    if ops.shape != (len(states), 2, 2, 2):
        raise ValidationError(
            f"expected {len(states)} Kraus pairs of shape (2, 2, 2), got {ops.shape}"
        )
    _require_complete(ops)
    qubits = _check_qubits(qubits, n, len(states))
    probabilities, branches = _branches(states.amplitudes, ops, qubits, n)
    return probabilities, _wrap_checked(StateStack, n, branches.reshape(-1, 1 << n))


def apply_separable_sequence(
    psi: Statevector, kraus_list: list[LocalKrausPair]
) -> list[MeasurementOutcome]:
    """Full branch tree of a sequence of local operations.

    Returns one outcome per surviving branch string, with the product
    probability; probabilities sum to 1 up to dropped sub-1e-14 branches.
    """
    branches = [MeasurementOutcome(1.0, psi)]
    for k in kraus_list:
        expanded = []
        for branch in branches:
            for outcome in apply_local_kraus(branch.post_state, k):
                expanded.append(
                    MeasurementOutcome(
                        branch.probability * outcome.probability, outcome.post_state
                    )
                )
        limits.require("branches", len(expanded))
        branches = expanded
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > 1e-9:
        raise ConsistencyError(f"branch probabilities sum to {total!r}")
    return branches
