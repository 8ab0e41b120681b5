"""Slow, obviously-correct references and random local-operation generators.

Everything here materializes dense density matrices or expands full branch
trees; size caps keep it at test scale. Nothing in this module is an
optimization target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import ConsistencyError, ValidationError
from .states import QubitSet, Statevector, require_same_qubits
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
        completeness = self.m0.conj().T @ self.m0 + self.m1.conj().T @ self.m1
        if np.abs(completeness - np.eye(2)).max() > 1e-10:
            raise ValidationError("m0+ m0 + m1+ m1 deviates from the identity")


def _haar_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def random_local_kraus(seed: int, qubit: int) -> LocalKrausPair:
    """Random two-outcome Kraus pair, deterministic in the seed.

    m0 is a Gaussian matrix scaled by its largest singular value (so
    1 - m0+ m0 stays PSD); m1 is a Haar-random unitary times the PSD
    square root of the remainder, which makes the pair complete.
    """
    rng = np.random.default_rng(seed)
    gaussian = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m0 = gaussian / np.linalg.svd(gaussian, compute_uv=False)[0]
    remainder = np.eye(2) - m0.conj().T @ m0
    eigenvalues, vectors = np.linalg.eigh(remainder)
    root = vectors @ np.diag(np.sqrt(np.clip(eigenvalues, 0.0, None))) @ vectors.conj().T
    m1 = _haar_unitary_2x2(rng) @ root
    return LocalKrausPair(qubit, m0, m1)


def _apply_2x2(psi: Statevector, op: np.ndarray, qubit: int) -> np.ndarray:
    tensor = np.tensordot(op, psi.tensor(), axes=([1], [qubit]))
    return np.moveaxis(tensor, 0, qubit).reshape(-1)


def apply_local_kraus(psi: Statevector, k: LocalKrausPair) -> list[MeasurementOutcome]:
    """Both branches (p_j, psi_j) of the measurement; zero branches omitted."""
    if not 0 <= k.qubit < psi.n_qubits:
        raise ValidationError(f"qubit {k.qubit} out of range for n={psi.n_qubits}")
    outcomes = []
    total = 0.0
    for op in (k.m0, k.m1):
        branch = _apply_2x2(psi, op, k.qubit)
        probability = float(np.vdot(branch, branch).real)
        total += probability
        if probability < 1e-14:
            continue
        post = Statevector(psi.n_qubits, branch / np.sqrt(probability))
        outcomes.append(MeasurementOutcome(probability, post))
    if abs(total - 1.0) > 1e-10:
        raise ConsistencyError(f"branch probabilities sum to {total!r}")
    return outcomes


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
