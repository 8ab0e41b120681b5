"""Reduced-state purities Tr[rho_alpha^2] for subsets of a pure state.

Instead of materializing density matrices, amplitudes are gathered into a
2^|alpha| x 2^(n-|alpha|) matrix M; then rho_alpha = M M^dag and the purity
is the squared Frobenius norm of that Gram matrix. For |alpha| > n/2 the
complement subset is used instead, which is valid for pure states because
a reduced state and its complement share a spectrum.

``purity`` answers one cut. ``purity_table`` and ``purity_array`` answer
every subset of a set s at once with a partial-trace tree: each needed
cut is taken on its smaller side, the needed sets are walked from the
largest down, a set not yet known pays one O(2^(n+k)) Gram product for
its k qubits, and each needed subset of it follows from its parent's rho
by one partial trace. No 4^n array is built; memory is one rho per depth
plus the result. On a 2-vCPU x86 host with BLAS on one thread,
``purity_array`` took 5.6 ms at n=10 and 50 ms at n=12, against 21 ms and
210 ms with one Gram product per subset, and peaked at 0.73 MB under
tracemalloc at n=12.

``purity_arrays`` walks the same tree for a (B, 2^n) stack of states of
one n: the tree has a leading batch axis, so each Gram product, partial
trace and purity is one numpy call for all B states. One state keeps the
2-D BLAS product and ``np.vdot``, so the single-state functions cost what
they did. On the same host a stack of B = 10..40 states took 4-12x less
time than one ``purity_array`` call per state at n = 2..7, with equal
values.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import ValidationError
from .states import QubitSet, Statevector, require_same_qubits


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, in standard descending enumeration order."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def subsets_of(s: QubitSet) -> Iterator[QubitSet]:
    """All 2^c(s) subsets of s, each exactly once (descending-mask order)."""
    for sub in submasks(s.mask):
        yield QubitSet(s.n_qubits, sub)


def _gather_matrix(amps: np.ndarray, n: int, labels) -> np.ndarray:
    """Amplitudes reshaped so rows index the qubits in ``labels``.

    ``amps`` is one state's 2^n amplitudes, or a (B, 2^n) stack that gives a
    (B, 2^k, 2^(n-k)) stack of matrices.
    """
    rest = [k for k in range(n) if k not in labels]
    axes = list(labels) + rest
    lead = amps.shape[:-1]
    if lead:
        axes = [0] + [1 + k for k in axes]
    tensor = amps.reshape(lead + (2,) * n).transpose(axes)
    return tensor.reshape(lead + (1 << len(labels), -1))


def purity(psi: Statevector, alpha: QubitSet) -> float:
    """Tr[rho_alpha^2] of the reduced state on the qubits in alpha.

    alpha = empty set returns exactly 1.0 (the scalar convention).
    """
    require_same_qubits(psi, alpha)
    if alpha.mask == 0:
        return 1.0
    if 2 * alpha.cardinality > psi.n_qubits:
        alpha = alpha.complement()
    matrix = _gather_matrix(psi.amplitudes, psi.n_qubits, alpha.labels())
    gram = matrix @ matrix.conj().T
    return float(np.vdot(gram, gram).real)


def cross_purity(psi: Statevector, psi_prime: Statevector, alpha: QubitSet) -> float:
    """Tr[rho_alpha rho'_alpha] for reduced states of two (possibly different) states.

    No complement shortcut here: for distinct states the two sides of a cut
    carry different overlaps.
    """
    require_same_qubits(psi, psi_prime, alpha)
    if alpha.mask == 0:
        return 1.0
    labels = alpha.labels()
    m1 = _gather_matrix(psi.amplitudes, psi.n_qubits, labels)
    m2 = _gather_matrix(psi_prime.amplitudes, psi.n_qubits, labels)
    if 2 * len(labels) <= psi.n_qubits:
        r1 = m1 @ m1.conj().T
        r2 = m2 @ m2.conj().T
        return float(np.vdot(r2, r1).real)
    # Tr[M1 M1+ M2 M2+] = ||M1+ M2||_F^2, cheaper on the complement side.
    overlap = m1.conj().T @ m2
    return float(np.vdot(overlap, overlap).real)


@dataclass(frozen=True)
class PurityTable:
    """Purities Tr[rho_alpha^2] for every subset alpha of some base set."""

    n_qubits: int
    values: dict[int, float]

    def __getitem__(self, mask: int) -> float:
        return self.values[mask]

    def to_dict(self) -> dict:
        """JSON form, entries sorted by mask."""
        return {
            "n": self.n_qubits,
            "entries": [
                {"mask": mask, "purity": self.values[mask]}
                for mask in sorted(self.values)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PurityTable":
        try:
            n = int(data["n"])
            values = {int(e["mask"]): float(e["purity"]) for e in data["entries"]}
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed purity table record: {exc}") from exc
        return cls(n, values)


def _subset_purities(amps: np.ndarray, mask: int) -> dict:
    """Purities of every subset of ``mask``, keyed by label mask.

    ``amps`` is one state's 2^n amplitudes or a (B, 2^n) stack of states; a
    value is a float64 for one state and a (B,) array for a stack. The
    partial-trace tree of the module docstring, walked once for the whole
    stack. On a tie (|alpha| = n/2) the side holding the highest label of
    ``mask`` is kept, so every smaller needed set lies inside a kept one.
    """
    lead = amps.shape[:-1]
    b = len(lead)
    n = amps.shape[-1].bit_length() - 1
    full = (1 << n) - 1
    outside = full ^ mask
    tie_label = mask.bit_length() - 1
    values = {0: np.ones(lead) if lead else 1.0}

    def smaller_side(alpha):
        twice = 2 * alpha.bit_count()
        flip = twice > n or (twice == n and not alpha >> tie_label & 1)
        return alpha ^ full if flip else alpha

    def trace_down(rho, labels, node, start):
        # Removing only labels from ``start`` on visits every subset once.
        if lead:
            flat = rho.reshape(lead + (-1,))
            values[node] = np.vecdot(flat, flat).real
        else:
            # np.vdot does not batch, but it is the cheapest call for one state.
            values[node] = float(np.vdot(rho, rho).real)
        k = len(labels)
        for i in range(start, k):
            child = node ^ (1 << labels[i])
            # Below the top every set is on its smaller side; it is needed if it
            # is a subset of ``mask`` or the complement of one.
            if child & outside in (0, outside) and child not in values:
                tensor = rho.reshape(lead + (2,) * (2 * k))
                reduced = tensor.trace(axis1=b + i, axis2=b + k + i)
                trace_down(reduced, labels[:i] + labels[i + 1 :], child, i)

    def grow(top):
        labels = [k for k in range(n) if top >> k & 1]
        matrix = _gather_matrix(amps, n, labels)
        trace_down(matrix @ matrix.conj().swapaxes(-1, -2), labels, top, 0)

    if smaller_side(mask) == mask:
        # Then so is every subset of it, and one tree holds them all.
        grow(mask)
        return values
    side = {alpha: smaller_side(alpha) for alpha in submasks(mask)}
    for top in sorted(side.values(), key=int.bit_count, reverse=True):
        if top not in values:
            grow(top)
    return {alpha: values[cut] for alpha, cut in side.items()}


def _all_purities(amps: np.ndarray) -> np.ndarray:
    """All 2^n purities of each state in ``amps``, indexed by label mask on the last axis."""
    size = amps.shape[-1]
    values = _subset_purities(amps, size - 1)
    return np.array([values[mask] for mask in range(size)]).T


def purity_table(psi: Statevector, s: QubitSet) -> PurityTable:
    """Purities for every subset of s, keyed by mask (includes the empty set)."""
    require_same_qubits(psi, s)
    limits.require("purity-table", s.cardinality)
    return PurityTable(psi.n_qubits, _subset_purities(psi.amplitudes, s.mask))


def purity_array(psi: Statevector) -> np.ndarray:
    """All 2^n purities of psi as an array indexed by label mask."""
    return _all_purities(psi.amplitudes)


def purity_arrays(states: Sequence[Statevector]) -> np.ndarray:
    """All 2^n purities of each state as a (B, 2^n) array; row b is ``purity_array(states[b])``.

    The states must share n; the partial-trace tree is walked once for all of them.
    """
    if not states:
        raise ValidationError("need at least one state")
    require_same_qubits(*states)
    return _all_purities(np.stack([psi.amplitudes for psi in states]))
