"""Reduced-state purities Tr[rho_alpha^2] for subsets of a pure state.

Instead of materializing density matrices, amplitudes are gathered into a
2^|alpha| x 2^(n-|alpha|) matrix M; then rho_alpha = M M^dag and the purity
is the squared Frobenius norm of that Gram matrix. A reduced state and its
complement share a spectrum, so the cut {alpha, complement} has one purity
and may be read from either side.

``purity`` answers one cut. ``purity_table``, ``purity_array`` and
``purity_arrays`` answer every subset of a set s at once from a plan, built
on first use for each (n, s) and kept in a cache of bounded size. The plan
is flat: the tops, each a set whose rho costs one O(2^(n+k)) Gram product
for its k qubits; below each top, the partial-trace steps (a source slot,
the traced axis and a destination slot) that reach each needed cut from a
top holding one of its sides; and the output index of each subset. One
executor runs it for one state or a (B, 2^n) stack and writes every purity
into one preallocated array; the empty set is exactly 1.0 and never computed.

The tops. If s has at most n/2 qubits it is the only top. Otherwise the
largest cuts, with n//2 qubits on their smaller side (the n/2 ties at even
n), are covered greedily by (n//2 + 1)-qubit tops: one such Gram costs two
on n//2 qubits and yields up to n//2 + 1 of these cuts by one partial trace
each. Any cut still open becomes its own top on its smaller side, largest
first. On the full 12-qubit set that is 75 seven-, 14 six- and 11
five-qubit Grams, 169.5 six-qubit-Gram equivalents, where one six-qubit
Gram per tie would take 462.

Cost, on a 2-vCPU x86 host with BLAS on one thread, medians of 10
alternating in-process pairs against a recursive tree with one Gram per
tie: ``purity_array`` took 42-46 ms at n=12 (0.52-0.58x of the tree's
78-85 ms) and 4.1-5.9 ms at n=10 (0.49-0.58x of 8.3-10.3 ms), with the
plan cached. Building the n=12 plan takes 14-20 ms, paid by the first call
for each (n, s) in a process; a one-shot call still came out faster than
the tree's. tracemalloc peak of ``purity_array`` (tree's in brackets):
0.55-0.58 MB (0.70) at n=12 with the plan cached, 0.85-0.96 MB on a first
call; 1.9 MB (2.8) and 3.4 MB at n=14; 7.6 MB (12.0) and 13.5 MB at n=16.
The (n//2 + 1)-qubit rho is 4x the tree's largest, but the 2^n-amplitude
gather and the output dominate the peak; the plan itself adds the
first-call excess.

``purity_arrays`` runs the same plan for a stack of states of one n: the
Gram products, partial traces and purities keep a leading batch axis, so
each is one numpy call for all B states.

``cross_purities`` gives Tr[rho_alpha rho'_alpha] of B pairs of states
with one gather, Gram product and overlap for the whole stack.

Across the package a single-state function is row 0 of its stacked form
(``cross_purity`` of ``cross_purities``), with its checks only there. The
plan executor is the one exception: one state keeps the 2-D BLAS Gram and
``np.vdot``. In runs of 15 alternating pairs on a 2-vCPU x86 host with
BLAS on one thread, ``purity_arrays([psi])`` took 1.11-1.20x the time of
``purity_array(psi)`` at n=10 (5.89 against 5.23 ms in one run) and
1.00-1.055x at n=12 (46.4 against 44.2 ms); ``ce`` at n=10, 12 runs here.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import ValidationError
from .states import QubitSet, StateStack, Statevector, paired_stacks, require_same_qubits


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
    """Tr[rho_alpha rho'_alpha] for reduced states of two (possibly different)
    states: entry 0 of ``cross_purities``.
    """
    return float(cross_purities([psi], [psi_prime], alpha)[0])


def cross_purities(states, states_prime, alpha: QubitSet) -> np.ndarray:
    """Tr[rho_alpha rho'_alpha] of each pair: entry b is
    ``cross_purity(states[b], states_prime[b], alpha)``, bit for bit.

    ``states`` and ``states_prime`` are ``StateStack``s (or sequences of
    states) of equal length over the same qubits; each gather, Gram product
    and overlap is one numpy call for all the pairs. No complement shortcut
    here: for distinct states the two sides of a cut carry different
    overlaps. alpha = empty set gives exactly 1.0.
    """
    states, states_prime = paired_stacks(states, states_prime, alpha)
    count, n = len(states), states.n_qubits
    if alpha.mask == 0:
        return np.ones(count)
    labels = alpha.labels()
    m1 = _gather_matrix(states.amplitudes, n, labels)
    m2 = _gather_matrix(states_prime.amplitudes, n, labels)
    if 2 * len(labels) <= n:
        r1 = m1 @ m1.conj().swapaxes(-1, -2)
        r2 = m2 @ m2.conj().swapaxes(-1, -2)
        return np.vecdot(r2.reshape(count, -1), r1.reshape(count, -1)).real
    # Tr[M1 M1+ M2 M2+] = ||M1+ M2||_F^2, cheaper on the complement side.
    overlap = (m1.conj().swapaxes(-1, -2) @ m2).reshape(count, -1)
    return np.vecdot(overlap, overlap).real


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
        """Inverse of ``to_dict``; a malformed record raises ValidationError."""
        try:
            n = int(data["n"])
            values = {int(e["mask"]): float(e["purity"]) for e in data["entries"]}
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed purity table record: {exc}") from exc
        if n < 1:
            raise ValidationError(f"malformed purity table record: n = {n} < 1")
        for mask, value in values.items():
            # bit_length, not 1 << n: a huge n must not allocate a huge int.
            if mask < 0 or mask.bit_length() > n:
                raise ValidationError(f"malformed purity table record: mask {mask} outside [0, 2^{n})")
            if not math.isfinite(value):
                raise ValidationError(f"malformed purity table record: purity {value} for mask {mask}")
        return cls(n, values)


# Plans are kept for a process's later calls. A verify run at n_max 6 looks up
# at most 121 distinct plans (every nonempty mask at n = 2..6, full sets at 7
# and 8), so 128 keeps them all; at 64 such a run rebuilt about 150 of them
# each time. The bound keeps a sweep over many masks from piling plans up: a
# full-set plan holds 0.21 MB at n = 12, 0.79 MB at 14 and 2.8 MB at 16.
_PLAN_CACHE_SIZE = 128


@dataclass(frozen=True)
class _Plan:
    """The Gram products and partial traces behind every subset purity of one (n, mask).

    A cut {alpha, complement} is indexed by the order in which the plan
    computes it; index 0 is the empty cut, exactly 1.0. ``tops`` holds
    (labels, cut, traces, cuts) per Gram product: the top's labels in axis
    order, the cut its own purity fills, and its steps as two parallel
    tuples. The executor keeps one rho per qubit count k, in slot k. Step j
    traces qubit i of slot k into slot k - 1, where (k, i) =
    ``plan.traces[traces[j]]``, and fills ``cuts[j]`` with the result's
    purity. No top or step computes cut 0, so cut 0 there means only the
    rho is needed, to feed later steps. ``subsets`` lists every
    subset of the mask in ascending order and ``cut_of`` the cut of each.
    """

    n: int
    tops: tuple
    traces: tuple
    cuts: int
    subsets: np.ndarray
    cut_of: np.ndarray


def _cover(n: int, largest: set[int]) -> list[int]:
    """Greedy (n//2 + 1)-qubit tops holding a side of the cuts in ``largest``.

    ``largest`` holds nonempty cuts with n//2 qubits on their smaller side,
    each given by one of its sides. A top's rho yields each of its n//2-qubit
    subsets by one partial trace, so one Gram on n//2 + 1 qubits, at twice
    the cost of one on n//2, answers up to n//2 + 1 of these cuts. Each round
    takes the candidate holding the most open cuts, while that is more than
    two; the caller gives the cuts left open tops of their own.
    """
    full = (1 << n) - 1
    half = n // 2
    holds: dict[int, list[int]] = {}
    for cut in largest:
        for side in (cut ^ full, cut):
            if side.bit_count() > half:
                holds.setdefault(side, []).append(cut)
            else:
                for k in range(n):
                    if not side >> k & 1:
                        holds.setdefault(side | 1 << k, []).append(cut)
    holders: dict[int, list[int]] = {cut: [] for cut in largest}
    for top, cuts in holds.items():
        for cut in cuts:
            holders[cut].append(top)
    gain = {top: len(cuts) for top, cuts in holds.items()}
    # Gains only fall, so a popped entry whose gain is stale goes back in.
    queue = [(-count, order, top) for order, (top, count) in enumerate(gain.items())]
    heapq.heapify(queue)
    open_cuts = set(largest)
    tops = []
    while open_cuts:
        count, order, top = heapq.heappop(queue)
        if -count != gain[top]:
            heapq.heappush(queue, (-gain[top], order, top))
            continue
        if gain[top] <= 2:
            break
        tops.append(top)
        for cut in holds[top]:
            if cut in open_cuts:
                open_cuts.remove(cut)
                for other in holders[cut]:
                    gain[other] -= 1
    return tops


def _walk(node: int, labels: list[int], start: int, visit, steps: list) -> bool:
    """Append the partial traces that reach the subsets of ``node``; True if any was kept.

    Removing only labels from ``start`` on reaches each subset of a top
    once. A step (k, i, cut) traces qubit ``labels[i]`` out of the k-qubit
    ``node`` and fills ``cut``; it is kept if it fills a cut or feeds a kept
    step.
    """
    k = len(labels)
    kept = False
    for i in range(start, k):
        child = node ^ 1 << labels[i]
        cut = visit(child)
        if cut is None:
            continue
        at = len(steps)
        steps.append((k, i, cut))
        if _walk(child, labels[:i] + labels[i + 1 :], i, visit, steps) or cut:
            kept = True
        else:
            del steps[at:]
    return kept


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(n: int, mask: int) -> _Plan:
    """The plan of the module docstring for one (n, mask), built on first use."""
    full = (1 << n) - 1
    subsets = list(submasks(mask))[::-1]
    # Both sides of a cut share a purity; a cut is keyed by its side without label n - 1.
    keys = [min(alpha, alpha ^ full) for alpha in subsets]
    needed = set(keys)
    index = {0: 0}
    traces: dict[tuple[int, int], int] = {}
    seen: set[int] = set()  # every subset of a walked set has its cut indexed
    tops = []

    def visit(node):
        # None for a set already walked; else the cut it fills, 0 for none.
        if node in seen:
            return None
        seen.add(node)
        cut = min(node, node ^ full)
        if cut not in needed or cut in index:
            return 0
        index[cut] = len(index)
        return index[cut]

    def grow(top):
        cut = visit(top)
        if cut is None:
            return
        labels = [k for k in range(n) if top >> k & 1]
        steps: list = []
        if _walk(top, labels, 0, visit, steps) or cut:
            step_traces = tuple(traces.setdefault((k, i), len(traces)) for k, i, _ in steps)
            tops.append((tuple(labels), cut, step_traces, tuple(cut for _, _, cut in steps)))

    def small_side(cut):
        return cut if 2 * cut.bit_count() <= n else cut ^ full

    if 2 * mask.bit_count() <= n:
        # Every subset of the mask is on the small side of its cut: one tree.
        grow(mask)
    else:
        half = n // 2
        for top in _cover(n, {cut for cut in needed if small_side(cut).bit_count() == half > 0}):
            grow(top)
        # Whatever the cover left open, largest first, as its own top.
        for cut in sorted(needed.difference(index), key=lambda c: small_side(c).bit_count(), reverse=True):
            if cut not in index:
                grow(small_side(cut))
    cut_of = np.array([index[cut] for cut in keys], dtype=np.intp)
    subset_array = np.array(subsets, dtype=np.int64)
    cut_of.flags.writeable = subset_array.flags.writeable = False
    return _Plan(n, tuple(tops), tuple(traces), len(index), subset_array, cut_of)


def _subset_purities(amps: np.ndarray, plan: _Plan) -> np.ndarray:
    """Run ``plan`` on one state's 2^n amplitudes or on a (B, 2^n) stack.

    Returns the purity of each subset in ``plan.subsets`` order, on the last
    axis (rows of a (B, 2^c) array for a stack). Each Gram product, partial
    trace and purity is one numpy call for the whole stack. One state keeps
    the 2-D BLAS product and ``np.vdot``: a one-row stack is slower (see above).
    """
    lead = amps.shape[:-1]
    out = np.empty(lead + (plan.cuts,))
    out[..., 0] = 1.0
    depth = max((len(top[0]) for top in plan.tops), default=0)
    slots = [np.empty(lead + (1 << k, 1 << k), dtype=complex) for k in range(depth + 1)]
    flats = [slot.reshape(lead + (-1,)) for slot in slots]
    views = []
    for k, i in plan.traces:
        inner = 1 << (k - 1 - i)
        tensor = slots[k].reshape(lead + (1 << i, 2, inner, 1 << i, 2, inner))
        into = slots[k - 1].reshape(lead + (1 << i, inner, 1 << i, inner))
        # Tr_i keeps the two diagonal blocks of the traced qubit.
        views.append((tensor[..., 0, :, :, 0, :], tensor[..., 1, :, :, 1, :], into, flats[k - 1]))

    if lead:

        def fill(flat, cut):
            out[:, cut] = np.vecdot(flat, flat).real

    else:

        def fill(flat, cut):
            out[cut] = np.vdot(flat, flat).real

    for labels, cut, step_traces, step_cuts in plan.tops:
        k = len(labels)
        matrix = _gather_matrix(amps, plan.n, labels)
        np.matmul(matrix, matrix.conj().swapaxes(-1, -2), out=slots[k])
        if cut:
            fill(flats[k], cut)
        for trace, cut in zip(step_traces, step_cuts):
            diag0, diag1, into, flat = views[trace]
            np.add(diag0, diag1, out=into)
            if cut:
                fill(flat, cut)
    return out[..., plan.cut_of]


def _all_purities(amps: np.ndarray) -> np.ndarray:
    """All 2^n purities of each state in ``amps``, indexed by label mask on the last axis."""
    n = amps.shape[-1].bit_length() - 1
    return _subset_purities(amps, _plan(n, (1 << n) - 1))


def purity_table(psi: Statevector, s: QubitSet) -> PurityTable:
    """Purities for every subset of s, keyed by mask (includes the empty set)."""
    require_same_qubits(psi, s)
    limits.require("purity-table", s.cardinality)
    plan = _plan(psi.n_qubits, s.mask)
    values = _subset_purities(psi.amplitudes, plan)
    return PurityTable(psi.n_qubits, dict(zip(plan.subsets.tolist(), values.tolist())))


def purity_array(psi: Statevector) -> np.ndarray:
    """All 2^n purities of psi as an array indexed by label mask."""
    return _all_purities(psi.amplitudes)


def purity_arrays(states: StateStack | Sequence[Statevector]) -> np.ndarray:
    """All 2^n purities of each state as a (B, 2^n) array; row b is ``purity_array(states[b])``.

    ``states`` is a ``StateStack`` or a nonempty sequence of states sharing
    n; the plan runs once for all of them.
    """
    return _all_purities(StateStack.of(states).amplitudes)
