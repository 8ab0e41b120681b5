"""Reduced-state purities Tr[rho_alpha^2] for subsets of a pure state.

Instead of materializing density matrices, amplitudes are gathered into a
2^|alpha| x 2^(n-|alpha|) matrix M; then rho_alpha = M M^dag and the purity
is the squared Frobenius norm of that Gram matrix. A reduced state and its
complement share a spectrum, so the cut {alpha, complement} has one purity
and may be read from either side.

``purity`` answers one cut. ``purity_table``, ``purity_array`` and
``purity_arrays`` answer every subset of a set s at once from a plan, built
on first use for each (n, s) and kept in a bounded cache. The plan is flat:
the tops, each a set whose rho costs one O(2^(n+k)) Gram product for its k
qubits; below each top, the partial traces that reach each needed cut from
a top holding one of its sides; and the output index of each subset. The
empty set is exactly 1.0 and never computed.

The tops. If s has at most n/2 qubits it is the only top. Otherwise the
cuts with n//2 qubits on their smaller side are covered greedily by
(n//2 + 1)-qubit tops: one such Gram costs two on n//2 qubits and yields
up to n//2 + 1 of these cuts by one partial trace each. Any cut still open
becomes its own top on its smaller side, largest first.

The walk. ``_subset_purities`` runs a plan on a (B, 2^n) stack one node at
a time: a gather and Gram product per top, then one partial trace and one
purity per node that fills or feeds a cut, each one numpy call for the
whole stack. ``cross_purities`` gives Tr[rho_alpha rho'_alpha] of B pairs
of states with one gather, Gram product and overlap for the whole stack.

One state (``_state_purities``) takes one of three forms. Each reads every
cut from the node the walk reads it from, by the same Gram product and
partial traces, so each equals row 0 of the walk bit for bit:

- By levels (``_level_purities``), when ``_runs_by_levels`` gives the plan
  ``levels``: every level of the tops' complete subset trees in one batched
  call per step. It pays where the walk's time is call overhead, the full
  plans at n = 5..8; larger trees recompute too many nodes and the traces
  turn memory-bound.
- By program (``_program_purities``), from a plan's second one-state call
  on, up to ``_PROGRAM_MAX_QUBITS``: the walk with every view bound once to
  row buffers kept with the plan. A build costs what two or three calls
  save, so a plan run once builds none.
- Row 0 of the walk on a one-row stack: a plan's first one-state call, a
  call that finds the program in use by another thread, and plans past
  ``_PROGRAM_MAX_QUBITS``.

The measurements behind these rules are in CHANGES.md and the
``BENCH_*.json`` files.
"""

from __future__ import annotations

import functools
import heapq
import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import limits
from .states import QubitSet, StateStack, Statevector, paired_stacks, require_same_qubits


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, in standard descending enumeration order."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _gather_matrix(amps: np.ndarray, n: int, labels) -> np.ndarray:
    """A (B, 2^n) stack of amplitudes as a (B, 2^k, 2^(n-k)) stack of
    matrices whose rows index the k qubits in ``labels``."""
    axes = [0] + [1 + k for k in labels] + [1 + k for k in range(n) if k not in labels]
    return amps.reshape((-1,) + (2,) * n).transpose(axes).reshape(len(amps), 1 << len(labels), -1)


def purity(psi: Statevector, alpha: QubitSet) -> float:
    """Tr[rho_alpha^2] of the reduced state on the qubits in alpha.

    alpha = empty set returns exactly 1.0 (the scalar convention).
    """
    require_same_qubits(psi, alpha)
    if alpha.mask == 0:
        return 1.0
    if 2 * alpha.cardinality > psi.n_qubits:
        alpha = alpha.complement()
    matrix = _gather_matrix(psi.amplitudes[None], psi.n_qubits, alpha.labels())[0]
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


# Plans kept for a process's later calls: every plan a verify run at n_max 6
# looks up (121) fits, and a sweep over many masks cannot pile plans up.
_PLAN_CACHE_SIZE = 128

# Plans past this n build no program, since a full plan's program about doubles
# per qubit: the plan cache then keeps at most 128 programs of this n.
_PROGRAM_MAX_QUBITS = 12

# A one-state program keeps at most this many bytes of rows per qubit count
# (and at least one row), so its rows are read while still in cache.
_PROGRAM_LEVEL_BYTES = 1 << 16


class _Scratch:
    """A plan's one-state program (``_program``), built on its second
    one-state call (``walked`` marks the first), and the lock that keeps two
    calls from writing its rows at once."""

    __slots__ = ("lock", "program", "walked")

    def __init__(self):
        self.lock = threading.Lock()
        self.program = None
        self.walked = False


@dataclass(frozen=True)
class _Plan:
    """The Gram products and partial traces behind every subset purity of one (n, mask).

    A cut {alpha, complement} is indexed by the order in which the plan
    computes it; index 0 is the empty cut, exactly 1.0. ``tops`` holds
    (labels, cut, traces, cuts) per Gram product: the top's labels in axis
    order, the cut its own purity fills, and its steps as two parallel
    tuples. The walk keeps one rho per qubit count k, in slot k. Step j
    traces qubit i of slot k into slot k - 1, where (k, i) =
    ``plan.traces[traces[j]]``, and fills ``cuts[j]`` with the result's
    purity. No top or step computes cut 0, so cut 0 there means only the
    rho is needed, to feed later steps. ``subsets`` lists every
    subset of the mask in ascending order and ``cut_of`` the cut of each.
    ``levels`` holds what ``_levels`` builds when ``_runs_by_levels``
    selects the plan, else None; ``scratch`` holds the one-state program of
    a plan without levels (none past ``_PROGRAM_MAX_QUBITS``).
    """

    n: int
    tops: tuple
    traces: tuple
    cuts: int
    subsets: np.ndarray
    cut_of: np.ndarray
    levels: tuple | None
    scratch: _Scratch = field(default_factory=_Scratch, compare=False, repr=False)


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
    source: dict[tuple[int, int], int] = {}  # (top position, set) -> the cut it fills

    def visit(node):
        # None for a set already walked; else the cut it fills, 0 for none.
        if node in seen:
            return None
        seen.add(node)
        cut = min(node, node ^ full)
        if cut not in needed or cut in index:
            return 0
        index[cut] = source[len(tops), node] = len(index)
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
    levels = _levels(n, tops, source, len(index)) if _runs_by_levels(tops, len(index)) else None
    return _Plan(n, tuple(tops), tuple(traces), len(index), subset_array, cut_of, levels)


def _runs_by_levels(tops: list, cuts: int) -> bool:
    """Whether a plan runs one state by levels: two or more tops whose
    complete subset trees hold at most two nonempty nodes per cut.

    Full plans qualify from n = 5 to 8; see the module docstring for why
    no other plan does.
    """
    nodes = sum((1 << len(labels)) - 1 for labels, *_ in tops)
    return len(tops) > 1 and nodes <= 2 * cuts


def _levels(n: int, tops: list, source: dict, spare: int) -> tuple:
    """Every level of the complete subset trees of ``tops``, for ``_level_purities``.

    A level holds the nonempty nodes of one qubit count j, as (j, gather,
    prefixes, fills). A node is a subset of a top, reached as in ``_walk`` by
    removing labels from its start on; the tops of j qubits come first and
    start at 0, then the children that trace axis i of a (j + 1)-qubit node,
    which start at i, for i = 0, 1, ... So a level is ordered by start, and
    the nodes that may trace axis i, those starting at i or before, are the
    first ``prefixes[i]`` of the level above. ``gather`` indexes the
    amplitudes into the 2^j x 2^(n-j) matrices of the j-qubit tops (None
    without any), and node r fills cut ``fills[r]``: the cut whose value the
    per-node walk takes from that node, or ``spare`` for none.
    """
    positions = np.arange(1 << n)
    levels = []
    parent: list = []  # (top position, set, labels, start), ascending start
    for j in range(max((len(labels) for labels, *_ in tops), default=0), 0, -1):
        roots = [(t, labels) for t, (labels, *_) in enumerate(tops) if len(labels) == j]
        level = [(t, sum(1 << k for k in labels), labels, 0) for t, labels in roots]
        prefixes = []
        for i in range(j + 1) if parent else ():
            prefix = parent[: sum(start <= i for *_, start in parent)]
            prefixes.append(len(prefix))
            for t, node, labels, _ in prefix:
                level.append((t, node ^ 1 << labels[i], labels[:i] + labels[i + 1 :], i))
        gather = None
        if roots:
            matrices = [_gather_matrix(positions[None], n, labels) for _, labels in roots]
            gather = np.concatenate(matrices)
            gather.flags.writeable = False
        fills = np.array([source.get((t, node), spare) for t, node, *_ in level], dtype=np.intp)
        fills.flags.writeable = False
        levels.append((j, gather, tuple(prefixes), fills))
        parent = level
    return tuple(levels)


def _subset_purities(amps: np.ndarray, plan: _Plan) -> np.ndarray:
    """Run ``plan`` by the per-node walk on a (B, 2^n) stack of amplitudes.

    Returns a (B, 2^c) array: row b holds the purity of each subset in
    ``plan.subsets`` order for state b. Each Gram product, partial trace
    and purity is one numpy call for the whole stack.
    """
    count = len(amps)
    out = np.empty((count, plan.cuts))
    out[:, 0] = 1.0
    depth = max((len(top[0]) for top in plan.tops), default=0)
    slots = [np.empty((count, 1 << k, 1 << k), dtype=complex) for k in range(depth + 1)]
    flats = [slot.reshape(count, -1) for slot in slots]
    views = []
    for k, i in plan.traces:
        inner = 1 << (k - 1 - i)
        tensor = slots[k].reshape(count, 1 << i, 2, inner, 1 << i, 2, inner)
        into = slots[k - 1].reshape(count, 1 << i, inner, 1 << i, inner)
        # Tr_i keeps the two diagonal blocks of the traced qubit.
        views.append((tensor[:, :, 0, :, :, 0], tensor[:, :, 1, :, :, 1], into, flats[k - 1]))
    for labels, cut, step_traces, step_cuts in plan.tops:
        k = len(labels)
        matrix = _gather_matrix(amps, plan.n, labels)
        np.matmul(matrix, matrix.conj().swapaxes(-1, -2), out=slots[k])
        if cut:
            out[:, cut] = np.vecdot(flats[k], flats[k]).real
        for trace, cut in zip(step_traces, step_cuts):
            diag0, diag1, into, flat = views[trace]
            np.add(diag0, diag1, out=into)
            if cut:
                out[:, cut] = np.vecdot(flat, flat).real
    return out[:, plan.cut_of]


def _state_purities(amps: np.ndarray, plan: _Plan) -> np.ndarray:
    """Run ``plan`` on one state's 2^n amplitudes: row 0 of ``_subset_purities``.

    By levels if the plan has them, else by its program when
    ``_program_purities`` runs one, else by the walk on a one-row stack.
    """
    if plan.levels is not None:
        return _level_purities(amps, plan)
    values = _program_purities(amps, plan)
    return _subset_purities(amps[None], plan)[0] if values is None else values


def _program(plan: _Plan) -> tuple:
    """The per-node walk of ``plan`` for one state, bound to buffers once.

    Nodes of j qubits live in the rows of one (r_j, 2^j, 2^j) buffer that
    all tops share; a top's nodes take rows in the walk's order, so the
    partial trace of each step reads its parent's row and writes its own.
    A top runs as one Gram product into its row, its steps' ``np.add``
    calls, and one ``np.vecdot`` per qubit count over the rows it filled,
    scattered into the cuts (a node that fills no cut writes the spare
    entry ``plan.cuts``). When a count's rows are all taken, the next node
    of that count first reads them, so r_j stays within
    ``_PROGRAM_LEVEL_BYTES``; the walk has finished with them by then.

    Returns, per top, (axes, shape, gram, segments): the transpose of the
    amplitude tensor and the matrix shape that gather the top, the row its
    Gram product fills, and (adds, reads) pairs to run in order, each add a
    (diag0, diag1, into) view triple and each read a (rows, fills) pair.
    Views are made once per (count, axis, parent row, child row).
    """
    n, spare = plan.n, plan.cuts
    depth = max((len(labels) for labels, *_ in plan.tops), default=0)
    limit = [max(1, _PROGRAM_LEVEL_BYTES >> (4 + 2 * j)) for j in range(depth + 1)]
    count = [1] * (depth + 1)
    for labels, _, step_traces, _ in plan.tops:
        nodes = [0] * (depth + 1)
        nodes[len(labels)] = 1
        for trace in step_traces:
            nodes[plan.traces[trace][0] - 1] += 1
        count = [max(c, min(m, cap)) for c, m, cap in zip(count, nodes, limit)]
    rows = [np.empty((r, 1 << j, 1 << j), dtype=complex) for j, r in enumerate(count)]

    @functools.cache
    def add(j, i, parent, child):
        inner = 1 << (j - 1 - i)
        tensor = rows[j][parent].reshape(1 << i, 2, inner, 1 << i, 2, inner)
        into = rows[j - 1][child].reshape(1 << i, inner, 1 << i, inner)
        return tensor[:, 0, :, :, 0, :], tensor[:, 1, :, :, 1, :], into

    @functools.cache
    def flat(j, used):
        return rows[j][:used].reshape(used, -1)

    program = []
    for labels, cut, step_traces, step_cuts in plan.tops:
        k = len(labels)
        fills: list[list[int]] = [[] for _ in range(depth + 1)]
        segments, adds = [], []

        def read(j):
            # The pending rows of j qubits, as one read if any fills a cut.
            pending, fills[j] = fills[j], []
            if any(fill != spare for fill in pending):
                return ((flat(j, len(pending)), np.array(pending, dtype=np.intp)),)
            return ()

        def take(j, cut):
            # The next row of j qubits for a node filling ``cut``.
            nonlocal adds
            if len(fills[j]) == count[j]:
                segments.append((tuple(adds), read(j)))
                adds = []
            fills[j].append(cut or spare)
            return len(fills[j]) - 1

        current = [0] * (depth + 1)
        current[k] = take(k, cut)
        for trace, cut in zip(step_traces, step_cuts):
            j, i = plan.traces[trace]
            current[j - 1] = take(j - 1, cut)
            adds.append(add(j, i, current[j], current[j - 1]))
        segments.append((tuple(adds), sum(map(read, range(depth, 0, -1)), ())))
        axes = tuple(labels) + tuple(q for q in range(n) if q not in labels)
        program.append((axes, (1 << k, 1 << (n - k)), rows[k][0], tuple(segments)))
    return tuple(program)


def _program_purities(amps: np.ndarray, plan: _Plan) -> np.ndarray | None:
    """Run ``plan``'s program (``_program``) on one state's amplitudes.

    Each cut reads the node the per-node walk reads, by the same Gram
    product and partial traces, so the values agree with the walk's bit for
    bit. Returns None, for the caller to walk a one-row stack, on plans
    past ``_PROGRAM_MAX_QUBITS``, on the plan's first one-state call and on
    a call that finds the rows in use by another thread; the second call
    builds the program and later calls reuse it.
    """
    if plan.n > _PROGRAM_MAX_QUBITS:
        return None
    scratch = plan.scratch
    if not scratch.walked:
        scratch.walked = True
        return None
    if not scratch.lock.acquire(blocking=False):
        return None
    try:
        if scratch.program is None:
            scratch.program = _program(plan)
        out = np.empty(plan.cuts + 1)  # the last entry takes the nodes that fill no cut
        out[0] = 1.0
        tensor = amps.reshape((2,) * plan.n)
        for axes, shape, gram, segments in scratch.program:
            matrix = tensor.transpose(axes).reshape(shape)
            np.matmul(matrix, matrix.conj().T, out=gram)
            for adds, reads in segments:
                for diag0, diag1, into in adds:
                    np.add(diag0, diag1, out=into)
                for flat, fills in reads:
                    out[fills] = np.vecdot(flat, flat).real
    finally:
        scratch.lock.release()
    return out[plan.cut_of]


def _level_purities(amps: np.ndarray, plan: _Plan) -> np.ndarray:
    """Run ``plan.levels`` on one state: the batched form of ``_subset_purities``.

    Per level, one gather and one stacked Gram product for its tops, one
    strided ``np.add`` per traced axis over a prefix of the level above, one
    ``np.vecdot`` for its purities and one scatter into the cuts. Each cut
    reads the node the per-node walk reads, by the same Gram product and
    partial traces, so the values agree with that walk's bit for bit.
    """
    out = np.empty(plan.cuts + 1)  # the last entry takes the nodes that fill no cut
    out[0] = 1.0
    parent = None
    for j, gather, prefixes, fills in plan.levels:
        level = np.empty((len(fills), 1 << j, 1 << j), dtype=complex)
        at = 0
        if gather is not None:
            matrices = amps[gather]
            at = len(gather)
            np.matmul(matrices, matrices.conj().swapaxes(-1, -2), out=level[:at])
        for i, count in enumerate(prefixes):
            inner = 1 << (j - i)
            tensor = parent[:count].reshape(count, 1 << i, 2, inner, 1 << i, 2, inner)
            into = level[at : at + count].reshape(count, 1 << i, inner, 1 << i, inner)
            np.add(tensor[:, :, 0, :, :, 0], tensor[:, :, 1, :, :, 1], out=into)
            at += count
        flat = level.reshape(len(fills), -1)
        out[fills] = np.vecdot(flat, flat).real
        parent = level
    return out[plan.cut_of]


def purity_table(psi: Statevector, s: QubitSet) -> PurityTable:
    """Purities for every subset of s, keyed by mask (includes the empty set)."""
    require_same_qubits(psi, s)
    limits.require("purity-table", s.cardinality)
    plan = _plan(psi.n_qubits, s.mask)
    values = _state_purities(psi.amplitudes, plan)
    return PurityTable(psi.n_qubits, dict(zip(plan.subsets.tolist(), values.tolist())))


def purity_array(psi: Statevector) -> np.ndarray:
    """All 2^n purities of psi as an array indexed by label mask."""
    return _state_purities(psi.amplitudes, _plan(psi.n_qubits, (1 << psi.n_qubits) - 1))


def purity_arrays(states: StateStack | Sequence[Statevector]) -> np.ndarray:
    """All 2^n purities of each state as a (B, 2^n) array; row b is ``purity_array(states[b])``.

    ``states`` is a ``StateStack`` or a nonempty sequence of states sharing
    n; the plan runs once for all of them.
    """
    stack = StateStack.of(states)
    return _subset_purities(stack.amplitudes, _plan(stack.n_qubits, (1 << stack.n_qubits) - 1))
