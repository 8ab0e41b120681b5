"""Reduced-state purities Tr[rho_alpha^2] for subsets of a pure state.

Instead of materializing density matrices, amplitudes are gathered into a
2^|alpha| x 2^(n-|alpha|) matrix M; then rho_alpha = M M^dag and the purity
is the squared Frobenius norm of that Gram matrix. A reduced state and its
complement share a spectrum, so the cut {alpha, complement} has one purity
and may be read from either side.

``purity`` answers one cut. ``purity_table`` (a ``{mask: purity}`` dict
over the subsets of a set s), ``purity_array`` (a 2^n array by label mask)
and ``purity_arrays`` (one such row per state) answer every subset at once
from a plan, built on first use for each (n, s) and kept in a bounded
cache. The plan is flat: the tops, each a set whose rho costs one
O(2^(n+k)) Gram product for its k qubits; below each top, the partial
traces that reach each needed cut from a top holding one of its sides; and
the output index of each subset. The empty set is exactly 1.0 and never
computed.

The tops. If s has at most n/2 qubits it is the only top. Otherwise the
cuts with n//2 qubits on their smaller side are covered greedily by
(n//2 + 1)-qubit tops: one such Gram costs two on n//2 qubits and yields
up to n//2 + 1 of these cuts by one partial trace each. Any cut still open
becomes its own top on its smaller side, largest first.

The walk. ``_subset_purities`` runs a plan on a (B, 2^n) stack one node at
a time: a gather and ``_gram`` product per top, then one partial trace and
one purity per node that fills or feeds a cut, each one numpy call for the
whole stack. ``cross_purities`` gives Tr[rho_alpha rho'_alpha] of B pairs
of states with one gather, Gram product and overlap for the whole stack.

The nodes. Every node of a plan holds S = Re rho + Im rho, a real matrix,
in place of rho. Re rho is symmetric and Im rho antisymmetric, so their
entrywise products sum to zero and ||S||_F^2 = ||Re rho||_F^2 +
||Im rho||_F^2 = ||rho||_F^2, the purity. A partial trace is linear and
keeps real matrices real, so the partial trace of S is the S of the
partial trace: S can stand for rho at every node. ``_gram`` gives S as one
real product L R^T, half the flops of M M^dag, and each node, trace and
purity then moves half the bytes. ``purity`` and ``cross_purities`` keep
the complex rho: they are the single-cut references the plans are held to.

The loop order of a partial trace. The walk and the program trace a qubit
by one ``np.add`` over the views ``_trace_views`` builds. When the traced
qubit's inner block 2^(k-1-i) is narrower than its outer 2^i, the views
swap their last two axes and the add runs in C order, so numpy's innermost
loop runs over the 2^i outer columns, not over the shorter runs of 2^(k-1-i)
entries. Each entry is still the sum of the same two entries. Warm, on a
2-vCPU x86 host, the full plans took 0.97x their former time at n = 11,
0.91x at n = 12 and 0.93x at n = 13; at n = 14, where 8-qubit tops swap
some axes that run slower, 1.02x.

A plan's first run, one state or a stack, is the walk (on a one-row stack
for one state): a one-shot command builds nothing beyond the plan. From its
second run on, a plan runs in one of two other forms, each of which reads
every cut from the node the walk reads it from, by the same ``_gram``
product, the same single add per entry and the same contiguous ``vecdot``,
so each equals the walk bit for bit:

- Gathered (``_gathered_purities``), one state or a stack, for a plan that
  has the form ``_gathered`` builds: the walk's own nodes one qubit count
  at a time, in chunks of tops of at most 0.5 MiB of node data. Per chunk
  and level there is one stacked Gram product for the level's tops, one
  ``take`` of precompiled flat indices into the level above and one ``add``
  for all the partial traces into it, and one ``vecdot`` for the level's
  purities. A plan has the form when its ``uint16`` indices take at most
  ``_GATHERED_MAX_BYTES`` and its levels hold at least
  ``_GATHERED_MIN_NODES`` nodes each on average: the full plans from n = 5
  to 10 and the single-top plans of four to seven qubits, among others.
- By program (``_program_purities``), one state of any other plan up to
  ``_PROGRAM_MAX_QUBITS``: the walk with every view bound once to row
  buffers kept with the plan, as many rows per qubit count as the largest
  top has nodes of that count, and one ``vecdot`` per top and count for
  its purities. Stacks of such plans, plans past
  ``_PROGRAM_MAX_QUBITS`` and a call that finds the program in use by
  another thread take the walk.

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


def _gram(matrix: np.ndarray, out: np.ndarray) -> np.ndarray:
    """S = Re rho + Im rho of rho = M M^dag, for a (..., 2^k, m) stack of
    complex matrices M, into the float64 ``out``.

    R, the (..., 2^k, 2m) float64 view of M, holds each column's (x, y) =
    (Re M, Im M) side by side; L holds (x + y, y - x), which is M (1 - i)
    exactly. Then (L R^T)_ab = sum_c x_a x_b + y_a y_b + y_a x_b - x_a y_b =
    Re rho_ab + Im rho_ab. M is made contiguous first, so every form hands
    BLAS the same layout and gets the same bits.
    """
    matrix = np.ascontiguousarray(matrix)
    left = (matrix * (1 - 1j)).view(np.float64)
    return np.matmul(left, matrix.view(np.float64).mT, out=out)


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


# Plans kept for a process's later calls: every plan a verify run at n_max 6
# looks up (121) fits, and a sweep over many masks cannot pile plans up.
_PLAN_CACHE_SIZE = 128

# Plans past this n build no program. The full plans' programs take 0.22, 0.27
# and 0.86 MB at n = 10, 11 and 12 (a top of n//2 + 1 qubits sets the rows, 0.62
# MB of them at n = 12), so the plan cache keeps at most about 115 MB of programs.
_PROGRAM_MAX_QUBITS = 12

# A plan runs gathered when its compiled indices take at most this many bytes
# (the full plan at n = 10 takes 0.81 MB), so the plan cache holds at most
# 128 x 0.92 MB = 118 MB of indices. The gathered form still won at n = 11
# (2.3 MB) and lost from n = 12 on.
_GATHERED_MAX_BYTES = 7 << 17

# A plan runs gathered only when its levels hold at least this many nodes each
# on average: a level costs about ten numpy calls, a node of the program about three.
_GATHERED_MIN_NODES = 3

# A gathered chunk holds at most this many node entries (0.5 MiB of float64),
# so indices into any of its levels fit uint16.
_CHUNK_ENTRIES = 1 << 16


_threads = threading.local()


def _workspace(size: int) -> np.ndarray:
    """This thread's buffer of at least ``size`` float64 entries for
    ``_gathered_purities``: reused from call to call, because a fresh buffer
    of half a megabyte costs a page fault per 4 KiB written."""
    space = getattr(_threads, "space", None)
    if space is None or len(space) < size:
        space = _threads.space = np.empty(size)
    return space


class _Scratch:
    """What a plan builds on its second run (``walked`` marks the first):
    its gathered form (``_gathered``; False when it has none) and its
    one-state program (``_program``), with the lock that keeps two calls
    from writing the program's rows at once."""

    __slots__ = ("lock", "program", "gathered", "walked")

    def __init__(self):
        self.lock = threading.Lock()
        self.program = None
        self.gathered = None
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
    ``scratch`` holds what the plan builds for its later runs.
    """

    n: int
    tops: tuple
    traces: tuple
    cuts: int
    subsets: np.ndarray
    cut_of: np.ndarray
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


@functools.cache
def _trace_offsets(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the partial traces of a k-qubit rho read it, as flat offsets.

    Row i of the first array lists, in the order of the (k - 1)-qubit
    result's entries, the offset of the entry of the traced qubit i's block
    0 that the walk's ``np.add`` reads; block 1 lies ``shift[i]`` further on.
    """
    inner = 1 << np.arange(k - 1, -1, -1)
    flat = np.arange(1 << 2 * k, dtype=np.uint16)
    block0 = np.array([flat.reshape(1 << i, 2, m, 1 << i, 2, m)[:, 0, :, :, 0].ravel() for i, m in enumerate(inner)])
    return block0, inner * ((1 << k) + 1)


def _trace_views(parent: np.ndarray, child: np.ndarray, k: int, i: int) -> tuple:
    """Views (diag0, diag1, into) that trace qubit i out of the k-qubit rho
    ``parent`` into ``child`` by ``np.add(diag0, diag1, out=into, order="C")``.

    Both arrays may carry leading stack axes, each of its own length. Tr_i
    keeps the two diagonal blocks of the traced qubit, each a (2^i, inner,
    2^i, inner) view with inner = 2^(k-1-i). Where inner is narrower than
    2^i, all three views swap their last two axes, so a C-order add runs
    its innermost loop over the 2^i outer columns rather than over runs of
    inner entries (see the module docstring).
    """
    outer, inner = 1 << i, 1 << (k - 1 - i)
    tensor = parent.reshape(parent.shape[:-2] + (outer, 2, inner, outer, 2, inner))
    views = tensor[..., 0, :, :, 0, :], tensor[..., 1, :, :, 1, :], child.reshape(child.shape[:-2] + (outer, inner, outer, inner))
    if inner < outer:
        return tuple(view.swapaxes(-1, -2) for view in views)
    return views


def _gathered(plan: _Plan) -> tuple | None:
    """The plan's walk nodes by chunk and level, for ``_gathered_purities``.

    Tops join a chunk, in plan order, while its nodes hold at most
    ``_CHUNK_ENTRIES`` entries. A level of a chunk holds the chunk's nodes
    of one qubit count j: first its j-qubit tops, in plan order, then the
    nodes the walk traces into j qubits, in walk order. A level is (j, at,
    end, tops, gather, take0, take1, first, last): its rows fill entries
    ``at:end`` of the chunk's node buffer; ``gather`` indexes the amplitudes
    into its tops' 2^j x 2^(n-j) matrices (None without tops); ``take0`` and
    ``take1`` index the level above at the entries that the walk's
    ``np.add`` reads from the traced qubit's blocks 0 and 1, for all its
    traced nodes in turn (None without any); and its purities are nodes
    ``first:last`` of the run.

    Returns (batch, spaces, nodes, chunks, read): a stack runs ``batch``
    states at a time, so its node buffer too stays within
    ``_CHUNK_ENTRIES`` entries; ``spaces`` holds the workspace entries one
    state needs for its node buffer, and for that buffer and the block-1
    entries of one level; entry ``nodes`` of a run is the empty cut's 1.0;
    ``read`` gives the entry of each subset.

    None when the plan's indices would take more than ``_GATHERED_MAX_BYTES``
    or not fit ``uint16``, or when its levels hold fewer than
    ``_GATHERED_MIN_NODES`` nodes each on average.
    """
    n, traces = plan.n, plan.traces
    groups: list[tuple[list, set]] = []  # the tops of each chunk, and the qubit counts of its nodes
    entries = _CHUNK_ENTRIES
    nodes = traced = 0
    for top in plan.tops:
        labels, _, step_traces, _ = top
        counts = [traces[t][0] - 1 for t in step_traces]
        below = sum(1 << 2 * j for j in counts)
        if entries + (1 << 2 * len(labels)) + below > _CHUNK_ENTRIES:
            groups.append(([], set()))
            entries = 0
        groups[-1][0].append(top)
        groups[-1][1].update(counts, (len(labels),))
        entries += (1 << 2 * len(labels)) + below
        nodes += 1 + len(counts)
        traced += below
    levels = sum(len(counts) for _, counts in groups)
    index_bytes = 2 * (len(plan.tops) << n) + 4 * traced + 8 * len(plan.cut_of)
    if index_bytes > _GATHERED_MAX_BYTES or n > 16 or not nodes or nodes < _GATHERED_MIN_NODES * levels:
        return None
    positions = np.arange(1 << n)
    node_of_cut = np.full(plan.cuts, nodes)
    chunks, node_space, trace_space, node = [], 1, 0, 0
    for group, _ in groups:
        depth = max(len(labels) for labels, *_ in group)
        roots: list[list] = [[] for _ in range(depth + 1)]  # (labels, cut) per top
        for labels, cut, *_ in group:
            roots[len(labels)].append((labels, cut))
        links: list[list] = [[] for _ in range(depth + 1)]  # (parent row, axis, cut) per traced node
        tops_seen = [0] * (depth + 1)
        for labels, _, step_traces, step_cuts in group:
            current = [0] * (depth + 1)
            current[len(labels)] = tops_seen[len(labels)]
            tops_seen[len(labels)] += 1
            for trace, cut in zip(step_traces, step_cuts):
                j, i = traces[trace]
                current[j - 1] = len(roots[j - 1]) + len(links[j - 1])
                links[j - 1].append((current[j], i, cut))
        chunk, at = [], 0
        for j in range(depth, 0, -1):
            fills = [cut for _, cut in roots[j]] + [cut for *_, cut in links[j]]
            if not fills:
                continue
            size = len(fills) << 2 * j
            if size > 1 << 16:
                return None
            gather = take0 = take1 = None
            if roots[j]:
                matrices = [_gather_matrix(positions[None], n, labels).ravel() for labels, _ in roots[j]]
                gather = np.concatenate(matrices).astype(np.uint16)
            if links[j]:
                parents, axes, _ = map(np.array, zip(*links[j]))
                block0, shift = _trace_offsets(j + 1)
                base = (parents << 2 * (j + 1))[:, None] + block0[axes]
                take0 = base.ravel().astype(np.uint16)
                take1 = (base + shift[axes, None]).ravel().astype(np.uint16)
                trace_space = max(trace_space, len(take1))
            for row, cut in enumerate(fills, node):
                if cut:
                    node_of_cut[cut] = row
            chunk.append((j, at, at + size, len(roots[j]), gather, take0, take1, node, node + len(fills)))
            at += size
            node += len(fills)
        chunks.append(tuple(chunk))
        node_space = max(node_space, at)
    read = node_of_cut[plan.cut_of]
    for array in (read, *(a for chunk in chunks for level in chunk for a in level[4:7] if a is not None)):
        array.flags.writeable = False
    return max(1, _CHUNK_ENTRIES // node_space), (node_space, node_space + trace_space), nodes, tuple(chunks), read


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
    slots = [np.empty((count, 1 << k, 1 << k)) for k in range(depth + 1)]
    flats = [slot.reshape(count, -1) for slot in slots]
    views = [_trace_views(slots[k], slots[k - 1], k, i) + (flats[k - 1],) for k, i in plan.traces]
    for labels, cut, step_traces, step_cuts in plan.tops:
        k = len(labels)
        _gram(_gather_matrix(amps, plan.n, labels), slots[k])
        if cut:
            out[:, cut] = np.vecdot(flats[k], flats[k])
        for trace, cut in zip(step_traces, step_cuts):
            diag0, diag1, into, flat = views[trace]
            np.add(diag0, diag1, out=into, order="C")
            if cut:
                out[:, cut] = np.vecdot(flat, flat)
    return out[:, plan.cut_of]


def _gathered_form(plan: _Plan) -> tuple | None:
    """The plan's gathered form, built on its second run (the first walks);
    None before then and for a plan without one (see ``_gathered``)."""
    scratch = plan.scratch
    if scratch.gathered is None and scratch.walked:
        scratch.gathered = _gathered(plan) or False
    scratch.walked = True
    return scratch.gathered or None


def _state_purities(amps: np.ndarray, plan: _Plan) -> np.ndarray:
    """Run ``plan`` on one state's 2^n amplitudes: row 0 of ``_subset_purities``.

    A plan's first run walks a one-row stack. Later runs take its gathered
    form if it has one, else its program when ``_program_purities`` runs
    one, else the walk.
    """
    scratch = plan.scratch
    walked = scratch.walked
    gathered = _gathered_form(plan) if scratch.gathered is None else scratch.gathered
    if gathered:
        return _gathered_purities(amps[None], gathered)[0]
    values = _program_purities(amps, plan) if walked else None
    return _subset_purities(amps[None], plan)[0] if values is None else values


def _program(plan: _Plan) -> tuple:
    """The per-node walk of ``plan`` for one state, bound to buffers once.

    Nodes of j qubits live in the rows of one (r_j, 2^j, 2^j) buffer, r_j
    being the most nodes of j qubits that any one top has. Each top starts
    again at row 0 and gives its nodes rows in the walk's order, so the
    partial trace of each step reads its parent's row and writes its own.
    Rows hold the walk's real nodes S (see the module docstring). A top runs
    as one ``_gram`` product into its row, its steps' ``np.add`` calls, and
    one ``np.vecdot`` per qubit count whose nodes fill a cut, over all the
    top's rows of that count, into consecutive entries of one float64
    buffer of values.

    Returns (tops, values, read): per top, (axes, shape, gram, adds, reads)
    holds the transpose of the amplitude tensor and the matrix shape that
    gather the top, the row its Gram product fills, its steps' (diag0,
    diag1, into) view triples and its (rows, into) reads; ``read`` gives
    the entry of ``values`` that holds each subset's purity, entry 0 being
    the empty cut's 1.0. The diag0 and diag1 views of a step depend only
    on its (count, axis, parent row) and its ``into`` view only on its
    (count, axis, child row), so each view is made once per such key.
    """
    n = plan.n
    depth = max((len(labels) for labels, *_ in plan.tops), default=0)
    walks = []  # per top: its labels, the cut of each row per qubit count, and its steps' (j, i, parent row, child row)
    size = [0] * (depth + 1)
    for labels, cut, step_traces, step_cuts in plan.tops:
        fills: list[list[int]] = [[] for _ in range(depth + 1)]
        fills[len(labels)].append(cut)
        steps = []
        for trace, cut in zip(step_traces, step_cuts):
            j, i = plan.traces[trace]
            steps.append((j, i, len(fills[j]) - 1, len(fills[j - 1])))
            fills[j - 1].append(cut)
        walks.append((labels, fills, steps))
        size = list(map(max, size, map(len, fills)))
    rows = [np.empty((r, 1 << j, 1 << j)) for j, r in enumerate(size)]
    values = np.empty(1 + sum(len(cuts) for _, fills, _ in walks for cuts in fills if any(cuts)))
    values[0] = 1.0
    entry_of_cut = np.zeros(plan.cuts, dtype=np.intp)

    blocks = {(j, i): _trace_views(rows[j], rows[j - 1], j, i) for j, i in plan.traces}

    @functools.cache
    def view(j, i, side, row):
        return blocks[j, i][side][row]

    @functools.cache
    def add(j, i, parent, child):
        return view(j, i, 0, parent), view(j, i, 1, parent), view(j, i, 2, child)

    @functools.cache
    def flat(j, used):
        return rows[j][:used].reshape(used, -1)

    tops, entry = [], 1
    for labels, fills, steps in walks:
        reads = []
        for j, cuts in enumerate(fills):
            if any(cuts):
                reads.append((flat(j, len(cuts)), values[entry : entry + len(cuts)]))
                for at, cut in enumerate(cuts, entry):
                    if cut:
                        entry_of_cut[cut] = at
                entry += len(cuts)
        k = len(labels)
        axes = tuple(labels) + tuple(q for q in range(n) if q not in labels)
        tops.append((axes, (1 << k, 1 << (n - k)), rows[k][0], tuple(add(*step) for step in steps), tuple(reads)))
    read = entry_of_cut[plan.cut_of]
    read.flags.writeable = False
    return tuple(tops), values, read


def _program_purities(amps: np.ndarray, plan: _Plan) -> np.ndarray | None:
    """Run ``plan``'s program (``_program``) on one state's amplitudes.

    Each cut reads the node the per-node walk reads, by the same Gram
    product and partial traces and the same ``vecdot`` of one contiguous
    row, so the values agree with the walk's bit for bit. Returns None, for
    the caller to walk a one-row stack, on plans past
    ``_PROGRAM_MAX_QUBITS`` and on a call that finds the program in use by
    another thread. The first call builds the program and later calls reuse
    it; ``_state_purities`` makes none on a plan's first run. The result
    shares no memory with the program.
    """
    if plan.n > _PROGRAM_MAX_QUBITS:
        return None
    scratch = plan.scratch
    if not scratch.lock.acquire(blocking=False):
        return None
    try:
        if scratch.program is None:
            scratch.program = _program(plan)
        tops, values, read = scratch.program
        tensor = amps.reshape((2,) * plan.n)
        for axes, shape, gram, adds, reads in tops:
            _gram(tensor.transpose(axes).reshape(shape), gram)
            for diag0, diag1, into in adds:
                np.add(diag0, diag1, out=into, order="C")
            for rows, into in reads:
                np.vecdot(rows, rows, out=into)
        return values[read]
    finally:
        scratch.lock.release()


def _gathered_purities(amps: np.ndarray, gathered: tuple) -> np.ndarray:
    """Run a plan's gathered form (``_gathered``) on a (B, 2^n) stack:
    ``_subset_purities``, bit for bit.

    Per batch of states, chunk and level: one gather and one stacked
    ``_gram`` product for the level's tops; one ``take`` of block 0 into the
    level, one of block 1 into the workspace and one ``add`` for all its
    traced nodes; one ``vecdot`` for its purities. Each node is the walk's Gram
    product or the walk's sum of the same two entries, and each purity the
    walk's ``vecdot`` of one contiguous row. The nodes live in this
    thread's workspace; the result shares no memory with it.
    """
    batch, (node_space, space), nodes, chunks, read = gathered
    out = np.empty((len(amps), nodes + 1))  # the last entry is the empty cut's
    out[:, nodes] = 1.0
    for start in range(0, len(amps), batch):
        stack, values = amps[start : start + batch], out[start : start + batch]
        count = len(stack)
        work = _workspace(count * space)
        block1 = work[count * node_space :]
        for chunk in chunks:
            for j, at, end, tops, gather, take0, take1, first, last in chunk:
                level = work[count * at : count * end].reshape(count, last - first, 1 << j, 1 << j)
                if gather is not None:
                    _gram(stack.take(gather, 1).reshape(count, tops, 1 << j, -1), level[:, :tops])
                if take0 is not None:
                    traced = level[:, tops:].reshape(count, -1)
                    parent.take(take0, 1, traced, "clip")
                    np.add(traced, parent.take(take1, 1, block1[: count * len(take1)].reshape(count, -1), "clip"), out=traced)
                parent = level.reshape(count, -1)
                flat = level.reshape(count, last - first, -1)
                values[:, first:last] = np.vecdot(flat, flat)
    return out.take(read, 1)


def purity_table(psi: Statevector, s: QubitSet) -> dict[int, float]:
    """Purities for every subset of s as a ``{mask: purity}`` dict (the empty set included)."""
    require_same_qubits(psi, s)
    limits.require("purity-table", s.cardinality)
    plan = _plan(psi.n_qubits, s.mask)
    return dict(zip(plan.subsets.tolist(), _state_purities(psi.amplitudes, plan).tolist()))


def purity_array(psi: Statevector) -> np.ndarray:
    """All 2^n purities of psi as an array indexed by label mask."""
    return _state_purities(psi.amplitudes, _plan(psi.n_qubits, (1 << psi.n_qubits) - 1))


def purity_arrays(states: StateStack | Sequence[Statevector]) -> np.ndarray:
    """All 2^n purities of each state as a (B, 2^n) array; row b is ``purity_array(states[b])``.

    ``states`` is a ``StateStack`` or a nonempty sequence of states sharing
    n; the plan runs once for all of them, by its gathered form from its
    second run on if it has one.
    """
    stack = StateStack.of(states)
    plan = _plan(stack.n_qubits, (1 << stack.n_qubits) - 1)
    gathered = _gathered_form(plan)
    return _subset_purities(stack.amplitudes, plan) if gathered is None else _gathered_purities(stack.amplitudes, gathered)
