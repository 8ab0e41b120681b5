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
top holding one of its sides; and the output index of each subset. The
executor writes every purity into one preallocated array; the empty set is
exactly 1.0 and never computed. It has three forms, one for stacks and two
for one state, chosen per plan when the plan is built (see "Three forms"
below).

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
tie, both on the per-node walk: ``purity_array`` took 42-46 ms at n=12
(0.52-0.58x of the tree's 78-85 ms) and 4.1-5.9 ms at n=10 (0.49-0.58x of
8.3-10.3 ms), with the plan cached. Building the n=12 plan takes 14-20 ms,
paid by the first call for each (n, s) in a process; a one-shot call still
came out faster than the tree's. tracemalloc peak of the walk's
``purity_array`` (tree's in brackets): 0.55-0.58 MB (0.70) at n=12 with the
plan cached, 0.85-0.96 MB on a first call; 1.9 MB (2.8) and 3.4 MB at n=14;
7.6 MB (12.0) and 13.5 MB at n=16. The (n//2 + 1)-qubit rho is 4x the
tree's largest, but the 2^n-amplitude gather and the output dominate the
peak; the plan itself adds the first-call excess. A one-state program
(below) is kept with its plan once the plan has run a second state: for
full plans tracemalloc counts 0.36 MB at n=10, 0.92 MB at n=12, 3.6 MB at
n=14 and 15.6 MB at n=16, and a call with the program built peaks at 0.06,
0.22, 0.59 and 2.4 MB, where the walk's peaks at 0.15, 0.58, 2.0 and 8.0 MB.

``purity_arrays`` runs the same plan for a stack of states of one n: the
Gram products, partial traces and purities keep a leading batch axis, so
each is one numpy call for all B states.

``cross_purities`` gives Tr[rho_alpha rho'_alpha] of B pairs of states
with one gather, Gram product and overlap for the whole stack.

Across the package a single-state function is row 0 of its stacked form
(``cross_purity`` of ``cross_purities``), with its checks only there. The
plan executor is the one exception: one state runs by levels, by a
program, or by the walk on the state itself, with the 2-D BLAS Gram product
and ``np.vdot``, all faster than the walk on a one-row stack (which took
1.11-1.20x the time of the 2-D walk at n=10 in runs of 15 alternating
pairs).

Three forms. The per-node walk runs the plan's steps one node at a time: a
gather and Gram product per top, then one partial trace and one purity per
needed node, pruned to the nodes that fill or feed a cut; each call covers
the whole stack. Stacks always take it, and so does a plan's first
one-state call (see "By program"). One state otherwise takes one of the
other two forms; each reads every cut from the node the walk reads it from,
by the same Gram product and partial traces, so all three give the same
bits.

By levels (``_level_purities``): the tops of each size are gathered and
multiplied as one stack, and every level of their complete subset trees is
built at once, one strided ``np.add`` per (level, traced axis), one
``np.vecdot`` and one scatter per level. The rule (``_runs_by_levels``) is
a property of the plan: two or more tops whose complete trees hold at most
two nonempty nodes per cut. Full plans qualify from n = 5 to 8 (1.3 to 1.7
nodes per cut). There the walk's time is Python call overhead, about 250
numpy calls at n = 8 against about 30 by levels; in medians of 10
alternating in-process pairs on the 2-vCPU host, levels took 0.49x the
walk's time at n=5 (52 against 106 us), 0.47x at n=6, 0.30x at n=7 and
0.34x at n=8 (255 against 754 us). From n = 9 on, full plans do not run by
levels. The complete trees recompute 3.6 nodes per cut at n = 9, 3.7 at
n = 10 and 5.3 at n = 12, and the work turns from call overhead to memory
traffic: at n = 10 levels took 1.4-2.9x the walk's time, and at n = 12 the
two largest adjacent levels would hold 60 MB where the walk keeps 0.5 MB,
while the partial traces there are already bound by memory bandwidth, so
batching them across tops does not pay. (At n = 9 levels took 0.82-0.86x;
the bound of 2 stays clear of the n = 9/10 edge, where 3.55 and 3.67 nodes
per cut are too close for a node count to split.)

By program (``_program_purities``), every other plan: single-top plans and
full plans from n = 9, from their second one-state call on. The program
(``_program``) is the walk for one state with everything but the numbers
worked out once, on that second call, and kept with the plan: each top's
transpose axes, row buffers for its nodes per qubit count, shared by the
tops, and each step's (diag0, diag1, out) views bound to its parent's and
its own row. A top then runs as one Gram product, its ``np.add`` calls, and
one ``np.vecdot`` per qubit count over the rows it filled, scattered into
the cuts; the walk rebuilds its views on every call and makes one purity
call per node (482 partial traces and 512 ``np.vdot`` calls at n = 10). Rows
stay within ``_PROGRAM_LEVEL_BYTES`` (64 KiB) per qubit count: a count
whose rows are full is read before its next node takes row 0 again. Rows
for every node of a top (1.2 MB at n = 12) made the full n = 12 plan slower
than the walk (1.07x in one run of alternating pairs, 0.99x in another that
put the capped program at 0.94x), where capped rows stay in cache. Views
are made once per (count, axis, parent row, child row). A call that finds
the rows in use by another thread (the plan's lock is taken without
waiting) walks the state instead, with the same bits. Against the walk on
one state, in medians of 10 alternating in-process pairs on the 2-vCPU
host: 0.74x at n = 9 (0.92 against 1.24 ms), 0.88x at n = 10 (2.75 against
3.18 ms), 0.90x at n = 11 and 0.94x at n = 12 (31.8 against 35.9 ms) on full
plans; 0.51x on single-top plans at n = 6, 8 and 10 and 0.68x at n = 12. On
the full n = 5..8 plans programs took 0.57-0.70x, where levels take
0.30-0.49x, so levels stay there.

Building a program costs what it saves over two to three calls. In
in-process medians on the 2-vCPU host the build took 1.3, 2.2, 4.2 and 7.6
ms on the full plans at n = 9..12 (the walk 2.2, 4.7, 13.1 and 38.4 ms, the
program 1.6, 4.0, 11.7 and 35.5 ms in that run) and 0.19 and 0.36 ms on the
single-top plans of 5 qubits at n = 10 and 6 at n = 12. So a plan's first
one-state call walks the state and builds nothing: a process that runs a
plan once (one ``ce``, ``dist`` or ``sample`` command) pays what the walk
costs and keeps no program, and the second call builds it. In fresh
processes, 20 alternating rounds against the walk, a first call (plan
included) that built the program took 1.14x at n = 10 and 1.17x at n = 12 on
full plans and 1.23x and 1.34x on those single-top plans (slower in 15 to
19 of 20); walking it first took 0.97-1.09x, within the noise of the same
code. The price is the second call: over a plan's first three calls the
walk-first rule took 1.04-1.11x the walk's time, where building on the
first took 0.97-1.08x. By the build times above, the rule's total drops
below the walk's from the third call (single-top plans) to the fifth (full
n = 10); a ``ce --all-cardinalities --method even_weight_sum`` sweep at
n = 10 (ten calls on the full plan) took 0.92x.
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


# Plans are kept for a process's later calls. A verify run at n_max 6 looks up
# at most 121 distinct plans (every nonempty mask at n = 2..6, full sets at 7
# and 8), so 128 keeps them all; at 64 such a run rebuilt about 150 of them
# each time. The bound keeps a sweep over many masks from piling plans up: a
# full-set plan holds 0.21 MB at n = 12, 0.79 MB at 14 and 2.8 MB at 16, and
# once it has run two states one at a time its program 0.92 MB at n = 12,
# 3.6 MB at 14 and 15.6 MB at 16 more. A plan run once builds no program.
_PLAN_CACHE_SIZE = 128

# A one-state program keeps at most this many bytes of rows per qubit count
# (and at least one row), so its scratch stays within a few times the walk's
# one rho per count and its rows are read while still in cache (see "By
# program" in the module docstring).
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
    tuples. The executor keeps one rho per qubit count k, in slot k. Step j
    traces qubit i of slot k into slot k - 1, where (k, i) =
    ``plan.traces[traces[j]]``, and fills ``cuts[j]`` with the result's
    purity. No top or step computes cut 0, so cut 0 there means only the
    rho is needed, to feed later steps. ``subsets`` lists every
    subset of the mask in ascending order and ``cut_of`` the cut of each.
    ``levels`` holds what ``_levels`` builds when ``_runs_by_levels``
    selects the plan, else None; ``scratch`` holds the one-state program of
    a plan without levels.
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
    larger plans and single-top plans run one state by their program.
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
            gather = np.stack([_gather_matrix(positions, n, labels) for _, labels in roots])
            gather.flags.writeable = False
        fills = np.array([source.get((t, node), spare) for t, node, *_ in level], dtype=np.intp)
        fills.flags.writeable = False
        levels.append((j, gather, tuple(prefixes), fills))
        parent = level
    return tuple(levels)


def _subset_purities(amps: np.ndarray, plan: _Plan) -> np.ndarray:
    """Run ``plan`` on one state's 2^n amplitudes or on a (B, 2^n) stack.

    Returns the purity of each subset in ``plan.subsets`` order, on the last
    axis (rows of a (B, 2^c) array for a stack). One state runs by levels
    (``_level_purities``) if the plan has ``levels``, else by its program
    (``_program_purities``) once the plan has run one state before; anything
    else takes the per-node walk here. In the walk each Gram product,
    partial trace and purity is one numpy call for the whole stack, and one
    state keeps the 2-D BLAS product and ``np.vdot``. The forms and their
    measurements are in the module docstring.
    """
    lead = amps.shape[:-1]
    if not lead:
        if plan.levels is not None:
            return _level_purities(amps, plan)
        values = _program_purities(amps, plan)
        if values is not None:
            return values
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
    bit. Returns None, for the caller to walk the state, on the plan's
    first one-state call and on a call that finds the rows in use by
    another thread; the second call builds the program and later calls
    reuse it.
    """
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
