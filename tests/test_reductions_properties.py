"""Property tests of the purity-plan kernel.

``purity_table`` and ``purity_array`` are checked entry by entry against the
dense density-matrix oracle on random Haar and product states, including the
cardinalities where the smaller side of a cut flips (c = n//2 + 1) and the
even-n tie (c = n/2). ``purity_arrays`` runs the same plan for a stack of
states and is checked against both, row by row.

Past the dense oracle's reach, graph states give exact references: for the
graph state of adjacency matrix G, Tr rho_A^2 = 2^-rank(G[A, complement of A])
with the rank over GF(2) (Hein, Eisert and Briegel, PRA 69, 062311, 2004).
Local phases and a relabelling keep that form, so the tie cuts at n = 12,
which the plan answers from (n/2 + 1)-qubit tops, are checked exactly.
``make_graph_state`` builds the plain graph states, on which C(s) from the
purity kernel and the subset-sum transform, and from the Walsh law, is
checked against the same formula up to n = 14.

A plan's first run walks; from its second run on, one state or a stack
takes its gathered form (``_gathered_purities``) if it has one, and one
state otherwise takes its program (``_program_purities``). The gathered form
is checked bit for bit against the per-node walk (``_subset_purities``) for
one state at n = 1..11 and for stacks, on random masks, against the dense
oracle, and on first, repeated and interleaved calls and from eight threads
at once; its indices are checked against their byte cap. The program is
checked for the rows it keeps, the reads each top makes and its size,
with its lock held and from several threads at once. A call that finds the program's lock taken,
and every call on a plan past n = 12, runs row 0 of the stacked walk.

The walk and the program share one helper for the views of a partial trace
(``_trace_views``), so they are also held to references that do not use
it: the plain sum of the two diagonal blocks for every (k, i), on real and
complex rows, and a per-node walk written out below for the full plans at
n = 11 and 12.

Every form holds S = Re rho + Im rho at its nodes, made by one shared
helper (``_gram``). So the forms are also held, on one state and on
stacks, to the complex single-cut ``purity``, which shares no code with
them past the gather: a fault in ``_gram`` that all forms share, which the
bitwise comparisons cannot see, fails there.
"""

import functools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concentratable import (
    QubitSet,
    Statevector,
    ce_all_subsets,
    ce_even_weight,
    ce_purity,
    make_graph_state,
    make_haar_random,
    make_product,
    permute_qubits,
    purity,
    purity_array,
    purity_arrays,
    purity_table,
)
from concentratable import reductions
from concentratable.oracle import dense_reduced_purity
from concentratable.reductions import (
    _gathered,
    _gathered_purities,
    _plan,
    _program_purities,
    _state_purities,
    _subset_purities,
    _trace_views,
    submasks,
)
from concentratable.verify import run_suite

TOL = 1e-12
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def random_product(n, seed):
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return make_product([f / np.linalg.norm(f) for f in factors])


@st.composite
def states(draw, n_min=1, n_max=7):
    n = draw(st.integers(n_min, n_max))
    make = draw(st.sampled_from([make_haar_random, random_product]))
    return make(n, draw(seeds))


@st.composite
def states_and_subsets(draw):
    psi = draw(states())
    n = psi.n_qubits
    # The smaller side flips above n/2, and even n has a tie at n/2.
    special = [n // 2 + 1] if n % 2 else [n // 2, n // 2 + 1]
    cardinality = draw(st.sampled_from(special) | st.integers(1, n))
    labels = draw(st.permutations(range(n)))[:cardinality]
    return psi, QubitSet.from_labels(n, labels)


@PROPERTY_SETTINGS
@given(states_and_subsets())
def test_purity_table_matches_dense_oracle(case):
    psi, s = case
    table = purity_table(psi, s)
    assert len(table.values) == 1 << s.cardinality
    for mask, value in table.values.items():
        assert mask & ~s.mask == 0
        assert abs(value - dense_reduced_purity(psi, QubitSet(psi.n_qubits, mask))) <= TOL


@PROPERTY_SETTINGS
@given(states())
def test_purity_array_matches_dense_oracle(psi):
    n = psi.n_qubits
    dense = [dense_reduced_purity(psi, QubitSet(n, mask)) for mask in range(1 << n)]
    np.testing.assert_allclose(purity_array(psi), dense, rtol=0, atol=TOL)


def stacks(n):
    return st.lists(states(n_min=n, n_max=n), min_size=1, max_size=8)


@PROPERTY_SETTINGS
@given(st.integers(1, 7).flatmap(stacks))
def test_purity_arrays_match_each_state(stack):
    n = stack[0].n_qubits
    batched = purity_arrays(stack)
    assert batched.shape == (len(stack), 1 << n)
    for row, psi in zip(batched, stack):
        np.testing.assert_allclose(row, purity_array(psi), rtol=0, atol=TOL)
        dense = [dense_reduced_purity(psi, QubitSet(n, mask)) for mask in range(1 << n)]
        np.testing.assert_allclose(row, dense, rtol=0, atol=TOL)


def haar_amplitudes(n, seed=0):
    return make_haar_random(n, seed).amplitudes


def haar_stack(n, seeds):
    """The states of ``seeds`` as a list, and their (B, 2^n) amplitudes."""
    states = [make_haar_random(n, seed) for seed in seeds]
    return states, np.stack([psi.amplitudes for psi in states])


def gathered_form(n, mask):
    """A fresh plan for (n, mask) and its gathered form (None if it has none)."""
    plan = _plan.__wrapped__(n, mask)
    return plan, _gathered(plan)


def index_bytes(gathered):
    *_, chunks, read = gathered
    arrays = [a for chunk in chunks for level in chunk for a in level[4:7] if a is not None]
    return sum(a.nbytes for a in arrays) + read.nbytes


@st.composite
def masks(draw, n_min=1, n_max=11):
    n = draw(st.integers(n_min, n_max))
    full = (1 << n) - 1
    return n, draw(st.just(full) | st.integers(1, full))


@settings(max_examples=60, deadline=None)
@given(masks(), seeds)
@example((10, 1023), 1)
@example((9, 0b10111111), 2)
@example((14, 0b1111111), 3)
def test_gathered_form_equals_walk_bit_for_bit(case, seed):
    n, mask = case
    plan, gathered = gathered_form(n, mask)
    amps = haar_amplitudes(n, seed)
    walked = _subset_purities(amps[None], plan)
    if gathered is not None:
        one = _gathered_purities(amps[None], gathered)
        assert one.dtype == walked.dtype and one.shape == walked.shape
        assert one.tobytes() == walked.tobytes()
    # First, second and third one-state calls: the walk, then the gathered form or the program.
    for _ in range(3):
        assert _state_purities(amps, plan).tobytes() == walked[0].tobytes()
    assert bool(plan.scratch.gathered) == (gathered is not None)


@settings(max_examples=40, deadline=None)
@given(masks(n_max=7), st.lists(seeds, min_size=1, max_size=8))
@example((9, 0b10111111), [1, 2, 3, 4, 5])
def test_gathered_stacks_equal_walk_bit_for_bit(case, seed_list):
    n, mask = case
    plan, gathered = gathered_form(n, mask)
    states, stack = haar_stack(n, seed_list)
    walked = _subset_purities(stack, plan)
    if gathered is not None:
        assert _gathered_purities(stack, gathered).tobytes() == walked.tobytes()
    if mask == (1 << n) - 1:
        # purity_arrays walks a plan's first run and takes its gathered form from the second.
        for _ in range(2):
            assert purity_arrays(states).tobytes() == walked.tobytes()


def test_stacks_run_in_blocks_of_rows():
    # Levels that hold both tops and traced nodes, in blocks of two states and
    # (the full plan at n = 10) one state at a time.
    for n, mask, block in ((9, 0b10111111, 2), (10, 1023, 1)):
        plan, gathered = gathered_form(n, mask)
        assert gathered[0] == block
        assert any(level[4] is not None and level[5] is not None for chunk in gathered[3] for level in chunk)
        _, stack = haar_stack(n, range(5))
        assert _gathered_purities(stack, gathered).tobytes() == _subset_purities(stack, plan).tobytes()


@PROPERTY_SETTINGS
@given(states(n_min=5, n_max=9), st.integers(1, 511))
def test_gathered_form_matches_dense_oracle(psi, mask):
    n = psi.n_qubits
    mask = mask & ((1 << n) - 1) or (1 << n) - 1
    plan, gathered = gathered_form(n, mask)
    if gathered is not None:
        dense = [dense_reduced_purity(psi, QubitSet(n, sub)) for sub in plan.subsets.tolist()]
        np.testing.assert_allclose(_gathered_purities(psi.amplitudes[None], gathered)[0], dense, rtol=0, atol=TOL)


def test_which_plans_are_gathered():
    # Dense plans under the byte cap are gathered; sparse ones (c <= 3 on one
    # top), the full plans past n = 10 and plans with no Gram product are not.
    gathered = [(n, (1 << n) - 1) for n in range(5, 11)] + [(8, 0b1111), (10, 0b11111), (14, 0b1111111)]
    others = [(n, (1 << n) - 1) for n in (1, 2, 3, 4, 11, 12, 13)] + [(6, 0b111), (10, 1), (12, 0b11)]
    for n, mask in gathered + others:
        assert (gathered_form(n, mask)[1] is not None) == ((n, mask) in gathered), (n, mask)
    # Single-top plans of eight qubits are past the cap.
    assert gathered_form(16, 0xFF)[1] is None


def test_index_bytes_stay_under_the_cap():
    rng = np.random.default_rng(22)
    cases = [(n, (1 << n) - 1) for n in range(1, 11)] + [(14, 0x7F), (16, 0x7F)]
    cases += [(n, int(rng.integers(1, 1 << n))) for n in range(2, 13) for _ in range(6)]
    largest = 0
    for n, mask in cases:
        gathered = gathered_form(n, mask)[1]
        if gathered is not None:
            largest = max(largest, index_bytes(gathered))
    assert 0.8e6 < largest <= reductions._GATHERED_MAX_BYTES
    # 128 cached plans hold at most about 118 MB of indices.
    assert 128 * reductions._GATHERED_MAX_BYTES <= 118e6
    # The largest program, the full plan's at n = 12, takes about 0.86 MB (0.62 MB of
    # rows): 128 cached plans hold at most about 115 MB of programs.
    plan = _plan.__wrapped__(12, 4095)
    reductions._program(plan)  # measure a second build: the first also counts one-time allocations
    tracemalloc.start()
    try:
        program = reductions._program(plan)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert program and 0.8e6 < size and 128 * size <= 115e6


@pytest.mark.parametrize("n", [11, 12])
def test_full_plans_past_n10_take_the_program_and_equal_the_walk(n):
    plan = _plan.__wrapped__(n, (1 << n) - 1)
    amps = haar_amplitudes(n, 7)
    walked = _subset_purities(amps[None], plan)[0].tobytes()
    for _ in range(3):
        assert _state_purities(amps, plan).tobytes() == walked
    assert plan.scratch.gathered is False and plan.scratch.program is not None
    states, stack = haar_stack(n, (7, 8))
    assert purity_arrays(states).tobytes() == _subset_purities(stack, plan).tobytes()


def plain_partial_trace(rho, k, i):
    """Tr_i of a (..., 2^k, 2^k) rho: the sum of the traced qubit's diagonal blocks."""
    inner = 1 << (k - 1 - i)
    t = rho.reshape(rho.shape[:-2] + (1 << i, 2, inner, 1 << i, 2, inner))
    return (t[..., 0, :, :, 0, :] + t[..., 1, :, :, 1, :]).reshape(rho.shape[:-2] + (1 << (k - 1),) * 2)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("k", range(1, 9))
def test_trace_views_equal_the_plain_partial_trace(k, rows, dtype):
    lead = () if rows is None else (rows,)
    rng = np.random.default_rng(k)
    rho = rng.standard_normal(lead + (1 << k, 1 << k)) + 1j * rng.standard_normal(lead + (1 << k, 1 << k))
    rho = rho if dtype is complex else rho.real + rho.imag
    for i in range(k):
        child = np.full(lead + (1 << (k - 1),) * 2, np.nan, dtype=dtype)
        diag0, diag1, into = _trace_views(rho, child, k, i)
        np.add(diag0, diag1, out=into, order="C")
        assert child.tobytes() == plain_partial_trace(rho, k, i).tobytes(), (k, i)


def reference_walk(amps, plan):
    """One state's purities by the plan's per-node walk, one plain partial trace a step.

    Each node holds S = Re rho + Im rho. A top's S is L R^T, where R holds
    each column's (x, y) = (Re M, Im M) side by side and L holds (x + y, y - x).
    """
    n = plan.n
    out = np.empty(plan.cuts)
    out[0] = 1.0
    for labels, cut, step_traces, step_cuts in plan.tops:
        k = len(labels)
        axes = list(labels) + [q for q in range(n) if q not in labels]
        matrix = amps.reshape((2,) * n).transpose(axes).reshape(1 << k, -1)
        x, y = matrix.real, matrix.imag
        left = np.stack([x + y, y - x], axis=-1).reshape(1 << k, -1)
        right = np.stack([x, y], axis=-1).reshape(1 << k, -1)
        nodes = {k: left @ right.T}
        if cut:
            out[cut] = np.vecdot(nodes[k].ravel(), nodes[k].ravel())
        for trace, cut in zip(step_traces, step_cuts):
            j, i = plan.traces[trace]
            nodes[j - 1] = plain_partial_trace(nodes[j], j, i)
            if cut:
                out[cut] = np.vecdot(nodes[j - 1].ravel(), nodes[j - 1].ravel())
    return out[plan.cut_of]


@pytest.mark.parametrize("n", [11, 12])
def test_full_plans_equal_a_plain_walk(n, monkeypatch):
    # A fresh plan cache: the first call walks, the third runs the program.
    monkeypatch.setattr(reductions, "_plan", functools.lru_cache(maxsize=4)(_plan.__wrapped__))
    psi = make_haar_random(n, 11)
    expected = reference_walk(psi.amplitudes, reductions._plan(n, (1 << n) - 1)).tobytes()
    first, _, third = (purity_array(psi) for _ in range(3))
    assert reductions._plan(n, (1 << n) - 1).scratch.program is not None
    assert first.tobytes() == expected
    assert third.tobytes() == expected


@settings(max_examples=30, deadline=None)
@given(masks(n_max=12), seeds)
@example((12, 4095), 0)
@example((11, 2047), 0)
def test_one_state_equals_stacked_walk_bit_for_bit(case, seed):
    n, mask = case
    amps = haar_amplitudes(n, seed)
    plan = _plan.__wrapped__(n, mask)
    # The first call runs the one-row stacked walk, the second the gathered form or the program.
    first, second = (_state_purities(amps, plan) for _ in range(2))
    walked = _subset_purities(amps[None], plan)[0]
    for one in (first, second):
        assert one.dtype == walked.dtype and one.shape == walked.shape
        assert one.tobytes() == walked.tobytes()


@settings(max_examples=25, deadline=None)
@given(masks(n_max=12), seeds)
@example((12, 4095), 3)
@example((10, 1023), 3)
@example((7, 0b1011011), 3)
def test_every_form_equals_the_single_cut_purity(case, seed):
    # First, second and third one-state calls (the walk, then the gathered form or
    # the program), and the walk and the gathered form on one-row and 3-row stacks,
    # each against the complex single-cut purity of every cut.
    n, mask = case
    plan, gathered = gathered_form(n, mask)
    states, stack = haar_stack(n, (seed, seed ^ 1, seed ^ 2))
    subsets = [QubitSet(n, sub) for sub in plan.subsets.tolist()]
    expected = np.array([[purity(psi, alpha) for alpha in subsets] for psi in states])
    runs = [(_state_purities(stack[0], plan), expected[0]) for _ in range(3)]
    for rows in (stack[:1], stack):
        runs.append((_subset_purities(rows, plan), expected[: len(rows)]))
        if gathered is not None:
            runs.append((_gathered_purities(rows, gathered), expected[: len(rows)]))
    for values, reference in runs:
        np.testing.assert_allclose(values, reference, rtol=0, atol=1e-14)


def test_injected_gram_without_imaginary_part_is_caught(monkeypatch):
    # Harness self-test: a Gram that drops Im rho (L = R, so S = Re rho) is shared
    # by every form, so the bitwise comparisons between forms cannot see it. The
    # suite's route-agreement (against the SWAP-test law) and the single-cut
    # property above must. Only complex states expose it; Haar states are complex.
    def real_part_only(matrix, out):
        right = np.ascontiguousarray(matrix).view(np.float64)
        return np.matmul(right, right.mT, out=out)

    monkeypatch.setattr(reductions, "_gram", real_part_only)
    report = run_suite(trials=10, n_max=4, seed=9, properties=["route-agreement"])[0]
    assert not report.passed and report.witness
    for case in ((12, 4095), (10, 1023), (7, 0b1011011)):
        with pytest.raises(AssertionError):
            test_every_form_equals_the_single_cut_purity.hypothesis.inner_test(case, 3)


def test_repeated_and_interleaved_calls_agree():
    cases = [(n, (1 << n) - 1) for n in (9, 10, 11)] + [(10, 0b1011011), (12, 0b111111), (3, 0b101)]
    plans = [_plan.__wrapped__(n, mask) for n, mask in cases]
    states = [[haar_amplitudes(n, seed) for seed in (1, 2)] for n, _ in cases]
    first = [[_subset_purities(amps[None], plan)[0] for amps in pair] for plan, pair in zip(plans, states)]
    for _ in range(3):
        for plan, pair, expected in zip(plans, states, first):
            for amps, values in zip(pair, expected):
                assert _state_purities(amps, plan).tobytes() == values.tobytes()


def program_views(plan):
    """Every array a plan's program writes: Gram rows, partial-trace targets, read rows and values."""
    tops, values, _ = plan.scratch.program
    yield values
    for _, _, gram, adds, reads in tops:
        yield gram
        yield from (into for *_, into in adds)
        for rows, into in reads:
            yield from (rows, into)


def top_nodes(plan, top):
    """Per qubit count, the cuts that the walk's nodes of that count fill for one top (0: none)."""
    labels, cut, step_traces, step_cuts = top
    fills = [[] for _ in range(len(labels) + 1)]
    fills[len(labels)].append(cut)
    for trace, cut in zip(step_traces, step_cuts):
        fills[plan.traces[trace][0] - 1].append(cut)
    return fills


@pytest.mark.parametrize("n, mask", [(11, 2047), (12, 4095), (12, 0b111), (11, 0b10110111011), (10, 0b1101101011)])
def test_program_rows_fit_the_largest_top_and_each_top_reads_each_count_once(n, mask):
    plan = _plan.__wrapped__(n, mask)
    fills = [top_nodes(plan, top) for top in plan.tops]
    largest = {}
    for top in fills:
        for j, cuts in enumerate(top):
            if cuts:
                largest[j] = max(largest.get(j, 0), len(cuts))
    tops, _, _ = reductions._program(plan)
    # Every array the program writes is a view of one row buffer per qubit count.
    buffers = {}
    for _, _, gram, adds, reads in tops:
        for view in (gram, *(into for *_, into in adds), *(rows for rows, _ in reads)):
            buffers[id(view.base)] = view.base
    assert sorted((base.shape[-1].bit_length() - 1, len(base)) for base in buffers.values()) == sorted(largest.items())
    # Each top reads, once, every count whose nodes fill a cut: all its rows of that count.
    for top, cuts in zip(tops, fills):
        read = [(rows.shape[-1].bit_length() // 2, len(rows)) for rows, _ in top[4]]
        assert read == [(j, len(row_cuts)) for j, row_cuts in enumerate(cuts) if any(row_cuts)]


@pytest.mark.parametrize("n, mask", [(11, 2047), (12, 0b11), (9, 0b101)])
def test_result_shares_no_memory_with_the_program(n, mask):
    plan = _plan.__wrapped__(n, mask)
    values = [_state_purities(haar_amplitudes(n, seed), plan) for seed in (1, 2, 3)]
    assert plan.scratch.program is not None
    assert not any(np.shares_memory(v, view) for v in values for view in program_views(plan))


def test_result_shares_no_memory_with_the_workspace():
    plan = _plan.__wrapped__(10, 1023)
    values = [_state_purities(haar_amplitudes(10, seed), plan) for seed in (1, 2, 3)]
    stacked = purity_arrays([make_haar_random(10, 4)])
    assert plan.scratch.gathered
    workspace = reductions._workspace(0)
    assert not any(np.shares_memory(v, workspace) for v in values + [stacked])


def test_busy_scratch_falls_back_to_the_per_node_walk():
    plan = _plan.__wrapped__(11, 2047)
    amps = haar_amplitudes(11, 4)
    walked = _subset_purities(amps[None], plan)[0].tobytes()
    # The first one-state call walks and builds nothing.
    assert _state_purities(amps, plan).tobytes() == walked
    assert plan.scratch.walked and plan.scratch.program is None
    with plan.scratch.lock:
        assert _program_purities(amps, plan) is None
        busy = _state_purities(amps, plan)
    # The fallback ran: the program is built only by a call that holds the lock.
    assert plan.scratch.program is None
    assert busy.tobytes() == walked
    assert _program_purities(amps, plan).tobytes() == walked
    assert plan.scratch.program is not None


def test_plans_past_n12_build_no_program():
    plan = _plan.__wrapped__(13, (1 << 13) - 1)
    amps = haar_amplitudes(13, 5)
    walked = _subset_purities(amps[None], plan)[0].tobytes()
    # Every one-state call, the second and third included, runs the one-row stacked walk.
    for _ in range(3):
        assert _state_purities(amps, plan).tobytes() == walked
    assert plan.scratch.program is None and plan.scratch.gathered is False


@pytest.mark.parametrize("n, mask", [(10, 1023), (11, 2047), (7, 0b1011)])
def test_threads_on_one_plan_agree(n, mask):
    # More threads than cores and a short switch interval, so calls overlap:
    # each thread's gathered run has its own workspace, and the program's lock
    # sends all but one program call to the walk.
    plan = _plan.__wrapped__(n, mask)
    states = [haar_amplitudes(n, seed) for seed in range(16)]
    expected = [_subset_purities(amps[None], plan)[0].tobytes() for amps in states]
    rows, stack = haar_stack(n, range(3))
    stacked = _subset_purities(stack, plan).tobytes()
    full = mask == (1 << n) - 1

    def run(amps):
        if full and amps is states[0]:
            # purity_arrays reads the cached plan of (n, full), not this one.
            assert purity_arrays(rows).tobytes() == stacked
        return _state_purities(amps, plan).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(3):
                assert list(pool.map(run, states, timeout=60)) == expected
    finally:
        sys.setswitchinterval(interval)


def gf2_rank(rows):
    """Rank over GF(2) of the matrix whose rows are the bitmasks in ``rows``."""
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [row ^ pivot if row & low else row for row in rows]
    return rank


def graph_state(n, seed):
    """A random graph state with random local phases, relabelled at random.

    Returns the state and the adjacency rows (bitmasks) of its relabelled graph.
    """
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.8), 1).astype(int)
    # Axis k of the amplitude tensor is qubit k.
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    cz = np.einsum("xa,ab,xb->x", bits, upper, bits) % 2
    phases = bits @ rng.uniform(0, 2 * np.pi, n)
    psi = Statevector(n, (-1.0) ** cz * np.exp(1j * phases) / 2 ** (n / 2))
    permutation = rng.permutation(n)
    adjacency = upper + upper.T
    rows = [0] * n
    for a in range(n):
        for b in range(n):
            if adjacency[a, b]:
                rows[permutation[a]] |= 1 << int(permutation[b])
    return permute_qubits(psi, [int(k) for k in permutation]), rows


def graph_purity(rows, n, mask):
    """2^-rank of the adjacency block between the qubits in ``mask`` and the rest."""
    outside = ((1 << n) - 1) ^ mask
    return 2.0 ** -gf2_rank(rows[k] & outside for k in range(n) if mask >> k & 1)


@st.composite
def graph_cases(draw):
    n = draw(st.sampled_from([8, 10, 12, 11]))
    cardinality = draw(st.sampled_from([n // 2, n // 2 + 1, n]) | st.integers(1, n))
    labels = draw(st.permutations(range(n)))[:cardinality]
    return n, draw(seeds), draw(seeds), QubitSet.from_labels(n, labels)


@settings(max_examples=12, deadline=None)
@given(graph_cases())
def test_purities_match_graph_state_ranks(case):
    n, seed, other_seed, s = case
    psi, rows = graph_state(n, seed)
    phi, other_rows = graph_state(n, other_seed)
    exact = np.array([graph_purity(rows, n, mask) for mask in range(1 << n)])
    other_exact = np.array([graph_purity(other_rows, n, mask) for mask in range(1 << n)])
    np.testing.assert_allclose(purity_array(psi), exact, rtol=0, atol=TOL)
    np.testing.assert_allclose(purity_arrays([psi, phi]), [exact, other_exact], rtol=0, atol=TOL)
    table = purity_table(psi, s)
    assert set(table.values) == {mask for mask in range(1 << n) if mask & ~s.mask == 0}
    for mask, value in table.values.items():
        assert abs(value - exact[mask]) <= TOL
    total = sum(exact[mask] for mask in table.values)
    assert abs(ce_purity(psi, s).value - (1 - total / 2**s.cardinality)) <= TOL


@pytest.mark.parametrize("n", [8, 10, 12, 14])
def test_graph_state_ce_matches_rank_formula(n):
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.5, 1).astype(int)
    adjacency = upper + upper.T
    psi = make_graph_state(adjacency)
    rows = [sum(1 << b for b in range(n) if adjacency[a, b]) for a in range(n)]
    exact = np.array([graph_purity(rows, n, mask) for mask in range(1 << n)])
    ce = ce_all_subsets(purity_array(psi))
    np.testing.assert_allclose(ce, ce_all_subsets(exact), rtol=0, atol=TOL)
    # C(s) = 1 - 2^-c(s) * (sum of 2^-rank over the subsets of s), summed directly.
    masks = [(1 << n) - 1, (1 << (n // 2)) - 1] + rng.integers(1, 1 << n, 4).tolist()
    expected = {
        mask: 1.0 - sum(exact[sub] for sub in submasks(mask)) / 2 ** mask.bit_count()
        for mask in masks
    }
    for mask in masks:
        assert abs(ce[mask] - expected[mask]) <= TOL
    # The Walsh route costs one 2^n purity array per call (0.7 s at n = 14): one s per n.
    assert abs(ce_even_weight(psi, QubitSet(n, masks[-1])).value - expected[masks[-1]]) <= TOL
