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

One state (``_state_purities``) runs its plan by levels
(``_level_purities``) or by its program (``_program_purities``); both are
checked bit for bit against the per-node walk on a one-row stack, and with
the selection rule forced on, the level form also against the dense oracle
for n up to 9. A plan's first one-state call, a call that finds the
program's lock taken, and every call on a plan past n = 12 run row 0 of
that stacked walk; the second call builds the program. The program is
checked with rows that are read after every node, across repeated and
interleaved calls, with its lock held and from several threads at once.
"""

import sys
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
    purity_array,
    purity_arrays,
    purity_table,
)
from concentratable import reductions
from concentratable.oracle import dense_reduced_purity
from concentratable.reductions import (
    _level_purities,
    _plan,
    _program_purities,
    _state_purities,
    _subset_purities,
    submasks,
)

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


@st.composite
def states_and_masks(draw):
    psi = draw(states(n_max=9))
    full = (1 << psi.n_qubits) - 1
    return psi, draw(st.just(full) | st.integers(1, full))


@PROPERTY_SETTINGS
@given(states_and_masks())
def test_level_form_matches_per_node_walk_and_dense_oracle(case):
    psi, mask = case
    n = psi.n_qubits
    # Built outside the cache with the selection rule forced on, so every plan has levels.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reductions, "_runs_by_levels", lambda tops, cuts: True)
        plan = _plan.__wrapped__(n, mask)
    levels = _level_purities(psi.amplitudes, plan)
    walked = _subset_purities(psi.amplitudes[None], plan)[0]
    np.testing.assert_allclose(levels, walked, rtol=0, atol=1e-12)
    dense = [dense_reduced_purity(psi, QubitSet(n, sub)) for sub in plan.subsets.tolist()]
    np.testing.assert_allclose(levels, dense, rtol=0, atol=TOL)


def haar_amplitudes(n, seed=0):
    return make_haar_random(n, seed).amplitudes


def run_one(plan, amps):
    """One state's purities by ``plan``, and whether that call built its program."""
    built = plan.scratch.program is None
    values = _state_purities(amps, plan)
    return values, built and plan.scratch.program is not None


def test_selection_rule_sends_multi_top_plans_up_to_n8_to_levels():
    # One state: full plans at n = 5..8 run by levels, all others by row 0 of
    # the stacked walk on their first call and by their program, built on the
    # second, from then on.
    for n, mask, levels in (
        [(n, (1 << n) - 1, True) for n in (5, 6, 7, 8)]
        + [(n, (1 << n) - 1, False) for n in (2, 3, 4, 9, 10, 12)]
        + [(4, 0b1111, False), (6, 0b111, False), (8, 0b1111, False), (8, 0b10110001, False)]
    ):
        plan = _plan.__wrapped__(n, mask)
        assert (plan.levels is not None) == levels
        # A stack never builds a program.
        _subset_purities(haar_amplitudes(n)[None], plan)
        assert plan.scratch.program is None
        _, built = run_one(plan, haar_amplitudes(n))
        assert not built and plan.scratch.walked != levels
        _, built = run_one(plan, haar_amplitudes(n))
        assert built != levels
    for n, mask in ((4, 0b1111), (6, 0b111), (8, 0b1111), (8, 0b10110001)):
        assert len(_plan(n, mask).tops) == 1


@st.composite
def amplitudes_and_masks(draw):
    n = draw(st.integers(1, 12))
    full = (1 << n) - 1
    mask = draw(st.just(full) | st.integers(1, full))
    return haar_amplitudes(n, draw(seeds)), n, mask


@settings(max_examples=30, deadline=None)
@given(amplitudes_and_masks(), st.sampled_from([None, 16]))
@example((haar_amplitudes(12), 12, 4095), None)
@example((haar_amplitudes(11), 11, 2047), 16)
def test_one_state_equals_stacked_walk_bit_for_bit(case, level_bytes):
    amps, n, mask = case
    with pytest.MonkeyPatch.context() as patch:
        if level_bytes is not None:
            # One row per qubit count: the program reads every node as soon as the next one comes.
            patch.setattr(reductions, "_PROGRAM_LEVEL_BYTES", level_bytes)
        plan = _plan.__wrapped__(n, mask)
        # The first call runs the one-row stacked walk, the second the program (or levels).
        first, second = (_state_purities(amps, plan) for _ in range(2))
    walked = _subset_purities(amps[None], plan)[0]
    for one in (first, second):
        assert one.dtype == walked.dtype and one.shape == walked.shape
        assert one.tobytes() == walked.tobytes()


def test_repeated_and_interleaved_calls_agree():
    cases = [(n, (1 << n) - 1) for n in (9, 10)] + [(10, 0b1011011), (12, 0b111111), (3, 0b101)]
    plans = [_plan.__wrapped__(n, mask) for n, mask in cases]
    states = [[haar_amplitudes(n, seed) for seed in (1, 2)] for n, _ in cases]
    first = [[_subset_purities(amps[None], plan)[0] for amps in pair] for plan, pair in zip(plans, states)]
    for _ in range(3):
        for plan, pair, expected in zip(plans, states, first):
            for amps, values in zip(pair, expected):
                assert _state_purities(amps, plan).tobytes() == values.tobytes()


def program_views(plan):
    """Every array a plan's program writes: Gram rows, partial-trace targets and read rows."""
    for _, _, gram, segments in plan.scratch.program:
        yield gram
        for adds, reads in segments:
            yield from (into for *_, into in adds)
            yield from (rows for rows, _ in reads)


@pytest.mark.parametrize("n, mask", [(10, 1023), (12, 0b111111), (9, 0b110101101)])
def test_result_shares_no_memory_with_the_program(n, mask):
    plan = _plan.__wrapped__(n, mask)
    values = [_state_purities(haar_amplitudes(n, seed), plan) for seed in (1, 2)]
    assert not any(np.shares_memory(v, view) for v in values for view in program_views(plan))


def test_busy_scratch_falls_back_to_the_per_node_walk():
    plan = _plan.__wrapped__(10, 1023)
    amps = haar_amplitudes(10, 4)
    walked = _subset_purities(amps[None], plan)[0].tobytes()
    # The first one-state call declines, so the caller runs the one-row stacked walk.
    assert _program_purities(amps, plan) is None
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
    assert plan.scratch.program is None


def test_threads_on_one_plan_agree():
    # More threads than cores and a short switch interval, so calls overlap on
    # the plan's rows unless its lock sends all but one to the fallback.
    plan = _plan.__wrapped__(10, 1023)
    states = [haar_amplitudes(10, seed) for seed in range(16)]
    expected = [_subset_purities(amps[None], plan)[0].tobytes() for amps in states]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                got = pool.map(lambda amps: _state_purities(amps, plan).tobytes(), states, timeout=60)
                assert list(got) == expected
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
