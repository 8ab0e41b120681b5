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
"""

import numpy as np
import pytest
from hypothesis import given, settings
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
from concentratable.oracle import dense_reduced_purity
from concentratable.reductions import submasks

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
