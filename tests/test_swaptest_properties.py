"""Property tests of the SWAP-test routes on random states.

The pair-basis kernel is checked on unequal Haar copies and random tested
subsets against the explicit ancilla+Fredkin circuit and against dense
(1 +/- S_k)/2 matrices; the purity+Walsh law of identical copies is checked
on random tested subsets of Haar, GHZ, W, product and graph states against
the pair basis and the circuit; the sampler's histograms are checked against
the circuit's law by an exact binomial test at the 5-sigma level. The
outcome-table writer is checked against ``json.dumps`` of the record forms
on laws and histograms with extreme values.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concentratable import (
    JointState,
    OutcomeDistribution,
    QubitSet,
    ShotHistogram,
    apply_controlled_projector,
    exact_distribution,
    full_circuit_oracle,
    full_distribution_via_purities,
    identical_copy_distribution,
    make_ghz,
    make_graph_state,
    make_haar_random,
    make_product,
    make_w,
    outcome_probability,
    pair_marginal,
    post_measurement,
    sample,
    singlet_fidelity,
    zero_outcome_probability,
)
import concentratable.cli as cli_module
from concentratable.measures import ce_from_histogram
from concentratable.swaptest import (
    distribution_from_dict,
    distribution_to_dict,
    histogram_from_dict,
    histogram_to_dict,
    outcome_table_json,
)

TOL = 1e-12
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def unequal_copies(draw, n_max=4):
    n = draw(st.integers(1, n_max))
    seed = draw(seeds)
    seed_prime = draw(seeds.filter(lambda s: s != seed))
    return make_haar_random(n, seed), make_haar_random(n, seed_prime)


@st.composite
def copies_and_subset(draw):
    psi, psi_prime = draw(unequal_copies())
    mask = draw(st.integers(1, (1 << psi.n_qubits) - 1))
    return psi, psi_prime, QubitSet(psi.n_qubits, mask)


@st.composite
def copies_and_bitstring(draw):
    psi, psi_prime = draw(unequal_copies())
    z = draw(st.text(alphabet="01", min_size=psi.n_qubits, max_size=psi.n_qubits))
    return psi, psi_prime, z


def dense_swap(m, k):
    """Permutation matrix exchanging copy-A qubit k with copy-B qubit k."""
    index = np.arange(1 << (2 * m)).reshape((2,) * (2 * m))
    source = np.swapaxes(index, k, m + k).reshape(-1)
    return np.eye(1 << (2 * m))[source]


@PROPERTY_SETTINGS
@given(copies_and_subset())
def test_distribution_matches_circuit_oracle(case):
    psi, psi_prime, tested = case
    exact = exact_distribution(psi, psi_prime, tested).probabilities
    oracle = full_circuit_oracle(psi, psi_prime, tested).probabilities
    np.testing.assert_allclose(exact, oracle, rtol=0, atol=TOL)
    p_zero = zero_outcome_probability(psi, psi_prime, tested)
    assert abs(p_zero - oracle[0]) <= TOL


@PROPERTY_SETTINGS
@given(copies_and_bitstring())
def test_outcome_probability_matches_circuit_oracle(case):
    psi, psi_prime, z = case
    oracle = full_circuit_oracle(psi, psi_prime, QubitSet.full(psi.n_qubits))
    assert abs(outcome_probability(psi, psi_prime, z) - oracle.probability(z)) <= TOL


@PROPERTY_SETTINGS
@given(st.integers(1, 4), seeds, st.data())
def test_controlled_projector_matches_dense_matrix(m, seed, data):
    # A generic joint vector, not only a product of two copies.
    joint = JointState(m, make_haar_random(2 * m, seed).amplitudes)
    k = data.draw(st.integers(0, m - 1))
    z_bit = data.draw(st.integers(0, 1))
    sign = 1.0 if z_bit == 0 else -1.0
    dense = 0.5 * (np.eye(1 << (2 * m)) + sign * dense_swap(m, k))
    projected = apply_controlled_projector(joint, k, z_bit)
    np.testing.assert_allclose(projected.amplitudes, dense @ joint.amplitudes, rtol=0, atol=TOL)


@PROPERTY_SETTINGS
@given(copies_and_bitstring())
def test_post_measurement_leaves_singlets(case):
    psi, psi_prime, z = case
    assume(outcome_probability(psi, psi_prime, z) > 1e-6)
    outcome = post_measurement(psi, psi_prime, z)
    for k, bit in enumerate(z):
        if bit == "1":
            fidelity = singlet_fidelity(pair_marginal(outcome.post_state, k))
            assert abs(fidelity - 1.0) <= TOL


@PROPERTY_SETTINGS
@given(st.integers(1, 4), seeds)
def test_purity_walsh_law_matches_circuit_oracle(n, seed):
    psi = make_haar_random(n, seed)
    via_purities = full_distribution_via_purities(psi).probabilities
    oracle = full_circuit_oracle(psi, psi, QubitSet.full(n)).probabilities
    np.testing.assert_allclose(via_purities, oracle, rtol=0, atol=TOL)


@st.composite
def identical_copy_cases(draw, n_max=8):
    n = draw(st.integers(1, n_max))
    kind = draw(st.sampled_from(["haar", "ghz", "w", "product", "graph"]))
    if kind == "haar":
        psi = make_haar_random(n, draw(seeds))
    elif kind == "ghz":
        psi = make_ghz(n)
    elif kind == "w":
        psi = make_w(n)
    elif kind == "product":
        angles = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=2 * n, max_size=2 * n))
        psi = make_product(
            [(math.cos(t / 2), math.sin(t / 2) * complex(math.cos(f), math.sin(f)))
             for t, f in zip(angles[::2], angles[1::2])]
        )
    else:
        edges = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        upper = np.triu(np.array(edges, dtype=int).reshape(n, n), 1)
        psi = make_graph_state(upper + upper.T)
    mask = draw(st.integers(1, (1 << n) - 1))
    return psi, QubitSet(n, mask)


@PROPERTY_SETTINGS
@given(identical_copy_cases())
def test_identical_copy_law_matches_pair_basis_and_circuit(case):
    psi, tested = case
    law = identical_copy_distribution(psi, tested).probabilities
    pair_basis = exact_distribution(psi, psi, tested).probabilities
    np.testing.assert_allclose(law, pair_basis, rtol=0, atol=TOL)
    if psi.n_qubits <= 4:
        oracle = full_circuit_oracle(psi, psi, tested).probabilities
        np.testing.assert_allclose(law, oracle, rtol=0, atol=TOL)


SHOTS = 2000
# Two-sided tail probability of a 5-sigma deviation of a normal variable.
FIVE_SIGMA_TAIL = math.erfc(5 / math.sqrt(2))


def binomial_two_sided_tail(k, shots, p):
    """2 * min(P[X <= k], P[X >= k]) for X ~ Binomial(shots, p), capped at 1."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == (0 if p <= 0.0 else shots) else 0.0
    log_pmf = [
        math.lgamma(shots + 1) - math.lgamma(j + 1) - math.lgamma(shots - j + 1)
        + j * math.log(p) + (shots - j) * math.log1p(-p)
        for j in range(shots + 1)
    ]
    pmf = [math.exp(v) for v in log_pmf]
    return min(1.0, 2.0 * min(sum(pmf[: k + 1]), sum(pmf[k:])))


@st.composite
def sampling_cases(draw):
    psi, psi_prime = draw(unequal_copies(n_max=3))
    if draw(st.booleans()):
        psi_prime = psi
    mask = draw(st.integers(1, (1 << psi.n_qubits) - 1))
    return psi, psi_prime, QubitSet(psi.n_qubits, mask), draw(seeds)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sampling_cases())
def test_sample_matches_circuit_oracle(case):
    # Every outcome count of a fixed-size run must be consistent with its
    # circuit probability; the examples are derandomized, so this is a fixed set.
    psi, psi_prime, tested, seed = case
    hist = sample(psi, psi_prime, tested, SHOTS, seed)
    oracle = full_circuit_oracle(psi, psi_prime, tested)
    assert sum(hist.counts.values()) == SHOTS
    for z, p in zip(oracle.bitstrings(), oracle.probabilities):
        count = hist.counts.get(z, 0)
        assert binomial_two_sided_tail(count, SHOTS, float(p)) >= FIVE_SIGMA_TAIL, (z, count, p)


# -- the outcome-table writer -----------------------------------------------------

# Zero, negative zero, subnormals and values near 1e-17; one-hot laws add 1.0.
EXTREME_PROBABILITIES = (0.0, -0.0, 5e-324, 1.2345678901234567e-310, 1.2345678901234567e-17, 1e-17)


@st.composite
def control_registers(draw, m_max):
    m = draw(st.integers(1, m_max))
    n = draw(st.integers(m, m + 2))
    labels = draw(st.sets(st.integers(0, n - 1), min_size=m, max_size=m))
    return QubitSet.from_labels(n, labels)


@st.composite
def outcome_laws(draw):
    tested = draw(control_registers(10))
    size = 1 << tested.cardinality
    rng = np.random.default_rng(draw(seeds))
    extreme = rng.random(size) < draw(st.sampled_from([0.0, 0.2, 0.9, 1.0]))
    if draw(st.booleans()):
        # A law with one certain outcome: 1.0 beside extreme values only.
        weights = np.zeros(size)
        weights[rng.integers(size)] = 1.0
    else:
        # Magnitudes from 1e-20 to 1, renormalized over the non-extreme outcomes.
        weights = rng.random(size) * 10.0 ** rng.integers(-20, 1, size)
        weights[extreme] = 0.0
        if not weights.any():
            weights[rng.integers(size)] = 1.0
    probabilities = weights / weights.sum()
    positions = extreme & (weights == 0.0)
    probabilities[positions] = rng.choice(EXTREME_PROBABILITIES, int(positions.sum()))
    return OutcomeDistribution(tested, probabilities)


@st.composite
def histograms(draw):
    tested = draw(control_registers(10))
    m = tested.cardinality
    outcomes = draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1, max_size=40))
    counts = {
        format(z, f"0{m}b"): draw(st.one_of(st.integers(0, 10), st.integers(0, 10**15)))
        for z in outcomes
    }
    shots = sum(counts.values())
    assume(shots >= 1)
    return ShotHistogram(tested, shots, counts, draw(st.integers(0, 2**63)))


@PROPERTY_SETTINGS
@given(outcome_laws())
def test_law_text_is_sorted_json_dumps(dist):
    text = outcome_table_json(dist)
    assert text == json.dumps(distribution_to_dict(dist), sort_keys=True) + "\n"
    again = distribution_from_dict(json.loads(text), dist.tested.n_qubits)
    assert again.tested == dist.tested
    assert again.probabilities.tobytes() == dist.probabilities.tobytes()


@PROPERTY_SETTINGS
@given(histograms())
def test_histogram_text_is_sorted_json_dumps(hist):
    # With the estimate key, as ``sample --output`` writes it.
    estimate = ce_from_histogram(hist).to_dict()
    text = outcome_table_json(hist, estimate=estimate)
    payload = histogram_to_dict(hist) | {"estimate": estimate}
    assert text == json.dumps(payload, sort_keys=True) + "\n"
    assert outcome_table_json(hist) == json.dumps(histogram_to_dict(hist), sort_keys=True) + "\n"
    assert histogram_from_dict(json.loads(text), hist.tested.n_qubits) == hist


# -- the CLI's rendered tables ----------------------------------------------------


def run_with_output(argv, **patched):
    """stdout and the --output file of one CLI call, with cli functions patched."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        out = io.StringIO()
        with mock.patch.multiple(cli_module, **patched), contextlib.redirect_stdout(out):
            code = cli_module.main([*argv, "--output", str(path)])
        assert code == 0
        return out.getvalue(), path.read_text(encoding="utf-8")


def check_dist_bytes(dist):
    # ``dist`` printed one f-string per outcome; its file is the sorted json.dumps.
    out, text = run_with_output(
        ["dist", "--ghz", str(dist.tested.n_qubits)], outcome_distribution=lambda *_: dist
    )
    probabilities = dist.probabilities.tolist()
    assert out == "\n".join(f"{z}  {p:.12g}" for z, p in zip(dist.bitstrings(), probabilities)) + "\n"
    assert text == json.dumps(distribution_to_dict(dist), sort_keys=True) + "\n"


@PROPERTY_SETTINGS
@given(outcome_laws())
def test_dist_prints_and_writes_the_f_string_bytes(dist):
    check_dist_bytes(dist)


def test_dist_prints_and_writes_the_f_string_bytes_at_m_14():
    rng = np.random.default_rng(14)
    probabilities = rng.random(1 << 14) * 1e-5
    extreme = rng.choice(1 << 14, 6 * 40, replace=False).reshape(6, 40)
    for positions, value in zip(extreme, EXTREME_PROBABILITIES):
        probabilities[positions] = value
    probabilities[0] = 0.0
    probabilities[0] = 1.0 - probabilities.sum()
    check_dist_bytes(OutcomeDistribution(QubitSet.full(14), probabilities))


@PROPERTY_SETTINGS
@given(histograms())
def test_sample_prints_and_writes_the_line_by_line_bytes(hist):
    argv = ["sample", "--ghz", str(hist.tested.n_qubits), "--shots", "1", "--seed", "0"]
    out, text = run_with_output(argv, sample=lambda *_: hist)
    estimate = ce_from_histogram(hist)
    lines = "".join(f"{z}  {count}\n" for z, count in sorted(hist.counts.items()))
    stderr = estimate.detail["stderr"]
    tally = f"CE estimate = {estimate.value:.6g} +/- {stderr:.3g} ({hist.shots} shots)\n"
    assert out == lines + tally
    payload = histogram_to_dict(hist) | {"estimate": estimate.to_dict()}
    assert text == json.dumps(payload, sort_keys=True) + "\n"
