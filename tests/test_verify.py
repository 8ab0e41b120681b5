import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concentratable.reductions as reductions_module
import concentratable.swaptest as swaptest_module
import concentratable.verify as verify_module
from concentratable.errors import ValidationError
from concentratable.measures import ce_purity, n_tangles
from concentratable.oracle import dense_reduced_purity
from concentratable.reductions import purity_array
from concentratable.states import (
    QubitSet,
    StateStack,
    _wrap_checked,
    make_haar_random,
    make_haar_random_stack,
)
from concentratable.swaptest import exact_distribution, exact_distributions, full_circuit_oracle
from concentratable.verify import (
    CHECKS,
    EPSILON_FLOOR,
    PropertyReport,
    check_continuity,
    check_error_bound,
    check_singlet_projection,
    run_suite,
)


def test_suite_passes_at_small_scale():
    reports = run_suite(trials=30, n_max=4, seed=7)
    assert [r.name for r in reports] == list(CHECKS)
    for report in reports:
        assert report.passed, f"{report.name}: {report.max_violation} ({report.witness})"


@pytest.mark.parametrize("trials, n_max", [(40, 6), (1, 6), (1, 2)])
def test_reports_count_exactly_the_requested_trials(trials, n_max):
    reports = run_suite(trials=trials, n_max=n_max, seed=2024)
    fixed = {"closed-forms", "w-projection"}  # these take no trial count
    counts = {r.name: r.trials for r in reports if r.name not in fixed}
    assert counts == {name: trials for name in CHECKS if name not in fixed}
    for report in reports:
        assert report.passed, f"{report.name}: {report.max_violation} ({report.witness})"


def test_trials_split_over_groups_sum_to_the_request():
    for groups in range(1, 6):
        for trials in range(1, 50):
            counts = [count for _, count in verify_module._split(trials, range(groups))]
            assert sum(counts) == trials
            assert counts == sorted(counts, reverse=True)
            assert counts[0] - counts[-1] <= 1 and counts[-1] >= 1


def _draw_by_choice(rng, trials, n_values, trial):
    """The draw of n that ``_draw`` must match: numpy's ``Generator.choice``."""
    return [trial(int(rng.choice(n_values))) for _ in range(trials)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
    st.booleans(),
    st.integers(1, 30),
)
def test_draw_reads_the_stream_of_generator_choice(seed, sizes, as_tuple, trials):
    # _draw picks n by rng.integers(len(n_values)); a numpy whose choice reads the
    # stream differently would move every drawn report, so it must fail here first.
    n_values = tuple(sizes) if as_tuple else list(sizes)

    def drawer(rng):
        return lambda n: (n, verify_module._state_seed(rng), verify_module._nonempty_mask(rng, n))

    fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = verify_module._draw(fast, trials, n_values, drawer(fast))
    assert drawn == _draw_by_choice(reference, trials, n_values, drawer(reference))
    assert all(type(n) is int for n, *_ in drawn)
    assert fast.integers(2**63) == reference.integers(2**63)


def _biseparable_by_cut(trials, n_values, seed):
    """bi-separable-zero as it was first written: one factor stack per (n, cut)
    group, outcomes formatted as bitstrings for every trial."""
    rng = np.random.default_rng(seed)
    worst = verify_module._Worst()

    def trial(n):
        cut = int(rng.integers(1, n)) if n > 1 else 1
        return n, cut, verify_module._state_seed(rng), verify_module._state_seed(rng)

    drawn = _draw_by_choice(rng, trials, n_values, trial)
    for n, cut, seed_a, seed_b in drawn:
        left = make_haar_random_stack(cut, [seed_a]).amplitudes[0]
        right = make_haar_random_stack(n - cut, [seed_b]).amplitudes[0]
        psi = StateStack(n, np.outer(left, right).reshape(1, -1))
        table = exact_distributions(psi, psi, QubitSet.full(n))[0]
        pairs = [(k, k_prime) for k in range(cut) for k_prime in range(cut, n)]
        bits = ["".join("1" if j in pair else "0" for j in range(n)) for pair in pairs]
        worst.update_first_max(
            table[[int(z, 2) for z in bits]],
            lambda i: f"n={n} cut={cut} seeds=({seed_a},{seed_b}) z={bits[i]}",
        )
    return worst.report("bi-separable-zero", trials, 1e-10)


@pytest.mark.parametrize("seed", [1, 303, 2024])
def test_biseparable_zero_equals_one_state_per_trial(seed):
    # One factor stack per size and outcomes read by table index give the report
    # one state per trial gives, witness and last bit included.
    expected = _biseparable_by_cut(40, (2, 3, 4, 5, 6), seed)
    report = CHECKS["bi-separable-zero"](trials=40, n_values=(2, 3, 4, 5, 6), seed=seed)
    assert report.to_dict() == expected.to_dict()
    assert repr(report.max_violation) == repr(expected.max_violation)


def test_singlet_projection_tests_a_pair_on_every_trial():
    # The all-zero outcome is removed from each law before the draw, so even
    # one trial has a |1> control to check.
    for seed in range(20):
        report = check_singlet_projection(trials=1, seed=seed)
        assert report.passed, f"seed {seed}: {report.witness}"
        assert report.trials == 1


def test_singlet_projection_on_one_qubit_has_no_pair_to_test():
    # At n = 1 the all-zero outcome is the only one; dropping it leaves an
    # all-zero law, which is skipped rather than divided by its total.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_singlet_projection(trials=5, n_values=(1,), seed=3)
    assert not report.passed
    assert report.witness == "no |1> outcomes drawn"


def test_singlet_projection_draws_only_outcomes_it_can_condition_on(monkeypatch):
    # A uniform of 0.0 picks the first entry of a law above 0; rounding leaves
    # odd-weight entries near 1e-33, on which post_measurement cannot condition.
    original = verify_module.draw_outcomes

    def at_zero(laws, uniforms):
        return original(laws, np.zeros(np.shape(uniforms)))

    monkeypatch.setattr(verify_module, "draw_outcomes", at_zero)
    report = check_singlet_projection(trials=20, seed=1)
    assert report.passed, report.witness


ZERO_TRIAL_CALLS = {
    "route-agreement": {"trials": 0},
    "odd-weight-zero": {"trials": 0},
    "bi-separable-zero": {"trials": 0},
    "tangle-identity": {"trials": 0},
    "singlet-projection": {"trials": 0},
    "ce-locc-monotonicity": {"trials": 0},
    "purity-locc-monotonicity": {"trials": 0},
    "nested-monotonicity": {"trials": 0},
    "subadditivity": {"trials": 0},
    "continuity": {"trials": 0},
    "error-bound": {"trials": 0},
    "closed-forms": {"n_max": 1},
    "w-projection": {"n_values": ()},
}


@pytest.mark.parametrize("name, kwargs", ZERO_TRIAL_CALLS.items())
def test_a_check_with_zero_trials_fails(name, kwargs):
    # Nothing tested is nothing shown: the report fails rather than passing vacuously.
    report = CHECKS[name](**kwargs)
    assert report.name == name and report.trials == 0
    assert not report.passed
    assert report.witness


EMPTY_SIZE_CALLS = {
    "route-agreement": {"n_values": ()},
    "odd-weight-zero": {"n_values": ()},
    "bi-separable-zero": {"n_values": ()},
    "tangle-identity": {"n_values": ()},
    "singlet-projection": {"n_values": ()},
    "ce-locc-monotonicity": {"n_values": ()},
    "purity-locc-monotonicity": {"n_values": ()},
    "nested-monotonicity": {"n_values": ()},
    "subadditivity": {"n_values": ()},
    "continuity": {"n_values": ()},
    "error-bound": {"epsilons": ()},
}


@pytest.mark.parametrize("name, kwargs", EMPTY_SIZE_CALLS.items())
def test_a_check_with_no_sizes_fails_like_zero_trials(name, kwargs):
    # Trials spread over no sizes test nothing: the zero-trial report, not an exception.
    report = CHECKS[name](trials=5, **kwargs)
    empty = CHECKS[name](trials=0)
    assert report.name == name and report.trials == 5
    assert not report.passed
    assert (report.max_violation, report.witness) == (empty.max_violation, empty.witness)


def test_reports_serialize():
    report = PropertyReport("demo", 3, 1e-12, 1e-9, True, "n=2")
    data = report.to_dict()
    assert set(data) == {"name", "trials", "max_violation", "tolerance", "passed", "witness"}


def test_selected_properties_only():
    reports = run_suite(trials=10, n_max=3, seed=8, properties=["closed-forms"])
    assert [r.name for r in reports] == ["closed-forms"]


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        run_suite(properties=["not-a-property"])


def test_injected_projector_bug_is_caught(monkeypatch):
    # Harness self-test: swapping the singlet and symmetric roles of each pair
    # in the pair-basis kernel must trip the suite and name a witness.
    original = swaptest_module._pair_hadamard

    def roles_swapped(amps, m, labels):
        original(amps, m, labels)
        for k in labels:
            view = swaptest_module._pair_view(amps, m, k)
            up, down = view[:, 0, :, 1], view[:, 1, :, 0]
            up[...], down[...] = down.copy(), up.copy()

    monkeypatch.setattr(swaptest_module, "_pair_hadamard", roles_swapped)
    reports = run_suite(trials=10, n_max=3, seed=9, properties=["odd-weight-zero"])
    assert not reports[0].passed
    assert reports[0].witness


def test_injected_projection_bug_is_caught(monkeypatch):
    # Harness self-test: a projection that keeps a pair's symmetric slot, not
    # its singlet, where every row reads 1 must trip both checks that condition
    # on 1s and name a witness: the all-ones probability is wrong, and the
    # post-measurement pairs leave the singlet, or their outcome is refused. The
    # pair-basis laws, which rotate every pair, are untouched.
    original = swaptest_module._butterfly

    def symmetric_kept(amps, m, k, outcome=None):
        if outcome != 1:
            return original(amps, m, k, outcome)
        view = swaptest_module._pair_view(amps, m, k)
        return (view[:, 0, :, 1] + view[:, 1, :, 0]) / np.sqrt(2.0)

    monkeypatch.setattr(swaptest_module, "_butterfly", symmetric_kept)
    reports = run_suite(
        trials=10, n_max=4, seed=9, properties=["tangle-identity", "singlet-projection"]
    )
    assert [r.passed for r in reports] == [False, False]
    assert all(r.witness for r in reports)
    assert run_suite(trials=10, n_max=4, seed=9, properties=["odd-weight-zero"])[0].passed


def test_injected_stacked_pair_kernel_bug_is_caught(monkeypatch):
    # Harness self-test: a fault confined to stacked input of the pair-basis
    # kernel (each joint vector of a stack is read from its neighbour's) must
    # trip a batched SWAP-test check with a witness, while the single-state
    # table still matches the explicit circuit.
    original = swaptest_module._pair_hadamard

    def rows_shifted(amps, m, labels):
        if amps.ndim == 2 and len(amps) > 1:
            amps[...] = np.roll(amps, 1, axis=0)
        original(amps, m, labels)

    monkeypatch.setattr(swaptest_module, "_pair_hadamard", rows_shifted)
    reports = run_suite(
        trials=10, n_max=4, seed=9, properties=["odd-weight-zero", "bi-separable-zero"]
    )
    failed = [r for r in reports if not r.passed]
    assert failed and all(r.witness for r in failed)
    psi, phi = make_haar_random(3, 1), make_haar_random(3, 2)
    for tested in (QubitSet.full(3), QubitSet(3, 0b101)):
        np.testing.assert_allclose(
            exact_distribution(psi, phi, tested).probabilities,
            full_circuit_oracle(psi, phi, tested).probabilities,
            rtol=0,
            atol=1e-12,
        )


def _rows_shifted(gather, amps, n, labels):
    # Each state of a stack is read from its neighbour's amplitudes.
    return gather(np.roll(amps, 1, axis=0) if amps.ndim == 2 else amps, n, labels)


def _trace_axes_shifted(gather, amps, n, labels):
    # The Gram's axis i holds the next label, so each partial trace of a
    # stack removes a different qubit than the one the plan records.
    labels = list(labels)
    return gather(amps, n, labels[1:] + labels[:1] if amps.ndim == 2 else labels)


def _trace_axes_shifted_back(gather, amps, n, labels):
    # As above, with the Gram's axis i holding the previous label.
    labels = list(labels)
    return gather(amps, n, labels[-1:] + labels[:-1] if amps.ndim == 2 else labels)


@pytest.mark.parametrize("fault", [_rows_shifted, _trace_axes_shifted, _trace_axes_shifted_back])
def test_injected_batched_purity_bug_is_caught(monkeypatch, fault):
    # Harness self-test: a fault confined to stacked input of the purity kernel
    # must trip the batched checks with a witness, route-agreement among them
    # (its single-state purity sum is held against stacked routes), while the
    # single-state purities still match the dense oracle.
    original = reductions_module._gather_matrix
    monkeypatch.setattr(
        reductions_module, "_gather_matrix", lambda *args: fault(original, *args)
    )
    reports = {r.name: r for r in run_suite(trials=10, n_max=4, seed=9)}
    failed = {r.name: r for r in reports.values() if not r.passed}
    assert failed and all(r.witness for r in failed.values())
    assert "w-projection" in failed
    assert "route-agreement" in failed
    psi = make_haar_random(4, 1)
    purities = purity_array(psi)
    for mask in range(1 << 4):
        alpha = QubitSet(4, mask)
        assert abs(purities[mask] - dense_reduced_purity(psi, alpha)) <= 1e-12
        if mask:
            subsets = [sub for sub in range(1 << 4) if sub & ~mask == 0]
            total = sum(dense_reduced_purity(psi, QubitSet(4, sub)) for sub in subsets)
            expected = 1.0 - total / (1 << alpha.cardinality)
            assert abs(ce_purity(psi, alpha).value - expected) <= 1e-12


def test_nan_violation_is_kept_and_fails(monkeypatch):
    # After one finite trial, NaN n-tangles make the next violations NaN;
    # the worst must be NaN with its witness, and the check must fail.
    calls = []

    def tangles(stack):
        calls.append(len(stack))
        values = n_tangles(stack)
        values[1:] = math.nan
        return values

    monkeypatch.setattr(verify_module, "n_tangles", tangles)
    (report,) = run_suite(trials=3, n_max=2, seed=10, properties=["tangle-identity"])
    assert calls == [3]
    assert math.isnan(report.max_violation)
    assert report.witness.startswith("n=2 state_seed=")
    assert not report.passed


def test_injected_perturbed_row_bug_is_caught(monkeypatch):
    # Harness self-test: one row of the perturbed stack comes back as its
    # input state, unperturbed and 1e-6 too long (past the stack's checks).
    # The pair is then at trace distance 0 while C(s) moves, so continuity
    # must fail with that row's trial as its witness.
    original = verify_module.perturb_stack
    corrupted = []

    def one_row_dropped(states, epsilons):
        perturbed = original(states, epsilons)
        if corrupted:
            return perturbed
        row = len(states) // 2
        corrupted.append((states[row].amplitudes, float(epsilons[row])))
        amps = perturbed.amplitudes.copy()
        amps[row] = states.amplitudes[row] * (1.0 + 1e-6)
        return _wrap_checked(StateStack, perturbed.n_qubits, amps)

    monkeypatch.setattr(verify_module, "perturb_stack", one_row_dropped)
    report = check_continuity(trials=12, n_values=(3,), seed=4)
    assert not report.passed
    ((amplitudes, epsilon),) = corrupted
    fields = dict(part.split("=") for part in report.witness.split())
    assert fields["n"] == "3"
    assert fields["eps"] == f"{epsilon:.6f}"
    assert np.array_equal(make_haar_random(3, int(fields["state_seed"])).amplitudes, amplitudes)


@pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.5, math.nan, math.inf, 1e-8])
def test_bad_epsilons_are_refused_before_any_check_runs(monkeypatch, epsilon):
    ran = []
    for name, check in CHECKS.items():
        monkeypatch.setitem(CHECKS, name, lambda *a, _check=check, **k: ran.append(_check))
    with pytest.raises(ValidationError, match="epsilon"):
        run_suite(trials=5, epsilons=(0.1, epsilon))
    with pytest.raises(ValidationError, match="epsilon"):
        check_error_bound(trials=5, epsilons=(0.1, epsilon))
    assert ran == []


def test_epsilons_at_the_floor_pass():
    report = check_error_bound(trials=20, epsilons=(EPSILON_FLOOR, 1.0))
    assert report.passed, (report.max_violation, report.witness)
