import math
import warnings

import numpy as np
import pytest

import concentratable.reductions as reductions_module
import concentratable.swaptest as swaptest_module
import concentratable.verify as verify_module
from concentratable import (
    QubitSet,
    ce_purity,
    exact_distribution,
    full_circuit_oracle,
    make_haar_random,
    n_tangle,
    purity_array,
)
from concentratable.oracle import dense_reduced_purity
from concentratable.verify import (
    CHECKS,
    PropertyReport,
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
    # After one finite trial, a NaN n-tangle makes the next violations NaN;
    # the worst must be NaN with its witness, and the check must fail.
    calls = []

    def tangle(psi):
        calls.append(psi)
        return n_tangle(psi) if len(calls) == 1 else math.nan

    monkeypatch.setattr(verify_module, "n_tangle", tangle)
    (report,) = run_suite(trials=3, n_max=2, seed=10, properties=["tangle-identity"])
    assert len(calls) == 3
    assert math.isnan(report.max_violation)
    assert report.witness.startswith("n=2 state_seed=")
    assert not report.passed
