import math

import numpy as np
import pytest

import concentratable.reductions as reductions_module
import concentratable.swaptest as swaptest_module
import concentratable.verify as verify_module
from concentratable import n_tangle
from concentratable.verify import CHECKS, PropertyReport, run_suite


def test_suite_passes_at_small_scale():
    reports = run_suite(trials=30, n_max=4, seed=7)
    assert [r.name for r in reports] == list(CHECKS)
    for report in reports:
        assert report.passed, f"{report.name}: {report.max_violation} ({report.witness})"


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
    # must trip a batched check with a witness while the per-state route holds.
    original = reductions_module._gather_matrix
    monkeypatch.setattr(
        reductions_module, "_gather_matrix", lambda *args: fault(original, *args)
    )
    reports = {r.name: r for r in run_suite(trials=10, n_max=4, seed=9)}
    failed = [r for r in reports.values() if not r.passed]
    assert failed and all(r.witness for r in failed)
    assert "w-projection" in {r.name for r in failed}
    assert reports["route-agreement"].passed


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
