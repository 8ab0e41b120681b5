"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import csv
import time

import numpy as np

from concentratable import (
    QubitSet,
    Statevector,
    ce_all_subsets,
    ce_distribution,
    ce_even_weight,
    ce_purity,
    ce_shots,
    ce_two_states,
    compare_ghz_w,
    exact_distribution,
    full_circuit_oracle,
    ghz_closed_form,
    make_ghz,
    make_haar_random,
    make_w,
    n_tangle,
    outcome_probability,
    perturb,
    purity,
    purity_arrays,
    trace_distance_pure,
    w_closed_form,
)
from concentratable.cli import main as cli_main
from concentratable.oracle import dense_reduced_purity
from concentratable.verify import (
    check_ce_locc_monotonicity,
    check_nested_monotonicity,
    check_purity_locc_monotonicity,
    check_singlet_projection,
    check_subadditivity,
)


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_closed_form_reproduction():
    started = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in range(2, 11):
        ghz, w = make_ghz(n), make_w(n)
        for cardinality in range(1, n + 1):
            canonical = QubitSet.from_labels(n, range(cardinality))
            random_labels = rng.permutation(n)[:cardinality]
            shuffled = QubitSet.from_labels(n, (int(l) for l in random_labels))
            for s in (canonical, shuffled):
                worst = max(
                    worst,
                    abs(ce_purity(ghz, s).value - ghz_closed_form(n, cardinality)),
                    abs(ce_purity(w, s).value - w_closed_form(n, cardinality)),
                )
    elapsed = time.time() - started
    report(
        "1 closed-form reproduction",
        worst <= 1e-10 and elapsed < 10.0,
        f"max |computed - closed form| = {worst:.2e} over n=2..10, {elapsed:.1f}s",
    )


def test_criterion_02_route_agreement():
    started = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in range(2, 9):
        for _ in range(100):
            psi = make_haar_random(n, int(rng.integers(2**32)))
            s = QubitSet(n, int(rng.integers(1, 1 << n)))
            a = ce_purity(psi, s).value
            worst = max(
                worst,
                abs(a - ce_distribution(psi, s).value),
                abs(a - ce_even_weight(psi, s).value),
            )
    elapsed = time.time() - started
    report(
        "2 route agreement",
        worst <= 1e-9 and elapsed < 120.0,
        f"max cross-route gap = {worst:.2e} on 100 states per n=2..8, {elapsed:.1f}s",
    )


def test_criterion_03_oracle_equivalence():
    rng = np.random.default_rng(3)
    worst_purity = 0.0
    for i in range(50):
        n = 2 + i % 7
        psi = make_haar_random(n, int(rng.integers(2**32)))
        for mask in range(1 << n):
            alpha = QubitSet(n, mask)
            worst_purity = max(
                worst_purity, abs(purity(psi, alpha) - dense_reduced_purity(psi, alpha))
            )
    worst_dist = 0.0
    for n in range(1, 5):
        for _ in range(3):
            psi = make_haar_random(n, int(rng.integers(2**32)))
            phi = make_haar_random(n, int(rng.integers(2**32)))
            for pair in ((psi, psi), (psi, phi)):
                tested = QubitSet.full(n)
                gap = np.abs(
                    exact_distribution(*pair, tested).probabilities
                    - full_circuit_oracle(*pair, tested).probabilities
                ).max()
                worst_dist = max(worst_dist, float(gap))
    report(
        "3 oracle equivalence",
        worst_purity <= 1e-10 and worst_dist <= 1e-10,
        f"purity gap {worst_purity:.2e} (50 states, all subsets, n<=8); "
        f"distribution gap {worst_dist:.2e} (n<=4)",
    )


def test_criterion_04_odd_weight_outcomes_vanish():
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(100):
        n = 2 + i % 7
        psi = make_haar_random(n, int(rng.integers(2**32)))
        dist = exact_distribution(psi, psi, QubitSet.full(n))
        odd = np.array([z.count("1") % 2 == 1 for z in dist.bitstrings()])
        worst = max(worst, float(dist.probabilities[odd].max()))
    report(
        "4 odd-weight outcomes vanish",
        worst <= 1e-10,
        f"max odd-weight probability = {worst:.2e} on 100 states, n<=8",
    )


def test_criterion_05_biseparable_cross_outcomes_vanish():
    rng = np.random.default_rng(5)
    worst = 0.0
    for n in range(2, 7):
        for cut in range(1, n):
            for _ in range(2):
                left = make_haar_random(cut, int(rng.integers(2**32)))
                right = make_haar_random(n - cut, int(rng.integers(2**32)))
                psi = Statevector(n, np.kron(left.amplitudes, right.amplitudes))
                for k in range(cut):
                    for k_prime in range(cut, n):
                        z = "".join(
                            "1" if j in (k, k_prime) else "0" for j in range(n)
                        )
                        worst = max(worst, outcome_probability(psi, psi, z))
    report(
        "5 bi-separable cross outcomes vanish",
        worst <= 1e-10,
        f"max straddling weight-2 probability = {worst:.2e} (n<=6, all cuts)",
    )


def test_criterion_06_tangle_identity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for n in (2, 4, 6, 8):
        for _ in range(25):
            psi = make_haar_random(n, int(rng.integers(2**32)))
            p_ones = outcome_probability(psi, psi, "1" * n)
            worst = max(worst, abs((1 << n) * p_ones - n_tangle(psi)))
    report(
        "6 tangle identity",
        worst <= 1e-9,
        f"max |2^n p(1...1) - tangle| = {worst:.2e} on 100 states, even n<=8",
    )


def test_criterion_07_singlet_projection():
    result = check_singlet_projection(trials=100, n_values=(2, 3, 4), seed=7, tolerance=1e-9)
    report(
        "7 singlet projection",
        result.passed,
        f"max (1 - fidelity) = {result.max_violation:.2e} over {result.trials} sampled runs",
    )


def test_criterion_08_monotonicities():
    ce_mono = check_ce_locc_monotonicity(trials=1000, n_values=(2, 3, 4, 5), seed=8)
    purity_mono = check_purity_locc_monotonicity(trials=1000, n_values=(2, 3, 4, 5), seed=88)
    nested = check_nested_monotonicity(trials=1000, n_values=(2, 3, 4, 5, 6), seed=888)
    subadd = check_subadditivity(trials=1000, n_values=(2, 3, 4, 5, 6), seed=8888)
    passed = (
        ce_mono.max_violation <= 1e-9
        and purity_mono.max_violation <= 1e-9
        and nested.max_violation <= 1e-10
        and subadd.max_violation <= 1e-10
    )
    report(
        "8 average monotonicities",
        passed,
        f"CE {ce_mono.max_violation:.2e}, purity {purity_mono.max_violation:.2e} "
        f"(1000 Kraus trials); nested {nested.max_violation:.2e}, "
        f"subadditivity {subadd.max_violation:.2e} (1000 subset pairs)",
    )


def test_criterion_09_continuity_and_robustness():
    started = time.time()
    rng = np.random.default_rng(9)
    s = QubitSet.full(3)
    worst_low = 0.0  # most negative excess seen (should stay >= -1e-9)
    strict = True
    worst_margin = np.inf  # smallest 4eps^2 - excess (should stay > 0)
    worst_continuity = 0.0
    for epsilon in (0.1, 0.001, 0.0001):
        psis = [make_haar_random(3, int(rng.integers(2**32))) for _ in range(10_000)]
        phis = [perturb(psi, epsilon) for psi in psis]
        # C(s) and the two-state value of every pair of the block, from one
        # batched purity call per side and one batched cross-purity sum.
        c_psis = ce_all_subsets(purity_arrays(psis))[:, s.mask]
        c_phis = ce_all_subsets(purity_arrays(phis))[:, s.mask]
        cross = ce_two_states(psis, phis, s)
        excess = (cross - c_psis) + (cross - c_phis)
        worst_low = min(worst_low, float(excess.min()))
        margins = 4.0 * epsilon * epsilon - excess
        worst_margin = min(worst_margin, float(margins.min()))
        strict = strict and bool((margins > 0.0).all())
        one_norms = 2.0 * np.array([trace_distance_pure(psi, phi) for psi, phi in zip(psis, phis)])
        slack = np.abs(c_psis - c_phis) - 2.0 * one_norms
        worst_continuity = max(worst_continuity, float(slack.max()))
    elapsed = time.time() - started
    passed = worst_low >= -1e-9 and strict and worst_continuity <= 1e-9 and elapsed < 300.0
    report(
        "9 continuity and robustness",
        passed,
        f"excess in [{worst_low:.2e}, 4eps^2 - {worst_margin:.2e}); "
        f"continuity slack {worst_continuity:.2e}; 30000 pairs, {elapsed:.0f}s",
    )


def test_criterion_10_ghz_w_comparison_table(tmp_path, capsys):
    rows = compare_ghz_w(20)
    all_positive = all(row["delta"] > 0 for row in rows)
    full_set = [row["delta"] for row in rows if row["cardinality"] == row["n"]]
    # The c=n column peaks at n=5 and then falls monotonically.
    decreasing = all(b < a for a, b in zip(full_set[1:], full_set[2:]))
    out_path = tmp_path / "compare.csv"
    code = cli_main(["compare", "--n-max", "20", "--output", str(out_path)])
    capsys.readouterr()
    with open(out_path, newline="") as handle:
        csv_rows = list(csv.DictReader(handle))
    exact = code == 0 and len(csv_rows) == len(rows)
    for row in csv_rows:
        n, c = int(row["n"]), int(row["cardinality"])
        exact = exact and float(row["ghz"]) == ghz_closed_form(n, c)
        exact = exact and float(row["w"]) == w_closed_form(n, c)
        exact = exact and float(row["delta"]) == ghz_closed_form(n, c) - w_closed_form(n, c)
    report(
        "10 GHZ-W comparison table",
        all_positive and decreasing and exact,
        f"{len(rows)} rows, all positive={all_positive}, "
        f"c=n decreasing beyond n=4: {decreasing}, CSV exact={exact}",
    )


def test_criterion_11_shot_convergence():
    psi = make_ghz(4)
    s = QubitSet.full(4)
    truth = 7 / 16
    shot_counts = (10**3, 10**4, 10**5)
    reps = 16
    rms = []
    for group, shots in enumerate(shot_counts):
        squared = [
            (ce_shots(psi, s, shots, seed=55000 + 100 * group + rep).value - truth) ** 2
            for rep in range(reps)
        ]
        rms.append(float(np.sqrt(np.mean(squared))))
    slope = float(np.polyfit(np.log10(shot_counts), np.log10(rms), 1)[0])
    single = ce_shots(psi, s, 10**5, seed=424242)
    sigma = np.sqrt((9 / 16) * (7 / 16) / 10**5)
    within = abs(single.value - truth) <= 3 * sigma
    report(
        "11 shot convergence",
        abs(slope + 0.5) <= 0.15 and within,
        f"log-log RMS slope = {slope:.3f} ({reps} reps per count); "
        f"10^5-shot estimate off by {abs(single.value - truth) / sigma:.2f} sigma",
    )
