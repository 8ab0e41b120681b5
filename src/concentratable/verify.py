"""Batch numerical verification of the measure's claimed properties.

Each check runs seeded random trials, records the worst violation seen and
a witness (the trial parameters that produced it), and passes iff the
violation stays within the property's tolerance. The CLI ``verify``
command runs the whole registry; the acceptance tests reuse the same
functions with their own trial counts.

The purity-driven checks evaluate once per state, not once per subset:
they draw every trial first (in the order the draws were always made),
then get all 2^n purities, or C(s) for every s, of each same-n group of
states from one batched ``purity_arrays`` call, and feed the violations to
``_Worst`` in trial order. ``bi-separable-zero`` reads all its weight-2
outcomes from one exact distribution per state. Checks that compare
routes or sample stay per state. At 40 trials on a 2-vCPU x86 host this
took ``purity-locc-monotonicity`` from 38 to 20 ms, ``bi-separable-zero``
from 30 to 15 ms and ``subadditivity`` from 13 to 5 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measures import (
    ce_all_subsets,
    ce_distribution,
    ce_even_weight,
    ce_purity,
    ce_two_state,
    ghz_closed_form,
    n_tangle,
    w_closed_form,
    w_post_projection_ce,
)
from .oracle import LocalKrausPair, apply_local_kraus, random_local_kraus
from .reductions import purity_arrays
from .states import (
    QubitSet,
    Statevector,
    make_ghz,
    make_haar_random,
    make_w,
    perturb,
    trace_distance_pure,
)
from .swaptest import (
    exact_distribution,
    distribution_via_purities,
    outcome_probability,
    pair_marginal,
    post_measurement,
    sample,
    singlet_fidelity,
)


@dataclass
class PropertyReport:
    name: str
    trials: int
    max_violation: float
    tolerance: float
    passed: bool
    witness: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "witness": self.witness,
        }


class _Worst:
    """Tracks the largest violation and the trial that produced it.

    A NaN violation outranks every number, so it is kept with its witness
    and fails the report (NaN <= tolerance is False). A check whose pass
    condition is stricter than ``value <= tolerance`` sets ``failed``.
    """

    def __init__(self):
        self.value = -np.inf
        self.witness = ""
        self.failed = False

    def update(self, violation: float, witness: str) -> None:
        if violation > self.value or (math.isnan(violation) and not math.isnan(self.value)):
            self.value = violation
            self.witness = witness

    def update_first_max(self, violations: np.ndarray, witness) -> None:
        """``update`` with each entry in order; ``witness(i)`` names entry i.

        Only the first largest entry (or the first NaN, which np.argmax also
        picks) can win, so it alone is passed on.
        """
        i = int(np.argmax(violations))
        self.update(float(violations[i]), witness(i))

    def report(self, name: str, trials: int, tolerance: float) -> PropertyReport:
        passed = not self.failed and self.value <= tolerance
        return PropertyReport(name, trials, self.value, tolerance, passed, self.witness)


def _state_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**32))


def _nonempty_mask(rng: np.random.Generator, n: int) -> int:
    return int(rng.integers(1, 1 << n))


def _per_qubit_count(states: list[Statevector], evaluate) -> list[np.ndarray]:
    """Row b of ``evaluate`` on the stack of the states sharing states[b]'s n, for each b.

    ``evaluate`` runs once per qubit count, on states in their given order.
    """
    groups: dict[int, list[int]] = {}
    for index, psi in enumerate(states):
        groups.setdefault(psi.n_qubits, []).append(index)
    rows = [None] * len(states)
    for indices in groups.values():
        for index, row in zip(indices, evaluate([states[i] for i in indices])):
            rows[index] = row
    return rows


def _ce_rows(states: list[Statevector]) -> list[np.ndarray]:
    """C(s) of each state for every label mask s (the ``ce_purity`` values), batched by n."""
    return _per_qubit_count(states, lambda group: ce_all_subsets(purity_arrays(group)))


def check_route_agreement(trials=100, n_values=(2, 3, 4, 5, 6), seed=101, tolerance=1e-9):
    """ce_purity, ce_distribution and ce_even_weight agree on random states."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    per_n = max(1, trials // len(n_values))
    count = 0
    for n in n_values:
        for _ in range(per_n):
            state_seed = _state_seed(rng)
            psi = make_haar_random(n, state_seed)
            s = QubitSet(n, _nonempty_mask(rng, n))
            a = ce_purity(psi, s).value
            b = ce_distribution(psi, s).value
            c = ce_even_weight(psi, s).value
            worst.update(
                max(abs(a - b), abs(a - c)),
                f"n={n} state_seed={state_seed} mask={s.mask:#b}",
            )
            count += 1
    return worst.report("route-agreement", count, tolerance)


def check_odd_weight_zero(trials=50, n_values=(2, 3, 4, 5, 6), seed=202, tolerance=1e-10):
    """Odd-weight control bitstrings never occur for identical copies."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    per_n = max(1, trials // len(n_values))
    count = 0
    for n in n_values:
        indices = np.arange(1 << n)
        odd = np.array([bool(int(i).bit_count() & 1) for i in indices])
        for _ in range(per_n):
            state_seed = _state_seed(rng)
            psi = make_haar_random(n, state_seed)
            dist = exact_distribution(psi, psi, QubitSet.full(n))
            worst.update(
                float(dist.probabilities[odd].max()),
                f"n={n} state_seed={state_seed} route=projector",
            )
            z_mask = _nonempty_mask(rng, n)
            if z_mask.bit_count() % 2 == 0:
                z_mask ^= 1 << int(rng.integers(0, n))
            z = "".join("1" if z_mask >> k & 1 else "0" for k in range(n))
            worst.update(
                distribution_via_purities(psi, z),
                f"n={n} state_seed={state_seed} z={z} route=purities",
            )
            count += 1
    return worst.report("odd-weight-zero", count, tolerance)


def check_biseparable_zero(trials=50, n_values=(2, 3, 4, 5, 6), seed=303, tolerance=1e-10):
    """Weight-2 outcomes straddling a product cut have zero probability."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    count = 0
    for _ in range(trials):
        n = int(rng.choice(n_values))
        cut = int(rng.integers(1, n)) if n > 1 else 1
        seed_a, seed_b = _state_seed(rng), _state_seed(rng)
        left = make_haar_random(cut, seed_a)
        right = make_haar_random(n - cut, seed_b)
        psi = Statevector(n, np.kron(left.amplitudes, right.amplitudes))
        # Every straddling outcome, read from one full-register table.
        pairs = [(k, k_prime) for k in range(cut) for k_prime in range(cut, n)]
        bits = ["".join("1" if j in pair else "0" for j in range(n)) for pair in pairs]
        table = exact_distribution(psi, psi, QubitSet.full(n)).probabilities
        worst.update_first_max(
            table[[int(z, 2) for z in bits]],
            lambda i: f"n={n} cut={cut} seeds=({seed_a},{seed_b}) z={bits[i]}",
        )
        count += 1
    return worst.report("bi-separable-zero", count, tolerance)


def check_tangle_identity(trials=40, n_values=(2, 4, 6), seed=404, tolerance=1e-9):
    """For even n, the all-ones outcome carries the n-tangle: 2^n p(1...1) = tau."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    per_n = max(1, trials // len(n_values))
    count = 0
    for n in n_values:
        for _ in range(per_n):
            state_seed = _state_seed(rng)
            psi = make_haar_random(n, state_seed)
            p_ones = outcome_probability(psi, psi, "1" * n)
            worst.update(
                abs((1 << n) * p_ones - n_tangle(psi)),
                f"n={n} state_seed={state_seed}",
            )
            count += 1
    return worst.report("tangle-identity", count, tolerance)


def check_singlet_projection(trials=100, n_values=(2, 3, 4), seed=505, tolerance=1e-9):
    """Every |1> control leaves its copy-qubit pair in the singlet state."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    count = 0
    pairs_seen = 0
    while count < trials:
        n = int(rng.choice(n_values))
        state_seed = _state_seed(rng)
        shot_seed = _state_seed(rng)
        psi = make_haar_random(n, state_seed)
        hist = sample(psi, psi, QubitSet.full(n), 1, shot_seed)
        (z,) = hist.counts
        count += 1
        if "1" not in z:
            continue
        outcome = post_measurement(psi, psi, z)
        for k, bit in enumerate(z):
            if bit != "1":
                continue
            fidelity = singlet_fidelity(pair_marginal(outcome.post_state, k))
            pairs_seen += 1
            worst.update(
                1.0 - fidelity,
                f"n={n} state_seed={state_seed} shot_seed={shot_seed} z={z} k={k}",
            )
    if pairs_seen == 0:
        worst.update(np.inf, "no |1> outcomes sampled")
    return worst.report("singlet-projection", count, tolerance)


def check_ce_locc_monotonicity(trials=200, n_values=(2, 3, 4, 5), seed=606, tolerance=1e-9):
    """Average C(s) over the branches of a random local measurement never grows."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    drawn = []
    states = []
    for _ in range(trials):
        n = int(rng.choice(n_values))
        state_seed = _state_seed(rng)
        kraus_seed = _state_seed(rng)
        qubit = int(rng.integers(0, n))
        psi = make_haar_random(n, state_seed)
        mask = _nonempty_mask(rng, n)
        branches = apply_local_kraus(psi, random_local_kraus(kraus_seed, qubit))
        witness = (
            f"n={n} state_seed={state_seed} kraus_seed={kraus_seed} qubit={qubit} mask={mask:#b}"
        )
        drawn.append((len(states), mask, [b.probability for b in branches], witness))
        states += [psi] + [b.post_state for b in branches]
    ce = _ce_rows(states)
    for first, mask, probabilities, witness in drawn:
        averaged = sum(p * ce[first + 1 + j][mask] for j, p in enumerate(probabilities))
        worst.update(float(averaged - ce[first][mask]), witness)
    return worst.report("ce-locc-monotonicity", trials, tolerance)


def check_purity_locc_monotonicity(trials=200, n_values=(2, 3, 4, 5), seed=707, tolerance=1e-9):
    """Average local purities never drop under a random local measurement."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    drawn = []
    states = []
    for _ in range(trials):
        n = int(rng.choice(n_values))
        state_seed = _state_seed(rng)
        kraus_seed = _state_seed(rng)
        qubit = int(rng.integers(0, n))
        psi = make_haar_random(n, state_seed)
        branches = apply_local_kraus(psi, random_local_kraus(kraus_seed, qubit))
        witness = f"n={n} state_seed={state_seed} kraus_seed={kraus_seed} qubit={qubit}"
        drawn.append((len(states), [b.probability for b in branches], witness))
        states += [psi] + [b.post_state for b in branches]
    purities = _per_qubit_count(states, purity_arrays)
    for first, probabilities, witness in drawn:
        averaged = sum(p * purities[first + 1 + j] for j, p in enumerate(probabilities))
        worst.update_first_max(
            purities[first] - averaged, lambda alpha: f"{witness} alpha={alpha:#b}"
        )
    return worst.report("purity-locc-monotonicity", trials, tolerance)


def check_nested_monotonicity(trials=200, n_values=(2, 3, 4, 5, 6), seed=808, tolerance=1e-10):
    """C(s') <= C(s) whenever s' is a subset of s."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    drawn = []
    states = []
    for _ in range(trials):
        n = int(rng.choice(n_values))
        state_seed = _state_seed(rng)
        psi = make_haar_random(n, state_seed)
        outer_mask = _nonempty_mask(rng, n)
        labels = [k for k in range(n) if outer_mask >> k & 1]
        keep = rng.random(len(labels)) < 0.5
        inner_mask = sum(1 << l for l, k in zip(labels, keep) if k)
        if inner_mask == 0:
            inner_mask = 1 << labels[int(rng.integers(0, len(labels)))]
        states.append(psi)
        witness = f"n={n} state_seed={state_seed} inner={inner_mask:#b} outer={outer_mask:#b}"
        drawn.append((inner_mask, outer_mask, witness))
    for ce, (inner_mask, outer_mask, witness) in zip(_ce_rows(states), drawn):
        worst.update(float(ce[inner_mask] - ce[outer_mask]), witness)
    return worst.report("nested-monotonicity", trials, tolerance)


def check_subadditivity(trials=200, n_values=(2, 3, 4, 5, 6), seed=909, tolerance=1e-10):
    """max(C(s), C(s')) <= C(s u s') <= C(s) + C(s') for disjoint s, s'."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    drawn = []
    states = []
    for _ in range(trials):
        n = int(rng.choice([v for v in n_values if v >= 2]))
        state_seed = _state_seed(rng)
        psi = make_haar_random(n, state_seed)
        first = _nonempty_mask(rng, n)
        while first == (1 << n) - 1:
            first = _nonempty_mask(rng, n)
        complement_labels = [k for k in range(n) if not first >> k & 1]
        keep = rng.random(len(complement_labels)) < 0.5
        second = sum(1 << l for l, k in zip(complement_labels, keep) if k)
        if second == 0:
            second = 1 << complement_labels[int(rng.integers(0, len(complement_labels)))]
        states.append(psi)
        drawn.append((first, second, f"n={n} state_seed={state_seed} s={first:#b} s'={second:#b}"))
    for ce, (first, second, witness) in zip(_ce_rows(states), drawn):
        c_first, c_second, c_union = float(ce[first]), float(ce[second]), float(ce[first | second])
        worst.update(c_union - c_first - c_second, witness)
        worst.update(max(c_first, c_second) - c_union, witness)
    return worst.report("subadditivity", trials, tolerance)


def check_continuity(trials=200, n_values=(2, 3, 4, 5), seed=1010, tolerance=1e-9):
    """|C(psi) - C(phi)| <= 2 * ||psi psi+ - phi phi+||_1 on perturbed pairs."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    drawn = []
    states = []
    for _ in range(trials):
        n = int(rng.choice(n_values))
        state_seed = _state_seed(rng)
        epsilon = float(rng.uniform(1e-4, 0.9))
        psi = make_haar_random(n, state_seed)
        phi = perturb(psi, epsilon)
        mask = _nonempty_mask(rng, n)
        one_norm = 2.0 * trace_distance_pure(psi, phi)
        states += [psi, phi]
        witness = f"n={n} state_seed={state_seed} eps={epsilon:.6f} mask={mask:#b}"
        drawn.append((mask, one_norm, witness))
    ce = _ce_rows(states)
    for trial, (mask, one_norm, witness) in enumerate(drawn):
        gap = abs(float(ce[2 * trial][mask]) - float(ce[2 * trial + 1][mask]))
        worst.update(gap - 2.0 * one_norm, witness)
    return worst.report("continuity", trials, tolerance)


def check_error_bound(
    trials=600, epsilons=(0.1, 0.001, 0.0001), n=3, seed=1111, tolerance=1e-9
):
    """Unequal copies: 0 <= [C_xy - C_x] + [C_xy - C_y] < 4 eps^2 on every pair."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    s = QubitSet.full(n)
    per_eps = max(1, trials // len(epsilons))
    drawn = []
    states = []
    for epsilon in epsilons:
        for _ in range(per_eps):
            state_seed = _state_seed(rng)
            psi = make_haar_random(n, state_seed)
            psi_prime = perturb(psi, epsilon)
            cross = ce_two_state(psi, psi_prime, s)
            states += [psi, psi_prime]
            drawn.append((epsilon, cross, f"n={n} state_seed={state_seed} eps={epsilon}"))
    ce = _ce_rows(states)
    for trial, (epsilon, cross, witness) in enumerate(drawn):
        excess = (cross - float(ce[2 * trial][s.mask])) + (cross - float(ce[2 * trial + 1][s.mask]))
        worst.update(-excess, witness)
        if excess >= 4.0 * epsilon * epsilon:
            worst.failed = True
            worst.update(excess - 4.0 * epsilon * epsilon + tolerance, witness)
    return worst.report("error-bound", len(drawn), tolerance)


def check_closed_forms(n_max=8, seed=1212, tolerance=1e-10):
    """GHZ and W values match their closed forms for every cardinality."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    sizes = range(2, n_max + 1)
    ce = _ce_rows([make(n) for n in sizes for make in (make_ghz, make_w)])
    count = 0
    for ghz, w, n in zip(ce[::2], ce[1::2], sizes):
        for cardinality in range(1, n + 1):
            labels = rng.permutation(n)[:cardinality]
            s = QubitSet.from_labels(n, (int(l) for l in labels))
            worst.update(
                abs(float(ghz[s.mask]) - ghz_closed_form(n, cardinality)),
                f"ghz n={n} mask={s.mask:#b}",
            )
            worst.update(
                abs(float(w[s.mask]) - w_closed_form(n, cardinality)),
                f"w n={n} mask={s.mask:#b}",
            )
            count += 1
    return worst.report("closed-forms", count, tolerance)


def _projective_pair(qubit: int) -> LocalKrausPair:
    return LocalKrausPair(
        qubit,
        np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    )


def check_w_projection(n_values=(3, 4, 5, 6), seed=1313, tolerance=1e-10):
    """Measuring one W-state qubit leaves a W state one size down (zero branch)
    with the advertised residual entanglement; GHZ loses everything either way.

    The measured qubit is left in |0>, a product factor, so each tested s is
    also tested with that qubit added: C(s) must not change.
    """
    worst = _Worst()
    count = 0
    branches = {
        n: apply_local_kraus(make_w(n), _projective_pair(n - 1))
        + apply_local_kraus(make_ghz(n), _projective_pair(n - 1))
        for n in n_values
    }
    ce = iter(_ce_rows([b.post_state for n in n_values for b in branches[n]]))
    for n in n_values:
        zero_branch, one_branch, *ghz_branches = (next(ce) for _ in branches[n])
        measured = 1 << (n - 1)
        for cardinality in range(1, n - 1 + 1):
            expected, _quoted_prob = w_post_projection_ce(n, cardinality)
            s = QubitSet.from_labels(n, range(cardinality))
            for mask, added in ((s.mask, ""), (s.mask | measured, " +measured")):
                worst.update(
                    abs(float(zero_branch[mask]) - expected),
                    f"w n={n} c={cardinality} branch=0{added}",
                )
            count += 1
        full = (1 << n) - 1
        worst.update(float(one_branch[full]), f"w n={n} branch=1")
        for branch in ghz_branches:
            worst.update(float(branch[full]), f"ghz n={n}")
            count += 1
    return worst.report("w-projection", count, tolerance)


CHECKS = {
    "route-agreement": check_route_agreement,
    "odd-weight-zero": check_odd_weight_zero,
    "bi-separable-zero": check_biseparable_zero,
    "tangle-identity": check_tangle_identity,
    "singlet-projection": check_singlet_projection,
    "ce-locc-monotonicity": check_ce_locc_monotonicity,
    "purity-locc-monotonicity": check_purity_locc_monotonicity,
    "nested-monotonicity": check_nested_monotonicity,
    "subadditivity": check_subadditivity,
    "continuity": check_continuity,
    "error-bound": check_error_bound,
    "closed-forms": check_closed_forms,
    "w-projection": check_w_projection,
}


def _drawn(sizes):
    """Arguments of a check that draws ``trials`` states with n from ``sizes`` up to n_max."""
    return lambda trials, n_max, epsilons: {
        "trials": trials,
        "n_values": tuple(v for v in sizes if v <= n_max),
    }


# Property -> its check's keyword arguments (besides the seed) for the
# suite's trials, n_max and epsilons. Looked up by the names in CHECKS.
_SUITE_ARGS = {
    "route-agreement": _drawn((2, 3, 4, 5, 6)),
    "odd-weight-zero": _drawn((2, 3, 4, 5, 6)),
    "bi-separable-zero": _drawn((2, 3, 4, 5, 6)),
    "tangle-identity": _drawn((2, 4, 6, 8)),
    "singlet-projection": _drawn((2, 3, 4)),
    "ce-locc-monotonicity": _drawn((2, 3, 4, 5)),
    "purity-locc-monotonicity": _drawn((2, 3, 4, 5)),
    "nested-monotonicity": _drawn((2, 3, 4, 5, 6)),
    "subadditivity": _drawn((2, 3, 4, 5, 6)),
    "continuity": _drawn((2, 3, 4, 5)),
    "error-bound": lambda trials, n_max, epsilons: {"trials": trials, "epsilons": epsilons},
    "closed-forms": lambda trials, n_max, epsilons: {"n_max": max(n_max, 4)},
    "w-projection": lambda trials, n_max, epsilons: {
        "n_values": tuple(v for v in (3, 4, 5, 6) if v <= max(n_max, 3))
    },
}


def run_suite(
    trials: int = 200,
    seed: int = 2024,
    n_max: int = 6,
    epsilons: tuple[float, ...] = (0.1, 0.001, 0.0001),
    properties: list[str] | None = None,
) -> list[PropertyReport]:
    """Run the selected (default: all) property checks with shared settings."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    names = properties if properties is not None else list(CHECKS)
    unknown = set(names) - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown properties: {sorted(unknown)}")
    return [
        CHECKS[name](**_SUITE_ARGS[name](trials, n_max, epsilons), seed=seed) for name in names
    ]
