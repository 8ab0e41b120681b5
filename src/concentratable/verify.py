"""Batch numerical verification of the measure's claimed properties.

Each check runs seeded random trials, records the worst violation seen and
a witness (the trial parameters that produced it), and passes iff the
violation stays within the property's tolerance. The CLI ``verify``
command runs the whole registry; the acceptance tests reuse the same
functions with their own trial counts.

Every check that draws trials draws them first (per n, where it loops over
n), in the order the draws were always made, then evaluates each same-n
group of trials with stacked calls and feeds the violations to ``_Worst``
in trial order:

- nested-monotonicity, subadditivity and continuity build each group's
  states with one ``make_haar_random_stack``; they, error-bound,
  closed-forms and w-projection take all 2^n purities, or C(s) for every
  s, of each group from one ``purity_arrays`` call; error-bound also takes
  the two-state values of each epsilon group from ``ce_two_states``, one
  ``cross_purities`` call per subset of s;
- ce- and purity-locc-monotonicity build each group's states
  (``make_haar_random_stack``), Kraus pairs (``random_local_kraus_stack``)
  and branches (``apply_local_kraus_stack``) in one call each, and read
  the purities of the states and of both branches from one
  ``purity_arrays`` call;
- odd-weight-zero and bi-separable-zero read each group's outcome laws from
  one ``exact_distributions`` call (odd-weight-zero also takes its
  purity+Walsh laws from one ``purity_arrays`` call);
- route-agreement reads its SWAP-test route, 1 - p(all-zero on s), from one
  ``exact_distributions`` call per n and its even-weight route from the
  purity+Walsh laws of one ``purity_arrays`` call;
- tangle-identity takes p(1...1) of each group from one
  ``outcome_probabilities`` call;
- singlet-projection takes its laws from one ``exact_distributions`` call
  per n, draws its outcomes with one ``draw_outcomes``, and conditions on
  them and takes every pair marginal with one ``post_measurements`` and one
  ``pair_marginals`` call.

The package's single-state functions are row 0 of these stacked forms
(bar the purity executor, see ``reductions``). What stays per state:
route-agreement's purity sum (``ce_purity``), the one single-state route,
which the stacked routes are held against; tangle-identity's ``n_tangle``;
and ``perturb``. A state reads only ``default_rng(state_seed)``, never a
check's generator, so trials are drawn before their states are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measures import (
    _clamp_all,
    _even_touching,
    _table_masks,
    ce_all_subsets,
    ce_purity,
    ce_two_states,
    ghz_closed_form,
    n_tangle,
    w_closed_form,
    w_post_projection_ce,
)
from .oracle import (
    LocalKrausPair,
    apply_local_kraus,
    apply_local_kraus_stack,
    random_local_kraus_stack,
)
from .reductions import purity_arrays
from .states import (
    QubitSet,
    StateStack,
    make_ghz,
    make_haar_random_stack,
    make_w,
    perturb,
    trace_distance_pure,
)
from .swaptest import (
    CONDITION_FLOOR,
    _walsh_law,
    draw_outcomes,
    exact_distributions,
    outcome_probabilities,
    pair_marginals,
    post_measurements,
    singlet_fidelities,
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


def _split(trials: int, groups) -> list[tuple]:
    """(group, count) of ``trials`` split evenly over ``groups``, the first taking the remainder."""
    base, extra = divmod(trials, len(groups))
    return [(g, base + (i < extra)) for i, g in enumerate(groups) if base + (i < extra)]


def _grouped(keys) -> list[tuple[int, list[int]]]:
    """(key, indices of the entries equal to it) per distinct key, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    return list(groups.items())


def _haar_ce_rows(drawn: list[tuple]) -> list[np.ndarray]:
    """C(s) for every label mask s (the ``ce_purity`` values) of
    ``make_haar_random(n, state_seed)``, for each trial (n, state_seed, ...)
    in ``drawn``: one ``make_haar_random_stack`` and one ``purity_arrays``
    call per n.
    """
    rows = [None] * len(drawn)
    for n, indices in _grouped(trial[0] for trial in drawn):
        stack = make_haar_random_stack(n, [drawn[i][1] for i in indices])
        for index, row in zip(indices, ce_all_subsets(purity_arrays(stack))):
            rows[index] = row
    return rows


def check_route_agreement(trials=100, n_values=(2, 3, 4, 5, 6), seed=101, tolerance=1e-9):
    """The purity-sum, SWAP-test and even-weight routes to C(s) agree on random states.

    Per n, the SWAP-test route, 1 - p(all-zero on s) as in ``ce_distribution``,
    is read off the full-register laws of one ``exact_distributions`` call,
    and the even-weight route off the purity+Walsh laws of one
    ``purity_arrays`` call, with the selection ``ce_even_weight`` makes. The
    purity sum, ``ce_purity``, runs per state: the one single-state route,
    the reference the stacked ones are held to.
    """
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for n, per_n in _split(trials, n_values):
        drawn = [(_state_seed(rng), _nonempty_mask(rng, n)) for _ in range(per_n)]
        masks = np.array([mask for _, mask in drawn])
        stack = make_haar_random_stack(n, [state_seed for state_seed, _ in drawn])
        tables = exact_distributions(stack, stack, QubitSet.full(n))
        off_s = (np.arange(1 << n) & _table_masks(n, masks)[:, None]) == 0
        swap_test = np.maximum(1.0 - np.vecdot(tables, off_s), 0.0)
        walsh = _walsh_law(purity_arrays(stack))
        even_weight = _clamp_all(np.vecdot(walsh, _even_touching(n, masks)))
        purity_sum = np.array(
            [ce_purity(psi, QubitSet(n, mask)).value for psi, mask in zip(stack, masks.tolist())]
        )
        worst.update_first_max(
            np.maximum(np.abs(purity_sum - swap_test), np.abs(purity_sum - even_weight)),
            lambda b: f"n={n} state_seed={drawn[b][0]} mask={drawn[b][1]:#b}",
        )
    return worst.report("route-agreement", trials, tolerance)


def check_odd_weight_zero(trials=50, n_values=(2, 3, 4, 5, 6), seed=202, tolerance=1e-10):
    """Odd-weight control bitstrings never occur for identical copies.

    Per n, one ``exact_distributions`` call gives the pair-basis law of every
    state and one ``purity_arrays`` call the purity+Walsh law; a negative
    purity-route probability counts by its size.
    """
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for n, per_n in _split(trials, n_values):
        odd = np.bitwise_count(np.arange(1 << n)) % 2 == 1
        drawn = []
        for _ in range(per_n):
            state_seed = _state_seed(rng)
            z_mask = _nonempty_mask(rng, n)
            if z_mask.bit_count() % 2 == 0:
                z_mask ^= 1 << int(rng.integers(0, n))
            drawn.append((state_seed, "".join("1" if z_mask >> k & 1 else "0" for k in range(n))))
        stack = make_haar_random_stack(n, [state_seed for state_seed, _ in drawn])
        projector = exact_distributions(stack, stack, QubitSet.full(n))[:, odd].max(axis=1)
        walsh = _walsh_law(purity_arrays(stack))
        for b, (state_seed, z) in enumerate(drawn):
            worst.update(float(projector[b]), f"n={n} state_seed={state_seed} route=projector")
            worst.update(
                abs(float(walsh[b, int(z, 2)])),
                f"n={n} state_seed={state_seed} z={z} route=purities",
            )
    return worst.report("odd-weight-zero", trials, tolerance)


def check_biseparable_zero(trials=50, n_values=(2, 3, 4, 5, 6), seed=303, tolerance=1e-10):
    """Weight-2 outcomes straddling a product cut have zero probability.

    Each same-n group of product states is built as stacks of its factors
    and gets every outcome from one ``exact_distributions`` call.
    """
    rng = np.random.default_rng(seed)
    worst = _Worst()
    drawn = []
    for _ in range(trials):
        n = int(rng.choice(n_values))
        cut = int(rng.integers(1, n)) if n > 1 else 1
        drawn.append((n, cut, _state_seed(rng), _state_seed(rng)))
    tables = [None] * trials
    for n, indices in _grouped(n for n, *_ in drawn):
        amps = np.empty((len(indices), 1 << n), dtype=np.complex128)
        for cut, rows in _grouped(drawn[i][1] for i in indices):
            left = make_haar_random_stack(cut, [drawn[indices[r]][2] for r in rows])
            right = make_haar_random_stack(n - cut, [drawn[indices[r]][3] for r in rows])
            product = left.amplitudes[:, :, None] * right.amplitudes[:, None, :]
            amps[rows] = product.reshape(len(rows), -1)
        stack = StateStack(n, amps)
        for index, table in zip(indices, exact_distributions(stack, stack, QubitSet.full(n))):
            tables[index] = table
    for (n, cut, seed_a, seed_b), table in zip(drawn, tables):
        # Every straddling outcome, read from one full-register table.
        pairs = [(k, k_prime) for k in range(cut) for k_prime in range(cut, n)]
        bits = ["".join("1" if j in pair else "0" for j in range(n)) for pair in pairs]
        worst.update_first_max(
            table[[int(z, 2) for z in bits]],
            lambda i: f"n={n} cut={cut} seeds=({seed_a},{seed_b}) z={bits[i]}",
        )
    return worst.report("bi-separable-zero", trials, tolerance)


def check_tangle_identity(trials=40, n_values=(2, 4, 6), seed=404, tolerance=1e-9):
    """For even n, the all-ones outcome carries the n-tangle: 2^n p(1...1) = tau.

    Per n, p(1...1) of every state comes from one ``outcome_probabilities``
    call; ``n_tangle`` runs per state.
    """
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for n, per_n in _split(trials, n_values):
        seeds = [_state_seed(rng) for _ in range(per_n)]
        stack = make_haar_random_stack(n, seeds)
        p_ones = outcome_probabilities(stack, stack, "1" * n)
        tangles = np.array([n_tangle(psi) for psi in stack])
        worst.update_first_max(
            np.abs((1 << n) * p_ones - tangles), lambda b: f"n={n} state_seed={seeds[b]}"
        )
    return worst.report("tangle-identity", trials, tolerance)


def check_singlet_projection(trials=100, n_values=(2, 3, 4), seed=505, tolerance=1e-9):
    """Every |1> control leaves its copy-qubit pair in the singlet state.

    Each trial's outcome is drawn from its state's exact law less the
    all-zero outcome (and any ``post_measurement`` cannot condition on), so
    every trial at n >= 2 tests at least one pair; n = 1 has none to test.
    Per n, the laws, the post-states and the pair marginals are one stacked
    call each.
    """
    rng = np.random.default_rng(seed)
    worst = _Worst()
    drawn = [
        (int(rng.choice(n_values)), _state_seed(rng), float(rng.random())) for _ in range(trials)
    ]
    pairs_seen = 0
    for n, indices in _grouped(n for n, *_ in drawn):
        stack = make_haar_random_stack(n, [drawn[i][1] for i in indices])
        laws = np.array(exact_distributions(stack, stack, QubitSet.full(n)))
        # Rounding leaves the odd-weight outcomes of identical copies near 1e-33.
        laws[(laws <= CONDITION_FLOOR) | (np.arange(1 << n) == 0)] = 0.0
        if not laws.any():
            continue
        outcomes = draw_outcomes(laws, [drawn[i][2] for i in indices])
        _, posts = post_measurements(stack, stack, outcomes)
        infidelities = 1.0 - singlet_fidelities(pair_marginals(posts, n, range(n)))
        # Qubit k reads 1 where table bit n-1-k of the outcome is set.
        rows, qubits = np.nonzero((outcomes[:, None] >> np.arange(n - 1, -1, -1)) & 1)
        if not len(rows):
            continue
        pairs_seen += len(rows)

        def witness(j):
            _, state_seed, u = drawn[indices[rows[j]]]
            z = format(int(outcomes[rows[j]]), f"0{n}b")
            return f"n={n} state_seed={state_seed} u={u!r} z={z} k={qubits[j]}"

        worst.update_first_max(infidelities[rows, qubits], witness)
    if pairs_seen == 0:
        worst.update(np.inf, "no |1> outcomes drawn")
    return worst.report("singlet-projection", trials, tolerance)


def _draw_locc(rng: np.random.Generator, trials: int, n_values, with_mask: bool) -> list[tuple]:
    """(n, state_seed, kraus_seed, qubit[, mask]) of each trial, drawn in that order."""
    drawn = []
    for _ in range(trials):
        n = int(rng.choice(n_values))
        trial = (n, _state_seed(rng), _state_seed(rng), int(rng.integers(0, n)))
        drawn.append(trial + (_nonempty_mask(rng, n),) if with_mask else trial)
    return drawn


def _locc_purities(drawn: list[tuple]):
    """Yield, per n, (trials, before, weights, after) for random local measurements.

    ``trials`` index ``drawn``; ``before`` holds each state's 2^n purities,
    ``weights`` its two branch probabilities (0 for a dropped branch) and
    ``after`` the purities of both post-states, shape (B, 2, 2^n). The
    states, the Kraus pairs, their application and all purities are each
    one stacked call per n.
    """
    for n, trials in _grouped(trial[0] for trial in drawn):
        states = make_haar_random_stack(n, [drawn[t][1] for t in trials])
        ops = random_local_kraus_stack([drawn[t][2] for t in trials])
        weights, posts = apply_local_kraus_stack(states, ops, [drawn[t][3] for t in trials])
        stack = StateStack(n, np.concatenate([states.amplitudes, posts.amplitudes]))
        purities = purity_arrays(stack)
        before, after = purities[: len(trials)], purities[len(trials) :]
        yield trials, before, weights, after.reshape(len(trials), 2, -1)


def _locc_witness(n, state_seed, kraus_seed, qubit, *mask) -> str:
    witness = f"n={n} state_seed={state_seed} kraus_seed={kraus_seed} qubit={qubit}"
    return witness + "".join(f" mask={m:#b}" for m in mask)


def check_ce_locc_monotonicity(trials=200, n_values=(2, 3, 4, 5), seed=606, tolerance=1e-9):
    """Average C(s) over the branches of a random local measurement never grows."""
    rng = np.random.default_rng(seed)
    drawn = _draw_locc(rng, trials, n_values, with_mask=True)
    violations = np.empty(trials)
    for rows, before, weights, after in _locc_purities(drawn):
        masks = np.array([drawn[t][4] for t in rows])
        ce_before = np.take_along_axis(ce_all_subsets(before), masks[:, None], axis=1)[:, 0]
        ce_after = np.take_along_axis(ce_all_subsets(after), masks[:, None, None], axis=2)[..., 0]
        violations[rows] = (weights * ce_after).sum(axis=1) - ce_before
    worst = _Worst()
    worst.update_first_max(violations, lambda t: _locc_witness(*drawn[t]))
    return worst.report("ce-locc-monotonicity", trials, tolerance)


def check_purity_locc_monotonicity(trials=200, n_values=(2, 3, 4, 5), seed=707, tolerance=1e-9):
    """Average local purities never drop under a random local measurement."""
    rng = np.random.default_rng(seed)
    drawn = _draw_locc(rng, trials, n_values, with_mask=False)
    gaps = [None] * trials
    for rows, before, weights, after in _locc_purities(drawn):
        averaged = weights[:, 0, None] * after[:, 0] + weights[:, 1, None] * after[:, 1]
        for t, gap in zip(rows, before - averaged):
            gaps[t] = gap
    worst = _Worst()
    for trial, gap in zip(drawn, gaps):
        witness = _locc_witness(*trial)
        worst.update_first_max(gap, lambda alpha: f"{witness} alpha={alpha:#b}")
    return worst.report("purity-locc-monotonicity", trials, tolerance)


def check_nested_monotonicity(trials=200, n_values=(2, 3, 4, 5, 6), seed=808, tolerance=1e-10):
    """C(s') <= C(s) whenever s' is a subset of s."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    drawn = []
    for _ in range(trials):
        n = int(rng.choice(n_values))
        state_seed = _state_seed(rng)
        outer_mask = _nonempty_mask(rng, n)
        labels = [k for k in range(n) if outer_mask >> k & 1]
        keep = rng.random(len(labels)) < 0.5
        inner_mask = sum(1 << l for l, k in zip(labels, keep) if k)
        if inner_mask == 0:
            inner_mask = 1 << labels[int(rng.integers(0, len(labels)))]
        witness = f"n={n} state_seed={state_seed} inner={inner_mask:#b} outer={outer_mask:#b}"
        drawn.append((n, state_seed, inner_mask, outer_mask, witness))
    for ce, (*_, inner_mask, outer_mask, witness) in zip(_haar_ce_rows(drawn), drawn):
        worst.update(float(ce[inner_mask] - ce[outer_mask]), witness)
    return worst.report("nested-monotonicity", trials, tolerance)


def check_subadditivity(trials=200, n_values=(2, 3, 4, 5, 6), seed=909, tolerance=1e-10):
    """max(C(s), C(s')) <= C(s u s') <= C(s) + C(s') for disjoint s, s'."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    drawn = []
    for _ in range(trials):
        n = int(rng.choice([v for v in n_values if v >= 2]))
        state_seed = _state_seed(rng)
        first = _nonempty_mask(rng, n)
        while first == (1 << n) - 1:
            first = _nonempty_mask(rng, n)
        complement_labels = [k for k in range(n) if not first >> k & 1]
        keep = rng.random(len(complement_labels)) < 0.5
        second = sum(1 << l for l, k in zip(complement_labels, keep) if k)
        if second == 0:
            second = 1 << complement_labels[int(rng.integers(0, len(complement_labels)))]
        witness = f"n={n} state_seed={state_seed} s={first:#b} s'={second:#b}"
        drawn.append((n, state_seed, first, second, witness))
    for ce, (*_, first, second, witness) in zip(_haar_ce_rows(drawn), drawn):
        c_first, c_second, c_union = float(ce[first]), float(ce[second]), float(ce[first | second])
        worst.update(c_union - c_first - c_second, witness)
        worst.update(max(c_first, c_second) - c_union, witness)
    return worst.report("subadditivity", trials, tolerance)


def check_continuity(trials=200, n_values=(2, 3, 4, 5), seed=1010, tolerance=1e-9):
    """|C(psi) - C(phi)| <= 2 * ||psi psi+ - phi phi+||_1 on perturbed pairs."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    drawn = []
    for _ in range(trials):
        n = int(rng.choice(n_values))
        state_seed = _state_seed(rng)
        epsilon = float(rng.uniform(1e-4, 0.9))
        drawn.append((n, state_seed, epsilon, _nonempty_mask(rng, n)))
    violations = [None] * trials
    for n, indices in _grouped(trial[0] for trial in drawn):
        states = list(make_haar_random_stack(n, [drawn[i][1] for i in indices]))
        perturbed = [perturb(psi, drawn[i][2]) for i, psi in zip(indices, states)]
        ce = ce_all_subsets(purity_arrays(states + perturbed))
        for row, i in enumerate(indices):
            mask = drawn[i][3]
            one_norm = 2.0 * trace_distance_pure(states[row], perturbed[row])
            gap = abs(float(ce[row, mask]) - float(ce[len(indices) + row, mask]))
            violations[i] = gap - 2.0 * one_norm
    for (n, state_seed, epsilon, mask), violation in zip(drawn, violations):
        worst.update(violation, f"n={n} state_seed={state_seed} eps={epsilon:.6f} mask={mask:#b}")
    return worst.report("continuity", trials, tolerance)


def check_error_bound(
    trials=600, epsilons=(0.1, 0.001, 0.0001), n=3, seed=1111, tolerance=1e-9
):
    """Unequal copies: 0 <= [C_xy - C_x] + [C_xy - C_y] < 4 eps^2 on every pair."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    s = QubitSet.full(n)
    for epsilon, per_eps in _split(trials, epsilons):
        seeds = [_state_seed(rng) for _ in range(per_eps)]
        states = make_haar_random_stack(n, seeds)
        primes = StateStack.of([perturb(psi, epsilon) for psi in states])
        cross = ce_two_states(states, primes, s)
        both = StateStack(n, np.concatenate([states.amplitudes, primes.amplitudes]))
        singles = ce_all_subsets(purity_arrays(both))
        excess = (cross - singles[:per_eps, s.mask]) + (cross - singles[per_eps:, s.mask])
        bound = 4.0 * epsilon * epsilon
        # Excess at the bound fails outright and counts by how far it went.
        over = excess >= bound
        worst.failed |= bool(over.any())
        worst.update_first_max(
            np.where(over, excess - bound + tolerance, -excess),
            lambda b: f"n={n} state_seed={seeds[b]} eps={epsilon}",
        )
    return worst.report("error-bound", trials, tolerance)


def check_closed_forms(n_max=8, seed=1212, tolerance=1e-10):
    """GHZ and W values match their closed forms for every cardinality."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    count = 0
    for n in range(2, n_max + 1):
        ghz, w = ce_all_subsets(purity_arrays([make_ghz(n), make_w(n)]))
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
    for n in n_values:
        measure = _projective_pair(n - 1)
        branches = apply_local_kraus(make_w(n), measure) + apply_local_kraus(make_ghz(n), measure)
        zero_branch, one_branch, *ghz_branches = ce_all_subsets(
            purity_arrays([b.post_state for b in branches])
        )
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
