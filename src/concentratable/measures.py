"""The concentratable-entanglement family and related monotones.

For a subset s of qubit labels, the measure is

    C(s) = 1 - 2^{-c(s)} * sum over subsets alpha of s of Tr[rho_alpha^2]

and equals both 1 - p(all-zero) of a SWAP test on the qubits in s and the
total probability of even-weight SWAP-test outcomes touching s. The three
routes are implemented separately so they can cross-check each other:
``ce_purity`` sums the 2^{c(s)} subset purities from the purity plan of
``reductions``, ``ce_distribution`` takes the all-zero outcome of
the pair-basis SWAP test on two copies (O(c * 4^n) time and a 4^n-entry
joint vector), and ``ce_even_weight`` sums the full-register law of
``swaptest.identical_copy_distribution``, a Walsh transform of all 2^n
purities from the full-register plan. ``ce_sweep`` picks the route ("auto" is
the purity sum); all s at once are one subset-sum transform (``ce_all_subsets``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import limits
from .errors import ConsistencyError, ValidationError
from .reductions import _plan, _state_purities, cross_purities, purity_array, submasks
from .states import QubitSet, StateStack, Statevector, paired_stacks, require_same_qubits
from .swaptest import (
    ShotHistogram,
    _reverse_bits,
    exact_distribution,
    identical_copy_distribution,
    sample,
    zero_outcome_probability,
)

METHODS = ("purity_sum", "distribution_zero_set", "even_weight_sum", "shots")

CSV_COLUMNS = ("n", "mask", "cardinality", "method", "value", "stderr")


@dataclass(frozen=True)
class CEResult:
    """A computed concentratable-entanglement value with its provenance."""

    value: float
    s: QubitSet
    method: str
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        # Exact values obey 1 - p(all-zero) <= 1 - 2^{-c(s)}; an unbiased
        # shot estimate may legitimately overshoot that bound.
        bound = 1.0 if self.method == "shots" else 1.0 - 2.0 ** (-self.s.cardinality)
        if not -1e-9 <= self.value <= bound + 1e-9:
            raise ValidationError(
                f"value {self.value} outside [0, {bound}] for c(s)={self.s.cardinality}"
            )

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "mask": self.s.mask,
            "method": self.method,
            "detail": self.detail,
        }

    def csv_row(self) -> tuple:
        stderr = self.detail.get("stderr", "")
        return (
            self.s.n_qubits,
            self.s.mask,
            self.s.cardinality,
            self.method,
            self.value,
            stderr,
        )


def _require_nonempty(psi: Statevector, s: QubitSet) -> None:
    require_same_qubits(psi, s)
    if s.cardinality == 0:
        raise ValidationError("the empty subset has no concentratable entanglement")


def _clamp(value: float) -> float:
    if value < -1e-9:
        raise ConsistencyError(f"entanglement value {value} is significantly negative")
    return max(value, 0.0)


def _subset_sums(values) -> np.ndarray:
    """Subset-sum (zeta) transform on the last axis, leading axes being states: Z[t] sums
    values[x] over the submasks x of t; pass k adds each entry without bit k to the one with it."""
    sums = np.array(values, dtype=float)
    for k in range(sums.shape[-1].bit_length() - 1):
        pairs = sums.reshape(sums.shape[:-1] + (-1, 2, 1 << k))
        pairs[..., 1, :] += pairs[..., 0, :]
    return sums


def _zero_on_sums(laws: np.ndarray) -> np.ndarray:
    """p(no 1 on s) = Z[complement of s] by label mask s, from full-register laws by table index."""
    return _subset_sums(_reverse_bits(laws))[..., ::-1]


def ce_purity(psi: Statevector, s: QubitSet) -> CEResult:
    """C(s) from the purity sum over all 2^{c(s)} subsets of s."""
    _require_nonempty(psi, s)
    limits.require("purity-table", s.cardinality)
    total = float(_state_purities(psi.amplitudes, _plan(psi.n_qubits, s.mask)).sum())
    value = _clamp(1.0 - total / (1 << s.cardinality))
    return CEResult(value, s, "purity_sum", {"terms": 1 << s.cardinality})


def ce_all_subsets(table, method: str = "purity_sum") -> np.ndarray:
    """C(s) for every label mask s, from one full-register table of the route.

    The table is ``purity_array`` for "purity_sum", the pair-basis law of
    ``exact_distribution`` for "distribution_zero_set" or the purity+Walsh
    law of ``identical_copy_distribution`` for "even_weight_sum" (laws by
    table index); leading axes, such as the rows of ``purity_arrays``, are
    states. Each is one subset-sum transform Z: the sum over the subsets of s
    in ``ce_purity``, 1 - Z[complement of s] = 1 - p(no 1 on s), or, over
    even-weight outcomes, Z_even[all] - Z_even[complement of s]. Entry 0 (the
    empty set) is 0, up to rounding on the distribution route.
    """
    weights = np.bitwise_count(np.arange(np.shape(table)[-1]))
    if method == "purity_sum":
        values = 1.0 - _subset_sums(table) / 2.0**weights
    elif method == "distribution_zero_set":
        values = 1.0 - _zero_on_sums(table)
    elif method == "even_weight_sum":
        even = _zero_on_sums(table * (weights % 2 == 0))
        values = even[..., :1] - even
    else:
        raise ValidationError(f"unknown method {method!r} for a full-register table")
    _clamp(float(values.min()))
    return np.maximum(values, 0.0)


def ce_distribution(psi: Statevector, s: QubitSet) -> CEResult:
    """C(s) = 1 - p(all-zero) from a simulated SWAP test on the qubits in s.

    Only the all-zero projector branch is evaluated; its norm is exactly
    the all-zero entry of ``exact_distribution(psi, psi, tested=s)``.
    """
    _require_nonempty(psi, s)
    p_zero = zero_outcome_probability(psi, psi, s)
    value = _clamp(1.0 - p_zero)
    return CEResult(value, s, "distribution_zero_set", {"zero_outcome_probability": p_zero})


def ce_even_weight(psi: Statevector, s: QubitSet) -> CEResult:
    """C(s) as the summed probability of even-weight outcomes touching s.

    Reads the full-register law of ``identical_copy_distribution``, so the
    n <= 14 budget is set by its 2^n purity terms; one s is one dot product.
    """
    _require_nonempty(psi, s)
    labels = np.arange(1 << psi.n_qubits)
    selected = _reverse_bits((labels & s.mask != 0) & (np.bitwise_count(labels) % 2 == 0))
    law = identical_copy_distribution(psi, QubitSet.full(psi.n_qubits)).probabilities
    value = _clamp(float(np.vecdot(law, selected)))
    return CEResult(value, s, "even_weight_sum", {"terms": int(selected.sum())})


def ce_shots(psi: Statevector, s: QubitSet, shots: int, seed: int) -> CEResult:
    """Monte-Carlo estimate of C(s) from sampled SWAP-test runs on s."""
    _require_nonempty(psi, s)
    if shots < 100:
        raise ValidationError(f"need at least 100 shots for an estimate, got {shots}")
    return ce_from_histogram(sample(psi, psi, s, shots, seed))


def ce_from_histogram(hist: ShotHistogram) -> CEResult:
    """C(s) estimate (1 - zero-outcome fraction) from an existing histogram."""
    m = hist.tested.cardinality
    if m == 0:
        raise ValidationError("histogram tested set is empty")
    p_zero = hist.counts.get("0" * m, 0) / hist.shots
    stderr = math.sqrt(p_zero * (1.0 - p_zero) / hist.shots)
    return CEResult(
        1.0 - p_zero,
        hist.tested,
        "shots",
        {"shots": hist.shots, "stderr": stderr, "seed": hist.seed},
    )


def ce_sweep(psi: Statevector, subsets, method: str = "auto") -> list[CEResult]:
    """C(s) for each subset by the requested route: the one route policy.

    "auto" is the purity sum, because it costs O(2^n) memory and beats the
    O(4^n) SWAP-test route from n = 7 on the full set; the SWAP-test route
    also refuses n > 10 under the default 20-qubit cap. One subset runs the
    route's function. Two or more read every value, and its detail, from the
    route's one full-register table (``ce_all_subsets``), checking first the
    cap the route's function checks first; they match it up to rounding.
    """
    method = "purity_sum" if method == "auto" else method
    route = dict(zip(METHODS, (ce_purity, ce_distribution, ce_even_weight))).get(method)
    if route is None:
        raise ValidationError(f"unknown method {method!r} (seed-based 'shots' runs via ce_shots)")
    if len(subsets) < 2:
        return [route(psi, s) for s in subsets]
    for s in subsets:
        _require_nonempty(psi, s)
    n, full = psi.n_qubits, QubitSet.full(psi.n_qubits)
    c, key = np.bitwise_count(np.arange(1 << n)).astype(int), "terms"
    if route is ce_purity:
        limits.require("purity-table", n)
        table, detail = purity_array(psi), 1 << c
    elif route is ce_distribution:
        limits.require("two-copies", 2 * n)
        table = exact_distribution(psi, psi, full).probabilities
        key, detail = "zero_outcome_probability", _zero_on_sums(table)
    else:
        table = identical_copy_distribution(psi, full).probabilities
        # 2^(n-1) even-weight outcomes, less the 2^(n-c-1) (1 if c = n) with no 1 on s.
        detail = (1 << (n - 1)) - np.maximum((1 << n) >> (c + 1), 1)
    values = ce_all_subsets(table, method)
    return [CEResult(float(values[s.mask]), s, method, {key: detail[s.mask].item()}) for s in subsets]


def concentratable_entanglement(psi: Statevector, s: QubitSet, method: str = "auto") -> CEResult:
    """C(s) by the requested route: ``ce_sweep`` of the one subset s."""
    return ce_sweep(psi, [s], method)[0]


def ce_two_state(psi: Statevector, psi_prime: Statevector, s: QubitSet) -> float:
    """Two-state generalization: 1 - 2^{-c(s)} * sum of Tr[rho_alpha rho'_alpha].

    Reduces to the single-state value when the copies are equal; for
    nearby copies the symmetrized excess over the single-state values is
    bounded by 4 * (trace distance)^2. This is ``ce_two_states`` on one
    pair of states.
    """
    return float(ce_two_states([psi], [psi_prime], s)[0])


def ce_two_states(states, states_prime, s: QubitSet) -> np.ndarray:
    """``ce_two_state`` of each pair of rows of two stacks (or sequences of
    states), from one ``cross_purities`` call per subset of s.
    """
    states, states_prime = paired_stacks(states, states_prime, s)
    _require_nonempty(states, s)
    limits.require("cross-purity", s.cardinality)
    total = sum(
        cross_purities(states, states_prime, QubitSet(s.n_qubits, mask))
        for mask in submasks(s.mask)
    )
    return 1.0 - total / (1 << s.cardinality)


def n_tangle(psi: Statevector) -> float:
    """|<psi| Y^(x)n |psi*>|^2; equals 2^n p(all-ones) for even n.

    This is row 0 of ``n_tangles``.
    """
    return float(n_tangles([psi])[0])


def n_tangles(states) -> np.ndarray:
    """``n_tangle`` of each row of a stack (or sequence of states)."""
    amps = StateStack.of(states).amplitudes
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(amps.shape[-1])) & 1)
    overlaps = np.sum(signs * amps * amps[:, ::-1], axis=-1)
    return np.minimum(np.abs(overlaps) ** 2, 1.0)


def ghz_closed_form(n: int, cardinality: int) -> float:
    """C(s) of the n-qubit GHZ state for any subset of the given cardinality."""
    if n < 1 or not 1 <= cardinality <= n:
        raise ValidationError(f"need 1 <= cardinality <= n, got c={cardinality}, n={n}")
    exponent = cardinality - (1 if cardinality == n else 0)
    return 0.5 * (1.0 - 0.5**exponent)


def w_closed_form(n: int, cardinality: int) -> float:
    """C(s) of the n-qubit W state for any subset of the given cardinality."""
    if n < 1 or not 1 <= cardinality <= n:
        raise ValidationError(f"need 1 <= cardinality <= n, got c={cardinality}, n={n}")
    return cardinality * (2 * n - cardinality - 1) / (2.0 * n * n)


def w_post_projection_ce(n: int, cardinality: int) -> tuple[float, float]:
    """(C(s) of the zero branch, quoted zero-branch probability) after
    measuring one qubit of the n-qubit W state in the computational basis.

    The zero branch is the (n-1)-qubit W state, so its C(s) is the W
    closed form one size down; the quoted branch probability is
    1 - 1/n^2. The directly simulated computational-basis probability of
    the zero outcome is (n-1)/n; both are reported by the verification
    tooling without asserting equality.
    """
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if not 1 <= cardinality <= n - 1:
        raise ValidationError(
            f"cardinality must address the surviving {n - 1} qubits, got {cardinality}"
        )
    value = cardinality * (2 * n - cardinality - 3) / (2.0 * (n - 1) ** 2)
    return value, 1.0 - 1.0 / (n * n)


def compare_ghz_w(n_max: int, cardinalities: list[int] | None = None) -> list[dict]:
    """Closed-form table of C_GHZ(s) - C_W(s) for n = 4..n_max.

    Default cardinalities per n are {1, 2, n//2, n-1, n} (deduplicated).
    Every difference is checked to be strictly positive. n_max is held to
    the ``"compare"`` cap before any row is built.
    """
    if n_max < 4:
        raise ValidationError(f"need n_max >= 4, got {n_max}")
    limits.require("compare", n_max)
    rows = []
    for n in range(4, n_max + 1):
        cs = cardinalities if cardinalities is not None else [1, 2, n // 2, n - 1, n]
        for c in sorted({c for c in cs if 1 <= c <= n}):
            ghz = ghz_closed_form(n, c)
            w = w_closed_form(n, c)
            delta = ghz - w
            if delta <= 0.0:
                raise ConsistencyError(f"GHZ-W difference not positive at n={n}, c={c}")
            rows.append({"n": n, "cardinality": c, "ghz": ghz, "w": w, "delta": delta})
    return rows
