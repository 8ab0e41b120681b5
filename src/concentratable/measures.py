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
purities from the full-register plan. "auto" always takes the purity
sum; see ``concentratable_entanglement``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import limits
from .errors import ConsistencyError, ValidationError
from .reductions import _plan, _state_purities, cross_purities, submasks
from .states import QubitSet, Statevector, paired_stacks, require_same_qubits
from .swaptest import (
    ShotHistogram,
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


def _clamp_all(values: np.ndarray) -> np.ndarray:
    """``_clamp`` of every entry."""
    _clamp(float(values.min()))
    return np.maximum(values, 0.0)


def _table_masks(n: int, masks) -> np.ndarray:
    """Label masks (bit k = qubit k) as outcome-table index masks (qubit k is bit n-1-k)."""
    k = np.arange(n)
    return ((np.asarray(masks)[..., None] >> k) & 1) @ (1 << (n - 1 - k))


def _even_touching(n: int, masks) -> np.ndarray:
    """Outcomes of even weight with a 1 on some qubit of s, for each label mask s.

    Boolean, by outcome-table index on the last axis; leading axes follow ``masks``.
    """
    index = np.arange(1 << n)
    touching = (index & _table_masks(n, masks)[..., None]) != 0
    return touching & (np.bitwise_count(index) & 1 == 0)


def ce_purity(psi: Statevector, s: QubitSet) -> CEResult:
    """C(s) from the purity sum over all 2^{c(s)} subsets of s."""
    _require_nonempty(psi, s)
    limits.require("purity-table", s.cardinality)
    total = float(_state_purities(psi.amplitudes, _plan(psi.n_qubits, s.mask)).sum())
    value = _clamp(1.0 - total / (1 << s.cardinality))
    return CEResult(value, s, "purity_sum", {"terms": 1 << s.cardinality})


def ce_all_subsets(purities: np.ndarray) -> np.ndarray:
    """C(s) for every label mask s, from the 2^n purities of ``purity_array``.

    The last axis is indexed by label mask; leading axes (such as the rows of
    ``purity_arrays``) are separate states. The sum over the subsets of s in
    ``ce_purity`` is one subset-sum (zeta) transform: pass k adds each entry
    without qubit k into the one with it. Entry 0 (the empty set) is 0.
    """
    sums = np.array(purities, dtype=float)
    size = sums.shape[-1]
    for k in range(size.bit_length() - 1):
        pairs = sums.reshape(sums.shape[:-1] + (-1, 2, 1 << k))
        pairs[..., 1, :] += pairs[..., 0, :]
    return _clamp_all(1.0 - sums / 2.0 ** np.bitwise_count(np.arange(size)))


def ce_distribution(psi: Statevector, s: QubitSet) -> CEResult:
    """C(s) = 1 - p(all-zero) from a simulated SWAP test on the qubits in s.

    Only the all-zero projector branch is evaluated; its norm is exactly
    the all-zero entry of ``exact_distribution(psi, psi, tested=s)``.
    """
    _require_nonempty(psi, s)
    p_zero = zero_outcome_probability(psi, psi, s)
    value = _clamp(1.0 - p_zero)
    return CEResult(
        value, s, "distribution_zero_set", {"zero_outcome_probability": p_zero}
    )


def ce_even_weight(psi: Statevector, s: QubitSet) -> CEResult:
    """C(s) as the summed probability of even-weight outcomes touching s.

    Reads the full-register law of ``identical_copy_distribution``, so the
    n <= 14 budget is set by its 2^n purity terms.
    """
    _require_nonempty(psi, s)
    selected = _even_touching(psi.n_qubits, s.mask)
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


def concentratable_entanglement(
    psi: Statevector, s: QubitSet, method: str = "auto"
) -> CEResult:
    """C(s) by the requested route; "auto" is the purity sum.

    The purity sum is the default because it costs O(2^n) memory and beats
    the O(4^n) SWAP-test route from n = 7 on the full set; the SWAP-test
    route also refuses n > 10 under the default 20-qubit cap.
    """
    if method == "auto":
        method = "purity_sum"
    if method == "purity_sum":
        return ce_purity(psi, s)
    if method == "distribution_zero_set":
        return ce_distribution(psi, s)
    if method == "even_weight_sum":
        return ce_even_weight(psi, s)
    raise ValidationError(f"unknown method {method!r} (seed-based 'shots' runs via ce_shots)")


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
    """|<psi| Y^(x)n |psi*>|^2; equals 2^n p(all-ones) for even n."""
    amps = psi.amplitudes
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(psi.dim)) & 1)
    overlap = np.sum(signs * amps * amps[::-1])
    return float(min(abs(overlap) ** 2, 1.0))


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
