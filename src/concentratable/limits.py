"""Size caps for the exponentially-sized objects this package builds.

Every cap is checked by one gate, ``require(kind, size)``, which raises
BudgetError (CLI exit 3) naming the offending count and the cap instead of
exhausting memory. The kinds, with the size each one is given:

- ``"subsets"``: n, for the 2^n - 1 subsets ``ce --all-subsets``
  enumerates. Cap ``OUTCOME_ENUM_MAX_QUBITS`` = 14.
- ``"purity-table"``: c(s), for the 2^c(s) entries of ``purity_table``,
  the 2^c(s) purities ``ce_purity`` sums and (c(s) = n) the purity array
  a purity-sum ``ce_sweep`` reads. Cap ``PURITY_TABLE_MAX_CARDINALITY`` = 24.
- ``"cross-purity"``: c(s), for the 2^c(s) cross-purity terms of
  ``ce_two_state``. Cap ``PURITY_TABLE_MAX_CARDINALITY`` = 24.
- ``"outcomes"``: the tested qubit count m, for the 2^m-entry table of
  ``exact_distribution`` and ``identical_copy_distribution``. Cap
  ``OUTCOME_ENUM_MAX_QUBITS`` = 14.
- ``"purity-terms"``: n, for the state whose purities the purity+Walsh
  outcome law ``identical_copy_distribution`` transforms. Its users are
  ``distribution_via_purities``, ``full_distribution_via_purities``,
  ``ce_even_weight``, the even-weight ``ce_sweep`` and, through
  ``outcome_distribution``, ``sample`` and the CLI's ``dist``, ``sample``
  and ``distill`` on identical copies; and ``verify``'s closed-forms check,
  given its n_max, whose all-subset purity arrays of two states grow about
  4x per qubit. Cap ``PURITY_DISTRIBUTION_MAX_QUBITS`` = 14; it is checked
  before ``"outcomes"``.
- ``"compare"``: n_max, for the up to five rows per n = 4..n_max of
  ``compare_ghz_w`` and the CLI's ``compare``, all held in memory with
  their CSV. Cap ``COMPARE_MAX_QUBITS`` = 1024 (5,103 rows).
- ``"dense"``: n, for the 4^n-entry density matrix of the dense oracles
  in ``oracle``. Cap ``DENSE_ORACLE_MAX_QUBITS`` = 10.
- ``"branches"``: the branch count of ``apply_separable_sequence``. Cap
  ``SEPARABLE_BRANCH_MAX`` = 2^20.
- ``"two-copies"``: 2n simulated qubits, for the 4^n two-copy vector of
  the pair-basis SWAP-test routines (``exact_distribution``,
  ``zero_outcome_probability``, ``outcome_probability``, ``post_measurement``
  and their stacked forms; ``ce_distribution`` and the distribution
  ``ce_sweep``, which checks it before ``"outcomes"``; ``outcome_distribution``
  and ``sample`` on unequal copies). The CLI's ``distill`` checks it before
  its first draw, since every run that sees a 1 conditions the two-copy
  vector. Cap ``max_sim_qubits()``: CE_MAX_QUBITS, default
  ``DEFAULT_MAX_SIM_QUBITS`` = 20 (16 MiB of complex128 amplitudes).
- ``"circuit"``: 2n plus one ancilla per tested qubit, for the register of
  ``full_circuit_oracle``. Same cap as ``"two-copies"``.
- ``"state"``: n, for the 2^n amplitudes ``make_ghz``, ``make_w``,
  ``make_graph_state``, ``make_haar_random`` and each row of
  ``make_haar_random_stack`` allocate. Same cap as ``"two-copies"``: one n-qubit
  state is n simulated qubits. (A state read from a file is already in
  memory; ``Statevector`` checks its amplitude count.)

Caps are read when ``require`` is called, so lowering one of the
constants above (or setting CE_MAX_QUBITS) takes effect at once.
"""

import os

from .errors import BudgetError, ValidationError

PURITY_TABLE_MAX_CARDINALITY = 24
OUTCOME_ENUM_MAX_QUBITS = 14
PURITY_DISTRIBUTION_MAX_QUBITS = 14
COMPARE_MAX_QUBITS = 1024
SEPARABLE_BRANCH_MAX = 2**20
DENSE_ORACLE_MAX_QUBITS = 10
DEFAULT_MAX_SIM_QUBITS = 20


def _power(k: int, less: int = 0) -> str:
    """2^k - less in decimal, or written as a power past 2^64: the decimal of
    2^(10^6) passes Python's 4,300-digit limit and 2^(10^30) cannot be built."""
    return str((1 << k) - less) if k <= 64 else f"2^{k}" + (f" - {less}" if less else "")


# kind -> (name of its cap constant, or None for the register cap; message).
_KINDS = {
    "subsets": (
        "OUTCOME_ENUM_MAX_QUBITS",
        lambda n, cap: f"--all-subsets would enumerate {_power(n, 1)} subsets (cap n <= {cap})",
    ),
    "purity-table": (
        "PURITY_TABLE_MAX_CARDINALITY",
        lambda c, cap: f"purity table over c(s)={c} would hold 2^{c} = {_power(c)} entries "
        f"(cap: c(s) <= {cap})",
    ),
    "cross-purity": (
        "PURITY_TABLE_MAX_CARDINALITY",
        lambda c, cap: f"{_power(c)} cross-purity terms (cap 2^{cap})",
    ),
    "outcomes": (
        "OUTCOME_ENUM_MAX_QUBITS",
        lambda m, cap: f"{_power(m)} outcomes for {m} tested qubits (cap {cap})",
    ),
    "purity-terms": (
        "PURITY_DISTRIBUTION_MAX_QUBITS",
        lambda n, cap: f"{_power(n)} purity terms for n={n} (cap {cap})",
    ),
    "compare": (
        "COMPARE_MAX_QUBITS",
        lambda n, cap: f"closed-form table to n={n} (cap n <= {cap})",
    ),
    "dense": (
        "DENSE_ORACLE_MAX_QUBITS",
        lambda n, cap: f"dense oracle materializes 4^{n} entries (cap n <= {cap})",
    ),
    "branches": (
        "SEPARABLE_BRANCH_MAX",
        lambda count, cap: f"{count} branches exceeds cap {cap}",
    ),
    "two-copies": (
        None,
        lambda q, cap: f"two {q // 2}-qubit copies need {q} simulated qubits "
        f"(cap {cap}; override with CE_MAX_QUBITS)",
    ),
    "circuit": (
        None,
        lambda q, cap: f"circuit oracle needs {q} simulated qubits "
        f"(cap {cap}; override with CE_MAX_QUBITS)",
    ),
    "state": (
        None,
        lambda n, cap: f"a {n}-qubit state needs 2^{n} amplitudes "
        f"(cap {cap} qubits; override with CE_MAX_QUBITS)",
    ),
}


def max_sim_qubits() -> int:
    """Simulated-register cap, overridable via CE_MAX_QUBITS."""
    raw = os.environ.get("CE_MAX_QUBITS")
    if raw is None:
        return DEFAULT_MAX_SIM_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"CE_MAX_QUBITS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValidationError(f"CE_MAX_QUBITS must be positive, got {value}")
    return value


def require(kind: str, size: int) -> None:
    """Raise BudgetError if ``size`` exceeds the cap of ``kind`` (see the module docstring)."""
    cap_name, message = _KINDS[kind]
    cap = max_sim_qubits() if cap_name is None else globals()[cap_name]
    if size > cap:
        raise BudgetError(message(size, cap))
