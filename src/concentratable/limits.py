"""Size caps for the exponentially-sized objects this package builds.

All caps fail loudly (BudgetError) instead of exhausting memory. The
CE_MAX_QUBITS environment variable overrides the simulated-register cap
used by the SWAP-test routines.
"""

import os

from .errors import ValidationError

# Power-set enumeration cap: purity tables hold 2^c entries.
PURITY_TABLE_MAX_CARDINALITY = 24

# SWAP-test outcome enumeration cap: 2^m control bitstrings.
OUTCOME_ENUM_MAX_QUBITS = 14

# Purity-route distributions sum 2^n purity terms.
PURITY_DISTRIBUTION_MAX_QUBITS = 14

# Branch-tree expansion cap for sequences of local operations.
SEPARABLE_BRANCH_MAX = 2**20

# Dense density-matrix oracles materialize 4^n entries.
DENSE_ORACLE_MAX_QUBITS = 10

# Total simulated qubits (two state copies, plus ancillas for the
# explicit-circuit oracle). 20 qubits = 16 MiB of complex128 amplitudes.
DEFAULT_MAX_SIM_QUBITS = 20


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
