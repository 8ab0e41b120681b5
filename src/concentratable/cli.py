"""Command-line front end.

Subcommands: ce (compute the measure), dist (exact SWAP-test outcome
distribution), sample (sampled runs), verify (property suite), compare
(GHZ vs W closed-form table), distill (Bell-pair concentration runs).

Exit codes: 0 success, 1 property violation, 2 usage or validation error
(including an output file that cannot be written), 3 budget (size cap)
error. File outputs are written atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys

from . import __version__
from . import limits
from .errors import BudgetError, ValidationError
from .measures import (
    CSV_COLUMNS,
    CEResult,
    ce_all_subsets,
    ce_from_histogram,
    compare_ghz_w,
    concentratable_entanglement,
)
from .reductions import purity_array
from .states import QubitSet, Statevector, make_ghz, make_haar_random, make_w, statevector_from_dict
from .swaptest import (
    distribution_to_dict,
    exact_distribution,
    histogram_to_dict,
    pair_marginal,
    post_measurement,
    sample,
    singlet_fidelity,
)
from .verify import CHECKS, run_suite

SINGLET_FIDELITY_FLOOR = 1.0 - 1e-9


def _write_atomic(path: str, text: str) -> None:
    # A unique sibling temp file, so concurrent writers never share one and a
    # failed write leaves neither a partial target nor a stray temp file.
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _write_json(path: str, payload) -> None:
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _add_state_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("state source (choose exactly one)")
    group.add_argument("--ghz", type=int, metavar="N", help="n-qubit GHZ state")
    group.add_argument("--w", type=int, metavar="N", help="n-qubit W state")
    group.add_argument("--haar", type=int, metavar="N", help="Haar-random state (needs --state-seed)")
    group.add_argument("--file", metavar="PATH", help="state JSON file")
    parser.add_argument("--state-seed", type=int, help="seed for --haar")


def _resolve_state(args) -> Statevector:
    sources = [s for s in ("ghz", "w", "haar", "file") if getattr(args, s) is not None]
    if len(sources) != 1:
        raise ValidationError(f"need exactly one state source, got {sources or 'none'}")
    if args.ghz is not None:
        return make_ghz(args.ghz)
    if args.w is not None:
        return make_w(args.w)
    if args.haar is not None:
        if args.state_seed is None:
            raise ValidationError("--haar requires --state-seed")
        return make_haar_random(args.haar, args.state_seed)
    try:
        with open(args.file, encoding="utf-8") as handle:
            return statevector_from_dict(json.load(handle))
    except OSError as exc:
        raise ValidationError(f"cannot read state file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"state file is not valid JSON: {exc}") from exc


def _parse_mask(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError as exc:
        raise ValidationError(f"cannot parse mask {text!r} (use decimal, 0b... or 0x...)") from exc


def _add_subset_args(parser: argparse.ArgumentParser, sweeps: bool) -> None:
    parser.add_argument("--subset-mask", metavar="MASK", help="qubit subset bitmask (bit k = qubit k)")
    parser.add_argument(
        "--cardinality", type=int, metavar="C", help="canonical subset {0..C-1}"
    )
    if sweeps:
        parser.add_argument(
            "--all-cardinalities", action="store_true",
            help="sweep c=1..n with canonical subsets {0..c-1}",
        )
        parser.add_argument(
            "--all-subsets", action="store_true", help="every nonempty subset (budget-capped)"
        )


def _single_subset(args, n: int, default_full: bool = True) -> QubitSet:
    if args.subset_mask is not None and args.cardinality is not None:
        raise ValidationError("give either --subset-mask or --cardinality, not both")
    if args.subset_mask is not None:
        return QubitSet(n, _parse_mask(args.subset_mask))
    if args.cardinality is not None:
        if not 1 <= args.cardinality <= n:
            raise ValidationError(f"cardinality must be in 1..{n}, got {args.cardinality}")
        return QubitSet.from_labels(n, range(args.cardinality))
    if default_full:
        return QubitSet.full(n)
    raise ValidationError("no subset given")


def _resolve_subsets(args, n: int) -> list[QubitSet]:
    chosen = [
        name
        for name, on in (
            ("--subset-mask", args.subset_mask is not None),
            ("--cardinality", args.cardinality is not None),
            ("--all-cardinalities", args.all_cardinalities),
            ("--all-subsets", args.all_subsets),
        )
        if on
    ]
    if len(chosen) > 1:
        raise ValidationError(f"subset options are mutually exclusive, got {chosen}")
    if args.all_cardinalities:
        return [QubitSet.from_labels(n, range(c)) for c in range(1, n + 1)]
    if args.all_subsets:
        limits.require("subsets", n)
        return [QubitSet(n, mask) for mask in range(1, 1 << n)]
    return [_single_subset(args, n)]


def _sweep(psi: Statevector, subsets: list[QubitSet], method: str) -> list[CEResult]:
    """C(s) for each subset; a purity-sum sweep reads them all from one purity array."""
    if len(subsets) == 1 or method not in ("auto", "purity_sum"):
        return [concentratable_entanglement(psi, s, method=method) for s in subsets]
    # The full array is the purity table of the largest set a sweep asks for.
    limits.require("purity-table", psi.n_qubits)
    values = ce_all_subsets(purity_array(psi))
    return [
        CEResult(float(values[s.mask]), s, "purity_sum", {"terms": 1 << s.cardinality})
        for s in subsets
    ]


def cmd_ce(args) -> int:
    psi = _resolve_state(args)
    results = _sweep(psi, _resolve_subsets(args, psi.n_qubits), args.method)
    for r in results:
        print(f"C(mask={r.s.mask:#b}, c={r.s.cardinality}) = {r.value:.12g}  [{r.method}]")
    if args.output:
        if args.format == "json":
            _write_json(args.output, {"n": psi.n_qubits, "results": [r.to_dict() for r in results]})
        else:
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in results:
                writer.writerow(r.csv_row())
            _write_atomic(args.output, buffer.getvalue())
    return 0


def cmd_dist(args) -> int:
    psi = _resolve_state(args)
    tested = _single_subset(args, psi.n_qubits)
    dist = exact_distribution(psi, psi, tested)
    for z, p in zip(dist.bitstrings(), dist.probabilities):
        print(f"{z}  {p:.12g}")
    if args.output:
        _write_json(args.output, distribution_to_dict(dist))
    if args.check_odd_zero:
        worst = max(
            (p for z, p in zip(dist.bitstrings(), dist.probabilities) if z.count("1") % 2),
            default=0.0,
        )
        if worst > 1e-10:
            print(f"odd-weight outcome probability {worst:.3e} exceeds 1e-10", file=sys.stderr)
            return 1
        print("odd-weight outcomes all vanish (<= 1e-10)")
    return 0


def cmd_sample(args) -> int:
    psi = _resolve_state(args)
    tested = _single_subset(args, psi.n_qubits)
    hist = sample(psi, psi, tested, args.shots, args.seed)
    for z, count in sorted(hist.counts.items()):
        print(f"{z}  {count}")
    payload = histogram_to_dict(hist)
    if tested.cardinality >= 1:
        estimate = ce_from_histogram(hist)
        stderr = estimate.detail["stderr"]
        print(f"CE estimate = {estimate.value:.6g} +/- {stderr:.3g} ({hist.shots} shots)")
        payload["estimate"] = estimate.to_dict()
    if args.output:
        _write_json(args.output, payload)
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(
        trials=args.trials,
        seed=args.seed,
        n_max=args.n_max,
        epsilons=tuple(args.epsilon) if args.epsilon else (0.1, 0.001, 0.0001),
        properties=args.property or None,
    )
    failures = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"[{status}] {rep.name}: max violation {rep.max_violation:.3e} "
            f"(tolerance {rep.tolerance:g}, trials {rep.trials})"
        )
        if not rep.passed:
            failures.append(rep)
    if args.output:
        _write_json(args.output, [rep.to_dict() for rep in reports])
    if failures:
        for rep in failures:
            print(f"violated: {rep.name} witness: {rep.witness}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args) -> int:
    rows = compare_ghz_w(args.n_max)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "cardinality", "ghz", "w", "delta"])
    for row in rows:
        writer.writerow([row["n"], row["cardinality"], repr(row["ghz"]), repr(row["w"]), repr(row["delta"])])
    text = buffer.getvalue()
    if args.output:
        _write_atomic(args.output, text)
    else:
        print(text, end="")
    return 0


def cmd_distill(args) -> int:
    psi = _resolve_state(args)
    if args.runs < 1:
        raise ValidationError(f"--runs must be >= 1, got {args.runs}")
    n = psi.n_qubits
    tested = QubitSet.full(n)
    violations = 0
    for run in range(args.runs):
        hist = sample(psi, psi, tested, 1, args.seed + run)
        (z,) = hist.counts
        pairs = z.count("1")
        if pairs == 0:
            print(f"run {run}: z={z} bell_pairs=0")
            continue
        outcome = post_measurement(psi, psi, z)
        fidelities = [
            singlet_fidelity(pair_marginal(outcome.post_state, k))
            for k, bit in enumerate(z)
            if bit == "1"
        ]
        ok = all(f >= SINGLET_FIDELITY_FLOOR for f in fidelities)
        verdict = "verified" if ok else "FIDELITY VIOLATION"
        print(
            f"run {run}: z={z} bell_pairs={pairs} p={outcome.probability:.6g} "
            f"min_fidelity={min(fidelities):.12f} {verdict}"
        )
        if not ok:
            violations += 1
    return 1 if violations else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="concentratable",
        description="Concentratable entanglement of n-qubit pure states, by purities and SWAP tests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ce", help="compute the entanglement measure")
    _add_state_args(p)
    _add_subset_args(p, sweeps=True)
    p.add_argument(
        "--method",
        choices=("auto", "purity_sum", "distribution_zero_set", "even_weight_sum"),
        default="auto",
    )
    p.add_argument("--output", metavar="PATH")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=cmd_ce)

    p = sub.add_parser("dist", help="exact SWAP-test outcome distribution")
    _add_state_args(p)
    _add_subset_args(p, sweeps=False)
    p.add_argument("--check-odd-zero", action="store_true", help="assert odd-weight outcomes vanish")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(run=cmd_dist)

    p = sub.add_parser("sample", help="sampled SWAP-test runs")
    _add_state_args(p)
    _add_subset_args(p, sweeps=False)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(run=cmd_sample)

    p = sub.add_parser("verify", help="run the property-verification suite")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument(
        "--property", action="append", choices=sorted(CHECKS), help="restrict to named properties"
    )
    p.add_argument("--epsilon", action="append", type=float, help="error-bound epsilons")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("compare", help="GHZ-minus-W closed-form table (CSV)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("distill", help="sample runs and verify concentrated Bell pairs")
    _add_state_args(p)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(run=cmd_distill)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
