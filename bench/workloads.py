"""The benchmark workloads: CLI ops generated from a seed, and their checkers.

Each workload turns a workload seed into a fixed list of CLI argument lists
(one cycle) plus the reference values its checker needs. A run repeats the
cycle, so every cycle does identical work. The package receives only the
generated CLI arguments.

Reference values come from closed forms (GHZ, W) or from this file's own
purity kernel and Walsh sum, which share no code with the package.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

CE_LINE = re.compile(r"^C\(mask=(0b[01]+|0), c=(\d+)\) = (\S+)  \[(\w+)\]$")
ODD_TOL = 1e-10
VALUE_TOL = 1e-9
FIDELITY_FLOOR = 1.0 - 1e-9


@dataclass
class Outcome:
    """What one CLI call left behind."""

    rc: int | None
    stdout: str
    stderr: str
    error: str = ""


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[Outcome], str | None]  # failure reason, or None when the output is right
    may_refuse: bool = False  # a documented BudgetError refusal (exit 3) is allowed


@dataclass
class Workload:
    name: str
    why: str
    tail_percentile: float
    min_cycles: int
    build: Callable[[np.random.Generator, Path], list[Op]] = field(repr=False)
    # Host-speed calibration (hostclock.py): the kinds of work its ops do, and
    # the seconds one such sample takes at this host's usual speed.
    calibration: tuple[str, ...] = ()
    calibration_nominal_s: float = 0.0


# -- reference values -----------------------------------------------------------


def ghz_ce(n: int, c: int) -> float:
    return 0.5 * (1.0 - 0.5 ** (c - (1 if c == n else 0)))


def w_ce(n: int, c: int) -> float:
    return c * (2 * n - c - 1) / (2.0 * n * n)


def _purity(tensor: np.ndarray, n: int, mask: int, cache: dict[int, float]) -> float:
    """Tr[rho^2] of the qubits in ``mask`` (bit k = qubit k), on the smaller side of the cut."""
    if 2 * bin(mask).count("1") > n:
        mask ^= (1 << n) - 1
    if mask not in cache:
        labels = [k for k in range(n) if mask >> k & 1]
        matrix = np.moveaxis(tensor, labels, range(len(labels))).reshape(1 << len(labels), -1)
        gram = matrix @ matrix.conj().T
        cache[mask] = float(np.sum(np.abs(gram) ** 2))
    return cache[mask]


def reference_distribution(amplitudes: np.ndarray, n: int, mask: int) -> dict[str, float]:
    """SWAP-test law on the qubits in ``mask``: p(z) = 2^-m sum_alpha (-1)^|alpha & z| Tr[rho_alpha^2].

    Bitstrings put the smallest tested label leftmost, as the CLI prints them.
    """
    tensor = np.asarray(amplitudes).reshape((2,) * n)
    labels = [k for k in range(n) if mask >> k & 1]
    m = len(labels)
    cache: dict[int, float] = {}
    purities = np.array([
        _purity(tensor, n, sum(1 << labels[j] for j in range(m) if local >> j & 1), cache)
        for local in range(1 << m)
    ])
    local = np.arange(1 << m)
    overlap = local[:, None] & local[None, :]
    parity = np.zeros_like(overlap)
    for j in range(m):
        parity ^= overlap >> j & 1
    signs = 1.0 - 2.0 * parity
    probabilities = signs @ purities / (1 << m)
    return {"".join(str(z >> j & 1) for j in range(m)): float(probabilities[z]) for z in range(1 << m)}


def reference_ce(amplitudes: np.ndarray, n: int, mask: int) -> float:
    """C(s) = 1 - 2^-c sum over subsets alpha of s of Tr[rho_alpha^2]."""
    tensor = np.asarray(amplitudes).reshape((2,) * n)
    cache: dict[int, float] = {}
    total = 0.0
    sub = mask
    while True:
        total += _purity(tensor, n, sub, cache)
        if sub == 0:
            return 1.0 - total / (1 << bin(mask).count("1"))
        sub = (sub - 1) & mask


def _state_args(kind: str, n: int, state_seed: int | None) -> list[str]:
    if kind == "haar":
        return ["--haar", str(n), "--state-seed", str(state_seed)]
    return [f"--{kind}", str(n)]


def _random_mask(rng: np.random.Generator, n: int, c: int) -> int:
    return sum(1 << int(k) for k in rng.choice(n, size=c, replace=False))


def _exact_ce(kind: str, n: int, mask: int, state_seed: int | None) -> float:
    c = bin(mask).count("1")
    if kind == "ghz":
        return ghz_ce(n, c)
    if kind == "w":
        return w_ce(n, c)
    from concentratable.states import make_haar_random

    return reference_ce(make_haar_random(n, state_seed).amplitudes, n, mask)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        return exc


# -- ce-large -------------------------------------------------------------------


def _check_ce(mask: int, expected: float, method: str):
    def check(out: Outcome) -> str | None:
        if out.rc != 0:
            return f"exit {out.rc}: {out.stderr.strip() or out.error}"
        lines = out.stdout.splitlines()
        match = CE_LINE.match(lines[0]) if len(lines) == 1 else None
        if match is None:
            return f"unexpected output {out.stdout[:200]!r}"
        if int(match.group(1), 0) != mask:
            return f"mask {match.group(1)} != {mask:#b}"
        if method != "auto" and match.group(4) != method:
            return f"route {match.group(4)} != {method}"
        value = float(match.group(3))
        if abs(value - expected) > VALUE_TOL:
            return f"C = {value!r}, expected {expected!r}"
        return None

    return check


def build_ce_large(rng: np.random.Generator, outdir: Path) -> list[Op]:
    # Each n=12 even_weight_sum op and each n=10 full-set auto op runs twice
    # per cycle. Ranked by time, a cycle is then 12 sub-10 ms auto ops, 9 n=10
    # even_weight_sum, 6 n=10 full-set auto (projector route), 18 n=12
    # even_weight_sum and the 3 refusals, so the median is the middle of the
    # projector-route group and the p90 tail lies in the n=12 purity-sum
    # group. Without the repeats the median sat in the n=10 even_weight_sum
    # group, whose speed switched between two modes from run to run, and then
    # in a projector-route group too small to give a steady median.
    ops = []
    for n in (10, 12):
        sets = (_random_mask(rng, n, 1), _random_mask(rng, n, n // 2), (1 << n) - 1)
        for kind in ("ghz", "w", "haar"):
            state_seed = _seed(rng) if kind == "haar" else None
            for mask in sets:
                expected = _exact_ce(kind, n, mask, state_seed)
                c = bin(mask).count("1")
                for method in ("auto", "even_weight_sum"):
                    argv = ["ce", *_state_args(kind, n, state_seed), "--subset-mask", bin(mask), "--method", method]
                    op = Op(
                        f"ce {kind} n={n} c={c} {method}",
                        argv,
                        _check_ce(mask, expected, method),
                        may_refuse=method == "auto" and c == n and n == 12,
                    )
                    twice = (n, method) == (12, "even_weight_sum") or (n, method, c) == (10, "auto", n)
                    ops += [op, op] if twice else [op]
    return ops


# -- swaptest-exact -------------------------------------------------------------


def _check_dist(path: Path, n: int, mask: int, expected: dict[str, float]):
    m = bin(mask).count("1")

    def check(out: Outcome) -> str | None:
        if out.rc != 0:
            return f"exit {out.rc}: {out.stderr.strip() or out.error}"
        if out.stdout.count("\n") != 1 << m:
            return f"printed {out.stdout.count(chr(10))} lines, expected {1 << m}"
        data = _read_json(path)
        if isinstance(data, Exception):
            return f"output file: {data}"
        got = {e["z"]: e["p_or_count"] for e in data["entries"]}
        if data["tested_mask"] != mask or got.keys() != expected.keys():
            return f"output covers mask {data['tested_mask']} with {len(got)} outcomes"
        # Odd-weight outcomes vanish for identical copies when every qubit is tested.
        if m == n:
            odd = max(p for z, p in got.items() if z.count("1") % 2)
            if odd > ODD_TOL:
                return f"odd-weight probability {odd!r}"
        # p(0...0) = 1 - C(s), and every other outcome, against the reference law.
        worst = max(expected, key=lambda z: abs(got[z] - expected[z]))
        if abs(got[worst] - expected[worst]) > VALUE_TOL:
            return f"p({worst}) = {got[worst]!r}, expected {expected[worst]!r}"
        return None

    return check


def _check_distill(runs: int):
    def check(out: Outcome) -> str | None:
        if out.rc != 0:
            return f"exit {out.rc}: {out.stderr.strip() or out.error}"
        lines = out.stdout.splitlines()
        if len(lines) != runs:
            return f"{len(lines)} run lines, expected {runs}"
        for line in lines:
            if "bell_pairs=0" in line:
                continue
            fidelity = re.search(r"min_fidelity=(\S+) verified$", line)
            if fidelity is None or float(fidelity.group(1)) < FIDELITY_FLOOR:
                return f"run not verified: {line!r}"
        return None

    return check


DISTILL_RUNS = 20


def build_swaptest_exact(rng: np.random.Generator, outdir: Path) -> list[Op]:
    from concentratable.states import make_haar_random

    # Per cycle, in ascending cost: distill, (n=8, m=4), (n=8, m=7), six (n=8, m=8),
    # (n=9, m=8). The six full-register ops hold both latency ranks, so the
    # seed-chosen masks of the partial sets, whose cost depends on which qubits
    # are tested, do not set the end-to-end numbers.
    argv = ["distill", *_state_args("haar", 6, _seed(rng)), "--runs", str(DISTILL_RUNS), "--seed", str(_seed(rng))]
    ops = [Op(f"distill haar n=6 runs={DISTILL_RUNS}", argv, _check_distill(DISTILL_RUNS))]
    for i, (n, c) in enumerate([(8, 4), (8, 7)] + [(8, 8)] * 6 + [(9, 8)]):
        state_seed = _seed(rng)
        mask = _random_mask(rng, n, c)
        path = outdir / f"dist-{i}.json"
        argv = ["dist", *_state_args("haar", n, state_seed), "--subset-mask", bin(mask), "--output", str(path)]
        expected = reference_distribution(make_haar_random(n, state_seed).amplitudes, n, mask)
        ops.append(Op(f"dist haar n={n} m={c}", argv, _check_dist(path, n, mask, expected)))
    return ops


# -- verify-suite ---------------------------------------------------------------

VERIFY_TRIALS = 40
# Each verify seed draws its own trial sizes, so one seed's op costs vary;
# several seeds per cycle keep the latency ranks from hanging on one draw.
# odd-weight-zero, the slowest property, is the top 1/13 of ops, so the p96
# tail sits inside its group rather than on its edge with the next one.
VERIFY_SEEDS = 16


def _check_verify(name: str):
    def check(out: Outcome) -> str | None:
        if out.rc != 0:
            return f"exit {out.rc}: {out.stdout.strip()} {out.stderr.strip() or out.error}"
        lines = out.stdout.splitlines()
        if len(lines) != 1 or not lines[0].startswith(f"[PASS] {name}:"):
            return f"report not passed: {out.stdout.strip()!r}"
        return None

    return check


def build_verify_suite(rng: np.random.Generator, outdir: Path) -> list[Op]:
    from concentratable.verify import CHECKS

    return [
        Op(
            f"verify {name}",
            ["verify", "--property", name, "--trials", str(VERIFY_TRIALS), "--n-max", "6", "--seed", str(seed)],
            _check_verify(name),
        )
        for seed in [_seed(rng) for _ in range(VERIFY_SEEDS)]
        for name in CHECKS
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ce-large",
            "n=10,12 ce by auto and even_weight_sum: purity kernel and route choice do the work; "
            "n=12 full-set auto refusals are kept",
            tail_percentile=90.0,
            min_cycles=3,
            build=build_ce_large,
            calibration=("matmul", "stream") * 2,
            calibration_nominal_s=0.011,
        ),
        Workload(
            "swaptest-exact",
            "dist --output at n=8,9 and distill at n=6: the branch-recursion projector and "
            "2^m-entry JSON dominate",
            tail_percentile=75.0,
            min_cycles=4,
            build=build_swaptest_exact,
            calibration=("loop", "matmul", "transpose", "stream", "json"),
            calibration_nominal_s=0.014,
        ),
        Workload(
            "verify-suite",
            "verify on all 13 properties at n<=6: thousands of tiny calls where per-call overhead "
            "dominates; only user of oracle and Walsh",
            tail_percentile=96.0,
            min_cycles=2,
            build=build_verify_suite,
            calibration=("small_calls", "small_calls"),
            calibration_nominal_s=0.0075,
        ),
    )
}
