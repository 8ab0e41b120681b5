"""Per-layer spans, recorded from outside the package.

The layers are the package's modules; ``swaptest`` is split by public-function
group because each group is a separate optimisation target. ``Tracer.install``
replaces every listed function, in each package module that holds it (and in
``verify.CHECKS``), by a wrapper that records a span: layer, function, start,
end, parent span and op id. ``Tracer.uninstall`` restores the originals, so
untraced ops run the unmodified package.

A span's self time is its duration minus its children's. The harness records
one root span per op (layer ``harness``: stdout capture around ``cli.main``),
so the self times of an op's spans sum to the op's traced wall time.

Counts derived from call arguments (purity calls, distinct subsets, routes,
outcomes, joint bytes, shots) are recorded at the same boundaries. They are
computed from arguments only, so they repeat exactly for identical ops.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict
from statistics import median

PACKAGE = "concentratable"
HARNESS = "harness"

# layer -> (module, public functions). verify's check_* functions are added
# from the module itself, see ``layer_functions``.
LAYERS = {
    "cli": ("cli", ("main",)),
    "measures": (
        "measures",
        (
            "concentratable_entanglement",
            "ce_purity",
            "ce_distribution",
            "ce_even_weight",
            "ce_shots",
            "ce_from_histogram",
            "ce_two_state",
            "n_tangle",
        ),
    ),
    "reductions": ("reductions", ("purity", "purity_table", "purity_array", "cross_purity")),
    "swaptest.projection": (
        "swaptest",
        (
            "exact_distribution",
            "zero_outcome_probability",
            "outcome_probability",
            "post_measurement",
            "apply_controlled_projector",
        ),
    ),
    "swaptest.sampler": ("swaptest", ("sample",)),
    "swaptest.walsh": ("swaptest", ("full_distribution_via_purities", "distribution_via_purities")),
    "swaptest.pairs": ("swaptest", ("pair_marginal", "singlet_fidelity")),
    "swaptest.serialize": ("swaptest", ("distribution_to_dict", "histogram_to_dict")),
    "states": (
        "states",
        (
            "make_haar_random",
            "make_ghz",
            "make_w",
            "perturb",
            "permute_qubits",
            "statevector_from_dict",
        ),
    ),
    "oracle": ("oracle", ("apply_local_kraus", "random_local_kraus", "dense_reduced_purity")),
    "verify": ("verify", ("run_suite",)),
}

ROUTES = {
    "ce_purity": "purity_sum",
    "ce_distribution": "distribution_zero_set",
    "ce_even_weight": "even_weight_sum",
}

# Functions that build a two-copy joint vector of 16 * 4^n bytes.
JOINT_BUILDERS = ("exact_distribution", "zero_outcome_probability", "outcome_probability", "post_measurement")


def layer_functions():
    """Yield (layer, module, function name) for every traced function."""
    for layer, (module_name, names) in LAYERS.items():
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        if layer == "verify":
            names = names + tuple(n for n in vars(module) if n.startswith("check_"))
        for name in names:
            yield layer, module, name


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span recorder for the ops of one traced run.

    ``memory=True`` also tracks each span's peak ``tracemalloc`` bytes above
    its starting allocation; that slows the calls, so its times are not used.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []  # [layer, name, start, end, parent, op, self_s, peak_bytes]
        self.op_cycle: dict[int, int] = {}
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.joint_bytes_max = 0
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span id, children seconds, start bytes, peak seen]
        self._op = None
        self._seen: set = set()
        self._keep: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        checks = sys.modules[f"{PACKAGE}.verify"].CHECKS
        for layer, module, name in layer_functions():
            original = getattr(module, name)
            wrapper = self._wrap(layer, name, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
            for key, value in list(checks.items()):
                if value is original:
                    self._patched.append((checks, key, original))
                    checks[key] = wrapper

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        self._patched.clear()

    def _wrap(self, layer, name, original):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return original(*args, **kwargs)
            span = tracer._enter(layer, name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._exit(span, start, end)
            tracer._count(layer, name, args, kwargs)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    # -- spans ---------------------------------------------------------------

    def begin_op(self, op: int, cycle: int) -> None:
        self._op = op
        self.op_cycle[op] = cycle
        self._seen = set()
        self._keep = []
        self._enter(HARNESS, "op")

    def end_op(self, start: float, end: float) -> None:
        self._exit(self._stack[-1], start, end)
        self._op = None
        self._keep = []

    def _enter(self, layer, name) -> list:
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([layer, name, 0.0, 0.0, parent, self._op, 0.0, 0])
        frame = [span_id, 0.0, 0, 0]
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][3] = max(self._stack[-1][3], peak)
            tracemalloc.reset_peak()
            frame[2] = frame[3] = current
        self._stack.append(frame)
        return frame

    def _exit(self, frame, start, end) -> None:
        self._stack.pop()
        span = self.spans[frame[0]]
        duration = end - start
        span[2], span[3], span[6] = start, end, duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if self.memory:
            peak = max(frame[3], tracemalloc.get_traced_memory()[1])
            span[7] = peak - frame[2]
            if self._stack:
                self._stack[-1][3] = max(self._stack[-1][3], peak)
            tracemalloc.reset_peak()

    # -- counts --------------------------------------------------------------

    def _count(self, layer, name, args, kwargs) -> None:
        counts = self.counts[self._op]
        if name in ROUTES:
            counts[f"measures.route.{ROUTES[name]}"] += 1
        elif name == "purity":
            psi = _arg(args, kwargs, 0, "psi")
            mask = _arg(args, kwargs, 1, "alpha").mask
            full = (1 << psi.n_qubits) - 1
            key = (id(psi), min(mask, mask ^ full))
            counts["reductions.purity_calls"] += 1
            if key not in self._seen:
                self._seen.add(key)
                self._keep.append(psi)  # keeps id(psi) unique for the whole op
                counts["reductions.purity_distinct"] += 1
        elif layer == "swaptest.projection":
            if name == "exact_distribution":
                counts["swaptest.projection.outcomes"] += 1 << _arg(args, kwargs, 2, "tested").cardinality
            else:
                counts["swaptest.projection.outcomes"] += 1
            if name in JOINT_BUILDERS:
                n = _arg(args, kwargs, 0, "psi").n_qubits
            else:
                n = _arg(args, kwargs, 0, "joint").n_qubits_per_copy
            self.joint_bytes_max = max(self.joint_bytes_max, 16 * 4**n)
        elif name == "sample":
            counts["swaptest.sampler.shots"] += _arg(args, kwargs, 3, "shots")

    # -- summaries -----------------------------------------------------------

    def layer_table(self) -> dict:
        """Per layer: calls and self seconds per cycle (median over cycles), peak bytes."""
        cycles = sorted(set(self.op_cycle.values()))
        calls = defaultdict(lambda: defaultdict(int))
        self_s = defaultdict(lambda: defaultdict(float))
        peak = defaultdict(int)
        for layer, _name, _s, _e, _p, op, own, peak_bytes in self.spans:
            cycle = self.op_cycle[op]
            calls[layer][cycle] += 1
            self_s[layer][cycle] += own
            peak[layer] = max(peak[layer], peak_bytes)
        table = {}
        for layer in (HARNESS, *LAYERS):
            per_cycle = [calls[layer][c] for c in cycles]
            table[layer] = {
                "calls": per_cycle[0] if per_cycle else 0,
                "calls_repeat": len(set(per_cycle)) <= 1,
                "self_s": median(self_s[layer][c] for c in cycles) if cycles else 0.0,
                "peak_alloc_bytes": peak[layer],
            }
        return table

    def count_table(self) -> dict:
        """Argument-derived counts per cycle, and whether every cycle repeats them."""
        cycles = sorted(set(self.op_cycle.values()))
        per_cycle = defaultdict(lambda: defaultdict(int))
        for op, counts in self.counts.items():
            for key, value in counts.items():
                per_cycle[key][self.op_cycle[op]] += value
        keys = (
            "measures.route.purity_sum",
            "measures.route.distribution_zero_set",
            "measures.route.even_weight_sum",
            "reductions.purity_calls",
            "reductions.purity_distinct",
            "swaptest.projection.outcomes",
            "swaptest.sampler.shots",
        )
        table = {}
        for key in keys:
            values = [per_cycle[key][c] for c in cycles]
            table[key] = values[0] if values else 0
            table[key + ".repeats"] = len(set(values)) <= 1
        calls = table["reductions.purity_calls"]
        table["reductions.purity_distinct_ratio"] = (
            table["reductions.purity_distinct"] / calls if calls else 0.0
        )
        table["swaptest.projection.joint_bytes_max"] = self.joint_bytes_max
        return table

    def self_sum_residual(self) -> float:
        """Largest |sum of an op's span self times - its harness span duration|."""
        totals = defaultdict(float)
        walls = {}
        for layer, _name, start, end, _p, op, own, _b in self.spans:
            totals[op] += own
            if layer == HARNESS:
                walls[op] = end - start
        return max((abs(totals[op] - walls[op]) for op in walls), default=0.0)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,layer,function,start_s,end_s,parent,op,self_s\n")
            for i, (layer, name, start, end, parent, op, own, _b) in enumerate(self.spans):
                parent = "" if parent is None else parent
                handle.write(f"{i},{layer},{name},{start!r},{end!r},{parent},{op},{own!r}\n")
