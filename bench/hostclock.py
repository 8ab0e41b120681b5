"""Host-speed calibration: wall times scaled to seconds on a host of fixed speed.

The shared host this benchmark runs on changes speed by up to 2x within
seconds and over minutes, and the same ops then take up to 2x as long. A
calibration sample times a fixed task with no package code in it, so a change
to the package cannot move it. An op's wall time is divided by the mean of the
two samples around it and multiplied by the workload's nominal sample time:
seconds on a host where one sample takes that long.

Ops of different kinds slow down by different amounts when the host does, so
each workload's sample is made of the kinds of work its own ops do (see
``Workload.calibration``). Over eight minutes on this host, timing ce, dist
and verify ops between samples, the spread of 30-second medians of the same op
was 0.15-0.22 of their median in wall time. Scaled by the matching sample it
was 0.02-0.03; scaled by any one sample for every workload it was up to 0.07.
"""

from __future__ import annotations

import bisect
import json
import time

import numpy as np

from workloads import reference_ce


class HostClock:
    """Calibration samples taken during a run, and wall times scaled by them."""

    def __init__(self, kinds: tuple[str, ...], nominal_s: float):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((64, 64))
        self._tensor = (rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)).reshape((2,) * 16)
        self._axes = [int(axis) for axis in rng.permutation(16)]
        self._vector = rng.standard_normal(1 << 19)
        self._buffer = np.empty_like(self._vector)
        self._entries = [{"z": format(i, "08b"), "p": float(p)} for i, p in enumerate(rng.random(256))]
        state = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        self._state = state / np.linalg.norm(state)
        self._work = [getattr(self, "_" + kind) for kind in kinds]
        self.nominal_s = nominal_s
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds), in time order
        for _ in range(3):  # warm-up: first touches of the arrays are slower
            self.sample()
        self.samples.clear()

    # Each kind of work takes 1-4 ms on this host, depending on its speed.

    def _loop(self) -> None:
        """Interpreter work: a pure-Python loop."""
        total = 0
        for i in range(25_000):
            total += i * i % 7

    def _matmul(self) -> None:
        """Small BLAS calls: 64x64 matrix products, as in the purity kernel at n=12."""
        for _ in range(150):
            (self._matrix @ self._matrix).sum()

    def _transpose(self) -> None:
        """Strided copies of a 2^16-amplitude complex tensor."""
        for _ in range(3):
            np.ascontiguousarray(self._tensor.transpose(self._axes)).sum()

    def _stream(self) -> None:
        """Streaming over 4 MB of memory."""
        for _ in range(3):
            np.add(self._vector, 1.0, out=self._buffer)

    def _json(self) -> None:
        """JSON encoding of a 256-entry distribution."""
        for _ in range(5):
            json.dumps(self._entries)

    def _small_calls(self) -> None:
        """Hundreds of tiny numpy calls: this benchmark's own purity sum on a 6-qubit state."""
        for _ in range(3):
            reference_ce(self._state, 6, 63)

    def sample(self) -> None:
        start = time.perf_counter()
        for work in self._work:
            work()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2.0, end - start))

    def sample_every(self, seconds: float) -> None:
        """Take a sample when the last one is at least ``seconds`` old."""
        if time.perf_counter() - self.samples[-1][0] >= seconds:
            self.sample()

    def scale(self, at: float) -> float:
        """Factor that turns a wall time measured at ``at`` into nominal-host seconds."""
        after = bisect.bisect(self.samples, (at,))
        around = self.samples[max(after - 1, 0) : after + 1]
        return self.nominal_s * len(around) / sum(seconds for _midpoint, seconds in around)

    def scaled(self, records) -> list:
        """(wall, ..., start) records with each wall time in nominal-host seconds."""
        return [(wall * self.scale(start + wall / 2.0), *rest) for wall, *rest, start in records]
