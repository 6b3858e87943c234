"""Host-speed probes that rescale the benchmark's gated times.

On the shared 2-vCPU VM this benchmark was defined on, the same work ran 0.8x
to 1.4x its fastest time, in phases lasting from about a second to minutes:
longer than a run can average, shorter than a run. Every ``PERIOD_S`` a
SIGALRM handler times a fixed micro-kernel that shares no code with cosimo.
The handler runs between bytecodes of the main thread and leaves the measured
work's results untouched. The probes' own time is subtracted from the
measured time, and ``REF_S`` over their mean duration rescales it to a host
running at the reference speed.

This module imports nothing heavy at import time, so ``SetupProbe`` can be
armed before numpy and cosimo are imported.
"""

from __future__ import annotations

import signal
import statistics
import time


def _dict_work() -> None:
    """Interpreter work on string-keyed dicts, as in cosimo's small paths."""
    d: dict[str, int] = {}
    for i in range(150):
        key = f"L{i % 3}.k{i % 5}.m{i % 7}"
        d[key] = d.get(key, 0) + i
        sorted(d)


class Probe:
    PERIOD_S = 0.1
    REF_S = 1.0

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def kernel(self) -> None:
        raise NotImplementedError

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def arm(self) -> None:
        self.samples.clear()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds the probe itself took between ``t0`` and ``t1``."""
        return sum(d for t, d in self.samples if t0 <= t <= t1)

    def factor(self) -> float:
        return self.REF_S / statistics.mean(d for _, d in self.samples)


class SpeedProbe(Probe):
    """Probe for timed items: small-array numpy calls plus dict work, the two
    costs of cosimo's small-batch paths."""

    REF_S = 1.4e-3

    def __init__(self):
        super().__init__()
        import numpy as np

        rng = np.random.default_rng(0)
        self.exp = np.exp
        self.A = rng.standard_normal((64, 64))
        self.X = rng.standard_normal((64, 8))

    def kernel(self) -> None:
        for i in range(40):
            Y = self.A @ self.X
            w = self.exp(-0.1 * self.A[0])
            float(Y[0, 0]) + float(w[0]) + i
        _dict_work()

    def neutral(self, seconds: float) -> float:
        """Speed factor over ``seconds`` of filler work that shares nothing
        with cosimo. Set against the factor inside items, it shows whether
        the factor follows the host or what the item does."""
        import numpy as np

        rng = np.random.default_rng(1)
        self.arm()
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            np.sort(rng.standard_normal(50_000))
            sum(i * i for i in range(20_000))
        self.disarm()
        return self.factor()


class SetupProbe(Probe):
    """Probe for set-up (interpreter start, imports, warm-up): pure
    interpreter work, so it can run before numpy is imported."""

    PERIOD_S = 0.05
    REF_S = 1.0e-3

    def kernel(self) -> None:
        _dict_work()
