"""Host-speed calibration for the benchmark's time metrics.

The machines this benchmark runs on share their CPUs with other tenants, and
their speed changes by up to about 1.8x in phases lasting seconds to minutes:
CPU time tracks wall time, so this is the host slowing down, not scheduling.
A median over one run of a few seconds cannot average that out, so the
benchmark times a fixed piece of reference work right before and after every
timed interval and rescales the interval to a host on which the reference work
takes REFERENCE_S seconds:

    normalized = measured * REFERENCE_S / (mean of the two adjacent references)

The reference work mixes what the CLI spends its time on (interpreter-level
float arithmetic, 17-digit float formatting, small complex numpy products),
so a slower host slows it by a similar factor.  It must run in the same
process as the timed work, and nothing may run concurrently with it: work
started by the program in another thread would slow both and cancel out.
Raw seconds are reported next to the normalized ones.
"""

from __future__ import annotations

import time

import numpy as np

# About the median duration of reference_work() on a 2-core Intel Xeon in
# its fast phase; the unit of every normalized time.
REFERENCE_S = 0.010

_U = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2.0)
_U4 = np.kron(_U, _U)


def reference_work():
    acc = 0.0
    for i in range(16000):
        acc += (i * 0.5) % 3.0
    text = ",".join(format(i / 7.0, ".17g") for i in range(3000))
    m = _U4
    for _ in range(300):
        m = np.kron(_U, _U) @ m
    return acc, len(text), m


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def normalized(measured: float, ref_before: float, ref_after: float) -> float:
    return measured * REFERENCE_S * 2.0 / (ref_before + ref_after)
