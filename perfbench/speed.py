"""The machine's momentary speed, for scaling the benchmark's timings.

On the 2-core VM this benchmark was built on, the same pass of the same
code took anywhere from 0.50 s to 0.96 s: the machine changes speed by up
to 2x over tens of seconds, so runs of 30 s land in different regimes
and the spread of their raw medians (0.3 to 0.55 of the median) exceeds
any useful bound. A fixed reference kernel, timed right next to each
measured interval, tracks those changes: it mixes what projeq spends its
time on (Python closures over float math, small numpy arrays, a 3x3
solve and an einsum), and dividing by it brought the spread of pair-audit
medians from 0.33 to 0.04 of the median.

Pass times (`run_s` and the traced mode's pass times) are therefore
reported as `wall_s * REFERENCE_S / kernel_s`: wall time on a machine
that runs the kernel in REFERENCE_S, about this VM at its faster speed.
A change to projeq moves the wall time and not the kernel, so it shows
in full. Start-up is left as wall time: importing slows by only about
1.3x when the kernel slows by 2x, so this scaling would add noise there.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.040

_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
_FNS = (lambda x: 1.0 + 0.3 * math.tanh(x[0]),
        lambda x: 6.0 + x[2] ** 2,
        lambda x: math.sin(x[1]))


def kernel(n=2400):
    acc = 0.0
    x = np.array([0.1, 0.2, 0.3])
    for _ in range(n):
        m = np.empty((3, 3))
        for a in range(3):
            for b in range(3):
                m[a, b] = _A[a, b] + 0.01 * _FNS[(a + b) % 3](x)
        v = np.linalg.solve(m, x)
        acc += float(np.einsum("i,ij,j->", v, m, v))
        x = x + 1e-6
    return acc


def kernel_s():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class ScaledTimer:
    """Wall time of the calls it runs, raw and scaled by the kernel timed
    before and after each call."""

    def __init__(self):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._k_before = kernel_s()

    def call(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        k_after = kernel_s()
        self.raw_s += dt
        self.scaled_s += dt * REFERENCE_S / (0.5 * (self._k_before + k_after))
        self._k_before = k_after
        return out
