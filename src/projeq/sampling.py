"""Seeded quasi-random sampling.

Domain audits (positive-definiteness, ordering, residual scans) use Halton
sequences: low-discrepancy coverage, and PASS/FAIL decisions that reproduce
bit-for-bit for a given seed. The seed enters as a deterministic burn-in
offset into the sequence, not as RNG state.
"""

from functools import lru_cache

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _van_der_corput(indices, base):
    x = np.zeros(len(indices), dtype=float)
    denom = np.ones(len(indices), dtype=float)
    idx = np.array(indices, dtype=np.int64)
    while np.any(idx > 0):
        denom *= base
        x += (idx % base) / denom
        idx //= base
    return x


def halton_points(count, dim, seed=0):
    """`count` points of the `dim`-dimensional Halton sequence in (0,1)^dim,
    built once per window and process (the last 16 are kept), read-only.

    Parameters
    ----------
    count : int
    dim : int
        At most 16 (one prime base per axis).
    seed : int
        Offset >= 0 (a negative one puts every point at 0); seeds give disjoint windows.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"halton sampling supports dim <= {len(_PRIMES)}, got {dim}")
    if min(count, seed) < 0 or count != int(count) or seed != int(seed):
        raise ValueError(f"count and seed must be whole numbers >= 0, got {count!r}, {seed!r}")
    return _window(int(count), dim, int(seed))


@lru_cache(maxsize=16)
def _window(count, dim, seed):
    # skip the degenerate first points and decorrelate seeds by windowing
    indices = 20 + seed * (count + 61) + np.arange(count)
    out = np.empty((count, dim))  # before the columns, so a kept window sits below their scratch
    for k in range(dim):
        out[:, k] = _van_der_corput(indices, _PRIMES[k])
    out.flags.writeable = False
    return out
