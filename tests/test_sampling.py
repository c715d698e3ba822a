"""Halton windows: one build per window and process, and the inputs refused."""

import numpy as np
import pytest

from projeq import sampling
from projeq.chart import box_chart
from projeq.sampling import halton_points


def recurrence(count, dim, seed):
    """The window without the memo: one van der Corput column per prime base."""
    start = 20 + seed * (count + 61)
    cols = [sampling._van_der_corput(np.arange(start, start + count), sampling._PRIMES[k])
            for k in range(dim)]
    return np.stack(cols, axis=1) if cols else np.zeros((count, 0))


@pytest.mark.parametrize("count", [0, 1, 16, 200, 1000, 1500])
def test_memoised_windows_equal_the_recurrence(count):
    for dim in range(17):
        for seed in (0, 3, 5, 7, 11, 17, 101):
            want = recurrence(count, dim, seed).tobytes()
            assert halton_points(count, dim, seed).tobytes() == want  # built or recalled
            assert halton_points(count, dim, seed=seed).tobytes() == want  # recalled


def test_a_repeated_window_does_no_van_der_corput_work(monkeypatch):
    calls, vdc = [], sampling._van_der_corput

    def counting(indices, base):
        calls.append(base)
        return vdc(indices, base)

    monkeypatch.setattr(sampling, "_van_der_corput", counting)
    sampling._window.cache_clear()
    first = halton_points(1000, 4, seed=0)
    assert calls == [2, 3, 5, 7]
    again = halton_points(1000, 4, seed=0)
    assert again is first and calls == [2, 3, 5, 7]
    # numpy integers and whole floats name the same window
    assert halton_points(np.int64(1000), 4, seed=np.int64(0)) is first
    assert halton_points(1000.0, 4, seed=0.0) is first
    assert calls == [2, 3, 5, 7]


def test_a_window_is_read_only():
    pts = halton_points(20, 3, seed=1)
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 0.5
    # callers derive a new, writable array
    assert box_chart(["x", "y", "z"]).sample(20, seed=1).flags.writeable


@pytest.mark.parametrize("count, seed", [
    (5, -1),     # used to give five copies of [0, 0]
    (3.5, 0),    # used to give 4 points
    (5, 1.5),    # used to run as seed 1
])
def test_a_degenerate_window_is_refused_before_the_memo(count, seed, monkeypatch):
    def never(*args):
        raise AssertionError("memo consulted")

    monkeypatch.setattr(sampling, "_window", never)
    with pytest.raises(ValueError):
        halton_points(count, 2, seed=seed)


def test_a_chart_refuses_a_negative_seed():
    with pytest.raises(ValueError, match=r"whole numbers >= 0, got 5, -1"):
        box_chart(["x", "y"]).sample(5, seed=-1)
