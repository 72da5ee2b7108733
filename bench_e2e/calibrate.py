"""Speed normalisation: one fixed calibration kernel, one ratio.

The sandbox this benchmark runs on changes speed under it: the same
pure-Python loop took 0.21 s, 0.41 s and 0.27 s within three minutes, so
raw wall-clock does not repeat. The kernel below does a fixed amount of
interpreter work (arithmetic, tuple unpacking, dict accumulation). The
runner times it in-process immediately before and after every measured
region while the system is idle, and every time is reported at
*reference speed*::

    reference = raw * CAL_REF_MS / mean(kernel ms before, kernel ms after)

with the kernel series of the timed passes smoothed by a 5-sample rolling
median first, so one sample hit by a blip does not distort two passes.

This corrects whole-machine speed drift as sampled around a region. It
does not correct a neighbour stealing one core while the kernel ran on
the other, nor a speed switch in the middle of a region; a run whose
kernel series spreads by more than ``DISTURBED_SPREAD`` says so.
"""

from __future__ import annotations

import statistics
import time

#: Kernel wall time on a quiet core of the machine the workload sizes were
#: chosen on. Changing it, or the kernel, rescales every time-valued
#: metric, so either only moves together with a new baseline.
CAL_REF_MS = 60.0

DISTURBED_SPREAD = 0.25
SMOOTHING_WINDOW = 5

_ROWS = tuple(
    (index, (index * 7919) % 257, float(index % 97) * 1.5) for index in range(20_000)
)


def kernel() -> float:
    """The fixed unit of interpreter work; the return value keeps it live."""
    total = 0
    for index in range(700_000):
        total += (index * index) % 7
    sums: dict = {}
    for _repeat in range(20):
        for _key, group, value in _ROWS:
            sums[group] = sums.get(group, 0.0) + value
    return total + sums[0]


def sample_ms() -> float:
    started = time.perf_counter()
    kernel()
    return (time.perf_counter() - started) * 1000.0


def scale(before_ms: float, after_ms: float) -> float:
    """Factor turning raw time between two kernel samples into reference time."""
    return CAL_REF_MS / ((before_ms + after_ms) / 2.0)


def rolling_median(series: list, window: int = SMOOTHING_WINDOW) -> list:
    """Centred rolling median; the window shrinks at both ends."""
    half = window // 2
    return [
        statistics.median(series[max(0, index - half) : index + half + 1])
        for index in range(len(series))
    ]


def pass_scales(series: list) -> list:
    """Reference-speed factor of each pass, given the kernel sample taken
    before the first pass and after every pass (``len(passes) + 1`` values)."""
    smooth = rolling_median(series)
    return [scale(before, after) for before, after in zip(smooth, smooth[1:])]


def spread(values: list) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def summary(series: list) -> dict:
    """The ``info`` entries that say how steady the machine was."""
    return {
        "machine.calib_ms_p50": statistics.median(series),
        "machine.calib_spread_frac": spread(series),
        "machine.calib_samples": len(series),
        "disturbed": spread(series) > DISTURBED_SPREAD,
    }
