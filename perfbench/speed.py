"""Wall time scaled to a fixed machine speed.

On a machine whose cores are shared with other tenants, the same
pure-Python work can run up to 1.8x faster or slower for seconds to minutes
at a time. Each timed interval is therefore bracketed by a short pure-Python
kernel, and the interval is reported as ``wall * KERNEL_REF_S / kernel``,
with ``kernel`` the mean of the kernel's time just before and just after.
The kernel lives here, outside the program under test, so a change to the
program moves the scaled time as it moves the wall time at a steady machine
speed. The correction is partial: the program sped up more than the kernel
in the machine's fastest phases.
"""

from time import perf_counter

KERNEL_ITERATIONS = 10_000
KERNEL_REF_S = 1e-3  # scaled times are at the speed where the kernel takes 1 ms


def kernel_s() -> float:
    """Best of three runs of the kernel (float arithmetic in a Python loop)."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        s = 0.0
        for i in range(KERNEL_ITERATIONS):
            s += i * 0.5
        best = min(best, perf_counter() - t0)
    return best


class ScaledClock:
    """Times calls in wall seconds and in scaled seconds; consecutive calls
    share the kernel run between them."""

    def __init__(self) -> None:
        self._before = kernel_s()

    def time(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        wall = perf_counter() - t0
        after = kernel_s()
        scaled = wall * KERNEL_REF_S / (0.5 * (self._before + after))
        self._before = after
        return out, wall, scaled
