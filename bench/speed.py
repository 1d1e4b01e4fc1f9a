"""Machine-speed gauge: a fixed calibration kernel run between operations.

The benchmark shares its cores with other tenants, and their load changes
how fast the same code runs by 30 % or more within seconds.  The gauge
runs a fixed kernel of the workload's kind of work after every operation,
for about a third of the operation's time, so that the kernel samples the
same mix of fast and slow moments as the program.  Timings are then
multiplied by the kernel's nominal time over its mean measured time: they
read as they would on the machine running at the speed the nominal was
taken at.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Kernel time spent after an operation, as a share of the operation's time.
SHARE = 1.0 / 3.0

_M = np.array([[1.0, 0.2, 0.3], [0.2, 1.1, 0.4], [0.3, 0.4, 1.2]])
_W = np.array([1.0, -1.0, 0.5])
_RNG = np.random.Generator(np.random.Philox(key=7))


def small_array_kernel():
    """3x3 numpy products, small array construction, float arithmetic."""
    acc = 0.0
    for i in range(40):
        s = _M @ _M.T
        v = np.array([[s[0, 0], 0.5, 1.0], [0.0, 1.0, float(i)], [1.0, 0.0, 1.0]])
        acc += float(_W @ v @ _W) + math.sqrt(i + 1.0)
    return acc


def sampling_kernel():
    """Two thirds Monte Carlo-style sampling and large-array products (BLAS,
    threaded like the program's), one third small_array_kernel()."""
    z = _RNG.standard_normal((4096, 6))
    xs = z[:, :3] @ _M.T
    ys = z[:, 3:] @ _M.T
    sampled = float((xs.T @ xs)[0, 0] + (ys.T @ ys)[0, 0])
    return sampled + small_array_kernel() + small_array_kernel()


#: Each kernel's time at an uncontended moment of the reference machine
#: (2 vCPU x86_64, Python 3.11.7, numpy 2.4.6 with 2 OpenBLAS threads).
#: They fix the units of the scaled timings; a comparison between two
#: commits does not depend on them.
NOMINAL_S = {small_array_kernel: 0.21e-3, sampling_kernel: 0.96e-3}

#: Set-up runs in fresh interpreters, whose start-up and imports follow
#: neither kernel.  Its yardstick is a cold interpreter that imports numpy,
#: most of a set-up's work; this is that time on the reference machine.
COLD_NUMPY_CODE = "import numpy"
NOMINAL_COLD_NUMPY_S = 0.24


class SpeedGauge:
    def __init__(self, work):
        self.work = work
        self.nominal_s = NOMINAL_S[work]
        self.kernel_s = 0.0
        self.kernels = 0
        self._round_start = (0.0, 0)

    def follow(self, busy_s):
        """Run the kernel for SHARE of busy_s seconds (at least once).

        Returns this turn's own factor, for operations short enough that the
        machine's speed holds from them to the turn right after.
        """
        spent = 0.0
        kernels = 0
        while True:
            start = time.perf_counter()
            self.work()
            spent += time.perf_counter() - start
            kernels += 1
            if spent >= SHARE * busy_s:
                break
        self.kernel_s += spent
        self.kernels += kernels
        return self.nominal_s * kernels / spent

    def factor(self):
        """Multiply a measured time by this to scale it to nominal speed."""
        return self.nominal_s / (self.kernel_s / self.kernels)

    def end_round(self):
        """The factor over the turns since the previous end_round()."""
        kernel_s, kernels = self._round_start
        self._round_start = (self.kernel_s, self.kernels)
        return self.nominal_s * (self.kernels - kernels) / (self.kernel_s - kernel_s)
