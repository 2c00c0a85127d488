"""Timing corrections for a shared host: a speed probe and the vCPU's steal.

On the shared 2-vCPU KVM guest this benchmark was built on, the same
single-threaded work runs up to 2x slower for phases that last from seconds
to minutes, and two causes alternate:

- contention for the physical core, which slows CPU time as much as wall
  time;
- the hypervisor withholding the vCPU ("steal"), which stretches wall time
  while the guest's CPU time stops.

A median over one 25 s run cannot average either of them out. So the
benchmark pins itself to one vCPU and reads that vCPU's steal counter from
/proc/stat around each measured interval, then subtracts it from the wall
time. It also times, in process CPU time, a fixed probe kernel that shares
no code with corrdyn. The kernel mixes the kinds of work the workloads do:
sparse matvecs, dense complex solves, many small numpy calls and
interpreted Python loops. A time t next to probe time p is reported as
t * REFERENCE_S / p, the time at the speed where the probe takes
REFERENCE_S. A change to corrdyn cannot move the probe, so it moves the
normalised time fully.
"""

from __future__ import annotations

import os
from time import process_time

import numpy as np
import scipy.sparse as sp

# probe time on the reference guest (2-vCPU Xeon) in its fast phases
REFERENCE_S = 0.06


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20181801)
        self._sparse = sp.random(4096, 4096, density=0.02, format="csr", random_state=rng)
        self._v = rng.random(4096)
        c = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        self._c, self._h, self._eye = c, c + c.conj().T, np.eye(256)
        self._s = rng.normal(size=(4, 4)) + 0j

    def _kernel(self) -> None:
        x = self._v
        for _ in range(60):  # sparse matvecs, as evolve applies M
            x = self._sparse @ x
            x /= np.linalg.norm(x)
        for _ in range(2):  # dense complex solves, as resolvent
            np.linalg.solve(self._c, self._eye)
        np.linalg.eigvalsh(self._h)
        for _ in range(300):  # many small numpy calls, as decomposition
            np.kron(self._s, self._s).sum()
        counts, kept = {}, []  # interpreted loops, as build_generator
        for i in range(60_000):
            k = i % 1000
            counts[k] = counts.get(k, 0) + 1
            if i & 3:
                kept.append(k)

    def seconds(self) -> float:
        """Probe CPU time: the faster of two passes, since the first may
        refill caches that the measured work evicted."""
        times = []
        for _ in range(2):
            start = process_time()
            self._kernel()
            times.append(process_time() - start)
        return min(times)


def pin_to_one_cpu() -> int:
    """Restrict this process (and children it starts) to its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def stolen_s(cpu: int) -> float:
    """Seconds the hypervisor has withheld `cpu` since boot; 0 if not reported."""
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0
