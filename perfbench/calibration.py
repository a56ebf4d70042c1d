"""Host-speed calibration: fixed reference work timed next to every measured call.

On a shared machine the speed available to one process swings by up to 2x,
within seconds and for minutes at a time, and no estimator over one run can
remove a slow minute.  The benchmark therefore times this fixed kernel right
before and right after every measured call and reports the call's rate
rescaled to the speed at which the kernel takes its reference time:

    rate_at_reference = instances / call_s * mean(kernel_s) / reference_s

A change to the program leaves the kernel alone, so the rescaled rate moves
with the program's own cost and not with the neighbours'.

Set-up is mostly importing and first-touch work, which the kernel tracks
poorly.  Each set-up process instead times its own `import numpy`, which
comes first and costs the same for every version of the program, and its
set-up time is rescaled by that import's time over its reference time.

The kernel mixes what the program spends its time on: interpreted Python with
small numpy calls (every workload) and, for workloads dominated by
`build_domain`'s eigen-solver, dense symmetric eigenvalue problems.
"""

from __future__ import annotations

import time

#: Kernel times on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, BLAS on one
#: thread), medians of 300 runs: the speed the rescaled rates refer to.
PYTHON_REF_S = 2.5e-3
LAPACK_REF_S = 3.7e-3
#: `import numpy` in a fresh interpreter on the same host, median of 26.
NUMPY_IMPORT_REF_S = 0.09

_PYTHON_STEPS = 400
_LAPACK_N = 256


class Calibration:
    """The reference kernel with `lapack_reps` eigen-solves per run."""

    def __init__(self, lapack_reps: int):
        import numpy as np

        self._np = np
        self.lapack_reps = lapack_reps
        m = np.random.default_rng(0).standard_normal((_LAPACK_N, _LAPACK_N))
        self._matrix = m + m.T
        self.reference_s = PYTHON_REF_S + lapack_reps * LAPACK_REF_S

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        np = self._np
        t0 = time.perf_counter()
        for _ in range(self.lapack_reps):
            np.linalg.eigvalsh(self._matrix)
        total = 0.0
        rows = []
        for i in range(_PYTHON_STEPS):
            a = np.full(8, i * 1e-3 + 1.0)
            total += float(np.linalg.norm(a)) + float(np.vdot(a, a).real)
            rec = {"i": i, "x": [float(v) for v in a[:4]], "ok": total > 0}
            rows.append(rec)
            total += len(format(total, ".17g")) + len(rec)
        return time.perf_counter() - t0

    def slowdown(self, seconds: float) -> float:
        """How much slower than the reference the host ran the kernel."""
        return seconds / self.reference_s


def setup_slowdown(numpy_import_s: float) -> float:
    """How much slower than the reference a fresh process imported numpy."""
    return numpy_import_s / NUMPY_IMPORT_REF_S
