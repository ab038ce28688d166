"""Host-speed calibration for the end-to-end timings.

On a shared virtual machine the same op on the same input can take twice as
long a minute later, with CPU time rising as much as wall time, so the
slowdown is in the host and not in waiting. A run therefore also times this
fixed kernel, which does not touch pastaopt, before its set-ups and before
each op, and scales its end-to-end timings by REFERENCE_MS over the kernel's
median time in the run. A change to pastaopt moves the op but not the kernel,
so the scaled figure follows the program; a slower host moves both, so it
cancels. The raw timings and the factor are printed beside the metrics.

The kernel mixes the kinds of work the workloads do: small-array numpy calls
(the likelihood on a short log), wider numpy reductions (a long log), Python
row loops over a dense tableau (the simplex) and plain interpreter work.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_MS = 10.0  # the kernel's time on the reference host speed


def kernel_ms() -> float:
    """Wall time of one run of the fixed calibration kernel, in ms."""
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 40, size=(150, 8))
    u = rng.standard_normal(40)
    wide = rng.standard_normal((2000, 8))
    tableau = rng.standard_normal((66, 135))
    t0 = time.perf_counter()
    for _ in range(100):
        rows = u[idx]
        m = np.maximum(0.0, rows.max(axis=1))
        np.log(np.exp(-m) + np.exp(rows - m[:, None]).sum(axis=1))
        np.add.at(np.zeros(40), idx.ravel(), 1.0)
    for _ in range(10):
        np.exp(wide - wide.max(axis=1)[:, None]).sum(axis=1)
    for _ in range(3):
        for i in range(tableau.shape[0]):
            if tableau[i, 0] != 0.0:
                tableau[i] -= 0.001 * tableau[0]
    total = 0
    for v in range(20000):
        total += v
    return (time.perf_counter() - t0) * 1e3
