"""Fixed reference job that measures how fast the host runs right now.

    python3 benchmarks/calibrate.py

It does what a ``mejump`` invocation does, without the package: it starts an
interpreter, imports numpy, ``scipy.linalg`` and ``scipy.integrate``, and runs
vectorised categorical draws and a histogram on 10^6 items.  The benchmark
runs it after every timed invocation and divides the invocation's times by
its wall time, so slow and fast stretches of a shared host cancel out.  It
must not change when the program does: it imports nothing from ``mejump``.
"""

import numpy as np
import scipy.integrate  # noqa: F401
import scipy.linalg  # noqa: F401

N = 1_000_000
STATES = 6

rng = np.random.Generator(np.random.Philox(7))
cum = np.cumsum(rng.random((STATES, STATES + 3)), axis=1)
cum /= cum[:, -1:]
state = rng.integers(0, STATES, N)
for _ in range(3):
    u = rng.random(N)
    state = np.minimum((cum[state] <= u[:, None]).sum(axis=1), STATES - 1)
np.histogram(rng.random(N), bins=40)
