"""A fixed numpy/scipy kernel that measures how fast the host is right now.

On a shared host the same fit can take 30% longer for tens of seconds at a
time. The probe runs the same mix of work as the library, a Python loop of
r x r products and Cholesky solves plus a BLAS-3 product and a symmetric
eigendecomposition, on fixed inputs. It calls nothing in dfm_em, so no
change to the library can move it. The benchmark runs it between
operations and scales each operation's time by NOMINAL_S over the mean of
the probe times around it.
"""

import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# The probe's time on an idle host of the kind the benchmark was tuned on;
# scaled times are what operations would take on such a host.
NOMINAL_S = 0.014


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.maps = [np.eye(4) + 0.1 * rng.standard_normal((4, 4))
                     for _ in range(8)]
        self.loadings = rng.standard_normal((400, 4))
        self.x = rng.standard_normal(400)
        self.panel = rng.standard_normal((1000, 200))
        B = rng.standard_normal((200, 200))
        self.sym = B @ B.T
        self.eye = np.eye(4)

    def __call__(self):
        """Seconds one pass of the kernel takes."""
        t0 = time.perf_counter()
        P = self.eye
        for k in range(200):
            A = self.maps[k % 8]
            P = A @ P @ A.T + self.eye
            P = 0.5 * (P + P.T) / np.trace(P)
            cho_solve(cho_factor(P + self.eye, lower=True), self.eye)
            self.loadings.T @ self.x
        self.panel.T @ self.panel
        np.linalg.eigh(self.sym)
        return time.perf_counter() - t0
