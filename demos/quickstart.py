"""Simulate a factor-model panel, fit it by EM, and compare against PCA.

Walks the core library loop end to end:

1. draw a dynamic factor model and a panel from it,
2. estimate by principal components (the initializer / benchmark),
3. refine by EM with Kalman smoothing,
4. score both estimates against the true common component.
"""

import numpy as np

from dfm_em import (
    DgpConfig,
    EmConfig,
    ModelDims,
    draw_dgp,
    em_fit,
    pc_estimate,
)
from dfm_em.metrics import common_mse, trace_statistic

dims = ModelDims(n=100, T=100, r=4, q=2)
draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, delta=0.2, seed=42))
print(f"panel: n={dims.n} series, T={dims.T} periods, "
      f"r={dims.r} factors driven by q={dims.q} shocks")

pc = pc_estimate(draw.panel, dims.r, dims.q)
chi_pc = pc.Lambda0 @ pc.Ftilde
print(f"\nPCA leading eigenvalues: "
      + ", ".join(f"{v:.2f}" for v in pc.eigvals))

res = em_fit(draw.panel, dims, EmConfig(epsilon=1e-5), init=pc)
chi_em = res.params.Lambda @ res.factors.F_smooth
print(f"EM converged: {res.converged} after {res.iters} iterations")
print("log-likelihood trace:", ", ".join(f"{v:.1f}" for v in res.loglik_trace))

mse_pc = common_mse(draw.chi, chi_pc)
mse_em = common_mse(draw.chi, chi_em)
print(f"\ncommon-component MSE   PCA: {mse_pc:.4f}   EM: {mse_em:.4f}   "
      f"ratio EM/PCA: {mse_em / mse_pc:.3f}")
print(f"factor trace statistic PCA: "
      f"{trace_statistic(draw.factors, pc.Ftilde):.4f}   "
      f"EM: {trace_statistic(draw.factors, res.factors.F_smooth):.4f}")

rmse_idio = np.sqrt(np.mean((chi_em - draw.panel.X) ** 2))
print(f"residual (idiosyncratic) RMSE of the EM fit: {rmse_idio:.3f}")
