"""How fast the Kalman filter reaches its steady state on a large panel.

Feeds the true parameters to the filter (white-noise measurement model
with the true idiosyncratic variances) and prints the per-period traces
of the one-step-ahead and filtered factor MSE matrices: the Riccati
recursion settles within a handful of observations, and the filtered
trace scales like q/n.
"""

from dfm_em import DgpConfig, ModelDims, draw_dgp
from dfm_em.kalman import (
    kalman_filter,
    stationary_init,
    steady_state_diagnostics,
)

for n in (50, 100, 300):
    dims = ModelDims(n=n, T=100, r=4, q=2)
    draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, delta=0.2, seed=1))
    # A draw carries the diagonal of Gamma^e; the filter ignores rho.
    truth = draw.params
    filt = kalman_filter(draw.panel, truth, stationary_init(truth))
    diag = steady_state_diagnostics(filt, dims.q)
    pred = "  ".join(f"{v:.4f}" for v in diag.tr_pred)
    filt_tr = "  ".join(f"{v:.4f}" for v in diag.tr_filt)
    print(f"n={n:4d}  tr(P_pred)/q  t=1..5:  {pred}")
    print(f"       tr(P_filt)*n/q t=1..5:  {filt_tr}")
    print(f"       steady state reached at t = {diag.t_bar}\n")
