"""Forced-dissipative simulation and the fast-energy budget.

The integrator works in the rotated frame: wave phases e^{-i omega t/eps}
and diffusion are treated exactly, so the step size only resolves the
nonlinearity.  Starting from rest under steady forcing, the fast
(inertia-gravity) energy saturates at a level of order sqrt(eps) while the
slow energy keeps growing until dissipation balances injection.  The
budget identity dE_fast/dt + dissipation = transfer + injection holds to
roundoff at every sample.
"""

import numpy as np

from geobalance.dynamics import SolverConfig, integrate
from geobalance.experiments import default_forcing, oscillation_dt
from geobalance.lattice import DomainSpec, SpectralState

dom = DomainSpec()
kmax, eps, mu = 3.0, 0.1, 0.5
forcing = default_forcing(dom, kmax)
dt = oscillation_dt(dom, kmax, eps)
nsteps = int(np.ceil(8.0 / dt))  # t_end must be a whole number of steps
cfg = SolverConfig(eps=eps, mu=mu, dt=dt, t_end=nsteps * dt, kmax=kmax,
                   record_every=max(1, int(round(1.0 / dt))))

print(f"kmax = {kmax:g}, eps = {eps:g}, mu = {mu:g}, dt = {dt:.4f}")
rec, final = integrate(SpectralState(dom, kmax, {}), cfg, forcing)

print()
print("   t     ||W||     ||W_fast||  ||W_slow||  budget residual")
for i in range(len(rec.times)):
    print(f"  {rec.times[i]:4.1f}  {rec.e_total[i]:.6f}  "
          f"{rec.e_fast[i]:.6f}    {rec.e_slow[i]:.6f}    "
          f"{rec.budget_residual[i]: .2e}")

print()
print(f"fast fraction at the end: "
      f"{rec.e_fast[-1] / rec.e_total[-1]:.3f} "
      f"(sqrt(eps) = {np.sqrt(eps):.3f})")
