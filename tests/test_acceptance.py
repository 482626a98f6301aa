"""Acceptance gate: the nine release criteria, one pass/fail line each.

Each test prints "criterion N: PASS/FAIL (details)" and asserts the pinned
tolerances.  Criteria 6 and 7 run scaled-down trajectory scans and take
minutes; everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from geobalance.dynamics import (ForcingSpec, SolverConfig, apply_A,
                                 integrate)
from geobalance.experiments import (balance_scan, default_forcing,
                                    gevrey_tail_check, manifold_scan,
                                    toy_model)
from geobalance.interactions import apply_B, pairing
from geobalance.lattice import (DomainSpec, SpectralState, enforce_reality,
                                random_state, sobolev_norm, wavevectors)
from geobalance.modes import apply_L, eigenframe, slow_fast_split
from geobalance.resonance import audit
from geobalance.slowmanifold import (ManifoldApprox, contraction_scan,
                                     kappa_delta, remainder_diff,
                                     remainder_direct)

DOM = DomainSpec()
VOL = DOM.volume


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_operator_identities():
    t0 = time.time()
    mu = 0.5
    rng = np.random.default_rng(1)
    worst = dict(L=0.0, B=0.0, A=0.0, orth=0.0)
    for _ in range(100):
        W = random_state(DOM, 4.0, rng)
        Wh = random_state(DOM, 4.0, rng)
        n2 = VOL * sobolev_norm(W) ** 2
        g2 = VOL * sobolev_norm(W, 1.0) ** 2
        gh = math.sqrt(VOL) * sobolev_norm(Wh, 1.0)
        worst["L"] = max(worst["L"], abs(pairing(apply_L(W), W)) / n2)
        worst["B"] = max(worst["B"],
                         abs(pairing(apply_B(Wh, W), W).real) / (gh * n2))
        worst["A"] = max(worst["A"],
                         abs(pairing(apply_A(W, mu), W).real - mu * g2)
                         / max(mu * g2, 1.0))
        s, f = slow_fast_split(W)
        worst["orth"] = max(worst["orth"], abs(pairing(s, f)) / n2)
    elapsed = time.time() - t0
    ok = (worst["L"] <= 1e-12 and worst["B"] <= 1e-10
          and worst["A"] <= 1e-12 and worst["orth"] <= 1e-12
          and elapsed < 60.0)
    _report(1, ok, f"L {worst['L']:.2e}, B {worst['B']:.2e}, "
                   f"A {worst['A']:.2e}, orth {worst['orth']:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_2_eigenframe():
    dev = 0.0
    floor = math.inf
    floor_at_vertical = None
    for kv in wavevectors(DOM, 8.0):
        fr = eigenframe(kv)
        vs = [fr.X0] + ([fr.X_plus, fr.X_minus] if fr.has_fast else [])
        for i, a in enumerate(vs):
            for j, b in enumerate(vs):
                dev = max(dev, abs(np.dot(a, np.conj(b))
                                   - (1.0 if i == j else 0.0)))
        if fr.has_fast:
            w = min(abs(fr.omega_plus), abs(fr.omega_minus))
            if w < floor:
                floor = w
                floor_at_vertical = kv.kperp == 0.0
    ok = dev <= 1e-14 and floor == 1.0 and floor_at_vertical
    _report(2, ok, f"orthonormality dev {dev:.2e}, floor {floor:g} "
                   f"on the vertical axis: {floor_at_vertical}")


def test_criterion_3_nonlinear_oracle():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        a = random_state(DOM, 4.0, rng)
        b = random_state(DOM, 4.0, rng)
        d = apply_B(a, b, method="direct")
        g = apply_B(a, b, method="grid")
        worst = max(worst, sobolev_norm(d - g) / sobolev_norm(d))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 120.0
    _report(3, ok, f"max relative deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_resonance_audit():
    t0 = time.time()
    r4 = audit(DOM, 4.0, 0.5)
    r8 = audit(DOM, 8.0, 0.5)
    growth = r8.empirical_cnr / r4.empirical_cnr - 1.0
    elapsed = time.time() - t0
    ok = (r8.max_resonant_residual <= 1e-12
          and r8.n_bound_violations == 0
          and abs(growth) <= 0.05
          and elapsed < 300.0)
    _report(4, ok, f"{r8.n_triads} triads, resonant residual "
                   f"{r8.max_resonant_residual:.2e}, violations "
                   f"{r8.n_bound_violations}, c_nr growth {growth:+.2%} "
                   f"(unrestricted sup {r4.max_ratio:.4g} -> "
                   f"{r8.max_ratio:.4g}), {elapsed:.1f}s")


def test_criterion_5_integrator():
    t0 = time.time()
    # exact diffusion on a nonlinearly steady zonal state
    mu, T = 0.7, 2.0
    zonal = SpectralState(DOM, 2.0, {(0, 1, 0, 0): 1.0j,
                                     (0, -1, 0, 0): 1.0j})
    cfg = SolverConfig(eps=0.1, mu=mu, dt=0.05, t_end=T, kmax=2.0)
    _, w = integrate(zonal, cfg)
    diff_err = max(abs(w[k] - 1.0j * math.exp(-mu * T))
                   for k in ((0, 1, 0, 0), (0, -1, 0, 0)))

    # Richardson self-convergence order
    s = enforce_reality(random_state(DOM, 2.0, 31, scale=0.5))
    f = ForcingSpec(enforce_reality(
        0.3 * random_state(DOM, 2.0, 32, frame="lab")))

    def final(dt):
        c = SolverConfig(eps=0.5, mu=0.3, dt=dt, t_end=0.8, kmax=2.0)
        return integrate(s, c, f)[1]

    ref = final(0.8 / 256)
    errs = [sobolev_norm(final(0.8 / n) - ref) for n in (8, 16, 32)]
    order = min(math.log2(errs[i] / errs[i + 1]) for i in range(2))

    # inviscid unforced energy drift over 10^3 steps
    s2 = enforce_reality(random_state(DOM, 2.0, 33, scale=0.1))
    cfg2 = SolverConfig(eps=0.5, mu=0.0, dt=0.01, t_end=10.0, kmax=2.0)
    rec, _ = integrate(s2, cfg2)
    drift = float(np.abs(rec.e_total ** 2 - rec.e_total[0] ** 2).max()
                  / rec.e_total[0] ** 2)
    elapsed = time.time() - t0
    ok = (diff_err <= 1e-13 and order >= 3.7 and drift <= 1e-8
          and elapsed < 300.0)
    _report(5, ok, f"diffusion {diff_err:.2e}, order {order:.2f}, "
                   f"drift {drift:.2e}/10^3 steps, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_balance_envelope():
    t0 = time.time()
    rep = balance_scan([0.1, 0.05, 0.025, 0.0125], kmax=6.0, mu=0.5,
                       transient=20.0, window=20.0)
    elapsed = time.time() - t0
    ok = (all(rep.converged) and rep.slope >= 0.45 and elapsed < 1800.0)
    _report(6, ok, f"slope {rep.slope:.3f} over {len(rep.rows)} eps points, "
                   f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_slow_manifold():
    t0 = time.time()
    eps, kmax, mu = 0.05, 6.0, 0.5
    forcing = default_forcing(DOM, kmax)
    kappa, _, _ = kappa_delta(eps, kmax)
    W = enforce_reality(random_state(DOM, kappa * (1 - 1e-9), 7, scale=0.5,
                                     slow_only=True))
    nrm = sobolev_norm(W, 2.0)
    if nrm > 1.0:
        W = (1.0 / nrm) * W

    # two-route remainder identity at orders 0..3
    ident = 0.0
    for n in range(3):
        a_n = ManifoldApprox(DOM, kappa, eps, mu, forcing, order=n,
                             n_cap=4, eta=2.0)
        a_n1 = ManifoldApprox(DOM, kappa, eps, mu, forcing, order=n + 1,
                              n_cap=4, eta=2.0)
        d = remainder_direct(a_n, W)
        dd = remainder_diff(a_n, a_n1, W)
        ident = max(ident, sobolev_norm(d - dd)
                    / max(1.0, sobolev_norm(d)))

    # strict remainder decrease for n = 0..3
    rows, _ = contraction_scan(W, forcing, mu, [eps], kappa, n_hi=3)
    norms = rows[0][1]
    decreasing = all(b < a for a, b in zip(norms, norms[1:]))

    # jet derivative against central finite differences
    ap = ManifoldApprox(DOM, kappa, eps, mu, forcing, order=2, n_cap=4,
                        eta=2.0)
    d = enforce_reality(random_state(DOM, kappa * (1 - 1e-9), 8,
                                     slow_only=True))
    _, (DU,) = ap.jet(W, [d])
    h = 1e-6
    fd = (1.0 / (2 * h)) * (ap(W + h * d) - ap(W + (-h) * d))
    jet_err = sobolev_norm(DU - fd) / max(1.0, sobolev_norm(DU))

    # time-averaged trajectory residual of the first-order graph
    rep = manifold_scan([eps], [0, 1], kmax=kmax, mu=mu, forcing=forcing,
                        transient=20.0, window=20.0)
    rows = {r["n"]: r for r in rep.rows}
    ratio = rows[1]["residual"] / rows[0]["residual"]
    elapsed = time.time() - t0
    ok = (ident <= 1e-12 and decreasing and jet_err <= 1e-6
          and ratio <= 0.5 and elapsed < 1200.0)
    _report(7, ok, f"two-route {ident:.2e}, remainders "
                   + "/".join(f"{x:.2e}" for x in norms)
                   + f", jet {jet_err:.2e}, trajectory residual ratio "
                   f"{ratio:.3f}, {elapsed:.0f}s")


def test_criterion_8_toy_model():
    eps, mu, f = 0.1, 1.0, 1.0
    traj = toy_model(eps, mu, f, T=3.0, dt=0.05, x0=0.0)
    lam = 1j / eps + mu
    U = traj.slow_point
    closed = U * (1.0 - np.exp(-lam * traj.times))
    form_err = float(np.abs(traj.x - closed).max())
    final_dist = traj.dist[-1]
    epss = np.array([0.1, 0.05, 0.025, 0.0125])
    mags = [abs(toy_model(e, mu, f, 1.0, 0.1).slow_point) for e in epss]
    slope = float(np.polyfit(np.log(epss), np.log(mags), 1)[0])
    ok = (form_err <= 1e-12 and final_dist <= abs(U) * math.exp(-mu * 3.0)
          * (1 + 1e-12) and abs(slope - 1.0) <= 0.05)
    _report(8, ok, f"closed form {form_err:.2e}, final distance "
                   f"{final_dist:.2e}, slow-point slope {slope:.4f}")


def test_criterion_9_gevrey_tail():
    rep = gevrey_tail_check(0.5, [2.0, 3.0, 4.0, 5.0])
    ok = abs(rep.slope + 0.5) <= 0.05 and rep.passed["bounded_C"]
    _report(9, ok, f"log-tail slope {rep.slope:.4f} vs -0.5")
