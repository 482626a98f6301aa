"""Fast-fast-slow triad enumeration, case classification and bounds.

A triad is a pair of fast modes (j, r), (k, s) feeding the slow branch at
l = j + k.  Exactly resonant triads (omega_j^r + omega_k^s = 0) have
vanishing symmetrized coefficient; non-resonant ones obey explicit
case-wise majorants proportional to |omega_j^r + omega_k^s|, which is what
makes the frequency-weighted transfer operator bounded.  This module
enumerates and classifies all triads below a cutoff, evaluates the
majorants, and audits both properties exhaustively.

Coefficient sums here INCLUDE the box-volume factor |M| (they are pairing-
normalized), unlike :func:`geobalance.interactions.coeff`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._engine import FAST_PAIRS, exact_resonance, mode_table
from .lattice import A2I, DomainSpec, _frequencies

__all__ = [
    "TriadRecord",
    "AuditReport",
    "enumerate_triads",
    "classify",
    "triad_record",
    "casewise_bound",
    "audit",
    "scan_csv",
]

DEFAULT_THETA0 = 0.5
_CASES = ("a", "b", "c", "a'", "b'", "degenerate")


@dataclass(frozen=True)
class TriadRecord:
    j: tuple
    r: int
    k: tuple
    s: int
    l: tuple
    omega_sum: float
    coeff_sum: complex  # includes |M|
    case: str
    theta: float  # +-inf when omega_j = omega_k
    bound: float  # casewise bound at theta0 = 1/2
    ratio: float  # |coeff_sum| / (|omega_sum| * weight); 0 at exact resonance
    weight: float  # |j||k|/|l| + |j3| + |k3|, physical


def classify(domain: DomainSpec, j, r, k, s) -> str:
    """Appendix case label for the triad ((j,r),(k,s))."""
    j = tuple(int(x) for x in j)
    k = tuple(int(x) for x in k)
    if j[2] == 0 or k[2] == 0:
        return "degenerate"
    jp0 = j[0] == 0 and j[1] == 0
    kp0 = k[0] == 0 and k[1] == 0
    if jp0 and kp0:
        return "a'"
    if exact_resonance(domain, j, r, k, s):
        return "b'"
    if jp0 or kp0:
        return "c"
    if j[0] + k[0] == 0 and j[1] + k[1] == 0:
        return "b"
    return "a"


def triad_record(domain: DomainSpec, j, r, k, s,
                 theta0: float = DEFAULT_THETA0) -> TriadRecord:
    """Full record for one fast-fast-slow triad via the scalar paths."""
    from .interactions import coeff

    j = tuple(int(x) for x in j)
    k = tuple(int(x) for x in k)
    l = (j[0] + k[0], j[1] + k[1], j[2] + k[2])
    vol = domain.volume
    case = classify(domain, j, r, k, s)
    if case == "degenerate" or l == (0, 0, 0):
        return TriadRecord(j, r, k, s, l, 0.0, 0.0j, "degenerate",
                           math.inf, 0.0, 0.0, 0.0)
    w = _frequencies(np.array([j, k]) * domain.k_factors())
    wj, wk = w[A2I[r], 0], w[A2I[s], 1]
    wsum = wj + wk
    csum = vol * (coeff(domain, j, r, k, s, l, 0)
                  + coeff(domain, k, s, j, r, l, 0))
    theta = wsum / (wj - wk) if wj != wk else math.copysign(math.inf, wsum)
    f = domain.k_factors()
    ja = domain.wavevector(*j).kabs
    ka = domain.wavevector(*k).kabs
    la = domain.wavevector(*l).kabs
    weight = ja * ka / la + abs(f[2] * j[2]) + abs(f[2] * k[2])
    rec = TriadRecord(j, r, k, s, l, wsum, csum, case, theta, 0.0, 0.0,
                      weight)
    bound = casewise_bound(rec, theta0, domain)
    ratio = 0.0
    if case not in ("a'", "b'", "degenerate") and wsum != 0.0:
        ratio = abs(csum) / (abs(wsum) * weight)
    return TriadRecord(j, r, k, s, l, wsum, csum, case, theta, bound,
                       ratio, weight)


def casewise_bound(record: TriadRecord, theta0: float = DEFAULT_THETA0,
                   domain: DomainSpec | None = None) -> float:
    """Explicit majorant of |coeff_sum| for a non-resonant triad.

    Cases a' and b' (exact resonances) and degenerate triads return 0,
    matching the vanishing coefficient sum.
    """
    if not 0.0 < theta0 < 1.0:
        raise ValueError(f"theta0 must lie in (0,1), got {theta0}")
    if domain is None:
        domain = DomainSpec()
    vol = domain.volume
    case = record.case
    if case in ("a'", "b'", "degenerate"):
        return 0.0
    f = domain.k_factors()
    jp = (f[0] * record.j[0], f[1] * record.j[1], f[2] * record.j[2])
    kp = (f[0] * record.k[0], f[1] * record.k[1], f[2] * record.k[2])
    j3, k3 = abs(jp[2]), abs(kp[2])
    ws = abs(record.omega_sum)
    if case == "a":
        if abs(record.theta) <= theta0:
            ja = math.sqrt(jp[0] ** 2 + jp[1] ** 2 + jp[2] ** 2)
            ka = math.sqrt(kp[0] ** 2 + kp[1] ** 2 + kp[2] ** 2)
            lp = (jp[0] + kp[0], jp[1] + kp[1], jp[2] + kp[2])
            la = math.sqrt(lp[0] ** 2 + lp[1] ** 2 + lp[2] ** 2)
            return 0.5 * vol * (4.0 + 6.0 / (1.0 - theta0 ** 2)) * ja * ka / la * ws
        return 2.0 * math.sqrt(5.0) * vol / theta0 * (j3 + k3) * ws
    if case == "b":
        return 0.5 * vol * (j3 + k3) * ws
    if case == "c":
        z3 = j3 if (record.j[0] == 0 and record.j[1] == 0) else k3
        return vol * z3 / math.sqrt(2.0) * ws
    raise AssertionError(case)


def _scan_rows(table, jn, K):
    """All triads with the j-mode fixed at table row jn, k over rows K.

    Returns a dict with the closing rows K and lrow (m,) and (4, m) arrays
    over the fast pairs (r, s) in ``FAST_PAIRS`` order: the fields needed
    by both the streaming enumeration and the audit reduction.  None when
    no k closes a triad.
    """
    b = table.fast_fast_slow(jn, K)
    m = len(b.K)
    if m == 0:
        return None
    ints, kph, kabs = table.ints, table.kphys, table.kabs
    pair = lambda a: np.broadcast_to(a, (4, m))
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(b.wj == b.wk, np.inf, b.wsum / (b.wj - b.wk))
    return dict(K=b.K, lrow=b.L, wsum=b.wsum,
                csum=table.domain.volume * b.csum, res=b.res, theta=theta,
                jp0=ints[jn][0] == 0 and ints[jn][1] == 0,
                kp0=pair((ints[b.K][:, 0] == 0) & (ints[b.K][:, 1] == 0)),
                lp0=pair((ints[b.L][:, 0] == 0) & (ints[b.L][:, 1] == 0)),
                jabs=kabs[jn], kabs=pair(kabs[b.K]), labs=pair(kabs[b.L]),
                j3=abs(kph[jn][2]), k3=pair(np.abs(kph[b.K][:, 2])))


def _bounds_and_cases(d, theta0, vol):
    """Vectorized case labels and bounds for one _scan_rows block."""
    both0 = d["jp0"] & d["kp0"]
    one0 = np.logical_xor(d["jp0"], d["kp0"])
    # the first label whose condition holds wins
    case = np.select([both0, d["res"], one0, d["lp0"]],
                     ["a'", "b'", "c", "b"], "a")
    wsa = np.abs(d["wsum"])
    near = np.abs(d["theta"]) <= theta0
    b_a = np.where(near,
                   0.5 * vol * (4.0 + 6.0 / (1.0 - theta0 ** 2))
                   * d["jabs"] * d["kabs"] / d["labs"] * wsa,
                   2.0 * math.sqrt(5.0) * vol / theta0
                   * (d["j3"] + d["k3"]) * wsa)
    b_b = 0.5 * vol * (d["j3"] + d["k3"]) * wsa
    z3 = np.where(d["jp0"], d["j3"], d["k3"])
    b_c = vol * z3 / math.sqrt(2.0) * wsa
    bound = np.where(case == "a", b_a,
                     np.where(case == "b", b_b,
                              np.where(case == "c", b_c, 0.0)))
    return case, bound


def enumerate_triads(domain: DomainSpec, kmax: float,
                     theta0: float = DEFAULT_THETA0):
    """Yield every triad record with |j|,|k|,|l| <= kmax, j3 k3 != 0.

    Canonical order: j lexicographic, then k lexicographic, then
    (r,s) in ((+,+),(+,-),(-,+),(-,-)).
    """
    if not kmax >= 1:
        return
    table = mode_table(domain, kmax)
    J = np.nonzero(table.fast_ok)[0]
    vol = domain.volume
    for jn in J:
        d = _scan_rows(table, jn, J)
        if d is None:
            continue
        j = tuple(int(x) for x in table.ints[jn])
        case, bnd = _bounds_and_cases(d, theta0, vol)
        weight = d["jabs"] * d["kabs"] / d["labs"] + d["j3"] + d["k3"]
        # regroup per pair so output order is j, k, (r,s)
        for m in range(len(d["K"])):
            k = tuple(int(x) for x in table.ints[d["K"][m]])
            l = tuple(int(x) for x in table.ints[d["lrow"][m]])
            for q, (r, s) in enumerate(FAST_PAIRS):
                csum = complex(d["csum"][q, m])
                wsum = float(d["wsum"][q, m])
                w = float(weight[q, m])
                ratio = 0.0 if d["res"][q, m] else abs(csum) / (abs(wsum) * w)
                yield TriadRecord(j=j, r=r, k=k, s=s, l=l,
                                  omega_sum=wsum, coeff_sum=csum,
                                  case=str(case[q, m]),
                                  theta=float(d["theta"][q, m]),
                                  bound=float(bnd[q, m]), ratio=ratio,
                                  weight=w)


@dataclass
class AuditReport:
    kmax: float
    theta0: float
    n_triads: int
    case_counts: dict
    max_ratio: float  # sup of ratio over all non-resonant triads (includes |M|)
    max_ratio_near: float  # sup restricted to |theta| <= theta0
    argmax: tuple | None  # (j, r, k, s) of the unrestricted supremum
    max_resonant_residual: float  # max |coeff_sum| / (|M| max(1,|j||k|))
    n_bound_violations: int
    worst_violation: float
    cone_tolerance: float | None  # set for anisotropic boxes

    @property
    def empirical_cnr(self) -> float:
        """Measured near-resonance constant: sup of ratio over |theta| <= theta0.

        Beyond theta0 the ratio has the closed-form ceiling 2 sqrt5 |M| /
        theta0 (the triangle-inequality branch of the case-a bound), so
        only the near-resonant region carries empirical information; its
        supremum is stable under cutoff refinement, unlike the slowly
        creeping unrestricted supremum, which is reported separately.
        """
        return self.max_ratio_near

    def summary(self) -> str:
        lines = [f"triad audit: kmax={self.kmax:g} theta0={self.theta0:g} "
                 f"triads={self.n_triads}",
                 f"  empirical c_nr (near sup)    : {self.max_ratio_near:.6g}",
                 f"  unrestricted sup ratio       : {self.max_ratio:.6g} "
                 f"at {self.argmax}",
                 f"  exact-resonance residual     : "
                 f"{self.max_resonant_residual:.3e}",
                 f"  casewise-bound violations    : {self.n_bound_violations} "
                 f"(worst excess {self.worst_violation:.3e})",
                 "  case counts                  : "
                 + " ".join(f"{c}={self.case_counts.get(c, 0)}"
                            for c in _CASES)]
        if self.cone_tolerance is not None:
            lines.append(f"  cone detection tolerance     : "
                         f"{self.cone_tolerance:g} (anisotropic box)")
        return "\n".join(lines)


def audit(domain: DomainSpec, kmax: float,
          theta0: float = DEFAULT_THETA0) -> AuditReport:
    """Exhaustive scan of all triads below kmax.

    Verifies that exactly resonant coefficient sums vanish (reported as a
    residual normalized by |M| max(1, |j||k|)) and that the case-wise
    bound dominates every non-resonant |coeff_sum|; reports the empirical
    supremum of the non-resonant ratio.
    """
    if not kmax >= 2:
        raise ValueError(f"audit needs kmax >= 2, got {kmax}")
    if not 0.0 < theta0 < 1.0:
        raise ValueError(f"theta0 must lie in (0,1), got {theta0}")
    table = mode_table(domain, kmax)
    vol = domain.volume
    J = np.nonzero(table.fast_ok)[0]
    n_triads = 0
    counts = {c: 0 for c in _CASES}
    max_ratio = -1.0
    max_near = 0.0
    argmax = None
    max_res = 0.0
    n_viol = 0
    worst_viol = 0.0
    # tiny absolute slack: the majorants are exact-arithmetic inequalities,
    # evaluated here in floating point
    slack = 1e-9 * vol
    for jn in J:
        d = _scan_rows(table, jn, J)
        if d is None:
            continue
        case, bnd = _bounds_and_cases(d, theta0, vol)
        ac = np.abs(d["csum"])
        res = d["res"]
        n_triads += ac.size
        for c in _CASES:
            counts[c] += int((case == c).sum())
        if res.any():
            scale = vol * np.maximum(1.0, d["jabs"] * d["kabs"][res])
            max_res = max(max_res, float((ac[res] / scale).max()))
        nr = ~res
        if nr.any():
            weight = (d["jabs"] * d["kabs"][nr] / d["labs"][nr]
                      + d["j3"] + d["k3"][nr])
            ratio = ac[nr] / (np.abs(d["wsum"][nr]) * weight)
            near = np.abs(d["theta"][nr]) <= theta0
            if near.any():
                max_near = max(max_near, float(ratio[near].max()))
            i = int(np.argmax(ratio))
            if ratio[i] > max_ratio:
                max_ratio = float(ratio[i])
                q, m = (ix[i] for ix in np.nonzero(nr))
                r, s = FAST_PAIRS[q]
                argmax = (tuple(int(x) for x in table.ints[jn]), r,
                          tuple(int(x) for x in table.ints[d["K"][m]]), s)
            excess = ac[nr] - bnd[nr]
            bad = excess > slack
            n_viol += int(bad.sum())
            if bad.any():
                worst_viol = max(worst_viol, float(excess[bad].max()))
    cube = domain.L1 == domain.L2 == domain.L3
    return AuditReport(kmax=float(kmax), theta0=theta0, n_triads=n_triads,
                       case_counts=counts, max_ratio=max_ratio,
                       max_ratio_near=max_near, argmax=argmax,
                       max_resonant_residual=max_res,
                       n_bound_violations=n_viol, worst_violation=worst_viol,
                       cone_tolerance=None if cube else 1e-12)


def scan_csv(domain: DomainSpec, kmax: float, path,
             theta0: float = DEFAULT_THETA0) -> int:
    """Write every triad record as CSV; returns the row count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# triad resonance scan, kmax = {kmax:.17g}, "
                 f"theta0 = {theta0:.17g}\n")
        fh.write(f"# domain = {domain.L1:.17g} {domain.L2:.17g} "
                 f"{domain.L3:.17g}; coeff_sum includes |M|\n")
        fh.write("j1,j2,j3,r,k1,k2,k3,s,l1,l2,l3,case,"
                 "omega_sum,abs_coeff_sum,bound,ratio\n")
        for rec in enumerate_triads(domain, kmax, theta0):
            fh.write(f"{rec.j[0]},{rec.j[1]},{rec.j[2]},{rec.r},"
                     f"{rec.k[0]},{rec.k[1]},{rec.k[2]},{rec.s},"
                     f"{rec.l[0]},{rec.l[1]},{rec.l[2]},{rec.case},"
                     f"{rec.omega_sum:.17g},{abs(rec.coeff_sum):.17g},"
                     f"{rec.bound:.17g},{rec.ratio:.17g}\n")
            n += 1
    return n
