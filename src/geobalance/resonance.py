"""Fast-fast-slow triad enumeration, case classification and bounds.

A triad is a pair of fast modes (j, r), (k, s) feeding the slow branch at
l = j + k.  Exactly resonant triads (omega_j^r + omega_k^s = 0) have
vanishing symmetrized coefficient; non-resonant ones obey explicit
case-wise majorants proportional to |omega_j^r + omega_k^s|, which is what
makes the frequency-weighted transfer operator bounded.  This module
enumerates and classifies all triads below a cutoff, evaluates the
majorants, and audits both properties exhaustively.

The vectorized paths take their triads from
``ModeTable.fast_fast_slow_blocks``: blocks of whole fast rows j, each
with every closing k.  :func:`audit` reduces each block at once, with the
case labels as integer codes; :func:`scan_csv` formats each block's rows
from its columns and writes them in one call; :func:`enumerate_triads`
yields the same rows as records.  The scalar :func:`triad_record` is the
reference they are tested against.

Coefficient sums here INCLUDE the box-volume factor |M| (they are pairing-
normalized), unlike :func:`geobalance.interactions.coeff`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
_A, _B, _C, _A1, _B1 = range(5)  # positions of the labels in _CASES
# one scan_csv row template per fast pair (r, s), in FAST_PAIRS order
_CSV_ROWS = tuple(f"%d,%d,%d,{r},%d,%d,%d,{s},%d,%d,%d,%s,"
                  "%.17g,%.17g,%.17g,%.17g\n" for r, s in FAST_PAIRS)


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


class _Block(NamedTuple):
    """The triads of a block of whole fast rows j, as in
    :class:`TriadRecord`: (m,) arrays J, K, L and weight over the closing
    pairs in (j, k) order, and (4, m) arrays over the fast pairs (r, s) in
    ``FAST_PAIRS`` order; ``case`` holds positions in ``_CASES``."""

    J: np.ndarray
    K: np.ndarray
    L: np.ndarray
    omega_sum: np.ndarray
    coeff_sum: np.ndarray  # includes |M|
    res: np.ndarray  # exact resonance
    theta: np.ndarray
    case: np.ndarray
    bound: np.ndarray
    weight: np.ndarray
    # |omega_sum| * weight, inf at exact resonance, so ratio = |coeff_sum| /
    # scale; each caller takes its own |coeff_sum|, since numpy's complex
    # abs and Python's can differ in the last bit
    scale: np.ndarray


def _check(kmax, theta0):
    if not math.isfinite(kmax):
        raise ValueError(f"kmax must be finite, got {kmax}")
    if not 0.0 < theta0 < 1.0:
        raise ValueError(f"theta0 must lie in (0,1), got {theta0}")


def _blocks(table, theta0):
    """The triads of every fast row of ``table``, one :class:`_Block` per
    block of ``ModeTable.fast_fast_slow_blocks``, in row order: the one
    computation behind :func:`enumerate_triads`, :func:`audit` and
    :func:`scan_csv`."""
    ints, kph, kabs = table.ints, table.kphys, table.kabs
    vol = table.domain.volume
    p0 = lambda rows: (ints[rows, 0] == 0) & (ints[rows, 1] == 0)  # k' = 0
    J = np.nonzero(table.fast_ok)[0]
    for b in table.fast_fast_slow_blocks(J, J):
        jp0, kp0, lp0 = (p0(rows) for rows in (b.J, b.K, b.L))
        jabs, kabs_k, labs = kabs[b.J], kabs[b.K], kabs[b.L]
        j3, k3 = np.abs(kph[b.J, 2]), np.abs(kph[b.K, 2])
        # the first label whose condition holds wins
        case = np.where(jp0 & kp0, _A1, np.where(b.res, _B1, np.where(
            jp0 != kp0, _C, np.where(lp0, _B, _A))))
        wsa = np.abs(b.wsum)
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.where(b.wj == b.wk, np.copysign(np.inf, b.wsum),
                             b.wsum / (b.wj - b.wk))
        b_a = np.where(np.abs(theta) <= theta0,
                       0.5 * vol * (4.0 + 6.0 / (1.0 - theta0 ** 2))
                       * jabs * kabs_k / labs * wsa,
                       2.0 * math.sqrt(5.0) * vol / theta0 * (j3 + k3) * wsa)
        b_b = 0.5 * vol * (j3 + k3) * wsa
        b_c = vol * np.where(jp0, j3, k3) / math.sqrt(2.0) * wsa
        bound = np.where(case == _A, b_a, np.where(case == _B, b_b, np.where(
            case == _C, b_c, 0.0)))
        weight = jabs * kabs_k / labs + j3 + k3
        yield _Block(b.J, b.K, b.L, b.wsum, vol * b.csum, b.res, theta, case,
                     bound, weight, np.where(b.res, np.inf, wsa * weight))


def _columns(table, t, *fields):
    """Python lists of block ``t``: for each pair, its integer triples j, k
    and l as one list of nine, and for each named (4, m) field, its values
    over the triads in canonical order (pair, then (r, s))."""
    ints = np.concatenate([table.ints[rows] for rows in (t.J, t.K, t.L)],
                          axis=1)
    return (ints.tolist(),
            *(getattr(t, f).T.ravel().tolist() for f in fields))


def enumerate_triads(domain: DomainSpec, kmax: float,
                     theta0: float = DEFAULT_THETA0):
    """Yield every triad record with |j|,|k|,|l| <= kmax, j3 k3 != 0.

    Canonical order: j lexicographic, then k lexicographic, then
    (r,s) in ((+,+),(+,-),(-,+),(-,-)).  ``ValueError`` for a kmax that is
    not finite or a theta0 outside (0, 1); none for kmax < 1.
    """
    _check(kmax, theta0)
    return _records(domain, kmax, theta0)


def _records(domain, kmax, theta0):
    if kmax < 1:
        return
    table = mode_table(domain, kmax)
    for t in _blocks(table, theta0):
        ints, w, csum, case, theta, bound, scale = _columns(
            table, t, "omega_sum", "coeff_sum", "case", "theta", "bound",
            "scale")
        i = 0
        for c, weight in zip(ints, t.weight.tolist()):
            j, k, l = tuple(c[0:3]), tuple(c[3:6]), tuple(c[6:9])
            for r, s in FAST_PAIRS:
                yield TriadRecord(j=j, r=r, k=k, s=s, l=l, omega_sum=w[i],
                                  coeff_sum=csum[i], case=_CASES[case[i]],
                                  theta=theta[i], bound=bound[i],
                                  ratio=abs(csum[i]) / scale[i],
                                  weight=weight)
                i += 1


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
    _check(kmax, theta0)
    if not kmax >= 2:
        raise ValueError(f"audit needs kmax >= 2, got {kmax}")
    table = mode_table(domain, kmax)
    vol = domain.volume
    n_triads = 0
    counts = np.zeros(len(_CASES), dtype=int)
    max_ratio = -1.0
    max_near = 0.0
    argmax = None
    max_res = 0.0
    n_viol = 0
    worst_viol = 0.0
    # tiny absolute slack: the majorants are exact-arithmetic inequalities,
    # evaluated here in floating point
    slack = 1e-9 * vol
    for t in _blocks(table, theta0):
        ac = np.abs(t.coeff_sum)
        res, nr = t.res, ~t.res
        n_triads += ac.size
        counts += np.bincount(t.case.ravel(), minlength=len(_CASES))
        jk = np.broadcast_to(table.kabs[t.J] * table.kabs[t.K], res.shape)
        max_res = max(max_res, float((ac[res] / (vol * np.maximum(
            1.0, jk[res]))).max(initial=0.0)))
        ratio = np.where(nr, ac / t.scale, -np.inf)
        near = np.abs(t.theta) <= theta0
        max_near = max(max_near, float(ratio[near].max(initial=0.0)))
        top = ratio.max(initial=-np.inf)
        if top > max_ratio:
            max_ratio = float(top)
            # ties go to the first in j row, then (r, s), then k
            q, m = np.nonzero(ratio == top)
            i = np.lexsort((m, q, t.J[m]))[0]
            r, s = FAST_PAIRS[q[i]]
            argmax = (tuple(table.ints[t.J[m[i]]].tolist()), r,
                      tuple(table.ints[t.K[m[i]]].tolist()), s)
        excess = ac[nr] - t.bound[nr]
        bad = excess > slack
        n_viol += int(bad.sum())
        worst_viol = max(worst_viol, float(excess[bad].max(initial=0.0)))
    cube = domain.L1 == domain.L2 == domain.L3
    return AuditReport(kmax=float(kmax), theta0=theta0, n_triads=n_triads,
                       case_counts=dict(zip(_CASES, counts.tolist())),
                       max_ratio=max_ratio,
                       max_ratio_near=max_near, argmax=argmax,
                       max_resonant_residual=max_res,
                       n_bound_violations=n_viol, worst_violation=worst_viol,
                       cone_tolerance=None if cube else 1e-12)


def scan_csv(domain: DomainSpec, kmax: float, path,
             theta0: float = DEFAULT_THETA0) -> int:
    """Write every triad record as CSV; returns the row count.

    The rows are the records of :func:`enumerate_triads`, in its order and
    with its validation, formatted block by block."""
    _check(kmax, theta0)
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# triad resonance scan, kmax = {kmax:.17g}, "
                 f"theta0 = {theta0:.17g}\n")
        fh.write(f"# domain = {domain.L1:.17g} {domain.L2:.17g} "
                 f"{domain.L3:.17g}; coeff_sum includes |M|\n")
        fh.write("j1,j2,j3,r,k1,k2,k3,s,l1,l2,l3,case,"
                 "omega_sum,abs_coeff_sum,bound,ratio\n")
        if kmax < 1:
            return 0
        table = mode_table(domain, kmax)
        for t in _blocks(table, theta0):
            ints, w, csum, case, bound, scale = _columns(
                table, t, "omega_sum", "coeff_sum", "case", "bound", "scale")
            rows = []
            i = 0
            for c in ints:
                for row in _CSV_ROWS:
                    a = abs(csum[i])  # Python's abs, as in TriadRecord.ratio
                    rows.append(row % (*c, _CASES[case[i]], w[i], a,
                                       bound[i], a / scale[i]))
                    i += 1
            fh.write("".join(rows))
            n += i
    return n
