"""The benchmark's four members run one checked round at small sizes, so a
change to a library call they make (``integrate`` with kept states,
``tendency`` on a named kernel, ``energy_budget``, ``geobalance simulate``
through ``cli.main``, ``ManifoldApprox`` and the remainders, the triad
audit and its CSV scan) fails here and not only in the benchmark."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


W = _workloads()

# the sizes of the benchmark's own self-tests
MEMBERS = {
    "balance-k6": lambda out: W.BalanceK6(1, out, kmax=3.0, steps=6,
                                          record_every=3),
    "simulate-k4": lambda out: W.SimulateK4(1, out, kmax=2, t_end=0.1),
    "manifold-k3": lambda out: W.ManifoldK3(1, out, kmax=3.0),
    "resonance-k4": lambda out: W.ResonanceK4(1, out, kmax=3.0,
                                              scan_kmax=2.0),
}


def test_every_member_is_covered():
    names = {m.name for ms in W.WORKLOADS.values() for m in ms}
    assert names == set(MEMBERS)


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_one_checked_round(name, tmp_path):
    member = MEMBERS[name](str(tmp_path))
    member.run_round()
    assert member.check_round() == []
    assert member.check_final() == []
