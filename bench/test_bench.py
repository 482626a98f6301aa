"""Self-tests of the benchmark at tiny sizes; run in seconds with

    python3 -m pytest -q bench/test_bench.py

Each workload's checks must pass on its own outputs and fail on a
deliberately corrupted one.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from geobalance.cli import write_snapshot  # noqa: E402


def test_balance_checks_fail_on_a_flipped_conjugate_partner(tmp_path):
    wl = W.BalanceK6(1, str(tmp_path), kmax=3.0, steps=6, record_every=3)
    wl.run_round()
    assert wl.check_round() == []
    assert wl.check_final() == []
    st = wl.last[1]
    key = next(k for k, v in st.items() if v != 0 and k[:3] > (0, 0, 0))
    partner = (-key[0], -key[1], -key[2], key[3])
    coeffs = dict(st.items())
    coeffs[partner] = -coeffs[partner]
    assert W.reality_problems([st]) == []
    assert W.reality_problems([st.replace(coeffs=coeffs)])


def test_oracle_fails_on_a_grid_kernel_off_by_1e_8(tmp_path, monkeypatch):
    wl = W.BalanceK6(1, str(tmp_path), kmax=3.0, steps=6, record_every=3)
    wl.run_round()
    conv_grid = W.mode_table(W.DOM, 3.0).conv_grid.__func__
    monkeypatch.setattr(type(W.mode_table(W.DOM, 3.0)), "conv_grid",
                        lambda self, *a: (1 + 1e-8) * conv_grid(self, *a))
    assert wl.check_final()


def test_simulate_checks_fail_on_a_truncated_snapshot(tmp_path):
    wl = W.SimulateK4(1, str(tmp_path), kmax=2, t_end=0.1)
    wl.run_round()
    assert wl.check_round() == []
    assert wl.check_final() == []
    snap = tmp_path / "artifacts" / "final_state.snap"
    data = snap.read_bytes()
    snap.write_bytes(data[: len(data) // 2])
    assert wl.check_round()
    assert wl.check_final()
    traj = tmp_path / "artifacts" / "trajectory.csv"
    traj.write_bytes(traj.read_bytes()[:-40])
    assert run.checked(wl.check_round)  # a ragged CSV is a failure too


def test_simulate_checks_fail_on_a_changed_coefficient(tmp_path):
    wl = W.SimulateK4(2, str(tmp_path), kmax=2, t_end=0.1)
    wl.run_round()
    snap = str(tmp_path / "artifacts" / "final_state.snap")
    st = W.cli.read_snapshot(snap)
    key, v = st.items()[0]
    write_snapshot(st.replace(coeffs={**dict(st.items()),
                                      key: v * (1 + 1e-15)}), snap)
    assert wl.check_final()


def test_manifold_checks_fail_on_a_perturbed_remainder(tmp_path):
    wl = W.ManifoldK3(1, str(tmp_path), kmax=3.0)
    wl.run_round()
    assert wl.check_round() == []
    assert wl.check_final() == []
    graphs, resid, direct, diff = wl.last
    r = direct[1]
    key, v = r.items()[0]
    bad = r.replace(coeffs={**dict(r.items()), key: v * (1 + 1e-6)})
    assert W.remainder_problems([bad], [diff[1]])
    slow = graphs[1].replace(coeffs={**dict(graphs[1].items()),
                                     (1, 0, 0, 0): 1e-3})
    assert W.graph_problems([slow])


def test_resonance_checks_fail_on_a_count_off_by_one(tmp_path):
    wl = W.ResonanceK4(1, str(tmp_path), kmax=3.0, scan_kmax=2.0)
    wl.run_round()
    assert wl.check_round() == []
    rep, rows = wl.last
    assert sum(wl.expected) == rep.n_triads + rows
    wl.last = rep, rows + 1
    assert wl.check_round()
    with open(wl.path, "a", encoding="utf-8") as fh:
        fh.write("1,0,1,1,0,1,1,1,1,1,2,a,0,0,0,0\n")
    wl.last = rep, rows
    assert wl.check_round()


@pytest.mark.parametrize("kmax", [2.0, 3.0, 3.5])
def test_independent_triad_count_matches_enumeration(kmax):
    from geobalance.resonance import enumerate_triads
    n = sum(1 for _ in enumerate_triads(W.DOM, kmax))
    assert W.count_closing_triads(kmax) == n


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_run_prints_every_metric(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = _run(ROOT, "--workload", "analysis", "--seed", "3",
             "--seconds", "0.2", "--trace", trace)
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    if trace == "0":
        # a run too short to spread them still times every cold set-up
        line = next(ln for ln in p.stderr.splitlines()
                    if "cold set-ups" in ln)
        setups = [float(x) for x in line.split(":")[1].split()[2:-1]]
        assert len(setups) == run.SETUP_SAMPLES
        assert out["metrics"]["setup_s"]["value"] == pytest.approx(
            min(setups), abs=1e-3)
    if trace == "1":
        # U^0..U^ORDERS, plus two graphs inside each order-difference
        # remainder
        assert out["metrics"]["slowmanifold.eval.calls"]["value"] == \
            W.ORDERS + 1 + 2 * W.ORDERS
        assert out["metrics"]["resonance.triads"]["value"] == \
            W.count_closing_triads(4.0) + W.count_closing_triads(2.5)
        assert out["metrics"]["engine.conv_direct.calls"]["value"] > 0


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = _run(tmp_path, "--workload", "march", "--seed", "1",
             "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert p.stdout.strip() == ""
