"""Config parsing, snapshot round trips, and command dispatch."""

import math
import os
import pathlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geobalance.cli import (COMMANDS, ConfigError, RunConfig, SnapshotError,
                            default_config_path, echo_config, main,
                            parse_config, read_snapshot, run, write_snapshot)
from geobalance.lattice import (DomainSpec, SpectralState, enforce_reality,
                                gevrey_norm, random_state, sobolev_norm)

DOM = DomainSpec()


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_echo_round_trip(self):
        cfg = parse_config("epsilon = 0.05\nkmax = 3\nseed = 7\n")
        again = parse_config(echo_config(cfg))
        assert again == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nmu = 0.25  # inline\n")
        assert cfg.mu == 0.25

    def test_negative_epsilon_message(self):
        with pytest.raises(ConfigError, match="epsilon must be > 0"):
            parse_config("epsilon = -0.1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'epsilonn'"):
            parse_config("epsilonn = 0.1\n")

    def test_all_violations_collected(self):
        text = "epsilon = -1\nbogus = 3\nmu = abc\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        v = exc.value.violations
        assert len(v) == 3
        assert any("epsilon" in x for x in v)
        assert any("bogus" in x for x in v)
        assert any("cannot parse mu" in x for x in v)

    def test_toy_T_not_whole_steps_named(self):
        with pytest.raises(ConfigError, match="toy_T = 1.0 must be a whole "
                                              "number of steps toy_dt = 0.3"):
            parse_config("toy_T = 1\ntoy_dt = 0.3\n")

    def test_grids(self):
        cfg = parse_config("eps_grid = 0.2 0.1\nn_grid = 0 1 2\n")
        assert cfg.eps_grid == (0.2, 0.1)
        assert cfg.n_grid == (0, 1, 2)

    def test_pinned_default_config_parses(self):
        with open(default_config_path(), encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        assert cfg.kmax == 6.0 and cfg.mu == 0.5
        assert cfg.seed == 20260501
        assert cfg.eps_grid == (0.1, 0.05, 0.025, 0.0125)

    def test_forcing_file_with_fast_at_k3_zero(self, tmp_path):
        p = tmp_path / "f.snap"
        p.write_text("geobalance-snapshot 1\n"
                     f"domain {2 * math.pi:.17g} {2 * math.pi:.17g} "
                     f"{2 * math.pi:.17g}\n"
                     "kmax 2\nframe lab\nt 0\nmodes 1\n"
                     "1 1 0 1 1 0\n")
        with pytest.raises(ConfigError,
                           match="fast branch at l3=0 does not exist"):
            parse_config(f"forcing_file = {p}\n")


class TestSnapshot:
    def test_round_trip_exact(self, tmp_path):
        s = enforce_reality(random_state(DOM, 3.0, 50)).replace(t=0.75)
        p = tmp_path / "s.snap"
        write_snapshot(s, p)
        back = read_snapshot(p)
        assert back.domain == s.domain and back.kmax == s.kmax
        assert back.frame == s.frame and back.t == s.t
        assert all(back[k] == s[k] for k in s)
        assert sobolev_norm(back) == sobolev_norm(s)
        assert gevrey_norm(back, 0.3) == gevrey_norm(s, 0.3)
        write_snapshot(back, tmp_path / "s2.snap")
        assert (tmp_path / "s.snap").read_bytes() \
            == (tmp_path / "s2.snap").read_bytes()

    def test_truncated_file_offset(self, tmp_path):
        s = enforce_reality(random_state(DOM, 2.0, 51))
        p = tmp_path / "s.snap"
        write_snapshot(s, p)
        data = p.read_bytes()
        cut = len(data) - 20
        (tmp_path / "cut.snap").write_bytes(data[:cut])
        with pytest.raises(SnapshotError, match="byte offset") as exc:
            read_snapshot(tmp_path / "cut.snap")
        assert exc.value.offset is not None
        assert exc.value.offset <= cut

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "v.snap"
        p.write_text("geobalance-snapshot 99\ndomain 1 1 1\nkmax 1\n"
                     "frame lab\nt 0\nmodes 0\n")
        with pytest.raises(SnapshotError, match="version 99"):
            read_snapshot(p)

    def test_not_a_snapshot(self, tmp_path):
        p = tmp_path / "x.snap"
        p.write_text("something else\n")
        with pytest.raises(SnapshotError, match="not a geobalance snapshot"):
            read_snapshot(p)

    def test_bad_mode_row(self, tmp_path):
        p = tmp_path / "m.snap"
        p.write_text("geobalance-snapshot 1\ndomain 1 1 1\nkmax 2\n"
                     "frame lab\nt 0\nmodes 1\n1 0 1 0 0.5\n")
        with pytest.raises(SnapshotError, match="6 fields"):
            read_snapshot(p)


def _parse_or_config_error(text):
    """parse_config either succeeds or raises ConfigError naming at least
    one violation; any other exception fails the test."""
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert exc.violations
    else:
        assert isinstance(cfg, RunConfig)


NUMBER_TEXT = st.one_of(
    st.floats().map(repr), st.integers().map(str),
    st.complex_numbers().map(str),
    st.lists(st.one_of(st.floats().map(repr), st.integers().map(str)),
             max_size=4).map(" ".join))


# forcing_file values: relative names without path separators, which
# resolve inside the fuzz tests' empty working directory
FILE_NAME = st.text(max_size=30).filter(lambda s: "/" not in s
                                        and os.sep not in s)


def _value(key):
    return st.one_of(NUMBER_TEXT, FILE_NAME if key == "forcing_file"
                     else st.text(max_size=30))


class TestParseConfigFuzz:
    """Run in an empty temporary directory, so that a forcing_file name
    reaches no checkout file."""

    @pytest.fixture(scope="class", autouse=True)
    def _empty_cwd(self, tmp_path_factory):
        cwd = os.getcwd()
        os.chdir(tmp_path_factory.mktemp("fuzz"))
        yield
        os.chdir(cwd)

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text(self, text):
        _parse_or_config_error(text)

    @given(st.lists(st.sampled_from([f.name for f in fields(RunConfig)])
                    .flatmap(lambda k: st.tuples(st.just(k), _value(k))),
                    max_size=8))
    @example([("n_grid", "1" * 400)])  # int too large for a float
    @settings(max_examples=300, deadline=None)
    def test_key_value_lines(self, pairs):
        _parse_or_config_error("".join(f"{k} = {v}\n" for k, v in pairs))


class TestCommands:
    def test_unknown_command(self):
        with pytest.raises(ValueError, match="unknown command"):
            run("plot", RunConfig())

    def test_toy_csv_matches_closed_form(self, tmp_path):
        cfg = parse_config("epsilon = 0.1\nmu = 0.5\ntoy_T = 2\n"
                           "toy_dt = 0.01\n")
        cfg.out = str(tmp_path)
        assert run("toy", cfg) == 0
        rows = [ln.split(",") for ln in
                (tmp_path / "toy.csv").read_text().splitlines()[2:]]
        lam = 1j / 0.1 + 0.5
        U = 0.1 * 1.0 / (0.1 * 0.5 + 1j)
        for t_s, re_s, im_s, d_s in rows:
            t = float(t_s)
            x = U * (1.0 - np.exp(-lam * t))
            assert abs(complex(float(re_s), float(im_s)) - x) <= 1e-12
            assert abs(float(d_s) - abs(x - U)) <= 1e-12

    def test_simulate_deterministic(self, tmp_path):
        text = "epsilon = 0.2\nkmax = 2\nt_end = 0.5\n"
        outs = []
        for name in ("a", "b"):
            cfg = parse_config(text)
            cfg.out = str(tmp_path / name)
            assert run("simulate", cfg) == 0
            outs.append(cfg.out)
        for fn in ("trajectory.csv", "final_state.snap"):
            a, b = (pathlib.Path(out, fn).read_bytes() for out in outs)
            assert a == b

    def test_audit_identities_passes(self, tmp_path, capsys):
        cfg = parse_config("kmax = 2\n")
        cfg.out = str(tmp_path)
        assert run("audit-identities", cfg) == 0
        text = (tmp_path / "audit_identities.csv").read_text()
        assert "FAIL" not in text
        assert text.count("pass") == 6

    def test_resonance_scan(self, tmp_path, capsys):
        cfg = parse_config("kmax = 2\n")
        cfg.out = str(tmp_path)
        assert run("resonance-scan", cfg) == 0
        out = capsys.readouterr().out
        assert "violations    : 0" in out
        lines = (tmp_path / "resonance_scan.csv").read_text().splitlines()
        assert lines[2].startswith("j1,")

    def test_balance_scan_command(self, tmp_path):
        cfg = parse_config("kmax = 2\neps_grid = 0.2 0.1\ntransient = 2\n"
                           "window = 2\n")
        cfg.out = str(tmp_path)
        assert run("balance-scan", cfg) == 0
        text = (tmp_path / "balance_scan.csv").read_text()
        assert "# pass_slope_ge_0.45 = 1" in text

    def test_manifold_command(self, tmp_path):
        cfg = parse_config("kmax = 2\neps_grid = 0.1\nn_grid = 0 1\n"
                           "transient = 2\nwindow = 2\n")
        cfg.out = str(tmp_path)
        assert run("manifold", cfg) == 0


class TestMain:
    def test_bad_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("epsilon = -1\nunknown = 2\n")
        rc = main(["toy", "--config", str(p)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 2

    def test_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GEOBALANCE_OUT", str(tmp_path))
        rc = main(["toy"])
        assert rc == 0
        assert (tmp_path / "toy.csv").exists()
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("# geobalance ")

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GEOBALANCE_OUT", str(tmp_path / "envdir"))
        rc = main(["toy", "--out", str(tmp_path / "flagdir")])
        assert rc == 0
        assert (tmp_path / "flagdir" / "toy.csv").exists()
        assert not (tmp_path / "envdir").exists()


class TestSimulateSteps:
    def _simulate(self, tmp_path, capsys, t_end, dt):
        cfg = parse_config(f"epsilon = 0.2\nkmax = 2\ndt = {dt!r}\n"
                           f"t_end = {t_end!r}\n")
        cfg.out = str(tmp_path)
        assert run("simulate", cfg) == 0
        last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1]
        return float(last.split(",")[0]), capsys.readouterr().out

    def test_float_noise_is_whole_steps(self, tmp_path, capsys):
        # 0.07 / 0.01 = 7.000000000000001: seven steps, not eight
        t, out = self._simulate(tmp_path, capsys, 0.07, 0.01)
        assert t == 7 * 0.01
        assert "simulate: 7 steps," in out and "rounded" not in out

    def test_partial_step_rounded_up_and_reported(self, tmp_path, capsys):
        t, out = self._simulate(tmp_path, capsys, 0.025, 0.01)
        assert t == 3 * 0.01
        assert "t_end 0.025 rounded up to 0.03 (3 x dt)" in out


class TestForcingFile:
    """A forcing file holds lab-frame coefficients; a rotated snapshot is
    the same thing only at t = 0."""

    def _final_state(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("epsilon = 0.2\nkmax = 2\nt_end = 0.2\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        return read_snapshot(out / "final_state.snap")

    def _simulate_with(self, tmp_path, snap):
        cfg = tmp_path / "forced.cfg"
        cfg.write_text(f"epsilon = 0.2\nkmax = 2\nt_end = 0.02\n"
                       f"forcing_file = {snap}\n")
        return main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "forced")])

    def test_rotated_snapshot_at_nonzero_t_refused(self, tmp_path, capsys):
        final = self._final_state(tmp_path)
        assert final.frame == "rotated" and final.t > 0
        snap = tmp_path / "sim" / "final_state.snap"
        assert self._simulate_with(tmp_path, snap) == 2
        err = capsys.readouterr().err
        assert "forcing_file" in err and "'rotated'" in err
        assert f"t = {final.t:.17g}" in err

    def test_lab_snapshot_accepted(self, tmp_path):
        final = self._final_state(tmp_path)
        snap = tmp_path / "lab.snap"
        write_snapshot(final.replace(frame="lab"), snap)
        assert self._simulate_with(tmp_path, snap) == 0
        cfg = parse_config(f"forcing_file = {snap}\n")
        assert cfg.forcing_file == str(snap)

    def test_rotated_snapshot_at_t_zero_accepted(self, tmp_path):
        final = self._final_state(tmp_path)
        snap = tmp_path / "t0.snap"
        write_snapshot(final.replace(t=0.0), snap)
        assert self._simulate_with(tmp_path, snap) == 0


class TestNGrid:
    def test_non_integral_order_rejected(self):
        with pytest.raises(ConfigError, match="n_grid entries must be "
                                              "integers"):
            parse_config("n_grid = 0 1.7\n")

    def test_integral_orders_accepted(self):
        assert parse_config("n_grid = 0 1 2\n").n_grid == (0, 1, 2)
        assert parse_config("n_grid = 0 1.0\n").n_grid == (0, 1.0)


class TestNonFinite:
    @pytest.mark.parametrize("line", [
        "kmax = inf", "t_end = inf", "dt = nan", "mu = nan", "L2 = inf",
        "transient = nan", "toy_f = nan+0j", "eps_grid = 0.1 1e400",
        "n_grid = 0 1e400"])
    def test_rejected_naming_the_key(self, line):
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(line + "\n")
