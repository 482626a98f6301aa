"""Snapshot files: bit-exact round trips of random sparse states, and a
byte offset for every truncated file."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geobalance.cli import SnapshotError, read_snapshot, write_snapshot
from geobalance.lattice import DomainSpec, SpectralState, wavevectors

DOM = DomainSpec()
KEYS = [(*kv.l, a) for kv in wavevectors(DOM, 3.0)
        for a in ((0, 1, -1) if kv.l[2] else (0,))]
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def sparse_states(draw):
    """Random key subsets of the kmax-3 lattice with arbitrary finite
    values, stored zeros included, in either frame."""
    idx = draw(st.lists(st.integers(0, len(KEYS) - 1), unique=True,
                        max_size=40))
    vals = draw(st.lists(st.one_of(st.just(0j), st.builds(complex, FINITE,
                                                            FINITE)),
                         min_size=len(idx), max_size=len(idx)))
    frame = draw(st.sampled_from(("rotated", "lab")))
    t = draw(FINITE)
    return SpectralState(DOM, 3.0, {KEYS[i]: v for i, v in zip(idx, vals)},
                         frame, t)


def _path(tmp, name):
    return os.path.join(tmp, name)


class TestSnapshotProperties:
    @given(sparse_states())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_exact(self, s):
        with tempfile.TemporaryDirectory() as tmp:
            write_snapshot(s, _path(tmp, "s.snap"))
            back = read_snapshot(_path(tmp, "s.snap"))
        assert (back.domain, back.kmax, back.frame) == (s.domain, s.kmax,
                                                        s.frame)
        assert np.float64(back.t).tobytes() == np.float64(s.t).tobytes()
        assert len(back) == len(s)
        assert back.items() == s.items()
        assert np.array_equal(back.array.view(np.uint64),
                              s.array.view(np.uint64))
        assert np.array_equal(back.mask, s.mask)

    @given(sparse_states(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_prefix_has_an_offset(self, s, data):
        with tempfile.TemporaryDirectory() as tmp:
            write_snapshot(s, _path(tmp, "s.snap"))
            with open(_path(tmp, "s.snap"), "rb") as fh:
                whole = fh.read()
            cuts = data.draw(st.lists(st.integers(0, len(whole) - 1),
                                      min_size=1, max_size=20))
            for cut in cuts + [len(whole) - 1]:
                with open(_path(tmp, "cut.snap"), "wb") as fh:
                    fh.write(whole[:cut])
                try:
                    read_snapshot(_path(tmp, "cut.snap"))
                except SnapshotError as exc:
                    assert exc.offset is not None and 0 <= exc.offset <= cut
                else:
                    raise AssertionError(f"prefix of {cut} bytes read")

    def test_all_prefixes_of_one_file(self, tmp_path):
        s = SpectralState(DOM, 3.0, {(1, 0, 1, 0): 0.5 - 0.25j,
                                     (0, 0, 2, -1): 0j}, "lab", 0.125)
        write_snapshot(s, tmp_path / "s.snap")
        whole = (tmp_path / "s.snap").read_bytes()
        for cut in range(len(whole)):
            (tmp_path / "cut.snap").write_bytes(whole[:cut])
            try:
                read_snapshot(tmp_path / "cut.snap")
            except SnapshotError as exc:
                assert exc.offset is not None and 0 <= exc.offset <= cut
            else:
                raise AssertionError(f"prefix of {cut} bytes read")
