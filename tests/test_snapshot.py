"""Snapshot files: bit-exact round trips of random sparse states, and a
byte offset for every truncated or malformed file."""

import os
import tempfile

import numpy as np
import pytest
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


def _read_bytes(tmp, data):
    """read_snapshot on ``data``: the state, or the SnapshotError, whose
    offset must lie inside the file (anything else escapes the test)."""
    p = _path(tmp, "x.snap")
    with open(p, "wb") as fh:
        fh.write(data)
    try:
        return read_snapshot(p)
    except SnapshotError as exc:
        assert exc.offset is not None and 0 <= exc.offset <= len(data), exc
        return exc


def _valid_bytes():
    s = SpectralState(DOM, 3.0, {(1, 0, 1, 0): 0.5 - 0.25j,
                                 (0, 0, 2, -1): 0j, (1, -1, 1, 1): 1e-3},
                      "lab", 0.125)
    with tempfile.TemporaryDirectory() as tmp:
        write_snapshot(s, _path(tmp, "s.snap"))
        with open(_path(tmp, "s.snap"), "rb") as fh:
            return fh.read()


VALID = _valid_bytes()


class TestMalformedSnapshots:
    """Every malformed file gives a SnapshotError with a byte offset."""

    @given(st.one_of(st.binary(max_size=300),
                     st.binary(max_size=300).map(lambda b: VALID[:60] + b)))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            _read_bytes(tmp, data)

    @given(st.integers(0, len(VALID) - 1), st.integers(0, 255),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_one_byte_mutations(self, pos, byte, delete):
        data = (VALID[:pos] + (b"" if delete else bytes([byte]))
                + VALID[pos + 1:])
        with tempfile.TemporaryDirectory() as tmp:
            _read_bytes(tmp, data)

    @pytest.mark.parametrize("data,match,at", [
        (VALID[:30] + b"\xff" + VALID[31:], "UTF-8", 30),
        (b"geobalance-snapshot abc\n", "version abc", 0),
        (VALID.replace(b"kmax 3", b"kmax nan"), "bad kmax", b"kmax"),
        (VALID.replace(b"t 0.125", b"t inf"), "bad t", b"t inf"),
        (VALID.replace(b"frame lab", b"frame up"), "bad frame", b"frame"),
        (VALID.replace(b"modes 3", b"modes -3"), "bad modes", b"modes"),
        (VALID.replace(b"domain 6.2831853071795862 ", b"domain 6e5 "),
         "INDEX_MAX_SIDE", b"kmax"),
        (VALID.replace(b"0 0 2 -1 0 0", b"1 0 1 0 0 0"), "repeats",
         b"1 0 1 0 0.5"),
        (VALID.replace(b"0 0 2 -1", b"0 0 9 -1"), "kmax=3", b"0 0 9"),
        (VALID + b"1 1 1 0 0 0\n", "after the 3 mode rows", len(VALID)),
    ])
    def test_named_faults(self, tmp_path, data, match, at):
        """The fault is named, at the offset of its line (or byte)."""
        (tmp_path / "x.snap").write_bytes(data)
        with pytest.raises(SnapshotError, match=match) as exc:
            read_snapshot(tmp_path / "x.snap")
        assert exc.value.offset == (at if isinstance(at, int)
                                    else data.index(at))
