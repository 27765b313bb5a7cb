import dataclasses
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from dcot import io
from dcot.cli import main
from dcot.losses import ObservationSet
from dcot.model import SliceGroup, SubjectPartition


class TestCooFormat:
    def test_read_simple(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# dims: 2 2\n1 1 3.5\n2 2 -1\n")
        omega = io.read_coo(path)
        assert len(omega) == 2
        assert omega.shape == (2, 2)
        got = dict(zip(map(tuple, omega.indices), omega.values))
        assert got[(0, 0)] == 3.5
        assert got[(1, 1)] == -1.0

    def test_roundtrip(self, tmp_path, rng):
        x = rng.standard_normal((3, 4, 2))
        mask = rng.random((3, 4, 2)) < 0.5
        mask.flat[0] = True
        omega = ObservationSet.from_dense(x, mask)
        path = tmp_path / "t.coo"
        io.write_coo(omega, path)
        back = io.read_coo(path)
        assert back.shape == omega.shape
        a = dict(zip(map(tuple, omega.indices), omega.values))
        b = dict(zip(map(tuple, back.indices), back.values))
        assert a == b

    def test_duplicate_names_line(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# dims: 2 2\n1 1 1.0\n1 1 2.0\n")
        with pytest.raises(io.DataIOError, match="t.coo:3"):
            io.read_coo(path)

    def test_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# dims: 2 2\n3 1 1.0\n")
        with pytest.raises(io.DataIOError, match="t.coo:2"):
            io.read_coo(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# dims: 2\n1 abc\n")
        with pytest.raises(io.DataIOError, match="unparseable"):
            io.read_coo(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "t.coo"
        path.write_text(f"# dims: 2 2\n2 2 1.0\n1 1 {value}\n")
        with pytest.raises(io.DataIOError, match="t.coo:3: .*not finite"):
            io.read_coo(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("1 1 1.0\n")
        with pytest.raises(io.DataIOError, match="header"):
            io.read_coo(path)

    def test_empty_set_is_header_only(self, tmp_path):
        omega = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), (3, 2))
        path = tmp_path / "t.coo"
        io.write_coo(omega, path)
        assert path.read_text() == "# dims: 3 2\n"
        back = io.read_coo(path)
        assert len(back) == 0 and back.shape == (3, 2)

    def test_deterministic_bytes(self, tmp_path, rng):
        x = rng.standard_normal((3, 3))
        omega = ObservationSet.from_dense(x)
        p1, p2 = tmp_path / "a.coo", tmp_path / "b.coo"
        io.write_coo(omega, p1)
        io.write_coo(omega, p2)
        assert p1.read_bytes() == p2.read_bytes()


# Valid lines around the faulty one: comments, blank lines and CRLF endings
# between entries.  The faulty line is line 7; line 4 holds index (1, 1, 1).
_COO_HEAD = "# written by hand\r\n\r\n# dims: 3 2 4\r\n1 1 1 0.5\r\n\r\n# between entries\r\n"
_COO_TAIL = "\r\n  2 2 4 -1.25  \r\n# end\r\n"


class TestCooFaults:
    @pytest.mark.parametrize("line, message", [
        ("1 2 3", "expected 3 indices and a value, got 3 fields"),
        ("1 2 3 4 5", "expected 3 indices and a value, got 5 fields"),
        ("1 1 2 3.0 # note", "expected 3 indices and a value, got 6 fields"),
        ("4 1 1", "expected 3 indices and a value, got 3 fields"),
        ("1.0 1 2 3.0", "unparseable entry"),
        ("x 1 2 3.0", "unparseable entry"),
        ("1 1 2 abc", "unparseable entry"),
        ("1 1 2 3.0#note", "unparseable entry"),
        ("1.0 1 1 nan", "unparseable entry"),
        ("1 1 2 nan", "value nan is not finite"),
        ("1 1 2 inf", "value inf is not finite"),
        ("1 1 2 -Infinity", "value -Infinity is not finite"),
        ("1 1 2 1e400", "value 1e400 is not finite"),
        ("4 1 1 nan", "value nan is not finite"),
        ("1 1 1 nan", "value nan is not finite"),
        ("4 1 1 2.0", "index (4, 1, 1) out of range for (3, 2, 4)"),
        ("1 0 1 2.0", "index (1, 0, 1) out of range for (3, 2, 4)"),
        ("1 1 -1 2.0", "index (1, 1, -1) out of range for (3, 2, 4)"),
        ("1 1 1 2.0", "duplicate index (1, 1, 1) (first seen on line 4)"),
        ("+1 1 1 2.0", "duplicate index (1, 1, 1) (first seen on line 4)"),
        ("# dims: 3 2 4", "duplicate dims header"),
        ("  #dims:2", "duplicate dims header"),
    ])
    def test_single_fault_message(self, tmp_path, line, message):
        path = tmp_path / "t.coo"
        path.write_bytes((_COO_HEAD + line + _COO_TAIL).encode())
        with pytest.raises(io.DataIOError) as err:
            io.read_coo(path)
        assert str(err.value) == f"{path}:7: {message}"

    @pytest.mark.parametrize("text, where, message", [
        ("# c\n1 1 1.0\n# dims: 2 2\n", ":2", "entry before '# dims:' header"),
        ("\n# dims: 2 x\n1 1 1.0\n", ":2", "bad dims header"),
        ("# dims: 2 0\n", ":1", "dims must be positive"),
        ("# dims:\n", ":1", "dims must be positive"),
        ("# no header here\n\n", "", "missing '# dims:' header"),
        ("", "", "missing '# dims:' header"),
    ])
    def test_header_fault_message(self, tmp_path, text, where, message):
        path = tmp_path / "t.coo"
        path.write_text(text)
        with pytest.raises(io.DataIOError) as err:
            io.read_coo(path)
        assert str(err.value) == f"{path}{where}: {message}"

    @pytest.mark.parametrize("first, second, message", [
        ("1 1 1 2.0", "1 1 x 2.0", "duplicate index (1, 1, 1) (first seen on line 4)"),
        ("1 1 2 nan", "1 1", "value nan is not finite"),
        ("4 1 1 2.0", "# dims: 3 2 4", "index (4, 1, 1) out of range for (3, 2, 4)"),
        ("1 1 y 2.0", "1 1 1 2.0", "unparseable entry"),
        ("# dims: 1", "1 1 1 2.0", "duplicate dims header"),
    ])
    def test_earlier_fault_wins(self, tmp_path, first, second, message):
        path = tmp_path / "t.coo"
        text = _COO_HEAD + first + "\r\n" + "3 2 1 1.0\r\n" * 3 + second + _COO_TAIL
        path.write_bytes(text.encode())
        with pytest.raises(io.DataIOError) as err:
            io.read_coo(path)
        assert str(err.value) == f"{path}:7: {message}"

    @pytest.mark.parametrize("line", ["1_0 1 1 2.0", "1 1 2 1_0", "١ 1 1 2.0",
                                      "1 1 2 ２", "99999999999999999999 1 1 2.0"])
    def test_tokens_outside_ascii_decimal_are_unparseable(self, tmp_path, line):
        path = tmp_path / "t.coo"
        path.write_bytes((_COO_HEAD + line + _COO_TAIL).encode())
        with pytest.raises(io.DataIOError) as err:
            io.read_coo(path)
        assert str(err.value) == f"{path}:7: unparseable entry"

    def test_header_only_file_is_empty_without_warning(self, tmp_path):
        path = tmp_path / "t.coo"
        for text in (b"# dims: 3 2\r\n\r\n# no entries\r\n", b"# dims: 3 2\n"):
            path.write_bytes(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                omega = io.read_coo(path)
            assert len(omega) == 0 and omega.indices.shape == (0, 2)

    def test_valid_file_with_comments_and_crlf(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_bytes((_COO_HEAD + "+3 1 02 7" + _COO_TAIL).encode())
        omega = io.read_coo(path)
        assert omega.shape == (3, 2, 4)
        assert omega.indices.tolist() == [[0, 0, 0], [2, 0, 1], [1, 1, 3]]
        assert omega.values.tolist() == [0.5, 7.0, -1.25]


# str.splitlines ends a line at each of these, a text-mode file at none
_SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_ODD_INDICES = ["+1", "01", "0", "4", "-1", "1.0", "x", "\u0661", "99999999999999999999"]
_ODD_VALUES = ["+2.5", ".5", "-2e-3", "nan", "-inf", "1e400", "abc", "\uff12", "1.0#x"]
_ODD_LINES = ["", " \t ", "# note", "# dims: 2 2", "#dims:3", "1 1 1.0 # note", "1 1"]


@st.composite
def coo_texts(draw):
    """COO file text: canonical files, and files with every variation the reader takes."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    messy = draw(st.booleans())
    cells = draw(st.lists(st.tuples(*(st.integers(1, d) for d in dims)),
                          unique=True, max_size=8))
    lines = []
    for cell in cells:
        fields = [str(i) for i in cell]
        fields.append(repr(draw(st.floats(allow_nan=False, allow_infinity=False))))
        seps = [" "] * (len(fields) - 1)
        if messy:
            seps = [draw(st.sampled_from([" ", "  ", "\t", " \t"])) for _ in seps]
            k = draw(st.integers(0, 2 * len(fields)))  # most lines keep their fields
            if k < len(dims):
                fields[k] = draw(st.sampled_from(_ODD_INDICES))
            elif k == len(dims):
                fields[k] = draw(st.sampled_from(_ODD_VALUES))
        lines.append(fields[0] + "".join(map(str.__add__, seps, fields[1:])))
    if lines and draw(st.integers(0, 2)) == 0:  # one field separator ends a line for splitlines
        k = draw(st.integers(0, len(lines) - 1))
        at = draw(st.sampled_from([m.start() for m in re.finditer(r"\s+", lines[k])]))
        lines[k] = lines[k][:at] + draw(st.sampled_from(_SPLITLINES_ONLY)) + lines[k][at + 1:]
    if messy:
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_ODD_LINES)))
        if lines and draw(st.booleans()):
            lines.append(lines[draw(st.integers(0, len(lines) - 1))])  # maybe a duplicate
    header = "# dims: " + " ".join(map(str, dims))
    at = draw(st.integers(0, len(lines))) if messy and draw(st.booleans()) else 0
    lines.insert(at, header)
    if messy:
        for _ in range(draw(st.integers(0, 2))):  # comments and blanks before the header too
            lines.insert(0, draw(st.sampled_from(["", "# comment", "  "])))
    ends = ["\n", "\r\n", "\r"] if messy else ["\n"]
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    return text[:-1] if messy and draw(st.booleans()) else text


def coo_outcome(read, path):
    """What a reader makes of a file: the arrays' bytes and shape, or the error message."""
    try:
        omega = read(path)
    except io.DataIOError as exc:
        return str(exc)
    return omega.shape, omega.indices.shape, omega.indices.tobytes(), omega.values.tobytes()


# read_coo's tracemalloc peak per entry on a canonical file: 80 measured
# (numpy 2.4); 108 while the file's bytes stayed alive during the checks,
# 201 when the whole text was split into lines
BYTES_PER_ENTRY = 95
# write_coo's peak: 30 measured at 32,115 entries, 173 when every line was
# built before one write
WRITE_BYTES_PER_ENTRY = 48


class TestCooStreamedRead:
    @given(coo_texts())
    @example("")
    @example("# dims: 3 2\n")
    @example("\n  \n# dims: 2 2\r\n1 1 1.0\r\n\r\n2 2 -0.0")
    @example("# dims: 2 2\n1 1 1.0\r2 2 2.0\r")
    @example("# dims: 2 2\n1 1 1.0\n# dims: 2 2\n")
    @example("# dims: 2 2\n1\t+1 1.0 # note\n")
    @example("# dims: 2 2\n\u0661 1 1.0\n")
    @example("# note\n1 1 1.0\n")
    @example("# dims: 2 2\n1 1 1.0\n1 1 2.0\n")
    def test_same_outcome_as_reading_the_whole_text(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.coo"
            path.write_bytes(text.encode())
            assert coo_outcome(io.read_coo, path) == coo_outcome(oracles.read_coo_oracle, path)

    @pytest.mark.parametrize("sep", _SPLITLINES_ONLY)
    def test_splitlines_only_separator_ends_the_line(self, tmp_path, sep):
        path = tmp_path / "t.coo"
        path.write_bytes(f"# dims: 2 2\n1{sep}1 1.0\n".encode())
        with pytest.raises(io.DataIOError) as err:
            io.read_coo(path)
        assert str(err.value) == f"{path}:2: expected 2 indices and a value, got 1 fields"
        assert coo_outcome(oracles.read_coo_oracle, path) == str(err.value)

    def test_canonical_read_memory_per_entry(self, tmp_path):
        rng = np.random.default_rng(0)
        shape = (40, 40, 40)
        omega = ObservationSet.from_dense(rng.standard_normal(shape), rng.random(shape) < 0.5)
        path = tmp_path / "t.coo"
        io.write_coo(omega, path)
        tracemalloc.start()
        try:
            back = io.read_coo(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(back) == len(omega) > 20_000
        assert peak / len(back) < BYTES_PER_ENTRY

    def test_write_memory_per_entry(self, tmp_path):
        rng = np.random.default_rng(0)
        shape = (40, 40, 40)
        omega = ObservationSet.from_dense(rng.standard_normal(shape), rng.random(shape) < 0.5)
        tracemalloc.start()
        try:
            io.write_coo(omega, tmp_path / "t.coo")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(omega) > 20_000
        assert peak / len(omega) < WRITE_BYTES_PER_ENTRY


@st.composite
def observation_sets(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    cells = int(np.prod(shape))
    flat = draw(st.lists(st.integers(0, cells - 1), unique=True, max_size=30))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(flat), max_size=len(flat)))
    idx = np.array(np.unravel_index(np.array(flat, dtype=np.intp), shape)).T
    return ObservationSet(idx.reshape(len(flat), len(shape)), np.array(values), shape)


class TestCooRoundTrip:
    @given(observation_sets())
    def test_write_read_roundtrip(self, omega):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.coo"
            io.write_coo(omega, path)
            text = path.read_text()
            back = io.read_coo(path)
        assert text == oracles.coo_text_oracle(omega.indices, omega.values, omega.shape)
        order = sorted(range(len(omega)), key=lambda k: omega.indices[k].tolist())
        assert back.shape == omega.shape
        assert np.array_equal(back.indices, omega.indices[order].reshape(back.indices.shape))
        assert back.values.tobytes() == omega.values[order].tobytes()

    def test_writer_matches_oracle_on_awkward_values(self, tmp_path):
        values = [-0.0, 5e-324, 1e22, 0.1 + 0.2, -1e-300, 1e16, 2.0**53 + 2, 123456.125]
        idx = np.array([[k % 3, k // 3] for k in reversed(range(len(values)))])
        omega = ObservationSet(idx, np.array(values), (3, 3))
        path = tmp_path / "t.coo"
        io.write_coo(omega, path)
        assert path.read_bytes() == oracles.coo_text_oracle(idx, values, (3, 3)).encode()
        back = io.read_coo(path)
        expected = dict(zip(map(tuple, idx.tolist()), values))
        got = dict(zip(map(tuple, back.indices.tolist()), back.values.tolist()))
        assert all(np.float64(got[k]).tobytes() == np.float64(v).tobytes()
                   for k, v in expected.items())


class TestDenseFormat:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        t = rng.standard_normal((4, 3, 2))
        path = tmp_path / "t.dct"
        io.write_dense(t, path)
        assert np.array_equal(io.read_dense(path), t)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.dct"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(io.DataIOError, match="magic"):
            io.read_dense(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "t.dct"
        io.write_dense(rng.standard_normal((2, 2)), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(io.DataIOError, match="payload"):
            io.read_dense(path)

    def test_dispatch(self, tmp_path, rng):
        # the format is read from the file: the DCOT magic means dense, and
        # every cell of a dense file is observed
        t = rng.standard_normal((2, 3))
        path = tmp_path / "t.dct"
        io.write_dense(t, path)
        coo = tmp_path / "t.coo"
        io.write_coo(ObservationSet.from_dense(t, mask=t > 0), coo)
        dense, sparse = io.read_tensor(path), io.read_tensor(coo)
        assert len(dense) == t.size and np.array_equal(dense.to_dense(), t)
        assert np.array_equal(sparse.mask(), t > 0)
        assert np.array_equal(sparse.to_dense(), np.where(t > 0, t, 0.0))
        with pytest.raises(io.DataIOError, match="cannot read"):
            io.read_tensor(tmp_path / "missing.dct")


class TestPartitionFile:
    def test_plain_groups(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("mode = 2\ngroup: [1, 2, 3]\ngroup: [4, 5]\n")
        part = io.read_partition(path)
        assert part.mode == 1
        assert part.groups[0].indices == (0, 1, 2)
        assert part.groups[1].indices == (3, 4)

    def test_inline_form(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("mode=1: [1,2,3], [4,5]\n")
        part = io.read_partition(path)
        assert part.mode == 0
        assert len(part.groups) == 2

    def test_fixed_mode_groups(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(
            "# ties mode-3 slices separately per mode-1 index\n"
            "mode = 3\nfixed-mode = 1\ngroup: [1, 2] @ 1\ngroup: [1, 2] @ 2\n"
        )
        part = io.read_partition(path)
        assert part.mode == 2
        assert part.groups[0].fixed == (0, 0)
        assert part.groups[1].fixed == (0, 1)

    def test_roundtrip(self, tmp_path):
        part = SubjectPartition(
            2, (SliceGroup((0, 1), fixed=(0, 0)), SliceGroup((0, 1), fixed=(0, 1)))
        )
        path = tmp_path / "p.txt"
        io.write_partition(part, path)
        assert io.read_partition(path) == part

    def test_qualifier_without_fixed_mode(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("mode = 2\ngroup: [1, 2] @ 1\n")
        with pytest.raises(io.DataIOError, match="fixed-mode"):
            io.read_partition(path)

    def test_overlap_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("mode = 1\ngroup: [1, 2]\ngroup: [2, 3]\n")
        with pytest.raises(io.DataIOError, match="overlap"):
            io.read_partition(path)


class TestFeatureLabelFiles:
    def test_features_roundtrip(self, tmp_path, rng):
        feats = rng.standard_normal((4, 3))
        path = tmp_path / "f.txt"
        io.write_features(feats, path)
        assert np.array_equal(io.read_features(path), feats)

    def test_labels_roundtrip(self, tmp_path):
        labels = np.array([0, 1, 1, 2])
        path = tmp_path / "l.txt"
        io.write_labels(labels, path)
        assert np.array_equal(io.read_labels(path), labels)

    def test_ragged_features_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1.0 2.0\n3.0\n")
        with pytest.raises(io.DataIOError):
            io.read_features(path)


@pytest.mark.parametrize("read, data", [
    (io.read_coo, b"# dims: 2 2\n1 1 \xff\n"),
    (io.read_partition, b"mode = 1\ngroup: [1, 2] # \xff\n"),
    (io.read_features, b"1.0 2.0\n3.0 \xff\n"),
    (io.read_labels, b"1\n\xff\n"),
])
def test_invalid_utf8_is_a_data_error_naming_the_file(tmp_path, read, data):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with pytest.raises(io.DataIOError) as err:
        read(path)
    assert str(err.value) == f"{path}: not valid UTF-8 (byte {data.index(0xff)})"


def synth_config(out="synth_out", shape=(6, 5, 4), sigma=0.0, missing=0.0, seed=7):
    return {
        "seed": seed,
        "output": out,
        "synth": {
            "shape": list(shape),
            "ranks": [2, 2, 2],
            "partition": {"mode": 1, "groups": [[1, 2]]},
            "subject_core_scale": 1.0,
            "noise_sigma": sigma,
            "missing_fraction": missing,
        },
    }


def fit_config(out, synth_dir="synth_out", max_iters=300, similarity=None):
    cfg = {
        "seed": 7,
        "output": out,
        "data": {"observations": f"{synth_dir}/observed.coo"},
        "family": "gaussian",
        "ranks": [2, 2, 2],
        "partition": {"path": f"{synth_dir}/partition.txt"},
        "solver": {"max_iters": max_iters},
        "init": {"kind": "hosvd"},
    }
    if similarity is not None:
        cfg["similarity"] = similarity
    return cfg


KERNEL_SIM = {
    "kind": "kernel",
    "features": [f"synth_out/features_mode{n}.txt" for n in (1, 2, 3)],
    "labels": [f"synth_out/labels_mode{n}.txt" for n in (1, 2, 3)],
}


def run_cli(tmp_path, command, cfg, *extra):
    cfg_path = tmp_path / f"{command.replace('-', '_')}_{len(list(tmp_path.iterdir()))}.json"
    cfg_path.write_text(json.dumps(cfg))
    return main([command, "--config", str(cfg_path), *extra])


class TestCliPipeline:
    def test_poisson_completes_on_default_solver_settings(self, tmp_path, monkeypatch):
        # at the default z_floor the first z step used to abort (exit 3):
        # the Newton tolerance sat below the rounding of gamma * (z - center)
        monkeypatch.chdir(tmp_path)
        synth = synth_config(missing=0.2, seed=3)
        synth["synth"]["noise_family"] = "poisson"
        assert run_cli(tmp_path, "synth", synth) == 0
        cfg = fit_config("run")
        cfg["family"] = "poisson"
        del cfg["solver"]
        assert run_cli(tmp_path, "complete", cfg) == 0
        assert (tmp_path / "run" / "z_hat.dct").exists()

    def test_synth_complete_evaluate(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(tmp_path, "synth", synth_config()) == 0
        assert (tmp_path / "synth_out" / "observed.coo").exists()
        assert (tmp_path / "synth_out" / "truth.dct").exists()

        assert run_cli(tmp_path, "complete", fit_config("run_out")) == 0
        for name in ("model_g.dct", "model_h.dct", "factor_1.dct", "factor_2.dct",
                     "factor_3.dct", "trace.csv", "summary.json", "z_hat.dct"):
            assert (tmp_path / "run_out" / name).exists()

        eval_cfg = {
            "output": "eval_out",
            "evaluate": {
                "estimate": "run_out/z_hat.dct",
                "reference": "synth_out/observed.coo",
            },
        }
        assert run_cli(tmp_path, "evaluate", eval_cfg) == 0
        summary = json.loads((tmp_path / "eval_out" / "summary.json").read_text())
        assert summary["rmse"] <= 1e-4

    def test_factorize_then_evaluate_run_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config())
        assert run_cli(tmp_path, "factorize", fit_config("fit_out")) == 0
        assert not (tmp_path / "fit_out" / "z_hat.dct").exists()
        eval_cfg = {
            "output": "eval2",
            "evaluate": {"run_dir": "fit_out", "reference": "synth_out/observed.coo"},
        }
        assert run_cli(tmp_path, "evaluate", eval_cfg) == 0
        summary = json.loads((tmp_path / "eval2" / "summary.json").read_text())
        assert summary["rmse"] <= 1e-4

    def test_trace_csv_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config(sigma=0.05, missing=0.3))
        sim = {
            "kind": "kernel",
            "features": [f"synth_out/features_mode{n}.txt" for n in (1, 2, 3)],
            "labels": [f"synth_out/labels_mode{n}.txt" for n in (1, 2, 3)],
        }
        assert run_cli(tmp_path, "factorize", fit_config("r1", max_iters=25,
                                                         similarity=sim)) == 0
        assert run_cli(tmp_path, "factorize", fit_config("r2", max_iters=25,
                                                         similarity=sim)) == 0
        a = (tmp_path / "r1" / "trace.csv").read_bytes()
        b = (tmp_path / "r2" / "trace.csv").read_bytes()
        assert a == b
        sa = (tmp_path / "r1" / "summary.json").read_bytes()
        sb = (tmp_path / "r2" / "summary.json").read_bytes()
        assert sa == sb

    def test_summary_records_blas_setting(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run_cli(tmp_path, "synth", synth_config())
        assert run_cli(tmp_path, "factorize", fit_config("fit_out", max_iters=3)) == 0
        blas = json.loads((tmp_path / "fit_out" / "summary.json").read_text())["blas"]
        expected = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert (blas["name"], blas["version"]) == (expected["name"], expected["version"])
        assert blas["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert blas["threads"]["MKL_NUM_THREADS"] is None
        assert set(blas["threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}

    def test_summary_reports_moduli(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config())
        assert run_cli(tmp_path, "complete", fit_config("run_out", max_iters=3)) == 0
        summary = json.loads((tmp_path / "run_out" / "summary.json").read_text())
        moduli = summary["moduli"]
        assert moduli["gamma"] > 0 and moduli["core"] > 0
        assert len(moduli["factors"]) == 3 and min(moduli["factors"]) > 0

    def test_summary_reports_degenerate_targets(self, tmp_path, monkeypatch):
        # without a similarity section the weights are neutral, so every
        # unobserved cell is a degenerate target
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config(missing=0.3))
        assert run_cli(tmp_path, "complete", fit_config("run_out", max_iters=3)) == 0
        summary = json.loads((tmp_path / "run_out" / "summary.json").read_text())
        omega = io.read_tensor(tmp_path / "synth_out" / "observed.coo")
        assert summary["degenerate"] == math.prod(omega.shape) - len(omega) > 0

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_summary_reports_newton_steps(self, tmp_path, monkeypatch, family):
        monkeypatch.chdir(tmp_path)
        synth = synth_config(missing=0.3)
        synth["synth"]["noise_family"] = family
        run_cli(tmp_path, "synth", synth)
        cfg = fit_config("run_out", max_iters=4)
        cfg["family"] = family
        assert run_cli(tmp_path, "complete", cfg) == 0
        steps = json.loads((tmp_path / "run_out" / "summary.json").read_text())["newton_steps"]
        assert set(steps) == {"total", "max"}
        if family == "gaussian":  # the closed-form z step takes none
            assert steps == {"total": 0, "max": 0}
        else:
            assert 0 < steps["max"] <= steps["total"] <= 4 * steps["max"]

    def test_grid_search_cli(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config(sigma=0.1, missing=0.3))
        cfg = fit_config("grid_out", max_iters=20)
        cfg["penalties"] = {"g": {"kind": "frob_sq", "weight": 0.0}}
        cfg["grid"] = {"lambdas": [1e-4, 1e-2], "blocks": ["g"]}
        cfg["split"] = {"train_fraction": 0.8}
        assert run_cli(tmp_path, "grid-search", cfg) == 0
        report = (tmp_path / "grid_out" / "grid_report.csv").read_text().splitlines()
        assert report[0] == "g,validation_rmse,converged"
        assert len(report) == 3
        summary = json.loads((tmp_path / "grid_out" / "summary.json").read_text())
        assert "OPENBLAS_NUM_THREADS" in summary["blas"]["threads"]
        # the parsed sections, as complete echoes them (modes 0-based)
        echoed = summary["effective_config"]
        assert echoed["partition"]["mode"] == 0 and echoed["similarity"] is None
        assert echoed["init"] == {"kind": "hosvd", "seed": 7}

    def test_evaluate_exact_is_zero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config())
        truth = io.read_dense(tmp_path / "synth_out" / "truth.dct")
        io.write_dense(truth, tmp_path / "exact.dct")
        eval_cfg = {
            "output": "eval3",
            "evaluate": {"estimate": "exact.dct",
                         "reference": "synth_out/observed.coo"},
        }
        assert run_cli(tmp_path, "evaluate", eval_cfg) == 0
        summary = json.loads((tmp_path / "eval3" / "summary.json").read_text())
        assert summary["rmse"] == 0.0

    def test_evaluate_against_dense_truth(self, tmp_path, monkeypatch, capsys):
        # the truth.dct that synth writes is a reference: every cell of it
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config(missing=0.3))
        io.write_dense(io.read_dense(tmp_path / "synth_out" / "truth.dct"),
                       tmp_path / "exact.dct")
        eval_cfg = {"evaluate": {"estimate": "exact.dct",
                                 "reference": "synth_out/truth.dct"}}
        assert run_cli(tmp_path, "evaluate", eval_cfg) == 0
        assert json.loads(capsys.readouterr().out) == {
            "command": "evaluate", "rmse": 0.0, "entries": 6 * 5 * 4}

    def test_block_penalties_echoed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config(sigma=0.05, missing=0.3))
        cfg = fit_config("run_out", max_iters=5)
        cfg["penalties"] = {"h": {"kind": "frob_sq", "weight": 1e-3},
                            "factors": {"kind": "l1", "weight": 2e-4}}
        assert run_cli(tmp_path, "complete", cfg) == 0
        summary = json.loads((tmp_path / "run_out" / "summary.json").read_text())
        penalties = summary["effective_config"]["solver"]["penalties"]
        assert (penalties["g"]["kind"], penalties["g"]["weight"]) == ("none", 0.0)
        assert (penalties["h"]["kind"], penalties["h"]["weight"]) == ("frob_sq", 1e-3)
        assert (penalties["factors"]["kind"], penalties["factors"]["weight"]) == (
            "l1", 2e-4)

    def test_similarity_echoed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config(sigma=0.05, missing=0.3))
        sim = {**KERNEL_SIM, "labels": [KERNEL_SIM["labels"][0], None, None],
               "bandwidths": [0.25, 1, 4.0]}
        assert run_cli(tmp_path, "complete", fit_config("kernel", max_iters=3,
                                                        similarity=sim)) == 0
        assert run_cli(tmp_path, "complete", fit_config("neutral", max_iters=3)) == 0
        echoed = {run: json.loads((tmp_path / run / "summary.json").read_text())
                  ["effective_config"]["similarity"] for run in ("kernel", "neutral")}
        assert echoed == {"kernel": sim, "neutral": None}
        # omitted keys are echoed with their defaults
        bare = {"features": KERNEL_SIM["features"]}
        assert run_cli(tmp_path, "complete", fit_config("bare", max_iters=3,
                                                        similarity=bare)) == 0
        summary = json.loads((tmp_path / "bare" / "summary.json").read_text())
        assert summary["effective_config"]["similarity"] == {
            "kind": "kernel", "features": KERNEL_SIM["features"],
            "labels": [None, None, None], "bandwidths": None}

    def test_dense_format_data(self, tmp_path, monkeypatch):
        # a dense data file is recognized by its magic bytes and taken as
        # fully observed: the same run as on its COO form
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config())
        truth = io.read_dense(tmp_path / "synth_out" / "truth.dct")
        io.write_coo(ObservationSet.from_dense(truth), tmp_path / "truth.coo")
        for run, path in (("run_dense", "synth_out/truth.dct"), ("run_coo", "truth.coo")):
            cfg = fit_config(run, max_iters=5)
            cfg["data"] = {"observations": path}
            assert run_cli(tmp_path, "complete", cfg) == 0
        z_hat = io.read_dense(tmp_path / "run_dense" / "z_hat.dct")
        assert z_hat.shape == truth.shape
        for name in ("trace.csv", "z_hat.dct"):
            assert ((tmp_path / "run_dense" / name).read_bytes()
                    == (tmp_path / "run_coo" / name).read_bytes())

    def test_grid_search_threads_same_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config(sigma=0.1, missing=0.3))
        reports = []
        for threads in ("1", "2"):
            cfg = fit_config(f"grid_{threads}", max_iters=10)
            cfg["penalties"] = {"g": {"kind": "frob_sq"}, "h": {"kind": "frob_sq"}}
            cfg["grid"] = {"lambdas": [1e-4, 1e-2, 1.0], "blocks": ["g", "h"]}
            cfg["split"] = {"train_fraction": 0.8}
            assert run_cli(tmp_path, "grid-search", cfg, "--threads", threads) == 0
            reports.append((tmp_path / f"grid_{threads}" / "grid_report.csv").read_bytes())
        assert reports[0] == reports[1]
        assert len(reports[0].splitlines()) == 4

    def test_readme_examples_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("A minimal synth + fit config pair:", 1)[1]
        synth, fit = (json.loads(block) for block in
                      re.findall(r"```json\n(.*?)```", section, re.S)[:2])
        fit["solver"]["max_iters"] = 5
        assert run_cli(tmp_path, "synth", synth) == 0
        assert run_cli(tmp_path, "complete", fit) == 0
        summary = json.loads((tmp_path / fit["output"] / "summary.json").read_text())
        assert summary["iterations"] == 5


class TestCliErrors:
    def test_malformed_config_no_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = synth_config()
        cfg["synth"]["unexpected_key"] = 1
        code = run_cli(tmp_path, "synth", cfg)
        assert code == 2
        assert not (tmp_path / "synth_out").exists()
        err = capsys.readouterr().err
        assert json.loads(err)["error"]["kind"] == "config"

    def test_missing_required_section(self, tmp_path):
        code = run_cli(tmp_path, "factorize", {"output": "x"})
        assert code == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["synth", "--config", str(bad)]) == 2

    def test_invalid_utf8_config_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": 1, "output": "o\xff"}')
        assert main(["synth", "--config", str(bad)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"] == f"{bad}: not valid UTF-8 (byte 24)"

    def test_missing_data_file_is_io_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = fit_config("x", synth_dir="nowhere")
        code = run_cli(tmp_path, "factorize", cfg)
        assert code == 4

    def test_non_finite_observation_is_io_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "observed.coo").write_text("# dims: 2 2 2\n1 1 1 nan\n")
        cfg = fit_config("x", synth_dir="data")
        del cfg["partition"]
        cfg["ranks"] = [1, 1, 1]
        assert run_cli(tmp_path, "factorize", cfg) == 4
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "io" and "observed.coo:2" in error["message"]
        assert not (tmp_path / "x").exists()

    def test_non_finite_dense_observation_is_io_error(self, tmp_path, monkeypatch, capsys):
        # the first non-finite cell in file order (first mode fastest), 1-based
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        t = np.ones((2, 3, 2))
        t[1, 2, 1], t[1, 0, 1], t[0, 2, 1] = np.inf, np.nan, -np.inf
        io.write_dense(t, tmp_path / "data" / "observed.dct")
        cfg = fit_config("x", synth_dir="data")
        cfg["data"] = {"observations": "data/observed.dct"}
        del cfg["partition"]
        cfg["ranks"] = [1, 1, 1]
        assert run_cli(tmp_path, "complete", cfg) == 4
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "io"
        assert error["message"] == (f"{tmp_path / 'data' / 'observed.dct'}: "
                                    "cell (2, 1, 2) is not finite (nan)")
        assert not (tmp_path / "x").exists()

    def test_invalid_utf8_observation_file_is_io_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "observed.coo").write_bytes(b"# dims: 2 2 2\n1 1 1 \xff\n")
        cfg = fit_config("x", synth_dir="data")
        del cfg["partition"]
        cfg["ranks"] = [1, 1, 1]
        assert run_cli(tmp_path, "complete", cfg) == 4
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "io"
        assert error["message"].endswith("/data/observed.coo: not valid UTF-8 (byte 20)")
        assert not (tmp_path / "x").exists()

    # the step-size keys (gamma, rho_*, lipschitz_safety) follow with values
    # that were accepted once, and then with values that were rejected
    @pytest.mark.parametrize("key, value", [("z_solver", "quasi_newton"),
                                            ("qn_grad_tol", 1e-8),
                                            ("moduli_period", 2),
                                            ("dual_init", "zero"),
                                            ("tie_reducer", "representative"),
                                            ("divergence_factor", 100.0),
                                            ("gamma", 1.0),
                                            ("rho_g", 1.0),
                                            ("rho_h", 1.0),
                                            ("rho_factors", [1.0, 1.0, 1.0]),
                                            ("lipschitz_safety", 1.1),
                                            ("gamma", "x"),
                                            ("gamma", True),
                                            ("rho_factors", [1.0, "x", 1.0]),
                                            ("lipschitz_safety", 0.1),
                                            ("rho_g", -1.0),
                                            ("rho_h", 0),
                                            ("rho_factors", [1, 0, 1])])
    def test_removed_solver_keys_rejected(self, tmp_path, monkeypatch, capsys,
                                          key, value):
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config())
        capsys.readouterr()
        cfg = fit_config("run_out", max_iters=5)
        cfg["solver"][key] = value
        assert run_cli(tmp_path, "complete", cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"kind": "config", "code": 2,
                         "message": f"solver: unknown keys [{key!r}]"}
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("key, value", [("freeze_h", "false"),
                                            ("fixed_moduli", 0),
                                            ("max_iters", 2.5),
                                            ("max_iters", True),
                                            ("tol_step", None),
                                            ("z_floor", 0),
                                            ("tol_step", -1),
                                            ("tol_primal", -1e-3)])
    def test_bad_solver_value_rejected(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config())
        capsys.readouterr()
        cfg = fit_config("run_out", max_iters=5)
        cfg["solver"][key] = value
        assert run_cli(tmp_path, "complete", cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "config" and key in error["message"]
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("key,value", [("labels", [1, None, None]),
                                           ("labels", [None, ["a.txt"], None]),
                                           ("bandwidths", 0.5),
                                           ("bandwidths", []),
                                           ("bandwidths", [1.0, -1.0]),
                                           ("bandwidths", [1.0, "x"]),
                                           ("bandwidths", [True])])
    def test_bad_similarity_value_rejected(self, tmp_path, monkeypatch, capsys, key,
                                           value):
        monkeypatch.chdir(tmp_path)
        run_cli(tmp_path, "synth", synth_config())
        capsys.readouterr()
        cfg = fit_config("run_out", max_iters=5, similarity={**KERNEL_SIM, key: value})
        assert run_cli(tmp_path, "complete", cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "config" and f"similarity.{key}" in error["message"]
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("command, section, value, key", [
        ("complete", "family", {"kind": "gaussian", "epsilon": 1e-6}, "family"),
        ("complete", "similarity", {**KERNEL_SIM, "cap": 8}, "cap"),
        ("complete", "similarity", {**KERNEL_SIM, "normalized": False}, "normalized"),
        ("complete", "similarity", {**KERNEL_SIM, "kernel": "euclid"}, "kernel"),
        ("complete", "similarity", {**KERNEL_SIM, "xi": 0.5}, "xi"),
        ("complete", "similarity", {**KERNEL_SIM, "label_same": 0.9}, "label_same"),
        ("complete", "similarity", {**KERNEL_SIM, "label_diff": 0.1}, "label_diff"),
        ("complete", "similarity", {"kind": "neutral"}, "kind"),
        ("complete", "similarity", {"kind": "ones"}, "kind"),
        ("complete", "similarity", {**KERNEL_SIM, "features": [None, None, None]},
         "features"),
        ("complete", "partition", {"mode": 2, "fixed_mode": 1, "groups": [[1, 2]]},
         "fixed_mode"),
        ("complete", "partition",
         {"mode": 2, "fixed_mode": 1, "groups": [{"indices": [1, 2], "fixed_index": 1}]},
         "fixed_mode"),
        ("complete", "penalties",
         {"g": {"kind": "sparse_group_lasso", "weight": 0.1, "mix": 0.5}}, "mix"),
        ("complete", "penalties",
         {"g": {"kind": "sparse_group_lasso", "weight": 0.1, "groups": [[1, 2]]}},
         "groups"),
        ("complete", "penalties", {"factors": [{"kind": "l1", "weight": 0.1}] * 3},
         "factors"),
        ("synth", "synth", {**synth_config()["synth"], "label_clusters": 2},
         "label_clusters"),
        ("synth", "synth", {**synth_config()["synth"], "feature_jitter": 0.1},
         "feature_jitter"),
        ("grid-search", "grid", {"lambdas": [1e-2], "blocks": ["g"], "per_block": True},
         "per_block"),
        ("complete", "data", {"observations": "synth_out/observed.coo", "format": "coo"},
         "format"),
    ], ids=["family-object", "cap", "normalized", "kernel", "xi", "label_same",
            "label_diff", "kind-neutral", "kind-ones", "null-features", "fixed_mode",
            "group-object", "mix", "group-lists", "factor-list", "label_clusters",
            "feature_jitter", "per_block", "data-format"])
    def test_removed_config_keys_rejected(self, tmp_path, monkeypatch, capsys,
                                          command, section, value, key):
        # each was accepted once; the run below is otherwise valid
        monkeypatch.chdir(tmp_path)
        if command == "synth":
            cfg = synth_config()
            out = tmp_path / "synth_out"
        else:
            assert run_cli(tmp_path, "synth", synth_config()) == 0
            cfg = fit_config("run_out", max_iters=5, similarity=KERNEL_SIM)
            if command == "grid-search":
                cfg["split"] = {"train_fraction": 0.8}
            out = tmp_path / "run_out"
        capsys.readouterr()
        cfg[section] = value
        assert run_cli(tmp_path, command, cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "config" and key in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command, section, value, name", [
        ("complete", "partition", {"mode": 1, "groups": [[1.7, 2]]}, "partition.groups[0]"),
        ("complete", "partition", {"mode": 1, "groups": [["1", 2]]}, "partition.groups[0]"),
        ("complete", "partition", {"mode": 1, "groups": [[True, 2]]}, "partition.groups[0]"),
        ("grid-search", "grid", {"lambdas": [1e-2], "blocks": ["q"]}, "grid.blocks[0]"),
        ("grid-search", "grid", {"lambdas": [1e-2], "blocks": []}, "grid.blocks"),
        ("grid-search", "grid", {"lambdas": [1e-2], "blocks": [1]}, "grid.blocks[0]"),
        ("grid-search", "grid", {"lambdas": [1e-2], "blocks": ["g", "g"]}, "grid.blocks"),
        ("grid-search", "grid", {"lambdas": "abc"}, "grid.lambdas"),
        ("grid-search", "grid", {"lambdas": [[0.1]]}, "grid.lambdas[0]"),
        ("grid-search", "grid", {"lambdas": []}, "grid.lambdas"),
        ("complete", "output", 3, "output"),
        ("complete", "seed", 1.5, "seed"),
        ("complete", "seed", "x", "seed"),
        ("evaluate", "evaluate", {"estimate": "synth_out/truth.dct", "run_dir": "synth_out",
                                  "reference": "synth_out/observed.coo"}, "run_dir"),
    ], ids=["groups-float", "groups-str", "groups-bool", "blocks-unknown", "blocks-empty",
            "blocks-int", "blocks-twice", "lambdas-str", "lambdas-nested", "lambdas-empty",
            "output-int", "seed-float", "seed-str", "estimate-and-run_dir"])
    def test_wrong_typed_value_rejected(self, tmp_path, monkeypatch, capsys, command,
                                        section, value, name):
        # each once ran to exit 0 with another meaning, or crashed; the run
        # below is otherwise valid
        monkeypatch.chdir(tmp_path)
        assert run_cli(tmp_path, "synth", synth_config()) == 0
        cfg = {"output": "run_out"} if command == "evaluate" else fit_config(
            "run_out", max_iters=5)
        if command == "grid-search":
            cfg["split"] = {"train_fraction": 0.8}
        capsys.readouterr()
        cfg[section] = value
        assert run_cli(tmp_path, command, cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "config" and name in error["message"]
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "z_floor", float("inf")),
        ("solver", "tol_step", float("nan")),
        ("solver", "tol_primal", float("-inf")),
        ("penalties", "g.weight", float("nan")),
    ], ids=["z_floor-Infinity", "tol_step-NaN", "tol_primal--Infinity", "weight-NaN"])
    def test_non_finite_number_rejected(self, tmp_path, monkeypatch, capsys, section,
                                        key, value):
        # json reads NaN and +-Infinity; each once ran, aborted the solve or
        # named another key
        monkeypatch.chdir(tmp_path)
        assert run_cli(tmp_path, "synth", synth_config()) == 0
        cfg = fit_config("run_out", max_iters=5)
        if section == "penalties":
            cfg["penalties"] = {"g": {"kind": "l1", "weight": value}}
        else:
            cfg["solver"][key] = value
        capsys.readouterr()
        assert run_cli(tmp_path, "complete", cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "config"
        assert error["message"].startswith(f"{section}.{key}: expected a finite number")
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("penalty", [{"kind": "nonneg"},
                                         {"kind": "nonneg", "weight": 0}],
                             ids=["defaulted", "given"])
    def test_nonneg_penalty_of_weight_zero_rejected(self, tmp_path, monkeypatch, capsys,
                                                    penalty):
        # a penalty of weight 0 is off, so this once ran to exit 0 unconstrained
        monkeypatch.chdir(tmp_path)
        assert run_cli(tmp_path, "synth", synth_config()) == 0
        cfg = fit_config("run_out", max_iters=5)
        cfg["penalties"] = {"g": penalty}
        capsys.readouterr()
        assert run_cli(tmp_path, "complete", cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"kind": "config", "code": 2, "message":
                         "penalties.g.weight: a nonneg penalty is off at weight 0; "
                         "give a positive weight"}
        assert not (tmp_path / "run_out").exists()

    def test_grid_over_nonneg_block_rejected(self, tmp_path, monkeypatch, capsys):
        # the grid's weight replaces the block's: every positive weight was the
        # same projection and 0 turned it off, so the search once exited 0
        # having chosen weight 0, no constraint
        monkeypatch.chdir(tmp_path)
        assert run_cli(tmp_path, "synth", synth_config(shape=(8, 7, 6), sigma=0.3,
                                                       missing=0.3)) == 0
        cfg = fit_config("grid_out", max_iters=60)
        cfg["penalties"] = {"g": {"kind": "nonneg", "weight": 1},
                            "h": {"kind": "frob_sq"}}
        cfg["grid"] = {"lambdas": [0, 0.1, 1], "blocks": ["g"]}
        cfg["split"] = {"train_fraction": 0.8}
        capsys.readouterr()
        assert run_cli(tmp_path, "grid-search", cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"kind": "config", "code": 2, "message":
                         "grid.blocks: block 'g' has a nonneg penalty, which has no "
                         "weight to sweep"}
        assert not (tmp_path / "grid_out").exists()
        # a nonneg block the grid leaves alone keeps its constraint
        cfg["grid"]["blocks"] = ["h"]
        assert run_cli(tmp_path, "grid-search", cfg) == 0
        assert (tmp_path / "grid_out" / "grid_report.csv").read_text().startswith(
            "h,validation_rmse")

    def test_solver_value_checked_before_similarity_files(
            self, tmp_path, monkeypatch, capsys):
        # the similarity's feature files do not exist: the solver check comes first
        monkeypatch.chdir(tmp_path)
        assert run_cli(tmp_path, "synth", synth_config()) == 0
        cfg = fit_config("run_out", max_iters=5, similarity={
            "features": [f"nowhere/features_mode{n}.txt" for n in (1, 2, 3)]})
        cfg["solver"]["z_floor"] = 0
        capsys.readouterr()
        assert run_cli(tmp_path, "complete", cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"kind": "config", "code": 2,
                         "message": "solver: z_floor must be positive"}
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("command", ["synth", "complete"])
    def test_output_flag_stands_in_for_the_output_key(self, tmp_path, monkeypatch,
                                                      capsys, command):
        monkeypatch.chdir(tmp_path)
        if command == "synth":
            cfg = synth_config()
        else:
            assert run_cli(tmp_path, "synth", synth_config()) == 0
            cfg = fit_config("unused", max_iters=5)
        del cfg["output"]
        capsys.readouterr()
        assert run_cli(tmp_path, command, cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "config" and "'output'" in error["message"]
        assert run_cli(tmp_path, command, cfg, "--output", "flag_out") == 0
        assert (tmp_path / "flag_out" / "summary.json").exists()

    def test_synth_with_no_observed_cell_rejected(self, tmp_path, monkeypatch, capsys):
        # 0.95 of 8 cells rounds to 8 missing: observed.coo would hold no entry
        monkeypatch.chdir(tmp_path)
        cfg = synth_config(shape=(2, 2, 2), missing=0.95)
        cfg["synth"].update(ranks=[1, 1, 1], partition=None)
        assert run_cli(tmp_path, "synth", cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"kind": "config", "code": 2, "message":
                         "synth: missing_fraction 0.95 leaves no observed cell of 8"}
        assert not (tmp_path / "synth_out").exists()

    @pytest.mark.parametrize("command", ["factorize", "complete", "grid-search"])
    def test_data_file_with_no_entries_rejected(self, tmp_path, monkeypatch, capsys,
                                                command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "observed.coo").write_text("# dims: 2 2 2\n")
        cfg = fit_config("x", synth_dir="data")
        del cfg["partition"]
        cfg.update(ranks=[1, 1, 1], split={"train_fraction": 0.8}, grid={})
        if command != "grid-search":
            del cfg["split"], cfg["grid"]
        assert run_cli(tmp_path, command, cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        path = tmp_path.resolve() / "data" / "observed.coo"
        assert error == {"kind": "config", "code": 2,
                         "message": f"data.observations: {path} has no entries"}
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, name", [
        ("synth", "seed"), ("synth", "synth.seed"), ("complete", "init.seed"),
        ("grid-search", "split.seed"), ("grid-search", "grid.lambdas[1]"),
        ("complete", "--seed"),
    ])
    def test_negative_value_named_before_any_file_is_read(
            self, tmp_path, monkeypatch, capsys, command, name):
        # the data file does not exist: a check after reading it would exit 4
        monkeypatch.chdir(tmp_path)
        cfg = synth_config() if command == "synth" else fit_config(
            "synth_out", synth_dir="nowhere", max_iters=5)
        if command == "grid-search":
            cfg.update(split={"train_fraction": 0.8}, grid={"lambdas": [1e-2, 1e-3]})
        extra, value = (), "-1"
        if name == "seed":
            cfg["seed"] = -1
        elif name == "--seed":
            extra = ("--seed", "-1")
        elif name == "grid.lambdas[1]":
            cfg["grid"]["lambdas"][1], value = -1e-3, "-0.001"
        else:
            section, key = name.split(".")
            cfg[section][key] = -1
        assert run_cli(tmp_path, command, cfg, *extra) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        what = "finite number" if name.startswith("grid") else "integer"
        assert error == {"kind": "config", "code": 2,
                         "message": f"{name}: expected a nonnegative {what}, got {value}"}
        assert not (tmp_path / "synth_out").exists()

    def test_unknown_noise_family_names_synth(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = synth_config()
        cfg["synth"]["noise_family"] = "weibull"
        assert run_cli(tmp_path, "synth", cfg) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "config"
        assert error["message"].startswith("synth: unknown family 'weibull'")
        assert not (tmp_path / "synth_out").exists()

    def test_grid_search_with_every_point_aborting_is_a_solver_error(
            self, tmp_path, monkeypatch, capsys):
        import dcot.solver

        monkeypatch.chdir(tmp_path)
        assert run_cli(tmp_path, "synth", synth_config()) == 0
        # absurdly small factor moduli make every solve diverge
        monkeypatch.setattr(dcot.solver, "_factor_modulus", lambda *args: 1e-9)
        cfg = fit_config("run_out")
        cfg["grid"] = {"lambdas": [1e-4, 1e-2]}
        cfg["split"] = {"train_fraction": 0.8}
        capsys.readouterr()
        assert run_cli(tmp_path, "grid-search", cfg) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"kind": "solver", "code": 3,
                         "message": "all grid evaluations failed"}
        assert not (tmp_path / "run_out").exists()

    def test_synth_keys_match_spec_fields(self):
        from dcot.cli import _SCHEMA
        from dcot.evaluate import SynthSpec

        fields = {f.name for f in dataclasses.fields(SynthSpec)}
        assert set(_SCHEMA["synth"]) == fields

    def test_readme_lists_every_section_key(self):
        from dcot.cli import _SCHEMA

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| section | keys | notes |", 1)[1].split("\n\n")[0]
        documented = {}
        for row in table.splitlines()[2:]:
            cells = row.split("|")
            section = re.findall(r"`(\w+)`", cells[1])[0]
            documented[section] = sorted(re.findall(r"`(\w+)`", cells[2]))
        assert documented == {k: sorted(v) for k, v in _SCHEMA.items() if k != "solver"}

    def test_solver_keys_match_config_fields(self):
        from dcot.cli import _SCHEMA
        from dcot.solver import SolverConfig

        fields = {f.name for f in dataclasses.fields(SolverConfig)} - {"penalties"}
        assert set(_SCHEMA["solver"]) == fields
        # the table's defaults are the dataclass's
        assert {k: d for k, (_, d) in _SCHEMA["solver"].items()} == {
            f.name: f.default for f in dataclasses.fields(SolverConfig)
            if f.name != "penalties"}

    def test_readme_lists_every_solver_key(self):
        from dcot.cli import _SCHEMA

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split('Every key of the `"solver"` object', 1)[1].split("\n\n")[1]
        documented = re.findall(r"`(\w+)`", "".join(
            row.split("|")[1] for row in table.splitlines()[2:]))
        assert sorted(documented) == sorted(_SCHEMA["solver"])

    def test_group_lasso_groups_from_partition(self):
        from dcot.cli import _parse_penalties
        from dcot.model import SliceGroup, SubjectPartition

        part = SubjectPartition(0, (SliceGroup((0, 1)), SliceGroup((2,))))
        pen = _parse_penalties(
            {"g": {"kind": "sparse_group_lasso", "weight": 0.5, "groups": "partition"}},
            ranks=(3, 2), partition=part,
        )
        # one flat-index group per tied slice, first-mode-fastest layout
        groups = [sorted(g.tolist()) for g in pen.g.groups]
        assert groups == [[0, 3], [1, 4], [2, 5]]

    def test_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = synth_config(out="s1")
        cfg["synth"].pop("partition")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(cfg_path), "--seed", "99",
                     "--output", "s_override"]) == 0
        summary = json.loads((tmp_path / "s_override" / "summary.json").read_text())
        assert summary["effective_config"]["seed"] == 99
