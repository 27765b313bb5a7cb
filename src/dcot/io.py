"""On-disk formats: COO text, dense binary tensors, features, partitions.

All file formats use 1-based indices; conversion to the package's
0-based convention happens here and only here.

* COO text: a header line ``# dims: I_1 I_2 ... I_N`` followed by one
  ``i_1 i_2 ... i_N value`` line per observed entry (whitespace
  separated).  A line ends where ``str.splitlines`` ends one: at LF, CRLF
  and CR, and also at 0x0b, 0x0c, 0x1c-0x1e and the Unicode line
  separators.  Blank lines and extra ``#`` comment lines are ignored; a
  ``#`` inside an entry line is not a comment.  An index is an ASCII
  decimal integer with an optional sign that fits in int64; the value is
  a decimal float (``1.5``, ``-2e-3``, ``.5``; ``nan``/``inf`` parse but
  are rejected as not finite).  ``_`` digit separators and non-ASCII
  digits are unparseable.  A faulty file is reported by its first faulty
  line.  A file without comment lines or unusual line ends is parsed
  straight from its bytes, in memory proportional to its entry count;
  others are parsed from their whole text (see :func:`read_coo`).
  Written files sort entries lexicographically by index.
* Dense binary (``.dct``): magic ``DCOT``, little-endian u32 version (1),
  u32 mode count, one u64 per mode size, then float64 entries in
  first-mode-fastest order.  :func:`read_tensor` tells a dense file from
  COO text by the magic.
* Feature files: one whitespace-separated float row per index; an
  unparseable or non-finite value is a :class:`DataIOError` naming its
  line and the value.
* Label files: one integer cluster id per line; a line that is not one is
  a :class:`DataIOError` naming the line and its text.
* Partition files: ``mode = <m>``, optional ``fixed-mode = <m>``, then
  one ``group: [i, j, ...]`` line per group, with an optional ``@ <f>``
  suffix naming the fixed index when ``fixed-mode`` is set.  Any other
  line, or the first group that breaks a partition rule, is a
  :class:`DataIOError` naming the file and line (indices from 1).
* Text files are UTF-8; one that is not is a :class:`DataIOError` naming
  the file and the offset of the first bad byte.
"""

from __future__ import annotations

import json
import math
import re
import struct
from collections.abc import Iterable
from io import BytesIO, TextIOWrapper
from itertools import chain
from pathlib import Path

import numpy as np

from .losses import ObservationSet
from .model import SliceGroup, SubjectPartition

_MAGIC = b"DCOT"
_VERSION = 1


class DataIOError(Exception):
    """A data file could not be read, parsed, or written."""


class ConfigError(Exception):
    """A run configuration is malformed."""


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc


def _decode(path: Path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataIOError(f"{path}: not valid UTF-8 (byte {exc.start})") from exc


def _read_text(path: Path) -> str:
    """The file's UTF-8 text; a failure to read or decode it is a DataIOError."""
    return _decode(path, _read_bytes(path))


def _data_lines(path: Path) -> list[tuple[int, str]]:
    """The file's stripped lines that are neither blank nor ``#`` comments.

    Each comes with its 1-based line number.
    """
    return [(lineno, line) for lineno, line in
            enumerate(map(str.strip, _read_text(path).splitlines()), start=1)
            if line and line[0] != "#"]


def read_coo(path) -> ObservationSet:
    """Parse a COO text file into an observation set (strict validation).

    Lines end where ``str.splitlines`` ends them.  A canonical file is
    streamed: it is ASCII, holds one ``#`` (the header's) and none of the
    bytes 0x0b, 0x0c, 0x1c, 0x1d and 0x1e, which end a line for
    ``str.splitlines`` but not in a text-mode file.  Its header lines are
    read from the open bytes and one bulk parse converts the rest, so memory
    grows with the entry count and no whole-file text or per-line list is
    built.  Every other file, and every file that the streamed parse or the
    array checks reject, takes the text path: the decoded text is split
    into lines and parsed in bulk, and a faulty file is reported by its
    first faulty line.  Both paths accept the same files, with the same
    values and messages.
    """
    path = Path(path)
    data = _read_bytes(path)
    streamed = _read_streamed(path, data)
    if streamed is None:
        return _read_lines(path, _decode(path, data))
    del data  # before the array checks; a file they reject is read again
    dims, rows = streamed
    try:
        return ObservationSet(rows["i"] - 1, rows["v"], dims)
    except ValueError:
        return _read_lines(path, _read_text(path))


# Bytes that end a line for str.splitlines but not in a text-mode file.
_SPLITLINES_ONLY = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


def _read_streamed(path: Path, data: bytes) -> tuple[tuple[int, ...], np.ndarray] | None:
    """The dims and rows of a canonical file, or None if the text path must read it."""
    if data.count(b"#") != 1 or not data.isascii() or any(c in data for c in _SPLITLINES_ONLY):
        return None
    # universal newlines: the same line ends as str.splitlines on such bytes
    with TextIOWrapper(BytesIO(data), encoding="ascii") as stream:
        try:
            dims, _ = _read_dims_header(path, stream)
            return dims, _parse_entries(stream, len(dims))
        except (DataIOError, ValueError):
            return None


def _read_lines(path: Path, text: str) -> ObservationSet:
    """Parse the whole text split into lines, naming the first faulty line of a bad file."""
    lines = text.splitlines()
    dims, start = _read_dims_header(path, lines)
    entries = [line for line in map(str.strip, lines[start:]) if line and line[0] != "#"]
    try:
        rows = _parse_entries(entries, len(dims))
        omega = ObservationSet(rows["i"] - 1, rows["v"], dims)
    except ValueError as exc:
        raise _first_fault(path, lines, start, dims) or DataIOError(f"{path}: {exc}") from exc
    if len(_DIMS_HINT.findall(text)) > 1:
        fault = _first_fault(path, lines, start, dims)
        if fault is not None:
            raise fault
    return omega


_DIMS_RE = re.compile(r"#\s*dims\s*:\s*(.*)$")
# Every dims header contains this; a second match sends the file to _first_fault.
_DIMS_HINT = re.compile(r"#\s*dims\s*:")


def _read_dims_header(path: Path, lines: Iterable[str]) -> tuple[tuple[int, ...], int]:
    """The ``# dims:`` header's sizes and the number of lines up to it.

    Consumes ``lines`` up to and including the header line.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            raise DataIOError(f"{path}:{lineno}: entry before '# dims:' header")
        m = _DIMS_RE.match(line)
        if m:
            try:
                dims = tuple(int(tok) for tok in m.group(1).split())
            except ValueError as exc:
                raise DataIOError(f"{path}:{lineno}: bad dims header") from exc
            if not dims or any(d < 1 for d in dims):
                raise DataIOError(f"{path}:{lineno}: dims must be positive")
            return dims, lineno
    raise DataIOError(f"{path}: missing '# dims:' header")


def _parse_entries(lines: Iterable[str], n_modes: int) -> np.ndarray:
    """Convert entry lines to rows with fields ``i`` (indices) and ``v``.

    The one token conversion of COO entries: blank lines are skipped, and
    it raises ``ValueError`` on a line without ``n_modes + 1`` fields or
    with a token that is not an ASCII decimal integer (indices) or a float
    (value).
    """
    dtype = [("i", "i8", (n_modes,)), ("v", "f8")]
    lines = iter(lines)
    first = next((line for line in lines if line.strip()), None)
    if first is None:  # no entries: an empty set, without loadtxt's "no data" warning
        return np.zeros(0, dtype=dtype)
    return np.loadtxt(chain([first], lines), dtype=dtype, comments=None, ndmin=1)


def _parsed_prefix(entries: list[str], n_modes: int) -> np.ndarray:
    """Rows of the longest prefix of ``entries`` that :func:`_parse_entries` accepts."""
    try:
        return _parse_entries(entries, n_modes)
    except ValueError:
        pass
    good, bad = 0, len(entries)  # entries[:good] parse, entries[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _parse_entries(entries[good:mid], n_modes)
            good = mid
        except ValueError:
            bad = mid
    return _parse_entries(entries[:good], n_modes)


def _first_fault(path: Path, lines: list[str], start: int,
                 dims: tuple[int, ...]) -> DataIOError | None:
    """The error for the first faulty line after the header, or None if none is.

    Lines are checked in file order; within a line the checks run field
    count, parse, finite, range, duplicate.  Entries are converted by
    :func:`_parse_entries`, as in the bulk parse, so both accept the same
    files.
    """
    numbered = [(lineno, line) for lineno, line in
                enumerate(map(str.strip, lines[start:]), start=start + 1) if line]
    parsed = _parsed_prefix([line for _, line in numbered if line[0] != "#"], len(dims))
    rows = zip(parsed["i"].tolist(), parsed["v"].tolist())
    seen: dict[tuple[int, ...], int] = {}
    for lineno, line in numbered:
        where = f"{path}:{lineno}"
        if line[0] == "#":
            if _DIMS_RE.match(line):
                return DataIOError(f"{where}: duplicate dims header")
            continue
        row = next(rows, None)
        if row is None:  # the first entry the conversion rejects
            tokens = line.split()
            if len(tokens) != len(dims) + 1:
                return DataIOError(
                    f"{where}: expected {len(dims)} indices and a value, "
                    f"got {len(tokens)} fields"
                )
            return DataIOError(f"{where}: unparseable entry")
        idx, value = tuple(row[0]), row[1]
        if not math.isfinite(value):
            return DataIOError(f"{where}: value {line.split()[-1]} is not finite")
        if any(not 1 <= i <= d for i, d in zip(idx, dims)):
            return DataIOError(f"{where}: index {idx} out of range for {dims}")
        if idx in seen:
            return DataIOError(
                f"{where}: duplicate index {idx} (first seen on line {seen[idx]})"
            )
        seen[idx] = lineno
    return None


# entries per write of write_coo, which bounds its Python strings
_WRITE_CHUNK = 4096


def write_coo(omega: ObservationSet, path) -> None:
    """Emit a COO text file; entries sorted lexicographically by index."""
    path = Path(path)
    order = np.lexsort(omega.indices.T[::-1])
    entry = "{} " * len(omega.shape) + "{!r}"
    try:
        with path.open("w", encoding="utf-8") as f:
            f.write("# dims: " + " ".join(str(d) for d in omega.shape) + "\n")
            for start in range(0, len(order), _WRITE_CHUNK):
                chunk = order[start:start + _WRITE_CHUNK]
                columns = (omega.indices[chunk] + 1).T.tolist()
                f.write("\n".join(map(entry.format, *columns,
                                      omega.values[chunk].tolist())) + "\n")
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc


def read_dense(path) -> np.ndarray:
    """Read a dense binary tensor file."""
    path = Path(path)
    blob = _read_bytes(path)
    if blob[:4] != _MAGIC:
        raise DataIOError(f"{path}: bad magic bytes (offset 0)")
    if len(blob) < 12:
        raise DataIOError(f"{path}: truncated header")
    version, n = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        raise DataIOError(f"{path}: unsupported version {version}")
    header_end = 12 + 8 * n
    if len(blob) < header_end:
        raise DataIOError(f"{path}: truncated dims block (offset 12)")
    dims = struct.unpack_from(f"<{n}Q", blob, 12)
    count = int(np.prod(dims)) if dims else 0
    expected = header_end + 8 * count
    if len(blob) != expected:
        raise DataIOError(
            f"{path}: payload is {len(blob) - header_end} bytes, expected "
            f"{8 * count} (offset {header_end})"
        )
    data = np.frombuffer(blob, dtype="<f8", offset=header_end, count=count)
    return data.reshape(dims, order="F").astype(float)


def write_dense(t: np.ndarray, path) -> None:
    """Write a dense binary tensor file."""
    t = np.asarray(t, dtype=float)
    path = Path(path)
    header = _MAGIC + struct.pack("<II", _VERSION, t.ndim)
    header += struct.pack(f"<{t.ndim}Q", *t.shape)
    try:
        path.write_bytes(header + t.ravel(order="F").astype("<f8").tobytes())
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc


def read_tensor(path) -> ObservationSet:
    """Every cell of a file that starts with the ``DCOT`` magic, else the file read as COO.

    A non-finite dense cell is a :class:`DataIOError` naming the first (1-based).
    """
    path = Path(path)
    try:
        with path.open("rb") as f:
            dense = f.read(len(_MAGIC)) == _MAGIC
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    if not dense:
        return read_coo(path)
    t = read_dense(path)
    flat = t.ravel(order="F")
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        cell = tuple(int(i) + 1 for i in np.unravel_index(bad[0], t.shape, order="F"))
        raise DataIOError(f"{path}: cell {cell} is not finite ({flat[bad[0]]})")
    return ObservationSet.from_dense(t)


def read_features(path) -> np.ndarray:
    """One float feature row per index; a bad or non-finite value names its line."""
    path = Path(path)
    lines = _data_lines(path)
    rows = []
    try:
        for lineno, line in lines:
            rows.append([])
            for tok in line.split():
                rows[-1].append(float(tok))
    except ValueError as exc:
        raise DataIOError(f"{path}:{lineno}: unparseable feature value {tok!r}") from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise DataIOError(f"{path}: feature rows must be nonempty and equal length")
    feats = np.array(rows, dtype=float)
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        lineno, line = lines[bad[0]]
        token = next(t for t in line.split() if not math.isfinite(float(t)))
        raise DataIOError(f"{path}:{lineno}: feature value {token} is not finite")
    return feats


def write_features(feats: np.ndarray, path) -> None:
    lines = [" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(feats)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_labels(path) -> np.ndarray:
    """One integer cluster id per line; a line that is not one names its line."""
    path = Path(path)
    vals = []
    try:
        for lineno, line in _data_lines(path):
            vals.append(int(line))
    except ValueError as exc:
        raise DataIOError(f"{path}:{lineno}: label {line!r} is not an integer") from exc
    if not vals:
        raise DataIOError(f"{path}: empty label file")
    return np.array(vals, dtype=int)


def write_labels(labels: np.ndarray, path) -> None:
    Path(path).write_text(
        "\n".join(str(int(v)) for v in np.asarray(labels).ravel()) + "\n",
        encoding="utf-8",
    )


_GROUP_RE = re.compile(r"^group\s*:\s*\[([^\]]*)\]\s*(?:@\s*(\d+))?\s*$")


def _parse_index_list(text: str, where: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise DataIOError(f"{where}: bad index list [{text}]") from exc


def read_partition(path) -> SubjectPartition:
    """Parse a partition file (see module docstring for the grammar)."""
    path = Path(path)
    lines = _read_text(path).splitlines()
    mode = None
    fixed_mode = None
    # (line, group), in the file's 1-based numbering until the end
    groups: list[tuple[str, SliceGroup]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        m = re.match(r"^mode\s*=\s*(\d+)\s*$", line)
        if m:
            if mode is not None:
                raise DataIOError(f"{where}: duplicate mode line")
            mode = int(m.group(1))
            continue
        m = re.match(r"^fixed-mode\s*=\s*(\d+)\s*$", line)
        if m:
            fixed_mode = int(m.group(1))
            continue
        m = _GROUP_RE.match(line)
        if m:
            fixed = None
            if m.group(2) is not None:
                if fixed_mode is None:
                    raise DataIOError(f"{where}: '@' qualifier without fixed-mode")
                fixed = (fixed_mode, int(m.group(2)))
            elif fixed_mode is not None:
                raise DataIOError(f"{where}: fixed-mode set but group lacks '@'")
            try:
                groups.append((where, SliceGroup(_parse_index_list(m.group(1), where), fixed)))
            except ValueError as exc:
                raise DataIOError(f"{where}: {exc}") from exc
            continue
        raise DataIOError(f"{where}: unrecognized partition line {line!r}")
    if mode is None:
        raise DataIOError(f"{path}: missing 'mode =' line")
    if not groups:
        raise DataIOError(f"{path}: no groups declared")
    # SubjectPartition's rules only compare indices, so they hold in either
    # numbering: checked one group at a time in the file's, an error names
    # the first failing group's line and the index as the file writes it
    for k, (where, _) in enumerate(groups, start=1):
        try:
            SubjectPartition(mode, tuple(g for _, g in groups[:k]))
        except ValueError as exc:
            raise DataIOError(f"{where}: {exc}") from exc
    return SubjectPartition(mode - 1, tuple(
        SliceGroup([i - 1 for i in g.indices], g.fixed and (g.fixed[0] - 1, g.fixed[1] - 1))
        for _, g in groups))


def write_partition(partition: SubjectPartition, path) -> None:
    lines = [f"mode = {partition.mode + 1}"]
    fixed_modes = [g.fixed[0] for g in partition.groups if g.fixed is not None]
    if fixed_modes:
        lines.append(f"fixed-mode = {fixed_modes[0] + 1}")
    for g in partition.groups:
        idx = ", ".join(str(i + 1) for i in g.indices)
        if g.fixed is not None:
            lines.append(f"group: [{idx}] @ {g.fixed[1] + 1}")
        else:
            lines.append(f"group: [{idx}]")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 (byte {exc.start})") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return cfg
