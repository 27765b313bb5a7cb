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
  from its path by numpy's chunked reader, in memory proportional to its
  entry count; others are parsed from their whole text (see
  :func:`read_coo`).
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
import os
import re
import stat
import struct
from collections.abc import Iterable
from io import BytesIO, TextIOWrapper
from itertools import chain
from pathlib import Path

import numpy as np

from .losses import ObservationSet
from .model import SliceGroup, SubjectPartition
from .tensor import _BLOCK

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
    parsed from its path: it is a regular file whose name has none of the
    suffixes numpy's reader decompresses (``.gz``, ``.bz2``, ``.xz``,
    ``.lzma``), and its bytes are ASCII, hold one ``#`` (the header's) and
    none of the bytes 0x0b, 0x0c, 0x1c, 0x1d and 0x1e, which end a line
    for ``str.splitlines`` but not in a text-mode file.  Its header is read
    from those bytes, which are then released, and ``np.loadtxt`` parses
    the entry lines from the path in chunks, so memory grows with the entry
    count and no whole-file text or per-line list is built; the indices and
    values leave the parsed rows, which are released before
    :class:`ObservationSet` checks them.  The parsed file must be the one
    that was checked: its ``os.stat`` size, ``mtime_ns`` and inode must
    read the same before the bytes are read and after the parse.  Every
    other file, and every file that the path parse or the array checks
    reject, takes the text path: the decoded text is split into lines and
    parsed in bulk, and a faulty file is reported by its first faulty line.
    Both paths accept the same files, with the same values and messages.
    """
    path = Path(path)
    checked = _file_identity(path)
    data = _read_bytes(path)
    header = _canonical_header(path, data) if checked is not None else None
    if header is None:
        return _read_lines(path, _decode(path, data))
    del data  # before the parse; a file it or the array checks reject is read again
    dims, skiprows, has_entries = header
    try:
        rows = _parse_entries(os.fspath(path) if has_entries else (), len(dims), skiprows)
    except (OSError, ValueError):
        rows = None
    if rows is None or _file_identity(path) != checked:
        return _read_lines(path, _read_text(path))
    # the indices and values leave the parsed rows, which go before the checks
    indices, values = rows["i"] - 1, np.ascontiguousarray(rows["v"])
    del rows
    try:
        return ObservationSet(indices, values, dims)
    except ValueError:
        return _read_lines(path, _read_text(path))


# Suffixes numpy's path reader decompresses (np.lib._datasource's openers).
_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _file_identity(path: Path) -> tuple[int, int, int] | None:
    """Size, ``mtime_ns`` and inode of a regular file that numpy's reader opens as it is.

    None for any other path, or one that cannot be stat'ed.
    """
    if os.path.splitext(path)[1] in _DECOMPRESSED_SUFFIXES:
        return None
    try:
        st = os.stat(path)
    except OSError:
        return None
    if not stat.S_ISREG(st.st_mode):
        return None
    return st.st_size, st.st_mtime_ns, st.st_ino


# Bytes that end a line for str.splitlines but not in a text-mode file.
_SPLITLINES_ONLY = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


def _canonical_header(path: Path, data: bytes) -> tuple[tuple[int, ...], int, bool] | None:
    """A canonical file's dims, its lines up to the header, and whether an entry follows.

    None if the text path must read the file.
    """
    if data.count(b"#") != 1 or not data.isascii() or any(c in data for c in _SPLITLINES_ONLY):
        return None
    # universal newlines: the same line ends as str.splitlines on such bytes,
    # and as np.loadtxt's text-mode read of the path
    with TextIOWrapper(BytesIO(data), encoding="ascii") as stream:
        try:
            dims, lineno = _read_dims_header(path, stream)
        except DataIOError:
            return None
        return dims, lineno, any(line.strip() for line in stream)


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


def _parse_entries(lines: Iterable[str] | str, n_modes: int, skiprows: int = 0) -> np.ndarray:
    """Convert entry lines to rows with fields ``i`` (indices) and ``v``.

    The one token conversion of COO entries: blank lines are skipped, and
    it raises ``ValueError`` on a line without ``n_modes + 1`` fields or
    with a token that is not an ASCII decimal integer (indices) or a float
    (value).  ``lines`` is an iterable of lines, or the path of an ASCII
    file whose lines after the first ``skiprows`` hold at least one entry;
    numpy reads a path in chunks, and an iterable one line at a time.
    """
    dtype = [("i", "i8", (n_modes,)), ("v", "f8")]
    if isinstance(lines, str):
        return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1, skiprows=skiprows,
                          encoding="ascii")
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
    """Read a dense binary tensor file.

    The header is checked first; the payload's size comes from the dims as
    Python integers, so no product of the dims overflows, and a file whose
    size is not the header's plus eight bytes a cell is a
    :class:`DataIOError` naming both sizes.  The payload is then read
    straight into the result, which is first-mode-fastest
    (Fortran-ordered), so the file's bytes are never held beside it.
    """
    path = Path(path)
    try:
        with path.open("rb") as f:
            size = os.fstat(f.fileno()).st_size
            head = f.read(12)
            if head[:4] != _MAGIC:
                raise DataIOError(f"{path}: bad magic bytes (offset 0)")
            if len(head) < 12:
                raise DataIOError(f"{path}: truncated header")
            version, n = struct.unpack_from("<II", head, 4)
            if version != _VERSION:
                raise DataIOError(f"{path}: unsupported version {version}")
            header_end = 12 + 8 * n
            if size < header_end:
                raise DataIOError(f"{path}: truncated dims block (offset 12)")
            dims = struct.unpack(f"<{n}Q", f.read(8 * n))
            count = math.prod(dims)  # one cell for a 0-way tensor, as written
            if size != header_end + 8 * count:
                raise DataIOError(
                    f"{path}: payload is {size - header_end} bytes, expected "
                    f"{8 * count} (offset {header_end})"
                )
            data = np.empty(count, dtype="<f8")
            if f.readinto(memoryview(data).cast("B")) != data.nbytes:
                raise DataIOError(f"{path}: payload ended early (offset {header_end})")
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    return data.astype(float, copy=False).reshape(dims, order="F")


def _c_order_blocks(a: np.ndarray):
    """Views that hold ``a.ravel()`` in turn, at most ``_BLOCK`` cells each.

    Whole slabs ``a[i]`` are taken while one fits in a block, and a larger
    slab is split the same way.
    """
    slab = math.prod(a.shape[1:])
    if a.size <= _BLOCK:
        yield a
    elif slab <= _BLOCK:
        step = _BLOCK // slab
        for lo in range(0, a.shape[0], step):
            yield a[lo : lo + step]
    else:
        for part in a:
            yield from _c_order_blocks(part)


def write_dense(t: np.ndarray, path) -> None:
    """Write a dense binary tensor file.

    The header goes first, then the first-mode-fastest payload one block of
    at most ``_BLOCK`` cells at a time: the reversed-axes view ``t.T``
    holds ``t``'s cells in that order as its C order, and each block is
    copied to contiguous little-endian float64 only for its write, so no
    whole copy of ``t`` in another order or type is made.
    """
    t = np.asarray(t, dtype=float)
    path = Path(path)
    header = _MAGIC + struct.pack("<II", _VERSION, t.ndim)
    header += struct.pack(f"<{t.ndim}Q", *t.shape)
    try:
        with path.open("wb") as f:
            f.write(header)
            for block in _c_order_blocks(t.T):
                f.write(np.ascontiguousarray(block, dtype="<f8"))
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
