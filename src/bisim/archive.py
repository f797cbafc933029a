"""Self-describing binary result container ("BISIM1") and CSV export.

Layout, all little-endian:

    magic        6 bytes  b"BISIM1"
    version      u16      currently 1
    n_datasets   u32
    per dataset:
        name         u16 length + utf-8 bytes
        dtype        u16 length + ascii numpy dtype ('<f8' or '<c16')
        ndim         u8
        dims         ndim x u64
        per axis:    name (u16+utf8), unit (u16+utf8), values (dim x f8)
        payload      product(dims) x dtype, C order

Round trips are bit-exact. A run's sidecar summary (config echo, estimates,
library version) is block YAML next to the binary, written by a small
emitter of its own types: the text of PyYAML's block dump, save that a
string PyYAML would quote is one double-quoted line. Complex datasets export
to CSV as dB magnitudes (20 log10 |.|, exact zeros floored at -300 dB, NaN
kept) with 10 decimals, within 5e-11 dB; float data keeps 17 significant digits.

Every output file is created fresh: a writer unlinks the file already at
its path, then creates a new one, and never truncates in place (on ext4,
closing a file that was truncated to zero and rewritten waits for its
writeback). So a symlink or a read-only file at an output path is
replaced, not written through, and a write killed halfway leaves a short
file.
"""

from __future__ import annotations

import math
import os
import re
import struct
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError, UsageError
from .processing import magnitude_db

MAGIC = b"BISIM1"
VERSION = 1
_DTYPES = {"<f8", "<c16"}
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)   # libyaml: same text, faster
_PLAIN = re.compile(r"[A-Za-z0-9_./][A-Za-z0-9_./-]*")      # strings that may be written unquoted
_RESOLVER = yaml.resolver.Resolver()


@dataclass(eq=False)
class Axis:
    name: str
    unit: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype="<f8")
        if self.values.ndim != 1:
            raise ConfigError("axis values must be 1-D")


@dataclass(eq=False)
class Dataset:
    name: str
    values: np.ndarray
    axes: list[Axis]

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values)
        self.values = arr = arr.astype("<c16" if np.iscomplexobj(arr) else "<f8", copy=False)
        if len(self.axes) != arr.ndim:
            raise ConfigError(
                f"dataset {self.name!r} has {arr.ndim} dims but {len(self.axes)} axes"
            )
        for ax, dim in zip(self.axes, arr.shape):
            if ax.values.size != dim:
                raise ConfigError(
                    f"axis {ax.name!r} has {ax.values.size} values for a dim of {dim}"
                )


def _create(path, mode: str):
    """A new file at path, open in mode: whatever was at path is unlinked first."""
    with suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, mode)


def _str_bytes(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ConfigError("string too long for archive header")
    return struct.pack("<H", len(raw)) + raw


class _Reader:
    """Checked reads of an archive's bytes: a read past the end raises ConfigError."""

    def __init__(self, raw: bytes):
        self.raw, self.pos = memoryview(raw), 0

    def take(self, n: int) -> memoryview:
        if n > len(self.raw) - self.pos:
            raise ConfigError(f"truncated archive: {n} bytes needed at offset {self.pos}")
        self.pos += n
        return self.raw[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        (n,) = self.unpack("<H")
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as err:
            raise ConfigError(f"archive string is not UTF-8: {err}") from None


@dataclass(eq=False)
class ResultArchive:
    """Ordered named datasets plus a YAML-serializable summary dict."""

    datasets: dict[str, Dataset] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    def add(self, name: str, values: np.ndarray, axes: list[Axis]) -> Dataset:
        ds = Dataset(name, values, axes)
        self.datasets[name] = ds
        return ds

    def write(self, path) -> None:
        """Write header fields and each array's own buffer to a file created fresh at path.

        A file already at path is unlinked first, once every name has passed its check.
        """
        chunks = [MAGIC, struct.pack("<HI", VERSION, len(self.datasets))]
        for ds in self.datasets.values():
            chunks += [_str_bytes(ds.name), _str_bytes(ds.values.dtype.str),
                       struct.pack(f"<B{ds.values.ndim}Q", ds.values.ndim, *ds.values.shape)]
            for ax in ds.axes:
                chunks += [_str_bytes(ax.name), _str_bytes(ax.unit), np.ascontiguousarray(ax.values)]
            chunks.append(ds.values)
        with _create(path, "wb") as fh:
            fh.writelines(chunks)

    @classmethod
    def read(cls, path) -> "ResultArchive":
        """Parse an archive; a malformed or truncated one raises ConfigError."""
        with open(path, "rb") as fh:   # one buffer; every array below is a view into it
            raw = bytearray(os.fstat(fh.fileno()).st_size)
            del raw[fh.readinto(raw):]
        buf = _Reader(raw)
        try:
            if bytes(buf.take(len(MAGIC))) != MAGIC:
                raise ConfigError("not a BISIM1 archive")
            (version,) = buf.unpack("<H")
            if version != VERSION:
                raise ConfigError(f"unsupported archive version {version}")
            (n_sets,) = buf.unpack("<I")
            archive = cls()
            for _ in range(n_sets):
                name = buf.text()
                dtype = buf.text()
                if dtype not in _DTYPES:
                    raise ConfigError(f"unsupported element type {dtype!r}")
                (ndim,) = buf.unpack("<B")
                dims = [buf.unpack("<Q")[0] for _ in range(ndim)]
                axes = []
                for dim in dims:
                    ax_name, ax_unit = buf.text(), buf.text()
                    values = np.frombuffer(buf.take(8 * dim), dtype="<f8")
                    axes.append(Axis(ax_name, ax_unit, values))
                payload = buf.take(math.prod(dims) * np.dtype(dtype).itemsize)
                values = np.frombuffer(payload, dtype=dtype).reshape(dims)
                archive.datasets[name] = Dataset(name, values, axes)
            if buf.pos != len(buf.raw):
                raise ConfigError(f"{len(buf.raw) - buf.pos} unexpected bytes after the last dataset")
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None
        return archive

    def write_summary(self, path) -> None:
        """Write the summary as block YAML to a file created fresh at path.

        The text is _summary_text's: the bytes of yaml.dump(summary, sort_keys=False,
        default_flow_style=False), save that a string PyYAML would quote is one
        double-quoted line. It is made before the old file is unlinked, so a summary
        that cannot be written (one holding a numpy scalar, say) raises
        RepresenterError and leaves that file as it was.
        """
        text = _summary_text(self.summary)
        with _create(path, "w") as fh:
            fh.write(text)


def _plain(s: str) -> bool:
    """Whether s is written unquoted: it is in _PLAIN, starts no document end marker,
    and PyYAML's resolver reads it back as a string."""
    return (_PLAIN.fullmatch(s) is not None and not s.startswith("...")
            and _RESOLVER.resolve(yaml.ScalarNode, s, (True, False)) == "tag:yaml.org,2002:str")


def _float_text(x: float) -> str:
    """SafeRepresenter's float text: repr, with ".0" before an exponent that has no point."""
    text = repr(x)
    if "n" in text:   # nan, inf or -inf
        return ".nan" if x != x else ".inf" if x > 0 else "-.inf"
    return text.replace("e", ".0e", 1) if "e" in text and "." not in text else text


def _str_text(s: str) -> str:
    """s plain where PyYAML writes it so, else as one double-quoted line (escaped, never folded)."""
    return s if _plain(s) else yaml.dump(s, Dumper=_DUMPER, default_style='"', width=1 << 30)[:-1]


_SCALARS = {
    str: _str_text,
    bool: lambda b: "true" if b else "false",
    int: str,
    float: _float_text,
    type(None): lambda _: "null",
}


def _summary_text(tree) -> str:
    """tree, a dict or list of dicts with plain str keys, lists, str, int, float, bool and
    None, as the block YAML that yaml.dump(tree, Dumper=_DUMPER, sort_keys=False,
    default_flow_style=False) writes, without PyYAML's Python representer.

    A string that PyYAML would quote or fold is written as one double-quoted line, so it
    loads back equal. Any other type, or a key that is not a plain string of fewer than
    128 characters (PyYAML writes a longer one as "? key"), raises RepresenterError, as
    an unsupported type does in yaml.dump. A dict or list that appears twice is written
    twice; PyYAML would write it once with an anchor.
    """
    out = []

    def text(x):
        """x's one-line text; None for a non-empty dict or list."""
        write = _SCALARS.get(type(x))
        if write is not None:
            return write(x)
        if type(x) is not dict and type(x) is not list:
            raise yaml.representer.RepresenterError("cannot represent an object", x)
        return None if x else "{}" if type(x) is dict else "[]"

    def block(x, col: int, glued: bool) -> None:
        """Append the non-empty dict or list x at column col; glued: its first line follows "- "."""
        pad = " " * col
        if type(x) is dict:
            for key, value in x.items():
                if type(key) is not str or len(key) >= 128 or not _plain(key):
                    raise yaml.representer.RepresenterError("cannot write as a plain key", key)
                line, glued = (key if glued else pad + key), False
                one = text(value)
                if one is not None:
                    out.append(f"{line}: {one}\n")
                else:   # a list under a key is not indented
                    out.append(line + ":\n")
                    block(value, col + 2 if type(value) is dict else col, False)
        else:
            for item in x:
                dash, glued = ("- " if glued else pad + "- "), False
                one = text(item)
                if one is not None:
                    out.append(dash + one + "\n")
                else:
                    out.append(dash)
                    block(item, col + 2, True)

    if type(tree) is not dict and type(tree) is not list:
        raise yaml.representer.RepresenterError("a summary is a dict or a list", tree)
    one = text(tree)
    if one is not None:
        return one + "\n"
    block(tree, 0, False)
    return "".join(out)


_CSV_BLOCK_VALUES = 1 << 13   # values formatted per write: about 1 MB of transient arrays and text
_DIGITS = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
# 4-byte pieces of a dB value's text, one uint32 each so that one gather places four
# characters; NUL bytes are padding, deleted from the text
_INT, _QUAD, _DOT3, _TRIPLE = (np.ascontiguousarray(t, np.uint8).view(np.uint32)[:, 0] for t in (
    np.where(np.arange(10**4)[:, None] >= [1000, 100, 10, 0], _DIGITS, 0),   # "0".."9999"
    _DIGITS,                                                                 # "0000".."9999"
    np.c_[np.full(1000, ord(".")), _DIGITS[:1000, 1:]],                      # ".000"..".999"
    np.c_[_DIGITS[:1000, 1:], np.full(1000, ord(","))]))                     # "000,".."999,"
_MINUS, _NAN, _INF, _SEP = np.frombuffer(b"\0\0\0-\0nan\0inf\0\0\0,", np.uint32)


def _db_text(db: np.ndarray) -> str:
    """CSV text of 2-D rows of dB values, |db| < 10**4 as magnitude_db gives: finite ones
    rounded to 10 decimals (within 5e-11 + 1e-16 dB, unsigned if 0), the others nan, inf, -inf."""
    finite = np.isfinite(db)
    frac, whole = np.modf(np.where(finite, db, 0.0))   # exact parts: only the rounding below errs
    q = whole.astype(np.int64) * 10**10 + np.rint(frac * 1e10).astype(np.int64)
    ints, fracs = np.divmod(np.abs(q), 10**10)
    words = np.stack([np.where(q < 0, _MINUS, 0), _INT[ints], _DOT3[fracs // 10**7],
                      _QUAD[fracs // 1000 % 10**4], _TRIPLE[fracs % 1000]], axis=-1)
    bad = ~finite
    words[bad, 0] = np.where(db[bad] < 0, _MINUS, 0)
    words[bad, 1] = np.where(np.isnan(db[bad]), _NAN, _INF)
    words[bad, 2:] = [0, 0, _SEP]
    words.view(np.uint8)[:, -1, -1] = ord("\n")
    return words.tobytes().translate(None, b"\0").decode("ascii")


def export_csv(archive: ResultArchive, dataset: str, path) -> None:
    """Write one <=2-D dataset as plain CSV with an axis-value header row.

    Complex data exports as dB magnitude in fixed point with 10 decimals
    (within 5e-11 dB; nan, inf or -inf if not finite); float data and axis
    values keep 17 significant digits so a round trip is value-exact. Rows
    are written a fixed block at a time, so memory stays bounded. The file
    is created fresh: a file already at path is unlinked first, once the
    dataset has passed its checks.
    """
    if dataset not in archive.datasets:
        raise ConfigError(f"archive has no dataset {dataset!r}")
    ds = archive.datasets[dataset]
    if ds.values.ndim > 2:
        raise UsageError(
            f"dataset {dataset!r} is {ds.values.ndim}-D; slice it to <=2-D before CSV export"
        )
    complex_values = np.iscomplexobj(ds.values)
    label = "power_db" if complex_values else "value"
    row_ax = ds.axes[0]
    if ds.values.ndim == 1:
        values = ds.values[:, None]
        header = f"{row_ax.name}_{row_ax.unit},{label}"
    else:
        values, col_ax = ds.values, ds.axes[1]
        header = ",".join([f"{row_ax.name}_{row_ax.unit}\\{col_ax.name}_{col_ax.unit}",
                           *("%.17g" % a for a in col_ax.values.tolist())])
    row_fmt = ",".join(["%.17g"] * (values.shape[1] + 1)) + "\n"
    block = max(1, _CSV_BLOCK_VALUES // max(1, values.shape[1]))
    with _create(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, values.shape[0], block):
            rows, axis = values[start:start + block], row_ax.values[start:start + block].tolist()
            if complex_values and values.shape[1]:
                lines = _db_text(magnitude_db(rows)).split("\n")
                fh.write("".join("%.17g,%s\n" % (a, line) for a, line in zip(axis, lines)))
            else:
                fh.write("".join(row_fmt % (a, *row) for a, row in zip(axis, rows.tolist())))
