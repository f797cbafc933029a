import math
import os
import re
import stat
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bisim import archive as archive_module
from bisim.archive import Axis, Dataset, ResultArchive, _db_text, _plain, _summary_text, export_csv
from bisim.config import load_config
from bisim.errors import ConfigError, UsageError
from bisim.pipeline import SUBCOMMANDS, run
from bisim.processing import magnitude_db


DB_TEXT = re.compile(r"-?(0|[1-9][0-9]{0,3})\.[0-9]{10}")
DB_TEXT_ERROR = Fraction("5e-11") + Fraction("1e-16")   # 10-decimal rounding, plus one product's


def sample_archive():
    rng = np.random.default_rng(77)
    archive = ResultArchive(summary={"tool": "bisim", "note": "test"})
    archive.add(
        "profile",
        rng.normal(size=33) + 1j * rng.normal(size=33),
        [Axis("delay", "s", np.arange(33) / 20e6)],
    )
    archive.add(
        "floats",
        rng.normal(size=17),
        [Axis("index", "count", np.arange(17))],
    )
    archive.add(
        "map",
        rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6)),
        [Axis("delay", "s", np.arange(8.0)), Axis("doppler", "Hz", np.arange(6.0))],
    )
    archive.add(
        "tensor",
        rng.normal(size=(2, 3, 4)),
        [
            Axis("a", "deg", np.arange(2.0)),
            Axis("b", "deg", np.arange(3.0)),
            Axis("c", "s", np.arange(4.0)),
        ],
    )
    return archive


class TestBinaryRoundTrip:
    def test_bit_exact(self, tmp_path):
        archive = sample_archive()
        path = tmp_path / "out.bisim"
        archive.write(path)
        again = ResultArchive.read(path)
        assert list(again.datasets) == list(archive.datasets)
        for name, ds in archive.datasets.items():
            got = again.datasets[name]
            assert got.values.dtype == ds.values.dtype
            assert np.array_equal(got.values, ds.values)
            for ax, bx in zip(ds.axes, got.axes):
                assert ax.name == bx.name and ax.unit == bx.unit
                assert np.array_equal(ax.values, bx.values)

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bisim", tmp_path / "b.bisim"
        sample_archive().write(a)
        sample_archive().write(b)
        assert a.read_bytes() == b.read_bytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bogus.bisim"
        path.write_bytes(b"NOTFMT" + b"\x00" * 32)
        with pytest.raises(ConfigError):
            ResultArchive.read(path)

    def test_truncated_payload_detected(self, tmp_path):
        path = tmp_path / "out.bisim"
        sample_archive().write(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ConfigError):
            ResultArchive.read(path)

    def test_axis_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            Dataset("x", np.zeros(4), [Axis("a", "s", np.zeros(3))])


@pytest.fixture(scope="module")
def one_dataset(tmp_path_factory):
    """Bytes of a written one-dataset archive, and a scratch path to corrupt copies at."""
    archive = ResultArchive()
    archive.add("map", np.arange(6.0).reshape(2, 3) * (1 + 2j),
                [Axis("delay", "s", np.arange(2.0)), Axis("doppler", "Hz", np.arange(3.0))])
    path = tmp_path_factory.mktemp("corrupt") / "a.bisim"
    archive.write(path)
    return path.read_bytes(), path


def peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def large_archive():
    rng = np.random.default_rng(5)
    archive = ResultArchive()
    for i in range(4):
        archive.add(f"cube{i}", rng.normal(size=(256, 512)) + 1j * rng.normal(size=(256, 512)),
                    [Axis("slow_time", "s", np.arange(256.0)), Axis("subcarrier", "Hz", np.arange(512.0))])
    return archive, 4 * 256 * 512 * 16


class TestArchiveCopies:
    def test_contiguous_arrays_are_kept_not_copied(self):
        cfr = np.ones((4, 8), dtype="<c16")
        floats = np.arange(5.0)
        archive = ResultArchive()
        assert archive.add("cfr", cfr, [Axis("a", "s", np.arange(4.0)), Axis("b", "Hz", np.arange(8.0))]).values is cfr
        assert archive.add("floats", floats, [Axis("i", "count", np.arange(5))]).values is floats
        transposed = archive.add("t", cfr.T, [Axis("b", "Hz", np.arange(8.0)), Axis("a", "s", np.arange(4.0))])
        assert transposed.values.flags.c_contiguous and np.array_equal(transposed.values, cfr.T)

    def test_write_allocates_no_copy_of_the_archive(self, tmp_path):
        archive, nbytes = large_archive()
        _, peak = peak_traced_bytes(lambda: archive.write(tmp_path / "big.bisim"))
        assert (tmp_path / "big.bisim").stat().st_size > nbytes
        assert peak < 0.05 * nbytes

    def test_read_holds_one_copy_of_the_file(self, tmp_path):
        archive, nbytes = large_archive()
        archive.write(tmp_path / "big.bisim")
        back, peak = peak_traced_bytes(lambda: ResultArchive.read(tmp_path / "big.bisim"))
        assert peak < 1.05 * nbytes
        for name, ds in archive.datasets.items():
            assert np.array_equal(back.datasets[name].values, ds.values)
            assert back.datasets[name].values.flags.writeable


class TestSummaryDump:
    def test_summaries_match_the_pure_python_dumper(self, full_scene_config, rotor_config, tmp_path):
        # every subcommand's summary, written with libyaml's emitter where present
        rotor_runs = [s for s in SUBCOMMANDS if s not in ("reflectivity", "flyover", "linkbudget")]
        for path, subs in ((full_scene_config, SUBCOMMANDS), (rotor_config, rotor_runs)):
            cfg = load_config(path)
            for sub in subs:
                archive, _ = run(sub, cfg, out_dir=tmp_path / path.stem)
                text = (tmp_path / path.stem / f"{sub}_summary.yaml").read_text()
                assert text == yaml.safe_dump(archive.summary, sort_keys=False,
                                              default_flow_style=False), (path.stem, sub)

    def test_awkward_directory_loads_back_equal(self, full_scene_config, tmp_path):
        out = tmp_path / "run outputs é"
        archive, _ = run("linkbudget", load_config(full_scene_config), out_dir=out)
        text = (out / "linkbudget_summary.yaml").read_text()
        quoted = yaml.safe_dump(str(out), default_style='"', width=1 << 30)[:-1]   # one line, escaped
        assert f"  directory: {quoted}\n" in text
        assert yaml.safe_load(text) == archive.summary


DUMPERS = {"libyaml": getattr(yaml, "CSafeDumper", None), "python": yaml.SafeDumper}
AWKWARD_STRINGS = ["yes", "No", "off", "ON", "y", "~", "null", "Null", "true", "1", "-1", "0x1f", "0o17",
                   "1_000", "1:30", "1e3", "1.5", ".5", ".inf", "-.inf", ".nan", "2001-12-14", "12:30:00",
                   "", " ", " lead", "trail ", "a: b", "a #b", "#c", "- x", "-", "---", "...", "...x",
                   "a\nb", "\t", "x\x7f", "é", "\U0001F600", "'q'", '"q"', "[x]", "{x}", "a,b", "&a",
                   "*a", "!t", "%p", "@", "`", "|", ">", "?", "=", "<<", "x" * 200, "a b" * 40]
PLAIN_STRINGS = st.from_regex(archive_module._PLAIN, fullmatch=True)
STRINGS = st.sampled_from(AWKWARD_STRINGS) | st.text(max_size=12) | PLAIN_STRINGS
FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e300, math.nan, math.inf, -math.inf]) | st.floats()
LEAVES = (STRINGS | FLOATS | st.booleans() | st.none()
          | st.integers() | st.integers(min_value=-(2**200), max_value=2**200) | st.sampled_from([0, 1, True, False]))


def plain_key(key) -> bool:
    """Whether _summary_text writes key; PyYAML writes a key of 128 characters or more as "? key"."""
    return type(key) is str and len(key) < 128 and _plain(key)


KEYS = PLAIN_STRINGS.filter(plain_key)
BAD_KEYS = STRINGS.filter(lambda k: not plain_key(k)) | st.integers() | st.booleans() | st.none()


def collections(children):
    return st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=4)


TREES = st.one_of(st.lists(st.recursive(LEAVES, collections, max_leaves=12), max_size=4),
                  st.dictionaries(KEYS, st.recursive(LEAVES, collections, max_leaves=12), max_size=5))


def same(a, b) -> bool:
    """a == b with types kept apart (True is not 1), floats bit for bit and NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return (a != a and b != b) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def strings(tree, keys: bool):
    """The keys (keys=True) or the string values of tree."""
    if type(tree) is dict:
        for k, v in tree.items():
            if keys:
                yield k
            yield from strings(v, keys)
    elif type(tree) is list:
        for v in tree:
            yield from strings(v, keys)
    elif type(tree) is str and not keys:
        yield tree


@pytest.mark.parametrize("dumper", [name for name, d in DUMPERS.items() if d is not None])
class TestSummaryEmitter:
    """_summary_text against PyYAML on generated trees, with libyaml and with the pure-Python dumper."""

    @given(tree=TREES)
    @settings(max_examples=150, deadline=None)
    def test_loads_back_and_matches_the_dumper_where_plain(self, dumper, tree):
        with mock.patch.object(archive_module, "_DUMPER", DUMPERS[dumper]):
            text = _summary_text(tree)
        assert same(yaml.safe_load(text), tree), text
        if all(map(_plain, strings(tree, keys=False))):
            assert text == yaml.safe_dump(tree, sort_keys=False, default_flow_style=False)

    @given(tree=TREES, bad=st.sampled_from([np.float64(1.5), np.int64(3), np.bool_(True), np.str_("s"),
                                            (1, "x"), object()]))
    @settings(max_examples=40, deadline=None)
    def test_unsupported_types_raise_as_in_pyyaml(self, dumper, tree, bad):
        tree = {"tree": tree, "bad": [{"x": bad}]}
        with mock.patch.object(archive_module, "_DUMPER", DUMPERS[dumper]), \
                pytest.raises(yaml.representer.RepresenterError):
            _summary_text(tree)

    @given(tree=TREES, key=BAD_KEYS)
    @settings(max_examples=40, deadline=None)
    def test_keys_that_are_not_plain_raise(self, dumper, tree, key):
        tree = {"tree": tree, "bad": [{key: 1}]}
        with mock.patch.object(archive_module, "_DUMPER", DUMPERS[dumper]), \
                pytest.raises(yaml.representer.RepresenterError):
            _summary_text(tree)

    def test_each_awkward_string_as_key_and_value(self, dumper):
        for s in AWKWARD_STRINGS:
            with mock.patch.object(archive_module, "_DUMPER", DUMPERS[dumper]):
                for tree in ({"k": s}, [s, [s]], {"k": [{"k": s}]}):
                    text = _summary_text(tree)
                    assert same(yaml.safe_load(text), tree), text
                    if _plain(s):
                        assert text == yaml.safe_dump(tree, sort_keys=False, default_flow_style=False)
                if plain_key(s):
                    assert _summary_text({s: [{s: 1}]}) == yaml.safe_dump({s: [{s: 1}]}, sort_keys=False)
                else:
                    with pytest.raises(yaml.representer.RepresenterError):
                        _summary_text({"k": [{s: 1}]})

    @pytest.mark.parametrize("tree", [7, "s", None, (1, "x")])
    def test_bare_scalars_and_tuples_raise(self, dumper, tree):
        with mock.patch.object(archive_module, "_DUMPER", DUMPERS[dumper]), \
                pytest.raises(yaml.representer.RepresenterError):
            _summary_text(tree)


WRITERS = {
    "archive": lambda archive, path: archive.write(path),
    "summary": lambda archive, path: archive.write_summary(path),
    "csv": lambda archive, path: export_csv(archive, "map", path),
}


class TestFreshFiles:
    """Every writer unlinks the file at its path and creates a new one."""

    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("old", ["hard link", "symlink", "read-only"])
    def test_old_file_is_replaced_not_written_through(self, tmp_path, writer, old):
        write = WRITERS[writer]
        write(sample_archive(), tmp_path / "fresh")
        shared, path = tmp_path / "shared", tmp_path / "out"
        shared.write_bytes(b"old bytes, longer than nothing")
        if old == "hard link":
            os.link(shared, path)
        elif old == "symlink":
            path.symlink_to(shared)
        else:
            path.write_bytes(shared.read_bytes())
            path.chmod(0o444)
        write(sample_archive(), path)
        assert shared.read_bytes() == b"old bytes, longer than nothing"
        assert not path.is_symlink() and path.stat().st_mode & stat.S_IWUSR
        assert path.read_bytes() == (tmp_path / "fresh").read_bytes()

    def test_bad_dataset_name_raises_before_the_old_archive_is_touched(self, tmp_path):
        path = tmp_path / "a.bisim"
        sample_archive().write(path)
        before, inode = path.read_bytes(), path.stat().st_ino
        bad = sample_archive()
        bad.add("x" * 0x10000, np.zeros(2), [Axis("i", "count", np.arange(2))])
        with pytest.raises(ConfigError, match="too long"):
            bad.write(path)
        assert path.read_bytes() == before and path.stat().st_ino == inode

    def test_unwritable_summary_raises_before_the_old_one_is_touched(self, tmp_path):
        path = tmp_path / "s.yaml"
        sample_archive().write_summary(path)
        before, inode = path.read_bytes(), path.stat().st_ino
        bad = sample_archive()
        bad.summary["peak"] = np.float64(1.5)
        with pytest.raises(yaml.representer.RepresenterError):
            bad.write_summary(path)
        assert path.read_bytes() == before and path.stat().st_ino == inode

    @pytest.mark.parametrize("dataset, error", [("absent", ConfigError), ("cube", UsageError)])
    def test_bad_csv_dataset_raises_before_the_old_csv_is_touched(self, tmp_path, dataset, error):
        archive = sample_archive()
        archive.add("cube", np.zeros((2, 2, 2)), [Axis(a, "count", np.arange(2)) for a in "ijk"])
        path = tmp_path / "map.csv"
        export_csv(archive, "map", path)
        before, inode = path.read_bytes(), path.stat().st_ino
        with pytest.raises(error):
            export_csv(archive, dataset, path)
        assert path.read_bytes() == before and path.stat().st_ino == inode


def read_bytes(path, raw):
    path.write_bytes(raw)
    return ResultArchive.read(path)


class TestCorruptArchive:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_truncation_at_any_offset_is_a_config_error(self, one_dataset, data):
        raw, path = one_dataset
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(ConfigError):
            read_bytes(path, raw[:cut])

    def test_every_truncation_offset_is_a_config_error(self, one_dataset):
        raw, path = one_dataset
        for cut in range(len(raw)):
            with pytest.raises(ConfigError):
                read_bytes(path, raw[:cut])

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_flipped_header_byte_is_a_config_error(self, one_dataset, data):
        raw, path = one_dataset
        at = data.draw(st.integers(0, 11))  # magic, version, dataset count
        flipped = bytearray(raw)
        flipped[at] ^= data.draw(st.integers(1, 255))
        with pytest.raises(ConfigError):
            read_bytes(path, bytes(flipped))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_flipped_byte_reads_or_is_a_config_error(self, one_dataset, data):
        raw, path = one_dataset
        at = data.draw(st.integers(0, len(raw) - 1))
        flipped = bytearray(raw)
        flipped[at] ^= data.draw(st.integers(1, 255))
        try:
            read_bytes(path, bytes(flipped))
        except ConfigError:
            pass

    def test_trailing_bytes_rejected(self, one_dataset):
        raw, path = one_dataset
        with pytest.raises(ConfigError, match="unexpected bytes"):
            read_bytes(path, raw + b"\x00")


class TestCsvExport:
    def test_one_d_float_round_trip_17_digits(self, tmp_path):
        archive = sample_archive()
        path = tmp_path / "floats.csv"
        export_csv(archive, "floats", path)
        back = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)
        assert np.array_equal(back, archive.datasets["floats"].values)

    def test_one_d_complex_exports_db(self, tmp_path):
        archive = ResultArchive()
        vals = np.array([1.0 + 0j, 10.0 + 0j, 0.0 + 0j])
        archive.add("p", vals, [Axis("delay", "ns", np.array([0.0, 1.0, 2.0]))])
        path = tmp_path / "p.csv"
        export_csv(archive, "p", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "delay_ns,power_db"
        db = [float(l.split(",")[1]) for l in lines[1:]]
        assert db[0] == pytest.approx(0.0)
        assert db[1] == pytest.approx(20.0)
        assert db[2] == -300.0

    def test_two_d_header_row_of_axis_values(self, tmp_path):
        archive = sample_archive()
        path = tmp_path / "map.csv"
        export_csv(archive, "map", path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 9
        header = lines[0].split(",")
        assert len(header) == 7
        assert header[1] == "0"

    def test_every_value_written_as_17_significant_digits(self, tmp_path):
        # text oracle: one format() call per value, special values included
        rng = np.random.default_rng(78)
        vals = rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-300, 300, (5, 4))
        vals[0, :] = [0.0, -0.0, np.inf, -np.inf]
        vals[1, 0] = np.nan
        rows, cols = np.array([0.1, 1e16, -2.5e-7, 3.0, 5e-324]), np.array([1 / 3, 2.0, -0.0, 1e300])
        archive = ResultArchive()
        archive.add("m", vals, [Axis("r", "m", rows), Axis("c", "s", cols)])
        archive.add("v", vals[:, 0], [Axis("r", "m", rows)])
        export_csv(archive, "m", tmp_path / "m.csv")
        export_csv(archive, "v", tmp_path / "v.csv")
        g = lambda x: format(float(x), ".17g")
        assert (tmp_path / "m.csv").read_text().splitlines() == [
            "r_m\\c_s," + ",".join(map(g, cols)),
            *(",".join(map(g, [a, *row])) for a, row in zip(rows, vals)),
        ]
        assert (tmp_path / "v.csv").read_text().splitlines() == [
            "r_m,value", *(f"{g(a)},{g(v)}" for a, v in zip(rows, vals[:, 0]))
        ]

    def test_large_complex_export_streams_in_bounded_memory(self, tmp_path):
        rng = np.random.default_rng(6)
        rows, cols = np.arange(256.0) * 1e-4, 3.7e9 + np.arange(512.0) * 78125.0
        values = rng.normal(size=(256, 512)) + 1j * rng.normal(size=(256, 512))
        archive = ResultArchive()
        archive.add("cfr", values, [Axis("slow_time", "s", rows), Axis("subcarrier", "Hz", cols)])
        path = tmp_path / "cfr.csv"
        _, peak = peak_traced_bytes(lambda: export_csv(archive, "cfr", path))
        assert peak < 2e6   # the 2.1 MB dataset alone exceeds it
        lines = path.read_text().splitlines()
        assert lines[0] == "slow_time_s\\subcarrier_Hz," + ",".join("%.17g" % c for c in cols.tolist())
        table = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in table] == ["%.17g" % a for a in rows.tolist()]
        texts = [text for row in table for text in row[1:]]
        assert all(DB_TEXT.fullmatch(text) for text in texts)
        err = np.abs(np.array(texts, dtype=float).reshape(values.shape) - magnitude_db(values))
        assert err.max() <= 5.0001e-11

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6), elements=st.one_of(
        st.sampled_from([-300.0, 6163.0103, 4e-11, -4e-11]),
        st.integers(-299, 6199).map(lambda k: k - 4e-11),   # must carry to k.0000000000
        st.integers(-3 * 10**12, 62 * 10**12).map(lambda n: (n + 0.5) / 1e10),   # near a half: exact rounding
        st.floats(-300.0, 6200.0, exclude_max=True))))
    def test_db_text_is_10_decimal_fixed_point(self, db):
        lines = _db_text(db).split("\n")
        assert lines.pop() == ""
        texts = np.array([line.split(",") for line in lines])
        assert texts.shape == db.shape
        for text, value in zip(texts.ravel().tolist(), db.ravel().tolist()):
            assert DB_TEXT.fullmatch(text) and text != "-0.0000000000", text
            # exact rational error: parsing to a double would add up to half an ulp of the value
            assert abs(Fraction(text) - Fraction(value)) <= DB_TEXT_ERROR, (text, value)

    def test_non_finite_db_among_finite_values(self, tmp_path):
        vals = np.array([[1.0, np.inf + 0j, 0.5j], [complex(np.nan, 1.0), 0.0, 10.0]])
        archive = ResultArchive()
        archive.add("m", vals, [Axis("r", "m", np.array([0.5, 1.5])), Axis("c", "s", np.arange(3.0))])
        export_csv(archive, "m", tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text().splitlines() == [
            "r_m\\c_s,0,1,2",
            "0.5,0.0000000000,inf,-6.0205999133",
            "1.5,nan,-300.0000000000,20.0000000000",
        ]
        # -inf cannot come out of magnitude_db, whose floor is finite; the text kernel spells it too
        assert _db_text(np.array([[-np.inf, -7.5], [np.nan, np.inf]])) == "-inf,-7.5000000000\nnan,inf\n"

    def test_zero_column_complex_export_writes_the_row_axis(self, tmp_path):
        archive = ResultArchive()
        archive.add("e", np.zeros((2, 0), complex), [Axis("r", "m", np.array([1.0, 2.0])), Axis("c", "s", [])])
        export_csv(archive, "e", tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_text().splitlines() == ["r_m\\c_s", "1", "2"]

    def test_three_d_rejected_with_advice(self, tmp_path):
        archive = sample_archive()
        with pytest.raises(UsageError, match="slice"):
            export_csv(archive, "tensor", tmp_path / "t.csv")

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(ConfigError):
            export_csv(sample_archive(), "nope", tmp_path / "x.csv")
