"""Checksums, atomic writes, JSONL and logs, binary matrices, manifest, lock."""

import errno
import json
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tabret.fsio as fsio
from tabret.fsio import (
    ARTIFACT_FORMAT,
    ArtifactError,
    JsonLinesError,
    Manifest,
    WorkspaceLock,
    atomic_write_bytes,
    atomic_write_text,
    checksum,
    read_jsonl,
    read_log,
    read_matrix_bin,
    read_records,
    sha256_json,
    sweep_temp_files,
    write_jsonl,
    write_matrix_bin,
)


class TestChecksum:
    def test_check_value(self):
        # pins the trailer: BLAKE2b at digest_size 8, raw bytes
        assert checksum(b"123456789").hex() == "7e73edbfe1aa9531"

    def test_parts_hash_as_their_concatenation(self):
        m = np.arange(6.0).reshape(2, 3)
        assert checksum(b"head", m, b"") == checksum(b"head" + m.tobytes())
        assert checksum() == checksum(b"")

    def test_detects_single_bit_flip(self):
        data = bytearray(b"some stable artifact bytes")
        reference = checksum(bytes(data))
        data[5] ^= 0x20
        assert checksum(bytes(data)) != reference


def full_disk_for(monkeypatch, name: str) -> None:
    """Send each atomic write of a file called name to /dev/full, whose
    writes fail with ENOSPC as on a full disk."""
    mkstemp = tempfile.mkstemp

    def diverted(*args, prefix=None, **kwargs):
        fd, tmp = mkstemp(*args, prefix=prefix, **kwargs)
        if prefix == f".{name}.":
            full = os.open("/dev/full", os.O_WRONLY)
            os.dup2(full, fd)
            os.close(full)
        return fd, tmp

    monkeypatch.setattr(tempfile, "mkstemp", diverted)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


class TestAtomicWrites:
    def test_writes_bytes(self, tmp_path):
        p = tmp_path / "f.bin"
        atomic_write_bytes(p, b"abc")
        assert p.read_bytes() == b"abc"

    def test_writes_parts_in_order(self, tmp_path):
        p = tmp_path / "f.bin"
        m = np.arange(6.0).reshape(2, 3)
        atomic_write_bytes(p, b"head", m, memoryview(b"tail"), np.zeros((0, 3)))
        assert p.read_bytes() == b"head" + m.tobytes() + b"tail"

    def test_replaces_existing(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(p, "old")
        atomic_write_text(p, "new")
        assert p.read_text() == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "f.txt", "data")
        assert sorted(q.name for q in tmp_path.iterdir()) == ["f.txt"]

    @needs_dev_full
    def test_full_disk_error_names_the_file_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        full_disk_for(monkeypatch, "f.txt")
        with pytest.raises(OSError) as exc_info:
            atomic_write_text(tmp_path / "f.txt", "data")
        assert (exc_info.value.errno, exc_info.value.filename) == (
            errno.ENOSPC, str(tmp_path / "f.txt"))
        assert list(tmp_path.iterdir()) == []

    def test_sweep_removes_only_temp_files_of_that_directory(self, tmp_path):
        for name in (".f.txt.k2j4x9_a.tmp", "f.txt", ".lock", "sub/.g.bin.abc.tmp"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text("x")
        sweep_temp_files(tmp_path)
        assert sorted(q.name for q in tmp_path.iterdir()) == [".lock", "f.txt", "sub"]
        assert (tmp_path / "sub" / ".g.bin.abc.tmp").exists()
        sweep_temp_files(tmp_path / "absent")


class TestJsonl:
    def test_round_trip_sorted_keys(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"b": 2, "a": 1}])
        assert p.read_text() == '{"a": 1, "b": 2}\n'
        assert list(read_jsonl(p)) == [{"a": 1, "b": 2}]

    def test_read_error_names_line(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            list(read_jsonl(p))

    def test_bad_byte_names_its_line_past_the_first_read(self, tmp_path):
        # the text reader decodes ahead of the line it yields
        p = tmp_path / "r.jsonl"
        good = b'{"ok": 1}\n' * 3000
        p.write_bytes(good + b'{"bad": "\xff"}\n' + good)
        with pytest.raises(JsonLinesError, match=":3001: invalid UTF-8"):
            list(read_jsonl(p))

    def test_lone_surrogate_escape_names_its_line(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"ok": "\\ud83d\\ude00"}\n{"bad": ["x", "\\udfff"]}\n')
        with pytest.raises(JsonLinesError, match=r":2: lone surrogate '\\udfff' is not Unicode text"):
            list(read_jsonl(p))
        p.write_text('{"ok": "\\ud83d\\ude00", "path": "C:\\\\u"}\n')
        assert list(read_jsonl(p)) == [{"ok": "\U0001f600", "path": "C:\\u"}]


# text holding `}, {`, control and non-BMP characters, which json.dumps
# writes raw or as \\u escapes (a non-BMP one as a surrogate pair)
TEXT = st.text(st.sampled_from(list('ab}{, :"\\\x01\t\u00e9\u2028\U0001f600')), max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


@st.composite
def object_lines(draw) -> str:
    """One JSON object on one line, maybe with a surrogate escape, paired
    or lone, written into a string of its own."""
    obj = draw(st.dictionaries(TEXT, JSON_VALUES, max_size=3))
    line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    escape = draw(st.sampled_from(["", "\\ud83d\\ude00", "\\udfff", "\\uD800", "x\\ud83d"]))
    if escape:
        line = line[:-1] + (", " if obj else "") + f'"s": "{escape}"}}'
    return line


# lines of a JSON Lines file: objects (with JSON whitespace around some),
# two values on one line, fragments and other values, and blank lines
SPACES = st.sampled_from(["", " ", "\t "])
LINES = st.one_of(
    object_lines(),
    st.tuples(SPACES, object_lines(), SPACES).map("".join),
    st.tuples(object_lines(), st.sampled_from([", ", " ", ""]),
              object_lines() | JSON_VALUES.map(json.dumps)).map("".join),
    st.sampled_from(['{"a": [1', "2]}", "}", '{"a": "\\x"}', "[{}]", "7", '"s"', "null", "not json"]),
    st.sampled_from(["", " ", "\t", "\x0c"]),
)


SPLIT_RECORD = b'{"a": [1\n2]}\n{"b": 1}, {"c": 2}\n'

# fault -> (edit of one line's bytes, what JsonLinesError says of it); a
# cut line is the last line, left without its newline
LINE_FAULTS = {
    "bad-middle-line": (lambda line: line[: len(line) // 2], "invalid JSON"),
    "two-values": (lambda line: line + b", {}", "invalid JSON"),
    "array": (lambda line: b"[" + line + b"]", "expected a JSON object"),
    "cut-last-line": (lambda line: line[: len(line) // 2], "invalid JSON"),
    "not-utf8": (lambda line: line[:5] + b"\xff" + line[6:], "invalid UTF-8"),
    "lone-surrogate": (lambda line: line.replace(b'": "', b'": "\\udfff', 1), "lone surrogate"),
    # a record split over two lines, then a line of two values: as many
    # values as lines, so only a per-line decode sees the split
    "split-record": (lambda line: SPLIT_RECORD.rstrip(b"\n"), "invalid JSON"),
}


def inject_fault(path: Path, fault: str) -> int:
    """Damage one line of a JSON Lines file as LINE_FAULTS[fault] says;
    return its line number."""
    lines = path.read_bytes().splitlines(keepends=True)
    at = len(lines) - 1 if fault == "cut-last-line" else len(lines) // 2
    edit, _ = LINE_FAULTS[fault]
    lines[at] = edit(lines[at].rstrip(b"\n")) + (b"" if fault == "cut-last-line" else b"\n")
    path.write_bytes(b"".join(lines))
    return at + 1


class TestReadJsonlFaults:
    RECORDS = [{"i": i, "text": f"row {i}"} for i in range(5)]

    @pytest.mark.parametrize("fault", LINE_FAULTS)
    def test_fault_raises_naming_its_line(self, tmp_path, fault):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, self.RECORDS)
        line = inject_fault(p, fault)
        with pytest.raises(JsonLinesError, match=f"r.jsonl:{line}: {LINE_FAULTS[fault][1]}"):
            read_jsonl(p)

    def test_crlf_and_cr_line_ends_parse_as_a_text_read_sees_them(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_bytes(b'{"i": 0}\r\n{"i": 1}\r\n\r\n{"i": 2}\r{"i": 3}\r\n')
        assert read_jsonl(p) == [{"i": i} for i in range(4)]
        p.write_bytes(b'{"i": 0}\r{"i": 1}\r\nnot json\r\n')
        with pytest.raises(JsonLinesError, match=":3: invalid JSON"):
            read_jsonl(p)

    def test_escapes_that_are_no_lone_surrogate_round_trip(self, tmp_path):
        p = tmp_path / "r.jsonl"
        records = [{"i": i, "text": f"line {i}\x01 C:\\udocs \U0001f600"} for i in range(100)]
        write_jsonl(p, records)
        assert read_jsonl(p) == records

    # one bug shrunk at a time keeps a failing run to seconds, not minutes
    @settings(deadline=None, report_multiple_bugs=False)
    @example(pieces=[(line, "\n") for line in SPLIT_RECORD.decode().splitlines()], cut=False)
    @given(pieces=st.lists(st.tuples(LINES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
           cut=st.booleans())
    def test_each_line_parses_as_json_loads_parses_it(self, tmp_path_factory, pieces, cut):
        text = "".join(line + end for line, end in pieces)
        data = (text[: len(text) - len(pieces[-1][1])] if pieces and cut else text).encode()
        p = tmp_path_factory.getbasetemp() / "r.jsonl"  # each example writes it anew
        p.write_bytes(data)
        expected = per_line_oracle(p.read_text(encoding="utf-8"))
        readers = [read_jsonl, lambda path: read_records(path, {}, dict)]
        if data.endswith(b"\n") or not data:  # read_log repairs a last line without one
            readers.append(read_log)
        for read in readers:
            if isinstance(expected, list):
                assert read(p) == expected
            else:
                with pytest.raises(JsonLinesError, match=rf"r\.jsonl:{expected[0]}: {expected[1]}"):
                    read(p)


def lone_surrogate(value) -> bool:
    """True when a parsed JSON value holds a surrogate code point, which
    json.loads leaves only for an escape with no pair."""
    if isinstance(value, str):
        return any("\ud800" <= c <= "\udfff" for c in value)
    if isinstance(value, dict):
        return any(map(lone_surrogate, [*value, *value.values()]))
    return isinstance(value, list) and any(map(lone_surrogate, value))


def per_line_oracle(text: str) -> list[dict] | tuple[int, str]:
    """What a JSON Lines reader must make of text, as a text-mode read
    splits it: the records of its non-blank lines, each by json.loads, or
    (line number, problem) of the first line that is no JSON object or
    that holds a lone surrogate."""
    records = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            return line_no, "invalid JSON"
        if not isinstance(obj, dict):
            return line_no, "expected a JSON object"
        if lone_surrogate(obj):
            return line_no, "lone surrogate"
        records.append(obj)
    return records


class TestTypedRecords:
    """read_records' check of each record's fields, and of what parse makes of it."""

    FIELDS = {"id": str, "n": int, "x": float, "c": int | None, "rows": list[int],
              "ids": tuple[str, ...]}
    GOOD = {"id": "a", "n": 1, "x": 2, "c": None, "rows": [1, 2], "ids": ["p"], "extra": True}

    def _read(self, tmp_path, *records):
        p = tmp_path / "r.jsonl"
        # a blank line keeps line numbers apart from record positions
        p.write_text("\n" + "".join(json.dumps(r) + "\n" for r in records))
        return read_records(p, self.FIELDS, dict)

    def test_well_typed_records_pass_through(self, tmp_path):
        other = {**self.GOOD, "x": 0.5, "c": 3, "rows": []}
        assert self._read(tmp_path, self.GOOD, other) == [self.GOOD, other]

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("id", 1, "expected str"),
            ("n", True, "expected int"),
            ("n", 1.0, "expected int"),
            ("x", "2", "expected float"),
            ("c", "3", "expected int | None"),
            ("rows", [1, "2"], "expected list[int]"),
            ("rows", None, "expected list[int]"),
            ("ids", "p", "expected tuple[str, ...]"),
        ],
    )
    def test_ill_typed_field_names_its_line(self, tmp_path, field, value, problem):
        with pytest.raises(JsonLinesError, match=rf":3: field '{field}': {re.escape(problem)}$"):
            self._read(tmp_path, self.GOOD, {**self.GOOD, field: value})

    def test_missing_field_names_its_line(self, tmp_path):
        bad = {k: v for k, v in self.GOOD.items() if k != "c"}
        with pytest.raises(JsonLinesError, match=r":4: field 'c': missing$"):
            self._read(tmp_path, self.GOOD, self.GOOD, bad)

    def test_value_error_from_parse_names_its_line(self, tmp_path):
        def parse(rec):
            if rec["n"] < 0:
                raise ValueError("n must be >= 0")
            return rec

        p = tmp_path / "r.jsonl"
        p.write_bytes(b'{"id": "a", "n": 1, "x": 0, "c": null, "rows": [], "ids": []}\r\n\r\n'
                      b'{"id": "b", "n": -1, "x": 0, "c": 2, "rows": [], "ids": []}\r\n')
        with pytest.raises(JsonLinesError, match=r"r\.jsonl:3: n must be >= 0$"):
            read_records(p, self.FIELDS, parse)


class TestRecordsOfALog:
    """read_records checks the records read_log gives as it checks a file's."""

    FIELDS = {"key": str}

    def test_torn_tail_is_dropped(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_bytes(b'{"key": "a"}\n{"key": "b"}\n{"key": "\xe2\x82')
        assert read_records(p, self.FIELDS, dict, read_log) == [{"key": "a"}, {"key": "b"}]

    @pytest.mark.parametrize("tail", [b"", b'{"key": "\xe2\x82'], ids=["whole", "torn-utf-8"])
    def test_bad_record_names_its_line(self, tmp_path, tail):
        p = tmp_path / "log.jsonl"
        p.write_bytes(b'{"key": "a"}\n\n{"key": 2}\n' + tail)
        with pytest.raises(JsonLinesError, match=f"^{re.escape(str(p))}:3: field 'key': expected str"):
            read_records(p, self.FIELDS, dict, read_log)


class TestMatrixBin:
    def test_round_trip(self, tmp_path, rng):
        m = rng.normal(size=(7, 5))
        p = tmp_path / "m.bin"
        write_matrix_bin(p, m)
        out = read_matrix_bin(p)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, m)

    def test_empty_matrix(self, tmp_path):
        p = tmp_path / "m.bin"
        write_matrix_bin(p, np.zeros((0, 4)))
        assert read_matrix_bin(p).shape == (0, 4)

    def test_corruption_detected(self, tmp_path, rng):
        p = tmp_path / "m.bin"
        write_matrix_bin(p, rng.normal(size=(3, 3)))
        raw = bytearray(p.read_bytes())
        raw[12] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checksum"):
            read_matrix_bin(p)

    def test_truncation_detected(self, tmp_path, rng):
        p = tmp_path / "m.bin"
        write_matrix_bin(p, rng.normal(size=(3, 3)))
        raw = p.read_bytes()
        p.write_bytes(raw[:-4])
        with pytest.raises(ValueError):
            read_matrix_bin(p)

    def test_layout_and_trailer(self, tmp_path):
        p = tmp_path / "m.bin"
        m = np.arange(6, dtype=np.float64).reshape(2, 3)
        write_matrix_bin(p, m)
        raw = p.read_bytes()
        assert len(raw) == 16 + 8 * m.size
        assert raw[-8:] == checksum(raw[:-8])

    def test_every_single_byte_flip_rejected(self, tmp_path, rng):
        p = tmp_path / "m.bin"
        write_matrix_bin(p, rng.normal(size=(2, 3)))
        raw = p.read_bytes()
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 0xFF
            p.write_bytes(bytes(flipped))
            with pytest.raises(ArtifactError, match="checksum"):
                read_matrix_bin(p)

    @pytest.mark.parametrize("cut", range(1, 9))
    def test_truncation_by_up_to_a_trailer_rejected(self, tmp_path, rng, cut):
        p = tmp_path / "m.bin"
        write_matrix_bin(p, rng.normal(size=(2, 3)))
        p.write_bytes(p.read_bytes()[:-cut])
        with pytest.raises(ArtifactError):
            read_matrix_bin(p)


def traced_peak(fn):
    """fn's result, and the peak of the memory tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMatrixBinCopies:
    """A matrix crosses the disk in one copy. The matrix is a serve build's
    4800 x 64 instance vectors (2.46 MB); 64 KiB covers the header, the
    hash and the file objects (numpy 2.4.6, CPython 3.11)."""

    SLACK = 64 * 1024

    @pytest.fixture
    def matrix(self, rng):
        return rng.normal(size=(4800, 64))

    def test_write_allocates_no_copy_of_the_matrix(self, tmp_path, matrix):
        # a tobytes copy and a concatenation with the header hold 2x the matrix
        _, peak = traced_peak(lambda: write_matrix_bin(tmp_path / "m.bin", matrix))
        assert peak < self.SLACK

    def test_read_allocates_the_matrix_once(self, tmp_path, matrix):
        p = tmp_path / "m.bin"
        write_matrix_bin(p, matrix)
        out, peak = traced_peak(lambda: read_matrix_bin(p))
        assert out.tobytes() == matrix.tobytes()
        assert peak <= matrix.nbytes + self.SLACK

    @pytest.mark.parametrize(
        "trailer, problem",
        [("kept", "checksum mismatch"), ("rewritten", "payload size does not match header")],
    )
    def test_a_header_claiming_more_rows_allocates_nothing_by_them(
        self, tmp_path, matrix, trailer, problem
    ):
        # a million rows of dim 64 would be 512 MB
        p = tmp_path / "m.bin"
        write_matrix_bin(p, matrix)
        raw = bytearray(p.read_bytes())
        raw[:4] = struct.pack("<I", 1_000_000)
        if trailer == "rewritten":
            raw[-8:] = checksum(bytes(raw[:-8]))
        p.write_bytes(bytes(raw))

        def read():
            with pytest.raises(ArtifactError, match=f"^{re.escape(str(p))}: {problem}"):
                read_matrix_bin(p)

        assert traced_peak(read)[1] < self.SLACK


class TestManifest:
    def _touch(self, path, text):
        path.write_text(text)
        return path

    def test_fresh_after_record(self, tmp_path):
        ws = tmp_path
        src = self._touch(ws / "in.txt", "input")
        out = self._touch(ws / "out.txt", "output")
        man = Manifest(ws)
        man.record("embed", "cfg123", [src], [out], 0.5)
        assert man.is_fresh("embed", "cfg123")

    def test_stale_when_config_hash_changes(self, tmp_path):
        src = self._touch(tmp_path / "in.txt", "input")
        out = self._touch(tmp_path / "out.txt", "output")
        man = Manifest(tmp_path)
        man.record("embed", "cfg123", [src], [out], 0.5)
        assert not man.is_fresh("embed", "other")

    def test_stale_when_input_changes(self, tmp_path):
        src = self._touch(tmp_path / "in.txt", "input")
        out = self._touch(tmp_path / "out.txt", "output")
        man = Manifest(tmp_path)
        man.record("embed", "cfg123", [src], [out], 0.5)
        src.write_text("different input")
        assert not Manifest(tmp_path).is_fresh("embed", "cfg123")

    def test_stale_when_output_deleted(self, tmp_path):
        src = self._touch(tmp_path / "in.txt", "input")
        out = self._touch(tmp_path / "out.txt", "output")
        man = Manifest(tmp_path)
        man.record("embed", "cfg123", [src], [out], 0.5)
        out.unlink()
        assert not Manifest(tmp_path).is_fresh("embed", "cfg123")

    def test_latest_record_wins(self, tmp_path):
        src = self._touch(tmp_path / "in.txt", "v1")
        out = self._touch(tmp_path / "out.txt", "o1")
        man = Manifest(tmp_path)
        man.record("embed", "cfgA", [src], [out], 0.1)
        src.write_text("v2")
        man = Manifest(tmp_path)
        man.record("embed", "cfgB", [src], [out], 0.1)
        assert man.is_fresh("embed", "cfgB")
        assert not man.is_fresh("embed", "cfgA")

    def test_survives_reload(self, tmp_path):
        src = self._touch(tmp_path / "in.txt", "input")
        out = self._touch(tmp_path / "out.txt", "output")
        Manifest(tmp_path).record("embed", "cfg123", [src], [out], 0.5)
        assert Manifest(tmp_path).is_fresh("embed", "cfg123")

    def test_unknown_stage_not_fresh(self, tmp_path):
        assert not Manifest(tmp_path).is_fresh("embed", "whatever")

    def _recorded(self, tmp_path):
        src = self._touch(tmp_path / "in.txt", "input")
        out = self._touch(tmp_path / "out.txt", "output")
        Manifest(tmp_path).record("embed", "cfg123", [src], [out], 0.5)
        return tmp_path / "manifest.jsonl"

    def test_entry_records_artifact_format(self, tmp_path):
        entry = json.loads(self._recorded(tmp_path).read_text())
        assert entry["artifact_format"] == ARTIFACT_FORMAT

    @pytest.mark.parametrize("stored", [None, ARTIFACT_FORMAT - 1])
    def test_entry_of_another_format_is_stale(self, tmp_path, stored):
        # a workspace written under an older artifact layout rebuilds
        path = self._recorded(tmp_path)
        entry = json.loads(path.read_text())
        if stored is None:
            del entry["artifact_format"]
        else:
            entry["artifact_format"] = stored
        path.write_text(json.dumps(entry) + "\n")
        assert not Manifest(tmp_path).is_fresh("embed", "cfg123")

    def test_torn_final_line_dropped_and_next_record_readable(self, tmp_path):
        # fault injection: a kill in the middle of record()'s append
        path = self._recorded(tmp_path)
        with path.open("a") as fh:
            fh.write('{"stage": "ev')
        torn = path.read_bytes()
        man = Manifest(tmp_path)
        assert man.is_fresh("embed", "cfg123")
        assert path.read_bytes() == torn  # read past, not cut
        out = self._touch(tmp_path / "report.txt", "r")
        man.record("eval", "cfgE", [], [out], 0.1)
        assert [line["stage"] for line in read_jsonl(path)] == ["embed", "eval"]
        reloaded = Manifest(tmp_path)
        assert reloaded.is_fresh("embed", "cfg123") and reloaded.is_fresh("eval", "cfgE")

    def test_bad_line_before_the_last_still_raises(self, tmp_path):
        path = self._recorded(tmp_path)
        good = path.read_text()
        path.write_text('{"stage": "ev\n' + good)
        with pytest.raises(ValueError, match=":1"):
            Manifest(tmp_path)


class TestIsOutdated:
    """A stage's outputs are outdated when made under other settings or from
    an input rewritten since; a damaged or missing input is not a rewrite."""

    @pytest.fixture
    def chain(self, tmp_path):
        # source.txt (no writer) -> ingest -> a.txt -> embed -> b.txt
        (tmp_path / "source.txt").write_text("s1")
        (tmp_path / "a.txt").write_text("a1")
        (tmp_path / "b.txt").write_text("b1")
        man = Manifest(tmp_path)
        man.record("ingest", "cfgI", [tmp_path / "source.txt"], [tmp_path / "a.txt"], 0.1)
        man.record("embed", "cfgE", [tmp_path / "a.txt"], [tmp_path / "b.txt"], 0.1)
        return tmp_path

    def test_current_stage_is_not_outdated(self, chain):
        man = Manifest(chain)
        assert not man.is_outdated("ingest", "cfgI") and not man.is_outdated("embed", "cfgE")

    def test_missing_entry_or_other_settings_is_outdated(self, chain):
        man = Manifest(chain)
        assert man.is_outdated("cluster", "cfgC") and man.is_outdated("embed", "other")

    def test_input_rewritten_by_its_writer_is_outdated(self, chain):
        (chain / "a.txt").write_text("a2")
        man = Manifest(chain)
        man.record("ingest", "cfgI", [chain / "source.txt"], [chain / "a.txt"], 0.1)
        assert man.is_outdated("embed", "cfgE")

    def test_damaged_input_is_not_outdated(self, chain):
        (chain / "a.txt").write_text("a2")  # not what ingest recorded
        assert not Manifest(chain).is_outdated("embed", "cfgE")

    def test_changed_input_without_a_writer_is_outdated(self, chain):
        (chain / "source.txt").write_text("s2")
        assert Manifest(chain).is_outdated("ingest", "cfgI")

    def test_missing_input_is_not_outdated(self, chain):
        (chain / "source.txt").unlink()
        (chain / "a.txt").unlink()
        man = Manifest(chain)
        assert not man.is_outdated("ingest", "cfgI") and not man.is_outdated("embed", "cfgE")


def _settled_clock(ws):
    """The lock's status after touching it, once the filesystem's clock is
    past every change in ws."""
    stats = [p.stat() for p in ws.iterdir()]
    newest = max(max(st.st_mtime_ns, st.st_ctime_ns) for st in stats)
    with WorkspaceLock(ws) as lock:
        while (clock := lock.touch()).st_mtime_ns <= newest:
            time.sleep(0.001)
    return clock


class TestStatStamps:
    """A digest computed for a freshness verdict is stored with its file's
    stat stamp, and reused unhashed while that stamp still holds."""

    @pytest.fixture
    def ws(self, tmp_path):
        (tmp_path / "in.txt").write_text("input")
        (tmp_path / "out.txt").write_text("output")
        Manifest(tmp_path).record("embed", "cfg", [tmp_path / "in.txt"], [tmp_path / "out.txt"], 0.1)
        return tmp_path

    @pytest.fixture
    def hashed(self, monkeypatch):
        calls = Counter()
        real = fsio.sha256_file

        def counting(path):
            calls[os.path.basename(path)] += 1
            return real(path)

        monkeypatch.setattr(fsio, "sha256_file", counting)
        return calls

    @staticmethod
    def stamp_lines(ws):
        lines = map(json.loads, (ws / "manifest.jsonl").read_text().splitlines())
        return [line for line in lines if "stamps" in line]

    def stamp(self, ws):
        """Check freshness under a settled clock and save the stamps."""
        man = Manifest(ws, _settled_clock(ws))
        assert man.is_fresh("embed", "cfg")
        man.save_stamps()

    def test_a_later_manifest_reuses_the_stamped_digests(self, ws, hashed):
        self.stamp(ws)
        (line,) = self.stamp_lines(ws)
        assert set(line["stamps"]) == {"in.txt", "out.txt"}
        st = (ws / "in.txt").stat()
        assert line["stamps"]["in.txt"] == {
            "ino": st.st_ino, "size": st.st_size, "mtime_ns": st.st_mtime_ns,
            "ctime_ns": st.st_ctime_ns, "sha256": fsio.sha256_file(ws / "in.txt"),
        }
        assert max(st.st_mtime_ns, st.st_ctime_ns) < line["reference_ns"]
        hashed.clear()
        manifest = (ws / "manifest.jsonl").read_bytes()
        man = Manifest(ws, _settled_clock(ws))
        assert man.is_fresh("embed", "cfg")
        man.save_stamps()
        assert hashed == Counter()
        assert (ws / "manifest.jsonl").read_bytes() == manifest

    def test_record_stamps_a_settled_input_but_not_the_output_just_written(self, ws, hashed):
        clock = _settled_clock(ws)
        atomic_write_text(ws / "out.txt", "output")  # as its stage replaces it
        hashed.clear()
        Manifest(ws, clock).record("embed", "cfg", [ws / "in.txt"], [ws / "out.txt"], 0.1)
        (line,) = self.stamp_lines(ws)
        assert set(line["stamps"]) == {"in.txt"}
        assert hashed == Counter({"in.txt": 1, "out.txt": 1})

    def test_a_manifest_without_a_clock_takes_no_stamp(self, ws):
        man = Manifest(ws)
        assert man.is_fresh("embed", "cfg")
        man.record("ingest", "cfgI", [ws / "in.txt"], [ws / "out.txt"], 0.1)
        man.save_stamps()
        assert self.stamp_lines(ws) == []

    @pytest.mark.parametrize("missing", ["in.txt", "out.txt"])
    def test_record_of_a_missing_file_raises_and_writes_nothing(self, ws, missing):
        manifest = (ws / "manifest.jsonl").read_bytes()
        (ws / missing).unlink()
        with pytest.raises(FileNotFoundError, match=missing):
            Manifest(ws).record("embed", "cfg2", [ws / "in.txt"], [ws / "out.txt"], 0.1)
        assert (ws / "manifest.jsonl").read_bytes() == manifest

    def test_file_changed_since_the_clock_gets_no_stamp(self, ws):
        clock = _settled_clock(ws)
        (ws / "in.txt").write_text("input")  # the same bytes, changed after the clock
        man = Manifest(ws, clock)
        assert man.is_fresh("embed", "cfg")
        man.save_stamps()
        (line,) = self.stamp_lines(ws)
        assert set(line["stamps"]) == {"out.txt"}

    def test_file_on_another_filesystem_gets_no_stamp(self, ws):
        clock = _settled_clock(ws)
        elsewhere = SimpleNamespace(st_dev=clock.st_dev + 1, st_mtime_ns=clock.st_mtime_ns)
        man = Manifest(ws, elsewhere)
        assert man.is_fresh("embed", "cfg")
        man.save_stamps()
        assert self.stamp_lines(ws) == []

    def test_rewrite_with_the_old_size_and_mtime_is_rehashed(self, ws, hashed):
        self.stamp(ws)
        path = ws / "in.txt"
        before = path.stat()
        path.write_text("INPUT")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        hashed.clear()
        assert not Manifest(ws).is_fresh("embed", "cfg")
        assert hashed == Counter({"in.txt": 1})

    def test_stamp_an_earlier_run_took_of_a_rewritten_output_is_dropped(self, ws):
        self.stamp(ws)
        clock = _settled_clock(ws)
        atomic_write_text(ws / "out.txt", "output 2")
        Manifest(ws, clock).record("embed", "cfg", [ws / "in.txt"], [ws / "out.txt"], 0.1)
        (line,) = self.stamp_lines(ws)
        assert set(line["stamps"]) == {"in.txt"}
        assert Manifest(ws).is_fresh("embed", "cfg")

    def test_stamp_of_an_output_rewritten_by_record_is_dropped(self, ws):
        man = Manifest(ws, _settled_clock(ws))
        assert man.is_fresh("embed", "cfg")
        (ws / "out.txt").write_text("output 2")
        man.record("embed", "cfg", [ws / "in.txt"], [ws / "out.txt"], 0.1)
        man.save_stamps()
        (line,) = self.stamp_lines(ws)
        assert set(line["stamps"]) == {"in.txt"}
        assert Manifest(ws).is_fresh("embed", "cfg")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rec: {k: v for k, v in rec.items() if k != "ino"},
            lambda rec: {**rec, "size": float(rec["size"])},
            lambda rec: {**rec, "ctime_ns": str(rec["ctime_ns"])},
            lambda rec: list(rec.values()),
            lambda rec: "stamp",
            lambda rec: None,
        ],
        ids=["missing-ino", "float-size", "str-ctime", "list", "string", "null"],
    )
    def test_unusable_stamp_record_is_ignored(self, ws, hashed, edit):
        # a stamp that matches the file, under a wrong digest that would show if trusted
        st = (ws / "in.txt").stat()
        rec = {"ino": st.st_ino, "size": st.st_size, "mtime_ns": st.st_mtime_ns,
               "ctime_ns": st.st_ctime_ns, "sha256": "0" * 64}
        reference = _settled_clock(ws).st_mtime_ns
        with (ws / "manifest.jsonl").open("a") as fh:
            fh.write(json.dumps({"reference_ns": reference, "stamps": {"in.txt": edit(rec)}}) + "\n")
        hashed.clear()
        assert Manifest(ws).is_fresh("embed", "cfg")
        assert hashed == Counter({"in.txt": 1, "out.txt": 1})

    def test_later_unusable_stamp_record_outweighs_an_earlier_good_one(self, ws, hashed):
        self.stamp(ws)
        with (ws / "manifest.jsonl").open("a") as fh:
            fh.write(json.dumps({"reference_ns": 1, "stamps": {"in.txt": "gone"}}) + "\n")
        hashed.clear()
        assert Manifest(ws).is_fresh("embed", "cfg")
        assert hashed == Counter({"in.txt": 1})


class TestAppendedManifest:
    """A manifest that older code grew by appends, with several entries per
    stage and a stamp line per run, gives the verdicts of its live lines.
    The next write leaves only those, and a kill before that write's
    rename leaves the grown file as it was."""

    SETTINGS = [(stage, f"cfg{stage[0]}{r}") for stage in ("ingest", "embed", "cluster") for r in (0, 1)]

    @staticmethod
    def append(ws, line):
        with (ws / "manifest.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")

    @staticmethod
    def entry(ws, stage, config_hash, inputs, outputs):
        """The entry Manifest.record makes of files in ws."""
        def hashes(names):
            return {name: fsio.sha256_file(ws / name) for name in names}

        return {"stage": stage, "artifact_format": ARTIFACT_FORMAT, "config_hash": config_hash,
                "input_hashes": hashes(inputs), "output_hashes": hashes(outputs),
                "wall_time_s": 0.1}

    @staticmethod
    def stamp(path):
        st = path.stat()
        return {"ino": st.st_ino, "size": st.st_size, "mtime_ns": st.st_mtime_ns,
                "ctime_ns": st.st_ctime_ns, "sha256": fsio.sha256_file(path)}

    @pytest.fixture
    def grown(self, tmp_path):
        # source.txt -> ingest -> a.txt -> embed -> b.txt -> cluster -> c.txt;
        # ingest and embed re-run under alternating settings, and a later
        # run appends the stamps its freshness checks took: 1 + 8 * 3 lines
        ws = tmp_path
        for name in ("source", "b", "c"):
            (ws / f"{name}.txt").write_text(name)
        self.append(ws, self.entry(ws, "cluster", "cfgc0", ["b.txt"], ["c.txt"]))
        for r in range(8):
            (ws / "a.txt").write_text(f"a{r % 2}")
            (ws / "b.txt").write_text(f"b{r % 2}")
            self.append(ws, self.entry(ws, "ingest", f"cfgi{r % 2}", ["source.txt"], ["a.txt"]))
            self.append(ws, self.entry(ws, "embed", f"cfge{r % 2}", ["a.txt"], ["b.txt"]))
            # source.txt is stamped once; cluster's check stops at b.txt
            stamped = ["a.txt", "b.txt", *["source.txt"] * (r == 0)]
            reference = _settled_clock(ws).st_mtime_ns
            self.append(ws, {"reference_ns": reference,
                             "stamps": {name: self.stamp(ws / name) for name in stamped}})
        return ws

    @classmethod
    def verdicts(cls, ws):
        man = Manifest(ws)
        return {s: (man.is_fresh(*s), man.is_outdated(*s)) for s in cls.SETTINGS}

    def test_the_next_write_leaves_the_live_lines_and_the_verdicts(self, grown, monkeypatch):
        before = self.verdicts(grown)
        assert before[("ingest", "cfgi1")] == (True, False)
        assert before[("cluster", "cfgc0")] == (False, True)
        lines = read_log(grown / "manifest.jsonl")
        assert len(lines) == 1 + 8 * 3
        # a run that reruns ingest under its last settings, which replaces a.txt
        atomic_write_text(grown / "a.txt", "a1")
        Manifest(grown).record("ingest", "cfgi1", [grown / "source.txt"], [grown / "a.txt"], 0.1)
        live = read_log(grown / "manifest.jsonl")
        assert [line.get("stage") for line in live] == ["cluster", "ingest", "embed", None]
        assert live[:3] == [lines[0], lines[-3], lines[-2]]
        # the stamp of the replaced a.txt is dropped; the others survive,
        # the first stamp line's too
        assert set(live[3]["stamps"]) == {"source.txt", "b.txt"}
        assert live[3]["reference_ns"] == max(line.get("reference_ns", 0) for line in lines)
        hashed = Counter()
        real = fsio.sha256_file
        monkeypatch.setattr(fsio, "sha256_file", lambda p: hashed.update([p.name]) or real(p))
        assert self.verdicts(grown) == before
        assert hashed == Counter({"a.txt": 1})

    def test_kill_between_the_write_and_the_rename_leaves_the_old_manifest(self, grown):
        before = self.verdicts(grown)
        log = (grown / "manifest.jsonl").read_bytes()
        kill_at_rename = (
            "import os, signal, sys\n"
            "import tabret.fsio as fsio\n"
            "fsio.os.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
            "ws = fsio.Path(sys.argv[1])\n"
            "fsio.Manifest(ws).record('ingest', 'cfgi0', [ws / 'source.txt'], [ws / 'a.txt'], 0.1)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fsio.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", kill_at_rename, str(grown)], env=env)
        assert proc.returncode == -signal.SIGKILL
        # the live lines were written in full, but beside the manifest
        (tmp,) = grown.glob(".manifest.jsonl.*.tmp")
        assert [line.get("stage") for line in read_log(tmp)] == ["cluster", "ingest", "embed", None]
        assert (grown / "manifest.jsonl").read_bytes() == log
        assert self.verdicts(grown) == before
        Manifest(grown).record("ingest", "cfgi0", [grown / "source.txt"], [grown / "a.txt"], 0.1)
        assert (grown / "manifest.jsonl").read_bytes() == tmp.read_bytes()


class TestReadLog:
    def test_missing_log_is_empty(self, tmp_path):
        assert read_log(tmp_path / "absent.jsonl") == []

    @staticmethod
    def assert_read_leaves_the_file_alone(p, records):
        before = (p.read_bytes(), fsio._stamp(p.stat()))
        assert read_log(p) == records
        assert (p.read_bytes(), fsio._stamp(p.stat())) == before

    def test_unterminated_last_line_that_parses_is_kept(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_text('{"a": 1}\n{"a": 2}')
        self.assert_read_leaves_the_file_alone(p, [{"a": 1}, {"a": 2}])

    # torn JSON, a torn UTF-8 sequence, and a JSON value that is not an object
    @pytest.mark.parametrize("tail", [b'{"a": ', b"[1, 2", b"\xe2\x82", b"7"])
    def test_torn_last_line_is_dropped(self, tmp_path, tail):
        p = tmp_path / "log.jsonl"
        p.write_bytes(b'{"a": 1}\n' + tail)
        self.assert_read_leaves_the_file_alone(p, [{"a": 1}])

    def test_terminated_bad_last_line_raises(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_text('{"a": 1}\n{"a": \n')
        with pytest.raises(ValueError, match=":2"):
            read_log(p)

    @pytest.mark.parametrize(
        "bad",
        ['{"a": ', '{"a": {"a": 2}', "{}, {}", "{} {}", "[{}]", "7", SPLIT_RECORD.decode()],
        ids=["bad-json", "torn-then-appended", "two-values", "two-objects", "array", "number",
             "split-record"],
    )
    def test_bad_middle_line_raises_naming_it(self, tmp_path, bad):
        p = tmp_path / "log.jsonl"
        p.write_text(f'{{"a": 1}}\n{bad}\n{{"a": 3}}\n')
        with pytest.raises(JsonLinesError, match=":2: "):
            read_log(p)

    def test_lone_surrogate_escape_raises_naming_its_line(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_text('{"a": "\\ud83d\\ude00"}\n{"a": "\\ud800"}\n{"a": 3}\n')
        with pytest.raises(JsonLinesError, match=r":2: lone surrogate"):
            read_log(p)
        p.write_text('{"a": "\\ud83d\\ude00"}\n{"a": 3}\n')
        assert read_log(p) == [{"a": "\U0001f600"}, {"a": 3}]

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_text('{"a": 1}\n\n  \n{"a": 2}\n')
        assert read_log(p) == [{"a": 1}, {"a": 2}]

    def test_terminated_lines_round_trip(self, tmp_path):
        p = tmp_path / "log.jsonl"
        records = [{"i": i, "text": f"line {i}"} for i in range(100)]
        write_jsonl(p, records)
        assert read_log(p) == records


class TestWorkspaceLock:
    def test_exclusive(self, tmp_path):
        with WorkspaceLock(tmp_path):
            with pytest.raises(RuntimeError, match="lock"):
                WorkspaceLock(tmp_path).__enter__()

    def test_released_on_exit(self, tmp_path):
        with WorkspaceLock(tmp_path):
            pass
        with WorkspaceLock(tmp_path):
            pass

    def test_lock_file_left_by_a_killed_run_does_not_block(self, tmp_path):
        # the kernel drops a dead holder's flock; only the file remains
        (tmp_path / ".lock").write_text("12345")
        with WorkspaceLock(tmp_path):
            pass

    def test_released_on_error(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with WorkspaceLock(tmp_path):
                raise RuntimeError("boom")
        with WorkspaceLock(tmp_path):
            pass


def test_sha256_json_key_order_independent():
    assert sha256_json({"a": 1, "b": [2, 3]}) == sha256_json({"b": [2, 3], "a": 1})
    assert sha256_json({"a": 1}) != sha256_json({"a": 2})
