"""Corpus model, serialization and loading."""

import json

import pytest
from hypothesis import given, strategies as st

from tabret.corpus import (
    Corpus,
    Table,
    escape_field,
    load_corpus,
    serialize_header,
    serialize_instance,
    serialize_partial_table,
    write_corpus,
)
from tabret.fsio import JsonLinesError

from conftest import make_table


class TestModel:
    def test_table_requires_header(self):
        with pytest.raises(ValueError):
            Table(table_id="t", header=[], instances=[], metadata={})

    def test_table_requires_a_row(self):
        with pytest.raises(ValueError, match="table 't' has no rows"):
            Table(table_id="t", header=["a"], instances=[], metadata={})

    def test_cell_count_must_match_header(self):
        with pytest.raises(ValueError, match="3-column header"):
            Table(
                table_id="t",
                header=["a", "b", "c"],
                instances=[["1", "2"]],
                metadata={},
            )

    def test_duplicate_table_id_rejected(self):
        t = make_table("same", [["1"]])
        with pytest.raises(ValueError, match="same"):
            Corpus(tables=[t, make_table("same", [["2"]])])


class TestEscaping:
    def test_known_escapes(self):
        assert escape_field("a|b") == "a\\|b"
        assert escape_field("a\nb") == "a\\nb"
        assert escape_field("a\\b") == "a\\\\b"

    def test_escape_order_backslash_first(self):
        # escaping must not double-process: \n already present in input
        # becomes \\n (escaped backslash + n), not an escaped newline
        assert escape_field("\\n") == "\\\\n"

    @given(st.lists(st.text(max_size=30), min_size=1, max_size=6))
    def test_separator_never_appears_inside_escaped_fields(self, cells):
        # " | " is the field separator; escaped fields must never
        # contain it, otherwise splitting a serialized row is ambiguous
        for cell in cells:
            assert " | " not in escape_field(cell)
        joined = " | ".join(escape_field(c) for c in cells)
        assert joined.count(" | ") == len(cells) - 1

    @given(st.lists(st.text(max_size=30), min_size=2, max_size=6))
    def test_escaping_is_injective_on_rows(self, cells):
        # two different cell lists can never serialize identically
        other = list(cells)
        other[0] += "x"
        a = " | ".join(escape_field(c) for c in cells)
        b = " | ".join(escape_field(c) for c in other)
        assert a != b


class TestSerialization:
    def test_header_line(self, tiny_table):
        assert serialize_header(tiny_table.header) == "sku | name | qty"

    def test_instance_line(self, tiny_table):
        assert serialize_instance(tiny_table, 1) == "sku: a-02 | name: washer | qty: 9"

    def test_instance_escapes_cells(self):
        t = make_table("t", [["x|y", "p\nq"]])
        assert serialize_instance(t, 0) == "c0: x\\|y | c1: p\\nq"

    def test_partial_table_sorted_rows_and_header(self, tiny_table):
        text = serialize_partial_table(tiny_table, [3, 0])
        lines = text.split("\n")
        assert lines[0] == "sku | name | qty"
        assert lines[1].startswith("sku: a-01")
        assert lines[2].startswith("sku: a-04")
        assert len(lines) == 3

    def test_partial_table_dedupes_indices(self, tiny_table):
        assert serialize_partial_table(tiny_table, [2, 2]) == serialize_partial_table(
            tiny_table, [2]
        )

    def test_partial_table_unknown_index(self, tiny_table):
        with pytest.raises(IndexError):
            serialize_partial_table(tiny_table, [99])


class TestRoundTrip:
    def test_jsonl_round_trip(self, tmp_path, tiny_corpus):
        path = tmp_path / "corpus.jsonl"
        write_corpus(tiny_corpus, path)
        loaded = load_corpus(path)
        assert [t.table_id for t in loaded.tables] == ["inv_a", "inv_b"]
        t = {t.table_id: t for t in loaded.tables}["inv_a"]
        original = {t.table_id: t for t in tiny_corpus.tables}["inv_a"]
        assert t.header == ["sku", "name", "qty"]
        assert t.instances == original.instances

    @given(
        st.lists(
            st.lists(st.text(max_size=20), min_size=2, max_size=2),
            min_size=1,
            max_size=5,
        )
    )
    def test_jsonl_round_trip_arbitrary_cells(self, tmp_path_factory, rows):
        corpus = Corpus(tables=[make_table("t0", rows)])
        path = tmp_path_factory.mktemp("rt") / "c.jsonl"
        write_corpus(corpus, path)
        loaded = load_corpus(path)
        (t,) = loaded.tables
        assert t.table_id == "t0"
        assert t.instances == rows

    def test_metadata_preserved(self, tmp_path):
        t = Table(
            table_id="t",
            header=["a"],
            instances=[["1"]],
            metadata={"family": "alloy"},
        )
        path = tmp_path / "c.jsonl"
        write_corpus(Corpus(tables=[t]), path)
        (loaded,) = load_corpus(path).tables
        assert loaded.metadata == {"family": "alloy"}


class TestLoadErrors:
    def test_missing_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"table_id": "t", "rows": [["1"]]}) + "\n")
        with pytest.raises(JsonLinesError, match=r"bad\.jsonl:1.*header"):
            load_corpus(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"table_id": "t", "header": ["a", "b"], "rows": [["1"]]}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(JsonLinesError):
            load_corpus(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(JsonLinesError, match=":1"):
            load_corpus(path)
