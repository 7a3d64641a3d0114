"""Synthetic corpus generator: reproducibility and planted structure."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tabret
from tabret.synthdata import FAMILIES, HEADER, build_corpus

# the child imports the tabret under test, installed or not
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(tabret.__file__).parents[1]))


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


class TestReproducibility:
    def test_same_seed_same_corpus(self, corpus):
        again = build_corpus()
        assert len(again.tables) == len(corpus.tables)
        for a, b in zip(corpus.tables, again.tables):
            assert a.table_id == b.table_id
            assert a.header == b.header
            assert a.instances == b.instances

    def test_different_seed_different_corpus(self, corpus):
        other = build_corpus(seed=99)
        assert other.tables[0].instances != corpus.tables[0].instances

    def test_cli_regenerates_committed_file_bit_for_bit(self, tmp_path):
        out = tmp_path / "corpus.jsonl"
        subprocess.run(
            [sys.executable, "-m", "tabret.synthdata", "--out", str(out)],
            check=True,
            capture_output=True,
            env=CHILD_ENV,
        )
        committed = Path(__file__).parent.parent / "data" / "demo" / "corpus.jsonl"
        assert out.read_bytes() == committed.read_bytes()


class TestStructure:
    def test_shape(self, corpus):
        assert len(corpus.tables) == 50
        for table in corpus.tables:
            assert table.header == HEADER
            assert len(table.instances) == 30

    def test_families_share_opening_ledger_row(self, corpus):
        for f in range(10):
            family_tables = corpus.tables[f * 5 : (f + 1) * 5]
            first_rows = {tuple(t.instances[0]) for t in family_tables}
            assert len(first_rows) == 1, f"family {FAMILIES[f]} ledger rows differ"

    def test_ledger_rows_differ_across_families(self, corpus):
        ledgers = {tuple(corpus.tables[f * 5].instances[0]) for f in range(10)}
        assert len(ledgers) == 10

    def test_family_word_in_every_cell_of_every_row(self, corpus):
        for t, table in enumerate(corpus.tables):
            family = FAMILIES[t // 5]
            for row in table.instances:
                for cell in row:
                    assert family in cell

    def test_table_codes_unique_and_in_every_late_row(self, corpus):
        codes = set()
        for table in corpus.tables:
            # sku format family-code-ii on rows 1+
            sku = table.instances[1][0]
            code = sku.split("-")[1]
            assert len(code) == 6
            assert code not in codes
            codes.add(code)
            for row in table.instances[1:]:
                assert code in row[0]
                # zone carries the first half, bin the second
                assert code[:3] in row[2]
                assert code[3:] in row[3]
                assert code in row[4]

    def test_ledger_row_carries_no_table_code(self, corpus):
        for table in corpus.tables:
            sku = table.instances[1][0]
            code = sku.split("-")[1]
            ledger_text = " ".join(table.instances[0])
            assert code not in ledger_text


class TestParameters:
    def test_table_and_row_counts_respected(self):
        small = build_corpus(n_tables=10, n_rows=8)
        assert len(small.tables) == 10
        assert all(len(t.instances) == 8 for t in small.tables)

    def test_too_many_tables_rejected(self):
        with pytest.raises(ValueError, match="not enough families"):
            build_corpus(n_tables=51)

    def test_code_length_controls_planted_token(self):
        short = build_corpus(n_tables=4, n_rows=3, code_length=4)
        sku = short.tables[0].instances[1][0]
        assert len(sku.split("-")[1]) == 4


class TestCliArguments:
    def test_custom_flags(self, tmp_path):
        out = tmp_path / "c.jsonl"
        subprocess.run(
            [
                sys.executable,
                "-m",
                "tabret.synthdata",
                "--out",
                str(out),
                "--tables",
                "6",
                "--rows",
                "5",
                "--seed",
                "7",
            ],
            check=True,
            capture_output=True,
            env=CHILD_ENV,
        )
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 6
        assert all(len(r["rows"]) == 5 for r in records)
