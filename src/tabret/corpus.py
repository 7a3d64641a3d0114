"""Table data model, corpus ingestion, and deterministic row serialization.

A corpus is a set of tables; a table is a header plus ordered row
instances. Serialization turns rows into the "col: value | col: value"
form consumed by the embedding and prompting layers. The escaping rule
makes serialization injective over distinct (header, cells) pairs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .fsio import JsonLinesError, read_numbered_jsonl

CORPUS_FORMATS = ("jsonl", "csv-dir")


class CorpusFormatError(ValueError):
    """A corpus source file violates the expected schema."""


@dataclass(frozen=True)
class Instance:
    """One table row; cells keep their source text verbatim."""

    row_index: int
    cells: list[str]


@dataclass(frozen=True)
class Table:
    """Header plus ordered row instances; the unit of retrieval."""

    table_id: str
    header: list[str]
    instances: list[Instance]
    metadata: dict[str, str] | None = None

    def __post_init__(self) -> None:
        if not self.header:
            raise CorpusFormatError(f"table {self.table_id!r}: header must be non-empty")
        seen: set[int] = set()
        for inst in self.instances:
            if len(inst.cells) != len(self.header):
                raise CorpusFormatError(
                    f"table {self.table_id!r} row {inst.row_index}: "
                    f"{len(inst.cells)} cells under a {len(self.header)}-column header"
                )
            if inst.row_index in seen:
                raise CorpusFormatError(
                    f"table {self.table_id!r}: duplicate row_index {inst.row_index}"
                )
            seen.add(inst.row_index)


@dataclass
class Corpus:
    corpus_id: str
    tables: list[Table]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for t in self.tables:
            if t.table_id in seen:
                raise CorpusFormatError(f"duplicate table_id {t.table_id!r}")
            seen.add(t.table_id)


def escape_field(text: str) -> str:
    """Escape backslash, pipe, and newline so joining with " | " is injective."""
    return text.replace("\\", "\\\\").replace("|", "\\|").replace("\n", "\\n")


def serialize_header(header: list[str]) -> str:
    return " | ".join(escape_field(col) for col in header)


def serialize_instance(table: Table, i: int) -> str:
    """Render row i as "col1: v1 | col2: v2 | ..." in column order."""
    if not 0 <= i < len(table.instances):
        raise IndexError(
            f"table {table.table_id!r}: row index {i} out of range [0, {len(table.instances)})"
        )
    inst = table.instances[i]
    return " | ".join(
        f"{escape_field(col)}: {escape_field(val)}" for col, val in zip(table.header, inst.cells)
    )


def serialize_partial_table(table: Table, row_indices: Iterable[int]) -> str:
    """Header line followed by one serialized row per index, ascending.

    Input order does not matter; output rows are sorted by original
    row_index so the source table's ordering is preserved.
    """
    rows = sorted(set(row_indices))
    lines = [serialize_header(table.header)]
    lines.extend(serialize_instance(table, i) for i in rows)
    return "\n".join(lines)


def _parse_jsonl_table(obj: dict, source: str, line_no: int) -> Table:
    def fail(field: str, msg: str) -> CorpusFormatError:
        return CorpusFormatError(f"{source}:{line_no}: field {field!r}: {msg}")

    table_id = obj.get("table_id")
    if not isinstance(table_id, str) or not table_id:
        raise fail("table_id", "must be a non-empty string")
    header = obj.get("header")
    if not isinstance(header, list) or not header or not all(isinstance(c, str) for c in header):
        raise fail("header", "must be a non-empty list of strings")
    rows = obj.get("rows")
    if not isinstance(rows, list):
        raise fail("rows", "must be a list of rows")
    instances = []
    for r, cells in enumerate(rows):
        if not isinstance(cells, list) or not all(isinstance(c, str) for c in cells):
            raise fail(f"rows[{r}]", "must be a list of strings")
        if len(cells) != len(header):
            raise fail(f"rows[{r}]", f"{len(cells)} cells under a {len(header)}-column header")
        instances.append(Instance(row_index=r, cells=list(cells)))
    metadata = obj.get("metadata")
    if metadata is not None:
        if not isinstance(metadata, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
        ):
            raise fail("metadata", "must map strings to strings")
        metadata = dict(metadata) or None
    return Table(table_id=table_id, header=list(header), instances=instances, metadata=metadata)


def _load_jsonl(path: Path) -> list[Table]:
    tables = []
    seen: set[str] = set()
    try:
        for line_no, obj in read_numbered_jsonl(path):
            table = _parse_jsonl_table(obj, str(path), line_no)
            if table.table_id in seen:
                raise CorpusFormatError(
                    f"{path}:{line_no}: duplicate table_id {table.table_id!r}"
                )
            seen.add(table.table_id)
            tables.append(table)
    except JsonLinesError as exc:
        raise CorpusFormatError(str(exc)) from exc
    return tables


def _load_csv_dir(path: Path) -> list[Table]:
    tables = []
    for csv_path in sorted(path.glob("*.csv")):
        try:
            with csv_path.open("r", encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"{csv_path}: invalid UTF-8: {exc.reason}") from exc
        if not rows:
            raise CorpusFormatError(f"{csv_path}: empty file, expected a header row")
        header = rows[0]
        if not header:
            raise CorpusFormatError(f"{csv_path}:1: field 'header': must be non-empty")
        instances = []
        for r, cells in enumerate(rows[1:]):
            if len(cells) != len(header):
                raise CorpusFormatError(
                    f"{csv_path}:{r + 2}: {len(cells)} cells under a "
                    f"{len(header)}-column header"
                )
            instances.append(Instance(row_index=r, cells=[str(c) for c in cells]))
        tables.append(Table(table_id=csv_path.stem, header=header, instances=instances))
    return tables


def load_corpus(path: str | Path, format: str = "jsonl") -> Corpus:
    """Load a corpus from a JSONL file or a directory of per-table CSVs."""
    if format not in CORPUS_FORMATS:
        raise CorpusFormatError(f"unknown corpus format {format!r}; expected one of {CORPUS_FORMATS}")
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"corpus path does not exist: {p}")
    if format == "jsonl":
        tables = _load_jsonl(p)
    else:
        if not p.is_dir():
            raise CorpusFormatError(f"{p}: csv-dir format requires a directory")
        tables = _load_csv_dir(p)
    return Corpus(corpus_id=p.stem, tables=tables)


def table_to_record(t: Table) -> dict:
    """The JSONL corpus object of a table; metadata only when present."""
    rec: dict = {"table_id": t.table_id, "header": t.header, "rows": [i.cells for i in t.instances]}
    return {**rec, "metadata": t.metadata} if t.metadata else rec


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus as JSONL; inverse of load_corpus for the jsonl format."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for t in corpus.tables:
            fh.write(json.dumps(table_to_record(t), ensure_ascii=False) + "\n")
