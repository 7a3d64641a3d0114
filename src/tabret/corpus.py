"""Table data model, corpus ingestion, and deterministic row serialization.

A corpus is a set of tables; a table is a header plus its ordered rows
of cells (its instances), at least one of them. Serialization turns
rows into the "col: value | col: value" form consumed by the embedding
and prompting layers. The escaping rule makes serialization injective
over distinct (header, cells) pairs.

A corpus is a JSON Lines file read by fsio.read_records, so a bad line
or record, a table without rows among them, raises JsonLinesError naming
the file and line. A corpus with no table raises ArtifactError: ingest
would pass the clustering nothing to cluster.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .fsio import ArtifactError, read_records

# the fields of a JSON Lines corpus record; "metadata" is optional
_TABLE_FIELDS = {"table_id": str, "header": list[str], "rows": list[list[str]]}


class CorpusFormatError(ValueError):
    """A corpus source file violates the expected schema."""


@dataclass(frozen=True)
class Table:
    """Header plus ordered rows, each its cells' source text verbatim; the
    unit of retrieval. A row's index is its position in instances."""

    table_id: str
    header: list[str]
    instances: list[list[str]]
    metadata: dict[str, str] | None = None

    def __post_init__(self) -> None:
        if not self.header:
            raise CorpusFormatError(f"table {self.table_id!r}: header must be non-empty")
        if not self.instances:
            raise CorpusFormatError(f"table {self.table_id!r} has no rows")
        for i, cells in enumerate(self.instances):
            if len(cells) != len(self.header):
                raise CorpusFormatError(
                    f"table {self.table_id!r} row {i}: "
                    f"{len(cells)} cells under a {len(self.header)}-column header"
                )


@dataclass
class Corpus:
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
    return " | ".join(
        f"{escape_field(col)}: {escape_field(val)}"
        for col, val in zip(table.header, table.instances[i])
    )


def serialize_partial_table(table: Table, row_indices: Iterable[int]) -> str:
    """Header line followed by one serialized row per index, ascending.

    Input order does not matter; output rows are sorted by their index
    in the table, so the source table's ordering is preserved.
    """
    rows = sorted(set(row_indices))
    lines = [serialize_header(table.header)]
    lines.extend(serialize_instance(table, i) for i in rows)
    return "\n".join(lines)


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus from a JSON Lines file of one table per line."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"corpus path does not exist: {p}")
    seen: set[str] = set()

    def parse(rec: dict) -> Table:
        table_id, metadata = rec["table_id"], rec.get("metadata")
        if not table_id:
            raise ValueError("field 'table_id': must be non-empty")
        if table_id in seen:
            raise ValueError(f"duplicate table_id {table_id!r}")
        seen.add(table_id)
        # JSON object keys are strings
        if metadata is not None and not (
            isinstance(metadata, dict) and all(isinstance(v, str) for v in metadata.values())
        ):
            raise ValueError("field 'metadata': must map strings to strings")
        return Table(table_id, rec["header"], rec["rows"], metadata or None)

    tables = read_records(p, _TABLE_FIELDS, parse)
    if not tables:
        raise ArtifactError(p, "holds no table")
    return Corpus(tables=tables)


def table_to_record(t: Table) -> dict:
    """The JSONL corpus object of a table; metadata only when present."""
    rec: dict = {"table_id": t.table_id, "header": t.header, "rows": t.instances}
    return {**rec, "metadata": t.metadata} if t.metadata else rec


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus as JSONL; inverse of load_corpus."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for t in corpus.tables:
            fh.write(json.dumps(table_to_record(t), ensure_ascii=False) + "\n")
