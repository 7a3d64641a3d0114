"""Synthetic inventory corpus with a planted retrieval signal.

Every table opens with a ledger row shared verbatim by all tables of
its family, so a sampler that only reads leading rows anchors every
chunk on text that cannot tell family members apart. All later rows
carry the table's real identity: a per-table code token planted in the
sku, the region zone suffix, and the note column. Tables in the same
family share a theme word and an item vocabulary, so the closest
distractors for any chunk are its family siblings, which is exactly
the confusion hard-negative training has to resolve.

Generation uses random.Random (not numpy) because its streams are
stable across platforms, so a committed corpus file can be regenerated
bit-for-bit: python -m tabret.synthdata --out corpus.jsonl
"""

from __future__ import annotations

import argparse
import random
import string

from .corpus import Corpus, Table, write_corpus

FAMILIES = (
    "alloy", "birch", "copper", "denim", "ember",
    "fjord", "granite", "harbor", "indigo", "juniper",
)

ITEMS = (
    "valve assembly", "gear housing", "sensor module", "pump bracket",
    "coil fitting", "rotor blade", "clutch plate", "filter cartridge",
    "bearing sleeve", "shaft coupler", "intake manifold", "relay switch",
    "pressure gauge", "drive belt", "spring clamp", "nozzle ring",
    "piston liner", "torque arm",
)

REGIONS = ("north", "south", "east", "west", "central", "coastal")

FILLER_WORDS = (
    "verified", "pending", "counted", "sealed", "staged", "flagged",
    "rotated", "inspected", "restocked", "expedited", "quarantined",
    "sampled", "palletized", "labeled", "weighed", "scanned",
    "consolidated", "deferred",
)

HEADER = ["sku", "name", "zone", "bin", "note"]

# No vowels: keeps codes from colliding with real words in the corpus.
_CODE_LETTERS = "bcdfghjklmnpqrstvwxz"


def _table_codes(count: int, seed: int, length: int) -> list[str]:
    rng = random.Random(f"{seed}:codes")
    codes: list[str] = []
    seen: set[str] = set()
    while len(codes) < count:
        # distinct letters inside a code so every code carries several
        # distinct character n-grams, not one repeated gram
        code = "".join(rng.sample(_CODE_LETTERS, length))
        if code not in seen:
            seen.add(code)
            codes.append(code)
    return codes


def _ledger_row(family: str, family_index: int) -> list[str]:
    """Opening row shared by every table of a family.

    Carries the family theme but no table code, so chunks anchored on
    it are indistinguishable within the family. It reuses the family's
    item vocabulary so it embeds near the table's other rows instead of
    forming its own outlier cluster.
    """
    item = ITEMS[family_index % len(ITEMS)]
    return [
        f"{family}-hub-00",
        f"{family} {item} ledger",
        f"{REGIONS[family_index % len(REGIONS)]}-{family}-00",
        f"bin-{family}-00-00",
        f"{family} opening ledger balance",
    ]


def build_corpus(
    n_tables: int = 50,
    n_rows: int = 30,
    tables_per_family: int = 5,
    seed: int = 20240811,
    code_length: int = 6,
) -> Corpus:
    if n_tables > len(FAMILIES) * tables_per_family:
        raise ValueError("not enough families for that many tables")
    codes = _table_codes(n_tables, seed, code_length)
    tables = []
    for t in range(n_tables):
        family_index = t // tables_per_family
        family = FAMILIES[family_index]
        code = codes[t]
        rng = random.Random(f"{seed}:table:{t}")
        rows = [_ledger_row(family, family_index)]
        half = max(1, len(code) // 2)
        for i in range(1, n_rows):
            item = rng.choice(ITEMS)
            grade = rng.choice(string.ascii_lowercase) + str(rng.randint(1, 9))
            filler = " ".join(rng.sample(FILLER_WORDS, rng.randint(2, 4)))
            # every column carries the family word, so separating
            # families is easy for the base embedding; the table code
            # (split across zone and bin) is the only way to tell
            # family siblings apart, which is what training must learn
            rows.append([
                f"{family}-{code}-{i:02d}",
                f"{family} {item} grade {grade}",
                f"{REGIONS[(t + i) % len(REGIONS)]}-{family}-{code[:half]}",
                f"bin-{family}-{code[half:]}-{i:02d}",
                f"lot {code} {family} {filler}",
            ])
        tables.append(Table(
            table_id=f"table_{t:02d}",
            header=list(HEADER),
            instances=rows,
            metadata={"family": family, "code": code},
        ))
    return Corpus(tables=tables)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tabret.synthdata",
        description="Generate the synthetic inventory demo corpus.",
    )
    parser.add_argument("--out", required=True, help="output corpus JSONL path")
    parser.add_argument("--tables", type=int, default=50)
    parser.add_argument("--rows", type=int, default=30)
    parser.add_argument("--seed", type=int, default=20240811)
    parser.add_argument("--code-length", type=int, default=6)
    args = parser.parse_args(argv)
    corpus = build_corpus(
        n_tables=args.tables,
        n_rows=args.rows,
        seed=args.seed,
        code_length=args.code_length,
    )
    write_corpus(corpus, args.out)
    print(f"wrote {len(corpus.tables)} tables to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
