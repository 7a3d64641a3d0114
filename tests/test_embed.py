"""Embedding providers, normalization, and the content-addressed cache."""

import hashlib
import itertools
import json
import multiprocessing
import os
import struct
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tabret.embed as embed_mod
from tabret import synthdata
from tabret.corpus import serialize_instance
from tabret.embed import (
    CACHE_FORMAT,
    CacheDimError,
    EmbeddingCache,
    ProviderConfig,
    embed_texts,
    mock_embed,
)
from tabret.fsio import ArtifactError, checksum, write_matrix_bin
from tabret.httpjson import ProviderError

GOLDEN = Path(__file__).parent / "data" / "golden_mock_alice_dim64.json"


def reference_mock_embed(text, dim):
    """The per-gram loop mock_embed is defined by, one SHA-256 per gram."""
    acc = np.zeros(dim)
    grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else ([text] if text else [])
    for gram in grams:
        digest = hashlib.sha256(gram.encode("utf-8")).digest()
        acc[int.from_bytes(digest[:8], "big") % dim] += 1.0 if digest[8] & 1 else -1.0
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        acc[0] = norm = 1.0
    return acc / norm


def unit(v):
    return v / np.linalg.norm(v)


def mock_cfg(dim=64, **kw):
    return ProviderConfig(kind="mock", model_name=f"mock-{dim}", dim=dim, **kw)


class TestMockEmbed:
    def test_deterministic(self):
        assert np.array_equal(mock_embed("table row", 64), mock_embed("table row", 64))

    def test_unit_norm(self):
        for text in ("a", "ab", "abc", "some longer text with spaces"):
            assert abs(np.linalg.norm(mock_embed(text, 32)) - 1.0) < 1e-6

    def test_empty_text_e1(self):
        v = mock_embed("", 16)
        expected = np.zeros(16)
        expected[0] = 1.0
        np.testing.assert_array_equal(v, expected)

    def test_short_text_single_gram(self):
        # texts under 3 chars hash as one gram: one nonzero bucket
        v = mock_embed("ab", 64)
        assert np.count_nonzero(v) == 1
        assert abs(abs(v[v != 0][0]) - 1.0) < 1e-12

    def test_different_texts_differ(self):
        assert not np.array_equal(mock_embed("alpha", 64), mock_embed("beta", 64))

    def test_dim_floor(self):
        with pytest.raises(ValueError):
            mock_embed("x", 4)

    def test_golden_vector_frozen(self):
        # regression pin: the hashing rule must never drift, or every
        # cached artifact and committed corpus embedding changes
        golden = np.array(json.loads(GOLDEN.read_text()))
        np.testing.assert_array_equal(mock_embed("Name: Alice", 64), golden)


# every code point but the surrogates, non-BMP ones and U+10FFFF among
# them, with a small alphabet mixed in so that grams repeat and cancel
# (test_lone_surrogate_raises_as_the_oracle_does covers lone surrogates)
ANY_CHAR = st.one_of(
    st.characters(exclude_categories=["Cs"]),
    st.sampled_from("ab c:\u00e9\x00\U0001f600\U0010ffff"),
)


class TestEmbedTextsMock:
    def test_identical_texts_identical_vectors(self, tmp_path):
        out = embed_texts(mock_cfg(), ["a", "a"], None)
        assert out.shape == (2, 64)
        np.testing.assert_array_equal(out[0], out[1])

    def test_order_preserved(self):
        texts = ["one", "two", "three"]
        out = embed_texts(mock_cfg(), texts, None)
        for i, t in enumerate(texts):
            np.testing.assert_array_equal(out[i], mock_embed(t, 64))

    def test_truncation_to_max_input_chars(self):
        cfg = mock_cfg(max_input_chars=5)
        long_text = "abcdefghij"
        out = embed_texts(cfg, [long_text], None)
        np.testing.assert_array_equal(out[0], mock_embed(long_text[:5], 64))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            embed_texts(mock_cfg(), [], None)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(st.text(ANY_CHAR, max_size=2), st.text(ANY_CHAR, max_size=30)),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([8, 13, 64]),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([1, 2, 5, 40, 1 << 14]),
    )
    # short texts, repeated grams, and the top of the code space
    @example(["", "a", "ab"], 64, 5, 1 << 14)
    @example(["abab", "baba", "abc"], 8, 2, 1 << 14)
    @example(["\U0010ffff", "x\U0010ffff\U0010ffffy", ""], 64, 1, 2)
    @example(["aaaa", "aaa", "aa", "a"], 13, 3, 5)
    def test_batch_bitwise_equal_to_per_text_mock_embed(self, texts, dim, batch_size, bound):
        # a small bound makes texts straddle chunk boundaries, and a text
        # longer than the bound a chunk of its own
        with mock.patch.object(embed_mod, "_CHUNK_CODE_POINTS", bound):
            out = embed_texts(mock_cfg(dim=dim, batch_size=batch_size), texts, None)
        for row, text in zip(out, texts):
            assert row.tobytes() == mock_embed(text, dim).tobytes()
            assert row.tobytes() == reference_mock_embed(text, dim).tobytes()


class TestBatchKernel:
    """Edge cases of embed_texts' mock path (the batch kernel)."""

    def test_cancelling_grams_give_e1(self):
        # a 4-character text whose two grams share a bucket with opposite
        # signs sums to zero, which maps to e1
        dim = 8
        text = next(
            "".join(p)
            for p in itertools.product("abcd", repeat=4)
            if abs(embed_mod._slot("".join(p[:3]), dim) - embed_mod._slot("".join(p[1:]), dim)) == dim
        )
        texts = [text, text[:3], "zz" + text]
        out = embed_texts(mock_cfg(dim=dim), texts, None)
        np.testing.assert_array_equal(out[0], np.eye(dim)[0])
        for row, t in zip(out, texts):
            assert row.tobytes() == reference_mock_embed(t, dim).tobytes()

    @pytest.mark.parametrize(
        "texts",
        # a surrogate pair in a str is two lone surrogates, as in the oracle
        [["ok text", "a\ud800b"], ["\udfff", "other"], ["\ud83d\ude00 pair", "x"], ["ab\ud800"]],
    )
    def test_lone_surrogate_raises_as_the_oracle_does(self, texts):
        bad = next(t for t in texts if any("\ud800" <= c <= "\udfff" for c in t))
        with pytest.raises(Exception) as oracle:
            reference_mock_embed(bad, 64)
        with pytest.raises(oracle.type):
            embed_texts(mock_cfg(), texts, None)

    def test_golden_vector_from_a_batch(self):
        golden = np.array(json.loads(GOLDEN.read_text()))
        out = embed_texts(mock_cfg(), ["Name: Bob", "Name: Alice", "Name: Carol"], None)
        np.testing.assert_array_equal(out[1], golden)

    def test_peak_allocation_stays_near_the_per_text_loop(self):
        # 3600 rows of 160 characters, a tall build's row embedding. The
        # kernel's temporaries hold several int64s per code point, so one
        # chunk of the whole batch peaks at about 44 MB against 4.7 MB for
        # the per-text loop (numpy 2.4.6); chunks of _CHUNK_CODE_POINTS
        # keep it at about 5.3 MB. Removing the chunk bound (a bound of
        # 2**30, say) fails this test.
        texts = [(f"{i:05d} " + "abcdefghijklmnopqrstuvwxyz0123456789 |:" * 5)[:160] for i in range(3600)]

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        batched = peak(lambda: embed_texts(mock_cfg(), texts, None))
        per_text = peak(lambda: np.stack([mock_embed(t, 64) for t in texts]))
        assert batched <= 1.5 * per_text

    def test_embed_then_write_holds_the_vectors_about_once(self, tmp_path):
        # a serve-shaped embed stage: 400 tables of 12 rows, 4800 texts
        # and 4800 x 64 vectors (2.46 MB). The mock writes its rows into
        # the output and write_matrix_bin writes from it, so the stage
        # peaks at about 1.9x the vectors (numpy 2.4.6); a separate rows
        # array for the mock, or a bytes copy of the matrix to write,
        # puts it above 3x.
        corpus = synthdata.build_corpus(400, 12, 40, 1)
        texts = [serialize_instance(t, i) for t in corpus.tables for i in range(len(t.instances))]
        cache = EmbeddingCache(tmp_path / "cache", "mock-64")
        tracemalloc.start()
        try:
            vectors = embed_texts(mock_cfg(), texts, cache)
            write_matrix_bin(tmp_path / "instance_embeddings.bin", vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vectors.shape == (4800, 64)
        assert peak <= 2.5 * vectors.nbytes


def get(cache, text):
    """The one-key read: get_many of a single text."""
    return cache.get_many([text])[0]


def v2_pair(cache, texts, vectors):
    """Write a format-2 cache (unkeyed trailers, JSON index lines) holding
    the vectors, under the names that format used beside cache's files."""
    stem = cache.bin_path.name.removesuffix(f".v{CACHE_FORMAT}.bin")
    old_bin, old_idx = cache.cache_dir / f"{stem}.v2.bin", cache.cache_dir / f"{stem}.v2.idx.jsonl"
    blob, lines = bytearray(), []
    for text, vector in zip(texts, vectors):
        record = struct.pack("<I", len(vector)) + np.asarray(vector, dtype="<f8").tobytes()
        lines.append(json.dumps({"key": cache.key(text).hex(), "offset": len(blob)}) + "\n")
        blob += record + checksum(record)
    old_bin.write_bytes(bytes(blob))
    old_idx.write_text("".join(lines))
    return old_bin, old_idx


def shared_vector(text):
    """The dim-512 vector the two-process test caches for text."""
    seed = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")
    return np.random.default_rng(seed).normal(size=512)


def put_rounds(cache_dir, name, rounds, start):
    cache = EmbeddingCache(cache_dir, "shared")
    start.wait()
    for r in range(rounds):
        texts = [f"{name} {r} {i}" for i in range(200)]
        cache.put_many(texts, [shared_vector(t) for t in texts])


class TestCache:
    def test_put_get_round_trip(self, tmp_path, rng):
        cache = EmbeddingCache(tmp_path, "m1")
        v = unit(rng.normal(size=32))
        cache.put_many(["some text"], [v])
        np.testing.assert_array_equal(get(cache, "some text"), v)

    def test_miss_returns_none(self, tmp_path):
        assert EmbeddingCache(tmp_path, "m1").get_many(["absent", "other"]) == [None, None]

    def test_model_names_are_isolated(self, tmp_path, rng):
        v = unit(rng.normal(size=8))
        EmbeddingCache(tmp_path, "m1").put_many(["t"], [v])
        assert get(EmbeddingCache(tmp_path, "m2"), "t") is None

    def test_persists_across_instances(self, tmp_path, rng):
        v = unit(rng.normal(size=8))
        EmbeddingCache(tmp_path, "m1").put_many(["t"], [v])
        np.testing.assert_array_equal(get(EmbeddingCache(tmp_path, "m1"), "t"), v)

    def test_put_idempotent(self, tmp_path, rng):
        cache = EmbeddingCache(tmp_path, "m1")
        v = unit(rng.normal(size=8))
        cache.put_many(["t"], [v])
        cache.put_many(["t"], [v])
        np.testing.assert_array_equal(get(cache, "t"), v)

    def test_corruption_detected(self, tmp_path, rng):
        cache = EmbeddingCache(tmp_path, "m1")
        cache.put_many(["t"], [unit(rng.normal(size=8))])
        raw = bytearray(cache.bin_path.read_bytes())
        raw[6] ^= 0xFF
        cache.bin_path.write_bytes(bytes(raw))
        fresh = EmbeddingCache(tmp_path, "m1")
        with pytest.raises(ArtifactError, match="checksum mismatch") as exc_info:
            get(fresh, "t")
        assert exc_info.value.path == cache.bin_path

    def _one_record(self, tmp_path):
        cache = EmbeddingCache(tmp_path, "m1")
        cache.put_many(["t"], [np.array([0.6, 0.8])])
        return cache

    def test_record_layout_and_trailer(self, tmp_path):
        cache = self._one_record(tmp_path)
        raw = cache.bin_path.read_bytes()
        assert cache.bin_path.name.endswith(f".v{CACHE_FORMAT}.bin")
        assert len(raw) == 4 + 8 * 2 + 8
        # the trailer covers the key's digest, then the record's bytes
        assert raw[-8:] == checksum(cache.key("t") + raw[:-8]) != checksum(raw[:-8])
        assert cache.idx_path.read_bytes() == cache.key("t") + struct.pack("<Q", 0)

    def test_every_single_byte_flip_rejected(self, tmp_path):
        path = self._one_record(tmp_path).bin_path
        raw = path.read_bytes()
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises(ArtifactError, match="truncated|checksum mismatch") as exc_info:
                get(EmbeddingCache(tmp_path, "m1"), "t")
            assert exc_info.value.path == path

    @pytest.mark.parametrize("cut", range(1, 9))
    def test_truncation_by_up_to_a_trailer_rejected(self, tmp_path, cut):
        path = self._one_record(tmp_path).bin_path
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ArtifactError, match="truncated") as exc_info:
            get(EmbeddingCache(tmp_path, "m1"), "t")
        assert exc_info.value.path == path

    def test_valid_record_under_another_key_detected(self, tmp_path):
        # fault injection: a misdirected offset lands on another text's
        # record, whole and of the same dim, as interleaved appends left it
        cache = EmbeddingCache(tmp_path, "m1")
        cache.put_many(["a", "b"], [np.array([0.6, 0.8]), np.array([0.8, 0.6])])
        idx = bytearray(cache.idx_path.read_bytes())
        idx[32:40] = idx[72:80]  # a's entry now holds b's offset
        cache.idx_path.write_bytes(bytes(idx))
        reopened = EmbeddingCache(tmp_path, "m1")
        np.testing.assert_array_equal(get(reopened, "b"), [0.8, 0.6])
        with pytest.raises(ArtifactError, match="checksum mismatch at offset 28") as exc_info:
            reopened.get_many(["b", "a"])
        assert exc_info.value.path == cache.bin_path

    def test_entry_past_the_end_of_the_bin_rejected_on_open(self, tmp_path):
        cache = self._one_record(tmp_path)
        with cache.idx_path.open("ab") as fh:
            fh.write(cache.key("u") + struct.pack("<Q", 17))  # 28-byte .bin
        with pytest.raises(ArtifactError, match="offset 17, past the end") as exc_info:
            EmbeddingCache(tmp_path, "m1")
        assert exc_info.value.path == cache.idx_path

    def test_put_many_skips_cached_and_repeated_texts(self, tmp_path, rng):
        cache = EmbeddingCache(tmp_path, "m1")
        a, b = unit(rng.normal(size=4)), unit(rng.normal(size=4))
        cache.put_many(["a"], [a])
        cache.put_many(["a", "b", "b"], [b, b, a])
        assert cache.bin_path.stat().st_size == 2 * (4 + 8 * 4 + 8)
        assert cache.idx_path.stat().st_size == 2 * 40
        fresh = EmbeddingCache(tmp_path, "m1")
        np.testing.assert_array_equal(get(fresh, "a"), a)
        np.testing.assert_array_equal(get(fresh, "b"), b)

    def test_put_many_skips_texts_another_instance_cached(self, tmp_path, rng):
        first, second = EmbeddingCache(tmp_path, "m1"), EmbeddingCache(tmp_path, "m1")
        v = unit(rng.normal(size=4))
        first.put_many(["t"], [v])
        second.put_many(["t", "u"], [v, v])
        assert second.idx_path.stat().st_size == 2 * 40
        np.testing.assert_array_equal(get(second, "t"), v)

    @pytest.mark.parametrize("torn", [1, 17, 39])
    def test_torn_index_tail_trimmed(self, tmp_path, rng, torn):
        # fault injection: a kill in the middle of the index append
        cache = EmbeddingCache(tmp_path, "m1")
        v, w = unit(rng.normal(size=8)), unit(rng.normal(size=8))
        cache.put_many(["t"], [v])
        with cache.idx_path.open("ab") as fh:
            fh.write((cache.key("u") + struct.pack("<Q", 0))[:torn])
        reopened = EmbeddingCache(tmp_path, "m1")
        assert cache.idx_path.stat().st_size == 40
        np.testing.assert_array_equal(get(reopened, "t"), v)
        assert get(reopened, "u") is None
        reopened.put_many(["u"], [w])
        # the next append starts on an entry boundary
        assert cache.idx_path.read_bytes()[40:] == cache.key("u") + struct.pack("<Q", 76)
        again = EmbeddingCache(tmp_path, "m1")
        np.testing.assert_array_equal(get(again, "t"), v)
        np.testing.assert_array_equal(get(again, "u"), w)

    def test_cache_of_an_older_format_is_ignored(self, tmp_path):
        cache = EmbeddingCache(tmp_path, "m1")
        stem = cache.bin_path.name.removesuffix(f".v{CACHE_FORMAT}.bin")
        # a format-1 cache (CRC-64 trailers) under the names it used
        (tmp_path / f"{stem}.bin").write_bytes(b"\x02\x00\x00\x00" + bytes(24))
        (tmp_path / f"{stem}.idx.jsonl").write_text(
            json.dumps({"key": cache.key("t").hex(), "offset": 0}) + "\n"
        )
        assert get(EmbeddingCache(tmp_path, "m1"), "t") is None

    def test_opening_removes_only_its_own_older_format_pair(self, tmp_path):
        cache = EmbeddingCache(tmp_path, "m1")
        other_model = EmbeddingCache(tmp_path, "m2")
        stem, other = (
            c.bin_path.name.removesuffix(f".v{CACHE_FORMAT}.bin") for c in (cache, other_model)
        )
        stale = [tmp_path / f"{stem}.bin", tmp_path / f"{stem}.idx.jsonl"]
        kept = [
            tmp_path / f"{other}.bin",
            tmp_path / f"{other}.idx.jsonl",
            tmp_path / f"{other}.v2.bin",
            tmp_path / "notes.txt",
            tmp_path / f"{stem}.bin.bak",
        ]
        cache.put_many(["t"], [np.array([0.6, 0.8])])
        for path in stale + kept:
            path.write_bytes(b"older bytes")
        reopened = EmbeddingCache(tmp_path, "m1")
        assert [p.exists() for p in stale] == [False, False]
        assert all(p.read_bytes() == b"older bytes" for p in kept)
        np.testing.assert_array_equal(get(reopened, "t"), [0.6, 0.8])

    def test_hits_of_mixed_dims_and_records_appended_after_a_hit(self, tmp_path):
        # the record size a hit reads first comes from the previous hit,
        # so a longer or shorter record next must still read exactly
        cache = EmbeddingCache(tmp_path, "m1")
        short, long = np.array([0.6, 0.8]), unit(np.arange(1.0, 9.0))
        cache.put_many(["short"], [short])
        np.testing.assert_array_equal(get(cache, "short"), short)
        cache.put_many(["long"], [long])
        np.testing.assert_array_equal(get(cache, "long"), long)
        np.testing.assert_array_equal(get(cache, "short"), short)
        np.testing.assert_array_equal(get(cache, "long"), long)
        got = cache.get_many(["long", "short", "long"])
        for vec, want in zip(got, [long, short, long]):
            np.testing.assert_array_equal(vec, want)

    def test_corrupt_dim_after_a_hit_is_not_a_huge_read(self, tmp_path):
        cache = EmbeddingCache(tmp_path, "m1")
        cache.put_many(["a", "b"], [np.array([0.6, 0.8]), np.array([0.8, 0.6])])
        np.testing.assert_array_equal(get(cache, "a"), [0.6, 0.8])
        raw = bytearray(cache.bin_path.read_bytes())
        raw[28:32] = b"\xff\xff\xff\x7f"  # record b's dim field
        cache.bin_path.write_bytes(bytes(raw))
        for texts in (["b"], ["a", "b"]):
            with pytest.raises(ArtifactError, match="truncated") as exc_info:
                cache.get_many(texts)
            assert exc_info.value.path == cache.bin_path

    def test_one_pread_per_contiguous_run(self, tmp_path, monkeypatch):
        cache = EmbeddingCache(tmp_path, "m1")
        texts = [f"text {i}" for i in range(10)]
        cache.put_many(texts, [unit(np.arange(1.0, 9.0) + i) for i in range(10)])
        get(cache, texts[0])  # learns the record size
        reads = []
        real_pread = embed_mod.os.pread

        def pread(fd, size, offset):
            reads.append((offset, size))
            return real_pread(fd, size, offset)

        monkeypatch.setattr(embed_mod.os, "pread", pread)
        record = 4 + 8 * 8 + 8
        cache.get_many(texts[::-1] + ["missing"] + texts[3:5])
        assert reads == [(0, 10 * record)]
        reads.clear()
        cache.get_many([texts[6], texts[1], texts[2], "missing", texts[7], texts[1]])
        assert reads == [(record, 2 * record), (6 * record, 2 * record)]
        reads.clear()
        get(cache, texts[9])
        assert reads == [(9 * record, record)]

    @settings(max_examples=40, deadline=None)
    @given(
        layout=st.lists(st.tuples(st.integers(0, 11), st.sampled_from([2, 3, 8])), max_size=24),
        query=st.lists(st.integers(0, 14), max_size=30),
        warm=st.booleans(),
    )
    def test_get_many_equals_one_key_reads(self, tmp_path_factory, layout, query, warm):
        """Oracle: each key of a shuffled, repeated, partly missing batch over
        records scattered among others gets the bits of its one-key read."""
        path = tmp_path_factory.mktemp("cache")
        cache = EmbeddingCache(path, "m1")
        # each put is a batch of its own, with records of others between
        for n, (text_no, dim) in enumerate(layout):
            vector = unit(np.sin(np.arange(1.0, dim + 1.0) * (n + 1)))
            cache.put_many([f"filler {n}", f"t{text_no}"], [vector[::-1].copy(), vector])
        texts = [f"t{i}" for i in query]
        if warm and layout:
            get(cache, f"t{layout[-1][0]}")
        batch = EmbeddingCache(path, "m1").get_many(texts) if not warm else cache.get_many(texts)
        single = EmbeddingCache(path, "m1")
        for text, vector in zip(texts, batch):
            alone = get(single, text)
            assert (vector is None) == (alone is None)
            if vector is not None:
                assert vector.tobytes() == alone.tobytes()

    def test_concurrent_put_many_in_two_processes(self, tmp_path):
        """Two processes each cache 12 batches of 200 texts at dim 512 at
        the same time; every text then reads back its own vector. Without
        the flock, a batch takes its offsets from where the .bin ended
        before the other process appended, and its index points into the
        other process's records."""
        ctx = multiprocessing.get_context("spawn")
        start = ctx.Barrier(2)
        procs = [ctx.Process(target=put_rounds, args=(tmp_path, n, 12, start)) for n in "AB"]
        try:
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=60)
            assert [proc.exitcode for proc in procs] == [0, 0]
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.kill()
        texts = [f"{n} {r} {i}" for n in "AB" for r in range(12) for i in range(200)]
        cache = EmbeddingCache(tmp_path, "shared")
        assert cache.idx_path.stat().st_size == 40 * len(texts)
        got = cache.get_many(texts)
        wrong = [t for t, v in zip(texts, got) if v is None or (v != shared_vector(t)).any()]
        assert wrong == []

    def test_embed_texts_populates_and_reuses_cache(self, tmp_path, monkeypatch):
        cfg = mock_cfg()
        cache = EmbeddingCache(tmp_path, cfg.model_name)
        first = embed_texts(cfg, ["x", "y"], cache)
        # poison mock_embed to prove the second call never recomputes
        monkeypatch.setattr(
            embed_mod, "mock_embed", lambda *a: (_ for _ in ()).throw(AssertionError)
        )
        second = embed_texts(cfg, ["x", "y"], cache)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("cached_dim", [32, 128])
    @pytest.mark.parametrize("texts", [["cached"], ["new", "cached", "other", "cached"]],
                             ids=["one-text", "hits-and-misses"])
    def test_a_cached_vector_of_another_dim_is_a_cache_dim_error(self, tmp_path, cached_dim, texts):
        # the same model name at another dim: the hit must not reach the output array
        cache = EmbeddingCache(tmp_path, "mock")
        embed_texts(ProviderConfig(model_name="mock", dim=cached_dim), ["cached"], cache)
        with pytest.raises(CacheDimError, match=f"at dim {cached_dim}, not embedding.dim 64"):
            embed_texts(ProviderConfig(model_name="mock", dim=64), texts, cache)
        assert cache.get_many(["new", "other"]) == [None, None]


class TestMigration:
    """A format-2 cache becomes a format-3 one on first open, losing nothing."""

    def vectors(self, rng):
        texts = [f"text {i}" for i in range(7)] + ["text 2"]
        dims = [4, 4, 8, 4, 2, 8, 4, 4]
        return texts, [unit(rng.normal(size=d)) for d in dims]

    def assert_complete(self, tmp_path, texts, vectors):
        cache = EmbeddingCache(tmp_path, "m1")
        for text, want in dict(zip(texts, vectors)).items():
            assert get(cache, text).tobytes() == np.asarray(want, dtype="<f8").tobytes()
        assert cache.get_many(["not cached"]) == [None]
        return cache

    def test_migrated_vectors_are_bit_equal(self, tmp_path, rng):
        texts, vectors = self.vectors(rng)
        old = v2_pair(EmbeddingCache(tmp_path, "m1"), texts, vectors)
        cache = self.assert_complete(tmp_path, texts, vectors)
        assert [p.exists() for p in old] == [False, False]
        # the later of the repeated text's lines wins, as in format 2
        assert get(cache, "text 2").tobytes() == vectors[-1].tobytes()
        assert cache.idx_path.stat().st_size == 40 * 7
        migrated = EmbeddingCache(tmp_path / "fresh", "m1")
        migrated.put_many(list(dict(zip(texts, vectors))), list(dict(zip(texts, vectors)).values()))
        assert cache.bin_path.read_bytes() == migrated.bin_path.read_bytes()

    def test_migration_keeps_what_the_new_format_already_holds(self, tmp_path, rng):
        texts, vectors = self.vectors(rng)
        cache = EmbeddingCache(tmp_path, "m1")
        extra = unit(rng.normal(size=4))
        cache.put_many(["newer"], [extra])
        v2_pair(cache, texts, vectors)
        self.assert_complete(tmp_path, texts + ["newer"], vectors + [extra])

    def test_killed_after_the_bin_before_the_index(self, tmp_path, rng, monkeypatch):
        # fault injection: the process dies once the .v3 .bin is written
        texts, vectors = self.vectors(rng)
        cache = EmbeddingCache(tmp_path, "m1")
        old = v2_pair(cache, texts, vectors)
        real_write, writes = os.write, []

        def dies_on_the_second_write(fd, data):
            writes.append(fd)
            if len(writes) == 2:
                raise KeyboardInterrupt("killed")
            return real_write(fd, data)

        monkeypatch.setattr(embed_mod.os, "write", dies_on_the_second_write)
        with pytest.raises(KeyboardInterrupt):
            EmbeddingCache(tmp_path, "m1")
        monkeypatch.undo()
        assert cache.bin_path.stat().st_size > 0 and cache.idx_path.stat().st_size == 0
        assert all(p.exists() for p in old)
        self.assert_complete(tmp_path, texts, vectors)
        assert not any(p.exists() for p in old)

    def test_killed_before_the_old_pair_is_removed(self, tmp_path, rng, monkeypatch):
        # fault injection: the process dies once both .v3 files are written
        texts, vectors = self.vectors(rng)
        cache = EmbeddingCache(tmp_path, "m1")
        old = v2_pair(cache, texts, vectors)
        real_unlink = Path.unlink

        def dies_on_the_old_pair(path, *args, **kwargs):
            if path in old:
                raise KeyboardInterrupt("killed")
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", dies_on_the_old_pair)
        with pytest.raises(KeyboardInterrupt):
            EmbeddingCache(tmp_path, "m1")
        monkeypatch.undo()
        written = (cache.bin_path.read_bytes(), cache.idx_path.read_bytes())
        assert all(p.exists() for p in old)
        self.assert_complete(tmp_path, texts, vectors)
        # the rerun finds every key already migrated and appends nothing
        assert (cache.bin_path.read_bytes(), cache.idx_path.read_bytes()) == written
        assert not any(p.exists() for p in old)

    def test_torn_old_index_tail_is_dropped(self, tmp_path, rng):
        texts, vectors = self.vectors(rng)
        _, old_idx = v2_pair(EmbeddingCache(tmp_path, "m1"), texts, vectors)
        with old_idx.open("a") as fh:
            fh.write('{"key": "ab')
        self.assert_complete(tmp_path, texts, vectors)

    @pytest.mark.parametrize(
        "line, problem",
        [
            ({"offset": 0}, "field 'key': missing"),
            ({"key": "k"}, "field 'offset': missing"),
            ({"key": 3, "offset": 0}, "field 'key': expected str"),
            ({"key": "k", "offset": "0"}, "field 'offset': expected int"),
            ({"key": "k", "offset": -5}, "offset -5 is outside"),
            ({"key": "k", "offset": 45}, "offset 45 is outside"),
            ({"key": "not hex", "offset": 0}, "is not a SHA-256 hex digest"),
        ],
    )
    def test_bad_old_index_line_names_its_line(self, tmp_path, line, problem):
        cache = EmbeddingCache(tmp_path, "m1")
        _, old_idx = v2_pair(cache, ["t", "u"], [np.array([0.6, 0.8]), np.array([0.8, 0.6])])
        line = {k: cache.key("t").hex() if v == "k" else v for k, v in line.items()}
        with old_idx.open("a") as fh:
            fh.write(json.dumps(line) + "\n")
        with pytest.raises(ArtifactError, match=problem) as exc_info:
            EmbeddingCache(tmp_path, "m1")
        assert exc_info.value.path == old_idx and f"{old_idx}:3:" in str(exc_info.value)

    def test_corrupt_old_record_rejected(self, tmp_path):
        old_bin, _ = v2_pair(EmbeddingCache(tmp_path, "m1"), ["t"], [np.array([0.6, 0.8])])
        raw = bytearray(old_bin.read_bytes())
        raw[9] ^= 0x01
        old_bin.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="checksum mismatch at offset 0") as exc_info:
            EmbeddingCache(tmp_path, "m1")
        assert exc_info.value.path == old_bin


class FakeHttp:
    """Supplies an OpenAI-style embeddings endpoint; records calls."""

    def __init__(
        self, dim=8, fail_times=0, scramble_order=False, fail_on=(), corrupt_on=None, item_on=None
    ):
        self.dim = dim
        self.calls = []
        self.fail_times = fail_times
        self.scramble_order = scramble_order
        # 1-based numbers of the requests that fail, and their inputs
        self.fail_on = set(fail_on)
        self.failed_inputs = []
        # 1-based request number -> function rewriting each raw embedding
        # of that response
        self.corrupt_on = corrupt_on or {}
        # 1-based request number -> function rewriting each data item of
        # that response
        self.item_on = item_on or {}
        self._numbers = itertools.count(1)

    def __call__(self, url, payload, headers=None, timeout=60):
        self.calls.append((url, json.loads(json.dumps(payload)), headers))
        number = next(self._numbers)
        if number in self.fail_on:
            self.failed_inputs.append(payload["input"])
            raise ProviderError("simulated transport failure")
        if self.fail_times > 0:
            self.fail_times -= 1
            raise ProviderError("simulated transport failure")
        data = []
        indices = list(range(len(payload["input"])))
        if self.scramble_order:
            indices = indices[::-1]
        corrupt = self.corrupt_on.get(number)
        rewrite = self.item_on.get(number)
        for i in indices:
            raw = [float(len(payload["input"][i]) + j) for j in range(self.dim)]
            item = {"index": i, "embedding": corrupt(raw) if corrupt else raw}
            data.append(rewrite(item) if rewrite else item)
        if corrupt or rewrite:
            self.failed_inputs.append(payload["input"])
        # through JSON text, as a real response: json emits and parses NaN
        # and Infinity
        return json.loads(json.dumps({"data": data}))


class TestHttpProvider:
    def http_cfg(self, dim=8, **kw):
        return ProviderConfig(
            kind="http",
            model_name="remote-model",
            dim=dim,
            endpoint="http://fake.test",
            **kw,
        )

    def test_batches_and_normalizes(self, monkeypatch):
        fake = FakeHttp(dim=8)
        monkeypatch.setattr(embed_mod, "post_json", fake)
        cfg = self.http_cfg(batch_size=2)
        out = embed_texts(cfg, ["a", "bb", "ccc"], None)
        assert out.shape == (3, 8)
        assert len(fake.calls) == 2  # 2 + 1 texts
        for row in out:
            assert abs(np.linalg.norm(row) - 1.0) < 1e-9
        url, payload, _ = fake.calls[0]
        assert url == "http://fake.test/v1/embeddings"
        assert payload["model"] == "remote-model"

    def test_out_of_order_response_realigned(self, monkeypatch):
        fake = FakeHttp(dim=8, scramble_order=True)
        monkeypatch.setattr(embed_mod, "post_json", fake)
        out = embed_texts(self.http_cfg(), ["a", "bb"], None)
        # vectors derive from text length, so realignment is observable
        expected_a = unit(np.array([1.0 + j for j in range(8)]))
        np.testing.assert_allclose(out[0], expected_a, atol=1e-12)

    def test_wrong_dim_rejected(self, monkeypatch):
        fake = FakeHttp(dim=6)
        monkeypatch.setattr(embed_mod, "post_json", fake)
        with pytest.raises(ProviderError, match="dim"):
            embed_texts(self.http_cfg(dim=8), ["a"], None)

    def test_auth_header_sent_when_token_present(self, monkeypatch):
        fake = FakeHttp(dim=8)
        monkeypatch.setattr(embed_mod, "post_json", fake)
        monkeypatch.setenv("EMBED_TOKEN", "sk-test")
        embed_texts(self.http_cfg(auth_token_env="EMBED_TOKEN"), ["a"], None)
        _, _, headers = fake.calls[0]
        assert headers["Authorization"] == "Bearer sk-test"

    def test_no_auth_header_without_token(self, monkeypatch):
        fake = FakeHttp(dim=8)
        monkeypatch.setattr(embed_mod, "post_json", fake)
        embed_texts(self.http_cfg(), ["a"], None)
        _, _, headers = fake.calls[0]
        assert not headers or "Authorization" not in headers


class TestHttpBatchPersistence:
    def http_cfg(self, workers):
        return ProviderConfig(
            kind="http", model_name="remote-model", dim=8, endpoint="http://fake.test",
            batch_size=2, max_parallel_requests=workers,
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_failed_request_keeps_other_batches_and_rerun_sends_only_it(
        self, tmp_path, monkeypatch, workers
    ):
        # fault injection: the 3rd of 4 batch requests fails
        cfg = self.http_cfg(workers)
        texts = [f"text {'x' * i}" for i in range(8)]
        failing = FakeHttp(dim=8, fail_on={3})
        monkeypatch.setattr(embed_mod, "post_json", failing)
        with pytest.raises(ProviderError, match="simulated"):
            embed_texts(cfg, texts, EmbeddingCache(tmp_path, cfg.model_name))
        assert len(failing.calls) == 4 and len(failing.failed_inputs) == 1

        rerun = FakeHttp(dim=8)
        monkeypatch.setattr(embed_mod, "post_json", rerun)
        out = embed_texts(cfg, texts, EmbeddingCache(tmp_path, cfg.model_name))
        assert [payload["input"] for _, payload, _ in rerun.calls] == failing.failed_inputs
        np.testing.assert_array_equal(out, embed_texts(cfg, texts, None))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda raw: [float("nan")] + raw[1:], "non-finite"),
            (lambda raw: raw[:-1] + [float("inf")], "non-finite"),
            (lambda raw: [float("-inf")] + raw[1:], "non-finite"),
            (lambda raw: [None] + raw[1:], "non-finite"),
            (lambda raw: ["x"] + raw[1:], "malformed"),
            (lambda raw: [raw] + raw[1:], "malformed"),
            (lambda raw: [0.0] * len(raw), "norm 0.0"),
            (lambda raw: [1e200] * len(raw), "norm inf"),
        ],
    )
    def test_bad_vector_fails_its_batch_and_caches_nothing_of_it(
        self, tmp_path, monkeypatch, corrupt, message
    ):
        # fault injection: the 2nd of 3 batch responses carries a bad vector
        self.assert_bad_batch_fails_alone(
            tmp_path, monkeypatch, FakeHttp(dim=8, corrupt_on={2: corrupt}), message
        )

    @pytest.mark.parametrize(
        "rewrite", [lambda item: item["embedding"], lambda item: "x"], ids=["list", "string"]
    )
    def test_item_that_is_not_an_object_fails_its_batch(self, tmp_path, monkeypatch, rewrite):
        # fault injection: the 2nd of 3 batch responses holds bare values
        self.assert_bad_batch_fails_alone(
            tmp_path, monkeypatch, FakeHttp(dim=8, item_on={2: rewrite}), "malformed"
        )

    def assert_bad_batch_fails_alone(self, tmp_path, monkeypatch, poisoned, message):
        """The poisoned batch raises ProviderError and caches nothing; a
        rerun requests exactly that batch again."""
        cfg = self.http_cfg(workers=1)
        texts = [f"text {'x' * i}" for i in range(6)]
        monkeypatch.setattr(embed_mod, "post_json", poisoned)
        with pytest.raises(ProviderError, match=message):
            embed_texts(cfg, texts, EmbeddingCache(tmp_path, cfg.model_name))
        cache = EmbeddingCache(tmp_path, cfg.model_name)
        bad = set(poisoned.failed_inputs[0])
        assert bad == set(texts[2:4])
        for text in texts:
            assert (get(cache, text) is None) == (text in bad)

        rerun = FakeHttp(dim=8)
        monkeypatch.setattr(embed_mod, "post_json", rerun)
        out = embed_texts(cfg, texts, cache)
        assert [payload["input"] for _, payload, _ in rerun.calls] == poisoned.failed_inputs
        assert np.isfinite(out).all()

    def test_cache_bytes_do_not_depend_on_request_order(self, tmp_path, monkeypatch):
        texts = [f"text {'x' * i}" for i in range(9)]
        fake = FakeHttp(dim=8)

        def first_batch_answers_last(url, payload, headers=None, timeout=60):
            if payload["input"][0] == texts[0]:
                time.sleep(0.05)
            return fake(url, payload, headers, timeout)

        monkeypatch.setattr(embed_mod, "post_json", first_batch_answers_last)
        files = []
        for workers in (1, 4):
            cache = EmbeddingCache(tmp_path / str(workers), "remote-model")
            embed_texts(self.http_cfg(workers), texts, cache)
            files.append((cache.bin_path.read_bytes(), cache.idx_path.read_bytes()))
        assert files[0] == files[1]


class TestProviderConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind="grpc", model_name="m", dim=8)

    def test_http_requires_endpoint(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind="http", model_name="m", dim=8)

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind="mock", model_name="m", dim=0)

    def test_mock_dim_below_eight_is_rejected_but_an_http_one_is_not(self):
        with pytest.raises(ValueError, match="mock embedding dim must be >= 8, got 7"):
            ProviderConfig(kind="mock", model_name="m", dim=7)
        assert ProviderConfig(kind="http", model_name="m", dim=7, endpoint="http://x").dim == 7
