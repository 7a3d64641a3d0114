"""Embedding providers, normalization, and the content-addressed cache."""

import hashlib
import itertools
import json
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tabret.embed as embed_mod
from tabret.embed import (
    ARTIFACT_FORMAT,
    EmbeddingCache,
    ProviderConfig,
    embed_texts,
    mock_embed,
)
from tabret.fsio import ArtifactError, checksum
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


class TestCache:
    def test_put_get_round_trip(self, tmp_path, rng):
        cache = EmbeddingCache(tmp_path, "m1")
        v = unit(rng.normal(size=32))
        cache.put_many(["some text"], [v])
        got = cache.get("some text")
        np.testing.assert_array_equal(got, v)

    def test_miss_returns_none(self, tmp_path):
        assert EmbeddingCache(tmp_path, "m1").get("absent") is None

    def test_model_names_are_isolated(self, tmp_path, rng):
        v = unit(rng.normal(size=8))
        EmbeddingCache(tmp_path, "m1").put_many(["t"], [v])
        assert EmbeddingCache(tmp_path, "m2").get("t") is None

    def test_persists_across_instances(self, tmp_path, rng):
        v = unit(rng.normal(size=8))
        EmbeddingCache(tmp_path, "m1").put_many(["t"], [v])
        got = EmbeddingCache(tmp_path, "m1").get("t")
        np.testing.assert_array_equal(got, v)

    def test_put_idempotent(self, tmp_path, rng):
        cache = EmbeddingCache(tmp_path, "m1")
        v = unit(rng.normal(size=8))
        cache.put_many(["t"], [v])
        cache.put_many(["t"], [v])
        np.testing.assert_array_equal(cache.get("t"), v)

    def test_corruption_detected(self, tmp_path, rng):
        cache = EmbeddingCache(tmp_path, "m1")
        cache.put_many(["t"], [unit(rng.normal(size=8))])
        bins = list(Path(tmp_path).glob("*.bin"))
        assert bins
        raw = bytearray(bins[0].read_bytes())
        raw[6] ^= 0xFF
        bins[0].write_bytes(bytes(raw))
        fresh = EmbeddingCache(tmp_path, "m1")
        with pytest.raises(ArtifactError, match="checksum mismatch") as exc_info:
            fresh.get("t")
        assert exc_info.value.path == bins[0]

    def _one_record(self, tmp_path):
        cache = EmbeddingCache(tmp_path, "m1")
        cache.put_many(["t"], [np.array([0.6, 0.8])])
        return cache.bin_path

    def test_record_layout_and_trailer(self, tmp_path):
        raw = self._one_record(tmp_path).read_bytes()
        assert len(raw) == 4 + 8 * 2 + 8
        assert raw[-8:] == checksum(raw[:-8])

    def test_every_single_byte_flip_rejected(self, tmp_path):
        path = self._one_record(tmp_path)
        raw = path.read_bytes()
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises(ArtifactError, match="truncated|checksum mismatch") as exc_info:
                EmbeddingCache(tmp_path, "m1").get("t")
            assert exc_info.value.path == path

    @pytest.mark.parametrize("cut", range(1, 9))
    def test_truncation_by_up_to_a_trailer_rejected(self, tmp_path, cut):
        path = self._one_record(tmp_path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ArtifactError, match="truncated") as exc_info:
            EmbeddingCache(tmp_path, "m1").get("t")
        assert exc_info.value.path == path

    def test_put_many_skips_cached_and_repeated_texts(self, tmp_path, rng):
        cache = EmbeddingCache(tmp_path, "m1")
        a, b = unit(rng.normal(size=4)), unit(rng.normal(size=4))
        cache.put_many(["a"], [a])
        cache.put_many(["a", "b", "b"], [b, b, a])
        assert cache.bin_path.stat().st_size == 2 * (4 + 8 * 4 + 8)
        assert len(cache.idx_path.read_text().splitlines()) == 2
        fresh = EmbeddingCache(tmp_path, "m1")
        np.testing.assert_array_equal(fresh.get("a"), a)
        np.testing.assert_array_equal(fresh.get("b"), b)

    def test_torn_index_line_dropped(self, tmp_path, rng):
        # fault injection: a kill in the middle of the index append
        cache = EmbeddingCache(tmp_path, "m1")
        v, w = unit(rng.normal(size=8)), unit(rng.normal(size=8))
        cache.put_many(["t"], [v])
        with cache.idx_path.open("a") as fh:
            fh.write('{"key": "ab')
        reopened = EmbeddingCache(tmp_path, "m1")
        np.testing.assert_array_equal(reopened.get("t"), v)
        reopened.put_many(["u"], [w])
        again = EmbeddingCache(tmp_path, "m1")
        np.testing.assert_array_equal(again.get("t"), v)
        np.testing.assert_array_equal(again.get("u"), w)

    def test_cache_of_an_older_format_is_ignored(self, tmp_path):
        cache = EmbeddingCache(tmp_path, "m1")
        assert cache.bin_path.name.endswith(f".v{ARTIFACT_FORMAT}.bin")
        # a format-1 cache (CRC-64 trailers) under the names it used
        old = lambda p: p.with_name(p.name.replace(f".v{ARTIFACT_FORMAT}", ""))
        old(cache.bin_path).write_bytes(b"\x02\x00\x00\x00" + bytes(24))
        old(cache.idx_path).write_text(json.dumps({"key": cache.key("t"), "offset": 0}) + "\n")
        assert EmbeddingCache(tmp_path, "m1").get("t") is None

    def test_opening_removes_only_its_own_older_format_pair(self, tmp_path):
        cache = EmbeddingCache(tmp_path, "m1")
        old = lambda p: p.with_name(p.name.replace(f".v{ARTIFACT_FORMAT}", ""))
        stale = [old(cache.bin_path), old(cache.idx_path)]
        other_model = EmbeddingCache(tmp_path, "m2")
        kept = [
            old(other_model.bin_path),
            old(other_model.idx_path),
            tmp_path / "notes.txt",
            cache.bin_path.with_name(old(cache.bin_path).name + ".bak"),
        ]
        cache.put_many(["t"], [np.array([0.6, 0.8])])
        for path in stale + kept:
            path.write_bytes(b"older bytes")
        reopened = EmbeddingCache(tmp_path, "m1")
        assert [p.exists() for p in stale] == [False, False]
        assert all(p.read_bytes() == b"older bytes" for p in kept)
        np.testing.assert_array_equal(reopened.get("t"), [0.6, 0.8])

    def test_hits_of_mixed_dims_and_records_appended_after_a_hit(self, tmp_path):
        # the record size a hit reads first comes from the previous hit,
        # so a longer or shorter record next must still read exactly
        cache = EmbeddingCache(tmp_path, "m1")
        short, long = np.array([0.6, 0.8]), unit(np.arange(1.0, 9.0))
        cache.put_many(["short"], [short])
        np.testing.assert_array_equal(cache.get("short"), short)
        cache.put_many(["long"], [long])
        np.testing.assert_array_equal(cache.get("long"), long)
        np.testing.assert_array_equal(cache.get("short"), short)
        np.testing.assert_array_equal(cache.get("long"), long)

    def test_corrupt_dim_after_a_hit_is_not_a_huge_read(self, tmp_path):
        cache = EmbeddingCache(tmp_path, "m1")
        cache.put_many(["a", "b"], [np.array([0.6, 0.8]), np.array([0.8, 0.6])])
        np.testing.assert_array_equal(cache.get("a"), [0.6, 0.8])
        raw = bytearray(cache.bin_path.read_bytes())
        raw[28:32] = b"\xff\xff\xff\x7f"  # record b's dim field
        cache.bin_path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="truncated") as exc_info:
            cache.get("b")
        assert exc_info.value.path == cache.bin_path

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
        embed_texts(self.http_cfg(auth_token="sk-test"), ["a"], None)
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
            assert (cache.get(text) is None) == (text in bad)

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
