"""Query generation: prompt rendering, response parsing, providers."""

import json

import pytest

import tabret.querygen as querygen
from tabret.httpjson import ProviderError
from tabret.kpt import PartialTable
from tabret.querygen import (
    PROMPT_TEMPLATE,
    ChatConfig,
    GenConfig,
    SyntheticQuery,
    extract_questions,
    generate_all,
    generate_queries,
    mock_chat_response,
    query_from_record,
    render_prompt,
)


def make_pt(
    pt_id: str = "inv_a#first_rows#f",
    table_id: str = "inv_a",
    text: str = "sku | name\nsku: a-01 | name: bolt",
) -> PartialTable:
    return PartialTable(
        pt_id=pt_id,
        table_id=table_id,
        strategy="first_rows",
        cluster_index=None,
        row_indices=[0],
        text=text,
    )


class TestRenderPrompt:
    def test_matches_independent_substitution(self):
        # replace {table_chunk} last so slot-like text inside the chunk
        # is never itself substituted — mirrors the single-pass contract
        pt = make_pt(text="h1 | h2\nh1: x | h2: y")
        cfg = GenConfig(n_q=7, lang="de")
        expected = (
            PROMPT_TEMPLATE.replace("{questions_per_chunk}", "7")
            .replace("{lang}", "de")
            .replace("{table_chunk}", pt.text)
        )
        assert render_prompt(pt, cfg) == expected

    def test_single_pass_never_retemplates_chunk_text(self):
        pt = make_pt(text="h\nh: keep {lang} and {questions_per_chunk} verbatim")
        out = render_prompt(pt, GenConfig(n_q=5, lang="en"))
        assert "keep {lang} and {questions_per_chunk} verbatim" in out
        # the template's own slots were filled, so the only brace-slots
        # left are the ones the chunk carried in
        assert out.count("{lang}") == 1
        assert out.count("{questions_per_chunk}") == 1
        assert "{table_chunk}" not in out

    def test_json_example_braces_survive(self):
        out = render_prompt(make_pt(), GenConfig())
        assert '"questions": ["question1", "question2", "question3", ...]' in out
        assert "Output Format (JSON only):" in out

    def test_question_count_fills_both_slots(self):
        out = render_prompt(make_pt(), GenConfig(n_q=9))
        assert "Generate 9 diverse questions" in out
        assert out.endswith("Generate 9 questions now:")

    def test_empty_chunk_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            render_prompt(make_pt(text=""), GenConfig())


class TestExtractQuestions:
    def test_plain_object(self):
        assert extract_questions('{"questions": ["a", "b"]}') == ["a", "b"]

    def test_markdown_fenced(self):
        text = 'Here you go:\n```json\n{"questions": ["a"]}\n```\n'
        assert extract_questions(text) == ["a"]

    def test_prose_around_object(self):
        text = 'Sure! {"questions": ["a", "b"]} Hope that helps.'
        assert extract_questions(text) == ["a", "b"]

    def test_skips_invalid_brace_runs(self):
        text = '{ not json } then {"questions": ["a"]}'
        assert extract_questions(text) == ["a"]

    def test_skips_objects_without_questions(self):
        text = '{"foo": 1} {"questions": ["a"]}'
        assert extract_questions(text) == ["a"]

    def test_finds_object_nested_in_wrapper(self):
        # the outer object has no "questions" key, but scanning continues
        # from the inner brace and accepts the nested object
        text = '{"result": {"questions": ["a"]}}'
        assert extract_questions(text) == ["a"]

    def test_questions_must_be_a_list(self):
        assert extract_questions('{"questions": "a"}') is None

    def test_non_string_entries_dropped(self):
        text = '{"questions": ["a", 3, null, "b", ["c"]]}'
        assert extract_questions(text) == ["a", "b"]

    def test_empty_list_is_not_a_parse_failure(self):
        assert extract_questions('{"questions": []}') == []

    def test_no_json_returns_none(self):
        assert extract_questions("I cannot help with that.") is None
        assert extract_questions("") is None


class TestMockProvider:
    def test_reads_first_data_row_and_cycles_columns(self):
        pt = make_pt(text="sku | name | qty\nsku: a-01 | name: bolt | qty: 3")
        response = mock_chat_response(render_prompt(pt, GenConfig(n_q=5)))
        assert json.loads(response)["questions"] == [
            "What is the value of sku for a-01?",
            "What is the value of name for bolt?",
            "What is the value of qty for 3?",
            "What is the value of sku for a-01?",
            "What is the value of name for bolt?",
        ]

    def test_unescapes_serialized_cells(self):
        pt = make_pt(text="note\nnote: a\\|b\\nc")
        response = mock_chat_response(render_prompt(pt, GenConfig(n_q=1)))
        assert json.loads(response)["questions"] == [
            "What is the value of note for a|b\nc?"
        ]

    def test_header_only_chunk_falls_back(self):
        pt = make_pt(text="sku | name")
        response = mock_chat_response(render_prompt(pt, GenConfig(n_q=3)))
        assert json.loads(response)["questions"] == ["What does this table describe?"]

    def test_deterministic(self):
        prompt = render_prompt(make_pt(), GenConfig())
        assert mock_chat_response(prompt) == mock_chat_response(prompt)


class TestGenerateQueries:
    def test_mock_end_to_end_dedupes_and_numbers(self):
        pt = make_pt(text="sku | name | qty\nsku: a-01 | name: bolt | qty: 3")
        queries = generate_queries(pt, GenConfig(n_q=5))
        # three distinct column/value pairs -> the two cycled repeats
        # collapse under case-insensitive dedup
        assert [q.text for q in queries] == [
            "What is the value of sku for a-01?",
            "What is the value of name for bolt?",
            "What is the value of qty for 3?",
        ]
        assert [q.query_id for q in queries] == [
            "inv_a#first_rows#f#q0",
            "inv_a#first_rows#f#q1",
            "inv_a#first_rows#f#q2",
        ]
        assert all(q.pt_id == pt.pt_id for q in queries)
        assert all(q.table_id == "inv_a" for q in queries)
        assert all(q.lang == "en" for q in queries)

    def test_caps_at_n_q(self, monkeypatch):
        listed = json.dumps({"questions": [f"q{i}" for i in range(8)]})
        monkeypatch.setattr(querygen, "chat_complete", lambda cfg, prompt: listed)
        queries = generate_queries(make_pt(), GenConfig(n_q=5))
        assert [q.text for q in queries] == ["q0", "q1", "q2", "q3", "q4"]

    def test_strips_and_drops_blank_questions(self, monkeypatch):
        listed = json.dumps({"questions": ["  a  ", "", "   ", "b"]})
        monkeypatch.setattr(querygen, "chat_complete", lambda cfg, prompt: listed)
        queries = generate_queries(make_pt(), GenConfig(n_q=5))
        assert [q.text for q in queries] == ["a", "b"]

    def test_dedup_is_case_insensitive(self, monkeypatch):
        listed = json.dumps({"questions": ["Alpha", "alpha", "ALPHA ", "beta"]})
        monkeypatch.setattr(querygen, "chat_complete", lambda cfg, prompt: listed)
        queries = generate_queries(make_pt(), GenConfig(n_q=5))
        assert [q.text for q in queries] == ["Alpha", "beta"]

    def test_retry_until_enough_questions(self, monkeypatch):
        responses = iter(
            [
                json.dumps({"questions": ["a", "b"]}),
                json.dumps({"questions": ["c", "d", "e", "f", "g"]}),
            ]
        )
        calls = []

        def fake(cfg, prompt):
            calls.append(prompt)
            return next(responses)

        monkeypatch.setattr(querygen, "chat_complete", fake)
        queries = generate_queries(make_pt(), GenConfig(n_q=5, max_retries=3))
        assert len(calls) == 2
        assert [q.text for q in queries] == ["c", "d", "e", "f", "g"]

    def test_repeated_response_stops_retrying(self, monkeypatch):
        same = json.dumps({"questions": ["only one"]})
        calls = []

        def fake(cfg, prompt):
            calls.append(prompt)
            return same

        monkeypatch.setattr(querygen, "chat_complete", fake)
        queries = generate_queries(make_pt(), GenConfig(n_q=5, max_retries=4))
        # a deterministic provider cannot improve, so the second
        # identical reply ends the loop early
        assert len(calls) == 2
        assert [q.text for q in queries] == ["only one"]

    def test_keeps_best_attempt(self, monkeypatch):
        responses = iter(
            [
                json.dumps({"questions": ["a", "b", "c"]}),
                json.dumps({"questions": ["z"]}),
                json.dumps({"questions": ["y", "x"]}),
            ]
        )
        monkeypatch.setattr(querygen, "chat_complete", lambda cfg, prompt: next(responses))
        queries = generate_queries(make_pt(), GenConfig(n_q=5, max_retries=3))
        assert [q.text for q in queries] == ["a", "b", "c"]

    def test_all_unparseable_gives_no_query(self, monkeypatch):
        monkeypatch.setattr(querygen, "chat_complete", lambda cfg, prompt: "no json here")
        assert generate_queries(make_pt(), GenConfig(n_q=5, max_retries=3)) == []

    @pytest.mark.parametrize("max_retries", [0, -2])
    def test_max_retries_below_one_rejected(self, max_retries):
        with pytest.raises(ValueError, match="max_retries must be >= 1"):
            GenConfig(max_retries=max_retries)

    def test_one_attempt_sends_one_request(self, monkeypatch):
        calls = []

        def fake(cfg, prompt):
            calls.append(prompt)
            return "no json here"

        monkeypatch.setattr(querygen, "chat_complete", fake)
        assert generate_queries(make_pt(), GenConfig(n_q=5, max_retries=1)) == []
        assert len(calls) == 1


class TestGenerateAll:
    def test_canonical_order_and_skips(self, monkeypatch):
        pts = [
            make_pt(pt_id="b#first_rows#f", table_id="b", text="h\nh: vb"),
            make_pt(pt_id="a#first_rows#f", table_id="a", text="h\nh: va"),
            make_pt(pt_id="c#first_rows#f", table_id="c", text="h\nh: vc"),
        ]

        def fake(cfg, prompt):
            if ": vb" in prompt:
                return "garbage"
            return mock_chat_response(prompt)

        monkeypatch.setattr(querygen, "chat_complete", fake)
        queries, skipped = generate_all(pts, GenConfig(n_q=1, max_retries=2))
        assert skipped == ["b#first_rows#f"]
        assert [q.query_id for q in queries] == [
            "a#first_rows#f#q0",
            "c#first_rows#f#q0",
        ]

    def test_mock_provider_runs_serially_and_completely(self):
        pts = [
            make_pt(pt_id=f"t{i}#first_rows#f", table_id=f"t{i}", text=f"h\nh: v{i}")
            for i in (2, 0, 1)
        ]
        queries, skipped = generate_all(pts, GenConfig(n_q=1))
        assert skipped == []
        assert [q.pt_id for q in queries] == [
            "t0#first_rows#f",
            "t1#first_rows#f",
            "t2#first_rows#f",
        ]


class FakeChatHttp:
    """Chat endpoint double: records requests, answers like the mock."""

    def __init__(self, payload=None):
        self.payload = payload
        self.calls = []

    def __call__(self, url, body, headers=None, timeout=None):
        self.calls.append({"url": url, "body": body, "headers": headers})
        if self.payload is not None:
            return self.payload
        content = mock_chat_response(body["messages"][0]["content"])
        return {"choices": [{"message": {"content": content}}]}


def http_cfg(**kwargs) -> GenConfig:
    provider = ChatConfig(
        kind="http",
        model_name="chat-large",
        endpoint="http://fake.test",
        **kwargs,
    )
    return GenConfig(n_q=2, temperature=0.4, max_tokens=1024, provider=provider)


class TestHttpProvider:
    def test_request_shape(self, monkeypatch):
        fake = FakeChatHttp()
        monkeypatch.setattr(querygen, "post_json", fake)
        queries = generate_queries(make_pt(), http_cfg())
        assert len(queries) >= 1
        call = fake.calls[0]
        assert call["url"] == "http://fake.test/v1/chat/completions"
        assert call["body"]["model"] == "chat-large"
        assert call["body"]["temperature"] == 0.4
        assert call["body"]["max_tokens"] == 1024
        assert call["body"]["messages"][0]["role"] == "user"
        assert "table chunk" in call["body"]["messages"][0]["content"]

    def test_auth_header_only_with_token(self, monkeypatch):
        fake = FakeChatHttp()
        monkeypatch.setattr(querygen, "post_json", fake)
        monkeypatch.setenv("CHAT_TOKEN", "sk-test")
        generate_queries(make_pt(), http_cfg(auth_token_env="CHAT_TOKEN"))
        assert fake.calls[0]["headers"] == {"Authorization": "Bearer sk-test"}

        fake.calls.clear()
        generate_queries(make_pt(), http_cfg())
        assert fake.calls[0]["headers"] is None

    def test_trailing_slash_endpoint_normalized(self, monkeypatch):
        fake = FakeChatHttp()
        monkeypatch.setattr(querygen, "post_json", fake)
        provider = ChatConfig(kind="http", endpoint="http://fake.test/")
        generate_queries(make_pt(), GenConfig(provider=provider))
        assert fake.calls[0]["url"] == "http://fake.test/v1/chat/completions"

    def test_missing_choices_is_provider_error(self, monkeypatch):
        monkeypatch.setattr(querygen, "post_json", FakeChatHttp(payload={"oops": 1}))
        with pytest.raises(ProviderError, match="choices"):
            generate_queries(make_pt(), http_cfg())

    def test_non_string_content_is_provider_error(self, monkeypatch):
        payload = {"choices": [{"message": {"content": 42}}]}
        monkeypatch.setattr(querygen, "post_json", FakeChatHttp(payload=payload))
        with pytest.raises(ProviderError, match="not a string"):
            generate_queries(make_pt(), http_cfg())

    @pytest.mark.parametrize(
        "content",
        [
            # a JSON escape inside the reply text, as a model writes it
            '{"questions": ["Which part is \\ud800?", "Which part is x?"]}',
            # a surrogate in the reply text itself, from the response's JSON
            '{"questions": ["Which part is x?", "Which part is \ud800?"]}',
        ],
    )
    def test_lone_surrogate_in_a_question_is_provider_error(self, monkeypatch, content):
        payload = {"choices": [{"message": {"content": content}}]}
        monkeypatch.setattr(querygen, "post_json", FakeChatHttp(payload=payload))
        with pytest.raises(ProviderError, match=r"lone surrogate '\\ud800'"):
            generate_all([make_pt()], http_cfg())

    def test_lone_surrogate_outside_the_questions_is_ignored(self, monkeypatch):
        content = 'Sure \ud800: {"questions": ["Which part is x?", "Which part is y?"]}'
        payload = {"choices": [{"message": {"content": content}}]}
        monkeypatch.setattr(querygen, "post_json", FakeChatHttp(payload=payload))
        queries = generate_queries(make_pt(), http_cfg())
        assert [q.text for q in queries] == ["Which part is x?", "Which part is y?"]

    def test_generate_all_parallel_output_is_canonical(self, monkeypatch):
        fake = FakeChatHttp()
        monkeypatch.setattr(querygen, "post_json", fake)
        pts = [
            make_pt(
                pt_id=f"t{i}#first_rows#f",
                table_id=f"t{i}",
                text=f"h1 | h2\nh1: v{i} | h2: w{i}",
            )
            for i in (3, 1, 0, 2)
        ]
        cfg = http_cfg(max_parallel_requests=2)
        queries, skipped = generate_all(pts, cfg)
        assert skipped == []
        assert [q.pt_id for q in queries] == sorted(q.pt_id for q in queries)
        # two distinct questions per chunk satisfy n_q=2 on the first call
        assert len(fake.calls) == 4

    def test_generate_all_raises_the_first_provider_error_and_stops(self, monkeypatch):
        fake = FakeChatHttp()

        def fail_on_second(url, body, headers=None, timeout=None):
            if len(fake.calls) == 1:
                fake.calls.append(body)
                raise ProviderError("chat is down")
            return fake(url, body, headers, timeout)

        monkeypatch.setattr(querygen, "post_json", fail_on_second)
        pts = [make_pt(pt_id=f"t{i}#first_rows#f", table_id=f"t{i}") for i in range(4)]
        with pytest.raises(ProviderError, match="chat is down"):
            generate_all(pts, http_cfg(max_parallel_requests=1))
        assert len(fake.calls) == 2  # one worker: nothing is sent after the failure


class TestConfigValidation:
    def test_unknown_chat_kind(self):
        with pytest.raises(ValueError, match="http.*mock|mock.*http"):
            ChatConfig(kind="local")

    def test_http_requires_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            ChatConfig(kind="http")

    @pytest.mark.parametrize("n_q", [0, -1])
    def test_n_q_positive(self, n_q):
        with pytest.raises(ValueError, match="n_q"):
            GenConfig(n_q=n_q)

    @pytest.mark.parametrize("temperature", [-0.1, 2.5])
    def test_temperature_range(self, temperature):
        with pytest.raises(ValueError, match="temperature"):
            GenConfig(temperature=temperature)

    def test_boundary_temperatures_accepted(self):
        assert GenConfig(temperature=0.0).temperature == 0.0
        assert GenConfig(temperature=2.0).temperature == 2.0


class TestRecordRoundTrip:
    def test_round_trip(self):
        q = SyntheticQuery(
            query_id="t#kpt_random#0#q1",
            pt_id="t#kpt_random#0",
            table_id="t",
            text="What is the value of sku for a-01?",
            lang="en",
        )
        assert query_from_record(vars(q)) == q
