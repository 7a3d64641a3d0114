"""Synthetic query generation for partial tables via a chat LLM.

The prompt template is fixed; substitution is single-pass, so braces
inside the table text are never re-templated. Responses are parsed
leniently: the first JSON object containing a "questions" array is
accepted wherever it sits in the reply (prose and markdown fences
around it are ignored). A deterministic mock provider supports offline
runs and tests.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

from .httpjson import ProviderError, post_json
from .kpt import PartialTable

# Single user-message prompt. The blank-line layout is part of the
# contract; the "  \n" piece keeps the two trailing spaces inside the
# JSON example that editors would otherwise strip. Do not reformat.
PROMPT_TEMPLATE = (
    """You are given a table chunk with the following content:
{table_chunk}


Your Task:
Generate {questions_per_chunk} diverse questions that would retrieve this specific table chunk.
The questions should be based on the actual content shown in the table above.

Question Types to Cover:

1. Entity-specific query

2. Temporal query

3. Comparison/Ranking query

4. Aggregation query

5. Complex reasoning query

Important Requirements:

- Use natural, conversational language

- Make questions specific to the actual content shown in the table

- Reference real values from the table when possible

- Questions should be answerable by looking at this table chunk

- Language: {lang}


Output Format (JSON only):

{

  "questions": ["question1", "question2", "question3", ...]
"""
    + "  \n"
    + """}


Generate {questions_per_chunk} questions now:"""
)


class QueryGenError(RuntimeError):
    """A partial table yielded no usable queries after retries."""


@dataclass(frozen=True)
class ChatConfig:
    kind: str = "mock"
    model_name: str = "mock-chat"
    endpoint: str = ""
    auth_token: str | None = None
    timeout: float = 120.0
    max_parallel_requests: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("http", "mock"):
            raise ValueError(f"chat provider kind must be 'http' or 'mock', got {self.kind!r}")
        if self.kind == "http" and not self.endpoint:
            raise ValueError("http chat provider requires an endpoint")


@dataclass(frozen=True)
class GenConfig:
    n_q: int = 5
    temperature: float = 0.4
    max_tokens: int = 1024
    lang: str = "en"
    max_retries: int = 3
    provider: ChatConfig = field(default_factory=ChatConfig)

    def __post_init__(self) -> None:
        if self.n_q < 1:
            raise ValueError("n_q must be >= 1")
        if not 0 <= self.temperature <= 2:
            raise ValueError("temperature must be in [0, 2]")


@dataclass(frozen=True)
class SyntheticQuery:
    query_id: str
    pt_id: str
    table_id: str
    text: str
    lang: str


# read once: dataclasses.fields costs more than building the query
_QUERY_FIELDS = tuple(f.name for f in fields(SyntheticQuery))


def render_prompt(pt: PartialTable, cfg: GenConfig) -> str:
    """Fill the template slots in one pass; inserted text is kept verbatim."""
    if not pt.text:
        raise ValueError(f"{pt.pt_id}: partial table text is empty")
    slots = {
        "table_chunk": pt.text,
        "questions_per_chunk": str(cfg.n_q),
        "lang": cfg.lang,
    }
    return re.sub(
        r"\{(table_chunk|questions_per_chunk|lang)\}",
        lambda m: slots[m.group(1)],
        PROMPT_TEMPLATE,
    )


def extract_questions(text: str) -> list[str] | None:
    """First JSON object anywhere in text whose "questions" value is a list."""
    decoder = json.JSONDecoder()
    for i, ch in enumerate(text):
        if ch != "{":
            continue
        try:
            obj, _ = decoder.raw_decode(text, i)
        except ValueError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("questions"), list):
            return [q for q in obj["questions"] if isinstance(q, str)]
    return None


def _unescape_field(text: str) -> str:
    return re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), text, flags=re.S)


def mock_chat_response(prompt: str) -> str:
    """Deterministic stand-in for a chat model.

    Reads the table chunk and question count back out of the prompt and
    emits "What is the value of <col> for <cell>?" over the chunk's
    first data row, cycling through its columns.
    """
    count = re.search(r"Generate (\d+) diverse questions", prompt)
    chunk = re.search(r"content:\n(.*?)\n\n\nYour Task:", prompt, re.DOTALL)
    n_q = int(count.group(1)) if count else 1
    lines = chunk.group(1).split("\n") if chunk else []
    if len(lines) < 2:
        return json.dumps({"questions": ["What does this table describe?"]})
    pairs = []
    for part in lines[1].split(" | "):
        col, sep, val = part.partition(": ")
        pairs.append((_unescape_field(col), _unescape_field(val) if sep else ""))
    questions = [
        f"What is the value of {pairs[i % len(pairs)][0]} for {pairs[i % len(pairs)][1]}?"
        for i in range(n_q)
    ]
    return json.dumps({"questions": questions})


def chat_complete(cfg: GenConfig, prompt: str) -> str:
    if cfg.provider.kind == "mock":
        return mock_chat_response(prompt)
    url = cfg.provider.endpoint.rstrip("/") + "/v1/chat/completions"
    headers = (
        {"Authorization": f"Bearer {cfg.provider.auth_token}"} if cfg.provider.auth_token else None
    )
    body = post_json(
        url,
        {
            "model": cfg.provider.model_name,
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
            "messages": [{"role": "user", "content": prompt}],
        },
        headers=headers,
        timeout=cfg.provider.timeout,
    )
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise ProviderError(f"{url}: response has no choices[0].message.content") from None
    if not isinstance(content, str):
        raise ProviderError(f"{url}: message content is not a string")
    return content


def _postprocess(raw: list[str], n_q: int) -> list[str]:
    """Trim, drop empties, dedupe case-insensitively, cap at n_q."""
    seen: set[str] = set()
    out = []
    for q in raw:
        q = q.strip()
        if not q or q.lower() in seen:
            continue
        seen.add(q.lower())
        out.append(q)
        if len(out) == n_q:
            break
    return out


def generate_queries(pt: PartialTable, cfg: GenConfig) -> list[SyntheticQuery]:
    """Query the provider, retrying while it under-delivers, then accept.

    Retries stop early when a response repeats verbatim (a deterministic
    provider cannot do better). Raises QueryGenError if every attempt
    yields zero usable questions.
    """
    prompt = render_prompt(pt, cfg)
    best: list[str] = []
    previous_response = None
    for _ in range(max(1, cfg.max_retries)):
        response = chat_complete(cfg, prompt)
        raw = extract_questions(response)
        questions = _postprocess(raw or [], cfg.n_q)
        if len(questions) > len(best):
            best = questions
        if len(best) >= cfg.n_q or response == previous_response:
            break
        previous_response = response
    if not best:
        raise QueryGenError(f"{pt.pt_id}: no parseable questions after {cfg.max_retries} attempts")
    return [
        SyntheticQuery(
            query_id=f"{pt.pt_id}#q{i}",
            pt_id=pt.pt_id,
            table_id=pt.table_id,
            text=q,
            lang=cfg.lang,
        )
        for i, q in enumerate(best)
    ]


def generate_all(
    pts: list[PartialTable], cfg: GenConfig
) -> tuple[list[SyntheticQuery], list[str]]:
    """Generate for every partial table; returns (queries, skipped pt_ids).

    Output is canonical: partial tables sorted by pt_id, queries in
    ordinal order, regardless of worker completion order.
    """
    ordered = sorted(pts, key=lambda p: p.pt_id)
    results: dict[str, list[SyntheticQuery] | None] = {}
    if cfg.provider.kind == "http" and len(ordered) > 1:
        workers = max(1, min(cfg.provider.max_parallel_requests, len(ordered)))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outs = pool.map(lambda p: _generate_or_none(p, cfg), ordered)
            results = {pt.pt_id: out for pt, out in zip(ordered, outs)}
    else:
        results = {pt.pt_id: _generate_or_none(pt, cfg) for pt in ordered}
    queries: list[SyntheticQuery] = []
    skipped: list[str] = []
    for pt in ordered:
        out = results[pt.pt_id]
        if out is None:
            skipped.append(pt.pt_id)
        else:
            queries.extend(out)
    return queries, skipped


def _generate_or_none(pt: PartialTable, cfg: GenConfig) -> list[SyntheticQuery] | None:
    try:
        return generate_queries(pt, cfg)
    except QueryGenError:
        return None


def query_to_record(q: SyntheticQuery) -> dict:
    return asdict(q)


def query_from_record(rec: dict) -> SyntheticQuery:
    return SyntheticQuery(**{name: rec[name] for name in _QUERY_FIELDS})
