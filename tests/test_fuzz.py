"""Seeded fuzz test: malformed inputs and endpoint replies through ``cli.main``.

Each case is one malformed dialog JSONL, embedding JSONL, condition-sample
CSV, per-dialog CSV or endpoint reply, fed to every subcommand that reads it.
Each run must return 1 (validation) or 3 (external service) and say why,
never raise.  The file mutations are drawn from a fixed seed, so a failing
case id reproduces; every mutation makes its input invalid.
"""

import json
import random
from pathlib import Path

import pytest

from coreval.cli import EXIT_SERVICE, EXIT_VALIDATION, main
from conftest import DATA_DIR, MockService

SEED = 11

CORPUS = str(DATA_DIR / "fixture_corpus.jsonl")
EMBEDDINGS = str(DATA_DIR / "fixture_embeddings.jsonl")

# JSON values of every type, none a valid condition, turn list, turn, agent
# or text; an id or model name is valid whatever its type
JUNK = [None, True, 5, -1.5, "", " ", [], {}, [1, 2], {"a": 1}]
# none a valid dialog id, turn index or vector for an embedding record
RECORD_JUNK = [None, "", "x", [], {}, [1, 2], {"a": 1}]
BAD_NUMBERS = ["", "abc", "nan", "inf", "-Infinity", "1e999", "0x1p3", "--1", "1.2.3"]
OVERSIZED = "9" * 200_000  # longer than the csv module's field limit
DEEP = b"[" * 100_000  # nested deeper than the recursion limit


def _join(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


def _not_utf8(rng, data: bytes) -> bytes:
    at = rng.randrange(len(data))
    return data[:at] + b"\xff\xfe" + data[at:]


def _edit_line(rng, lines, edit) -> bytes:
    """The file with one line's object changed in place by ``edit``."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    obj = json.loads(lines[i])
    edit(obj)
    lines[i] = json.dumps(obj)
    return _join(lines)


def _line_cases(rng, lines, kinds) -> dict[str, bytes]:
    """Two draws of each line mutation in ``kinds``: a line truncated,
    replaced by a non-object or by arrays nested deeper than the recursion
    limit, dropped or repeated, or bytes not in UTF-8."""
    cases = {}
    for kind in kinds:
        for draw in range(2):
            mutated = list(lines)
            i = rng.randrange(len(mutated))
            if kind == "truncate":
                mutated[i] = mutated[i][:rng.randrange(1, len(mutated[i]))]
            elif kind == "non_object":
                mutated[i] = json.dumps(rng.choice(JUNK))
            elif kind == "deep":
                mutated[i] = DEEP.decode()
            elif kind == "drop_line":
                del mutated[i]
            elif kind == "repeat_line":
                mutated.insert(i, mutated[i])
            data = _join(mutated)
            cases[f"{kind}-{draw}"] = _not_utf8(rng, data) if kind == "not_utf8" else data
    return cases


def _dialog_cases(rng, lines) -> dict[str, bytes]:
    """Every dialog or turn field set to four junk values, at least two of
    them not strings, and every field dropped, each in a drawn dialog and
    turn; then the line mutations.  A corpus without one of its dialogs is
    still a corpus, so no line is dropped."""
    cases = {}

    def turn(obj):
        return obj["turns"][rng.randrange(len(obj["turns"]))]

    def setter(field, value):
        def edit(obj):
            if field in ("condition", "turns"):
                obj[field] = value
            elif field == "turn":
                obj["turns"][rng.randrange(len(obj["turns"]))] = value
            else:
                turn(obj)[field] = value
        return edit

    for field in ("condition", "turns", "turn", "agent", "text"):
        for value in rng.sample(JUNK, 4):
            cases[f"{field}={json.dumps(value)}"] = _edit_line(rng, lines, setter(field, value))
    for field in ("id", "condition", "agent_a", "agent_b", "turns"):
        cases[f"no-{field}"] = _edit_line(rng, lines, lambda obj, f=field: obj.pop(f))
    for field in ("agent", "text"):
        cases[f"no-{field}"] = _edit_line(rng, lines, lambda obj, f=field: turn(obj).pop(f))
    return cases | _line_cases(rng, lines, ["truncate", "non_object", "deep", "repeat_line",
                                            "not_utf8"])


def _embedding_cases(rng, lines) -> dict[str, bytes]:
    """Every record field set to four junk values and dropped, a vector with a
    non-finite entry or zero norm, then the line mutations."""
    cases = {}
    for field in ("dialog_id", "turn_index", "vector"):
        for value in rng.sample(RECORD_JUNK, 4):
            cases[f"{field}={json.dumps(value)}"] = _edit_line(
                rng, lines, lambda obj, f=field, v=value: obj.__setitem__(f, v))
        cases[f"no-{field}"] = _edit_line(rng, lines, lambda obj, f=field: obj.pop(f))
    for name, value in (("nan", float("nan")), ("inf", float("inf")), ("zero", 0.0)):
        def edit(obj, value=value):
            vector = obj["vector"]
            if value == 0.0:
                vector[:] = [0.0] * len(vector)
            else:
                vector[rng.randrange(len(vector))] = value
        cases[f"vector-{name}"] = _edit_line(rng, lines, edit)
    return cases | _line_cases(rng, lines, ["truncate", "non_object", "deep", "drop_line",
                                            "repeat_line", "not_utf8"])


def _csv_cases(rng, text, required, numeric, bad_text) -> dict[str, bytes]:
    """Three draws each of a bad numeric or text cell, an oversized cell, a
    required column gone, a row cut short and bytes not in UTF-8, in a CSV
    whose ``required`` columns the reader needs; then an empty file."""
    cases = {"empty": b""}
    kinds = ["bad_number", "oversized", "drop_column", "short_row", "not_utf8"]
    for kind in kinds + ["bad_text"] * bool(bad_text):
        for draw in range(3):
            rows = [line.split(",") for line in text.splitlines()]
            header = rows[0]
            r = rng.randrange(1, len(rows))
            if kind == "bad_number":
                rows[r][header.index(rng.choice(numeric))] = rng.choice(BAD_NUMBERS)
            elif kind == "bad_text":
                column = rng.choice(sorted(bad_text))
                rows[r][header.index(column)] = rng.choice(bad_text[column])
            elif kind == "oversized":
                rows[r][header.index(rng.choice(required))] = OVERSIZED
            elif kind == "drop_column":
                j = header.index(rng.choice(required))
                rows = [row[:j] + row[j + 1:] for row in rows]
            elif kind == "short_row":
                last = max(header.index(column) for column in required)
                rows[r] = rows[r][:rng.randrange(1, last + 1)]
            data = "".join(",".join(row) + "\n" for row in rows).encode()
            cases[f"{kind}-{draw}"] = _not_utf8(rng, data) if kind == "not_utf8" else data
    return cases


def _params(cases):
    return [pytest.param(data, id=name) for name, data in cases.items()]


_rng = random.Random(SEED)
DIALOG_CASES = _params(_dialog_cases(_rng, Path(CORPUS).read_text().splitlines()))
EMBEDDING_CASES = _params(_embedding_cases(_rng, Path(EMBEDDINGS).read_text().splitlines()))
SAMPLES_CASES = _params(_csv_cases(
    _rng, (DATA_DIR / "golden" / "condition_samples.csv").read_text(),
    ("condition", "zipf_alpha", "heaps_beta", "core"), ("zipf_alpha", "heaps_beta", "core"), {}))
PER_DIALOG_CASES = _params(_csv_cases(
    _rng, (DATA_DIR / "golden" / "per_dialog.csv").read_text(),
    ("dialog_id", "condition", "core"), ("core",),
    {"dialog_id": ["", "abc", "a__", "a__x", "a__1.5"]}))


def assert_rejected(code, capsys):
    out, err = capsys.readouterr()
    assert code in (EXIT_VALIDATION, EXIT_SERVICE), (code, out, err)
    assert err.startswith(("coreval: error: ", "coreval: external service failure: ")), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "fit", "behavior"])
@pytest.mark.parametrize("data", DIALOG_CASES)
def test_malformed_dialogs(tmp_path, capsys, command, data):
    path = tmp_path / "in.jsonl"
    path.write_bytes(data)
    extra = ["--embeddings", EMBEDDINGS] if command == "analyze" else []
    assert_rejected(main([command, str(path), *extra, "--out-dir", str(tmp_path / "out")]),
                    capsys)


@pytest.mark.parametrize("data", EMBEDDING_CASES)
def test_malformed_embeddings(tmp_path, capsys, data):
    path = tmp_path / "emb.jsonl"
    path.write_bytes(data)
    assert_rejected(main(["analyze", CORPUS, "--embeddings", str(path),
                          "--out-dir", str(tmp_path / "out")]), capsys)


@pytest.mark.parametrize("data", SAMPLES_CASES)
def test_malformed_condition_samples(tmp_path, capsys, data):
    path = tmp_path / "samples.csv"
    path.write_bytes(data)
    assert_rejected(main(["compare", str(path), "--out-dir", str(tmp_path / "out")]), capsys)


@pytest.mark.parametrize("data", PER_DIALOG_CASES)
def test_malformed_per_dialog(tmp_path, capsys, data):
    path = tmp_path / "per_dialog.csv"
    path.write_bytes(data)
    assert_rejected(main(["report", str(path), "--out-dir", str(tmp_path / "out")]), capsys)


# endpoint replies: (status, body) from the number of texts in the request;
# a bytes body is sent as it is
SHARED_REPLIES = {
    "list": lambda n: (200, [1, 2, 3]),
    "null": lambda n: (200, None),
    "string": lambda n: (200, "x"),
    "number": lambda n: (200, 5),
    "bool": lambda n: (200, True),
    "empty_object": lambda n: (200, {}),
    "truncated": lambda n: (200, b'{"data": [{"index": 0, "embe'),
    "empty_body": lambda n: (200, b""),
    "deep": lambda n: (200, DEEP),
    "html": lambda n: (200, b"<html>busy</html>"),
    "not_found": lambda n: (404, b"no such route"),
}
EMBED_REPLIES = {
    "data_string": lambda n: (200, {"data": "x"}),
    "data_numbers": lambda n: (200, {"data": [1] * n}),
    "index_string": lambda n: (200, {"data": [{"index": "a", "embedding": [1.0]}] * n}),
    "index_repeated": lambda n: (200, {"data": [{"index": 0, "embedding": [1.0]}] * n}),
    "index_out_of_range": lambda n: (200, {"data": [{"index": n + i, "embedding": [1.0]}
                                                    for i in range(n)]}),
    "embedding_string": lambda n: (200, {"data": [{"index": i, "embedding": "x"}
                                                  for i in range(n)]}),
    "embedding_null": lambda n: (200, {"data": [{"index": i, "embedding": None}
                                                for i in range(n)]}),
    "embedding_nested": lambda n: (200, {"data": [{"index": i, "embedding": [[1.0], [2.0]]}
                                                  for i in range(n)]}),
}
TOXICITY_REPLIES = {
    "scores_string": lambda n: (200, {"scores": "x"}),
    "scores_null": lambda n: (200, {"scores": None}),
    "score_null": lambda n: (200, {"scores": [None] * n}),
    "score_string": lambda n: (200, {"scores": ["0.5"] * n}),
    "score_list": lambda n: (200, {"scores": [[0.5]] * n}),
    "score_out_of_range": lambda n: (200, {"scores": [2] * n}),
    "scores_short": lambda n: (200, {"scores": [0.5] * (n - 1)}),
}
CHAT_REPLIES = {
    "choices_string": lambda n: (200, {"choices": "x"}),
    "choices_empty": lambda n: (200, {"choices": []}),
    "choice_null": lambda n: (200, {"choices": [None]}),
    "message_null": lambda n: (200, {"choices": [{"message": None}]}),
    "content_missing": lambda n: (200, {"choices": [{"message": {}}]}),
    "content_null": lambda n: (200, {"choices": [{"message": {"content": None}}]}),
    "content_number": lambda n: (200, {"choices": [{"message": {"content": 5}}]}),
    "content_list": lambda n: (200, {"choices": [{"message": {"content": ["hi"]}}]}),
    "content_object": lambda n: (200, {"choices": [{"message": {"content": {"a": 1}}}]}),
}


@pytest.fixture(scope="module")
def endpoint():
    """A local service answering every request with ``reply["fn"]``."""
    reply = {}

    def handler(path, payload):
        texts = payload.get("input") or payload.get("texts") or payload.get("messages")
        return reply["fn"](len(texts))

    service = MockService(handler)
    yield service, reply
    service.close()


def _replies(specific):
    return [pytest.param(fn, id=name) for name, fn in {**SHARED_REPLIES, **specific}.items()]


@pytest.mark.parametrize("fn", _replies(EMBED_REPLIES))
def test_bad_embedding_reply(tmp_path, capsys, endpoint, fn):
    service, reply = endpoint
    reply["fn"] = fn
    assert_rejected(main(["analyze", CORPUS, "--embed-endpoint", service.url,
                          "--out-dir", str(tmp_path / "out")]), capsys)


@pytest.mark.parametrize("fn", _replies(TOXICITY_REPLIES))
def test_bad_toxicity_reply(tmp_path, capsys, endpoint, fn):
    service, reply = endpoint
    reply["fn"] = fn
    assert_rejected(main(["behavior", CORPUS, "--toxicity-endpoint", service.url,
                          "--out-dir", str(tmp_path / "out")]), capsys)
    assert not (tmp_path / "out" / "behavior.csv").exists()


@pytest.mark.parametrize("fn", _replies(CHAT_REPLIES))
def test_bad_chat_reply(tmp_path, capsys, endpoint, fn):
    # generate records a failed dialog in its log and says how many failed
    service, reply = endpoint
    reply["fn"] = fn
    out = tmp_path / "gen.jsonl"
    code = main(["generate", "--endpoint-a", service.url, "--endpoint-b", service.url,
                 "--model-a", "mA", "--model-b", "mB", "--condition", "neutral",
                 "--dialogs", "1", "--turns", "1", "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert code == EXIT_SERVICE, (stdout, err)
    assert "failed 1" in stdout
    assert "dialog index 0 failed: " in (tmp_path / "gen.jsonl.log").read_text()
    assert "Traceback" not in err
