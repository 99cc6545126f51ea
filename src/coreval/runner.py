"""Dialog generation by alternating two chat-completion endpoints.

Agents A and B take strictly alternating turns (A opens).  Each turn POSTs
the condition seed prompt plus the mapped history to the next agent's
endpoint; completed dialogs are appended to the output JSONL in index
order, so an interrupted run can resume by counting complete lines.
"""

from __future__ import annotations

import json
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from ._http import EndpointError, post_json
from .corpus import CONDITIONS

logger = logging.getLogger(__name__)

SEED_PROMPTS = {
    "cooperative": "You and your partner work together to solve a puzzle efficiently",
    "competitive": "You are competing in a negotiation and want to outwit and outperform your opponent",
    "neutral": "You engage in casual, open-ended conversation with no specific agenda",
}

EMPTY_RESPONSE_PLACEHOLDER = "..."
CHAT_TIMEOUT_S = 60.0  # per chat request; completions take longer than other endpoints


@dataclass(frozen=True)
class GenerationConfig:
    endpoint_a: str
    endpoint_b: str
    model_a: str
    model_b: str
    condition: str
    dialogs: int = 30
    turns: int = 10
    temperature: float = 0.7
    top_p: float = 0.9
    max_tokens: int = 128
    max_inflight: int = 4
    request_seed: int | None = None
    concat_prompt: bool = False

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise ValueError(f"unknown condition {self.condition!r}")
        if self.dialogs < 1 or self.turns < 1 or self.max_tokens < 1:
            raise ValueError("dialogs, turns and max_tokens must be >= 1")
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")


@dataclass(frozen=True)
class GenerationResult:
    completed: int
    failed: int
    resumed_from: int
    out_path: str


def seed_prompt(condition: str) -> str:
    """The verbatim seed prompt for an interaction condition."""
    return SEED_PROMPTS[condition]


def build_messages(condition: str, history: list[tuple[str, str]], next_agent: str) -> list[dict]:
    """Chat-completion message list for the next turn.

    The seed prompt is the system message; the next agent's own prior turns
    map to role "assistant" and the other agent's to role "user".
    """
    messages = [{"role": "system", "content": seed_prompt(condition)}]
    for agent, text in history:
        role = "assistant" if agent == next_agent else "user"
        messages.append({"role": role, "content": text})
    return messages


def build_concat_messages(condition: str, history: list[tuple[str, str]],
                          next_agent: str) -> list[dict]:
    """Raw single-prompt concatenation variant (one user message)."""
    parts = [seed_prompt(condition)]
    parts.extend(f"Agent {agent}: {text}" for agent, text in history)
    parts.append(f"Agent {next_agent}:")
    return [{"role": "user", "content": "\n".join(parts)}]


def _chat_completion(endpoint: str, model: str, messages: list[dict],
                     config: GenerationConfig) -> str:
    payload: dict = {
        "model": model,
        "messages": messages,
        "temperature": config.temperature,
        "top_p": config.top_p,
        "max_tokens": config.max_tokens,
    }
    if config.request_seed is not None:
        payload["seed"] = config.request_seed
    url = endpoint.rstrip("/") + "/v1/chat/completions"
    data = post_json(url, payload, timeout=CHAT_TIMEOUT_S)
    try:
        content = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise EndpointError(f"malformed chat completion from {url}: {exc}") from None
    if not isinstance(content, str):
        raise EndpointError(f"malformed chat completion from {url}: content {content!r:.200}")
    return content


def _generate_one(config: GenerationConfig, index: int) -> tuple[dict, list[str]]:
    """Generate one dialog; returns (dialog object, warning lines)."""
    dialog_id = f"{config.model_a}__{config.model_b}__{config.condition}__{index}"
    history: list[tuple[str, str]] = []
    warnings: list[str] = []
    builder = build_concat_messages if config.concat_prompt else build_messages
    for turn in range(config.turns):
        agent = "A" if turn % 2 == 0 else "B"
        endpoint = config.endpoint_a if agent == "A" else config.endpoint_b
        model = config.model_a if agent == "A" else config.model_b
        messages = builder(config.condition, history, agent)
        text = _chat_completion(endpoint, model, messages, config).strip()
        if not text:
            text = _chat_completion(endpoint, model, messages, config).strip()
        if not text:
            text = EMPTY_RESPONSE_PLACEHOLDER
            warnings.append(f"dialog {dialog_id} turn {turn}: empty response, recorded as '...'")
        history.append((agent, text))
    obj = {
        "id": dialog_id,
        "condition": config.condition,
        "agent_a": config.model_a,
        "agent_b": config.model_b,
        "turns": [{"agent": a, "text": t} for a, t in history],
    }
    return obj, warnings


def _resume_point(path: Path) -> tuple[int, int]:
    """(complete lines, bytes truncated) of an earlier run's output.

    A line is complete once its newline is written.  A torn last line, left
    by an interrupted write, is truncated so new dialogs start on a line of
    their own."""
    if not path.exists():
        return 0, 0
    with open(path, "rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            fh.truncate(end)
    return sum(1 for line in data[:end].splitlines() if line.strip()), len(data) - end


def generate_dialogs(config: GenerationConfig, out_path: str | Path) -> GenerationResult:
    """Generate config.dialogs dialogs, appending JSONL lines in index order.

    Up to max_inflight dialogs run concurrently.  ``Executor.map`` yields
    them in index order, so each is written and flushed once every lower
    index is on disk, which keeps resume-by-line-count sound.  The first
    endpoint failure stops the run: dialogs not yet started are cancelled and
    nothing from the failed index on is written, so the file stays a clean
    prefix.  The sidecar "<out>.log" gets a line for a torn last line that
    was truncated, the warnings of the dialogs written, in index order, then
    the failure line.
    """
    out_path = Path(out_path)
    resumed_from, torn = _resume_point(out_path)
    all_warnings: list[str] = []
    if torn:
        all_warnings.append(f"truncated a torn last line of {torn} bytes with no newline; "
                            f"resuming at dialog index {resumed_from}")
        logger.warning(all_warnings[-1])
    completed = 0
    failed = 0

    with open(out_path, "a", encoding="utf-8") as out, \
            ThreadPoolExecutor(max_workers=config.max_inflight) as pool:
        try:
            for obj, warnings in pool.map(partial(_generate_one, config),
                                          range(resumed_from, config.dialogs)):
                out.write(json.dumps(obj, ensure_ascii=False) + "\n")
                out.flush()
                all_warnings.extend(warnings)
                completed += 1
        except EndpointError as exc:
            msg = f"dialog index {resumed_from + completed} failed: {exc}"
            logger.error(msg)
            all_warnings.append(msg)
            failed = 1

    if all_warnings:
        with open(str(out_path) + ".log", "a", encoding="utf-8") as log:
            for line in all_warnings:
                log.write(line + "\n")
    return GenerationResult(completed=completed, failed=failed, resumed_from=resumed_from,
                            out_path=str(out_path))
