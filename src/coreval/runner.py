"""Dialog generation by alternating two chat-completion endpoints.

Agents A and B take strictly alternating turns (A opens).  Each turn POSTs
the condition seed prompt plus the mapped history to the next agent's
endpoint; completed dialogs are appended to the output JSONL in index
order, so an interrupted run can resume by counting complete lines.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
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
    retries: int = 3
    backoff: float = 0.5
    timeout: float = 60.0

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise ValueError(f"unknown condition {self.condition!r}")
        if self.dialogs < 1 or self.turns < 1:
            raise ValueError("dialogs and turns must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
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
    data = post_json(url, payload, retries=config.retries, backoff=config.backoff,
                     timeout=config.timeout)
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


def _count_complete_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def generate_dialogs(config: GenerationConfig, out_path: str | Path) -> GenerationResult:
    """Generate config.dialogs dialogs, appending JSONL lines in index order.

    Up to max_inflight dialogs run concurrently; a dialog is written only
    after all lower-index dialogs are on disk, which keeps resume-by-line-
    count sound.  An endpoint failure aborts that dialog and everything after
    it (partial output stays valid); warnings go to a sidecar "<out>.log".
    """
    out_path = Path(out_path)
    resumed_from = _count_complete_lines(out_path)
    indices = list(range(resumed_from, config.dialogs))
    if not indices:
        return GenerationResult(completed=0, failed=0, resumed_from=resumed_from,
                                out_path=str(out_path))

    results: dict[int, dict] = {}
    failures: dict[int, str] = {}
    all_warnings: list[str] = []
    completed = 0
    failed = 0

    with open(out_path, "a", encoding="utf-8") as out, \
            ThreadPoolExecutor(max_workers=max(1, config.max_inflight)) as pool:
        futures = {pool.submit(_generate_one, config, i): i for i in indices}
        pending = set(futures)
        next_to_write = indices[0]
        stop = False
        while pending and not stop:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                idx = futures[fut]
                try:
                    obj, warnings = fut.result()
                    results[idx] = obj
                    all_warnings.extend(warnings)
                except EndpointError as exc:
                    failures[idx] = str(exc)
            while next_to_write in results or next_to_write in failures:
                if next_to_write in failures:
                    # everything after a failed dialog is dropped so the file
                    # stays a clean prefix of the dialog sequence
                    msg = f"dialog index {next_to_write} failed: {failures[next_to_write]}"
                    logger.error(msg)
                    all_warnings.append(msg)
                    failed = 1
                    stop = True
                    break
                out.write(json.dumps(results.pop(next_to_write), ensure_ascii=False) + "\n")
                out.flush()
                completed += 1
                next_to_write += 1
        if stop:
            for fut in pending:
                fut.cancel()

    if all_warnings:
        with open(str(out_path) + ".log", "a", encoding="utf-8") as log:
            for line in all_warnings:
                log.write(line + "\n")
    return GenerationResult(completed=completed, failed=failed, resumed_from=resumed_from,
                            out_path=str(out_path))
