"""Abstract generation from a title and metadata conditions.

The prompt is the start-of-abstract token followed by the Viterbi
tokenization of the lowercased title. Tokens are then sampled one at a
time from the temperature-scaled next-token distribution, optionally
truncated to the top-k ids, then to the top-p probability mass of those
(renormalized).
Generation stops at the end-of-abstract token or the token budget. Once
the sequence reaches the model's max length n, the decoder input slides to
the most recent n-1 tokens.

Each request calls ``forward`` once per token with its own ``DecodeCache``,
whose ``step`` decodes on plain arrays with no autodiff graph and returns
the next-token logits only: the encoder and the cross-attention keys and
values run once for the request's conditions, and while the window grows
by one token per step only that token goes through the decoder, against
each layer's cached self-attention keys and values. After the window
slides, every position shifts, so each later step prefills the whole
window, the last decoder block for the last row only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .model import DecodeCache, ModelParameters, forward
from .tokenizer import END_ID, START_ID, TokenizerModel, decode, encode_viterbi
from .vocab import ConditionVocab


@dataclass
class GenerationRequest:
    title: str
    year: int
    keywords: tuple[str, ...] = ()
    max_tokens: int = 256
    temperature: float = 1.0
    top_k: int | None = None
    top_p: float | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.top_p is not None and not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")


def sample_next(logits: np.ndarray, temperature: float, rng: np.random.Generator,
                top_k: int | None = None, top_p: float | None = None) -> tuple[int, float]:
    """Draw one token id. Returns (id, probability of that id under the
    final truncated, renormalized distribution). temperature == 0 is the
    greedy limit: argmax with probability 1. Top-p keeps the smallest most
    probable set of top-k's survivors whose mass reaches ``top_p``, so at
    least one id survives. The draw is ``rng.choice``'s: one
    ``rng.random()`` searched in the normalized cumulative sum, here over
    the kept ids in ascending order, where the dropped ones add only zeros."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise ValueError("sampling from non-finite logits")
    if temperature == 0.0:
        return int(np.argmax(logits)), 1.0
    with np.errstate(over="ignore"):
        z = logits / temperature
        if not np.isfinite(z).all():  # a tiny temperature overflows: shift first
            z = (logits - logits.max()) / temperature
    z -= z.max()
    probs = np.exp(z)
    probs /= probs.sum()
    ids = np.arange(len(probs))
    if top_k is not None and top_k < len(probs):
        ids = np.sort(np.argpartition(probs, -top_k)[-top_k:])
    if top_p is not None:
        order = ids[np.argsort(probs[ids])[::-1]]
        cut = int(np.searchsorted(np.cumsum(probs[order]), top_p)) + 1
        ids = np.sort(order[:cut])
    kept = np.zeros_like(probs)
    kept[ids] = probs[ids]
    kept /= kept.sum()
    cdf = np.cumsum(kept[ids])
    choice = int(ids[np.searchsorted(cdf / cdf[-1], rng.random(), side="right")])
    return choice, float(kept[choice])


@dataclass
class GenerationOutput:
    token_ids: list[int]          # starts with the encoded prompt
    prompt_len: int
    text: str                     # decode of the full id sequence
    generated_text: str           # decode of the continuation only
    sentences: list[str] = field(default_factory=list)
    step_probs: list[float] = field(default_factory=list)
    termination: str = "max_tokens"  # or "end_token"


def split_sentences(text: str) -> list[str]:
    """Split after sentence punctuation followed by whitespace. The rule is
    deliberately literal: abbreviations like "p. 0.05" do split."""
    parts = re.split(r"(?<=[.!?])\s+", text)
    return [p.strip() for p in parts if p.strip()]


def generate(params: ModelParameters, tok: TokenizerModel, cvocab: ConditionVocab,
             request: GenerationRequest) -> GenerationOutput:
    request.validate()
    cfg = params.config
    prompt = [START_ID] + encode_viterbi(tok, request.title)
    if len(prompt) > cfg.max_seq:
        raise DataError(f"prompt of {len(prompt)} tokens exceeds max sequence {cfg.max_seq}")
    condition_ids = cvocab.lookup(request.year, request.keywords)
    rng = np.random.default_rng(request.seed)
    cache = DecodeCache()

    ids = list(prompt)
    probs: list[float] = []
    termination = "max_tokens"
    for _ in range(request.max_tokens):
        window = ids if len(ids) < cfg.max_seq else ids[-(cfg.max_seq - 1):]
        logits = forward(params, np.asarray(window, dtype=np.int64),
                         np.asarray(condition_ids, dtype=np.int64), mode="eval", cache=cache)
        next_id, p = sample_next(logits, request.temperature, rng, request.top_k, request.top_p)
        ids.append(next_id)
        probs.append(p)
        if next_id == END_ID:
            termination = "end_token"
            break
    generated_text = decode(tok, ids[len(prompt):])
    return GenerationOutput(
        token_ids=ids,
        prompt_len=len(prompt),
        text=decode(tok, ids),
        generated_text=generated_text,
        sentences=split_sentences(generated_text),
        step_probs=probs,
        termination=termination,
    )
