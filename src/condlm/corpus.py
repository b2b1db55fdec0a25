"""Annotated-abstract corpus handling.

Records arrive as JSONL: one abstract per line with an id, year, keyword
list, and per-token (surface, pos, dep, ent) annotations for the title and
each sentence. Training examples are fixed-length windows over the subword
stream of the abstract body; every window starts either at the very front
(including the start-of-abstract token) or at a sentence boundary, and the
targets are the stream shifted one position left. Subwords inherit the
annotation labels of the word they came from.

A token is a ``NamedTuple`` of its four strings: immutable and hashable,
and about a third of a frozen dataclass's cost to build, which loading a
large corpus pays once per token.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataError
from .tokenizer import END_ID, START_ID, TokenizerModel, _encode_word, _words
from .vocab import ConditionVocab, LabelVocabs

log = logging.getLogger(__name__)


class AnnotatedToken(NamedTuple):
    surface: str
    pos: str
    dep: str
    ent: str


@dataclass(frozen=True)
class AnnotatedRecord:
    id: str
    year: int
    keywords: tuple[str, ...]
    title: tuple[AnnotatedToken, ...]
    sentences: tuple[tuple[AnnotatedToken, ...], ...]

    def all_tokens(self) -> Iterator[AnnotatedToken]:
        yield from self.title
        for sent in self.sentences:
            yield from sent

    def title_text(self) -> str:
        return " ".join([surface for surface, _, _, _ in self.title])

    def sentence_texts(self) -> list[str]:
        return [" ".join([surface for surface, _, _, _ in sent]) for sent in self.sentences]


def _parse_tokens(raw) -> tuple[AnnotatedToken, ...]:
    toks = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 4:
            raise ValueError(f"token entry {item!r} is not a 4-tuple")
        surface, pos, dep, ent = map(str, item)
        if not surface:
            raise ValueError("empty token surface")
        toks.append(AnnotatedToken(surface.lower(), pos, dep, ent))
    return tuple(toks)


def _parse_record(obj) -> AnnotatedRecord:
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    rid = obj["id"]
    year = obj["year"]
    if not isinstance(rid, str) or not isinstance(year, int) or isinstance(year, bool):
        raise ValueError("id must be a string and year an integer")
    keywords_raw = obj["keywords"]
    if not isinstance(keywords_raw, list) or any(not isinstance(k, str) for k in keywords_raw):
        raise ValueError("keywords must be a list of strings")
    keywords = tuple(dict.fromkeys(keywords_raw))  # dedupe, keep order
    title = _parse_tokens(obj["title"])
    sentences = tuple(_parse_tokens(s) for s in obj["sentences"])
    return AnnotatedRecord(rid, year, keywords, title, sentences)


class RecordStream:
    """Iterate records in a JSONL file, skipping malformed lines (a line
    that is not UTF-8 among them) with a warning. ``skipped`` counts them
    after iteration. A ``strict`` stream raises ``DataError`` naming the
    file and line instead. Lines end at "\n" only."""

    def __init__(self, path, strict: bool = False):
        self.path = path
        self.strict = strict
        self.skipped = 0
        try:
            self._handle = open(path, "rb")
        except OSError as e:
            raise DataError(f"cannot read corpus file {path}: {e}") from None

    def __iter__(self) -> Iterator[AnnotatedRecord]:
        with self._handle as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    yield _parse_record(json.loads(line.decode("utf-8")))
                except (json.JSONDecodeError, KeyError, ValueError, TypeError) as e:
                    if self.strict:
                        raise DataError(f"{self.path}:{lineno}: malformed record ({e})") from None
                    self.skipped += 1
                    log.warning("%s:%d: skipping malformed record (%s)", self.path, lineno, e)
        if self.skipped:
            log.warning("%s: skipped %d malformed line(s)", self.path, self.skipped)


def load_records(path, strict: bool = False) -> RecordStream:
    return RecordStream(path, strict)


@dataclass
class SubwordStream:
    """The tokenized abstract body with aligned labels.

    Position 0 is the start-of-abstract token and the last position is the
    end token; both carry no-label ids. ``sentence_starts`` indexes the
    first subword of each sentence.
    """
    ids: list[int]
    pos: list[int]
    dep: list[int]
    ent: list[int]
    sentence_starts: list[int]


def align_labels(record: AnnotatedRecord, tok: TokenizerModel, labels: LabelVocabs,
                 temperature: float | None = None,
                 rng: np.random.Generator | None = None) -> SubwordStream:
    """Tokenize the abstract body word by word; every subword of a word
    carries that word's labels. ``temperature`` switches on sampled
    tokenization (one draw per word visit). Each token's labels are looked
    up once, not once per subword."""
    stream = SubwordStream([START_ID], [0], [0], [0], [])
    for sent in record.sentences:
        stream.sentence_starts.append(len(stream.ids))
        for surface, pos, dep, ent in sent:
            p, d, e = labels.pos.id(pos), labels.dep.id(dep), labels.ent.id(ent)
            for word in _words(surface):
                for piece_id in _encode_word(tok, word, temperature, rng):
                    stream.ids.append(piece_id)
                    stream.pos.append(p)
                    stream.dep.append(d)
                    stream.ent.append(e)
    stream.ids.append(END_ID)
    for lane in (stream.pos, stream.dep, stream.ent):
        lane.append(0)
    return stream


@dataclass
class TrainingWindow:
    input_ids: list[int]
    target_ids: list[int]
    target_pos: list[int]
    target_dep: list[int]
    target_ent: list[int]
    condition_ids: list[int]


def sample_window(record: AnnotatedRecord, tok: TokenizerModel, cvocab: ConditionVocab,
                  labels: LabelVocabs, n: int, rng: np.random.Generator,
                  temperature: float | None = None) -> TrainingWindow:
    """One training window: a uniform choice over the allowed start offsets
    (front of abstract, or any later sentence start), inputs capped at n
    subwords, targets shifted one position."""
    stream = align_labels(record, tok, labels, temperature, rng)
    body = len(stream.ids) - 2  # subwords between the start and end specials
    if body < 2:
        raise DataError(f"record {record.id} has fewer than 2 subwords")
    offsets = [0] + stream.sentence_starts[1:]
    o = int(offsets[rng.integers(len(offsets))])
    length = min(n, len(stream.ids) - o - 1)
    return TrainingWindow(
        input_ids=stream.ids[o:o + length],
        target_ids=stream.ids[o + 1:o + 1 + length],
        target_pos=stream.pos[o + 1:o + 1 + length],
        target_dep=stream.dep[o + 1:o + 1 + length],
        target_ent=stream.ent[o + 1:o + 1 + length],
        condition_ids=cvocab.lookup(record.year, record.keywords),
    )


@dataclass
class Batch:
    input_ids: np.ndarray      # (B, T) int64, right-padded with pad_id
    target_ids: np.ndarray     # (B, T) int64, padded positions hold 0
    target_pos: np.ndarray
    target_dep: np.ndarray
    target_ent: np.ndarray
    loss_mask: np.ndarray      # (B, T) float, 1 on real positions
    condition_ids: np.ndarray  # (B, M) int64, right-padded with 0
    condition_mask: np.ndarray  # (B, M) float, 1 on real conditions


def build_batch(windows: list[TrainingWindow], pad_id: int) -> Batch:
    if not windows:
        raise ValueError("cannot build an empty batch")
    b = len(windows)
    t = max(len(w.input_ids) for w in windows)
    m = max(len(w.condition_ids) for w in windows)
    input_ids = np.full((b, t), pad_id, dtype=np.int64)
    target_ids = np.zeros((b, t), dtype=np.int64)
    target_pos = np.zeros((b, t), dtype=np.int64)
    target_dep = np.zeros((b, t), dtype=np.int64)
    target_ent = np.zeros((b, t), dtype=np.int64)
    loss_mask = np.zeros((b, t), dtype=np.float64)
    condition_ids = np.zeros((b, m), dtype=np.int64)
    condition_mask = np.zeros((b, m), dtype=np.float64)
    for i, w in enumerate(windows):
        k = len(w.input_ids)
        input_ids[i, :k] = w.input_ids
        target_ids[i, :k] = w.target_ids
        target_pos[i, :k] = w.target_pos
        target_dep[i, :k] = w.target_dep
        target_ent[i, :k] = w.target_ent
        loss_mask[i, :k] = 1.0
        c = len(w.condition_ids)
        condition_ids[i, :c] = w.condition_ids
        condition_mask[i, :c] = 1.0
    return Batch(input_ids, target_ids, target_pos, target_dep, target_ent,
                 loss_mask, condition_ids, condition_mask)
