"""Subword tokenizer: a unigram language model over word pieces.

Text is lowercased and split on whitespace; each word gets a leading
word-boundary marker (U+2581) and is segmented independently. A piece
inventory with log-probabilities is fit by EM over the segmentation
lattice, then pruned down to the target size. One lattice pass,
``_segment``, gives either the Viterbi (max-likelihood) segmentation or a
sample from the exact lattice posterior at a given temperature.

Ids 0..3 are reserved: pad, unknown, start-of-abstract, end-of-abstract.
Unknown characters segment as single-char unknown arcs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .textio import read_lines

MARKER = "▁"  # word-boundary marker, one per word start
MAX_PIECE_LEN = 6  # seed pieces are substrings up to this length
PRUNE_STEP = 0.2   # fraction of prunable pieces dropped per outer round
UNK_SCORE = -100.0  # lattice arc score for a character no piece covers
EM_STEPS = 2       # EM steps between pruning rounds

PAD_ID = 0
UNK_ID = 1
START_ID = 2
END_ID = 3
NUM_SPECIALS = 4
SPECIAL_NAMES = ("pad", "unk", "start", "end")

FORMAT_VERSION = 1


@dataclass
class TokenizerModel:
    """A trained piece inventory. Immutable once built; safe to share."""

    pieces: dict[str, float]  # piece -> log probability, all <= 0 and finite
    id_of: dict[str, int] = field(default_factory=dict)
    piece_of: list[str] = field(default_factory=list)
    _word_cache: dict[str, list[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.id_of:
            # Deterministic id order: most probable first, ties lexicographic.
            ordered = sorted(self.pieces, key=lambda p: (-self.pieces[p], p))
            self.id_of = {p: NUM_SPECIALS + i for i, p in enumerate(ordered)}
            self.piece_of = ordered
        for p, lp in self.pieces.items():
            if not (math.isfinite(lp) and lp <= 0.0):
                raise ValueError(f"piece {p!r} has invalid log-probability {lp}")

    @property
    def vocab_size(self) -> int:
        return NUM_SPECIALS + len(self.pieces)

    def log_prob(self, piece: str) -> float:
        return self.pieces.get(piece, float("-inf"))


def _words(text: str) -> list[str]:
    return [MARKER + w for w in text.lower().split()]


def _arcs(word: str, pieces: dict[str, float], max_len: int | None = None):
    """All lattice arcs (start, end, piece, score) covering ``word``.

    Positions with no covering piece get a single-char unknown arc, so the
    lattice always spans the word.
    """
    n = len(word)
    if max_len is None:
        max_len = n  # no longer piece can match inside the word
    arcs = []
    covered_from = [False] * n
    for i in range(n):
        for j in range(i + 1, min(n, i + max_len) + 1):
            piece = word[i:j]
            lp = pieces.get(piece)
            if lp is not None:
                arcs.append((i, j, piece, lp))
                covered_from[i] = True
    for i in range(n):
        if not covered_from[i]:
            arcs.append((i, i + 1, None, UNK_SCORE))
    return arcs


def _segment(word: str, pieces: dict[str, float], temperature: float = 0.0,
             rng: np.random.Generator | None = None) -> tuple[list[str | None], float]:
    """Segment one marked word: (pieces, score); ``None`` is an unknown char.

    One forward pass over the lattice arcs grouped by end position. At
    temperature <= 0 it takes the max, and the walk back follows the first
    best arc in ascending start order: the Viterbi path and its score.
    Otherwise it takes log-sum-exp of the tempered scores, and the walk back
    draws each arc from ``rng``: an exact sample with probability
    proportional to likelihood ** (1/temperature), scored by the tempered
    log partition."""
    n = len(word)
    viterbi = temperature <= 0
    inv = 1.0 if viterbi else 1.0 / temperature
    into: list[list[tuple[int, str | None, float]]] = [[] for _ in range(n + 1)]
    for i, j, piece, lp in _arcs(word, pieces):
        into[j].append((i, piece, lp * inv))
    reduce = max if viterbi else _logsumexp
    alpha = [0.0] * (n + 1)
    incoming: list = [None] * (n + 1)  # scores of the arcs into each position
    for j in range(1, n + 1):
        scores = incoming[j] = [alpha[i] + lp for i, _, lp in into[j]]
        alpha[j] = reduce(scores) if scores else -math.inf
    out: list[str | None] = []
    pos = n
    while pos > 0:
        scores = incoming[pos]
        if viterbi:
            k = scores.index(alpha[pos])
        else:
            weights = np.exp(np.array(scores) - max(scores))
            k = rng.choice(len(scores), p=weights / weights.sum())
        pos, piece, _ = into[pos][k]
        out.append(piece)
    out.reverse()
    return out, alpha[n]


def _logsumexp(xs) -> float:
    m = max(xs)
    if m == float("-inf"):
        return m
    return m + math.log(sum(math.exp(x - m) for x in xs))


def _encode_word(model: TokenizerModel, word: str,
                 temperature: float | None = None,
                 rng: np.random.Generator | None = None) -> list[int]:
    if temperature is None:  # Viterbi, cached per word
        ids = model._word_cache.get(word)
        if ids is None:
            ids = model._word_cache[word] = _encode_word(model, word, 0.0)
        return ids
    seg, _ = _segment(word, model.pieces, temperature, rng)
    return [UNK_ID if p is None else model.id_of[p] for p in seg]


def encode_viterbi(model: TokenizerModel, text: str) -> list[int]:
    """Max-likelihood piece ids for ``text`` (lowercased, word by word)."""
    ids: list[int] = []
    for word in _words(text):
        ids.extend(_encode_word(model, word))
    return ids


def encode_sampled(model: TokenizerModel, text: str, temperature: float,
                   rng: np.random.Generator) -> list[int]:
    """Piece ids drawn from the exact lattice distribution per word."""
    ids: list[int] = []
    for word in _words(text):
        ids.extend(_encode_word(model, word, temperature, rng))
    return ids


def decode(model: TokenizerModel, ids) -> str:
    """Concatenate pieces, map the marker back to spaces. Specials vanish."""
    parts = []
    for i in ids:
        i = int(i)
        if i < NUM_SPECIALS:
            continue
        if i - NUM_SPECIALS >= len(model.piece_of):
            raise ValueError(f"token id {i} out of range for vocab of {model.vocab_size}")
        parts.append(model.piece_of[i - NUM_SPECIALS])
    return "".join(parts).replace(MARKER, " ").lstrip(" ")


# ---------------------------------------------------------------------------
# Training: EM over the segmentation lattice, then contribution-based pruning.

def _seed_pieces(word_counts: Counter) -> dict[str, float]:
    """Initial inventory: substrings up to MAX_PIECE_LEN seen at least twice,
    plus every character (guaranteed coverage). Probabilities start
    proportional to substring counts."""
    sub_counts: Counter = Counter()
    for word, freq in word_counts.items():
        n = len(word)
        for i in range(n):
            for j in range(i + 1, min(n, i + MAX_PIECE_LEN) + 1):
                sub_counts[word[i:j]] += freq
    seed = {s: c for s, c in sub_counts.items() if len(s) == 1 or c >= 2}
    total = sum(seed.values())
    return {s: math.log(c / total) for s, c in seed.items()}


def _em_step(pieces: dict[str, float], word_counts: Counter) -> tuple[dict[str, float], float]:
    """One EM step. Returns (updated log-probs, corpus log-likelihood under
    the *input* probabilities). Expected piece counts come from lattice
    forward-backward posteriors; the M-step renormalizes them."""
    expected: dict[str, float] = {p: 0.0 for p in pieces}
    loglik = 0.0
    max_len = max(len(p) for p in pieces)
    for word, freq in word_counts.items():
        n = len(word)
        arcs = _arcs(word, pieces, max_len)
        arcs_at = [[] for _ in range(n)]
        for i, j, piece, lp in arcs:
            arcs_at[i].append((j, piece, lp))
        alpha = np.full(n + 1, -np.inf)
        alpha[0] = 0.0
        for i in range(n):
            if alpha[i] == -np.inf:
                continue
            for j, piece, lp in arcs_at[i]:
                alpha[j] = np.logaddexp(alpha[j], alpha[i] + lp)
        beta = np.full(n + 1, -np.inf)
        beta[n] = 0.0
        for i in range(n - 1, -1, -1):
            for j, piece, lp in arcs_at[i]:
                beta[i] = np.logaddexp(beta[i], lp + beta[j])
        z = alpha[n]
        loglik += freq * z
        for i in range(n):
            if alpha[i] == -np.inf:
                continue
            for j, piece, lp in arcs_at[i]:
                if piece is None:
                    continue
                post = math.exp(alpha[i] + lp + beta[j] - z)
                expected[piece] += freq * post
    total = sum(expected.values())
    floor = 1e-300  # keep log finite; posteriors stay strictly positive
    updated = {p: math.log(max(c, floor) / total) for p, c in expected.items()}
    return updated, loglik


def _prune(pieces: dict[str, float], word_counts: Counter, target_pieces: int) -> dict[str, float]:
    """Drop the lowest-contribution multi-char pieces (at most PRUNE_STEP of
    them per call, never below the target). Contribution is the estimated
    likelihood loss if the piece were resegmented by the remaining inventory."""
    prunable = [p for p in pieces if len(p) > 1]
    if len(pieces) <= target_pieces or not prunable:
        return pieces
    expected: Counter = Counter()
    for word, freq in word_counts.items():
        seg, _ = _segment(word, pieces)
        for piece in seg:
            if piece is not None:
                expected[piece] += freq
    scores = []
    rest = dict(pieces)  # one shared copy: each piece is popped, scored, restored
    for p in prunable:
        count = expected.get(p, 0)
        if count == 0:
            scores.append((0.0, p))
            continue
        lp = rest.pop(p)
        _, alt = _segment(p, rest)
        rest[p] = lp
        scores.append((count * (lp - alt), p))
    scores.sort()
    n_drop = min(max(1, int(len(prunable) * PRUNE_STEP)), len(pieces) - target_pieces)
    doomed = {p for _, p in scores[:n_drop]}
    return {p: lp for p, lp in pieces.items() if p not in doomed}


def train_unigram(sentences, target_vocab: int, seed: int = 0,
                  sample: int | None = None) -> TokenizerModel:
    """Fit the piece inventory on an iterable of sentences.

    ``target_vocab`` counts the four specials. ``sample`` caps the number of
    sentences used (uniform without replacement, seeded).
    """
    sentences = [s for s in sentences if s.strip()]
    if not sentences:
        raise DataError("tokenizer training corpus is empty")
    rng = np.random.default_rng(seed)
    if sample is not None and sample < len(sentences):
        idx = rng.choice(len(sentences), size=sample, replace=False)
        sentences = [sentences[i] for i in sorted(idx)]
    word_counts: Counter = Counter()
    for s in sentences:
        word_counts.update(_words(s))

    pieces = _seed_pieces(word_counts)
    alphabet = {c for w in word_counts for c in w}
    if target_vocab < len(alphabet) + NUM_SPECIALS:
        raise DataError(
            f"target vocab {target_vocab} cannot cover {len(alphabet)} characters plus {NUM_SPECIALS} specials")
    target_pieces = target_vocab - NUM_SPECIALS

    while True:
        for _ in range(EM_STEPS):
            pieces, _ = _em_step(pieces, word_counts)
        if len(pieces) <= target_pieces:
            break
        pruned = _prune(pieces, word_counts, target_pieces)
        if len(pruned) == len(pieces):
            break
        # Renormalize the survivors before the next EM round.
        total = _logsumexp(list(pruned.values()))
        pieces = {p: lp - total for p, lp in pruned.items()}
    pieces, _ = _em_step(pieces, word_counts)
    return TokenizerModel(pieces)


# ---------------------------------------------------------------------------
# Model file: version line, special assignments, then piece\tlog_prob rows.

def save_tokenizer(model: TokenizerModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"#version\t{FORMAT_VERSION}\n")
        for name, sid in zip(SPECIAL_NAMES, range(NUM_SPECIALS)):
            f.write(f"#special\t{name}\t{sid}\n")
        for piece in model.piece_of:
            f.write(f"{piece}\t{model.pieces[piece]!r}\n")


def load_tokenizer(path) -> TokenizerModel:
    lines = read_lines(path, "tokenizer model")
    if not lines or not lines[0][1].startswith("#version\t"):
        raise DataError(f"{path} is not a tokenizer model (missing version line)")
    pieces: dict[str, float] = {}
    for lineno, line in lines:
        fields = line.split("\t")
        try:
            if lineno == 1:
                if int(fields[1]) != FORMAT_VERSION:
                    raise ValueError(f"unsupported tokenizer format version {fields[1]}")
            elif line.startswith("#special\t"):
                if len(fields) != 3 or fields[1] not in SPECIAL_NAMES \
                        or SPECIAL_NAMES.index(fields[1]) != int(fields[2]):
                    raise ValueError(f"unexpected special assignment {line!r}")
            elif line:
                if len(fields) != 2 or fields[0] in pieces:
                    raise ValueError(f"expected one new piece<TAB>log-probability, got {line!r}")
                pieces[fields[0]] = float(fields[1])
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
    try:  # ids follow file order
        return TokenizerModel(pieces, id_of={p: NUM_SPECIALS + i for i, p in enumerate(pieces)},
                              piece_of=list(pieces))
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None
