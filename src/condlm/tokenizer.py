"""Subword tokenizer: a unigram language model over word pieces.

Text is lowercased and split on whitespace; each word gets a leading
word-boundary marker (U+2581) and is segmented independently. ``_lattice``
builds one word's segmentation lattice, and ``_forward`` runs its forward
pass for Viterbi and sampled segmentation. A piece inventory with
log-probabilities is fit by EM over the lattices of all the training
words, then pruned down to the target size. The fit builds those lattices
once, as int arrays against the seed inventory (``_Lattice``), in the one
pass over the words' substrings that counts the seed, and runs
every pass over all words at once on one log-prob array, in which a pruned
piece holds -inf; it gives the same floats as walking each word's
``_lattice``.

Ids 0..3 are reserved: pad, unknown, start-of-abstract, end-of-abstract.
Unknown characters segment as single-char unknown arcs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .textio import read_lines, write_atomic

MARKER = "▁"  # word-boundary marker, one per word start
MAX_PIECE_LEN = 6  # seed pieces are substrings up to this length
PRUNE_STEP = 0.2   # fraction of prunable pieces dropped per outer round
UNK_SCORE = -100.0  # lattice arc score for a character no piece covers
EM_STEPS = 2       # EM steps between pruning rounds
_LN2 = math.log(2.0)

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


def _lattice(word: str, pieces: dict[str, float]):
    """``out[i]``: the arcs (end, piece, score) leaving position i of
    ``word``, in ascending end. A position where no piece starts gets one
    single-char unknown arc, so the lattice always spans the word."""
    n = len(word)
    out = []
    for i in range(n):
        arcs = []
        for j in range(i + 1, n + 1):
            piece = word[i:j]
            lp = pieces.get(piece)
            if lp is not None:
                arcs.append((j, piece, lp))
        out.append(arcs or [(i + 1, None, UNK_SCORE)])
    return out


def _forward(out, inv: float, viterbi: bool):
    """Push the arc scores of a ``_lattice``, times ``inv``, in ascending
    start order. Returns (alpha, into); ``into[j]`` lists the (start, piece,
    score) of the arcs into j. Viterbi combines with a strict ``>`` max, so
    the first best arc in ascending start order wins ties; else ``_logaddexp``."""
    alpha = [0.0] + [-math.inf] * len(out)
    into = [[] for _ in alpha]
    for i, arcs in enumerate(out):
        a = alpha[i]
        for j, piece, lp in arcs:
            lp *= inv
            into[j].append((i, piece, lp))
            if not viterbi:
                alpha[j] = _logaddexp(alpha[j], a + lp)
            elif a + lp > alpha[j]:
                alpha[j] = a + lp
    return alpha, into


def _segment(word: str, pieces: dict[str, float], temperature: float = 0.0,
             rng: np.random.Generator | None = None) -> tuple[list[str | None], float]:
    """Segment one marked word: (pieces, score); ``None`` is an unknown char.

    At temperature <= 0 the forward pass takes the max, and the walk back
    follows the first best arc in ascending start order: the Viterbi path
    and its score. Otherwise it takes log-sum-exp of the tempered scores,
    and the walk back draws each arc from ``rng``: an exact sample with
    probability proportional to likelihood ** (1/temperature), scored by
    the tempered log partition."""
    viterbi = temperature <= 0
    alpha, into = _forward(_lattice(word, pieces), 1.0 if viterbi else 1.0 / temperature, viterbi)
    out: list[str | None] = []
    pos = len(word)
    while pos > 0:
        scores = [alpha[i] + lp for i, _, lp in into[pos]]
        if viterbi:
            k = scores.index(alpha[pos])
        else:
            weights = np.exp(np.array(scores) - max(scores))
            k = rng.choice(len(scores), p=weights / weights.sum())
        pos, piece, _ = into[pos][k]
        out.append(piece)
    out.reverse()
    return out, alpha[-1]


def _logaddexp(x: float, y: float) -> float:
    """``np.logaddexp`` on Python floats, with numpy's own formula."""
    if x == y:
        return x + _LN2
    if x < y:
        x, y = y, x
    return x + math.log1p(math.exp(y - x))


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

def _substrings(strings: list[str], max_len: int):
    """Every substring of ``strings`` up to ``max_len`` characters, each
    sliced once, in (string, start, end) order: (texts, string, start,
    length). The spans are laid out once per string length."""
    spans = {}  # string length -> (slices, starts, lengths) of every substring
    for n in {len(s) for s in strings}:
        ij = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + max_len) + 1)]
        spans[n] = ([slice(i, j) for i, j in ij], np.array([i for i, _ in ij], dtype=np.intp),
                    np.array([j - i for i, j in ij], dtype=np.intp))
    per = [spans[len(s)] for s in strings]
    texts = list(itertools.chain.from_iterable(
        map(s.__getitem__, sl) for s, (sl, _, _) in zip(strings, per)))
    string = np.repeat(np.arange(len(strings)), [len(sl) for sl, _, _ in per])
    start = np.concatenate([i for _, i, _ in per])
    length = np.concatenate([n for _, _, n in per])
    return texts, string, start, length


def _seed_pieces(word_counts: Counter) -> tuple[dict[str, float], "_Lattice"]:
    """Initial inventory: substrings up to MAX_PIECE_LEN seen at least twice,
    plus every character (guaranteed coverage), in order of first sight.
    Probabilities start proportional to substring counts. Returned with the
    words' ``_Lattice`` against it, from the same pass: each substring is
    sliced once, counted by word frequency, and its (word, start, length)
    becomes an arc where it is a seed piece."""
    strings, freqs = list(word_counts), list(word_counts.values())
    texts, string, start, length = _substrings(strings, MAX_PIECE_LEN)
    distinct = list(dict.fromkeys(texts))  # in order of first sight
    occ = np.fromiter(map(dict(zip(distinct, itertools.count())).__getitem__, texts),
                      np.intp, len(texts))
    # frequency-weighted counts: whole numbers, exact in float64
    counts = np.bincount(occ, np.array(freqs, dtype=np.float64)[string]).astype(np.int64)
    sizes = np.fromiter(map(len, distinct), np.intp, len(distinct))
    kept = np.flatnonzero((sizes == 1) | (counts >= 2))
    seed = dict(zip([distinct[k] for k in kept.tolist()], counts[kept].tolist()))
    total = sum(seed.values())
    index = np.full(len(distinct), -1)
    index[kept] = np.arange(len(kept))
    piece = index[occ]
    hit = piece >= 0
    words = _Lattice([len(s) for s in strings], string[hit], start[hit], length[hit], piece[hit],
                     len(seed), freqs)
    return {s: math.log(c / total) for s, c in seed.items()}, words


class _Lattice:
    """The segmentation lattices of a list of strings, built once, with every
    arc scored through one array indexed by piece.

    Nodes are the (string, position) pairs, string after string. An arc is
    (src, dst, piece) over nodes; arc ids follow (string, start, end) order,
    as ``_lattice`` lists them. A position where no arc starts gets a
    single-char unknown arc, whose piece index is ``n_pieces``. A score array
    holds a log-prob per piece and -inf for a dropped piece, whose arcs then
    change no sum and win no max: the lattice never needs rebuilding, as
    long as every position keeps a live arc. The passes take the arcs in
    groups, one numpy call per group over all strings, and each node sees
    its arcs in ``_forward``'s order. ``rows`` maps each string to a piece
    index where the strings are pieces themselves (see ``parts``)."""

    def __init__(self, sizes, string, start, length, piece, n_pieces: int,
                 freqs=None, rows=None):
        """Arcs as (string, start, length, piece) arrays in (string, start,
        end) order; the unknown arcs are added here."""
        sizes = np.asarray(sizes, dtype=np.intp)
        first = np.cumsum(sizes + 1) - (sizes + 1)
        nodes = int(sizes.sum()) + len(sizes)
        src = first[string] + start
        covered = np.zeros(nodes, dtype=bool)
        covered[src] = True
        covered[first + sizes] = True  # a string's end node starts no arc
        gap = np.flatnonzero(~covered)
        if gap.size:
            src = np.concatenate((src, gap))
            length = np.concatenate((length, np.ones_like(gap)))
            piece = np.concatenate((piece, np.full_like(gap, n_pieces)))
            order = np.lexsort((length, src))
            src, length, piece = src[order], length[order], piece[order]
        self.src, self.dst, self.piece = src, src + length, piece
        self.n_pieces, self.n_nodes, self.rows = n_pieces, nodes, rows
        self.first, self.last = first, first + sizes
        self.is_first = np.zeros(nodes, dtype=bool)
        self.is_first[first] = True
        self.freq = np.ones(len(sizes)) if freqs is None else np.array(freqs, dtype=np.float64)
        self.string = np.repeat(np.arange(len(sizes)), sizes + 1)[self.src]
        start = self.src - first[self.string]
        # A start reaches each node at most once, so forward and Viterbi take
        # one group per start, ascending. Backward collects all the arcs of a
        # start into one node: one group per (start, length), in descending
        # start, then ascending length.
        top = int(start.max(initial=0))
        self._fwd = self._groups(start)
        self._bwd = self._groups((top - start) * (int(length.max(initial=0)) + 1) + length)

    def _groups(self, key):
        """The arc ids in ascending ``key``, split where it changes; ids
        with one key keep their order. Small keys sort by radix."""
        key = key.astype(np.min_scalar_type(int(key.max(initial=0))))
        order = np.argsort(key, kind="stable")
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        return [(self.src[ids], self.dst[ids], self.piece[ids], ids)
                for ids in np.split(order, cuts) if ids.size]

    @classmethod
    def of_strings(cls, strings, pieces: list[str], freqs=None) -> "_Lattice":
        """Look every substring of ``strings`` up in ``pieces``, an inventory
        of any shape; ``_seed_pieces`` builds the seed's lattice in its own
        counting pass."""
        strings = list(strings)
        index = {p: k for k, p in enumerate(pieces)}
        texts, string, start, length = _substrings(strings, max(map(len, pieces)))
        piece = np.fromiter(map(index.get, texts, itertools.repeat(-1)), np.intp, len(texts))
        hit = piece >= 0
        return cls([len(s) for s in strings], string[hit], start[hit], length[hit], piece[hit],
                   len(pieces), freqs)

    def parts(self) -> "_Lattice":
        """One string per multi-char piece that has an arc here: the lattice
        of the piece's own substrings without the piece itself, cut from
        the span of one of the piece's arcs, which holds exactly those arcs."""
        arc = np.full(self.n_pieces + 1, -1)
        arc[self.piece] = np.arange(len(self.piece))  # any arc of a piece will do
        pieces = np.flatnonzero(arc[:-1] >= 0)
        arc = arc[pieces]
        keep = self.dst[arc] - self.src[arc] > 1
        pieces, arc = pieces[keep], arc[keep]
        lo, end = self.src[arc], self.dst[arc]
        # the arcs leaving the span's nodes are one run of ids, as src is sorted
        a = np.searchsorted(self.src, lo)
        run = np.searchsorted(self.src, end) - a
        owner = np.repeat(np.arange(len(arc)), run)
        ids = np.repeat(a - (np.cumsum(run) - run), run) + np.arange(run.sum())
        inside = (self.dst[ids] <= end[owner]) & (ids != arc[owner])
        ids, owner = ids[inside], owner[inside]
        return _Lattice(end - lo, owner, self.src[ids] - lo[owner], self.dst[ids] - self.src[ids],
                        self.piece[ids], self.n_pieces, rows=pieces)

    def em_step(self, logp: np.ndarray) -> tuple[np.ndarray, float]:
        """One EM step on the log-probs ``logp``. Returns (updated log-probs,
        corpus log-likelihood under the *input* ones). Expected piece counts
        come from forward-backward posteriors; the M-step renormalizes them.
        Bit for bit the same as walking each word's ``_lattice`` with
        ``_logaddexp``: ``np.logaddexp`` equals it, each node accumulates in
        the same order, the counts add up arc by arc in (word, start, end)
        order, and ``math.exp``, ``math.log`` and ``sum`` stay where numpy
        would round differently."""
        score = np.append(logp, UNK_SCORE)
        alpha = np.full(self.n_nodes, -np.inf)
        alpha[self.first] = 0.0
        for src, dst, piece, _ in self._fwd:
            alpha[dst] = np.logaddexp(alpha[dst], alpha[src] + score[piece])
        beta = np.full(self.n_nodes, -np.inf)
        beta[self.last] = 0.0
        for src, dst, piece, _ in self._bwd:
            beta[src] = np.logaddexp(beta[src], score[piece] + beta[dst])
        z = alpha[self.last]
        loglik = 0.0
        for freq, zw in zip(self.freq.tolist(), z.tolist()):
            loglik += freq * zw
        arcs = np.flatnonzero(np.isfinite(score[self.piece]) & (self.piece < self.n_pieces))
        src, dst, piece, string = self.src[arcs], self.dst[arcs], self.piece[arcs], self.string[arcs]
        post = alpha[src] + score[piece] + beta[dst] - z[string]
        weights = self.freq[string] * np.fromiter(map(math.exp, post.tolist()), np.float64, len(post))
        expected = np.bincount(piece, weights, minlength=self.n_pieces)
        live = np.flatnonzero(np.isfinite(logp))
        counts = expected[live]
        total = sum(counts.tolist())  # the floor keeps log finite where a count underflows
        out = np.full(self.n_pieces, -np.inf)
        out[live] = list(map(math.log, (np.maximum(counts, 1e-300) / total).tolist()))
        return out, loglik

    def _viterbi(self, logp):
        """Max-plus forward: (alpha, back), ``back[j]`` the id of the first
        best arc into node j in ascending start order, as ``_segment`` walks."""
        score = np.append(logp, UNK_SCORE)
        alpha = np.full(self.n_nodes, -np.inf)
        alpha[self.first] = 0.0
        back = np.zeros(self.n_nodes, dtype=np.intp)
        for src, dst, piece, ids in self._fwd:
            cand = alpha[src] + score[piece]
            better = cand > alpha[dst]
            alpha[dst[better]] = cand[better]
            back[dst[better]] = ids[better]
        return alpha, back

    def best_scores(self, logp: np.ndarray) -> np.ndarray:
        """Each string's Viterbi score."""
        return self._viterbi(logp)[0][self.last]

    def best_counts(self, logp: np.ndarray) -> np.ndarray:
        """How often each piece occurs in the strings' Viterbi segmentations,
        weighted by string frequency (whole numbers, exact in float64)."""
        _, back = self._viterbi(logp)
        counts = np.zeros(self.n_pieces + 1)
        node, freq = self.last, self.freq
        while node.size:
            arc = back[node]
            counts += np.bincount(self.piece[arc], freq, minlength=self.n_pieces + 1)
            node = self.src[arc]
            more = ~self.is_first[node]
            node, freq = node[more], freq[more]
        return counts[:-1]


class _Fit:
    """A unigram fit in progress over ``words``, the lattice of the corpus
    words built once against the seed inventory. ``logp`` is indexed like
    the seed pieces; pruning sets a piece to -inf and never drops a single
    character, so every position keeps a live arc."""

    def __init__(self, seed: dict[str, float], words: _Lattice):
        self.pieces = list(seed)
        self.logp = np.array(list(seed.values()))
        self.words = words
        self.parts = self.words.parts()
        self.multi = np.array([len(p) > 1 for p in self.pieces], dtype=bool)
        self.rank = np.empty(len(self.pieces), dtype=np.intp)  # order of the pieces as strings
        self.rank[sorted(range(len(self.pieces)), key=self.pieces.__getitem__)] = \
            np.arange(len(self.pieces))

    def em_step(self) -> float:
        """One EM step; returns the log-likelihood before it."""
        self.logp, loglik = self.words.em_step(self.logp)
        return loglik

    def prune(self, target_pieces: int) -> bool:
        """Drop the lowest-contribution multi-char pieces (at most PRUNE_STEP
        of them per call, never below the target) and renormalize the
        survivors; False, changing nothing, at or below the target or with
        no multi-char piece left. Contribution is the estimated likelihood
        loss if the piece were resegmented by the remaining inventory: its
        Viterbi count over the corpus times its log-prob less the best score
        of its ``parts``. Equal losses drop the smaller piece first."""
        logp = self.logp
        live = np.isfinite(logp)
        prunable = np.flatnonzero(live & self.multi)
        size = int(np.count_nonzero(live))
        if size <= target_pieces or not prunable.size:
            return False
        count = self.words.best_counts(logp)[prunable]
        alt = np.zeros(len(logp))
        alt[self.parts.rows] = self.parts.best_scores(logp)
        loss = np.where(count == 0, 0.0, count * (logp[prunable] - alt[prunable]))
        n_drop = min(max(1, int(len(prunable) * PRUNE_STEP)), size - target_pieces)
        logp = logp.copy()
        logp[prunable[np.lexsort((self.rank[prunable], loss))[:n_drop]]] = -np.inf
        kept = np.flatnonzero(np.isfinite(logp))
        logp[kept] -= _logsumexp(logp[kept].tolist())
        self.logp = logp
        return True

    def inventory(self) -> dict[str, float]:
        """The live pieces and their log-probs, in seed order."""
        kept = np.flatnonzero(np.isfinite(self.logp))
        return dict(zip([self.pieces[k] for k in kept], self.logp[kept].tolist()))


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

    alphabet = {c for w in word_counts for c in w}
    if target_vocab < len(alphabet) + NUM_SPECIALS:
        raise DataError(
            f"target vocab {target_vocab} cannot cover {len(alphabet)} characters plus {NUM_SPECIALS} specials")
    target_pieces = target_vocab - NUM_SPECIALS

    fit = _Fit(*_seed_pieces(word_counts))
    while True:
        for _ in range(EM_STEPS):
            fit.em_step()
        if not fit.prune(target_pieces):
            break
    fit.em_step()
    return TokenizerModel(fit.inventory())


# ---------------------------------------------------------------------------
# Model file: version line, special assignments, then piece\tlog_prob rows.

def save_tokenizer(model: TokenizerModel, path) -> None:
    write_atomic(path, [f"#version\t{FORMAT_VERSION}\n",
                        *(f"#special\t{name}\t{sid}\n" for sid, name in enumerate(SPECIAL_NAMES)),
                        *(f"{piece}\t{model.pieces[piece]!r}\n" for piece in model.piece_of)])


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
