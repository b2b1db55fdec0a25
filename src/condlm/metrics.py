"""Sentence-level generation metrics and the evaluation report.

All metrics share one tokenization: lowercase, then words and single
punctuation marks. BLEU comes in two variants: unigram-only, and the sum
of the order-1..4 scores (a literal sum, not the usual geometric mean; the
geometric reading is also reported for transparency). No smoothing: an
order with zero matches scores zero. METEOR uses exact-match alignment
with the fragmentation penalty; ROUGE-L is the LCS F1 against the best
reference; CIDEr is TF-IDF cosine averaged over references and n-gram
orders, and CIDEr-Title additionally zeroes the weight of every n-gram
that appears in the title.

METEOR's chunk count is the minimum over all maximal alignments, found as
m matches minus the most bigram links (a link maps a candidate bigram onto
a reference bigram with the same two words). A greedy alignment bounds it
from above and the shared bigram counts from below; when the bounds differ,
a branch and bound over the candidate's bigram positions closes the gap.
Only a search that exceeds ``_CHUNK_BUDGET`` nodes falls back to the
greedy count, which in practice takes long sentences over a handful of
distinct words.

``evaluate`` prepares each row's references once (BLEU clip counts and
lengths, CIDEr vectors and norms with and without the title's n-grams) and
scores every sentence of the row against them, with the same arithmetic as
the public per-metric functions. Every sentence, candidate or reference,
has its orders 1..4 counted once (``_counts``), and BLEU's precisions and
clips and CIDEr's TF-IDF vectors all read those counts. One ``evaluate``
call computes each gram's IDF once, in a table it hands to every TF-IDF
vector it builds and drops when it returns. A vector that holds no title
n-gram is its own title vector, norm included.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import DataError
from .textio import read_lines, write_atomic

MAX_ORDER = 4
METEOR_ALPHA = 0.9
METEOR_GAMMA = 0.5
METEOR_THETA = 3.0
CIDER_SCALE = 10.0
_CHUNK_BUDGET = 200_000  # search nodes before falling back to greedy chunks

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Metric tokenization: lowercased words and punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


def ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


# ---------------------------------------------------------------------------
# BLEU


def _tally(items: Iterable) -> dict:
    """How often each item occurs, in the order of first occurrence, as a
    ``Counter`` would count them. A ``Counter``'s own set-up costs more than
    counting the few words or n-grams of a sentence, and its ``|`` and ``&``
    cost more than the plain loops BLEU's clips and precisions use."""
    counts: dict = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return counts


def _counts(tokens: Sequence[str], max_order: int = MAX_ORDER) -> list[dict]:
    """Per order 1..max_order, the sentence's n-gram counts, its n-grams
    zipped from its shifted token lists."""
    shifted = [tokens[i:] for i in range(max_order)]
    return [_tally(zip(*shifted[:n])) for n in range(1, max_order + 1)]


def _bleu_clips(ref_counts: Sequence[Sequence[dict]]) -> list[dict]:
    """Per order, the union (elementwise max) of the references' n-gram
    counts: a candidate count is clipped by its most frequent reference
    occurrence."""
    clips: list[dict] = [{} for _ in ref_counts[0]]
    for counts in ref_counts:
        for best, grams in zip(clips, counts):
            for gram, count in grams.items():
                if count > best.get(gram, 0):
                    best[gram] = count
    return clips


def _bleu_precisions(counts: Sequence[dict], clips: Sequence[dict]) -> list[float]:
    """Clipped n-gram precision for orders 1..len(clips)."""
    out = []
    for grams, best in zip(counts, clips):
        total = sum(grams.values())
        matched = sum([min(count, best[gram]) for gram, count in grams.items() if gram in best])
        out.append(matched / total if total else 0.0)
    return out


def _brevity_penalty(candidate: Sequence[str], ref_lengths: Sequence[int]) -> float:
    c = len(candidate)
    if c == 0:
        return 0.0
    # Closest reference length; ties go to the shorter reference.
    r = min((abs(length - c), length) for length in ref_lengths)[1]
    return 1.0 if c > r else math.exp(1.0 - r / c)


def _bleu_geometric(bp: float, precisions: Sequence[float]) -> float:
    if any(p == 0.0 for p in precisions):
        return 0.0
    mean_log = sum(math.log(p) for p in precisions) / len(precisions)
    return bp * math.exp(mean_log)


def bleu(candidate: Sequence[str], references: Sequence[Sequence[str]],
         max_order: int = MAX_ORDER) -> float:
    """Sum over orders 1..max_order of (brevity penalty x clipped n-gram
    precision). ``max_order=1`` gives the unigram-only variant."""
    if not references:
        raise ValueError("bleu needs at least one reference")
    bp = _brevity_penalty(candidate, [len(r) for r in references])
    clips = _bleu_clips([_counts(r, max_order) for r in references])
    return sum(bp * p for p in _bleu_precisions(_counts(candidate, max_order), clips))


def bleu_geometric(candidate: Sequence[str], references: Sequence[Sequence[str]],
                   max_order: int = MAX_ORDER) -> float:
    """The conventional reading: brevity penalty x geometric mean of the
    order precisions (zero if any order has no match)."""
    if not references:
        raise ValueError("bleu needs at least one reference")
    clips = _bleu_clips([_counts(r, max_order) for r in references])
    return _bleu_geometric(_brevity_penalty(candidate, [len(r) for r in references]),
                           _bleu_precisions(_counts(candidate, max_order), clips))


# ---------------------------------------------------------------------------
# ROUGE-L


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length, bit-parallel over ``b`` (Allison
    and Dix 1986, in Hyyrö's form): after each token of ``a``, the zero bits
    of ``v`` mark the positions of ``b`` where the LCS row steps up."""
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """LCS F1 against the best reference."""
    if not references:
        raise ValueError("rouge_l needs at least one reference")
    best = 0.0
    for ref in references:
        lcs = _lcs_len(candidate, ref)
        if lcs == 0 or not candidate or not ref:
            continue
        p = lcs / len(candidate)
        r = lcs / len(ref)
        best = max(best, 2.0 * p * r / (p + r))
    return best


# ---------------------------------------------------------------------------
# METEOR


def _min_chunks_exact(cand: Sequence[str], ref: Sequence[str],
                      quota: Mapping[str, int], budget: int) -> int | None:
    """Minimum chunk count over all maximal exact-match alignments, or None
    when the search would visit more than ``budget`` nodes.

    A link maps candidate bigram (i, i+1) onto reference bigram (j, j+1)
    with the same two words, and chunks = m - links for m matches. Quotas
    never limit links: a word's linked positions are matched one to one, so
    there are at most min(c_w, r_w) of them, and single matches fill the
    rest of each quota. So the minimum is m minus the most links.

    ``_chunks_greedy`` gives an upper bound U. Each link uses its own
    candidate and reference bigram occurrence, so
    L = max(1, m - min(m - 1, sum over bigram types of
    min(count_cand, count_ref))) is a lower bound, and U == L returns U
    with no search. Otherwise a branch and bound walks the candidate bigram
    positions with an explicit stack. A node holds the reference position
    the current token continues from and the used reference positions; it
    is pruned unless links so far plus, per bigram type, min(candidate
    bigrams left, reference bigrams with both positions free) beat the best
    links found, which start at U's."""
    m = sum(quota.values())
    if m == 0:
        return 0
    upper = _chunks_greedy(cand, ref, quota)
    type_of: dict[tuple[str, str], int] = {}
    ref_types = [type_of.setdefault(bigram, len(type_of)) for bigram in zip(ref, ref[1:])]
    cand_types = [type_of.get(bigram, -1) for bigram in zip(cand, cand[1:])]
    cand_left = [0] * len(type_of)  # candidate bigrams at the current position or later
    ref_free = [0] * len(type_of)  # reference bigrams with both positions free
    starts: list[list[int]] = [[] for _ in type_of]
    for t in cand_types:
        if t >= 0:
            cand_left[t] += 1
    for j, t in enumerate(ref_types):
        ref_free[t] += 1
        starts[t].append(j + 1)  # shifted, as below
    slack = sum(map(min, cand_left, ref_free))  # kept equal to the sum as both change
    most = min(m - 1, slack)
    if upper == m - most:
        return upper

    # Reference positions are shifted up by one, so that 0 and n_ref + 1
    # are permanently used sentinels and the two bigrams through a position
    # never run off either end; pair[s] is the type of the reference bigram
    # on shifted positions (s, s + 1), -1 where one of them is a sentinel.
    n_bi, n_ref = len(cand_types), len(ref)
    used = [True] + [False] * n_ref + [True]
    pair = [-1] + ref_types + [-1]
    best = m - upper  # most links found so far
    links = nodes = 0
    # Per bigram position: the moves still to try (popped from the end, so
    # linking comes before not linking) and the move being tried, each the
    # first reference position it uses (-1: no link), and the position the
    # token there continues from (0: none). From a continued token a move
    # uses one position; otherwise it starts a link on two.
    moves: list[list[int]] = [[] for _ in range(n_bi)]
    taken = [-1] * n_bi
    prev = [0] * (n_bi + 1)

    def use(s: int) -> None:
        nonlocal slack
        used[s] = True
        for b, other in ((s - 1, s - 1), (s, s + 1)):  # the two bigrams through s
            if not used[other]:  # it was free and no longer is
                t = pair[b]
                if ref_free[t] <= cand_left[t]:
                    slack -= 1
                ref_free[t] -= 1

    def free(s: int) -> None:
        nonlocal slack
        used[s] = False
        for b, other in ((s - 1, s - 1), (s, s + 1)):
            if not used[other]:
                t = pair[b]
                if ref_free[t] < cand_left[t]:
                    slack += 1
                ref_free[t] += 1

    level = 0
    while True:
        nodes += 1
        if nodes > budget:
            return None
        expand = False
        if level == n_bi:
            if links > best:
                best = links
                if best == most:
                    return m - best
        else:
            t, p = cand_types[level], prev[level]
            cont = p and t >= 0 and pair[p] == t and not used[p + 1]
            if links + slack + (cont and ref_free[t] < cand_left[t]) > best:
                expand = True
                if p:
                    moves[level] = [-1, p + 1] if cont else [-1]
                elif t >= 0:
                    moves[level] = [-1] + [s for s in reversed(starts[t])
                                           if not used[s] and not used[s + 1]]
                else:
                    moves[level] = [-1]
                if t >= 0:  # the bigram at this position is no longer ahead
                    if cand_left[t] <= ref_free[t]:
                        slack -= 1
                    cand_left[t] -= 1
        if not expand:
            # Undo moves up the stack until a position has one left to try.
            level -= 1
            while level >= 0:
                s = taken[level]
                if s >= 0:
                    if not prev[level]:
                        free(s + 1)
                    free(s)
                    links -= 1
                if moves[level]:
                    break
                t = cand_types[level]
                if t >= 0:
                    if cand_left[t] < ref_free[t]:
                        slack += 1
                    cand_left[t] += 1
                level -= 1
            if level < 0:
                return m - best
        s = moves[level].pop()
        taken[level] = s
        if s >= 0:
            use(s)
            if not prev[level]:
                s += 1
                use(s)
            links += 1
        prev[level + 1] = max(s, 0)
        level += 1


def _chunks_greedy(cand: Sequence[str], ref: Sequence[str],
                   quota: Mapping[str, int]) -> int:
    """Fallback: left-to-right alignment preferring the continuation of the
    previous match. An upper bound on the true minimum."""
    ref_positions: dict[str, list[int]] = {}
    for j, w in enumerate(ref):
        ref_positions.setdefault(w, []).append(j)
    left = dict(quota)
    used: set[int] = set()
    chunks = 0
    prev = None
    for w in cand:
        if left.get(w, 0) <= 0:
            prev = None
            continue
        free = [j for j in ref_positions.get(w, ()) if j not in used]
        if not free:
            prev = None
            continue
        if prev is not None and prev + 1 in free:
            j = prev + 1
        else:
            j = free[0]
            chunks += 1
        used.add(j)
        left[w] -= 1
        prev = j
    return chunks


def meteor(candidate: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """Exact-match METEOR, best reference taken. References are scored in
    descending order of Fmean, and the rest skipped once an Fmean is at most
    the best score so far: a score never exceeds its Fmean."""
    if not references:
        raise ValueError("meteor needs at least one reference")
    cand_counts = _tally(candidate)
    ranked = []
    for ref in references:
        ref_counts = _tally(ref)
        quota = {w: min(c, ref_counts[w]) for w, c in cand_counts.items() if w in ref_counts}
        matches = sum(quota.values())
        if matches == 0:
            continue
        p = matches / len(candidate)
        r = matches / len(ref)
        fmean = p * r / (METEOR_ALPHA * p + (1.0 - METEOR_ALPHA) * r)
        ranked.append((fmean, ref, quota, matches))
    ranked.sort(key=lambda e: e[0], reverse=True)
    best = 0.0
    for fmean, ref, quota, matches in ranked:
        if fmean <= best:
            break
        chunks = _min_chunks_exact(candidate, ref, quota, _CHUNK_BUDGET)
        if chunks is None:
            chunks = _chunks_greedy(candidate, ref, quota)
        penalty = METEOR_GAMMA * (chunks / matches) ** METEOR_THETA
        best = max(best, fmean * (1.0 - penalty))
    return best


# ---------------------------------------------------------------------------
# CIDEr


@dataclass
class DfCorpus:
    """Document frequencies of n-grams over a reference document sample."""

    doc_count: int
    df: dict[int, dict[tuple[str, ...], int]] = field(default_factory=dict)

    def frequency(self, gram: tuple[str, ...]) -> int:
        # Unseen n-grams count as appearing in one document.
        return max(1, self.df.get(len(gram), {}).get(gram, 0))

    def idf(self, gram: tuple[str, ...]) -> float:
        return math.log(self.doc_count / self.frequency(gram))


def build_df(token_docs: Iterable[Sequence[str]], max_order: int = MAX_ORDER) -> DfCorpus:
    """Count, per order, in how many documents each n-gram appears. Each
    document's distinct n-grams of an order are one set of tuples, zipped
    from its shifted token lists, which a ``Counter`` of that order counts
    in C. Orders no document reaches are dropped."""
    counts = [Counter() for _ in range(max_order)]
    count = 0
    for doc in token_docs:
        count += 1
        for n, grams in enumerate(counts, start=1):
            grams.update(set(zip(*[doc[i:] for i in range(n)])))
    if count == 0:
        raise DataError("document-frequency corpus is empty")
    # drop empty orders so the on-disk form round-trips to an equal object
    return DfCorpus(count, {n: dict(grams) for n, grams in enumerate(counts, start=1) if grams})


# save_df joins this many rows per write: a few large writes, and a large
# table is never one string.
_DF_PART_ROWS = 8192


def save_df(corpus: DfCorpus, path) -> None:
    """Write ``#documents<TAB>count``, then per order, ascending, one
    ``gram<TAB>count`` row per n-gram, its tokens joined by spaces.

    Each order's rows are formatted once and sorted as text, which orders
    them as their token tuples would sort, given tokens as ``tokenize``
    makes them: no token holds whitespace, and a token longer than one
    character is all word characters. Where one gram's text is a prefix of
    another's, the longer one continues with a word character, which sorts
    after the space or tab that follows the shorter token."""
    def parts():
        yield f"#documents\t{corpus.doc_count}\n"
        for n in sorted(corpus.df):
            rows = sorted([f"{' '.join(gram)}\t{c}\n" for gram, c in corpus.df[n].items()])
            for a in range(0, len(rows), _DF_PART_ROWS):
                yield "".join(rows[a:a + _DF_PART_ROWS])
    write_atomic(path, parts())


def load_df(path) -> DfCorpus:
    lines = read_lines(path, "document-frequency file")
    if not lines or not lines[0][1].startswith("#documents\t"):
        raise DataError(f"{path} is not a document-frequency file")
    df: dict[int, dict[tuple[str, ...], int]] = {}
    for lineno, line in lines:
        fields = line.split("\t")
        try:
            if lineno == 1:
                if len(fields) != 2:
                    raise ValueError(f"expected #documents<TAB>count, got {line!r}")
                doc_count = int(fields[1])
                if doc_count < 1:
                    raise ValueError(f"document count {doc_count} is below 1")
            elif line:
                if len(fields) != 2:
                    raise ValueError(f"expected gram<TAB>count, got {line!r}")
                gram, count = tuple(fields[0].split(" ")), int(fields[1])
                # build_df counts each document once per gram
                if not 1 <= count <= doc_count:
                    raise ValueError(f"count {count} outside [1, {doc_count}] documents")
                table = df.setdefault(len(gram), {})
                if gram in table:
                    first = next(n for n, text in lines[1:] if text.split("\t")[0] == fields[0])
                    raise ValueError(f"gram {fields[0]!r} repeats line {first}")
                table[gram] = count
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
    return DfCorpus(doc_count, df)


_Vectors = list[tuple[dict, float]]  # per order 1..MAX_ORDER: (TF-IDF vector, its norm)


def _with_norm(vec: dict) -> tuple[dict, float]:
    return vec, math.sqrt(sum(w * w for w in vec.values()))


def _tfidf_vectors(counts: Sequence[dict], df: DfCorpus, idf: dict) -> _Vectors:
    # Raw count x IDF. The usual normalization by total n-gram count cancels
    # in the cosine, so it is omitted. ``idf`` holds the IDFs already
    # computed for the caller and takes the ones computed here.
    out = []
    for grams in counts:
        vec: dict[tuple[str, ...], float] = {}
        for gram, count in grams.items():
            w = idf.get(gram)
            if w is None:
                w = idf[gram] = df.idf(gram)
            weight = count * w
            if weight != 0.0:
                vec[gram] = weight
        out.append(_with_norm(vec))
    return out


def _title_grams(title_tokens: Sequence[str]) -> list[set]:
    shifted = [title_tokens[i:] for i in range(MAX_ORDER)]
    return [set(zip(*shifted[:n])) for n in range(1, MAX_ORDER + 1)]


def _drop_title(vectors: _Vectors, title_grams: Sequence[set]) -> _Vectors:
    """The vectors with every n-gram of the title removed. A vector that
    holds none of them is returned as it is, with its norm."""
    return [(vec, norm) if drop.isdisjoint(vec)
            else _with_norm({g: w for g, w in vec.items() if g not in drop})
            for (vec, norm), drop in zip(vectors, title_grams)]


def _cosine(a: dict, na: float, b: dict, nb: float) -> float:
    if not a or not b:
        return 0.0
    dot = sum(w * b[g] for g, w in a.items() if g in b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def _cider_core(candidate: _Vectors, references: Sequence[_Vectors]) -> float:
    score = 0.0
    for n in range(MAX_ORDER):
        sims = [_cosine(*candidate[n], *ref[n]) for ref in references]
        score += sum(sims) / len(sims)
    return (CIDER_SCALE / MAX_ORDER) * score


def cider(candidate: Sequence[str], references: Sequence[Sequence[str]],
          df: DfCorpus) -> float:
    """Mean TF-IDF cosine per order, summed and scaled to [0, 10]."""
    if not references:
        raise ValueError("cider needs at least one reference")
    idf: dict = {}
    return _cider_core(_tfidf_vectors(_counts(candidate), df, idf),
                       [_tfidf_vectors(_counts(r), df, idf) for r in references])


def cider_title(candidate: Sequence[str], references: Sequence[Sequence[str]],
                df: DfCorpus, title_tokens: Sequence[str]) -> float:
    """CIDEr with every n-gram that appears in the title given zero weight
    in both candidate and reference vectors: parroting the title earns
    nothing."""
    if not references:
        raise ValueError("cider_title needs at least one reference")
    drop, idf = _title_grams(title_tokens), {}
    return _cider_core(_drop_title(_tfidf_vectors(_counts(candidate), df, idf), drop),
                       [_drop_title(_tfidf_vectors(_counts(r), df, idf), drop) for r in references])


# ---------------------------------------------------------------------------
# Report assembly

METRIC_RANGES = {
    "bleu_1": (0.0, 1.0),
    "bleu_sum": (0.0, 4.0),
    "bleu_geometric": (0.0, 1.0),
    "rouge_l": (0.0, 1.0),
    "meteor": (0.0, 1.0),
    "cider": (0.0, CIDER_SCALE),
    "cider_title": (0.0, CIDER_SCALE),
}
HISTOGRAM_BINS = 20

REPORT_SCHEMA = {
    "type": "object",
    "required": ["documents", "sentences", "unmatched_ids", "metrics"],
    "properties": {
        "documents": {"type": "integer", "minimum": 0},
        "sentences": {"type": "integer", "minimum": 0},
        "unmatched_ids": {"type": "array", "items": {"type": "string"}},
        "metrics": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["mean", "per_sentence", "histogram"],
                "properties": {
                    "mean": {"type": ["number", "null"]},
                    "per_sentence": {"type": "array", "items": {"type": "number"}},
                    "histogram": {
                        "type": "object",
                        "required": ["edges", "masses"],
                        "properties": {
                            "edges": {"type": "array", "items": {"type": "number"}},
                            "masses": {"type": "array", "items": {"type": "number"}},
                        },
                    },
                },
            },
        },
    },
}


def _histogram(values: Sequence[float], lo: float, hi: float) -> dict:
    """Fixed-range histogram; masses sum to one when any value exists."""
    width = (hi - lo) / HISTOGRAM_BINS
    edges = [lo + i * width for i in range(HISTOGRAM_BINS + 1)]
    counts = [0] * HISTOGRAM_BINS
    for v in values:
        idx = min(int((v - lo) / width), HISTOGRAM_BINS - 1) if v < hi else HISTOGRAM_BINS - 1
        counts[max(0, idx)] += 1
    total = len(values)
    masses = [c / total if total else 0.0 for c in counts]
    return {"edges": edges, "masses": masses}


@dataclass
class _RowReferences:
    """One row's references and title, prepared once for all its sentences."""

    tokens: list[list[str]]
    lengths: list[int]
    clips: list[dict]  # BLEU clip counts per order
    title_grams: list[set]
    vectors: list[_Vectors]  # CIDEr vectors per reference
    title_vectors: list[_Vectors]  # the same with the title's n-grams dropped

    @classmethod
    def build(cls, ref_tokens: list[list[str]], title_tokens: Sequence[str],
              df: DfCorpus, idf: dict) -> "_RowReferences":
        title_grams = _title_grams(title_tokens)
        counts = [_counts(r) for r in ref_tokens]
        vectors = [_tfidf_vectors(c, df, idf) for c in counts]
        return cls(ref_tokens, [len(r) for r in ref_tokens], _bleu_clips(counts),
                   title_grams, vectors, [_drop_title(v, title_grams) for v in vectors])


def _score_sentence(cand_tokens, refs: _RowReferences, df, idf: dict) -> dict[str, float]:
    counts = _counts(cand_tokens)
    precisions = _bleu_precisions(counts, refs.clips)
    bp = _brevity_penalty(cand_tokens, refs.lengths)
    vectors = _tfidf_vectors(counts, df, idf)
    return {
        "bleu_1": bp * precisions[0],
        "bleu_sum": sum(bp * p for p in precisions),
        "bleu_geometric": _bleu_geometric(bp, precisions),
        "rouge_l": rouge_l(cand_tokens, refs.tokens),
        "meteor": meteor(cand_tokens, refs.tokens),
        "cider": _cider_core(vectors, refs.vectors),
        "cider_title": _cider_core(_drop_title(vectors, refs.title_grams), refs.title_vectors),
    }


def _score_generation(row: Mapping, ref_sentences: list[str], df: DfCorpus,
                      idf: dict) -> list[dict[str, float]]:
    ref_tokens = [t for t in map(tokenize, ref_sentences) if t]
    if not ref_tokens:
        return []
    refs = _RowReferences.build(ref_tokens, tokenize(row.get("title", "")), df, idf)
    scores = []
    for sentence in row.get("sentences", []):
        cand = tokenize(sentence)
        if not cand:
            continue
        scores.append(_score_sentence(cand, refs, df, idf))
    return scores


# The df and an IDF table, set in ``evaluate``'s pool workers only; the table
# goes with the pool when the call returns.
_WORKER_ARGS: tuple[DfCorpus, dict] | None = None


def _init_worker(df: DfCorpus) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = df, {}


def _score_in_worker(row: Mapping, ref_sentences: list[str]) -> list[dict[str, float]]:
    return _score_generation(row, ref_sentences, *_WORKER_ARGS)


def evaluate(generations: Iterable[Mapping], references: Mapping[str, list[str]],
             df: DfCorpus, workers: int = 1) -> dict:
    """Score every generated sentence against all sentences of its
    reference abstract. Generations whose id has no reference are reported
    in ``unmatched_ids`` and excluded from the aggregates."""
    rows = list(generations)
    unmatched = [str(r.get("id")) for r in rows if r.get("id") not in references]
    scored_rows = [r for r in rows if r.get("id") in references]
    jobs = [(r, references[r["id"]]) for r in scored_rows]
    if workers > 1 and len(jobs) > 1:
        import multiprocessing

        # A forked worker gets its initializer's arguments through the fork,
        # not by pickling, so each task carries only a row and its references.
        with multiprocessing.get_context("fork").Pool(
                workers, initializer=_init_worker, initargs=(df,)) as pool:
            per_row = pool.starmap(_score_in_worker, jobs)
    else:
        idf: dict = {}  # each gram's IDF, computed once in this call
        per_row = [_score_generation(row, refs, df, idf) for row, refs in jobs]

    per_metric: dict[str, list[float]] = {name: [] for name in METRIC_RANGES}
    n_sentences = 0
    for row_scores in per_row:
        for s in row_scores:
            n_sentences += 1
            for name, value in s.items():
                per_metric[name].append(value)
    metrics_out = {}
    for name, values in per_metric.items():
        lo, hi = METRIC_RANGES[name]
        metrics_out[name] = {
            "mean": (sum(values) / len(values)) if values else None,
            "per_sentence": values,
            "histogram": _histogram(values, lo, hi),
        }
    return {
        "documents": len(scored_rows),
        "sentences": n_sentences,
        "unmatched_ids": unmatched,
        "metrics": metrics_out,
    }


def save_report(report: dict, path) -> None:
    write_atomic(path, [json.dumps(report, indent=2, sort_keys=True), "\n"])
