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
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import DataError

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


def _bleu_precisions(candidate: Sequence[str], references: Sequence[Sequence[str]],
                     max_order: int) -> list[float]:
    out = []
    for n in range(1, max_order + 1):
        cand_counts = Counter(ngrams(candidate, n))
        total = sum(cand_counts.values())
        if total == 0:
            out.append(0.0)
            continue
        # Clip each count by its most frequent reference occurrence: the
        # intersection with the union (elementwise max) of the references.
        best: Counter = Counter()
        for r in references:
            best |= Counter(ngrams(r, n))
        out.append(sum((cand_counts & best).values()) / total)
    return out


def _brevity_penalty(candidate: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    c = len(candidate)
    if c == 0:
        return 0.0
    # Closest reference length; ties go to the shorter reference.
    r = min((abs(len(ref) - c), len(ref)) for ref in references)[1]
    return 1.0 if c > r else math.exp(1.0 - r / c)


def bleu(candidate: Sequence[str], references: Sequence[Sequence[str]],
         max_order: int = MAX_ORDER) -> float:
    """Sum over orders 1..max_order of (brevity penalty x clipped n-gram
    precision). ``max_order=1`` gives the unigram-only variant."""
    if not references:
        raise ValueError("bleu needs at least one reference")
    bp = _brevity_penalty(candidate, references)
    return sum(bp * p for p in _bleu_precisions(candidate, references, max_order))


def bleu_geometric(candidate: Sequence[str], references: Sequence[Sequence[str]],
                   max_order: int = MAX_ORDER) -> float:
    """The conventional reading: brevity penalty x geometric mean of the
    order precisions (zero if any order has no match)."""
    if not references:
        raise ValueError("bleu needs at least one reference")
    precisions = _bleu_precisions(candidate, references, max_order)
    if any(p == 0.0 for p in precisions):
        return 0.0
    mean_log = sum(math.log(p) for p in precisions) / max_order
    return _brevity_penalty(candidate, references) * math.exp(mean_log)


# ---------------------------------------------------------------------------
# ROUGE-L


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


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
    """Minimum chunk count over all maximal exact-match alignments, by
    depth-first search over which reference position each matched candidate
    token maps to. Returns None when the node budget runs out."""
    ref_positions: dict[str, list[int]] = {}
    for j, w in enumerate(ref):
        ref_positions.setdefault(w, []).append(j)
    remaining_cand = Counter(cand)
    total = sum(quota.values())
    best = [total + 1]
    nodes = [0]
    left = dict(quota)  # quota still to match; updated in place, restored on return
    used: set[int] = set()

    def dfs(i: int, prev_ref: int | None, chunks: int, matched: int):
        nodes[0] += 1
        if nodes[0] > budget:
            raise TimeoutError
        if chunks >= best[0]:
            return
        if matched == total:
            best[0] = min(best[0], chunks)
            return
        if i >= len(cand):
            return
        w = cand[i]
        remaining_cand[w] -= 1
        q = left.get(w, 0)
        if q > 0:
            left[w] = q - 1
            for j in ref_positions[w]:
                if j in used:
                    continue
                new_chunks = chunks + (0 if prev_ref is not None and j == prev_ref + 1 else 1)
                used.add(j)
                dfs(i + 1, j, new_chunks, matched + 1)
                used.discard(j)
            left[w] = q
        # Skip this occurrence only if the quota is still satisfiable later.
        if remaining_cand[w] >= q:
            dfs(i + 1, None, chunks, matched)
        remaining_cand[w] += 1

    try:
        dfs(0, None, 0, 0)
    except TimeoutError:
        return None
    return best[0]


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


def _meteor_single(candidate: Sequence[str], ref: Sequence[str]) -> float:
    cand_counts = Counter(candidate)
    ref_counts = Counter(ref)
    quota = {w: min(c, ref_counts[w]) for w, c in cand_counts.items() if w in ref_counts}
    matches = sum(quota.values())
    if matches == 0 or not candidate or not ref:
        return 0.0
    p = matches / len(candidate)
    r = matches / len(ref)
    fmean = p * r / (METEOR_ALPHA * p + (1.0 - METEOR_ALPHA) * r)
    chunks = _min_chunks_exact(candidate, ref, quota, _CHUNK_BUDGET)
    if chunks is None:
        chunks = _chunks_greedy(candidate, ref, quota)
    penalty = METEOR_GAMMA * (chunks / matches) ** METEOR_THETA
    return fmean * (1.0 - penalty)


def meteor(candidate: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """Exact-match METEOR, best reference taken."""
    if not references:
        raise ValueError("meteor needs at least one reference")
    return max(_meteor_single(candidate, ref) for ref in references)


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
    """Count, per order, in how many documents each n-gram appears."""
    df: dict[int, dict[tuple[str, ...], int]] = {n: {} for n in range(1, max_order + 1)}
    count = 0
    for doc in token_docs:
        count += 1
        for n in range(1, max_order + 1):
            for gram in set(ngrams(doc, n)):
                df[n][gram] = df[n].get(gram, 0) + 1
    if count == 0:
        raise DataError("document-frequency corpus is empty")
    # drop empty orders so the on-disk form round-trips to an equal object
    return DfCorpus(count, {n: d for n, d in df.items() if d})


def save_df(corpus: DfCorpus, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"#documents\t{corpus.doc_count}\n")
        for n in sorted(corpus.df):
            for gram, c in sorted(corpus.df[n].items()):
                f.write(f"{' '.join(gram)}\t{c}\n")


def load_df(path) -> DfCorpus:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise DataError(f"cannot read document-frequency file {path}: {e}") from None
    if not lines or not lines[0].startswith("#documents\t"):
        raise DataError(f"{path} is not a document-frequency file")
    df: dict[int, dict[tuple[str, ...], int]] = {}
    for lineno, line in enumerate(lines, start=1):
        fields = line.split("\t")
        try:
            if lineno == 1:
                doc_count = int(fields[1])
            elif line:
                if len(fields) != 2:
                    raise ValueError(f"expected gram<TAB>count, got {line!r}")
                gram = tuple(fields[0].split(" "))
                df.setdefault(len(gram), {})[gram] = int(fields[1])
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
    return DfCorpus(doc_count, df)


def _tfidf_vector(tokens: Sequence[str], n: int, df: DfCorpus,
                  drop: set[tuple[str, ...]] | None = None) -> dict[tuple[str, ...], float]:
    # Raw count x IDF. The usual normalization by total n-gram count cancels
    # in the cosine, so it is omitted.
    vec: dict[tuple[str, ...], float] = {}
    for gram, count in Counter(ngrams(tokens, n)).items():
        if drop is not None and gram in drop:
            continue
        weight = count * df.idf(gram)
        if weight != 0.0:
            vec[gram] = weight
    return vec


def _cosine(a: Mapping, b: Mapping) -> float:
    if not a or not b:
        return 0.0
    dot = sum(w * b[g] for g, w in a.items() if g in b)
    na = math.sqrt(sum(w * w for w in a.values()))
    nb = math.sqrt(sum(w * w for w in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def _cider_core(candidate: Sequence[str], references: Sequence[Sequence[str]],
                df: DfCorpus, drop_by_order: Mapping[int, set] | None = None) -> float:
    score = 0.0
    for n in range(1, MAX_ORDER + 1):
        drop = drop_by_order.get(n) if drop_by_order else None
        cand_vec = _tfidf_vector(candidate, n, df, drop)
        sims = [_cosine(cand_vec, _tfidf_vector(ref, n, df, drop)) for ref in references]
        score += sum(sims) / len(sims)
    return (CIDER_SCALE / MAX_ORDER) * score


def cider(candidate: Sequence[str], references: Sequence[Sequence[str]],
          df: DfCorpus) -> float:
    """Mean TF-IDF cosine per order, summed and scaled to [0, 10]."""
    if not references:
        raise ValueError("cider needs at least one reference")
    return _cider_core(candidate, references, df)


def cider_title(candidate: Sequence[str], references: Sequence[Sequence[str]],
                df: DfCorpus, title_tokens: Sequence[str]) -> float:
    """CIDEr with every n-gram that appears in the title given zero weight
    in both candidate and reference vectors: parroting the title earns
    nothing."""
    if not references:
        raise ValueError("cider_title needs at least one reference")
    drop = {n: set(ngrams(title_tokens, n)) for n in range(1, MAX_ORDER + 1)}
    return _cider_core(candidate, references, df, drop)


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


def _score_sentence(cand_tokens, ref_token_sents, df, title_tokens) -> dict[str, float]:
    return {
        "bleu_1": bleu(cand_tokens, ref_token_sents, max_order=1),
        "bleu_sum": bleu(cand_tokens, ref_token_sents),
        "bleu_geometric": bleu_geometric(cand_tokens, ref_token_sents),
        "rouge_l": rouge_l(cand_tokens, ref_token_sents),
        "meteor": meteor(cand_tokens, ref_token_sents),
        "cider": cider(cand_tokens, ref_token_sents, df),
        "cider_title": cider_title(cand_tokens, ref_token_sents, df, title_tokens),
    }


def _score_generation(row: Mapping, ref_sentences: list[str], df: DfCorpus) -> list[dict[str, float]]:
    ref_tokens = [t for t in map(tokenize, ref_sentences) if t]
    if not ref_tokens:
        return []
    title_tokens = tokenize(row.get("title", ""))
    scores = []
    for sentence in row.get("sentences", []):
        cand = tokenize(sentence)
        if not cand:
            continue
        scores.append(_score_sentence(cand, ref_tokens, df, title_tokens))
    return scores


_WORKER_DF: DfCorpus | None = None  # set in ``evaluate``'s pool workers only


def _init_worker(df: DfCorpus) -> None:
    global _WORKER_DF
    _WORKER_DF = df


def _score_in_worker(row: Mapping, ref_sentences: list[str]) -> list[dict[str, float]]:
    return _score_generation(row, ref_sentences, _WORKER_DF)


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
        per_row = [_score_generation(row, refs, df) for row, refs in jobs]

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
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
