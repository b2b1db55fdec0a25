"""Brute-force metric references for the evaluate-stage checks.

Each takes a route of its own rather than the one `condlm.metrics` takes:
n-gram lists counted by `list.count`, a memoised recursive LCS, METEOR by
enumerating every alignment, and CIDEr with the normalised TF vector the
production code cancels away. They are slow on purpose; the checks call
them on a small seeded sample.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


def grams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def _brevity(candidate, references):
    c = len(candidate)
    closest = sorted((abs(len(r) - c), len(r)) for r in references)[0][1]
    return 1.0 if c > closest else math.exp(1.0 - closest / c)


def _precision(candidate, references, n):
    cand = grams(candidate, n)
    if not cand:
        return 0.0
    matched = 0
    for g in set(cand):
        matched += min(cand.count(g), max(grams(r, n).count(g) for r in references))
    return matched / len(cand)


def bleu(candidate, references, max_order=4):
    if not candidate:
        return 0.0
    bp = _brevity(candidate, references)
    return sum(bp * _precision(candidate, references, n) for n in range(1, max_order + 1))


def bleu_geometric(candidate, references, max_order=4):
    if not candidate:
        return 0.0
    ps = [_precision(candidate, references, n) for n in range(1, max_order + 1)]
    if min(ps) == 0.0:
        return 0.0
    return _brevity(candidate, references) * math.exp(sum(map(math.log, ps)) / max_order)


def rouge_l(candidate, references):
    def lcs(a, b):
        @lru_cache(maxsize=None)
        def rec(i, j):
            if i == len(a) or j == len(b):
                return 0
            if a[i] == b[j]:
                return 1 + rec(i + 1, j + 1)
            return max(rec(i + 1, j), rec(i, j + 1))
        return rec(0, 0)

    best = 0.0
    for ref in references:
        m = lcs(tuple(candidate), tuple(ref))
        if m:
            p, r = m / len(candidate), m / len(ref)
            best = max(best, 2 * p * r / (p + r))
    return best


def fmean(candidate, ref, alpha=0.9):
    """METEOR's harmonic mean of unigram precision and recall, before the
    fragmentation penalty."""
    matches = sum(min(candidate.count(w), ref.count(w)) for w in set(candidate))
    if matches == 0:
        return 0.0
    p, r = matches / len(candidate), matches / len(ref)
    return p * r / (alpha * p + (1 - alpha) * r)


def alignment_options(candidate, ref):
    """Number of maximal alignments the exhaustive METEOR search visits."""
    total = 1
    for w in set(candidate) & set(ref):
        c, r = candidate.count(w), ref.count(w)
        k = min(c, r)
        total *= math.comb(c, k) * math.perm(r, k)
    return total


def meteor_single(candidate, ref, alpha=0.9, gamma=0.5, theta=3.0):
    """Exact-match METEOR against one reference, minimum chunks found by
    enumerating every maximal alignment."""
    per_word = []
    for w in sorted(set(candidate) & set(ref)):
        cpos = [i for i, x in enumerate(candidate) if x == w]
        rpos = [j for j, x in enumerate(ref) if x == w]
        k = min(len(cpos), len(rpos))
        per_word.append([tuple(zip(cs, rs)) for cs in itertools.combinations(cpos, k)
                         for rs in itertools.permutations(rpos, k)])
    if not per_word:
        return 0.0
    matches = sum(len(opts[0]) for opts in per_word)
    best = matches
    for combo in itertools.product(*per_word):
        pairs = sorted(p for opt in combo for p in opt)
        chunks = sum(1 for k, (ci, rj) in enumerate(pairs)
                     if k == 0 or (ci, rj) != (pairs[k - 1][0] + 1, pairs[k - 1][1] + 1))
        best = min(best, chunks)
    return fmean(candidate, ref, alpha) * (1 - gamma * (best / matches) ** theta)


def cider(candidate, references, df_of, doc_count, title=None, scale=10.0):
    """Mean TF-IDF cosine over references and orders 1-4, TF normalised by
    the n-gram total. ``df_of(gram)`` gives a document frequency (unseen
    grams count once); ``title`` masks the title's n-grams."""
    total = 0.0
    for n in range(1, 5):
        masked = set(grams(title, n)) if title is not None else set()

        def vector(tokens):
            g = grams(tokens, n)
            return {x: (g.count(x) / len(g)) * math.log(doc_count / max(1, df_of(x)))
                    for x in set(g) if x not in masked}

        cvec = vector(candidate)
        sims = []
        for ref in references:
            rvec = vector(ref)
            na = math.sqrt(sum(w * w for w in cvec.values()))
            nb = math.sqrt(sum(w * w for w in rvec.values()))
            dot = sum(w * rvec.get(x, 0.0) for x, w in cvec.items())
            sims.append(dot / (na * nb) if na > 0 and nb > 0 else 0.0)
        total += sum(sims) / len(sims)
    return scale / 4.0 * total
