"""Brute-force reference implementations used only by the tests.

Deliberately independent routes: enumeration instead of dynamic
programming, explicit normalized TF-IDF vectors instead of the cancelled
form, recursive LCS, a fully exhaustive METEOR alignment search, LAMB
one tensor at a time instead of over the flat arena, and attention and
layer-norm gradients row by row through explicit Jacobians instead of the
closed forms. Slow on purpose; inputs stay tiny.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

import numpy as np


def grams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


# --- BLEU ------------------------------------------------------------------

def o_bleu(candidate, references, max_order):
    c = len(candidate)
    if c == 0:
        return 0.0
    r = sorted(((abs(len(ref) - c), len(ref)) for ref in references))[0][1]
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    total_score = 0.0
    for n in range(1, max_order + 1):
        cand = grams(candidate, n)
        if not cand:
            continue
        matched = 0
        pool = [Counter(grams(ref, n)) for ref in references]
        for g in set(cand):
            have = cand.count(g)
            allow = max(p[g] for p in pool)
            matched += min(have, allow)
        total_score += bp * matched / len(cand)
    return total_score


def o_bleu_geometric(candidate, references, max_order):
    c = len(candidate)
    if c == 0:
        return 0.0
    r = sorted(((abs(len(ref) - c), len(ref)) for ref in references))[0][1]
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    logs = []
    for n in range(1, max_order + 1):
        cand = grams(candidate, n)
        if not cand:
            return 0.0
        pool = [Counter(grams(ref, n)) for ref in references]
        matched = sum(min(cand.count(g), max(p[g] for p in pool)) for g in set(cand))
        if matched == 0:
            return 0.0
        logs.append(math.log(matched / len(cand)))
    return bp * math.exp(sum(logs) / max_order)


# --- ROUGE-L ----------------------------------------------------------------

def o_rouge_l(candidate, references):
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
        if m == 0:
            continue
        p, r = m / len(candidate), m / len(ref)
        best = max(best, 2 * p * r / (p + r))
    return best


# --- METEOR -----------------------------------------------------------------

def o_meteor_alignment(candidate, ref):
    """(matches, min chunks) by enumerating every maximal alignment."""
    shared = sorted(set(candidate) & set(ref))
    options_per_word = []
    for w in shared:
        cpos = [i for i, x in enumerate(candidate) if x == w]
        rpos = [j for j, x in enumerate(ref) if x == w]
        k = min(len(cpos), len(rpos))
        opts = []
        for csub in itertools.combinations(cpos, k):
            for rsub in itertools.permutations(rpos, k):
                opts.append(tuple(zip(csub, rsub)))
        options_per_word.append(opts)
    matches = sum(min(candidate.count(w), ref.count(w)) for w in shared)
    if matches == 0:
        return 0, 0
    best = matches
    for combo in itertools.product(*options_per_word):
        pairs = sorted(p for opt in combo for p in opt)
        chunks = 0
        prev = None
        for ci, rj in pairs:
            if prev is None or ci != prev[0] + 1 or rj != prev[1] + 1:
                chunks += 1
            prev = (ci, rj)
        best = min(best, chunks)
    return matches, best


def o_meteor(candidate, references, alpha=0.9, gamma=0.5, theta=3.0):
    best = 0.0
    for ref in references:
        matches, chunks = o_meteor_alignment(candidate, ref)
        if matches == 0:
            continue
        p, r = matches / len(candidate), matches / len(ref)
        fmean = p * r / (alpha * p + (1 - alpha) * r)
        penalty = gamma * (chunks / matches) ** theta
        best = max(best, fmean * (1 - penalty))
    return best


# --- CIDEr ------------------------------------------------------------------

def o_cider(candidate, references, df_lookup, doc_count, title=None, scale=10.0):
    """TF-IDF cosine with the *normalized* TF form (count / total n-grams):
    the normalization must cancel against the production implementation.
    ``df_lookup`` maps gram -> document frequency; unseen grams count as 1.
    ``title`` masks every n-gram appearing in it (the title variant)."""
    total = 0.0
    for n in range(1, 5):
        masked = set(grams(title, n)) if title is not None else set()

        def vector(tokens):
            counts = Counter(grams(tokens, n))
            norm = sum(counts.values())
            vec = {}
            for g, c in counts.items():
                if g in masked:
                    continue
                idf = math.log(doc_count / max(1, df_lookup.get(g, 0)))
                vec[g] = (c / norm) * idf
            return vec

        cvec = candidate and vector(candidate) or {}
        sims = []
        for ref in references:
            rvec = vector(ref) if ref else {}
            dot = sum(w * rvec.get(g, 0.0) for g, w in cvec.items())
            na = math.sqrt(sum(w * w for w in cvec.values()))
            nb = math.sqrt(sum(w * w for w in rvec.values()))
            sims.append(dot / (na * nb) if na > 0 and nb > 0 else 0.0)
        total += sum(sims) / len(sims)
    return (scale / 4.0) * total


# --- Unigram EM --------------------------------------------------------------

def o_segmentations(word, pieces):
    if not word:
        yield []
        return
    for j in range(1, len(word) + 1):
        head = word[:j]
        if head in pieces:
            for rest in o_segmentations(word[j:], pieces):
                yield [head] + rest


def o_em_step(pieces, word_counts):
    """One EM step by enumerating every segmentation of every word."""
    expected = {p: 0.0 for p in pieces}
    loglik = 0.0
    for word, freq in word_counts.items():
        segs = list(o_segmentations(word, pieces))
        weights = [math.exp(sum(pieces[p] for p in s)) for s in segs]
        z = sum(weights)
        loglik += freq * math.log(z)
        for seg, w in zip(segs, weights):
            for p in seg:
                expected[p] += freq * w / z
    total = sum(expected.values())
    return {p: math.log(max(c, 1e-300) / total) for p, c in expected.items()}, loglik


def o_best_segmentation_score(word, pieces):
    """Exhaustive maximum over segmentation scores; -inf when impossible."""
    best = float("-inf")
    for seg in o_segmentations(word, pieces):
        best = max(best, sum(pieces[p] for p in seg))
    return best


# --- LAMB ----------------------------------------------------------------------

def o_lamb_step(tensors, grads, m, v, step, cfg):
    """One LAMB update, block by block, on plain arrays: ``tensors`` and
    ``grads`` map name -> array (a None gradient counts as zero), ``m`` and
    ``v`` are per-name moment dicts filled on first use, ``step`` is the
    step being taken (1-based). Updates the tensors in place."""
    lr = cfg.peak_lr * min(step, cfg.warmup_steps) / cfg.warmup_steps \
        if cfg.warmup_steps > 0 else cfg.peak_lr
    for name, w in tensors.items():
        g = grads[name] if grads[name] is not None else np.zeros_like(w)
        if name not in m:
            m[name], v[name] = np.zeros_like(w), np.zeros_like(w)
        m[name][:] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * g
        v[name][:] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * (g * g)
        m_hat = m[name] / (1.0 - cfg.beta1 ** step)
        v_hat = v[name] / (1.0 - cfg.beta2 ** step)
        update = m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * w
        w_norm = float(np.linalg.norm(w))
        u_norm = float(np.linalg.norm(update))
        trust = w_norm / u_norm if w_norm > 0 and u_norm > 0 else 1.0
        w -= (lr * trust) * update
    return lr


# --- attention and layer norm --------------------------------------------------

def o_attention_grads(q, k, v, mask, g):
    """Gradients of sum(g * attention(q, k, v, mask)) for one head, 2-d
    float64 arrays (``mask`` additive, (T_q, T_k)), one query row at a time
    through the softmax Jacobian diag(p) - p pᵀ. Returns (dq, dk, dv)."""
    scale = 1.0 / math.sqrt(q.shape[1])
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for i in range(len(q)):
        scores = np.array([scale * float(q[i] @ k[j]) + mask[i, j] for j in range(len(k))])
        e = np.exp(scores - scores.max())
        p = e / e.sum()
        for j in range(len(k)):
            dv[j] += p[j] * g[i]
        d_probs = np.array([float(g[i] @ v[j]) for j in range(len(k))])
        d_scores = (np.diag(p) - np.outer(p, p)) @ d_probs
        for j in range(len(k)):
            dq[i] += scale * d_scores[j] * k[j]
            dk[j] += scale * d_scores[j] * q[i]
    return dq, dk, dv


def o_add_norm_grads(a, b, gain, g, eps=1e-5):
    """Gradients of sum(g * (gain * layer_norm(a + b) + bias)) for 2-d
    float64 rows, one row at a time through the Jacobian of the normalized
    row. Returns (d_sum, d_gain, d_bias); both operands get d_sum."""
    x = a + b
    d = x.shape[1]
    d_sum, d_gain, d_bias = np.zeros_like(x), np.zeros(d), np.zeros(d)
    for r in range(len(x)):
        mu = x[r].sum() / d
        std = math.sqrt(float(((x[r] - mu) ** 2).sum()) / d + eps)
        xhat = (x[r] - mu) / std
        jac = (np.eye(d) - 1.0 / d - np.outer(xhat, xhat) / d) / std  # d xhat / d x
        d_sum[r] = jac.T @ (g[r] * gain)
        d_gain += g[r] * xhat
        d_bias += g[r]
    return d_sum, d_gain, d_bias
