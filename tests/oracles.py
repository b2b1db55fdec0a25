"""Brute-force reference implementations used only by the tests.

Deliberately independent routes: enumeration instead of dynamic
programming, an E-step on numpy scalars over its own arc lists, a prune
that resegments every word and piece on dicts, explicit
normalized TF-IDF vectors instead of the cancelled form, recursive LCS, a
fully exhaustive METEOR alignment search, LAMB one tensor at a time
instead of over the flat arena, and attention and layer-norm gradients row
by row through explicit Jacobians instead of the closed forms. Slow on
purpose; inputs stay tiny. The sampler's two masks, the decode step that
looks its parameters up by name, and the prep path's document-frequency
counter and writer, token parser and seed counter are the versions the
library's own replaced, kept to hold those to the same bits.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

import numpy as np

from condlm import autodiff as ad
from condlm.model import causal_mask, positional_encoding
from condlm.textio import write_atomic
from condlm.tokenizer import _segment


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


# --- Prep path ----------------------------------------------------------------
# The versions the library's own replaced: one dict update per gram, tuples
# sorted before they are formatted, one write part per row, and a token
# parsed through a generator.

def o_build_df(token_docs, max_order):
    """(document count, per-order {gram tuple: documents}), empty orders dropped."""
    df = {n: {} for n in range(1, max_order + 1)}
    count = 0
    for doc in token_docs:
        count += 1
        for n in range(1, max_order + 1):
            for gram in set(grams(doc, n)):
                df[n][gram] = df[n].get(gram, 0) + 1
    return count, {n: d for n, d in df.items() if d}


def o_save_df(doc_count, df, path):
    def lines():
        yield f"#documents\t{doc_count}\n"
        for n in sorted(df):
            for gram, c in sorted(df[n].items()):
                yield f"{' '.join(gram)}\t{c}\n"
    write_atomic(path, lines())


def o_parse_tokens(raw):
    """A record's token list as (surface lowercased, pos, dep, ent) tuples."""
    toks = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 4:
            raise ValueError(f"token entry {item!r} is not a 4-tuple")
        surface, pos, dep, ent = (str(x) for x in item)
        if not surface:
            raise ValueError("empty token surface")
        toks.append((surface.lower(), pos, dep, ent))
    return tuple(toks)


# --- Unigram EM --------------------------------------------------------------

def o_seed_pieces(word_counts, max_len):
    """The seed inventory counted substring by substring into a Counter."""
    sub_counts = Counter()
    for word, freq in word_counts.items():
        n = len(word)
        for i in range(n):
            for j in range(i + 1, min(n, i + max_len) + 1):
                sub_counts[word[i:j]] += freq
    seed = {s: c for s, c in sub_counts.items() if len(s) == 1 or c >= 2}
    total = sum(seed.values())
    return {s: math.log(c / total) for s, c in seed.items()}


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


def o_em_step_numpy(pieces, word_counts, unk_score=-100.0):
    """One EM step as forward-backward over arcs grouped by start, with one
    ``np.logaddexp`` call per arc: the tokenizer's former E-step, kept to
    pin the accumulation order of the scalar one bit for bit."""
    expected = {p: 0.0 for p in pieces}
    loglik = 0.0
    max_len = max(len(p) for p in pieces)
    for word, freq in word_counts.items():
        n = len(word)
        arcs_at = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, min(n, i + max_len) + 1):
                if word[i:j] in pieces:
                    arcs_at[i].append((j, word[i:j], pieces[word[i:j]]))
            if not arcs_at[i]:  # a character no piece covers
                arcs_at[i].append((i + 1, None, unk_score))
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
                if piece is not None:
                    expected[piece] += freq * math.exp(alpha[i] + lp + beta[j] - z)
    total = sum(expected.values())
    return {p: math.log(max(c, 1e-300) / total) for p, c in expected.items()}, loglik


def o_prune(pieces, word_counts, target_pieces, prune_step=0.2):
    """The tokenizer's former prune, on dicts: drop the lowest-contribution
    multi-char pieces, each scored by re-running ``_segment`` on every word
    and on the piece itself without it."""
    prunable = [p for p in pieces if len(p) > 1]
    if len(pieces) <= target_pieces or not prunable:
        return pieces
    expected = Counter()
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
    n_drop = min(max(1, int(len(prunable) * prune_step)), len(pieces) - target_pieces)
    doomed = {p for _, p in scores[:n_drop]}
    return {p: lp for p, lp in pieces.items() if p not in doomed}


def o_fit(seed, word_counts, target_pieces, em_steps=2):
    """The tokenizer fit on dicts: ``o_em_step_numpy`` and ``o_prune`` from
    the ``seed`` inventory, renormalizing the survivors of each prune."""
    pieces = dict(seed)
    while True:
        for _ in range(em_steps):
            pieces, _ = o_em_step_numpy(pieces, word_counts)
        if len(pieces) <= target_pieces:
            break
        pruned = o_prune(pieces, word_counts, target_pieces)
        if len(pruned) == len(pieces):
            break
        m = max(pruned.values())
        total = m + math.log(sum(math.exp(x - m) for x in pruned.values()))
        pieces = {p: lp - total for p, lp in pruned.items()}
    return o_em_step_numpy(pieces, word_counts)[0]


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


def o_cross_entropy(logits, labels, mask, g=None):
    """The masked mean cross-entropy as the chain of nodes it replaced, in
    their order and dtype: per-position -log softmax, then ``* mask``, then
    ``.sum()``, then ``* (1 / total)``; and the logits gradient that chain's
    backward gave for the upstream gradient ``g`` (a 0-d array of the
    logits' dtype, 1 by default), through a one-hot array. Returns
    (value, d_logits)."""
    dtype = logits.dtype
    g = np.ones((), dtype) if g is None else g
    m = np.max(logits, axis=-1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(logits, labels[..., None], axis=-1)
    ce = (lse - picked)[..., 0]
    weight = mask.astype(dtype)
    s = float(1.0 / float(mask.sum()))
    value = np.asarray((ce * weight).sum(), dtype=dtype) * s
    g_sum = np.array(g * s, dtype=dtype)                                # scale
    g_ce = np.array(np.broadcast_to(g_sum, ce.shape), dtype=dtype) * weight  # sum, mul
    onehot = np.zeros_like(logits)
    np.put_along_axis(onehot, labels[..., None], 1.0, axis=-1)
    return value, (np.exp(logits - lse) - onehot) * g_ce[..., None]


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


def o_normalize(x, gain, bias, eps=1e-5):
    """Layer norm through ``ndarray.mean``: (output, normalized x, 1 / std)."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    return gain * xhat + bias, xhat, inv


def o_sample_next(logits, temperature, rng, top_k=None, top_p=None):
    """The sampler with top-k and top-p as two masks over the whole
    vocabulary, intersected, and the draw made by ``rng.choice``. On tied
    probabilities the two masks may keep disjoint sets."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise ValueError("sampling from non-finite logits")
    if temperature == 0.0:
        return int(np.argmax(logits)), 1.0
    z = logits / temperature
    z -= z.max()
    probs = np.exp(z)
    probs /= probs.sum()
    keep = np.ones(len(probs), dtype=bool)
    if top_k is not None and top_k < len(probs):
        mask = np.zeros(len(probs), dtype=bool)
        mask[np.argpartition(probs, -top_k)[-top_k:]] = True
        keep &= mask
    if top_p is not None:
        order = np.argsort(probs)[::-1]
        csum = np.cumsum(probs[order])
        cut = int(np.searchsorted(csum, top_p)) + 1
        mask = np.zeros(len(probs), dtype=bool)
        mask[order[:cut]] = True
        keep &= mask
    if not keep.any():
        raise ValueError("sampling truncation removed every token")
    probs = np.where(keep, probs, 0.0)
    probs /= probs.sum()
    choice = int(rng.choice(len(probs), p=probs))
    return choice, float(probs[choice])


def o_decode_step(cache: dict, params, window, condition_ids):
    """A decode step that looks each parameter up by name and projects q, k
    and v one at a time: the last row's token logits, shape (1, vocab).
    ``cache`` starts empty and holds the encoding of the last condition set,
    each decoder layer's cross keys and values, the self-attention keys and
    values of the last window, and that window."""
    cfg, heads = params.config, params.config.heads
    w = {n: p.data for n, p in params.items()}

    def keys_values(prefix, y):
        return ad.to_heads(y @ w[f"{prefix}.k"], heads), ad.to_heads(y @ w[f"{prefix}.v"], heads)

    def attend(prefix, x, kv, mask=None):
        k, v = kv
        mixed, _ = ad.attend(ad.to_heads(x @ w[f"{prefix}.q"], len(k)), k, v, mask)
        return ad.from_heads(mixed) @ w[f"{prefix}.out"]

    def add_norm(prefix, x, out):
        return o_normalize(out + x, w[f"{prefix}.gain"], w[f"{prefix}.bias"])[0]

    def feed_forward(prefix, x):
        return np.maximum(x @ w[f"{prefix}.w1"], 0) @ w[f"{prefix}.w2"]

    window = np.asarray(window, dtype=np.int64)
    t = len(window)
    if cache.get("params") is not params:
        cache.clear()
        cache.update(params=params, pe=positional_encoding(cfg.max_seq, cfg.d_model, params.dtype),
                     kv=np.empty((cfg.decoder_blocks, 2, heads, cfg.max_seq, cfg.head_dim),
                                 params.dtype))
    conditions = np.sort(np.asarray(condition_ids, dtype=np.int64))
    if not np.array_equal(cache.get("conditions"), conditions):
        enc = w["cond_emb"][np.append(cfg.cond_vocab, conditions)]
        for i in range(cfg.encoder_blocks):
            kv = keys_values(f"enc{i}.self", enc)
            enc = add_norm(f"enc{i}.ln1", enc, attend(f"enc{i}.self", enc, kv))
            enc = add_norm(f"enc{i}.ln2", enc, feed_forward(f"enc{i}.ff", enc))
        cache["cross"] = [keys_values(f"dec{i}.cross", enc) for i in range(cfg.decoder_blocks)]
        cache["conditions"], cache["window"] = conditions, None

    known = cache["window"]
    grows = known is not None and t == len(known) + 1 and np.array_equal(window[:-1], known)
    start = t - 1 if grows else 0
    x = w["tok_emb"][window[start:]] + cache["pe"][start:t]
    mask = None if grows else causal_mask(t, x.dtype)
    for i in range(cfg.decoder_blocks):
        cache["kv"][i, :, :, start:t] = keys_values(f"dec{i}.self", x)
        if i == cfg.decoder_blocks - 1:
            x, mask = x[-1:], None
        kv = cache["kv"][i, :, :, :t]
        x = add_norm(f"dec{i}.ln1", x, attend(f"dec{i}.self", x, kv, mask))
        x = add_norm(f"dec{i}.ln2", x, attend(f"dec{i}.cross", x, cache["cross"][i]))
        x = add_norm(f"dec{i}.ln3", x, feed_forward(f"dec{i}.ff", x))
    cache["window"] = window.copy()
    return x @ w["head.token"]
