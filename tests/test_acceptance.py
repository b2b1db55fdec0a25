"""Acceptance suite: one test per numbered criterion, plus a check that
cached greedy decoding of the memorized model equals full recompute.

Each test prints a single ``[PASS]/[FAIL] criterion NN`` line with the
measured value next to its stated tolerance, asserts the bound, and the
collected lines are written to ``acceptance_report.txt`` at the repository
root when the module finishes (run with ``-s`` to see the lines live). A
wall-time bound is checked and printed live with the measured seconds, but
the file names only the bound, so an unchanged run leaves it unchanged.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from condlm import autodiff as ad
from condlm import generator
from condlm import metrics as mt
from condlm import tokenizer as tk
from condlm import trainer as tr
from condlm.config import ModelConfig, TrainConfig
from condlm.corpus import build_batch, sample_window
from condlm.generator import GenerationRequest, generate
from condlm.model import ModelParameters, forward, init_parameters, loss

from oracles import (o_best_segmentation_score, o_bleu, o_bleu_geometric,
                     o_cider, o_meteor, o_rouge_l)

_LINES: dict[int, str] = {}

HEADS = ("token_logits", "pos_logits", "dep_logits", "ent_logits")


def record(num: int, name: str, ok: bool, detail: str,
           elapsed: float | None = None, bound: float | None = None) -> None:
    """``elapsed`` seconds, if given, must also stay under ``bound``."""
    if bound is not None:
        ok = ok and elapsed < bound
    line = live = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    if bound is not None:
        line += f"; wall time (< {bound:.0f}s)"
        live += f"; {elapsed:.1f}s (< {bound:.0f}s)"
    _LINES[num] = line
    print(live)
    assert ok, live


@pytest.fixture(scope="module", autouse=True)
def acceptance_report():
    yield
    path = Path(__file__).resolve().parents[1] / "acceptance_report.txt"
    path.write_text("".join(_LINES[k] + "\n" for k in sorted(_LINES)))


def toy_batch(records, tok, cvocab, labels, cfg, seed):
    rng = np.random.default_rng(seed)
    windows = [sample_window(r, tok, cvocab, labels, cfg.max_seq, rng)
               for r in records]
    return build_batch(windows, pad_id=0)


def batch_loss(params, batch, mode="eval", rng=None):
    out = forward(params, batch.input_ids, batch.condition_ids, mode=mode,
                  rng=rng, condition_mask=batch.condition_mask)
    return loss(out, batch.target_ids, batch.target_pos, batch.target_dep,
                batch.target_ent, mask=batch.loss_mask)


# --- criterion 1: gradient correctness on the whole toy model ---------------------

def test_criterion_01_gradient_correctness(toy_records, toy_tok, toy_cvocab,
                                           toy_labels, toy_model_cfg):
    t0 = time.perf_counter()
    params = init_parameters(toy_model_cfg, np.random.default_rng(3))  # wide
    batch = toy_batch(toy_records[:4], toy_tok, toy_cvocab, toy_labels,
                      toy_model_cfg, seed=5)

    def f():
        return batch_loss(params, batch).total

    res = ad.finite_diff_check(f, dict(params.items()), max_coords=250,
                               rng=np.random.default_rng(11))
    elapsed = time.perf_counter() - t0
    ok = res.max_rel_error < 1e-4 and res.coords_checked >= 200
    record(1, "gradient correctness", ok,
           f"max rel err {res.max_rel_error:.3e} (< 1e-4) over "
           f"{res.coords_checked} coordinates (>= 200), worst at "
           f"{res.worst_param}[{res.worst_index}]", elapsed, 300.0)


# --- criterion 2: causality -------------------------------------------------------

def test_criterion_02_causality(toy_model_cfg):
    params = init_parameters(toy_model_cfg, np.random.default_rng(21))
    rng = np.random.default_rng(22)
    vocab = toy_model_cfg.token_vocab
    violations = 0
    for _ in range(100):
        length = int(rng.integers(4, toy_model_cfg.max_seq + 1))
        ids = rng.integers(0, vocab, size=length)
        conds = rng.choice(toy_model_cfg.cond_vocab, size=2, replace=False)
        j = int(rng.integers(1, length))
        mutated = ids.copy()
        mutated[j:] = rng.integers(0, vocab, size=length - j)
        mutated[j] = (ids[j] + 1) % vocab  # guarantee a real change at j
        base = forward(params, ids, conds)
        other = forward(params, mutated, conds)
        for head in HEADS:
            if not np.array_equal(getattr(base, head).data[:j],
                                  getattr(other, head).data[:j]):
                violations += 1
    record(2, "causality", violations == 0,
           f"{violations} violations (require 0) over 100 random inputs, "
           f"all four heads, exact equality in eval mode")


# --- criterion 3: condition-order invariance --------------------------------------

def test_criterion_03_condition_order_invariance(toy_model_cfg):
    params = init_parameters(toy_model_cfg, np.random.default_rng(31),
                             dtype=ad.NARROW)
    rng = np.random.default_rng(32)
    max_diff, n_perms = 0.0, 0
    for _ in range(100):
        size = int(rng.integers(1, 5))
        conds = rng.choice(toy_model_cfg.cond_vocab, size=size, replace=False)
        ids = rng.integers(0, toy_model_cfg.token_vocab,
                           size=int(rng.integers(4, 17)))
        ref = None
        for perm in itertools.permutations(conds.tolist()):
            out = forward(params, ids, np.array(perm, dtype=np.int64))
            flat = np.concatenate([getattr(out, h).data.ravel() for h in HEADS])
            if ref is None:
                ref = flat
            else:
                max_diff = max(max_diff, float(np.max(np.abs(flat - ref))))
            n_perms += 1
    record(3, "condition-order invariance", max_diff <= 1e-6,
           f"max |logit delta| {max_diff:.3e} (<= 1e-6, narrow precision) over "
           f"100 condition sets, {n_perms} permutations total")


# --- criterion 4 fixture: the memorized toy model ----------------------------------

@pytest.fixture(scope="module")
def memorized(toy_records, toy_tok, toy_cvocab, toy_labels, toy_model_cfg):
    params = init_parameters(toy_model_cfg, np.random.default_rng(0),
                             dtype=ad.NARROW)
    cfg = TrainConfig(batch_size=8, steps=2000, peak_lr=1e-3, warmup_steps=50,
                      precision="narrow", log_every=0)
    t0 = time.perf_counter()
    history = tr.train(params, toy_records, toy_tok, toy_cvocab, toy_labels, cfg)
    return params, history, time.perf_counter() - t0


def test_criterion_04_memorization(memorized, toy_records, toy_tok, toy_cvocab):
    params, history, elapsed = memorized
    token_loss = float(np.mean([h.token for h in history[-50:]]))
    verbatim = 0
    for r in toy_records:
        req = GenerationRequest(title=r.title_text(), year=r.year,
                                keywords=tuple(r.keywords), max_tokens=48,
                                temperature=0.0, seed=0)
        out = generate(params, toy_tok, toy_cvocab, req)
        if out.text == " ".join(r.sentence_texts()):
            verbatim += 1
    ok = token_loss < 0.2 and verbatim >= 1
    record(4, "memorization", ok,
           f"token loss {token_loss:.4f} (< 0.2) after {len(history)} LAMB steps "
           f"(<= 2000); greedy decode reproduces {verbatim}/8 abstracts verbatim "
           f"(>= 1)", elapsed, 900.0)


def test_memorized_greedy_decode_matches_full_recompute(memorized, toy_records, toy_tok,
                                                       toy_cvocab, monkeypatch):
    # cached decoding against a forward pass over the whole window at every
    # step; 48 tokens run past the 32-token window, so the slide is covered
    params, _, _ = memorized
    reqs = [GenerationRequest(title=r.title_text(), year=r.year, keywords=tuple(r.keywords),
                              max_tokens=48, temperature=0.0, seed=0) for r in toy_records]
    cached = [generate(params, toy_tok, toy_cvocab, req).token_ids for req in reqs]
    calls = []

    def uncached_forward(*args, cache=None, **kwargs):
        calls.append(cache)
        return forward(*args, **kwargs).token_logits.data[-1]

    monkeypatch.setattr(generator, "forward", uncached_forward)
    full = [generate(params, toy_tok, toy_cvocab, req) for req in reqs]
    # one patched call per generated token: no token came from the cache
    assert len(calls) == sum(len(out.token_ids) - out.prompt_len for out in full)
    assert cached == [out.token_ids for out in full]


# --- criterion 5: initial-loss sanity ----------------------------------------------

def test_criterion_05_initial_loss(toy_records, toy_tok, toy_cvocab, toy_labels,
                                   toy_model_cfg):
    c = toy_model_cfg
    expected = sum(math.log(v) for v in
                   (c.token_vocab, c.pos_vocab, c.dep_vocab, c.ent_vocab))
    batch = toy_batch(toy_records, toy_tok, toy_cvocab, toy_labels, c, seed=50)
    worst = 0.0
    for seed in (0, 1, 2):
        params = init_parameters(c, np.random.default_rng(seed))
        total = float(batch_loss(params, batch).total.data)
        worst = max(worst, abs(total - expected) / expected)
    record(5, "initial-loss sanity", worst < 0.05,
           f"max relative deviation {worst:.4f} (< 0.05) from sum of log vocab "
           f"sizes {expected:.4f}, over 3 init seeds")


# --- criterion 6: tokenizer --------------------------------------------------------

def test_criterion_06_tokenizer(toy_records, toy_tok):
    rng = np.random.default_rng(60)

    # (a) round-trip identity on 1,000 random alphabet strings
    alphabet = sorted({ch for r in toy_records for t in r.all_tokens()
                       for ch in t.surface})
    mismatches = 0
    for _ in range(1000):
        words = ["".join(rng.choice(alphabet, size=rng.integers(1, 7)))
                 for _ in range(rng.integers(1, 9))]
        text = " ".join(words)
        if tk.decode(toy_tok, tk.encode_viterbi(toy_tok, text)) != text:
            mismatches += 1

    # (b) Viterbi equals the exhaustive-enumeration optimum, strings <= 8 chars
    hand = {"▁": 0.0, "a": -1.0, "b": -1.0, "ab": -1.5}
    vocabs = [hand]
    pool = ["ab", "ba", "aa", "bb", "aba", "bab", "▁a", "▁b", "abab"]
    for seed in (61, 62):
        r = np.random.default_rng(seed)
        pieces = {"▁": 0.0, "a": float(-r.uniform(0.5, 3)),
                  "b": float(-r.uniform(0.5, 3))}
        for p in r.choice(pool, size=5, replace=False):
            pieces[str(p)] = float(-r.uniform(0.5, 3))
        vocabs.append(pieces)
    vit_errors, compared = 0, 0
    for pieces in vocabs:
        for n in range(1, 9):
            for chars in itertools.product("ab", repeat=n):
                word = tk.MARKER + "".join(chars)
                _, score = tk._segment(word, pieces)
                if not math.isclose(score, o_best_segmentation_score(word, pieces),
                                    rel_tol=0, abs_tol=1e-9):
                    vit_errors += 1
                compared += 1

    # (c) sampled-segmentation frequencies vs exact lattice probabilities
    model = tk.TokenizerModel(hand)
    best = tk.encode_viterbi(model, "ab")  # the [marker, ab] segmentation
    p_best = math.exp(-1.5) / (math.exp(-1.5) + math.exp(-2.0))
    draws, hits = 10_000, 0
    srng = np.random.default_rng(63)
    for _ in range(draws):
        if tk.encode_sampled(model, "ab", 1.0, srng) == best:
            hits += 1
    sigma = math.sqrt(p_best * (1 - p_best) / draws)
    dev = abs(hits / draws - p_best)

    ok = mismatches == 0 and vit_errors == 0 and dev < 3 * sigma
    record(6, "tokenizer", ok,
           f"round-trip mismatches {mismatches}/1000 (require 0); Viterbi vs "
           f"enumeration errors {vit_errors}/{compared} (require 0); sampled "
           f"frequency off by {dev:.4f} (< 3 sigma = {3 * sigma:.4f}) over "
           f"{draws} draws")


# --- criterion 7: metric oracles ----------------------------------------------------

def test_criterion_07_metric_oracles():
    T = str.split
    df = mt.build_df([T("a b a c d"), T("b c d e"), T("x y z w v"),
                      T("a x c y"), T("d b c a a")])
    lookup = {g: n for per in df.df.values() for g, n in per.items()}

    candidates = [list(c) for n in (1, 2, 3)
                  for c in itertools.product("abc", repeat=n)]
    candidates += [list(c) for n in (4, 5, 6)
                   for c in itertools.product("ab", repeat=n)]
    pool = [T("a b c"), T("b c a d"), T("a a b"), T("c c"),
            T("b a b a"), T("d c b a e")]
    ref_sets = [[pool[i] for i in idx] for idx in
                [(0,), (1,), (2,), (3,), (0, 1), (2, 3), (4, 5), (1, 4), (0, 5),
                 (0, 1, 2), (3, 4, 5), (0, 2, 4), (1, 3, 5)]]
    titles = [T("a b"), T("c")]

    max_dev, combos = 0.0, 0
    for cand in candidates:
        for refs in ref_sets:
            devs = [
                abs(mt.bleu(cand, refs) - o_bleu(cand, refs, 4)),
                abs(mt.bleu(cand, refs, 1) - o_bleu(cand, refs, 1)),
                abs(mt.bleu_geometric(cand, refs) - o_bleu_geometric(cand, refs, 4)),
                abs(mt.rouge_l(cand, refs) - o_rouge_l(cand, refs)),
                abs(mt.meteor(cand, refs) - o_meteor(cand, refs)),
                abs(mt.cider(cand, refs, df)
                    - o_cider(cand, refs, lookup, df.doc_count)),
            ]
            devs += [abs(mt.cider_title(cand, refs, df, title)
                         - o_cider(cand, refs, lookup, df.doc_count, title=title))
                     for title in titles]
            max_dev = max(max_dev, max(devs))
            combos += 1

    ident = T("a b c d a b c d a b")
    idf = [mt.bleu(ident, [ident], 1), mt.rouge_l(ident, [ident]),
           mt.meteor(ident, [ident]), mt.cider(ident, [ident], df),
           mt.cider_title(ident, [ident], df, [])]
    identity_ok = (abs(idf[0] - 1) < 1e-12 and abs(idf[1] - 1) < 1e-12
                   and abs(idf[2] - (1 - 0.5 * 0.1 ** 3)) < 1e-12
                   and abs(idf[3] - 10) < 1e-9 and idf[4] <= 10 + 1e-9)
    all_title = mt.cider_title(T("a b a"), [T("a b a")], df, T("a b a"))

    ok = max_dev <= 1e-9 and identity_ok and all_title == 0.0
    record(7, "metric oracles", ok,
           f"max |metric - oracle| {max_dev:.2e} (<= 1e-9) over {combos} "
           f"candidate x reference-set combos; identity scores "
           f"({idf[0]:.3f}, {idf[1]:.3f}, {idf[2]:.4f}, {idf[3]:.3f}, "
           f"{idf[4]:.3f}) vs (1, 1, ~1, 10, <= 10); all-title CIDEr-Title "
           f"{all_title} (= 0)")


# --- criterion 8: LAMB --------------------------------------------------------------

def test_criterion_08_lamb():
    mcfg = ModelConfig(d_model=16, heads=2, encoder_blocks=1, decoder_blocks=1,
                       ff_size=32, dropout=0.0, max_seq=32, token_vocab=160,
                       pos_vocab=5, dep_vocab=4, ent_vocab=3, cond_vocab=9)

    # (a) one scalar step against the formula evaluated with plain floats
    cfg = TrainConfig(peak_lr=1e-2, warmup_steps=2, weight_decay=0.01)
    w, g = 0.5, 0.3
    params = ModelParameters(mcfg, np.array([w]), {"w": (1,)})
    t = params["w"]
    t.grad = np.array([g])
    tr.lamb_step(params, tr.OptimizerState(), cfg)
    lr = cfg.peak_lr * 1 / cfg.warmup_steps
    m_hat = (1 - cfg.beta1) * g / (1 - cfg.beta1)
    v_hat = (1 - cfg.beta2) * g * g / (1 - cfg.beta2)
    update = m_hat / (math.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * w
    expected = w - lr * (abs(w) / abs(update)) * update
    scalar_dev = abs(float(t.data[0]) - expected)

    # (b) trust-ratio direction invariance under 10x block scaling
    inv_cfg = TrainConfig(peak_lr=1e-3, warmup_steps=0, weight_decay=0.0, eps=0.0)
    rng = np.random.default_rng(80)
    w0 = rng.normal(size=(4, 3))
    g0 = rng.normal(size=(4, 3))
    deltas = []
    for c in (1.0, 10.0):
        params = ModelParameters(mcfg, (c * w0).ravel(), {"w": w0.shape})
        params["w"].grad = c * g0.copy()
        tr.lamb_step(params, tr.OptimizerState(), inv_cfg)
        deltas.append((params["w"].data - c * w0) / c)
    scale_dev = float(np.max(np.abs(deltas[0] - deltas[1])))

    ok = scalar_dev < 1e-12 and scale_dev < 1e-9
    record(8, "LAMB optimizer", ok,
           f"scalar single-step deviation {scalar_dev:.2e} (< 1e-12); relative "
           f"update change under 10x scaling {scale_dev:.2e} (< 1e-9)")


# --- criterion 9: condition sensitivity --------------------------------------------

def test_criterion_09_condition_sensitivity(memorized, toy_tok, toy_cvocab):
    params, _, _ = memorized
    outs = {}
    for kw in ("mesh-gold", "mesh-blue"):
        req = GenerationRequest(title="the cold probe assay .", year=1996,
                                keywords=(kw,), max_tokens=48,
                                temperature=0.0, seed=0)
        outs[kw] = generate(params, toy_tok, toy_cvocab, req)
    a, b = outs["mesh-gold"], outs["mesh-blue"]
    split = next((i for i, (x, y) in enumerate(zip(a.token_ids, b.token_ids))
                  if x != y), None)
    ok = a.text != b.text and split is not None
    record(9, "condition sensitivity", ok,
           f"identical prompt, keyword condition swapped: greedy argmaxes "
           f"diverge at position {split} "
           f"({a.generated_text.split()[:3]} vs {b.generated_text.split()[:3]})")


# --- criterion 10: checkpoint fidelity ----------------------------------------------

def test_criterion_10_checkpoint_fidelity(tmp_path, toy_records, toy_tok,
                                          toy_cvocab, toy_labels, toy_model_cfg):
    def fresh(steps, seed=7):
        cfg = TrainConfig(batch_size=8, steps=steps, peak_lr=1e-3,
                          warmup_steps=10, precision="narrow", log_every=0,
                          seed=seed)
        params = init_parameters(toy_model_cfg, np.random.default_rng(seed),
                                 dtype=ad.NARROW)
        return params, cfg

    # byte-identical save -> load -> save round trip
    params_a, cfg_a = fresh(100)
    opt_a = tr.OptimizerState()
    rng_a = np.random.default_rng(cfg_a.seed)
    hist_a = tr.train(params_a, toy_records, toy_tok, toy_cvocab, toy_labels,
                      cfg_a, opt=opt_a, rng=rng_a)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    tr.save_checkpoint(p1, params_a, opt_a, rng_a, cfg_a)
    ck = tr.load_checkpoint(p1)
    tr.save_checkpoint(p2, ck.params, ck.opt, ck.rng, ck.train_config)
    identical = p1.read_bytes() == p2.read_bytes()

    # resumed run equals the uninterrupted 100-step twin, step for step
    params_b, cfg_b = fresh(50)
    opt_b = tr.OptimizerState()
    rng_b = np.random.default_rng(cfg_b.seed)
    hist_b = tr.train(params_b, toy_records, toy_tok, toy_cvocab, toy_labels,
                      cfg_b, opt=opt_b, rng=rng_b)
    mid = tmp_path / "mid.bin"
    tr.save_checkpoint(mid, params_b, opt_b, rng_b, cfg_b)
    ck2 = tr.load_checkpoint(mid)
    ck2.train_config.steps = 100
    hist_b += tr.train(ck2.params, toy_records, toy_tok, toy_cvocab, toy_labels,
                       ck2.train_config, opt=ck2.opt, rng=ck2.rng)
    loss_equal = (len(hist_a) == len(hist_b) == 100 and
                  all(x.loss == y.loss for x, y in zip(hist_a, hist_b)))
    params_equal = all(np.array_equal(params_a[n].data, ck2.params[n].data)
                       for n, _ in params_a.items())

    ok = identical and loss_equal and params_equal
    record(10, "checkpoint fidelity", ok,
           f"round trip byte-identical: {identical} ({p1.stat().st_size} bytes); "
           f"100-step resumed twin losses bitwise equal: {loss_equal}; final "
           f"parameters identical: {params_equal}")
