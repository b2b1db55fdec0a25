import dataclasses
import itertools
import math

import numpy as np
import pytest

from condlm import autodiff as ad
from condlm import config
from condlm import model as md
from condlm.config import ModelConfig
from condlm.errors import ConfigError
from condlm.model import (causal_mask, encoder_block, forward, init_parameters,
                          loss, multi_head, positional_encoding)
from oracles import o_decode_step


def make_params(cfg, seed=0, dtype=ad.WIDE):
    return init_parameters(cfg, np.random.default_rng(seed), dtype=dtype)


# --- configuration --------------------------------------------------------------

def test_config_validation_names_fields(tiny_cfg):
    tiny_cfg.validate()
    bad = ModelConfig(d_model=10, heads=4, token_vocab=5, pos_vocab=2,
                      dep_vocab=2, ent_vocab=2, cond_vocab=2)
    with pytest.raises(ConfigError, match="d_model"):
        bad.validate()
    bad = ModelConfig(d_model=7, heads=7, token_vocab=5, pos_vocab=2,
                      dep_vocab=2, ent_vocab=2, cond_vocab=2)
    with pytest.raises(ConfigError, match="even"):
        bad.validate()
    bad = ModelConfig(dropout=1.0, token_vocab=5, pos_vocab=2, dep_vocab=2,
                      ent_vocab=2, cond_vocab=2)
    with pytest.raises(ConfigError, match="dropout"):
        bad.validate()
    bad = ModelConfig(token_vocab=0, pos_vocab=2, dep_vocab=2, ent_vocab=2,
                      cond_vocab=2)
    with pytest.raises(ConfigError, match="token_vocab"):
        bad.validate()
    bad = ModelConfig(token_vocab=5.0, pos_vocab=2, dep_vocab=2, ent_vocab=2,
                      cond_vocab=2)
    with pytest.raises(ConfigError, match="token_vocab: 5.0 must be a positive integer"):
        bad.validate()


# --- positional encoding ---------------------------------------------------------

def test_positional_encoding_values():
    pe = positional_encoding(5, 8)
    np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-12)  # sin(0)
    np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-12)  # cos(0)
    np.testing.assert_allclose(pe[3, 0], math.sin(3.0), atol=1e-12)
    np.testing.assert_allclose(pe[3, 1], math.cos(3.0), atol=1e-12)
    # channel pair k shares the rate 10000^(2k/d)
    np.testing.assert_allclose(pe[2, 2], math.sin(2.0 / 10000 ** (2 / 8)), atol=1e-12)
    assert positional_encoding(4, 6, dtype=np.float32).dtype == np.float32
    # decoding slices rows from one max_seq table
    np.testing.assert_array_equal(positional_encoding(9, 8)[:6], positional_encoding(6, 8))


def test_positional_encoding_rows_distinct():
    pe = positional_encoding(32, 16)
    assert len({tuple(np.round(r, 9)) for r in pe}) == 32


# --- attention -------------------------------------------------------------------

def test_attention_known_weights():
    # d_k = 1 kills the scale factor; scores [ln 3, 0] -> weights [3/4, 1/4]
    q = ad.constant(np.array([[[math.log(3.0)]]]))
    k = ad.constant(np.array([[[1.0], [0.0]]]))
    v = ad.constant(np.array([[[10.0, 0.0], [0.0, 10.0]]]))
    out = ad.attention(q, k, v, 1).data
    np.testing.assert_allclose(out, [[[7.5, 2.5]]], atol=1e-10)


def test_attention_single_key_returns_value():
    rng = np.random.default_rng(0)
    q = ad.constant(rng.normal(size=(2, 3, 4)))
    k = ad.constant(rng.normal(size=(2, 1, 4)))
    v = ad.constant(rng.normal(size=(2, 1, 4)))
    np.testing.assert_allclose(ad.attention(q, k, v, 2).data,
                               np.broadcast_to(v.data, (2, 3, 4)), atol=1e-12)


def test_attention_additive_mask_blocks_keys():
    rng = np.random.default_rng(1)
    q = ad.constant(rng.normal(size=(1, 2, 4)))
    k = ad.constant(rng.normal(size=(1, 3, 4)))
    v = ad.constant(rng.normal(size=(1, 3, 4)))
    mask = np.array([[[0.0, md.NEG_INF, md.NEG_INF],
                      [0.0, md.NEG_INF, md.NEG_INF]]])
    out = ad.attention(q, k, v, 2, mask).data
    np.testing.assert_allclose(out, np.broadcast_to(v.data[:, :1], (1, 2, 4)), atol=1e-12)


def test_causal_mask_pattern():
    m = causal_mask(4)
    assert m.dtype == np.float64 and causal_mask(3, np.float32).dtype == np.float32
    np.testing.assert_array_equal(np.isneginf(m), np.triu(np.ones((4, 4), dtype=bool), 1))
    assert m[0, 0] == 0 and m[1, 0] == 0
    assert np.isneginf(m[0, 1]) and np.isneginf(m[2, 3])
    assert not np.isneginf(m[3, 0])


def test_multi_head_shapes_and_zero_projection(tiny_cfg, tiny_params):
    cfg, params = tiny_cfg, tiny_params
    x = ad.constant(np.random.default_rng(2).normal(size=(2, 5, cfg.d_model)))
    out = multi_head(params, "dec0.self", x, x, causal_mask(5))
    assert out.data.shape == (2, 5, cfg.d_model)
    zeroed = md.ModelParameters(cfg, params.data.copy())
    zeroed["dec0.self.out"].data[...] = 0
    np.testing.assert_array_equal(multi_head(zeroed, "dec0.self", x, x).data, 0.0)


def test_encoder_block_is_permutation_equivariant(tiny_cfg, tiny_params):
    # No positional signal inside a block: permuting the rows permutes the output.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 4, tiny_cfg.d_model))
    perm = np.array([2, 0, 3, 1])
    out = encoder_block(tiny_params, 0, ad.constant(x), None).data
    out_p = encoder_block(tiny_params, 0, ad.constant(x[:, perm]), None).data
    # key-axis reductions run in permuted order, so equality is up to
    # float reassociation only
    np.testing.assert_allclose(out[:, perm], out_p, rtol=0, atol=1e-12)


# --- parameter inventory ----------------------------------------------------------

def test_parameter_shapes(tiny_cfg, tiny_params):
    cfg, params = tiny_cfg, tiny_params
    t = dict(params.items())
    assert t["tok_emb"].data.shape == (cfg.token_vocab, cfg.d_model)
    # the +1 row is the learned null condition
    assert t["cond_emb"].data.shape == (cfg.cond_vocab + 1, cfg.d_model)
    assert t["enc0.self.q"].data.shape == (cfg.d_model, cfg.d_model)
    assert t["enc0.self.out"].data.shape == (cfg.d_model, cfg.d_model)
    assert t["dec0.cross.k"].data.shape == (cfg.d_model, cfg.d_model)
    assert t["dec0.ff.w1"].data.shape == (cfg.d_model, cfg.ff_size)
    assert t["head.token"].data.shape == (cfg.d_model, cfg.token_vocab)
    assert t["head.ent"].data.shape == (cfg.d_model, cfg.ent_vocab)
    np.testing.assert_array_equal(t["dec0.ln3.gain"].data, np.ones(cfg.d_model))
    np.testing.assert_array_equal(t["enc0.ln1.bias"].data, np.zeros(cfg.d_model))
    # no bias tensors exist for projections
    assert not any(name.endswith(".b") for name, _ in params.items())


def test_block_count_scales_inventory():
    small = ModelConfig(d_model=8, heads=2, encoder_blocks=1, decoder_blocks=1,
                        ff_size=16, token_vocab=5, pos_vocab=2, dep_vocab=2,
                        ent_vocab=2, cond_vocab=2)
    big = ModelConfig(d_model=8, heads=2, encoder_blocks=2, decoder_blocks=3,
                      ff_size=16, token_vocab=5, pos_vocab=2, dep_vocab=2,
                      ent_vocab=2, cond_vocab=2)
    n_small = len(dict(make_params(small).items()))
    n_big = len(dict(make_params(big).items()))
    # encoder block: 4 attn + 2x2 ln + 2 ff = 10 tensors; decoder block: 16
    assert n_big == n_small + 10 + 2 * 16


def test_init_is_seeded(tiny_cfg):
    a, b = make_params(tiny_cfg, seed=4), make_params(tiny_cfg, seed=4)
    c = make_params(tiny_cfg, seed=5)
    for (name, ta), (_, tb) in zip(sorted(a.items()), sorted(b.items())):
        np.testing.assert_array_equal(ta.data, tb.data)
    assert any(not np.array_equal(ta.data, dict(c.items())[name].data)
               for name, ta in a.items())


def per_head_init(cfg, rng, dtype=ad.WIDE):
    """The per-head draw: q, k and v of head 0, then of head 1, ..., then
    ``out``, for each attention block in inventory order."""
    d, hd = cfg.d_model, cfg.head_dim
    drawn = {}
    for name, shape in md.parameter_shapes(cfg).items():
        prefix, _, part = name.rpartition(".")
        if part == "q":
            for h in range(cfg.heads):
                for p in "qkv":
                    drawn[f"{prefix}.{p}{h}"] = rng.normal(0.0, md.INIT_STD, (d, hd)).astype(dtype)
        elif part not in ("k", "v", "gain", "bias"):
            drawn[name] = rng.normal(0.0, md.INIT_STD, shape).astype(dtype)
    return drawn


@pytest.mark.parametrize("heads,dtype", [(2, ad.WIDE), (4, ad.NARROW)])
def test_fused_init_is_the_per_head_draw(heads, dtype):
    cfg = ModelConfig(d_model=16, heads=heads, encoder_blocks=2, decoder_blocks=2,
                      ff_size=32, token_vocab=7, pos_vocab=3, dep_vocab=4,
                      ent_vocab=5, cond_vocab=6)
    fused = make_params(cfg, seed=9, dtype=dtype)
    drawn = per_head_init(cfg, np.random.default_rng(9), dtype)
    assert [n for n, _ in fused.items()] == list(md.parameter_shapes(cfg))
    for name, tensor in fused.items():
        prefix, _, part = name.rpartition(".")
        if part in ("q", "k", "v"):
            want = np.concatenate([drawn[f"{prefix}.{part}{h}"] for h in range(heads)], axis=1)
        elif part in ("gain", "bias"):
            want = np.full(cfg.d_model, 1.0 if part == "gain" else 0.0, dtype=dtype)
        else:
            want = drawn[name]
        assert tensor.data.dtype == want.dtype
        assert tensor.data.tobytes() == want.tobytes(), name


# --- forward ----------------------------------------------------------------------

def test_forward_shapes_single_and_batched(tiny_cfg, tiny_params):
    cfg = tiny_cfg
    out = forward(tiny_params, np.array([2, 5, 6, 7]), np.array([0, 3]))
    assert out.token_logits.data.shape == (4, cfg.token_vocab)
    assert out.pos_logits.data.shape == (4, cfg.pos_vocab)
    batched = forward(tiny_params, np.array([[2, 5, 6, 7], [2, 5, 6, 7]]),
                      np.array([[0, 3], [0, 3]]))
    assert batched.dep_logits.data.shape == (2, 4, cfg.dep_vocab)
    np.testing.assert_array_equal(batched.token_logits.data[0],
                                  out.token_logits.data)


def test_forward_is_deterministic_in_eval(tiny_params):
    ids, conds = np.array([2, 5, 6]), np.array([1])
    a = forward(tiny_params, ids, conds).token_logits.data
    b = forward(tiny_params, ids, conds).token_logits.data
    np.testing.assert_array_equal(a, b)


def test_forward_validates_inputs(tiny_cfg, tiny_params):
    with pytest.raises(ValueError, match="max_seq"):
        forward(tiny_params, np.arange(tiny_cfg.max_seq + 1), np.array([0]))
    with pytest.raises(ValueError, match="mode"):
        forward(tiny_params, np.array([1]), np.array([0]), mode="test")
    with pytest.raises(ValueError, match="out of range"):
        forward(tiny_params, np.array([tiny_cfg.token_vocab]), np.array([0]))
    with pytest.raises(ValueError, match="out of range"):
        # the null row is reserved; raw ids must stay below cond_vocab
        forward(tiny_params, np.array([1]), np.array([tiny_cfg.cond_vocab + 1]))


def test_forward_dropout_needs_rng():
    cfg = ModelConfig(d_model=8, heads=2, encoder_blocks=1, decoder_blocks=1,
                      ff_size=16, dropout=0.5, token_vocab=5, pos_vocab=2,
                      dep_vocab=2, ent_vocab=2, cond_vocab=2)
    params = make_params(cfg)
    with pytest.raises(ValueError, match="rng"):
        forward(params, np.array([1, 2]), np.array([0]), mode="train")
    out = forward(params, np.array([1, 2]), np.array([0]), mode="train",
                  rng=np.random.default_rng(0))
    assert out.token_logits.data.shape == (2, 5)


def test_forward_accepts_empty_condition_set(tiny_params):
    # the learned null entry keeps the encoder non-empty
    out = forward(tiny_params, np.array([1, 2]), np.zeros(0, dtype=np.int64))
    assert np.isfinite(out.token_logits.data).all()


def test_forward_condition_order_invariance_exact(tiny_params):
    ids = np.array([2, 5, 6, 7])
    base = forward(tiny_params, ids, np.array([0, 3, 5])).token_logits.data
    for perm in itertools.permutations([0, 3, 5]):
        got = forward(tiny_params, ids, np.array(perm)).token_logits.data
        np.testing.assert_array_equal(got, base)


def test_forward_condition_padding_matches_unpadded(tiny_params):
    ids = np.array([[2, 5, 6, 7]])
    unpadded = forward(tiny_params, ids, np.array([[3, 5]]),
                       condition_mask=np.array([[1.0, 1.0]]))
    padded = forward(tiny_params, ids, np.array([[3, 5, 0, 0]]),
                     condition_mask=np.array([[1.0, 1.0, 0.0, 0.0]]))
    np.testing.assert_array_equal(unpadded.token_logits.data,
                                  padded.token_logits.data)


def test_forward_conditions_change_logits(tiny_params):
    ids = np.array([2, 5, 6])
    a = forward(tiny_params, ids, np.array([0])).token_logits.data
    b = forward(tiny_params, ids, np.array([1])).token_logits.data
    assert np.abs(a - b).max() > 0


def test_forward_causality_spot_check(tiny_params):
    rng = np.random.default_rng(7)
    ids = rng.integers(0, 23, size=10)
    base = forward(tiny_params, ids, np.array([2]))
    for j in [3, 7, 9]:
        changed = ids.copy()
        changed[j] = (changed[j] + 1) % 23
        out = forward(tiny_params, changed, np.array([2]))
        for head in ("token_logits", "pos_logits", "dep_logits", "ent_logits"):
            np.testing.assert_array_equal(getattr(out, head).data[:j],
                                          getattr(base, head).data[:j])
        assert np.abs(out.token_logits.data[j:] - base.token_logits.data[j:]).max() > 0


# --- loss -------------------------------------------------------------------------

def test_initial_loss_near_uniform(tiny_cfg, tiny_params):
    cfg = tiny_cfg
    rng = np.random.default_rng(8)
    ids = rng.integers(0, cfg.token_vocab, size=(4, 12))
    out = forward(tiny_params, ids, np.zeros((4, 1), dtype=np.int64))
    res = loss(out, rng.integers(0, cfg.token_vocab, size=(4, 12)),
               rng.integers(0, cfg.pos_vocab, size=(4, 12)),
               rng.integers(0, cfg.dep_vocab, size=(4, 12)),
               rng.integers(0, cfg.ent_vocab, size=(4, 12)))
    expected = sum(math.log(v) for v in
                   (cfg.token_vocab, cfg.pos_vocab, cfg.dep_vocab, cfg.ent_vocab))
    assert abs(float(res.total.data) - expected) / expected < 0.05


def test_loss_total_is_sum_of_components(tiny_cfg, tiny_params):
    rng = np.random.default_rng(9)
    ids = rng.integers(0, tiny_cfg.token_vocab, size=(2, 6))
    out = forward(tiny_params, ids, np.zeros((2, 1), dtype=np.int64))
    res = loss(out, ids, np.zeros((2, 6), dtype=np.int64),
               np.zeros((2, 6), dtype=np.int64), np.zeros((2, 6), dtype=np.int64))
    assert float(res.total.data) == pytest.approx(
        res.token + res.pos + res.dep + res.ent, abs=1e-9)


def test_loss_mask_excludes_padding(tiny_cfg, tiny_params):
    rng = np.random.default_rng(10)
    ids = rng.integers(0, tiny_cfg.token_vocab, size=(1, 6))
    out = forward(tiny_params, ids, np.zeros((1, 1), dtype=np.int64))
    targets = ids.copy()
    zeros = np.zeros_like(ids)
    full = loss(out, targets, zeros, zeros, zeros)
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]])
    # corrupt the masked-out targets: the loss must not move
    targets2 = targets.copy()
    targets2[0, 3:] = (targets2[0, 3:] + 1) % tiny_cfg.token_vocab
    a = loss(out, targets, zeros, zeros, zeros, mask)
    b = loss(out, targets2, zeros, zeros, zeros, mask)
    assert float(a.total.data) == pytest.approx(float(b.total.data), abs=1e-12)
    assert float(a.total.data) != pytest.approx(float(full.total.data), abs=1e-9)
    with pytest.raises(ValueError, match="padded"):
        loss(out, targets, zeros, zeros, zeros, np.zeros_like(mask))


def test_whole_model_gradient_quick(tiny_cfg, tiny_params):
    rng = np.random.default_rng(11)
    ids = rng.integers(0, tiny_cfg.token_vocab, size=(2, 5))
    tgt = rng.integers(0, tiny_cfg.token_vocab, size=(2, 5))
    conds = np.zeros((2, 1), dtype=np.int64)
    zeros = np.zeros((2, 5), dtype=np.int64)

    def f():
        out = forward(tiny_params, ids, conds)
        return loss(out, tgt, zeros, zeros, zeros).total

    res = ad.finite_diff_check(f, dict(tiny_params.items()), max_coords=60,
                               rng=np.random.default_rng(12))
    assert res.max_rel_error < 1e-4, (res.worst_param, res.worst_index)


# --- cached decoding ----------------------------------------------------------------

def decode_params(seed, blocks):
    cfg = ModelConfig(d_model=16, heads=2, encoder_blocks=blocks, decoder_blocks=blocks,
                      ff_size=32, dropout=0.0, max_seq=6, token_vocab=11, pos_vocab=3,
                      dep_vocab=4, ent_vocab=5, cond_vocab=5)
    return make_params(cfg, seed)


def assert_last_row_matches(cached, full, atol):
    """The step's 1-d token logits against the uncached forward's last row."""
    want = full.token_logits.data[-1]
    assert type(cached) is np.ndarray and cached.shape == want.shape
    np.testing.assert_allclose(cached, want, rtol=0, atol=atol)


def poison_rows(cache, start):
    """Fill the self-attention key/value rows from ``start`` on with NaN:
    a step that reads such a row without writing it gets NaN logits."""
    if cache.kv is not None:
        cache.kv[..., start:, :] = np.nan


def written_rows(cache):
    """Per layer, how many key/value rows hold numbers."""
    return np.isfinite(cache.kv).all(axis=(1, 2, 4)).sum(axis=1).tolist()


@pytest.mark.parametrize("seed,blocks", [(0, 1), (1, 2), (2, 1), (3, 2), (4, 3)])
def test_cached_forward_matches_full_every_step(seed, blocks):
    params = decode_params(seed, blocks)
    n = params.config.max_seq
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, params.config.token_vocab, size=3 * n)
    conds = rng.integers(0, params.config.cond_vocab, size=2)
    cache = md.DecodeCache()
    for end in range(1, len(ids) + 1):
        window = ids[:end] if end < n else ids[end - (n - 1):end]
        t = len(window)
        grows = 1 < end < n
        if grows:  # on a marked copy: a growing step rewrites no earlier row
            marked = dataclasses.replace(cache, kv=cache.kv + 1.0)
            forward(params, window, conds, cache=marked)
            np.testing.assert_array_equal(marked.kv[..., :t - 1, :], cache.kv[..., :t - 1, :] + 1.0)
        poison_rows(cache, t - 1 if grows else 0)
        cross = cache.cross
        cached = forward(params, window, conds, cache=cache)
        assert_last_row_matches(cached, forward(params, window, conds), atol=1e-12)
        # a growing window writes one new key/value row per layer, and every
        # slid window prefills (the first step fills fresh, unpoisoned buffers)
        assert end == 1 or written_rows(cache) == [t] * blocks
        # the encoder ran on the first step only
        assert end == 1 or cache.cross is cross


def test_cached_forward_builds_no_graph(monkeypatch):
    params = decode_params(6, 2)
    nodes = []
    node = ad._node

    def counting_node(data, parents, backward_fn):
        nodes.append(any(p.requires_grad for p in parents))
        return node(data, parents, backward_fn)

    monkeypatch.setattr(ad, "_node", counting_node)
    cache = md.DecodeCache()
    for window in ([1], [1, 2], [1, 2, 3], [2, 3, 4, 5, 6], [3, 4, 5, 6, 7]):
        window = np.array(window)
        out = forward(params, window, np.array([1, 3]), cache=cache)
        assert not nodes  # the step makes no autodiff node at all
        assert_last_row_matches(out, forward(params, window, np.array([1, 3])), atol=1e-12)
        nodes.clear()
    assert all(t.grad is None for _, t in params.items())
    # the uncached path still builds the graph that training needs
    forward(params, np.array([1, 2]), np.array([1, 3]))
    assert any(nodes)


def test_cross_attention_keys_values_projected_once_per_encoding():
    params = decode_params(7, 2)
    cache = md.DecodeCache()
    encodings = []

    def run(window, conds, p=params):
        window, conds = np.array(window), np.array(conds)
        out = forward(p, window, conds, cache=cache)
        assert_last_row_matches(out, forward(p, window, conds), atol=1e-12)
        if not encodings or cache.cross is not encodings[-1]:
            encodings.append(cache.cross)

    # growing window, then slid windows recomputed whole: one encoding
    for window in ([1], [1, 2], [1, 2, 3], [1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [3, 4, 5, 6, 7]):
        run(window, [1, 3])
    assert len(encodings) == 1
    # the null condition plus two keywords: three key rows per layer
    assert [k.shape[-2] for k, _ in cache.cross] == [3, 3]
    run([3, 4, 5, 6, 7, 8], [3, 1])  # the same condition set, reordered
    assert len(encodings) == 1
    run([3, 4, 5, 6, 7, 8], [2])
    assert len(encodings) == 2 and [k.shape[-2] for k, _ in cache.cross] == [2, 2]
    # other parameters, even with equal values, encode again
    run([3, 4, 5, 6, 7, 8], [2], p=md.ModelParameters(params.config, params.data.copy()))
    assert len(encodings) == 3


def test_cache_rebuilds_on_new_conditions_or_other_window():
    params = decode_params(5, 2)
    cache = md.DecodeCache()
    forward(params, np.array([1, 2, 3]), np.array([0, 2]), cache=cache)
    steps = [([1, 2, 3, 4], [2, 0]),        # same condition set, reordered
             ([1, 2, 3, 4, 5], [4]),        # window extends, conditions changed
             ([1, 2, 3, 4, 6], [4]),        # same length, other last token
             ([9, 2, 3, 4, 6, 7], [4]),     # one longer, other first token
             ([1, 2], [4]),                 # shorter
             ([1, 2, 3, 4], [4])]           # two longer
    for window, conds in steps:
        window, conds = np.array(window), np.array(conds)
        cached = forward(params, window, conds, cache=cache)
        assert_last_row_matches(cached, forward(params, window, conds), atol=1e-12)
        fresh = forward(params, window, conds, cache=md.DecodeCache())
        np.testing.assert_allclose(cached, fresh, rtol=0, atol=1e-12)


def test_cache_needs_one_sequence_in_eval(tiny_cfg, tiny_params):
    with pytest.raises(ValueError, match="decode cache"):
        forward(tiny_params, np.array([1, 2]), np.array([0]), mode="train",
                rng=np.random.default_rng(0), cache=md.DecodeCache())
    with pytest.raises(ValueError, match="decode cache"):
        forward(tiny_params, np.array([[1, 2], [3, 4]]), np.array([[0], [1]]),
                cache=md.DecodeCache())


@pytest.mark.parametrize("size", [
    config.PRESETS["toy"][0],
    dict(d_model=96, heads=4, encoder_blocks=2, decoder_blocks=3, ff_size=384, max_seq=16)])
def test_step_equals_the_by_name_step_in_float32(size):
    # the same products and kernels in the same order: equal bits at every
    # step of requests that grow, slide, and change their conditions
    cfg = ModelConfig(**{**size, "dropout": 0.0}, token_vocab=97, pos_vocab=3, dep_vocab=4,
                      ent_vocab=5, cond_vocab=9)
    params = make_params(cfg, seed=size["d_model"], dtype=np.float32)
    rng = np.random.default_rng(size["d_model"])
    n = cfg.max_seq
    cache, oracle = md.DecodeCache(), {}
    for conds in (np.array([4, 1, 7]), np.array([2])):
        ids = rng.integers(0, cfg.token_vocab, size=2 * n + 3)
        for end in range(1, len(ids) + 1):
            window = ids[:end] if end < n else ids[end - (n - 1):end]
            got = forward(params, window, conds, cache=cache)
            want = o_decode_step(oracle, params, window, conds)
            assert got.dtype == np.float32 and got.shape == (cfg.token_vocab,)
            assert np.array_equal(got, want[-1]), f"step {end}"


def test_step_refuses_a_rebound_parameter():
    params = decode_params(8, 1)
    params["dec0.self.k"].data = params["dec0.self.k"].data.copy()  # the q/k/v view reads the arena
    with pytest.raises(ValueError, match="parameter dec0.self.k no longer holds its view of the arena"):
        forward(params, np.array([1, 2]), np.array([1]), cache=md.DecodeCache())
