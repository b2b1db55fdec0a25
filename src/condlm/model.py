"""The conditional sequence model.

An encoder-decoder transformer. The encoder reads the condition set (year
and keyword embeddings, no positional encoding, one learned null entry
always prepended) with unmasked self-attention, so it is permutation
invariant by construction: condition ids are sorted canonically before
embedding. The decoder reads subword embeddings plus a sinusoidal
positional encoding, applies causally masked self-attention and
cross-attention over the encoder output, and ends in four linear heads:
next subword, POS tag, dependency label, entity label.

Blocks are post-norm: LayerNorm(sublayer(x) + x), with dropout on each
sublayer output before the residual add and on both embedding streams.
Attention/feed-forward projections carry no biases; LayerNorm provides the
affine parameters.

Decoding one token at a time can pass a ``DecodeCache`` to ``forward``: the
encoder output and each decoder layer's self-attention keys and values are
kept between calls, so a window that grows by one token only runs that
token through the decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig

INIT_STD = 0.02
NEG_INF = float("-inf")


class ModelParameters:
    """Flat name -> Tensor mapping plus the config that shaped it."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def zero_grad(self) -> None:
        ad.zero_grad(self.tensors.values())

    @property
    def dtype(self):
        return self["tok_emb"].data.dtype


def _attn_names(prefix: str, heads: int):
    for h in range(heads):
        yield f"{prefix}.q{h}"
        yield f"{prefix}.k{h}"
        yield f"{prefix}.v{h}"
    yield f"{prefix}.out"


def init_parameters(config: ModelConfig, rng: np.random.Generator,
                    dtype=ad.WIDE) -> ModelParameters:
    """Scaled-normal init (std 0.02) for projections and embeddings;
    LayerNorm gains start at 1 and biases at 0."""
    config.validate()
    d, hd, ff = config.d_model, config.head_dim, config.ff_size

    tensors: dict[str, Tensor] = {}

    def norm(name: str, shape):
        tensors[name] = ad.parameter(rng.normal(0.0, INIT_STD, shape).astype(dtype))

    def ln(prefix: str):
        tensors[f"{prefix}.gain"] = ad.parameter(np.ones(d, dtype=dtype))
        tensors[f"{prefix}.bias"] = ad.parameter(np.zeros(d, dtype=dtype))

    def attn(prefix: str):
        for name in _attn_names(prefix, config.heads):
            norm(name, (d, d) if name.endswith(".out") else (d, hd))

    norm("tok_emb", (config.token_vocab, d))
    # One extra row: the learned null condition, always present.
    norm("cond_emb", (config.cond_vocab + 1, d))
    for i in range(config.encoder_blocks):
        attn(f"enc{i}.self")
        ln(f"enc{i}.ln1")
        norm(f"enc{i}.ff.w1", (d, ff))
        norm(f"enc{i}.ff.w2", (ff, d))
        ln(f"enc{i}.ln2")
    for i in range(config.decoder_blocks):
        attn(f"dec{i}.self")
        ln(f"dec{i}.ln1")
        attn(f"dec{i}.cross")
        ln(f"dec{i}.ln2")
        norm(f"dec{i}.ff.w1", (d, ff))
        norm(f"dec{i}.ff.w2", (ff, d))
        ln(f"dec{i}.ln3")
    norm("head.token", (d, config.token_vocab))
    norm("head.pos", (d, config.pos_vocab))
    norm("head.dep", (d, config.dep_vocab))
    norm("head.ent", (d, config.ent_vocab))
    return ModelParameters(config, tensors)


def positional_encoding(n: int, d_model: int, dtype=ad.WIDE, start: int = 0) -> np.ndarray:
    """Sinusoidal table for positions ``start``..n-1: sin on even channels,
    cos on odd, shared rate."""
    pos = np.arange(start, n, dtype=np.float64)[:, None]
    i = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    pe = np.zeros((n - start, d_model), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe.astype(dtype)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention. ``mask`` is additive (0 keeps, -inf
    drops) and broadcasts against the score shape (..., T_q, T_k)."""
    dk = q.data.shape[-1]
    scores = ad.scale(ad.matmul(q, ad.swap_last2(k)), 1.0 / np.sqrt(dk))
    if mask is not None:
        scores = ad.add(scores, ad.constant(mask.astype(q.data.dtype)))
    return ad.matmul(ad.softmax_lastdim(scores), v)


def multi_head(head_weights: list[tuple[Tensor, Tensor, Tensor]], out_weight: Tensor,
               x: Tensor, y: Tensor, mask: np.ndarray | None = None,
               kv: list[tuple[np.ndarray, np.ndarray]] | None = None) -> Tensor:
    """Concatenated per-head attentions, projected. Queries come from ``x``,
    keys and values from ``y``. ``kv`` holds one (keys, values) pair per
    head from earlier calls: the rows from ``y`` are appended to it, and
    attention reads all of them. It carries no gradient."""
    outs = []
    for h, (wq, wk, wv) in enumerate(head_weights):
        k, v = ad.matmul(y, wk), ad.matmul(y, wv)
        if kv is not None:
            if h < len(kv):
                kv[h] = (np.concatenate([kv[h][0], k.data], axis=-2),
                         np.concatenate([kv[h][1], v.data], axis=-2))
            else:
                kv.append((k.data, v.data))
            k, v = ad.constant(kv[h][0]), ad.constant(kv[h][1])
        outs.append(attention(ad.matmul(x, wq), k, v, mask))
    return ad.matmul(ad.concat_lastdim(outs), out_weight)


def _mh_params(params: ModelParameters, prefix: str):
    cfg = params.config
    heads = [(params[f"{prefix}.q{h}"], params[f"{prefix}.k{h}"], params[f"{prefix}.v{h}"])
             for h in range(cfg.heads)]
    return heads, params[f"{prefix}.out"]


def feed_forward(params: ModelParameters, prefix: str, x: Tensor) -> Tensor:
    return ad.matmul(ad.relu(ad.matmul(x, params[f"{prefix}.w1"])), params[f"{prefix}.w2"])


def _sublayer(params: ModelParameters, ln_prefix: str, residual: Tensor, out: Tensor,
              train: bool, rng) -> Tensor:
    out = ad.dropout(out, params.config.dropout, rng, training=train)
    return ad.layer_norm(ad.add(out, residual),
                         params[f"{ln_prefix}.gain"], params[f"{ln_prefix}.bias"])


def encoder_block(params: ModelParameters, index: int, x: Tensor,
                  key_mask: np.ndarray | None, train: bool = False, rng=None) -> Tensor:
    heads, out_w = _mh_params(params, f"enc{index}.self")
    a = _sublayer(params, f"enc{index}.ln1", x,
                  multi_head(heads, out_w, x, x, key_mask), train, rng)
    return _sublayer(params, f"enc{index}.ln2", a,
                     feed_forward(params, f"enc{index}.ff", a), train, rng)


def decoder_block(params: ModelParameters, index: int, x: Tensor, enc_out: Tensor,
                  causal_mask: np.ndarray, cond_mask: np.ndarray | None,
                  train: bool = False, rng=None, kv: list | None = None) -> Tensor:
    """``kv`` is this layer's self-attention cache (see ``multi_head``);
    ``causal_mask`` then spans the cached positions too."""
    self_heads, self_w = _mh_params(params, f"dec{index}.self")
    b = _sublayer(params, f"dec{index}.ln1", x,
                  multi_head(self_heads, self_w, x, x, causal_mask, kv), train, rng)
    cross_heads, cross_w = _mh_params(params, f"dec{index}.cross")
    a = _sublayer(params, f"dec{index}.ln2", b,
                  multi_head(cross_heads, cross_w, b, enc_out, cond_mask), train, rng)
    return _sublayer(params, f"dec{index}.ln3", a,
                     feed_forward(params, f"dec{index}.ff", a), train, rng)


def causal_mask(t: int, dtype=np.float64) -> np.ndarray:
    mask = np.zeros((t, t), dtype=dtype)
    mask[np.triu_indices(t, k=1)] = NEG_INF
    return mask


@dataclass
class DecodeCache:
    """Per-request decoding state for ``forward``, valid for one parameter
    set: the canonical condition ids and key mask with the encoder output
    they gave, and the token window whose per-layer, per-head
    self-attention keys and values are held in ``kv``."""
    conditions: np.ndarray | None = None
    key_mask: np.ndarray | None = None
    enc_out: Tensor | None = None
    window: np.ndarray | None = None
    kv: list[list[tuple[np.ndarray, np.ndarray]]] = field(default_factory=list)


@dataclass
class ForwardOutput:
    token_logits: Tensor
    pos_logits: Tensor
    dep_logits: Tensor
    ent_logits: Tensor


def forward(params: ModelParameters, input_ids, condition_ids,
            mode: str = "eval", rng: np.random.Generator | None = None,
            condition_mask: np.ndarray | None = None,
            cache: DecodeCache | None = None) -> ForwardOutput:
    """Run the model. 1-d id arrays give 2-d logits (positions, vocab);
    batched 2-d inputs give 3-d logits and need ``condition_mask`` when
    condition rows are padded.

    ``cache`` is for decoding one sequence in eval mode: the encoder runs
    only when the canonical conditions differ from the cached ones, a
    window equal to the cached window plus one token runs only that token
    through the decoder, any other window is recomputed whole and refills
    the cache, and the logits cover the last position only (one row)."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    cfg = params.config
    if train and cfg.dropout > 0 and rng is None:
        raise ValueError("training mode with dropout needs an rng")
    dtype = params.dtype

    input_ids = np.asarray(input_ids, dtype=np.int64)
    condition_ids = np.asarray(condition_ids, dtype=np.int64)
    if cache is not None and (train or input_ids.ndim != 1):
        raise ValueError("a decode cache needs one 1-d sequence in eval mode")
    single = input_ids.ndim == 1
    if single:
        input_ids = input_ids[None, :]
        condition_ids = condition_ids[None, :]
    b, t = input_ids.shape
    if t > cfg.max_seq:
        raise ValueError(f"sequence length {t} exceeds max_seq {cfg.max_seq}")

    if condition_mask is None:
        condition_mask = np.ones(condition_ids.shape, dtype=np.float64)
    # Canonical condition order: padding last, then ascending id. Attention
    # is a weighted sum, so sorting makes permutation invariance exact
    # rather than up-to-float-reassociation.
    order = np.lexsort((condition_ids, 1.0 - condition_mask), axis=-1)
    condition_ids = np.take_along_axis(condition_ids, order, axis=-1)
    condition_mask = np.take_along_axis(condition_mask, order, axis=-1)
    # The learned null condition occupies the last embedding row and is
    # prepended unmasked, so every record conditions on at least one entry.
    null_col = np.full((b, 1), cfg.cond_vocab, dtype=np.int64)
    condition_ids = np.concatenate([null_col, condition_ids], axis=1)
    condition_mask = np.concatenate([np.ones((b, 1)), condition_mask], axis=1)

    key_mask = np.where(condition_mask[:, None, :] > 0, 0.0, NEG_INF)
    if cache is not None and np.array_equal(cache.conditions, condition_ids) \
            and np.array_equal(cache.key_mask, key_mask):
        enc = cache.enc_out
    else:
        # Encoder stream: condition embeddings only, no positional signal.
        enc = ad.dropout(ad.embedding_gather(params["cond_emb"], condition_ids),
                         cfg.dropout, rng, training=train)
        for i in range(cfg.encoder_blocks):
            enc = encoder_block(params, i, enc, key_mask, train, rng)
        if cache is not None:
            enc = ad.constant(enc.data)
            cache.conditions, cache.key_mask, cache.enc_out = condition_ids, key_mask, enc
            cache.window = None

    # Decoder stream: token embeddings plus positional encoding. With a
    # cache, rows before ``start`` are already in every layer's keys/values.
    start = 0
    kv = [None] * cfg.decoder_blocks
    if cache is not None:
        window = input_ids[0]
        known = cache.window
        if known is not None and t == len(known) + 1 and np.array_equal(window[:-1], known):
            start = t - 1
        else:
            cache.kv = [[] for _ in range(cfg.decoder_blocks)]
        cache.window, kv = window.copy(), cache.kv
    pe = positional_encoding(t, cfg.d_model, dtype, start)
    dec = ad.add(ad.embedding_gather(params["tok_emb"], input_ids[:, start:]), ad.constant(pe))
    dec = ad.dropout(dec, cfg.dropout, rng, training=train)
    cmask = causal_mask(t)[start:]
    for i in range(cfg.decoder_blocks):
        dec = decoder_block(params, i, dec, enc, cmask, key_mask, train, rng, kv[i])
    if cache is not None:
        dec = ad.constant(dec.data[:, -1:])

    def head(name: str) -> Tensor:
        logits = ad.matmul(dec, params[f"head.{name}"])
        if single:
            return ad.reshape(logits, logits.data.shape[1:])
        return logits

    return ForwardOutput(head("token"), head("pos"), head("dep"), head("ent"))


@dataclass
class LossResult:
    total: Tensor  # scalar; backward() target
    token: float
    pos: float
    dep: float
    ent: float


def loss(output: ForwardOutput, target_ids, target_pos, target_dep, target_ent,
         mask: np.ndarray | None = None) -> LossResult:
    """Sum of the four per-task cross-entropies, each averaged over the
    unpadded positions. The components are reported individually."""
    if mask is None:
        mask = np.ones(np.asarray(target_ids).shape, dtype=np.float64)
    if mask.sum() <= 0:
        raise ValueError("loss over a fully padded batch")
    parts = {
        "token": ad.masked_mean(ad.cross_entropy_logits(output.token_logits, target_ids), mask),
        "pos": ad.masked_mean(ad.cross_entropy_logits(output.pos_logits, target_pos), mask),
        "dep": ad.masked_mean(ad.cross_entropy_logits(output.dep_logits, target_dep), mask),
        "ent": ad.masked_mean(ad.cross_entropy_logits(output.ent_logits, target_ent), mask),
    }
    total = ad.add(ad.add(parts["token"], parts["pos"]), ad.add(parts["dep"], parts["ent"]))
    return LossResult(total, *(float(parts[k].data) for k in ("token", "pos", "dep", "ent")))
