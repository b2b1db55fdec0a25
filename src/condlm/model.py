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

Attention computes all heads at once from fused (d, d) query, key and
value projections, split into heads by one reshape and transpose.

Decoding one token at a time can pass a ``DecodeCache`` to ``forward``. It
builds no autodiff graph, and keeps the encoder output, each decoder
layer's cross-attention keys and values, and each decoder layer's
self-attention keys and values between calls, so a window that grows by
one token only runs that token through the decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig

INIT_STD = 0.02
NEG_INF = float("-inf")


@dataclass
class Arena:
    """Every parameter's data, and every gradient, as views of one flat
    buffer each, in ``ModelParameters`` order. Tensor i occupies
    ``spans[i]`` (start, stop) of both buffers; ``datas[i]`` and
    ``grads[i]`` are its views."""
    data: np.ndarray
    grad: np.ndarray
    spans: list[tuple[int, int]]
    datas: list[np.ndarray]
    grads: list[np.ndarray]


class ModelParameters:
    """Flat name -> Tensor mapping plus the config that shaped it.

    The first training step moves the tensors' data into an ``Arena``
    (see ``arena``); until then each tensor keeps the array it was built
    with, so a loaded checkpoint stays a set of views of its read buffer."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors
        self._arena: Arena | None = None

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def arena(self) -> Arena:
        """The flat buffers. Built on first use by copying every tensor's
        data in and rebinding ``tensor.data`` to its view; built again if
        a tensor's data has been rebound since."""
        tensors = list(self.tensors.values())
        arena = self._arena
        if arena is not None and len(arena.datas) == len(tensors) \
                and all(t.data is view for t, view in zip(tensors, arena.datas)):
            return arena
        dtype = tensors[0].data.dtype
        if any(t.data.dtype != dtype for t in tensors):
            raise ValueError("parameters of mixed dtypes cannot share one arena")
        stops = np.cumsum([t.data.size for t in tensors]).tolist()
        spans = list(zip([0] + stops[:-1], stops))
        data = np.empty(stops[-1], dtype=dtype)
        grad = np.zeros(stops[-1], dtype=dtype)
        datas, grads = [], []
        for t, (a, b) in zip(tensors, spans):
            view = data[a:b].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            datas.append(view)
            grads.append(grad[a:b].reshape(t.data.shape))
        self._arena = Arena(data, grad, spans, datas, grads)
        return self._arena

    def zero_grad(self) -> None:
        """Zero the gradient arena in one fill and bind every tensor's
        ``grad`` to its view, so backward accumulates in place."""
        arena = self.arena()
        ad.zero_grad(self.tensors.values(), arena.grad, arena.grads)

    @property
    def dtype(self):
        return self["tok_emb"].data.dtype


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in init and checkpoint order. Each
    attention block holds fused (d, d) ``q``/``k``/``v`` projections, head
    h in columns h*head_dim .. (h+1)*head_dim, and its output ``out``."""
    d, ff = config.d_model, config.ff_size
    shapes: dict[str, tuple[int, ...]] = {}

    def attn(prefix: str):
        for part in ("q", "k", "v", "out"):
            shapes[f"{prefix}.{part}"] = (d, d)

    def ln(prefix: str):
        shapes[f"{prefix}.gain"] = shapes[f"{prefix}.bias"] = (d,)

    shapes["tok_emb"] = (config.token_vocab, d)
    # One extra row: the learned null condition, always present.
    shapes["cond_emb"] = (config.cond_vocab + 1, d)
    for i in range(config.encoder_blocks):
        attn(f"enc{i}.self")
        ln(f"enc{i}.ln1")
        shapes[f"enc{i}.ff.w1"], shapes[f"enc{i}.ff.w2"] = (d, ff), (ff, d)
        ln(f"enc{i}.ln2")
    for i in range(config.decoder_blocks):
        attn(f"dec{i}.self")
        ln(f"dec{i}.ln1")
        attn(f"dec{i}.cross")
        ln(f"dec{i}.ln2")
        shapes[f"dec{i}.ff.w1"], shapes[f"dec{i}.ff.w2"] = (d, ff), (ff, d)
        ln(f"dec{i}.ln3")
    for head, size in (("token", config.token_vocab), ("pos", config.pos_vocab),
                       ("dep", config.dep_vocab), ("ent", config.ent_vocab)):
        shapes[f"head.{head}"] = (d, size)
    return shapes


def init_parameters(config: ModelConfig, rng: np.random.Generator,
                    dtype=ad.WIDE) -> ModelParameters:
    """Scaled-normal init (std 0.02) for projections and embeddings;
    LayerNorm gains start at 1 and biases at 0. Attention projections are
    drawn head by head (q, k, v of head 0, then of head 1, ...) and
    concatenated into the fused tensors."""
    config.validate()
    hd = config.head_dim

    def draw(shape) -> np.ndarray:
        return rng.normal(0.0, INIT_STD, shape).astype(dtype)

    tensors: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        prefix, _, part = name.rpartition(".")
        if part == "gain":
            tensors[name] = ad.parameter(np.ones(shape, dtype=dtype))
        elif part == "bias":
            tensors[name] = ad.parameter(np.zeros(shape, dtype=dtype))
        elif part == "q":
            heads = [[draw((shape[0], hd)) for _ in "qkv"] for _ in range(config.heads)]
            for j, fused in enumerate("qkv"):
                tensors[f"{prefix}.{fused}"] = ad.parameter(
                    np.concatenate([h[j] for h in heads], axis=1))
        elif part not in ("k", "v"):
            tensors[name] = ad.parameter(draw(shape))
    return ModelParameters(config, tensors)


def positional_encoding(n: int, d_model: int, dtype=ad.WIDE) -> np.ndarray:
    """Sinusoidal table for positions 0..n-1: sin on even channels, cos on
    odd, shared rate. Each row depends on its position only, so a longer
    table starts with the shorter one."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    pe = np.zeros((n, d_model), dtype=np.float64)
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


@dataclass
class KVCache:
    """One attention layer's keys and values, kept between decode calls in
    split-head layout (1, heads, rows, head_dim). A self-attention cache
    grows: each call appends the rows it projects. A cross-attention cache
    is filled by its first call and read unchanged after that."""
    grows: bool
    k: np.ndarray | None = None
    v: np.ndarray | None = None


def multi_head(params: ModelParameters, prefix: str, x: Tensor, y: Tensor,
               mask: np.ndarray | None = None, kv: KVCache | None = None,
               last_row: bool = False) -> Tensor:
    """All heads of one attention block at once, projected by ``out``.
    Queries come from ``x``, keys and values from ``y``; self-attention
    passes the same tensor for both. With ``kv`` (decoding, no gradient),
    keys and values come from the cache as ``KVCache`` describes.
    ``last_row`` takes queries from the last row of ``x`` only; like the
    cache, it is for decoding and passes no gradient to ``x``."""
    heads = params.config.heads
    if kv is not None and not kv.grows and kv.k is not None:
        k, v = ad.constant(kv.k), ad.constant(kv.v)
    else:
        k = ad.split_heads(ad.matmul(y, params[f"{prefix}.k"]), heads)
        v = ad.split_heads(ad.matmul(y, params[f"{prefix}.v"]), heads)
        if kv is not None:
            if kv.k is not None:
                kv.k = np.concatenate([kv.k, k.data], axis=-2)
                kv.v = np.concatenate([kv.v, v.data], axis=-2)
            else:
                kv.k, kv.v = k.data, v.data
            k, v = ad.constant(kv.k), ad.constant(kv.v)
    if last_row:
        x = ad.constant(x.data[..., -1:, :])
        mask = None if mask is None else mask[..., -1:, :]
    q = ad.split_heads(ad.matmul(x, params[f"{prefix}.q"]), heads)
    return ad.matmul(ad.merge_heads(attention(q, k, v, mask)), params[f"{prefix}.out"])


def feed_forward(params: ModelParameters, prefix: str, x: Tensor) -> Tensor:
    return ad.matmul(ad.relu(ad.matmul(x, params[f"{prefix}.w1"])), params[f"{prefix}.w2"])


def _sublayer(params: ModelParameters, ln_prefix: str, residual: Tensor, out: Tensor,
              train: bool, rng) -> Tensor:
    out = ad.dropout(out, params.config.dropout, rng, training=train)
    return ad.layer_norm(ad.add(out, residual),
                         params[f"{ln_prefix}.gain"], params[f"{ln_prefix}.bias"])


def encoder_block(params: ModelParameters, index: int, x: Tensor,
                  key_mask: np.ndarray | None, train: bool = False, rng=None) -> Tensor:
    a = _sublayer(params, f"enc{index}.ln1", x,
                  multi_head(params, f"enc{index}.self", x, x, key_mask), train, rng)
    return _sublayer(params, f"enc{index}.ln2", a,
                     feed_forward(params, f"enc{index}.ff", a), train, rng)


def decoder_block(params: ModelParameters, index: int, x: Tensor, enc_out: Tensor,
                  causal_mask: np.ndarray, cond_mask: np.ndarray | None,
                  train: bool = False, rng=None,
                  kv: tuple[KVCache, KVCache] | None = None,
                  last_row: bool = False) -> Tensor:
    """``kv`` holds this layer's self- and cross-attention caches (see
    ``multi_head``); ``causal_mask`` then spans the cached positions too.
    ``last_row`` (decoding only) gives the block's output for the last row
    of ``x``: every row still feeds the self-attention keys and values."""
    self_kv, cross_kv = kv if kv is not None else (None, None)
    residual = ad.constant(x.data[..., -1:, :]) if last_row else x
    b = _sublayer(params, f"dec{index}.ln1", residual,
                  multi_head(params, f"dec{index}.self", x, x, causal_mask, self_kv, last_row),
                  train, rng)
    a = _sublayer(params, f"dec{index}.ln2", b,
                  multi_head(params, f"dec{index}.cross", b, enc_out, cond_mask, cross_kv),
                  train, rng)
    return _sublayer(params, f"dec{index}.ln3", a,
                     feed_forward(params, f"dec{index}.ff", a), train, rng)


def causal_mask(t: int, dtype=np.float64) -> np.ndarray:
    return np.triu(np.full((t, t), NEG_INF, dtype=dtype), 1)


@dataclass
class DecodeCache:
    """Per-request decoding state for ``forward``. ``bind`` ties it to one
    parameter set and holds constant views of its tensors, so a cached
    forward builds no autodiff graph. It keeps the canonical condition ids
    and key mask with the encoder output they gave, each decoder layer's
    cross-attention keys and values from that output, and the token window
    whose self-attention keys and values are cached."""
    source: ModelParameters | None = None
    params: ModelParameters | None = None
    pe: np.ndarray | None = None
    conditions: np.ndarray | None = None
    key_mask: np.ndarray | None = None
    enc_out: Tensor | None = None
    window: np.ndarray | None = None
    self_kv: list[KVCache] = field(default_factory=list)
    cross_kv: list[KVCache] = field(default_factory=list)

    def bind(self, params: ModelParameters) -> ModelParameters:
        """The constant views of ``params``; binding other parameters than
        last time drops everything cached."""
        if self.source is not params:
            cfg = params.config
            views = {name: ad.constant(t.data) for name, t in params.items()}
            self.__init__(source=params, params=ModelParameters(cfg, views),
                          pe=positional_encoding(cfg.max_seq, cfg.d_model, params.dtype))
        return self.params


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
    the cache, the last decoder block computes the last row only, and the
    logits cover that row. No autodiff graph is built."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    cfg = params.config
    if train and cfg.dropout > 0 and rng is None:
        raise ValueError("training mode with dropout needs an rng")
    dtype = params.dtype
    if cache is not None:
        params = cache.bind(params)

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

    key_mask = np.where(condition_mask[:, None, None, :] > 0, 0.0, NEG_INF)
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
            cache.conditions, cache.key_mask, cache.enc_out = condition_ids, key_mask, enc
            cache.cross_kv = [KVCache(grows=False) for _ in range(cfg.decoder_blocks)]
            cache.window = None

    # Decoder stream: token embeddings plus positional encoding. With a
    # cache, rows before ``start`` are already in every layer's keys/values.
    start = 0
    if cache is not None:
        window = input_ids[0]
        known = cache.window
        if known is not None and t == len(known) + 1 and np.array_equal(window[:-1], known):
            start = t - 1
        else:
            cache.self_kv = [KVCache(grows=True) for _ in range(cfg.decoder_blocks)]
        cache.window = window.copy()
        pe = cache.pe[start:t]
    else:
        pe = positional_encoding(t, cfg.d_model, dtype)
    dec = ad.add(ad.embedding_gather(params["tok_emb"], input_ids[:, start:]), ad.constant(pe))
    dec = ad.dropout(dec, cfg.dropout, rng, training=train)
    # A single new row may attend to every cached position: no mask.
    cmask = causal_mask(t)[start:] if t - start > 1 else None
    for i in range(cfg.decoder_blocks):
        kv = None if cache is None else (cache.self_kv[i], cache.cross_kv[i])
        dec = decoder_block(params, i, dec, enc, cmask, key_mask, train, rng, kv,
                            last_row=cache is not None and i == cfg.decoder_blocks - 1)

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
