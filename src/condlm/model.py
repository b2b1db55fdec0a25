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
value projections. The attention core, with the split into heads and the
merge back, is one ``ad.attention`` node, each residual add with its
LayerNorm one ``ad.add_norm`` node, and each head's masked mean
cross-entropy one ``ad.cross_entropy`` node.

``forward`` is the training and evaluation path. Decoding one token at a
time passes it a ``DecodeCache``, whose ``step`` runs the model up to the
token head on arrays resolved once per request, through the kernels those
nodes run. It keeps the cross- and self-attention keys and values between
calls, so a window that grows by one token runs only that token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig

INIT_STD = 0.02
NEG_INF = float("-inf")


class ModelParameters:
    """Name -> Tensor mapping plus the config that shaped it.

    Every tensor's ``data`` is a view of one flat buffer, the arena:
    ``data``, with tensor i in ``spans[i]`` (start, stop), in ``shapes``
    order. The buffer comes from ``init_parameters`` or is a view of a
    checkpoint's parameter block; ``layout`` lays any buffer of its size
    out the same way, as LAMB's moments are. The gradient buffer ``grad``
    is allocated by the first ``zero_grad`` or LAMB step, so a model that
    only decodes never holds one."""

    def __init__(self, config: ModelConfig, data: np.ndarray,
                 shapes: dict[str, tuple[int, ...]] | None = None):
        self.config = config
        self.shapes = parameter_shapes(config) if shapes is None else shapes
        stops = np.cumsum([math.prod(s) for s in self.shapes.values()]).tolist()
        if data.shape != (stops[-1],) or not data.flags.c_contiguous:
            raise ValueError(f"the arena is one contiguous buffer of {stops[-1]} elements, "
                             f"not {data.shape}")
        self.data = data
        self.spans = list(zip([0] + stops[:-1], stops))
        self.tensors = {name: ad.parameter(view) for name, view in self.layout(data).items()}
        self._views = [t.data for t in self.tensors.values()]
        self.grad: np.ndarray | None = None
        self._grads: list[np.ndarray] = []

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def layout(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-tensor views of a flat buffer laid out like the arena."""
        return {name: flat[a:b].reshape(shape)
                for (name, shape), (a, b) in zip(self.shapes.items(), self.spans)}

    def check_views(self) -> None:
        """Refuse a tensor rebound away from its arena view, which training updates and decoding reads."""
        for (name, t), view in zip(self.tensors.items(), self._views):
            if t.data is not view:
                raise ValueError(f"parameter {name} no longer holds its view of the arena; "
                                 f"write into its data instead of rebinding it")

    def grads(self) -> list[np.ndarray]:
        """Per-tensor views of the gradient buffer, allocated on first use."""
        self.check_views()
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
            self._grads = list(self.layout(self.grad).values())
        return self._grads

    def zero_grad(self) -> None:
        """Zero the gradient buffer in one fill and bind every tensor's
        ``grad`` to its view, so backward accumulates in place."""
        grads = self.grads()
        ad.zero_grad(self.tensors.values(), self.grad, grads)

    @property
    def dtype(self):
        return self.data.dtype


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
    concatenated into the fused tensors. Each is written into its view of
    the arena."""
    config.validate()
    hd = config.head_dim

    def draw(shape) -> np.ndarray:
        return rng.normal(0.0, INIT_STD, shape).astype(dtype)

    shapes = parameter_shapes(config)
    params = ModelParameters(config, np.empty(sum(math.prod(s) for s in shapes.values()), dtype))
    for name, shape in shapes.items():
        prefix, _, part = name.rpartition(".")
        if part == "gain":
            params[name].data[...] = 1
        elif part == "bias":
            params[name].data[...] = 0
        elif part == "q":
            heads = [[draw((shape[0], hd)) for _ in "qkv"] for _ in range(config.heads)]
            for j, fused in enumerate("qkv"):
                params[f"{prefix}.{fused}"].data[...] = np.concatenate([h[j] for h in heads], axis=1)
        elif part not in ("k", "v"):
            params[name].data[...] = draw(shape)
    return params


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


def multi_head(params: ModelParameters, prefix: str, x: Tensor, y: Tensor,
               mask: np.ndarray | None = None) -> Tensor:
    """All heads of one attention block at once: the k, v and q products,
    one ``ad.attention`` node, which splits and merges the heads itself,
    and the ``out`` product. Queries come from ``x``, keys and values from
    ``y``; self-attention passes the same tensor for both."""
    k = ad.matmul(y, params[f"{prefix}.k"])
    v = ad.matmul(y, params[f"{prefix}.v"])
    q = ad.matmul(x, params[f"{prefix}.q"])
    return ad.matmul(ad.attention(q, k, v, params.config.heads, mask), params[f"{prefix}.out"])


def feed_forward(params: ModelParameters, prefix: str, x: Tensor) -> Tensor:
    return ad.matmul(ad.relu(ad.matmul(x, params[f"{prefix}.w1"])), params[f"{prefix}.w2"])


def _sublayer(params: ModelParameters, ln_prefix: str, residual: Tensor, out: Tensor,
              train: bool, rng) -> Tensor:
    out = ad.dropout(out, params.config.dropout, rng, training=train)
    return ad.add_norm(out, residual, params[f"{ln_prefix}.gain"], params[f"{ln_prefix}.bias"])


def encoder_block(params: ModelParameters, index: int, x: Tensor,
                  key_mask: np.ndarray | None, train: bool = False, rng=None) -> Tensor:
    a = _sublayer(params, f"enc{index}.ln1", x,
                  multi_head(params, f"enc{index}.self", x, x, key_mask), train, rng)
    return _sublayer(params, f"enc{index}.ln2", a,
                     feed_forward(params, f"enc{index}.ff", a), train, rng)


def decoder_block(params: ModelParameters, index: int, x: Tensor, enc_out: Tensor,
                  causal_mask: np.ndarray, cond_mask: np.ndarray | None,
                  train: bool = False, rng=None) -> Tensor:
    b = _sublayer(params, f"dec{index}.ln1", x,
                  multi_head(params, f"dec{index}.self", x, x, causal_mask), train, rng)
    a = _sublayer(params, f"dec{index}.ln2", b,
                  multi_head(params, f"dec{index}.cross", b, enc_out, cond_mask), train, rng)
    return _sublayer(params, f"dec{index}.ln3", a,
                     feed_forward(params, f"dec{index}.ff", a), train, rng)


def causal_mask(t: int, dtype=np.float64) -> np.ndarray:
    return np.triu(np.full((t, t), NEG_INF, dtype=dtype), 1)


def _decode_arrays(params: ModelParameters) -> tuple:
    """(condition and token embeddings, positional encoding, encoder blocks, decoder
    blocks, token head). Each block lists its arrays in ``parameter_shapes`` order, the
    order ``DecodeCache.step`` reads them, with q, k and v as one (3, d, d) arena view."""
    params.check_views()
    cfg, d, arrays = params.config, params.config.d_model, {}
    for (name, t), (a, _) in zip(params.items(), params.spans):
        prefix, _, part = name.partition(".")
        block = arrays.setdefault(prefix, [])
        if part.endswith(".q"):
            block.append(params.data[a:a + 3 * d * d].reshape(3, d, d))
        elif not part.endswith((".k", ".v")):
            block.append(t.data)
    return (arrays["cond_emb"][0], arrays["tok_emb"][0],
            positional_encoding(cfg.max_seq, d, params.dtype),
            [arrays[f"enc{i}"] for i in range(cfg.encoder_blocks)],
            [arrays[f"dec{i}"] for i in range(cfg.decoder_blocks)], arrays["head"][0])


def _attention(q, k, v, out: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    return ad.from_heads(ad.attend(q, k, v, mask)[0]) @ out


@dataclass
class DecodeCache:
    """Per-request decoding state for ``step``, on plain arrays: the
    parameters and their ``_decode_arrays``, the canonical condition ids
    with each decoder layer's cross-attention keys and values, and the last
    window, whose self-attention keys and values are the first
    ``len(window)`` rows of ``kv`` (layers, 2, heads, max_seq, head_dim)."""
    params: ModelParameters | None = None
    arrays: tuple = ()
    conditions: np.ndarray | None = None
    cross: list = field(default_factory=list)
    kv: np.ndarray | None = None
    window: np.ndarray | None = None

    def step(self, params: ModelParameters, window, condition_ids) -> np.ndarray:
        """The uncached ``forward``'s token logits for the last row of the
        1-d ``window``, as a 1-d array. The encoder runs when the parameters
        or the canonical conditions change. A window that extends the last
        one by a token runs only that token against the cached keys and
        values; any other is prefilled whole, the last block for its last
        row only. q, k and v are one product over the rows they need."""
        cfg, heads = params.config, params.config.heads
        window = np.asarray(window, dtype=np.int64)
        t = len(window)
        if self.params is not params:
            shape = (cfg.decoder_blocks, 2, heads, cfg.max_seq, cfg.head_dim)
            self.__init__(params=params, arrays=_decode_arrays(params), kv=np.empty(shape, params.dtype))
        cond_emb, tok_emb, pe, encoder, decoder, head = self.arrays
        conditions = np.sort(np.asarray(condition_ids, dtype=np.int64))
        if not np.array_equal(self.conditions, conditions):
            # the learned null condition first, as in ``forward``; no key is masked
            x = ad.gather_rows(cond_emb, np.append(cfg.cond_vocab, conditions))
            for qkv, out, g1, b1, w1, w2, g2, b2 in encoder:
                x = ad.normalize(_attention(*ad.to_heads(np.matmul(x, qkv), heads), out) + x, g1, b1)[0]
                x = ad.normalize(np.maximum(x @ w1, 0) @ w2 + x, g2, b2)[0]
            self.cross = [ad.to_heads(np.matmul(x, xqkv[1:]), heads)  # cross k and v
                          for _, _, _, _, xqkv, *_ in decoder]
            self.conditions, self.window = conditions, None

        known = self.window
        grows = known is not None and t == len(known) + 1 and np.array_equal(window[:-1], known)
        start = t - 1 if grows else 0
        x = ad.gather_rows(tok_emb, window[start:]) + pe[start:t]
        mask = None if len(x) == 1 else causal_mask(t, x.dtype)
        for i, (qkv, out, g1, b1, xqkv, xout, g2, b2, w1, w2, g3, b3) in enumerate(decoder):
            if len(x) == 1 or i < len(decoder) - 1:
                qkv_rows = ad.to_heads(np.matmul(x, qkv), heads)
                q, kv = qkv_rows[0], qkv_rows[1:]
            else:  # the last row attends to every key, and is all the last block needs
                kv, x, mask = ad.to_heads(np.matmul(x, qkv[1:]), heads), x[-1:], None
                q = ad.to_heads(x @ qkv[0], heads)
            self.kv[i, :, :, start:t] = kv
            x = ad.normalize(_attention(q, *self.kv[i, :, :, :t], out, mask) + x, g1, b1)[0]
            x = ad.normalize(_attention(ad.to_heads(x @ xqkv[0], heads), *self.cross[i], xout) + x, g2, b2)[0]
            x = ad.normalize(np.maximum(x @ w1, 0) @ w2 + x, g3, b3)[0]
        self.window = window.copy()
        return (x @ head)[-1]


@dataclass
class ForwardOutput:
    token_logits: Tensor
    pos_logits: Tensor
    dep_logits: Tensor
    ent_logits: Tensor


def forward(params: ModelParameters, input_ids, condition_ids,
            mode: str = "eval", rng: np.random.Generator | None = None,
            condition_mask: np.ndarray | None = None,
            cache: DecodeCache | None = None) -> ForwardOutput | np.ndarray:
    """Run the model. 1-d id arrays give 2-d logits (positions, vocab);
    batched 2-d inputs give 3-d logits and need ``condition_mask`` when
    condition rows are padded. With ``cache`` (one sequence in eval mode),
    ``cache.step`` decodes instead: the last row's token logits, 1-d."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    cfg, t = params.config, np.shape(input_ids)[-1]
    if t > cfg.max_seq:
        raise ValueError(f"sequence length {t} exceeds max_seq {cfg.max_seq}")
    if cache is not None:
        if mode != "eval" or np.ndim(input_ids) != 1:
            raise ValueError("a decode cache needs one 1-d sequence in eval mode")
        return cache.step(params, input_ids, condition_ids)
    train = mode == "train"
    if train and cfg.dropout > 0 and rng is None:
        raise ValueError("training mode with dropout needs an rng")

    input_ids = np.asarray(input_ids, dtype=np.int64)
    condition_ids = np.asarray(condition_ids, dtype=np.int64)
    single = input_ids.ndim == 1
    if single:
        input_ids = input_ids[None, :]
        condition_ids = condition_ids[None, :]
    b = len(input_ids)

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
    # Encoder stream: condition embeddings only, no positional signal.
    enc = ad.dropout(ad.embedding_gather(params["cond_emb"], condition_ids),
                     cfg.dropout, rng, training=train)
    for i in range(cfg.encoder_blocks):
        enc = encoder_block(params, i, enc, key_mask, train, rng)

    # Decoder stream: token embeddings plus positional encoding.
    pe = positional_encoding(t, cfg.d_model, params.dtype)
    dec = ad.add(ad.embedding_gather(params["tok_emb"], input_ids), ad.constant(pe))
    dec = ad.dropout(dec, cfg.dropout, rng, training=train)
    cmask = causal_mask(t)
    for i in range(cfg.decoder_blocks):
        dec = decoder_block(params, i, dec, enc, cmask, key_mask, train, rng)

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
    token, pos, dep, ent = (
        ad.cross_entropy(logits, labels, mask) for logits, labels in (
            (output.token_logits, target_ids), (output.pos_logits, target_pos),
            (output.dep_logits, target_dep), (output.ent_logits, target_ent)))
    total = ad.add(ad.add(token, pos), ad.add(dep, ent))
    return LossResult(total, *(float(part.data) for part in (token, pos, dep, ent)))
