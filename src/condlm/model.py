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
value projections, split into heads by one reshape and transpose. The
attention core is one ``ad.attention`` node, and each residual add with
its LayerNorm one ``ad.add_norm`` node.

``forward`` is the training and evaluation path. Decoding one token at a
time passes it a ``DecodeCache``, whose ``step`` runs the same model on
plain arrays with no autodiff graph, through the same ``ad.attend`` and
``ad.normalize`` kernels that those nodes run. It keeps each decoder layer's
cross-attention keys and values, and its self-attention keys and values,
between calls, so a window that grows by one token runs only that token.
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


def multi_head(params: ModelParameters, prefix: str, x: Tensor, y: Tensor,
               mask: np.ndarray | None = None) -> Tensor:
    """All heads of one attention block at once, projected by ``out``.
    Queries come from ``x``, keys and values from ``y``; self-attention
    passes the same tensor for both."""
    heads = params.config.heads
    k = ad.split_heads(ad.matmul(y, params[f"{prefix}.k"]), heads)
    v = ad.split_heads(ad.matmul(y, params[f"{prefix}.v"]), heads)
    q = ad.split_heads(ad.matmul(x, params[f"{prefix}.q"]), heads)
    return ad.matmul(ad.merge_heads(ad.attention(q, k, v, mask)), params[f"{prefix}.out"])


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


# Plain-array versions of the blocks above, for ``DecodeCache.step``: ``w``
# maps parameter names to arrays; keys and values are (heads, rows, head_dim).
# Attention and the residual layer norm run the graph ops' own kernels.

def _keys_values(w: dict, prefix: str, y: np.ndarray, heads: int):
    return ad.to_heads(y @ w[f"{prefix}.k"], heads), ad.to_heads(y @ w[f"{prefix}.v"], heads)


def _attend(w: dict, prefix: str, x: np.ndarray, kv, mask: np.ndarray | None = None):
    k, v = kv
    mixed, _ = ad.attend(ad.to_heads(x @ w[f"{prefix}.q"], len(k)), k, v, mask)
    return ad.from_heads(mixed) @ w[f"{prefix}.out"]


def _add_norm(w: dict, prefix: str, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    return ad.normalize(out + x, w[f"{prefix}.gain"], w[f"{prefix}.bias"])[0]


def _feed_forward(w: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    return np.maximum(x @ w[f"{prefix}.w1"], 0) @ w[f"{prefix}.w2"]


@dataclass
class DecodeCache:
    """Per-request decoding state for ``step``, on plain arrays: the
    parameters and their arrays by name, the canonical condition ids with
    each decoder layer's cross-attention keys and values, and the last
    window, whose self-attention keys and values are the first
    ``len(window)`` rows of ``kv`` (layers, 2, heads, max_seq, head_dim)."""
    params: ModelParameters | None = None
    weights: dict = field(default_factory=dict)
    pe: np.ndarray | None = None
    conditions: np.ndarray | None = None
    cross: list = field(default_factory=list)
    kv: np.ndarray | None = None
    window: np.ndarray | None = None

    def step(self, params: ModelParameters, window, condition_ids) -> ForwardOutput:
        """The uncached ``forward``'s four head logits for the last row of
        the 1-d ``window``, as constants. The encoder runs when the
        parameters or the canonical conditions change. A window that extends
        the last one by a token runs only that token against the cached keys
        and values; any other is prefilled whole. The last block computes
        its last row only."""
        cfg, heads = params.config, params.config.heads
        window = np.asarray(window, dtype=np.int64)
        t = len(window)
        if self.params is not params:
            shape = (cfg.decoder_blocks, 2, heads, cfg.max_seq, cfg.head_dim)
            self.__init__(params=params, weights={n: p.data for n, p in params.items()},
                          pe=positional_encoding(cfg.max_seq, cfg.d_model, params.dtype),
                          kv=np.empty(shape, params.dtype))
        w = self.weights
        conditions = np.sort(np.asarray(condition_ids, dtype=np.int64))
        if not np.array_equal(self.conditions, conditions):
            # the learned null condition first, as in ``forward``; no key is masked
            enc = ad.gather_rows(w["cond_emb"], np.append(cfg.cond_vocab, conditions))
            for i in range(cfg.encoder_blocks):
                kv = _keys_values(w, f"enc{i}.self", enc, heads)
                enc = _add_norm(w, f"enc{i}.ln1", enc, _attend(w, f"enc{i}.self", enc, kv))
                enc = _add_norm(w, f"enc{i}.ln2", enc, _feed_forward(w, f"enc{i}.ff", enc))
            self.cross = [_keys_values(w, f"dec{i}.cross", enc, heads)
                          for i in range(cfg.decoder_blocks)]
            self.conditions, self.window = conditions, None

        known = self.window
        grows = known is not None and t == len(known) + 1 and np.array_equal(window[:-1], known)
        start = t - 1 if grows else 0
        x = ad.gather_rows(w["tok_emb"], window[start:]) + self.pe[start:t]
        mask = None if grows else causal_mask(t, x.dtype)
        for i in range(cfg.decoder_blocks):
            self.kv[i, :, :, start:t] = _keys_values(w, f"dec{i}.self", x, heads)
            if i == cfg.decoder_blocks - 1:  # the last row attends to every key
                x, mask = x[-1:], None
            kv = self.kv[i, :, :, :t]
            x = _add_norm(w, f"dec{i}.ln1", x, _attend(w, f"dec{i}.self", x, kv, mask))
            x = _add_norm(w, f"dec{i}.ln2", x, _attend(w, f"dec{i}.cross", x, self.cross[i]))
            x = _add_norm(w, f"dec{i}.ln3", x, _feed_forward(w, f"dec{i}.ff", x))
        self.window = window.copy()
        return ForwardOutput(*(ad.constant(x @ w[f"head.{h}"])
                               for h in ("token", "pos", "dep", "ent")))


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
    condition rows are padded. With ``cache`` (one sequence in eval mode),
    ``cache.step`` decodes instead and gives the last row's logits."""
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
    parts = {
        "token": ad.masked_mean(ad.cross_entropy_logits(output.token_logits, target_ids), mask),
        "pos": ad.masked_mean(ad.cross_entropy_logits(output.pos_logits, target_pos), mask),
        "dep": ad.masked_mean(ad.cross_entropy_logits(output.dep_logits, target_dep), mask),
        "ent": ad.masked_mean(ad.cross_entropy_logits(output.ent_logits, target_ent), mask),
    }
    total = ad.add(ad.add(parts["token"], parts["pos"]), ad.add(parts["dep"], parts["ent"]))
    return LossResult(total, *(float(parts[k].data) for k in ("token", "pos", "dep", "ent")))
