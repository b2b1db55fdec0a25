"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-free engine: every op returns a ``Tensor`` holding the forward
value plus a closure that routes the output gradient into the operands'
``grad`` buffers. ``backward`` frees each interior node's gradient once the
node has passed it on, so only the leaves keep theirs. Leaf gradients
accumulate additively (in place, when ``zero_grad`` has bound them to
views of one flat buffer), so repeated ``backward`` calls without
``zero_grad`` sum their contributions.

Attention, and a residual add with its layer norm, are one node each
(``attention``, ``add_norm``). Their forwards run the plain-array kernels
``attend`` and ``normalize``, which graph-free decoding calls too.

Two precisions are supported and chosen by the arrays you put in:
float64 ("wide") for oracles and gradient checks, float32 ("narrow") for
training throughput. Ops never change dtype on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

WIDE = np.float64
NARROW = np.float32
DTYPES = {"wide": WIDE, "narrow": NARROW}
LN_EPS = 1e-5


class Tensor:
    """A node in the computation graph: value, gradient, backward closure."""

    __slots__ = ("data", "grad", "parents", "backward_fn", "requires_grad")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), backward_fn=None):
        self.data = np.asarray(data)
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a copy: ``g`` may be another node's gradient or a view of it
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    """A trainable leaf: gradients accumulate here."""
    return Tensor(np.asarray(data), requires_grad=True)


def constant(data) -> Tensor:
    """A non-trainable leaf: no gradient is kept."""
    return Tensor(np.asarray(data), requires_grad=False)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _node(data, parents: Sequence[Tensor], backward_fn) -> Tensor:
    # Graph edges are only kept when some ancestor actually needs a gradient.
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=tuple(parents),
                      backward_fn=backward_fn)
    return Tensor(data)


def _sum_to_shape(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Undo numpy broadcasting: sum gradient down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gd, sd) in enumerate(zip(g.shape, shape)):
        if sd == 1 and gd != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def matmul(a, b) -> Tensor:
    """Batched matrix product over the last two axes. A batch of several
    matrices times a 2-d weight runs as one 2-d product over the folded
    leading axes, and its weight gradient as one more. (A batch of one
    matrix is already one product; folding it would only add reshapes.)"""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul needs >=2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    if b.data.ndim == 2 and math.prod(a.data.shape[:-2]) > 1:
        a2 = a.data.reshape(-1, a.data.shape[-1])
        out_data = (a2 @ b.data).reshape(*a.data.shape[:-1], b.data.shape[1])

        def bw(g):
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                a.accumulate((g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                b.accumulate(a2.T @ g2)

        return _node(out_data, (a, b), bw)
    out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate(_sum_to_shape(g @ b.data.swapaxes(-1, -2), a.data.shape))
        if b.requires_grad:
            b.accumulate(_sum_to_shape(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _node(out_data, (a, b), bw)


def add(a, b) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ValueError(f"add shape mismatch: {a.data.shape} + {b.data.shape}") from None

    def bw(g):
        if a.requires_grad:
            a.accumulate(_sum_to_shape(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_sum_to_shape(g, b.data.shape))

    return _node(out_data, (a, b), bw)


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ValueError(f"mul shape mismatch: {a.data.shape} * {b.data.shape}") from None

    def bw(g):
        if a.requires_grad:
            a.accumulate(_sum_to_shape(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_sum_to_shape(g * a.data, b.data.shape))

    return _node(out_data, (a, b), bw)


def scale(a, s: float) -> Tensor:
    """Multiply by a python scalar."""
    a = _as_tensor(a)
    s = float(s)
    out_data = a.data * s

    def bw(g):
        if a.requires_grad:
            a.accumulate(g * s)

    return _node(out_data, (a,), bw)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.data.shape))

    return _node(out_data, (a,), bw)


def split_heads(a, heads: int) -> Tensor:
    """(..., T, heads * w) -> (..., heads, T, w): one reshape and one
    transpose, returned as a view. ``merge_heads`` is its inverse."""
    a = _as_tensor(a)
    d = a.data.shape[-1]
    if a.data.ndim < 2 or heads < 1 or d % heads:
        raise ValueError(f"split_heads: shape {a.data.shape} does not split into {heads} heads")

    def bw(g):
        if a.requires_grad:
            a.accumulate(from_heads(g))

    return _node(to_heads(a.data, heads), (a,), bw)


def merge_heads(a) -> Tensor:
    """(..., heads, T, w) -> (..., T, heads * w), the inverse of
    ``split_heads``."""
    a = _as_tensor(a)
    if a.data.ndim < 3:
        raise ValueError(f"merge_heads needs a (..., heads, T, w) operand, got {a.data.shape}")
    heads = a.data.shape[-3]

    def bw(g):
        if a.requires_grad:
            a.accumulate(to_heads(g, heads))

    return _node(from_heads(a.data), (a,), bw)


def to_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """The array form of ``split_heads``: a view, no copy."""
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-2, -3)


def from_heads(x: np.ndarray) -> np.ndarray:
    """The array form of ``merge_heads``."""
    s = x.shape
    return x.swapaxes(-2, -3).reshape(s[:-3] + (s[-2], s[-3] * s[-1]))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0)

    def bw(g):
        if a.requires_grad:
            a.accumulate(g * (a.data > 0))

    return _node(out_data, (a,), bw)


def dropout(a, p: float, rng: np.random.Generator | None = None,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability p, rescale by 1/(1-p).

    Identity in evaluation mode or at p == 0 (the input node is returned
    unchanged). A generator is required whenever the mask is actually drawn.
    """
    a = _as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    keep = (rng.random(a.data.shape) >= p).astype(a.data.dtype) / (1.0 - p)
    return mul(a, constant(keep))


def gather_rows(table: np.ndarray, ids) -> np.ndarray:
    """``table[ids]`` for an integer id array; an id outside the table is
    an error rather than a wrapped-around row."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"embedding ids must be integers, got dtype {ids.dtype}")
    n = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise ValueError(f"embedding id {bad} out of range for table of {n} rows")
    return table[ids]


def embedding_gather(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` selected by an integer id array."""
    ids = np.asarray(ids)
    out_data = gather_rows(table.data, ids)

    def bw(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return _node(out_data, (table,), bw)


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray,
           mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over the last two axes, on plain
    arrays: (softmax(q kᵀ / √w + mask) v, the softmax probabilities).
    ``mask`` is additive (0 keeps a key, -inf drops it) and broadcasts
    to the scores' shape (..., T_q, T_k). Nothing is checked: a NaN or +inf
    score, or a row whose every key is dropped, gives NaN probabilities."""
    # A python float: a numpy float64 scalar would widen float32 scores.
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores += mask.astype(scores.dtype, copy=False)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return p @ v, p


def attention(q, k, v, mask: np.ndarray | None = None) -> Tensor:
    """``attend`` as one graph node, which keeps only the probabilities P
    for its closed-form backward. NaN or +inf scores, and rows whose every
    key is masked, are errors: each leaves NaN in P."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    with np.errstate(invalid="ignore"):  # inf - inf is refused just below
        out_data, p = attend(q.data, k.data, v.data, mask)
    if np.isnan(p).any():
        raise ValueError("attention scores contain NaN or +inf, or a fully masked row")
    s = 1.0 / math.sqrt(q.data.shape[-1])

    def bw(g):
        if v.requires_grad:
            v.accumulate(_sum_to_shape(p.swapaxes(-1, -2) @ g, v.data.shape))
        if q.requires_grad or k.requires_grad:
            dp = g @ v.data.swapaxes(-1, -2)
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * s
            if q.requires_grad:
                q.accumulate(_sum_to_shape(ds @ k.data, q.data.shape))
            if k.requires_grad:
                dk = (q.data.swapaxes(-1, -2) @ ds).swapaxes(-1, -2)
                k.accumulate(_sum_to_shape(dk, k.data.shape))

    return _node(out_data, (q, k, v), bw)


def normalize(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm over the last axis (biased variance), then the affine
    gain and bias, on plain arrays: (output, normalized x, 1 / std)."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat = xc * inv
    return gain * xhat + bias, xhat, inv


def add_norm(a, b, gain: Tensor, bias: Tensor) -> Tensor:
    """``normalize(a + b, gain, bias)`` as one graph node (the residual add
    of a post-norm block), keeping the normalized sum and 1 / std."""
    a, b = _as_tensor(a), _as_tensor(b)
    d = a.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError(f"add_norm affine shapes {gain.data.shape}/{bias.data.shape} do not match width {d}")
    out_data, xhat, inv = normalize(a.data + b.data, gain.data, bias.data)

    def bw(g):
        if gain.requires_grad:
            gain.accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate(g.reshape(-1, d).sum(axis=0))
        if a.requires_grad or b.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            gx = inv * (gx - m1 - xhat * m2)
            for t in (a, b):
                if t.requires_grad:
                    t.accumulate(_sum_to_shape(gx, t.data.shape))

    return _node(out_data, (a, b, gain, bias), bw)


def cross_entropy_logits(logits: Tensor, labels) -> Tensor:
    """Per-position -log softmax(logits)[label]; labels is an int array."""
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    v = logits.data.shape[-1]
    if labels.shape != logits.data.shape[:-1]:
        raise ValueError(f"labels shape {labels.shape} does not match logits {logits.data.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= v):
        bad = int(labels.min()) if labels.min() < 0 else int(labels.max())
        raise ValueError(f"label {bad} out of range for {v} classes")
    x = logits.data
    m = np.max(x, axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(x, labels[..., None], axis=-1)
    out_data = (lse - picked)[..., 0]

    def bw(g):
        if logits.requires_grad:
            p = np.exp(x - lse)
            onehot = np.zeros_like(x)
            np.put_along_axis(onehot, labels[..., None], 1.0, axis=-1)
            logits.accumulate((p - onehot) * g[..., None])

    return _node(out_data, (logits,), bw)


def tensor_sum(a) -> Tensor:
    """Sum all entries down to a scalar."""
    a = _as_tensor(a)
    out_data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def bw(g):
        if a.requires_grad:
            a.accumulate(np.broadcast_to(g, a.data.shape))

    return _node(out_data, (a,), bw)


def masked_mean(x, mask: np.ndarray) -> Tensor:
    """Mean of x over entries where mask == 1."""
    mask = np.asarray(mask)
    total = float(mask.sum())
    if total <= 0:
        raise ValueError("masked_mean over an empty mask")
    return scale(tensor_sum(mul(x, constant(mask.astype(_as_tensor(x).data.dtype)))), 1.0 / total)


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the graph."""
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar, got shape {loss.data.shape}")
    # Iterative DFS topological order; avoids recursion limits on deep graphs.
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    loss.accumulate(np.ones((), dtype=loss.data.dtype))
    for node in reversed(topo):
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)
            # Passed on: an interior gradient is not needed again, and
            # keeping it would double-count in a second pass.
            node.grad = None


def zero_grad(tensors: Iterable[Tensor], flat: np.ndarray | None = None,
              views: Sequence[np.ndarray] = ()) -> None:
    """Clear the tensors' gradients. Given a flat gradient buffer and one
    view of it per tensor, zero the buffer in one fill and bind the views,
    so that backward accumulates into them in place."""
    if flat is None:
        for t in tensors:
            t.grad = None
        return
    flat.fill(0)
    for t, view in zip(tensors, views, strict=True):
        t.grad = view


@dataclass
class FiniteDiffResult:
    """Outcome of a central-difference gradient check."""
    max_rel_error: float
    worst_param: str
    worst_index: tuple
    analytic: float
    numeric: float
    coords_checked: int


def finite_diff_check(f: Callable[[], Tensor],
                      params: Mapping[str, Tensor],
                      step: float = 1e-5,
                      max_coords: int | None = None,
                      rng: np.random.Generator | None = None,
                      rel_floor: float = 1e-5) -> FiniteDiffResult:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` must rebuild the graph on each call, reading the parameters'
    current data, and must be deterministic (dropout off, fixed masks).
    The relative error divides by max(|analytic|, |numeric|, rel_floor):
    below the floor, finite differences cannot resolve a relative error and
    the comparison degrades to an absolute one at that scale. Wide (float64)
    parameters are required; float32 noise swamps the difference quotient.
    """
    items = list(params.items())
    for name, t in items:
        if t.data.dtype != WIDE:
            raise ValueError(f"finite_diff_check needs float64 params, {name} is {t.data.dtype}")
    zero_grad(t for _, t in items)
    backward(f())
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in items}

    coords = [(name, idx) for name, t in items for idx in np.ndindex(t.data.shape)]
    if max_coords is not None and max_coords < len(coords):
        if rng is None:
            raise ValueError("sampling coordinates needs an rng")
        chosen = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in chosen]

    by_name = dict(items)
    worst = FiniteDiffResult(0.0, "", (), 0.0, 0.0, len(coords))
    for name, idx in coords:
        t = by_name[name]
        orig = t.data[idx]
        t.data[idx] = orig + step
        fp = float(f().data)
        t.data[idx] = orig - step
        fm = float(f().data)
        t.data[idx] = orig
        numeric = (fp - fm) / (2.0 * step)
        a = float(analytic[name][idx])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), rel_floor)
        if rel > worst.max_rel_error:
            worst = FiniteDiffResult(rel, name, idx, a, numeric, len(coords))
    return worst
