"""Training loop, LAMB optimizer, and checkpointing.

LAMB applies an Adam-style update per parameter block, rescaled by the
layer-wise trust ratio |w| / |update| so the step size adapts to each
block's scale. It runs on the model's flat parameter arena and on flat
moments laid out the same way. The learning rate ramps linearly over the warmup steps and
then holds at the peak. Checkpoints are a single binary file: magic,
format version, a canonical JSON manifest (config, step, RNG state, tensor
index), then raw little-endian tensor payloads, zero-padded so that the
payload and every tensor start at an aligned offset. Loading reads the file
once and hands out views of that buffer. save -> load -> save is
byte-identical, and a resumed run replays the uninterrupted one exactly.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import ModelConfig, TrainConfig, config_hash
from .corpus import AnnotatedRecord, build_batch, sample_window
from .errors import DataError, NumericalError
from .model import Arena, ModelParameters, forward, loss, parameter_shapes
from .tokenizer import PAD_ID, TokenizerModel
from .vocab import ConditionVocab, LabelVocabs

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"CLMC"
CHECKPOINT_VERSION = 2
# The payload and every tensor in it start at a multiple of this many bytes
# from the start of the file, so a read buffer yields aligned views.
CHECKPOINT_ALIGN = 64


def lr_at(step: int, peak: float, warmup: int) -> float:
    """Linear ramp from zero over ``warmup`` steps, then constant."""
    if warmup <= 0:
        return peak
    return peak * min(step, warmup) / warmup


# LAMB walks the arena in groups of consecutive blocks holding at least this
# many elements. A group's six slices (weights, gradient, two moments, two
# scratch) then stay in a core's cache across the dozen passes of a step,
# where whole-arena passes over a 26 MB arena run at memory speed; each
# group costs a dozen numpy calls.
LAMB_GROUP = 1 << 16


@dataclass
class FlatMoments:
    """LAMB's moments laid out like the parameter arena, their per-tensor
    views, the groups of blocks a step walks (start, stop, block spans),
    and two scratch buffers the size of the largest group, kept between
    steps."""
    m: np.ndarray
    v: np.ndarray
    m_views: list[np.ndarray]
    v_views: list[np.ndarray]
    groups: list[tuple[int, int, list[tuple[int, int]]]]
    scratch: tuple[np.ndarray, np.ndarray]


@dataclass
class OptimizerState:
    """Step count and LAMB moments by parameter name. Once a step has run,
    ``m[name]`` and ``v[name]`` are views of the flat moments."""
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    flat: FlatMoments | None = field(default=None, init=False, repr=False, compare=False)


def _groups(spans: list[tuple[int, int]]) -> list[tuple[int, int, list[tuple[int, int]]]]:
    groups, start, blocks = [], 0, []
    for a, b in spans:
        blocks.append((a, b))
        if b - start >= LAMB_GROUP:
            groups.append((start, b, blocks))
            start, blocks = b, []
    if blocks:
        groups.append((start, blocks[-1][1], blocks))
    return groups


def _flat_moments(params: ModelParameters, arena: Arena, state: OptimizerState) -> FlatMoments:
    """The state's flat moments, built on first use (and again if an entry
    of ``m`` or ``v`` has been replaced since) from whatever moments the
    state holds; missing ones start at zero."""
    flat = state.flat
    names = list(params.tensors)
    if flat is not None and flat.m.size == arena.data.size \
            and all(state.m.get(n) is mv and state.v.get(n) is vv
                    for n, mv, vv in zip(names, flat.m_views, flat.v_views)):
        return flat
    size, dtype = arena.data.size, arena.data.dtype
    m, v = np.zeros(size, dtype=dtype), np.zeros(size, dtype=dtype)
    m_views, v_views = [], []
    for name, data, (a, b) in zip(names, arena.datas, arena.spans):
        for buf, moments, views in ((m, state.m, m_views), (v, state.v, v_views)):
            if name in moments:
                buf[a:b] = np.ravel(moments[name])
            moments[name] = buf[a:b].reshape(data.shape)
            views.append(moments[name])
    groups = _groups(arena.spans)
    most = max(b - a for a, b, _ in groups)
    state.flat = FlatMoments(m, v, m_views, v_views, groups,
                             (np.empty(most, dtype=dtype), np.empty(most, dtype=dtype)))
    return state.flat


def lamb_step(params: ModelParameters, state: OptimizerState, cfg: TrainConfig) -> float:
    """One LAMB update over every parameter block, run on the flat arena
    group by group (see ``LAMB_GROUP``): whole-slice passes for the moments
    and the update direction, one dot product per block for each norm.
    Returns the learning rate used. Any non-finite gradient aborts the
    step."""
    arena = params.arena()
    # A gradient assigned to a tensor directly, or left None (zero), takes
    # the place of its arena view.
    for tensor, view in zip(params.tensors.values(), arena.grads):
        if tensor.grad is not view:
            view[...] = 0 if tensor.grad is None else tensor.grad
    if not np.isfinite(arena.grad).all():
        for name, view in zip(params.tensors, arena.grads):
            if not np.isfinite(view).all():
                raise NumericalError(f"non-finite gradient in {name} at step {state.step + 1}")
    flat = _flat_moments(params, arena, state)
    state.step += 1
    t = state.step
    lr = lr_at(t, cfg.peak_lr, cfg.warmup_steps)
    b1, b2 = cfg.beta1, cfg.beta2
    for a, b, blocks in flat.groups:
        g, w, m, v = arena.grad[a:b], arena.data[a:b], flat.m[a:b], flat.v[a:b]
        s, u = flat.scratch[0][:b - a], flat.scratch[1][:b - a]
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        np.multiply(g, 1.0 - b1, out=s)
        m *= b1
        m += s
        np.multiply(g, g, out=s)
        s *= 1.0 - b2
        v *= b2
        v += s
        # u = m_hat / (sqrt(v_hat) + eps) + weight_decay w
        np.divide(m, 1.0 - b1 ** t, out=s)
        np.divide(v, 1.0 - b2 ** t, out=u)
        np.sqrt(u, out=u)
        u += cfg.eps
        np.divide(s, u, out=u)
        np.multiply(w, cfg.weight_decay, out=s)
        u += s
        # Per block: scale the update by lr * |w| / |u| (the trust ratio).
        for c, e in blocks:
            wb, ub = w[c - a:e - a], u[c - a:e - a]
            w_norm = float(np.sqrt(wb.dot(wb)))
            u_norm = float(np.sqrt(ub.dot(ub)))
            trust = w_norm / u_norm if w_norm > 0 and u_norm > 0 else 1.0
            ub *= lr * trust
        w -= u
    return lr


@dataclass
class StepStats:
    step: int
    lr: float
    loss: float
    token: float
    pos: float
    dep: float
    ent: float


# ---------------------------------------------------------------------------
# Checkpoint container.

def _tensor_entries(params: ModelParameters, opt: OptimizerState | None):
    for name, tensor in params.items():
        yield f"p:{name}", tensor.data
    if opt is not None:
        for name in params.tensors:
            if name in opt.m:
                yield f"m:{name}", opt.m[name]
                yield f"v:{name}", opt.v[name]


def _aligned(n: int) -> int:
    return -(-n // CHECKPOINT_ALIGN) * CHECKPOINT_ALIGN


def save_checkpoint(path, params: ModelParameters, opt: OptimizerState | None,
                    rng: np.random.Generator, train_cfg: TrainConfig) -> None:
    entries = [(name, np.ascontiguousarray(arr)) for name, arr in _tensor_entries(params, opt)]
    index = []
    offset = 0
    for name, arr in entries:
        offset = _aligned(offset)
        index.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape),
                      "offset": offset, "nbytes": arr.nbytes})
        offset += arr.nbytes
    manifest = {
        "config_hash": config_hash(params.config),
        "model_config": dataclasses.asdict(params.config),
        "train_config": dataclasses.asdict(train_cfg),
        "step": opt.step if opt is not None else 0,
        "rng_state": rng.bit_generator.state,
        "tensors": index,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    header = CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)) + blob
    with open(path, "wb") as f:
        f.write(header.ljust(_aligned(len(header)), b"\0"))
        written = 0
        for entry, (_, arr) in zip(index, entries):
            f.write(bytes(entry["offset"] - written))
            f.write(memoryview(arr).cast("B"))
            written = entry["offset"] + arr.nbytes


@dataclass
class Checkpoint:
    params: ModelParameters
    opt: OptimizerState
    rng: np.random.Generator
    model_config: ModelConfig
    train_config: TrainConfig
    step: int


def load_checkpoint(path, expect_hash: str | None = None) -> Checkpoint:
    """Read a checkpoint into one buffer; every parameter and moment is a
    writable view of it, so nothing is copied after the read."""
    try:
        with open(path, "rb") as f:
            # not a bytearray: numpy skips the zero fill and backs a buffer
            # this large with huge pages, so reading it faults few pages
            raw = np.empty(os.fstat(f.fileno()).st_size, np.uint8)
            got = f.readinto(raw)
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from None
    if raw[:4].tobytes() != CHECKPOINT_MAGIC or got < 16:
        raise DataError(f"{path} is not a checkpoint (bad magic or short header)")
    version, manifest_len = struct.unpack_from("<IQ", raw, 4)
    if version == 1:
        raise DataError(f"checkpoint {path} was written by format 1, which this version "
                        f"cannot read; re-save or re-train it")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"checkpoint {path} has unsupported format version {version}")
    if 16 + manifest_len > got:
        raise DataError(f"checkpoint {path} is truncated inside its manifest")
    try:
        manifest = json.loads(raw[16:16 + manifest_len].tobytes())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"checkpoint {path} manifest is not valid JSON: {e}") from None
    try:
        model_cfg = ModelConfig(**manifest["model_config"])
        train_cfg = TrainConfig(**manifest["train_config"])
        stored_hash, step = manifest["config_hash"], manifest["step"]
        rng = np.random.default_rng(0)
        rng.bit_generator.state = manifest["rng_state"]
        index = [(e["name"], int(e["offset"]), int(e["nbytes"]), np.dtype(e["dtype"]),
                  tuple(e["shape"])) for e in manifest["tensors"]]
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"checkpoint {path} manifest is malformed: {e!r}") from None
    if expect_hash is not None and stored_hash != expect_hash:
        raise DataError(f"checkpoint {path} was written under a different model configuration")
    if stored_hash != config_hash(model_cfg):
        raise DataError(f"checkpoint {path} manifest hash does not match its config")

    payload = _aligned(16 + manifest_len)
    arrays = {}
    for name, offset, nbytes, dtype, shape in index:
        if offset < 0 or payload + offset + nbytes > got:
            raise DataError(f"checkpoint {path} is truncated: tensor {name} runs past the payload")
        count = math.prod(shape)
        if nbytes != dtype.itemsize * count:
            raise DataError(f"checkpoint {path} tensor {name} holds {nbytes} bytes, not {shape} {dtype}")
        arrays[name] = np.frombuffer(raw, dtype, count, payload + offset).reshape(shape)

    tensors = {}
    opt = OptimizerState(step=step)
    for name, shape in parameter_shapes(model_cfg).items():
        stored = arrays.get(f"p:{name}")
        if stored is None or stored.shape != shape:
            raise DataError(f"checkpoint {path} is missing tensor {name} or has a wrong shape")
        tensors[name] = ad.parameter(stored)
        m, v = arrays.get(f"m:{name}"), arrays.get(f"v:{name}")
        if (m is None) != (v is None):
            raise DataError(f"checkpoint {path} holds one moment of tensor {name} without the other")
        if m is not None:
            if m.shape != shape or v.shape != shape:
                raise DataError(f"checkpoint {path} has a moment of tensor {name} "
                                f"whose shape is not {shape}")
            opt.m[name], opt.v[name] = m, v
    return Checkpoint(ModelParameters(model_cfg, tensors), opt, rng, model_cfg, train_cfg, step)


# ---------------------------------------------------------------------------
# Training loop.

def _draw_batch(records: list[AnnotatedRecord], tok: TokenizerModel,
                cvocab: ConditionVocab, labels: LabelVocabs,
                cfg: TrainConfig, max_seq: int, rng: np.random.Generator):
    """Sample records with replacement; each visit draws a fresh window.
    Records too short to window are skipped (every record short -> error)."""
    windows = []
    attempts = 0
    while len(windows) < cfg.batch_size:
        if attempts > 20 * cfg.batch_size:
            raise DataError("no record in the corpus yields a training window")
        attempts += 1
        rec = records[int(rng.integers(len(records)))]
        try:
            windows.append(sample_window(rec, tok, cvocab, labels, max_seq, rng,
                                         temperature=cfg.subword_temperature))
        except DataError:
            continue
    return build_batch(windows, PAD_ID)


def _checkpoint_cadence(cfg: TrainConfig, corpus_size: int) -> int:
    if cfg.checkpoint_every_steps is not None:
        return cfg.checkpoint_every_steps
    per_batch = cfg.batch_size
    return max(1, round(cfg.checkpoint_fraction * corpus_size / per_batch))


def _write_checkpoint(checkpoint_dir, params, opt, rng, train_cfg, keep: int = 2):
    os.makedirs(checkpoint_dir, exist_ok=True)
    path = os.path.join(checkpoint_dir, f"ckpt-{opt.step:07d}.bin")
    save_checkpoint(path, params, opt, rng, train_cfg)
    kept = sorted(p for p in os.listdir(checkpoint_dir)
                  if p.startswith("ckpt-") and p.endswith(".bin"))
    for old in kept[:-keep]:
        os.remove(os.path.join(checkpoint_dir, old))
    return path


def train(params: ModelParameters, records: list[AnnotatedRecord],
          tok: TokenizerModel, cvocab: ConditionVocab, labels: LabelVocabs,
          train_cfg: TrainConfig, *,
          opt: OptimizerState | None = None,
          rng: np.random.Generator | None = None,
          checkpoint_dir=None,
          on_step=None) -> list[StepStats]:
    """Run LAMB steps until ``train_cfg.steps``. Pass the ``opt`` and
    ``rng`` from a loaded checkpoint to resume; the resumed trajectory is
    bit-identical to an uninterrupted one because every source of
    randomness (batch draws, window offsets, dropout) comes from the one
    restored generator."""
    train_cfg.validate()
    if not records:
        raise DataError("training corpus is empty")
    if opt is None:
        opt = OptimizerState()
    if rng is None:
        rng = np.random.default_rng(train_cfg.seed)
    cadence = _checkpoint_cadence(train_cfg, len(records))
    history: list[StepStats] = []
    while opt.step < train_cfg.steps:
        batch = _draw_batch(records, tok, cvocab, labels, train_cfg,
                            params.config.max_seq, rng)
        params.zero_grad()
        out = forward(params, batch.input_ids, batch.condition_ids,
                      mode="train", rng=rng, condition_mask=batch.condition_mask)
        result = loss(out, batch.target_ids, batch.target_pos,
                      batch.target_dep, batch.target_ent, batch.loss_mask)
        total = float(result.total.data)
        if not np.isfinite(total):
            raise NumericalError(
                f"non-finite loss at step {opt.step + 1}: "
                f"token={result.token} pos={result.pos} dep={result.dep} ent={result.ent}")
        ad.backward(result.total)
        lr = lamb_step(params, opt, train_cfg)
        stats = StepStats(opt.step, lr, total, result.token, result.pos,
                          result.dep, result.ent)
        history.append(stats)
        if on_step is not None:
            on_step(stats)
        if train_cfg.log_every and opt.step % train_cfg.log_every == 0:
            log.info("step %d lr %.2e loss %.4f (token %.4f pos %.4f dep %.4f ent %.4f)",
                     stats.step, lr, total, result.token, result.pos, result.dep, result.ent)
        if checkpoint_dir is not None and opt.step % cadence == 0:
            _write_checkpoint(checkpoint_dir, params, opt, rng, train_cfg)
    return history
