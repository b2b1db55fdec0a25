"""Training loop, LAMB optimizer, and checkpointing.

LAMB applies an Adam-style update per parameter block, rescaled by the
layer-wise trust ratio |w| / |update| so the step size adapts to each
block's scale. The learning rate ramps linearly over the warmup steps and
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
from .model import ModelParameters, forward, loss, parameter_shapes
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


@dataclass
class OptimizerState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def lamb_step(params: ModelParameters, state: OptimizerState, cfg: TrainConfig) -> float:
    """One LAMB update over every parameter block. Returns the learning
    rate used. Any non-finite gradient aborts the step."""
    for name, tensor in params.items():
        g = tensor.grad
        if g is None:
            g = np.zeros_like(tensor.data)
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient in {name} at step {state.step + 1}")
    state.step += 1
    t = state.step
    lr = lr_at(t, cfg.peak_lr, cfg.warmup_steps)
    for name, tensor in params.items():
        w = tensor.data
        g = tensor.grad if tensor.grad is not None else np.zeros_like(w)
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(w)
            state.v[name] = np.zeros_like(w)
        v = state.v[name]
        m[:] = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v[:] = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
        m_hat = m / (1.0 - cfg.beta1 ** t)
        v_hat = v / (1.0 - cfg.beta2 ** t)
        update = m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * w
        w_norm = float(np.linalg.norm(w))
        u_norm = float(np.linalg.norm(update))
        trust = w_norm / u_norm if w_norm > 0 and u_norm > 0 else 1.0
        w -= (lr * trust) * update
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
            raw = bytearray(os.fstat(f.fileno()).st_size)
            got = f.readinto(raw)
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from None
    if raw[:4] != CHECKPOINT_MAGIC or got < 16:
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
        manifest = json.loads(raw[16:16 + manifest_len])
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
        if f"m:{name}" in arrays:
            opt.m[name] = arrays[f"m:{name}"]
            opt.v[name] = arrays[f"v:{name}"]
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
        return max(1, cfg.checkpoint_every_steps)
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
        out = forward(params, batch.input_ids, batch.condition_ids,
                      mode="train", rng=rng, condition_mask=batch.condition_mask)
        result = loss(out, batch.target_ids, batch.target_pos,
                      batch.target_dep, batch.target_ent, batch.loss_mask)
        total = float(result.total.data)
        if not np.isfinite(total):
            raise NumericalError(
                f"non-finite loss at step {opt.step + 1}: "
                f"token={result.token} pos={result.pos} dep={result.dep} ent={result.ent}")
        params.zero_grad()
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
