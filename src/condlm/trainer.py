"""Training loop, LAMB optimizer, and checkpointing.

LAMB applies an Adam-style update per parameter block, rescaled by the
layer-wise trust ratio |w| / |update| so the step size adapts to each
block's scale. It runs on the model's flat parameter arena and on flat
moments laid out the same way. The learning rate ramps linearly over the
warmup steps and then holds at the peak. Checkpoints are a single binary
file: magic, format version, a canonical JSON manifest (config, step, RNG
state, dtype, whether moments follow), zero padding to an aligned offset,
then the arena's bytes and, if present, the two moment buffers'. The
names, shapes and spans of the tensors come from ``parameter_shapes``.
Loading reads each block into its own buffer and hands out views of it, so
a holder of the parameters does not keep the moments alive, and a resumed
run trains in place in those buffers. save -> load -> save is
byte-identical, and a resumed run replays the uninterrupted one exactly.

A training step drops its graph once backward has run, so only one graph
is alive at a time. ``train`` first tells glibc's malloc to keep freed
memory in the process (see ``_keep_freed_pages``), so the next step's
forward reuses those pages instead of faulting fresh ones in.
"""

from __future__ import annotations

import ctypes
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
from .errors import ConfigError, DataError, NumericalError
from .model import ModelParameters, forward, loss, parameter_shapes
from .textio import remove_stale_temps, write_atomic
from .tokenizer import PAD_ID, TokenizerModel
from .vocab import ConditionVocab, LabelVocabs

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"CLMC"
CHECKPOINT_VERSION = 3
# The payload starts at a multiple of this many bytes from the start of the
# file, so every block, and every tensor in it, sits at an aligned offset.
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
class OptimizerState:
    """Step count and LAMB's moments. ``flat`` holds the ``m`` and ``v``
    buffers, laid out like the parameter arena: zeros from the first step,
    or views of a loaded checkpoint, updated in place. ``m[name]`` and
    ``v[name]`` are per-tensor views of them. The groups of blocks a step
    walks (start, stop, block spans) and two scratch buffers the size of
    the largest group are set up by the first step and kept."""
    step: int = 0
    flat: tuple[np.ndarray, np.ndarray] | None = None
    m: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    groups: list[tuple[int, int, list[tuple[int, int]]]] = field(
        default_factory=list, init=False, repr=False, compare=False)
    scratch: tuple[np.ndarray, np.ndarray] = field(
        default=(), init=False, repr=False, compare=False)


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


def _set_up(params: ModelParameters, state: OptimizerState) -> None:
    """Zero moments unless the state holds some, then the groups and the
    scratch buffers."""
    if state.flat is None:
        state.flat = (np.zeros_like(params.data), np.zeros_like(params.data))
        state.m, state.v = (params.layout(buf) for buf in state.flat)
    elif any(buf.shape != params.data.shape or buf.dtype != params.dtype for buf in state.flat):
        raise ValueError("the optimizer's moments are not laid out like these parameters")
    state.groups = _groups(params.spans)
    most = max(b - a for a, b, _ in state.groups)
    state.scratch = (np.empty(most, dtype=params.dtype), np.empty(most, dtype=params.dtype))


def lamb_step(params: ModelParameters, state: OptimizerState, cfg: TrainConfig) -> float:
    """One LAMB update over every parameter block, run on the flat arena
    group by group (see ``LAMB_GROUP``): whole-slice passes for the moments
    and the update direction, one dot product per block for each norm.
    Returns the learning rate used. Any non-finite gradient aborts the
    step."""
    grads = params.grads()
    # A gradient assigned to a tensor directly, or left None (zero), takes
    # the place of its arena view.
    for tensor, view in zip(params.tensors.values(), grads):
        if tensor.grad is not view:
            view[...] = 0 if tensor.grad is None else tensor.grad
    if not np.isfinite(params.grad).all():
        for name, view in zip(params.tensors, grads):
            if not np.isfinite(view).all():
                raise NumericalError(f"non-finite gradient in {name} at step {state.step + 1}")
    if not state.groups:
        _set_up(params, state)
    state.step += 1
    t = state.step
    lr = lr_at(t, cfg.peak_lr, cfg.warmup_steps)
    b1, b2 = cfg.beta1, cfg.beta2
    for a, b, blocks in state.groups:
        g, w = params.grad[a:b], params.data[a:b]
        m, v = state.flat[0][a:b], state.flat[1][a:b]
        s, u = state.scratch[0][:b - a], state.scratch[1][:b - a]
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

def _aligned(n: int) -> int:
    return -(-n // CHECKPOINT_ALIGN) * CHECKPOINT_ALIGN


def save_checkpoint(path, params: ModelParameters, opt: OptimizerState | None,
                    rng: np.random.Generator, train_cfg: TrainConfig) -> None:
    if list(params.shapes.items()) != list(parameter_shapes(params.config).items()):
        raise ValueError("a checkpoint holds the parameters that parameter_shapes(config) "
                         "lists, in its order")
    blocks = [params.data]
    if opt is not None and opt.flat is not None:
        blocks += opt.flat
    manifest = {
        "config_hash": config_hash(params.config),
        "model_config": dataclasses.asdict(params.config),
        "train_config": dataclasses.asdict(train_cfg),
        "step": opt.step if opt is not None else 0,
        "rng_state": rng.bit_generator.state,
        "dtype": params.dtype.str,
        "moments": len(blocks) == 3,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    header = CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)) + blob
    write_atomic(path, [header.ljust(_aligned(len(header)), b"\0"), *blocks])


@dataclass
class Checkpoint:
    params: ModelParameters
    opt: OptimizerState
    rng: np.random.Generator
    model_config: ModelConfig
    train_config: TrainConfig
    step: int


def load_checkpoint(path, expect_hash: str | None = None) -> Checkpoint:
    """Read a checkpoint's header, then each block (parameters, ``m``,
    ``v``) into its own buffer. The parameter arena and the two moment
    buffers are those buffers, so nothing is copied after the read, a
    resumed run trains in place in them, and a holder of the parameters
    alone keeps one block alive, not three."""
    try:
        with open(path, "rb") as f:
            return _read_checkpoint(f, path, expect_hash)
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from None


def _read_checkpoint(f, path, expect_hash: str | None) -> Checkpoint:
    got = os.fstat(f.fileno()).st_size
    head = f.read(16)
    if head[:4] != CHECKPOINT_MAGIC or len(head) < 16:
        raise DataError(f"{path} is not a checkpoint (bad magic or short header)")
    version, manifest_len = struct.unpack_from("<IQ", head, 4)
    if version in (1, 2):
        raise DataError(f"checkpoint {path} was written by format {version}, which this "
                        f"version cannot read; re-train it")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"checkpoint {path} has unsupported format version {version}")
    if 16 + manifest_len > got:
        raise DataError(f"checkpoint {path} is truncated inside its manifest")
    try:
        manifest = json.loads(f.read(manifest_len))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"checkpoint {path} manifest is not valid JSON: {e}") from None
    try:
        model_cfg = ModelConfig(**manifest["model_config"])
        model_cfg.validate()
        train_cfg = TrainConfig(**manifest["train_config"])
        stored_hash, step, dtype = manifest["config_hash"], manifest["step"], manifest["dtype"]
        if isinstance(step, bool) or not isinstance(step, int) or step < 0:
            raise TypeError(f"step is {step!r}, not a non-negative integer")
        rng = np.random.default_rng(0)
        rng.bit_generator.state = manifest["rng_state"]
        if not isinstance(manifest["moments"], bool):
            raise TypeError(f"moments is {manifest['moments']!r}, not true or false")
        names = ["parameter"] + (["m", "v"] if manifest["moments"] else [])
        size = sum(math.prod(shape) for shape in parameter_shapes(model_cfg).values())
    except (KeyError, TypeError, ValueError, ConfigError) as e:
        raise DataError(f"checkpoint {path} manifest is malformed: {e!r}") from None
    if dtype not in ("<f4", "<f8"):
        raise DataError(f"checkpoint {path} holds dtype {dtype!r}, not <f4 or <f8")
    if expect_hash is not None and stored_hash != expect_hash:
        raise DataError(f"checkpoint {path} was written under a different model configuration")
    if stored_hash != config_hash(model_cfg):
        raise DataError(f"checkpoint {path} manifest hash does not match its config")

    start, nbytes = _aligned(16 + manifest_len), size * np.dtype(dtype).itemsize
    for i, name in enumerate(names):
        if start + (i + 1) * nbytes > got:
            raise DataError(f"checkpoint {path} is truncated inside its {name} block")
    if got > start + len(names) * nbytes:
        raise DataError(f"checkpoint {path} has {got - start - len(names) * nbytes} "
                        f"trailing bytes after its last block")
    f.seek(start)
    blocks = []
    for name in names:
        # np.empty, not a bytearray: numpy skips the zero fill and backs a
        # buffer this large with huge pages, so reading it faults few pages
        block = np.empty(size, dtype)
        if f.readinto(block) != nbytes:
            raise DataError(f"checkpoint {path} is truncated inside its {name} block")
        blocks.append(block)
    params = ModelParameters(model_cfg, blocks[0])
    opt = OptimizerState(step=step)
    if len(blocks) == 3:
        opt.flat = (blocks[1], blocks[2])
        opt.m, opt.v = params.layout(blocks[1]), params.layout(blocks[2])
    return Checkpoint(params, opt, rng, model_cfg, train_cfg, step)


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


# glibc's mallopt parameters (malloc.h).
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def _keep_freed_pages() -> None:
    """Ask glibc's malloc to serve blocks under 32 MiB from its heap and to
    hand freed heap memory back to the OS only past 1 GiB at the top. A step
    frees its graph before the next forward builds one of the same shape;
    without this, malloc unmaps or trims that memory and every forward faults
    its activations back in. A libc without ``mallopt`` is left as it is."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except OSError:
        return
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 1 << 30)


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
    if checkpoint_dir is not None:
        for path in remove_stale_temps(checkpoint_dir, "ckpt-*"):
            log.info("removed %s, left by a process that is no longer running", path)
    _keep_freed_pages()
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
        heads = result.token, result.pos, result.dep, result.ent
        # the graph goes now, so the next forward is the only one alive
        del out, result
        lr = lamb_step(params, opt, train_cfg)
        stats = StepStats(opt.step, lr, total, *heads)
        history.append(stats)
        if on_step is not None:
            on_step(stats)
        if train_cfg.log_every and opt.step % train_cfg.log_every == 0:
            log.info("step %d lr %.2e loss %.4f (token %.4f pos %.4f dep %.4f ent %.4f)",
                     stats.step, lr, total, *heads)
        if checkpoint_dir is not None and opt.step % cadence == 0:
            _write_checkpoint(checkpoint_dir, params, opt, rng, train_cfg)
    return history
