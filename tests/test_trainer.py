import ctypes
import errno
import gc
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from condlm import autodiff as ad
from condlm import trainer as tr
from condlm.config import ModelConfig, TrainConfig, config_hash
from condlm.errors import ConfigError, DataError, NumericalError
from condlm.model import ModelParameters, init_parameters

from oracles import o_lamb_step


def small_cfg():
    return ModelConfig(d_model=16, heads=2, encoder_blocks=1, decoder_blocks=1,
                       ff_size=32, dropout=0.0, max_seq=32, token_vocab=160,
                       pos_vocab=5, dep_vocab=4, ent_vocab=3, cond_vocab=9)


def scalar_params(w, cfg=None):
    params = ModelParameters(cfg or small_cfg(), np.array([float(w)]), {"w": (1,)})
    return params, params["w"]


def owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns an array's memory."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    assert arr.flags.owndata, f"{arr.base!r} owns the memory, not an array"
    return arr


# --- learning-rate schedule -----------------------------------------------------

def test_lr_warmup_ramp():
    assert tr.lr_at(0, 1e-3, 50) == 0.0
    assert tr.lr_at(25, 1e-3, 50) == pytest.approx(5e-4)
    assert tr.lr_at(50, 1e-3, 50) == pytest.approx(1e-3)
    assert tr.lr_at(5000, 1e-3, 50) == pytest.approx(1e-3)
    assert tr.lr_at(1, 2e-3, 0) == 2e-3  # no warmup: constant


# --- configuration -----------------------------------------------------------------

@pytest.mark.parametrize("key, value", [
    ("eps", 0.0), ("eps", -1e-8), ("beta1", 1.0), ("beta1", -0.1),
    ("beta2", 1.0), ("beta2", 1.5), ("weight_decay", -0.01), ("eps", float("nan")),
    ("peak_lr", float("nan")), ("peak_lr", float("inf")), ("peak_lr", 0.0),
    ("checkpoint_fraction", 0.0), ("checkpoint_fraction", float("nan")),
    ("checkpoint_fraction", float("inf")), ("checkpoint_every_steps", 0),
    ("log_every", -3), ("subword_temperature", float("nan")),
    ("subword_temperature", -0.5), ("subword_temperature", float("inf")),
])
def test_train_config_rejects_bad_lamb_settings(key, value):
    TrainConfig().validate()
    with pytest.raises(ConfigError, match=rf"^{key}: "):
        TrainConfig(**{key: value}).validate()


def test_train_config_accepts_lamb_edges():
    TrainConfig(beta1=0.0, beta2=0.0, weight_decay=0.0, eps=1e-12).validate()
    TrainConfig(checkpoint_every_steps=1, log_every=0, subword_temperature=0.0).validate()


# --- LAMB -------------------------------------------------------------------------

def hand_lamb(w, g, cfg, steps):
    """Scalar LAMB recomputed with plain python floats."""
    m = v = 0.0
    for t in range(1, steps + 1):
        lr = cfg.peak_lr * min(t, cfg.warmup_steps) / cfg.warmup_steps \
            if cfg.warmup_steps > 0 else cfg.peak_lr
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        m_hat = m / (1 - cfg.beta1 ** t)
        v_hat = v / (1 - cfg.beta2 ** t)
        update = m_hat / (math.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * w
        trust = abs(w) / abs(update) if w != 0 and update != 0 else 1.0
        w = w - lr * trust * update
    return w


def test_lamb_scalar_matches_hand_derivation():
    cfg = TrainConfig(peak_lr=1e-2, warmup_steps=2, weight_decay=0.01)
    params, t = scalar_params(0.5)
    state = tr.OptimizerState()
    g = 0.3
    for step in range(1, 4):
        t.grad = np.array([g])
        tr.lamb_step(params, state, cfg)
        assert t.data[0] == pytest.approx(hand_lamb(0.5, g, cfg, step), abs=1e-12)
    assert state.step == 3


def test_lamb_zero_gradient_zero_decay_is_noop():
    cfg = TrainConfig(weight_decay=0.0)
    params, t = scalar_params(0.7)
    t.grad = np.array([0.0])
    tr.lamb_step(params, tr.OptimizerState(), cfg)
    assert t.data[0] == 0.7


def test_lamb_missing_grad_treated_as_zero():
    cfg = TrainConfig(weight_decay=0.0)
    params, t = scalar_params(0.7)
    t.grad = None
    tr.lamb_step(params, tr.OptimizerState(), cfg)
    assert t.data[0] == 0.7


def test_lamb_trust_ratio_scale_invariant_direction():
    # with eps = 0 and no decay, scaling (w, g) by c leaves update/|w| unchanged
    cfg = TrainConfig(peak_lr=1e-3, warmup_steps=0, weight_decay=0.0, eps=0.0)
    rng = np.random.default_rng(0)
    w = rng.normal(size=(4, 3))
    g = rng.normal(size=(4, 3))
    deltas = []
    for c in (1.0, 10.0):
        params = ModelParameters(small_cfg(), (c * w).ravel(), {"w": w.shape})
        params["w"].grad = c * g.copy()
        tr.lamb_step(params, tr.OptimizerState(), cfg)
        deltas.append((params["w"].data - c * w) / c)
    np.testing.assert_allclose(deltas[0], deltas[1], atol=1e-9)


def test_lamb_rejects_nonfinite_grad_and_names_tensor():
    params, t = scalar_params(0.5)
    t.grad = np.array([np.nan])
    state = tr.OptimizerState(step=6)
    with pytest.raises(NumericalError, match=r"w at step 7"):
        tr.lamb_step(params, state, TrainConfig())
    assert state.step == 6  # aborted before advancing


def test_lamb_warmup_step_one_uses_ramped_lr():
    cfg = TrainConfig(peak_lr=1e-3, warmup_steps=50)
    params, t = scalar_params(0.5)
    t.grad = np.array([0.1])
    lr = tr.lamb_step(params, tr.OptimizerState(), cfg)
    assert lr == pytest.approx(1e-3 / 50)


@pytest.mark.parametrize("group, several", [(tr.LAMB_GROUP, False), (100, True)])
def test_arena_lamb_matches_per_tensor_oracle(monkeypatch, group, several):
    # a group of 100 elements splits the arena into many groups, most of
    # them smaller than the largest blocks
    monkeypatch.setattr(tr, "LAMB_GROUP", group)
    cfg = TrainConfig(peak_lr=1e-2, warmup_steps=3, weight_decay=0.01)
    params = init_parameters(small_cfg(), np.random.default_rng(5), dtype=ad.WIDE)
    ref = {name: t.data.copy() for name, t in params.items()}
    m, v = {}, {}
    state = tr.OptimizerState()
    rng = np.random.default_rng(6)
    for step in range(1, 6):
        params.zero_grad()
        grads = {}
        for name, t in params.items():
            grads[name] = rng.normal(size=t.data.shape)
            if name == "enc0.ln1.gain":
                t.grad = grads[name] = None  # no gradient reached it
            elif name == "head.pos":
                t.grad = grads[name].copy()  # assigned, not in the arena
            else:
                t.grad += grads[name]  # accumulated in place, as backward does
        lr = tr.lamb_step(params, state, cfg)
        assert lr == o_lamb_step(ref, grads, m, v, step, cfg)
        for name, t in params.items():
            assert np.max(np.abs(t.data - ref[name])) <= 1e-12, name
            assert np.max(np.abs(state.m[name] - m[name])) <= 1e-12, name
            assert np.max(np.abs(state.v[name] - v[name])) <= 1e-12, name
    assert state.step == 5
    assert (len(state.groups) > 1) == several
    assert [span for *_, blocks in state.groups for span in blocks] == params.spans
    m, v = state.flat
    assert all(np.shares_memory(state.m[n], m) and np.shares_memory(state.v[n], v)
               for n in params.tensors)


def test_zero_grad_binds_every_tensor_to_one_arena():
    params = init_parameters(small_cfg(), np.random.default_rng(0), dtype=ad.NARROW)
    before = {name: t.data.copy() for name, t in params.items()}
    for _, t in params.items():
        t.grad = np.ones_like(t.data)
    assert params.grad is None  # no gradient buffer before training
    params.zero_grad()
    grad = params.grad
    assert params.data.size == grad.size == sum(a.size for a in before.values())
    assert params.data.dtype == grad.dtype == np.float32
    for name, t in params.items():
        assert np.shares_memory(t.data, params.data) and np.shares_memory(t.grad, grad)
        np.testing.assert_array_equal(t.data, before[name])
        assert t.grad.shape == t.data.shape and not t.grad.any()
    # a second zero_grad reuses the same buffer
    params.zero_grad()
    assert params.grad is grad


def test_zero_grad_refuses_a_rebound_tensor():
    params, t = scalar_params(0.5)
    params.zero_grad()
    t.data = np.array([2.0])  # training would update the arena, not this array
    with pytest.raises(ValueError, match="parameter w no longer holds its view of the arena"):
        params.zero_grad()
    with pytest.raises(ValueError, match="parameter w no longer holds its view of the arena"):
        tr.lamb_step(params, tr.OptimizerState(), TrainConfig())
    assert params.data[0] == 0.5


# --- checkpoints -------------------------------------------------------------------

def trained_little_model(steps=3, seed=0):
    cfg = small_cfg()
    params = init_parameters(cfg, np.random.default_rng(seed), dtype=ad.NARROW)
    opt = tr.OptimizerState()
    tcfg = TrainConfig(precision="narrow")
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        for _, tensor in params.items():
            tensor.grad = rng.normal(size=tensor.data.shape).astype(np.float32)
        tr.lamb_step(params, opt, tcfg)
    return params, opt, rng, tcfg


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    params, opt, rng, tcfg = trained_little_model()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    tr.save_checkpoint(p1, params, opt, rng, tcfg)
    ck = tr.load_checkpoint(p1)
    tr.save_checkpoint(p2, ck.params, ck.opt, ck.rng, ck.train_config)
    assert p1.read_bytes() == p2.read_bytes()
    assert ck.step == opt.step
    for name, tensor in params.items():
        np.testing.assert_array_equal(ck.params[name].data, tensor.data)
        np.testing.assert_array_equal(ck.opt.m[name], opt.m[name])
        np.testing.assert_array_equal(ck.opt.v[name], opt.v[name])
    # restored generator continues the stream exactly
    assert ck.rng.random() == rng.random()


def test_checkpoint_restores_dtype(tmp_path):
    params, opt, rng, tcfg = trained_little_model()
    path = tmp_path / "c.bin"
    tr.save_checkpoint(path, params, opt, rng, tcfg)
    ck = tr.load_checkpoint(path)
    assert ck.params.dtype == np.float32


def test_checkpoint_hash_guard(tmp_path):
    params, opt, rng, tcfg = trained_little_model()
    path = tmp_path / "c.bin"
    tr.save_checkpoint(path, params, opt, rng, tcfg)
    other = small_cfg()
    other.d_model = 32
    with pytest.raises(DataError, match="different model configuration"):
        tr.load_checkpoint(path, expect_hash=config_hash(other))
    tr.load_checkpoint(path, expect_hash=config_hash(params.config))


def test_checkpoint_rejects_corruption(tmp_path):
    params, opt, rng, tcfg = trained_little_model()
    path = tmp_path / "c.bin"
    tr.save_checkpoint(path, params, opt, rng, tcfg)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="magic"):
        tr.load_checkpoint(bad)
    with pytest.raises(DataError):
        tr.load_checkpoint(tmp_path / "missing.bin")


def _manifest(raw: bytes) -> tuple[dict, int]:
    """The manifest and the payload's file offset."""
    (length,) = struct.unpack_from("<Q", raw, 8)
    return json.loads(raw[16:16 + length]), 16 + length


@pytest.mark.parametrize("precision", ["narrow", "wide"])
def test_checkpoint_is_aligned_and_loads_as_views(tmp_path, precision):
    # widths of 6 and 10 elements: the packed tensors start at offsets that
    # are no multiples of 64 bytes
    cfg = ModelConfig(d_model=6, heads=3, encoder_blocks=1, decoder_blocks=1, ff_size=10,
                      token_vocab=7, pos_vocab=3, dep_vocab=4, ent_vocab=5, cond_vocab=3)
    params = init_parameters(cfg, np.random.default_rng(0), dtype=ad.DTYPES[precision])
    opt = tr.OptimizerState(step=1, flat=(params.data + 1, params.data + 2))
    path = tmp_path / "c.bin"
    tr.save_checkpoint(path, params, opt, np.random.default_rng(0),
                       TrainConfig(precision=precision))
    raw = path.read_bytes()
    manifest, end = _manifest(raw)
    assert manifest["dtype"] == params.dtype.str and manifest["moments"] is True
    payload = -(-end // tr.CHECKPOINT_ALIGN) * tr.CHECKPOINT_ALIGN
    assert raw[end:payload] == bytes(payload - end)
    n = params.data.nbytes
    assert len(raw) == payload + 3 * n  # the three blocks, no trailing padding
    assert raw[payload:] == b"".join(a.tobytes() for a in (params.data, *opt.flat))

    ck = tr.load_checkpoint(path)
    blocks = (ck.params.data, *ck.opt.flat)
    views = ([t.data for _, t in ck.params.items()], list(ck.opt.m.values()),
             list(ck.opt.v.values()))
    assert all(len(vs) == len(params.tensors) for vs in views)
    for block, vs in zip(blocks, views):
        # each block is one buffer of exactly the block's size, and every
        # tensor of the block is a view of it: no copies
        assert owner(block) is block and block.nbytes == n
        assert all(owner(v) is block for v in vs)
        for arr in (block, *vs):
            assert arr.flags.writeable and arr.flags.aligned
    assert not any(np.shares_memory(a, b) for i, a in enumerate(blocks) for b in blocks[i + 1:])
    for name, tensor in params.items():
        np.testing.assert_array_equal(ck.params[name].data, tensor.data)
        np.testing.assert_array_equal(ck.opt.m[name], tensor.data + 1)
        np.testing.assert_array_equal(ck.opt.v[name], tensor.data + 2)


def test_checkpoint_without_moments_resumes_from_zero_moments(tmp_path):
    params, _, rng, tcfg = trained_little_model()
    path = tmp_path / "c.bin"
    tr.save_checkpoint(path, params, tr.OptimizerState(step=3), rng, tcfg)
    raw = path.read_bytes()
    manifest, end = _manifest(raw)
    assert manifest["moments"] is False
    assert len(raw) == -(-end // tr.CHECKPOINT_ALIGN) * tr.CHECKPOINT_ALIGN + params.data.nbytes
    ck = tr.load_checkpoint(path)
    assert ck.opt.flat is None and ck.opt.m == {} and ck.step == 3
    np.testing.assert_array_equal(ck.params.data, params.data)


def test_resumed_lamb_step_updates_the_read_buffer(tmp_path):
    params, opt, rng, tcfg = trained_little_model()
    path = tmp_path / "c.bin"
    tr.save_checkpoint(path, params, opt, rng, tcfg)
    ck = tr.load_checkpoint(path)
    blocks = (ck.params.data, *ck.opt.flat)
    grads = {name: rng.normal(size=t.data.shape).astype(np.float32) for name, t in params.items()}
    for state, model in ((opt, params), (ck.opt, ck.params)):
        model.zero_grad()
        for name, t in model.items():
            t.grad += grads[name]
        tr.lamb_step(model, state, tcfg)
    # the same buffers, one per block, updated in place ...
    assert all(a is b for a, b in zip((ck.params.data, *ck.opt.flat), blocks))
    assert all(owner(b) is b and b.nbytes == params.data.nbytes for b in blocks)
    assert all(owner(t.data) is blocks[0] for _, t in ck.params.items())
    assert all(owner(a) is blocks[1] for a in ck.opt.m.values())
    assert all(owner(a) is blocks[2] for a in ck.opt.v.values())
    assert not any(np.shares_memory(a, b) for i, a in enumerate(blocks) for b in blocks[i + 1:])
    # ... to the bytes of the uninterrupted state
    for mine, theirs in zip((params.data, *opt.flat), blocks):
        assert mine.tobytes() == theirs.tobytes()
    assert ck.opt.step == opt.step == 4


def test_save_refuses_parameters_that_are_not_the_model_inventory(tmp_path):
    params, t = scalar_params(0.5)
    with pytest.raises(ValueError, match="parameter_shapes"):
        tr.save_checkpoint(tmp_path / "c.bin", params, None, np.random.default_rng(0), TrainConfig())
    assert not (tmp_path / "c.bin").exists()


def test_damaged_checkpoints_name_the_file(tmp_path):
    params, opt, rng, tcfg = trained_little_model()
    path = tmp_path / "c.bin"
    tr.save_checkpoint(path, params, opt, rng, tcfg)
    raw = path.read_bytes()
    manifest, end = _manifest(raw)
    payload, n = -(-end // tr.CHECKPOINT_ALIGN) * tr.CHECKPOINT_ALIGN, params.data.nbytes

    def damaged(name, data):
        out = tmp_path / name
        out.write_bytes(data)
        return out

    for version in (1, 2):
        old = damaged(f"v{version}.bin", raw[:4] + struct.pack("<I", version) + raw[8:])
        with pytest.raises(DataError, match=rf"v{version}\.bin was written by format {version}"
                                            r".*re-train it"):
            tr.load_checkpoint(old)
    garbled = damaged("garbled.bin", raw[:16] + b"!" + raw[17:])
    with pytest.raises(DataError, match=r"garbled\.bin manifest is not valid JSON"):
        tr.load_checkpoint(garbled)
    short_manifest = damaged("short-manifest.bin", raw[:end - 5])
    with pytest.raises(DataError, match=r"short-manifest\.bin is truncated inside its manifest"):
        tr.load_checkpoint(short_manifest)
    for i, block in enumerate(("parameter", "m", "v")):
        short = damaged(f"short-{block}.bin", raw[:payload + i * n + n // 2])
        with pytest.raises(DataError, match=rf"short-{block}\.bin is truncated inside its {block} block"):
            tr.load_checkpoint(short)
    long = damaged("long.bin", raw + bytes(3))
    with pytest.raises(DataError, match=r"long\.bin has 3 trailing bytes"):
        tr.load_checkpoint(long)

    def rewritten(name, **changes):
        # the manifest with some keys changed, then the payload, realigned
        blob = json.dumps(dict(manifest, **changes), sort_keys=True, separators=(",", ":")).encode()
        header = raw[:4] + struct.pack("<IQ", tr.CHECKPOINT_VERSION, len(blob)) + blob
        return damaged(name, header.ljust(-(-len(header) // tr.CHECKPOINT_ALIGN)
                                          * tr.CHECKPOINT_ALIGN, b"\0") + raw[payload:])

    with pytest.raises(DataError, match=r"big-endian\.bin holds dtype '>f4', not <f4 or <f8"):
        tr.load_checkpoint(rewritten("big-endian.bin", dtype=">f4"))
    with pytest.raises(DataError, match=r"moments\.bin manifest is malformed"):
        tr.load_checkpoint(rewritten("moments.bin", moments=1))
    # without moments the two moment blocks are trailing bytes
    with pytest.raises(DataError, match=rf"no-moments\.bin has {2 * n} trailing bytes"):
        tr.load_checkpoint(rewritten("no-moments.bin", moments=False))
    # model configs that fail validation, each under its own hash
    for field, value in (("token_vocab", -1), ("d_model", 16.0)):
        bad_cfg = dict(manifest["model_config"], **{field: value})
        bad = rewritten(f"bad-{field}.bin", model_config=bad_cfg,
                        config_hash=config_hash(ModelConfig(**bad_cfg)))
        with pytest.raises(DataError, match=rf"bad-{field}\.bin manifest is malformed.*{field}"):
            tr.load_checkpoint(bad)
    # a string failed with a traceback, -5 trained at a negative learning
    # rate and 3.5 logged fractional steps; JSON true is a Python int
    for step in ("x", -5, 3.5, True):
        with pytest.raises(DataError, match=r"step\.bin manifest is malformed.*"
                                            r"step is .*, not a non-negative integer"):
            tr.load_checkpoint(rewritten("step.bin", step=step))
    assert tr.load_checkpoint(rewritten("intact.bin")).step == opt.step
    del manifest["rng_state"]
    blob = json.dumps(manifest).encode()
    malformed = damaged("malformed.bin", raw[:4] + struct.pack("<IQ", tr.CHECKPOINT_VERSION, len(blob))
                        + blob + raw[end:])
    with pytest.raises(DataError, match=r"malformed\.bin manifest is malformed"):
        tr.load_checkpoint(malformed)


def test_checkpoint_cadence():
    assert tr._checkpoint_cadence(TrainConfig(checkpoint_every_steps=7), 10_000) == 7
    # fraction: view 5% of 64k records at batch 16 -> every 200 steps
    cfg = TrainConfig(checkpoint_fraction=0.05, batch_size=16)
    assert tr._checkpoint_cadence(cfg, 64_000) == 200
    assert tr._checkpoint_cadence(TrainConfig(checkpoint_fraction=1e-9), 10) == 1


def test_write_checkpoint_keeps_last_two(tmp_path):
    params, opt, rng, tcfg = trained_little_model()
    for step in (1, 2, 3):
        opt.step = step
        tr._write_checkpoint(tmp_path, params, opt, rng, tcfg)
    names = sorted(os.listdir(tmp_path))
    assert names == ["ckpt-0000002.bin", "ckpt-0000003.bin"]


# --- the loop ---------------------------------------------------------------------

def toy_train_cfg(steps, **kw):
    base = dict(batch_size=8, steps=steps, peak_lr=1e-3, warmup_steps=10,
                precision="narrow", log_every=0)
    base.update(kw)
    return TrainConfig(**base)


def narrow_toy_params(toy_model_cfg, seed=1):
    return init_parameters(toy_model_cfg, np.random.default_rng(seed), dtype=ad.NARROW)


def test_train_decreases_loss(toy_records, toy_tok, toy_cvocab, toy_labels, toy_model_cfg):
    params = narrow_toy_params(toy_model_cfg)
    history = tr.train(params, toy_records, toy_tok, toy_cvocab, toy_labels,
                       toy_train_cfg(300))
    assert len(history) == 300
    assert history[0].step == 1 and history[-1].step == 300
    first = np.mean([h.loss for h in history[:10]])
    last = np.mean([h.loss for h in history[-10:]])
    assert last < first - 1.0  # measured drop over 300 steps is ~2.2 nats
    assert all(np.isfinite(h.loss) for h in history)


def test_train_respects_existing_steps(toy_records, toy_tok, toy_cvocab, toy_labels,
                                       toy_model_cfg):
    params = narrow_toy_params(toy_model_cfg)
    opt = tr.OptimizerState(step=5)
    history = tr.train(params, toy_records, toy_tok, toy_cvocab, toy_labels,
                       toy_train_cfg(8), opt=opt)
    assert [h.step for h in history] == [6, 7, 8]


def test_train_empty_corpus_rejected(toy_tok, toy_cvocab, toy_labels, toy_model_cfg):
    params = narrow_toy_params(toy_model_cfg)
    with pytest.raises(DataError, match="empty"):
        tr.train(params, [], toy_tok, toy_cvocab, toy_labels, toy_train_cfg(1))


def test_train_keeps_one_graph_alive(toy_records, toy_tok, toy_cvocab, toy_labels,
                                     toy_model_cfg):
    # by the time a step is reported its graph is gone, so the next forward
    # is never built beside it
    live = []

    def count_graph_nodes(stats):
        live.append(sum(1 for obj in gc.get_objects()
                        if isinstance(obj, ad.Tensor) and obj.parents))

    tr.train(narrow_toy_params(toy_model_cfg), toy_records, toy_tok, toy_cvocab,
             toy_labels, toy_train_cfg(3), on_step=count_graph_nodes)
    assert live == [0, 0, 0]


class _NoMallopt:
    pass


class _RecordingLibc:
    def __init__(self):
        self.calls = []
        # a function, which takes ctypes' argtypes and restype like a libc one
        self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


def _no_libc(name):
    raise OSError("no such library")


@pytest.mark.parametrize("libc", ["missing", "without mallopt", "recording"])
def test_the_allocator_call_is_a_no_op_where_libc_has_no_mallopt(
        monkeypatch, libc, toy_records, toy_tok, toy_cvocab, toy_labels, toy_model_cfg):
    expected = narrow_toy_params(toy_model_cfg)
    tr.train(expected, toy_records, toy_tok, toy_cvocab, toy_labels, toy_train_cfg(1))
    recording = _RecordingLibc()
    fakes = {"missing": _no_libc, "without mallopt": lambda name: _NoMallopt(),
             "recording": lambda name: recording}
    monkeypatch.setattr(ctypes, "CDLL", fakes[libc])
    params = narrow_toy_params(toy_model_cfg)
    tr.train(params, toy_records, toy_tok, toy_cvocab, toy_labels, toy_train_cfg(1))
    assert params.data.tobytes() == expected.data.tobytes()
    if libc == "recording":
        assert recording.calls == [(tr.M_MMAP_THRESHOLD, 32 << 20), (tr.M_TRIM_THRESHOLD, 1 << 30)]


def exited_pid() -> int:
    """The id of a process that has run and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid


def test_train_removes_temp_checkpoints_of_processes_that_are_gone(
        tmp_path, toy_records, toy_tok, toy_cvocab, toy_labels, toy_model_cfg):
    # a kill inside write_atomic leaves its temp file; the next run removes
    # it unless the process that wrote it still runs
    stale = tmp_path / f".ckpt-0000004.bin.{exited_pid()}.tmp"
    live = tmp_path / f".ckpt-0000004.bin.{os.getpid()}.tmp"
    for path in (stale, live):
        path.write_bytes(b"part of a checkpoint")
    tr.train(narrow_toy_params(toy_model_cfg), toy_records, toy_tok, toy_cvocab,
             toy_labels, toy_train_cfg(1, checkpoint_every_steps=100), checkpoint_dir=tmp_path)
    assert sorted(os.listdir(tmp_path)) == [live.name]


def test_resume_matches_uninterrupted_run(tmp_path, toy_records, toy_tok, toy_cvocab,
                                          toy_labels, toy_model_cfg):
    # one run of 30 steps vs 15 steps + checkpoint + 15 resumed steps
    cfg_a = toy_train_cfg(30, seed=7)
    params_a = narrow_toy_params(toy_model_cfg, seed=7)
    hist_a = tr.train(params_a, toy_records, toy_tok, toy_cvocab, toy_labels, cfg_a)

    cfg_b = toy_train_cfg(15, seed=7)
    params_b = narrow_toy_params(toy_model_cfg, seed=7)
    rng_b = np.random.default_rng(cfg_b.seed)
    opt_b = tr.OptimizerState()
    tr.train(params_b, toy_records, toy_tok, toy_cvocab, toy_labels, cfg_b,
             opt=opt_b, rng=rng_b)
    path = tmp_path / "mid.bin"
    tr.save_checkpoint(path, params_b, opt_b, rng_b, cfg_b)

    ck = tr.load_checkpoint(path)
    ck.train_config.steps = 30
    hist_b = tr.train(ck.params, toy_records, toy_tok, toy_cvocab, toy_labels,
                      ck.train_config, opt=ck.opt, rng=ck.rng)
    assert [h.step for h in hist_b] == list(range(16, 31))
    for ha, hb in zip(hist_a[15:], hist_b):
        assert ha.loss == hb.loss  # bitwise: same batches, same arithmetic
    for name, tensor in params_a.items():
        np.testing.assert_array_equal(tensor.data, ck.params[name].data)


def test_failed_checkpoint_save_leaves_the_last_one_resumable(
        tmp_path, monkeypatch, toy_records, toy_tok, toy_cvocab, toy_labels, toy_model_cfg):
    # The second checkpoint's fsync fails, as on a full disk: training stops,
    # the first checkpoint is still whole, and resuming from it reproduces the
    # uninterrupted run bit for bit.
    cfg = toy_train_cfg(12, seed=7, checkpoint_every_steps=4)
    params_a = narrow_toy_params(toy_model_cfg, seed=7)
    hist_a = tr.train(params_a, toy_records, toy_tok, toy_cvocab, toy_labels, cfg)

    real_fsync, calls = os.fsync, []

    def fsync(fd):
        calls.append(fd)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(OSError, match="No space left"):
        tr.train(narrow_toy_params(toy_model_cfg, seed=7), toy_records, toy_tok,
                 toy_cvocab, toy_labels, cfg, checkpoint_dir=tmp_path)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["ckpt-0000004.bin"]

    ck = tr.load_checkpoint(tmp_path / "ckpt-0000004.bin")
    hist_b = tr.train(ck.params, toy_records, toy_tok, toy_cvocab, toy_labels,
                      ck.train_config, opt=ck.opt, rng=ck.rng)
    assert [h.step for h in hist_b] == list(range(5, 13))
    assert [h.loss for h in hist_a[4:]] == [h.loss for h in hist_b]
    for name, tensor in params_a.items():
        np.testing.assert_array_equal(tensor.data, ck.params[name].data)


def test_train_writes_and_rotates_checkpoints(tmp_path, toy_records, toy_tok,
                                              toy_cvocab, toy_labels, toy_model_cfg):
    params = narrow_toy_params(toy_model_cfg)
    cfg = toy_train_cfg(6, checkpoint_every_steps=2)
    tr.train(params, toy_records, toy_tok, toy_cvocab, toy_labels, cfg,
             checkpoint_dir=tmp_path)
    names = sorted(os.listdir(tmp_path))
    assert names == ["ckpt-0000004.bin", "ckpt-0000006.bin"]
    ck = tr.load_checkpoint(tmp_path / "ckpt-0000006.bin")
    assert ck.step == 6


def test_on_step_callback_sees_stats(toy_records, toy_tok, toy_cvocab, toy_labels,
                                     toy_model_cfg):
    params = narrow_toy_params(toy_model_cfg)
    seen = []
    tr.train(params, toy_records, toy_tok, toy_cvocab, toy_labels,
             toy_train_cfg(3), on_step=seen.append)
    assert [s.step for s in seen] == [1, 2, 3]
    assert all(s.loss == pytest.approx(s.token + s.pos + s.dep + s.ent, rel=1e-5)
               for s in seen)
