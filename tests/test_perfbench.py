import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from condlm import autodiff as ad
from condlm import trainer as tr
from condlm.config import TrainConfig
from condlm.model import init_parameters

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_selftest_passes():
    # the benchmark's stage checks read model.forward and ForwardOutput
    # directly; a change to either shows up here
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_layers_exist():
    # the tracer wraps these module attributes by name; a rename would
    # leave its per-layer figure at zero instead of failing
    for module, attr, name in _tracing().LAYERS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_train_step_zeroes_and_steps_through_the_traced_attributes(
        monkeypatch, toy_records, toy_tok, toy_cvocab, toy_labels, toy_model_cfg):
    # model.zero_grad_ms and trainer.lamb_ms time these two module
    # attributes; each must do its work once per step, called through its module
    calls = {"zero_grad": 0, "lamb_step": 0}

    def counted(module, attr):
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    counted(ad, "zero_grad")
    counted(tr, "lamb_step")
    params = init_parameters(toy_model_cfg, np.random.default_rng(0), dtype=ad.NARROW)
    cfg = TrainConfig(batch_size=4, steps=3, warmup_steps=1, precision="narrow", log_every=0)
    history = tr.train(params, toy_records, toy_tok, toy_cvocab, toy_labels, cfg)
    assert len(history) == 3
    assert calls == {"zero_grad": 3, "lamb_step": 3}


def test_toy_training_step_graph_size(monkeypatch, toy_records, toy_tok, toy_cvocab, toy_labels,
                                      toy_model_cfg):
    # the figures autodiff.nodes_per_step and autodiff.matmul_nodes_per_step
    # report for the toy preset: attention splits and merges its own heads,
    # and each head's masked mean cross-entropy is one node
    counts = []
    backward = ad.backward
    monkeypatch.setattr(ad, "backward",
                        lambda loss: counts.append(_tracing().graph_counts(loss)) or backward(loss))
    params = init_parameters(toy_model_cfg, np.random.default_rng(0), dtype=ad.NARROW)
    cfg = TrainConfig(batch_size=4, steps=1, warmup_steps=1, precision="narrow", log_every=0)
    tr.train(params, toy_records, toy_tok, toy_cvocab, toy_labels, cfg)
    assert counts == [(66, 36)]
