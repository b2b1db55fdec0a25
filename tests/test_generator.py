import math

import numpy as np
import pytest

from condlm import autodiff as ad
from condlm import generator as gn
from condlm import model as md
from condlm import trainer as tr
from condlm.config import ModelConfig, TrainConfig
from condlm.errors import DataError
from condlm.model import init_parameters
from condlm.tokenizer import END_ID, START_ID, TokenizerModel
from condlm.vocab import ConditionVocab
from oracles import o_sample_next


def word_tokenizer():
    pieces = {f"▁w{i}": -float(i + 1) for i in range(6)}
    pieces["▁t"] = -0.5
    return TokenizerModel(pieces)


def gen_setup(max_seq=16, seed=0):
    tok = word_tokenizer()
    cfg = ModelConfig(d_model=16, heads=2, encoder_blocks=1, decoder_blocks=1,
                      ff_size=32, dropout=0.0, max_seq=max_seq,
                      token_vocab=tok.vocab_size, pos_vocab=3, dep_vocab=3,
                      ent_vocab=3, cond_vocab=5)
    params = init_parameters(cfg, np.random.default_rng(seed), dtype=ad.WIDE)
    cvocab = ConditionVocab({"kw": 3}, year_base=1990, year_count=3)
    return params, tok, cvocab


# --- sample_next -----------------------------------------------------------------

def test_temperature_zero_is_greedy():
    logits = np.array([0.1, 2.0, -1.0, 1.9])
    cid, p = gn.sample_next(logits, 0.0, np.random.default_rng(0))
    assert (cid, p) == (1, 1.0)


def test_top_k_one_is_greedy_everywhere():
    rng = np.random.default_rng(1)
    logits = np.array([0.5, 3.0, 1.0])
    for _ in range(30):
        cid, p = gn.sample_next(logits, 1.0, rng, top_k=1)
        assert cid == 1 and p == 1.0


def test_top_k_restricts_support():
    rng = np.random.default_rng(2)
    logits = np.array([5.0, 4.0, -10.0, -11.0, -12.0])
    seen = {gn.sample_next(logits, 1.0, rng, top_k=2)[0] for _ in range(200)}
    assert seen == {0, 1}


def test_top_p_keeps_smallest_covering_set():
    rng = np.random.default_rng(3)
    # probs ~ [0.84, 0.11, 0.04, ...]: top_p=0.9 keeps ids {0, 1}
    logits = np.array([3.0, 1.0, 0.0, -1.0])
    seen = {gn.sample_next(logits, 1.0, rng, top_p=0.9)[0] for _ in range(300)}
    assert seen == {0, 1}
    # p = 1 keeps everything reachable
    seen_all = {gn.sample_next(logits, 1.0, rng, top_p=1.0)[0] for _ in range(800)}
    assert seen_all == {0, 1, 2, 3}


def test_returned_probability_is_renormalized():
    logits = np.log(np.array([0.5, 0.3, 0.2]))
    rng = np.random.default_rng(4)
    cid, p = gn.sample_next(logits, 1.0, rng, top_k=2)
    # support {0, 1} with renormalized masses [5/8, 3/8]
    assert cid in (0, 1)
    assert p == pytest.approx(0.625 if cid == 0 else 0.375, abs=1e-9)


def test_sampled_frequencies_match_distribution():
    logits = np.log(np.array([0.5, 0.3, 0.2]))
    rng = np.random.default_rng(5)
    n = 10_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[gn.sample_next(logits, 1.0, rng)[0]] += 1
    for i, expect in enumerate((0.5, 0.3, 0.2)):
        sigma = (expect * (1 - expect) / n) ** 0.5
        assert abs(counts[i] / n - expect) < 3 * sigma


def test_temperature_flattens_sampling():
    logits = np.array([2.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(6)
    n = 4000
    top_cold = sum(gn.sample_next(logits, 0.5, rng)[0] == 0 for _ in range(n)) / n
    top_hot = sum(gn.sample_next(logits, 3.0, rng)[0] == 0 for _ in range(n)) / n
    assert top_cold > 0.9 > 0.5 > top_hot > 0.25


def test_sample_next_equals_the_two_mask_sampler_without_ties():
    # top-p over top-k's survivors keeps what the intersected masks kept, and
    # the searchsorted draw is rng.choice's: the same id and probability
    rng = np.random.default_rng(8)
    for _ in range(400):
        logits = rng.normal(0.0, 2.0, int(rng.integers(2, 2001)))
        assert len(np.unique(np.exp(logits - logits.max()))) == len(logits)
        temperature = float(rng.uniform(0.5, 1.5))
        top_k = (None, 1, 5, 50, 5000)[rng.integers(5)]
        top_p = (None, 0.5, 0.9, 1.0)[rng.integers(4)]
        seed = int(rng.integers(2**31))
        got = gn.sample_next(logits, temperature, np.random.default_rng(seed), top_k, top_p)
        assert got == o_sample_next(logits, temperature, np.random.default_rng(seed), top_k, top_p)


@pytest.mark.parametrize("n", [600, 1500])
def test_top_k_and_top_p_agree_on_tied_probabilities(n):
    # the two truncations once broke ties differently and could keep disjoint sets
    rng = np.random.default_rng(9)
    for top_k, top_p in ((1, 0.9), (3, 0.0025), (50, 0.5)):
        cid, p = gn.sample_next(np.zeros(n), 1.0, rng, top_k=top_k, top_p=top_p)
        kept = min(top_k, math.ceil(top_p * n))
        assert 0 <= cid < n and p == pytest.approx(1.0 / kept)


@pytest.mark.parametrize("temperature", [1e-310, 5e-324, 1e-300])
def test_tiny_temperature_is_the_argmax_with_probability_one(temperature):
    # logits / temperature overflows to inf here, which left NaN probabilities
    logits = np.array([0.5, 2.0, -1.0, 1.5])
    for top_k, top_p in ((None, None), (2, None), (None, 0.9)):
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert gn.sample_next(logits, temperature, rng, top_k, top_p) == (1, 1.0)


def test_sample_next_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        gn.sample_next(np.array([np.nan, 0.0]), 1.0, np.random.default_rng(0))


def test_request_validation():
    with pytest.raises(ValueError, match="max_tokens"):
        gn.GenerationRequest("t", 1990, max_tokens=0).validate()
    for temperature in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            gn.GenerationRequest("t", 1990, temperature=temperature).validate()
    with pytest.raises(ValueError, match="top_k"):
        gn.GenerationRequest("t", 1990, top_k=0).validate()
    with pytest.raises(ValueError, match="top_p"):
        gn.GenerationRequest("t", 1990, top_p=0.0).validate()
    gn.GenerationRequest("t", 1990, top_p=1.0, top_k=5).validate()


# --- sentence splitting -------------------------------------------------------------

def test_split_sentences_basic():
    assert gn.split_sentences("one two. three! four?") == \
        ["one two.", "three!", "four?"]


def test_split_sentences_is_literal():
    # decimal points inside a token do not split; ". " always does
    assert gn.split_sentences("dose was 3.5 mg daily.") == ["dose was 3.5 mg daily."]
    assert gn.split_sentences("p. 0.05 held.") == ["p.", "0.05 held."]
    assert gn.split_sentences("") == []
    assert gn.split_sentences("no terminal punctuation") == ["no terminal punctuation"]


# --- generate ---------------------------------------------------------------------

def test_generate_prompt_and_budget():
    params, tok, cvocab = gen_setup()
    req = gn.GenerationRequest("w0 w1", 1991, keywords=("kw",), max_tokens=5, seed=3)
    out = gn.generate(params, tok, cvocab, req)
    assert out.token_ids[:3] == [START_ID, tok.id_of["▁w0"], tok.id_of["▁w1"]]
    assert out.prompt_len == 3
    if out.termination == "max_tokens":
        assert len(out.token_ids) == out.prompt_len + 5
        assert len(out.step_probs) == 5
    else:
        assert out.token_ids[-1] == END_ID
    assert out.text.startswith("w0 w1")
    assert out.text == (f"w0 w1 {out.generated_text}".strip()
                        if out.generated_text else "w0 w1")


def test_generate_is_seed_deterministic():
    params, tok, cvocab = gen_setup()
    req = dict(title="w0", year=1990, max_tokens=8)
    a = gn.generate(params, tok, cvocab, gn.GenerationRequest(**req, seed=11))
    b = gn.generate(params, tok, cvocab, gn.GenerationRequest(**req, seed=11))
    c = gn.generate(params, tok, cvocab, gn.GenerationRequest(**req, seed=12))
    assert a.token_ids == b.token_ids and a.step_probs == b.step_probs
    assert c.token_ids != a.token_ids  # verified for these seeds


def test_generate_greedy_is_sampling_free():
    params, tok, cvocab = gen_setup()
    outs = [gn.generate(params, tok, cvocab,
                        gn.GenerationRequest("w0", 1990, temperature=0.0,
                                             max_tokens=6, seed=s))
            for s in (0, 1, 2)]
    assert outs[0].token_ids == outs[1].token_ids == outs[2].token_ids
    assert all(p == 1.0 for p in outs[0].step_probs)


def test_generate_end_token_termination():
    params, tok, cvocab = gen_setup()
    # rig the token head so END wins every argmax
    head = params["head.token"].data
    head[...] = 0.0
    head[:, END_ID] = 1.0
    out = gn.generate(params, tok, cvocab,
                      gn.GenerationRequest("w0", 1990, temperature=0.0, max_tokens=50))
    assert out.termination == "end_token"
    assert out.token_ids[-1] == END_ID
    assert len(out.token_ids) == out.prompt_len + 1
    assert out.generated_text == ""
    assert out.sentences == []


def test_generate_from_a_loaded_checkpoint_copies_no_parameter(tmp_path):
    params, tok, cvocab = gen_setup()
    path = tmp_path / "c.bin"
    tr.save_checkpoint(path, params, tr.OptimizerState(), np.random.default_rng(0),
                       TrainConfig(precision="wide"))
    ck = tr.load_checkpoint(path)
    gn.generate(ck.params, tok, cvocab,
                gn.GenerationRequest("w0", 1990, temperature=0.0, max_tokens=20))
    # the arena is still the parameter block's one buffer, of exactly the
    # block's size, every tensor a view of it, and no gradient buffer was made
    block = ck.params.data
    assert block.base is None and block.nbytes == params.data.nbytes
    assert all(t.data.base is block for _, t in ck.params.items())
    assert ck.params.grad is None


def test_generate_slides_window_past_max_seq():
    params, tok, cvocab = gen_setup(max_seq=6)
    # this seed pair runs to the budget (verified), so the window must slide
    req = gn.GenerationRequest("w0 w1", 1990, max_tokens=20, seed=4)
    out = gn.generate(params, tok, cvocab, req)
    assert out.termination == "max_tokens"
    assert len(out.token_ids) == out.prompt_len + 20 > 6


def test_generate_rejects_oversized_prompt():
    params, tok, cvocab = gen_setup(max_seq=4)
    with pytest.raises(DataError, match="exceeds max sequence"):
        gn.generate(params, tok, cvocab,
                    gn.GenerationRequest("w0 w1 w2 w3 w4", 1990))


def test_generate_year_out_of_vocab_is_data_error():
    params, tok, cvocab = gen_setup()
    with pytest.raises(DataError, match="year"):
        gn.generate(params, tok, cvocab, gn.GenerationRequest("w0", 1901))


def test_generate_conditions_reach_the_sampler():
    # at a random init the argmax rarely flips, but the distribution the
    # sampler reports must move with the condition set
    params, tok, cvocab = gen_setup(seed=4)
    base = dict(title="w0 w1", max_tokens=8, seed=0)
    a = gn.generate(params, tok, cvocab, gn.GenerationRequest(year=1990, **base))
    b = gn.generate(params, tok, cvocab, gn.GenerationRequest(year=1992, **base))
    assert a.token_ids[:a.prompt_len] == b.token_ids[:b.prompt_len]
    assert a.step_probs != b.step_probs


def test_generate_sentences_come_from_continuation_only():
    params, tok, cvocab = gen_setup()
    out = gn.generate(params, tok, cvocab,
                      gn.GenerationRequest("w0 w1", 1990, max_tokens=12, seed=2))
    for s in out.sentences:
        assert s in out.generated_text


def test_generate_calls_forward_once_per_token_with_the_window(monkeypatch):
    params, tok, cvocab = gen_setup(max_seq=6)
    windows = []

    def counting_forward(params, window, *args, **kwargs):
        windows.append(list(window))
        return md.forward(params, window, *args, **kwargs)

    monkeypatch.setattr(gn, "forward", counting_forward)
    out = gn.generate(params, tok, cvocab,
                      gn.GenerationRequest("w0 w1", 1990, max_tokens=20, seed=4))
    n = params.config.max_seq
    ends = range(out.prompt_len, len(out.token_ids))
    assert windows == [out.token_ids[:e] if e < n else out.token_ids[e - (n - 1):e]
                       for e in ends]
    assert len(windows) == 20


@pytest.mark.parametrize("temperature,seed", [(0.0, 0), (1.0, 4), (0.8, 7)])
def test_generate_matches_full_recompute(monkeypatch, temperature, seed):
    params, tok, cvocab = gen_setup(max_seq=6, seed=seed)
    req = gn.GenerationRequest("w0 w1", 1991, keywords=("kw",), max_tokens=15,
                               temperature=temperature, seed=seed)
    cached = gn.generate(params, tok, cvocab, req)
    calls = []

    def uncached_forward(*args, cache=None, **kwargs):
        calls.append(cache)
        return md.forward(*args, **kwargs).token_logits.data[-1]

    monkeypatch.setattr(gn, "forward", uncached_forward)
    full = gn.generate(params, tok, cvocab, req)
    # every token came from the patched forward, so the cache met a real reference
    assert len(calls) == len(full.token_ids) - full.prompt_len
    assert all(isinstance(c, md.DecodeCache) for c in calls)
    assert cached.token_ids == full.token_ids
    np.testing.assert_allclose(cached.step_probs, full.step_probs, rtol=1e-9)
