"""Output checks for every pipeline stage.

Each check compares an output with a separate computation or with a
property the method must have, never with a stored copy of an earlier
output. A check raises CheckFailed; the run then counts the stage's
operations as failed and reports ``correct: false``.
"""

from __future__ import annotations

import math
import struct

import jsonschema
import numpy as np

import oracles

from condlm import metrics, tokenizer, trainer
from condlm.errors import DataError
from condlm.model import forward

LOGIT_TOL = 1e-4        # relative to the logit scale; float32 reassociation is ~1e-6
ORACLE_TOL = 1e-9       # as criterion 07
MAX_ALIGNMENTS = 2_000   # exhaustive METEOR only below this many alignments


class CheckFailed(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


# ---------------------------------------------------------------------------
# prep

def tokenizer_round_trip(tok, sentences) -> None:
    for s in sentences:
        want = " ".join(s.lower().split())
        got = tokenizer.decode(tok, tokenizer.encode_viterbi(tok, s))
        if got != want:
            raise CheckFailed("prep", f"round trip changed {want!r} into {got!r}")


def tokenizer_size(tok, requested: int) -> None:
    if tok.vocab_size != requested:
        raise CheckFailed("prep", f"tokenizer has {tok.vocab_size} pieces, {requested} requested")


def document_frequencies(df, token_docs, rng: np.random.Generator, samples: int = 40) -> None:
    """A seeded sample of n-grams from the documents, plus n-grams made
    up from their words, counted by substring search over each document."""
    if df.doc_count != len(token_docs):
        raise CheckFailed("prep", f"df counts {df.doc_count} documents, corpus has {len(token_docs)}")
    joined = [" " + " ".join(d) + " " for d in token_docs]
    for k in range(samples):
        doc = token_docs[int(rng.integers(len(token_docs)))]
        n = int(rng.integers(1, 5))
        if len(doc) < n:
            continue
        if k % 4 == 3:  # a gram that may appear nowhere
            gram = tuple(str(w) for w in rng.choice(doc, size=n))
        else:
            i = int(rng.integers(len(doc) - n + 1))
            gram = tuple(doc[i:i + n])
        needle = " " + " ".join(gram) + " "
        want = sum(needle in text for text in joined)
        got = df.df.get(n, {}).get(gram, 0)
        if got != want:
            raise CheckFailed("prep", f"df{gram} is {got}, brute-force count {want}")


# ---------------------------------------------------------------------------
# train

def initial_loss(first_loss: float, model_cfg) -> None:
    expected = sum(math.log(v) for v in (model_cfg.token_vocab, model_cfg.pos_vocab,
                                         model_cfg.dep_vocab, model_cfg.ent_vocab))
    if not abs(first_loss - expected) <= 0.05 * expected:
        raise CheckFailed("train", f"first-step loss {first_loss:.4f} is not within 5% "
                                   f"of the sum of log vocabulary sizes {expected:.4f}")


def memorized(history, texts: dict[str, str], corpus_records) -> None:
    """Criterion 04: token loss below 0.2 over the last 50 steps, and at
    least one greedy abstract (prompt included) reproduced verbatim."""
    token_loss = float(np.mean([s.token for s in history[-50:]]))
    if not token_loss < 0.2:
        raise CheckFailed("train", f"last-50-step token loss {token_loss:.4f} is not below 0.2")
    want = {r.id: " ".join(r.sentence_texts()) for r in corpus_records}
    verbatim = sum(text == want.get(rid) for rid, text in texts.items())
    if verbatim < 1:
        raise CheckFailed("train", "no greedy abstract came back verbatim")


def checkpoint_matches(path, params, opt) -> None:
    try:
        ckpt = trainer.load_checkpoint(path)
    except (DataError, ValueError, KeyError, OSError, struct.error) as e:
        raise CheckFailed("train", f"checkpoint {path} does not load: {e}") from None
    for name, tensor in params.items():
        stored = ckpt.params[name].data
        if stored.dtype != tensor.data.dtype or stored.tobytes() != tensor.data.tobytes():
            raise CheckFailed("train", f"checkpoint tensor {name} differs from memory")
        for kind, mine, theirs in (("m", opt.m, ckpt.opt.m), ("v", opt.v, ckpt.opt.v)):
            if name in mine and (name not in theirs or mine[name].tobytes() != theirs[name].tobytes()):
                raise CheckFailed("train", f"checkpoint moment {kind}:{name} differs from memory")


# ---------------------------------------------------------------------------
# generate

def teacher_forced_logits(params, ids: list[int], prompt_len: int, condition_ids) -> np.ndarray:
    """Logits each generated token was drawn from, recomputed with a
    different batching: one causal pass for every window that starts at the
    front, and one batched pass over the slid windows. Rows follow the
    generated tokens."""
    n = params.config.max_seq
    cond = np.asarray(condition_ids, dtype=np.int64)
    rows = []
    front = [p for p in range(prompt_len, len(ids)) if p < n]
    if front:
        out = forward(params, np.asarray(ids[:front[-1]], dtype=np.int64), cond)
        rows.append(out.token_logits.data[np.asarray(front) - 1])
    slid = [p for p in range(prompt_len, len(ids)) if p >= n]
    if slid:
        windows = np.asarray([ids[p - (n - 1):p] for p in slid], dtype=np.int64)
        out = forward(params, windows, np.repeat(cond[None, :], len(slid), axis=0))
        rows.append(out.token_logits.data[:, -1])
    return np.concatenate(rows).astype(np.float64)


def generated_tokens(logits: np.ndarray, tokens: list[int], temperature: float,
                     top_k: int | None, top_p: float | None) -> None:
    """Greedy tokens must be the argmax up to reassociation; sampled
    tokens must lie inside the top-k set and the top-p nucleus."""
    for step, (z, t) in enumerate(zip(logits, tokens)):
        tol = LOGIT_TOL * max(1.0, float(np.abs(z).max()))
        if temperature == 0.0:
            if z[t] < z.max() - tol:
                raise CheckFailed("generate", f"greedy token {t} at step {step} has logit "
                                              f"{z[t]:.6f}, window max {z.max():.6f}")
            continue
        if top_k is not None and z[t] < np.sort(z)[-top_k] - tol:
            raise CheckFailed("generate", f"sampled token {t} at step {step} is outside the top {top_k}")
        if top_p is not None:
            p = np.exp((z - z.max()) / temperature)
            p /= p.sum()
            above = p[p > p[t] * (1 + 1e-9)].sum()
            if above >= top_p + 1e-6:
                raise CheckFailed("generate", f"sampled token {t} at step {step} lies outside "
                                              f"the top-p {top_p} nucleus (mass above it {above:.4f})")


def same_rows(first, other, what: str) -> None:
    if first != other:
        diff = next(i for i, (a, b) in enumerate(zip(first, other)) if a != b) \
            if len(first) == len(other) else "count"
        raise CheckFailed("generate", f"{what} differ from the first rows (row {diff})")


# ---------------------------------------------------------------------------
# evaluate

def report(report_obj, generations, references, df, rng: np.random.Generator,
           samples: int = 12) -> None:
    try:
        jsonschema.validate(report_obj, metrics.REPORT_SCHEMA)
    except jsonschema.ValidationError as e:
        raise CheckFailed("evaluate", f"report does not validate: {e.message}") from None
    # Every scored sentence with its candidate tokens, reference set and title.
    scored = []
    for row in generations:
        refs = [metrics.tokenize(s) for s in references.get(row.get("id"), [])]
        refs = [r for r in refs if r]
        if row.get("id") not in references or not refs:
            continue
        title = metrics.tokenize(row.get("title", ""))
        for s in row.get("sentences", []):
            cand = metrics.tokenize(s)
            if cand:
                scored.append((cand, refs, title))
    if report_obj["sentences"] != len(scored):
        raise CheckFailed("evaluate", f"report counts {report_obj['sentences']} sentences, "
                                      f"generations hold {len(scored)} non-empty ones")
    values = {k: v["per_sentence"] for k, v in report_obj["metrics"].items()}

    def df_of(gram):
        return df.df.get(len(gram), {}).get(gram, 0)

    picks = sorted(set(int(i) for i in rng.integers(len(scored), size=samples))) if scored else []
    for i in picks:
        cand, refs, title = scored[i]
        expect = {
            "bleu_1": oracles.bleu(cand, refs, 1),
            "bleu_sum": oracles.bleu(cand, refs, 4),
            "bleu_geometric": oracles.bleu_geometric(cand, refs, 4),
            "rouge_l": oracles.rouge_l(cand, refs),
            "cider": oracles.cider(cand, refs, df_of, df.doc_count),
            "cider_title": oracles.cider(cand, refs, df_of, df.doc_count, title=title),
        }
        for name, want in expect.items():
            got = values[name][i]
            if not abs(got - want) <= ORACLE_TOL:
                raise CheckFailed("evaluate", f"{name} of sentence {i} is {got!r}, oracle {want!r}")
        fm = max(oracles.fmean(cand, r) for r in refs)
        m = values["meteor"][i]
        if not 0.5 * fm - ORACLE_TOL <= m <= fm + ORACLE_TOL:
            raise CheckFailed("evaluate", f"meteor of sentence {i} is {m!r}, outside "
                                          f"[0.5 Fmean, Fmean] = [{0.5 * fm!r}, {fm!r}]")
        # The exhaustive oracle on the longest prefixes small enough for it.
        for ref in refs[:2]:
            c, r = cand, ref
            while oracles.alignment_options(c, r) > MAX_ALIGNMENTS:
                c, r = c[:-1], r[:-1]
            want = oracles.meteor_single(c, r)
            got = metrics.meteor(c, [r])
            if not abs(got - want) <= ORACLE_TOL:
                raise CheckFailed("evaluate", f"meteor of {c} against {r} is {got!r}, "
                                              f"exhaustive oracle {want!r}")
    for i, (cand, refs, _) in enumerate(scored):
        if cand in refs and (values["bleu_1"][i] != 1.0 or values["rouge_l"][i] != 1.0):
            raise CheckFailed("evaluate", f"copied sentence {i} scores bleu_1 "
                                          f"{values['bleu_1'][i]!r}, rouge_l {values['rouge_l'][i]!r}")


def same_scores(first, other) -> None:
    for name, entry in first["metrics"].items():
        if entry["per_sentence"] != other["metrics"][name]["per_sentence"]:
            raise CheckFailed("evaluate", f"{name} per-sentence scores differ between two evaluations")
