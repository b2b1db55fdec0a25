"""The workloads: their inputs, sizes and why each was chosen.

Each workload runs the whole pipeline (prep, train, generate, evaluate) and
sizes its stages so that a different module carries most of the work:

- toy-memorize: training (autodiff and LAMB at d 64) takes nearly all the
  time; decoding windows never pass 32 tokens.
- mid-decode: full-recompute decoding at 110-140 tokens of context on a
  d 256 model, a heavy tokenizer fit, and METEOR's exact chunk search on
  repetitive candidates.

A third workload, eval-corpus (a 2,000-document df and BLEU/CIDEr scoring),
was dropped because it did not settle; perfbench/README.md says why.
"""

from __future__ import annotations

from dataclasses import dataclass

import inputs

from condlm import config, toydata


@dataclass
class GenGroup:
    """One ``condlm generate`` invocation: a prompts file and its options.
    Row i uses seed + i, as the CLI does."""
    name: str
    prompts: list[dict]
    n: int
    temperature: float = 0.0
    top_k: int | None = None
    top_p: float | None = None
    seed: int = 0

    def cli_args(self) -> list[str]:
        args = ["--n", str(self.n), "--temperature", str(self.temperature), "--seed", str(self.seed)]
        if self.top_k is not None:
            args += ["--top-k", str(self.top_k)]
        if self.top_p is not None:
            args += ["--top-p", str(self.top_p)]
        return args


@dataclass
class Inputs:
    corpus: list[dict]
    groups: list[GenGroup]
    eval_rows: list[dict] | None = None    # None: score the model's own generations
    eval_refs: list[dict] | None = None    # None: the corpus is the reference set


@dataclass
class Workload:
    name: str
    make_inputs: object                  # seed -> Inputs
    vocab_size: int                      # tokenizer pieces, specials included
    min_count: int                       # keyword document-frequency floor
    config: dict                         # the config file's key = value pairs
    warmup_steps: int                    # steps left out of train_tokens_per_s,
                                         # a multiple of the checkpoint cadence
    # Shares of --seconds that prep, then generate and evaluate together,
    # repeat whole rounds for; training is a fixed number of steps.
    shares: tuple[float, float]
    memorize: bool = False               # criterion 04 checks after generate


def _toy_config(**over) -> dict:
    model_kw, train_kw = config.PRESETS["toy"]
    return {**model_kw, **train_kw, **over}


def _toy_inputs(seed: int) -> Inputs:
    docs = toydata.memorization_documents()
    titles = [{"id": d["id"], "title": inputs.surface(d["title"]), "year": d["year"],
               "keywords": d["keywords"]} for d in docs]
    return Inputs(docs, [GenGroup("greedy", titles, n=48, seed=seed)])


def _mid_inputs(seed: int) -> Inputs:
    # The closing sentence of every abstract is longer than the 128-token
    # window, so every training window is full and none reaches the
    # end-of-abstract token: the briefly trained model then rarely ends a
    # request early, and each request decodes its whole budget.
    docs, lex = inputs.zipf_documents(seed, docs=200, lexicon_size=800, sentences=(2, 4),
                                      words=(8, 20), last_words=(130, 160))
    # Two prompts per group, so that `condlm generate --workers 2` on a
    # group's prompts file runs its thread pool.
    prompts = inputs.prompts(seed, docs, 4)
    groups = [GenGroup("greedy", prompts[:2], n=120, seed=seed),
              GenGroup("sampled", prompts[2:], n=120, temperature=1.0, top_k=50,
                       top_p=0.9, seed=seed + 2)]
    # Short references whose sentences, like the candidates, are long runs
    # over ten words: every candidate-reference pair reaches METEOR's
    # exact chunk search with many equally good alignments.
    refs = inputs.pooled_references(seed, lex, docs=1, pool=10, words=(30, 30), sentences=2)
    rows = inputs.repetitive_candidates(seed, refs, pool=10, words=(30, 30), sentences=2)
    return Inputs(docs, groups, eval_rows=rows, eval_refs=refs)


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="toy-memorize",
            make_inputs=_toy_inputs, vocab_size=160, min_count=1,
            config=_toy_config(steps=400, peak_lr=1e-2),
            warmup_steps=50, shares=(0.1, 0.45), memorize=True),
        Workload(
            name="mid-decode",
            make_inputs=_mid_inputs, vocab_size=1500, min_count=2,
            config=dict(d_model=256, heads=4, encoder_blocks=2, decoder_blocks=4,
                        ff_size=1024, dropout=0.1, max_seq=128, batch_size=4, steps=16,
                        peak_lr=1e-3, warmup_steps=4, checkpoint_every_steps=4),
            warmup_steps=4, shares=(0.0, 0.8)),
    ]
}
