"""Spans around condlm's module attributes, and the per-layer figures
derived from them.

The tracer replaces a module attribute with a wrapper that records a span
(name, start, end, parent span, one optional note) and restores the
original on exit. condlm looks its collaborators up as module attributes
at call time (``trainer.forward``, ``ad.backward``, ``model.decoder_block``),
so a wrapper sees every call the pipeline makes without any change to the
program. Spans stay in memory and are written out once, as JSON, with
self times: a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from condlm import autodiff, generator, metrics, model, tokenizer, trainer, vocab

NAME, START, END, PARENT, NOTE = range(5)


def graph_counts(loss) -> tuple[int, int]:
    """(op nodes, matmul nodes) reachable from ``loss``, each op named by
    its backward closure."""
    seen, stack, nodes, matmuls = set(), [loss], 0, 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.backward_fn is not None:
            nodes += 1
            matmuls += t.backward_fn.__qualname__.startswith("matmul.")
        stack.extend(t.parents)
    return nodes, matmuls


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.graph: list[tuple[int, int]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name, note=None) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, note]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, note=None):
        s = self._open(name, note)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, module, attr: str, name: str, note=None, result_note=None,
             only_under: str | None = None):
        """Record a span per call of ``module.attr``. ``note(args)`` or
        ``result_note(result)`` adds a detail; ``only_under`` records only
        calls made directly inside a span of that name and passes the rest
        straight through."""
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if only_under is not None and not (stack and spans[stack[-1]][NAME] == only_under):
                return orig(*args, **kwargs)
            s = self._open(name, note(args) if note else None)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(s)
            if result_note is not None:
                s[NOTE] = result_note(result)
            return result

        self._saved.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def _count_graph(self, loss):
        if len(self.graph) < 2:  # the graph has the same shape every step
            self.graph.append(graph_counts(loss))

    def install(self) -> None:
        """Wrap the layers; ``uninstall`` puts the originals back. The
        pipeline installs them for traced rounds only, so the untraced
        rounds of a traced run carry no wrapper at all."""
        self.wrap(autodiff, "backward", "autodiff.backward")
        backward = autodiff.backward

        def counted_backward(loss):  # counts outside the backward span
            self._count_graph(loss)
            return backward(loss)

        self._saved.append((autodiff, "backward", backward))
        autodiff.backward = counted_backward
        for mod, attr, name in LAYERS:
            self.wrap(mod, attr, name)
        self.wrap(generator, "forward", "generator.forward", note=lambda a: len(a[1]))
        self.wrap(generator, "sample_next", "generator.sample_next", note=lambda a: a[1] > 0)
        self.wrap(model, "multi_head", "model.multi_head", note=lambda a: a[2] is a[3])
        self.wrap(autodiff, "matmul", "model.head", only_under="generator.forward")
        self.wrap(metrics, "_min_chunks_exact", "metrics.min_chunks_exact",
                  result_note=lambda r: r is not None)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    @contextmanager
    def active(self):
        """The layers wrapped for the duration of a round."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def dump(self, path, extra: dict) -> None:
        own = self.self_times()
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [{"name": s[NAME], "start_ms": (s[START] - t0) * 1e3, "ms": (s[END] - s[START]) * 1e3,
                 "self_ms": own[i] * 1e3, "parent": s[PARENT], "note": s[NOTE]}
                for i, s in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**extra, "spans": rows}, f)
            f.write("\n")


# Module attribute -> span name. Each is called through its module, either
# by condlm itself or by the benchmark's pipeline.
LAYERS = [
    (tokenizer, "train_unigram", "tokenizer.train_unigram"),
    (vocab, "build_condition_vocab", "vocab.build"),
    (vocab, "build_label_vocabs", "vocab.build"),
    (metrics, "build_df", "metrics.build_df"),
    (trainer, "_draw_batch", "corpus.batch"),
    (trainer, "forward", "model.forward"),
    (trainer, "loss", "model.forward"),
    (autodiff, "zero_grad", "model.zero_grad"),
    (trainer, "lamb_step", "trainer.lamb"),
    (trainer, "_write_checkpoint", "trainer.ckpt_save"),
    (trainer, "load_checkpoint", "trainer.ckpt_load"),
    (generator, "generate", "generator.generate"),
    (model, "encoder_block", "model.encoder"),
    (model, "decoder_block", "model.decoder"),
    (model, "feed_forward", "model.ff"),
    (metrics, "bleu", "metrics.bleu"),
    (metrics, "bleu_geometric", "metrics.bleu"),
    (metrics, "rouge_l", "metrics.rouge_l"),
    (metrics, "meteor", "metrics.meteor"),
    (metrics, "cider", "metrics.cider"),
    (metrics, "cider_title", "metrics.cider"),
]


def per_layer(tracer: Tracer, run: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run. ``run`` carries what the
    pipeline counted itself: steps, sentences, prep rounds, window limits,
    saved checkpoint sizes and the phases timed outside the tracer."""
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]

    def durations(name):
        return [d for s, d in zip(spans, dur) if s[NAME] == name]

    def total(name):
        return sum(durations(name))

    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)

    # Divisors count the traced rounds and steps only.
    steps, sentences, rounds = run["steps"], run["sentences"], run["prep_rounds"]
    out = {
        "tokenizer.train_s": total("tokenizer.train_unigram") / rounds,
        "vocab.build_ms": 1e3 * total("vocab.build") / rounds,
        "metrics.build_df_s": total("metrics.build_df") / rounds,
        "corpus.batch_ms": 1e3 * total("corpus.batch") / steps,
        "model.forward_ms": 1e3 * total("model.forward") / steps,
        "autodiff.backward_ms": 1e3 * total("autodiff.backward") / steps,
        "model.zero_grad_ms": 1e3 * total("model.zero_grad") / steps,
        "trainer.lamb_ms": 1e3 * total("trainer.lamb") / steps,
        "autodiff.nodes_per_step": max(n for n, _ in tracer.graph),
        "autodiff.matmul_nodes_per_step": max(m for _, m in tracer.graph),
        "trainer.ckpt_save_ms": 1e3 * statistics.median(durations("trainer.ckpt_save")),
        "trainer.ckpt_bytes": statistics.median(run["ckpt_bytes"]),
        "trainer.ckpt_load_ms": 1e3 * statistics.median(durations("trainer.ckpt_load")),
    }

    # Decode forwards: per-block sums per forward, averaged over forwards.
    fwd_set = {i for i, s in enumerate(spans) if s[NAME] == "generator.forward"}
    block = {"model.encoder_ms": 0.0, "model.dec_self_attn_ms": 0.0,
             "model.dec_cross_attn_ms": 0.0, "model.ff_ms": 0.0, "model.heads_ms": 0.0}
    decoders = {i for i, s in enumerate(spans) if s[NAME] == "model.decoder" and s[PARENT] in fwd_set}
    for i, s in enumerate(spans):
        p = s[PARENT]
        if s[NAME] == "model.encoder" and p in fwd_set:
            block["model.encoder_ms"] += dur[i]
        elif s[NAME] == "model.head" and p in fwd_set:
            block["model.heads_ms"] += dur[i]
        elif p in decoders:
            if s[NAME] == "model.multi_head":
                block["model.dec_self_attn_ms" if s[NOTE] else "model.dec_cross_attn_ms"] += dur[i]
            elif s[NAME] == "model.ff":
                block["model.ff_ms"] += dur[i]
    out.update({k: 1e3 * v / len(fwd_set) for k, v in block.items()})

    # Per generated token: its forward plus the draw that follows it.
    short, long_, first, draws_sampled, draws_all = [], [], [], [], []
    for g in (i for i, s in enumerate(spans) if s[NAME] == "generator.generate"):
        kids = children.get(g, [])
        fwds = [i for i in kids if spans[i][NAME] == "generator.forward"]
        draws = [i for i in kids if spans[i][NAME] == "generator.sample_next"]
        if draws:
            first.append(spans[draws[0]][END] - spans[g][START])
        for f, d in zip(fwds, draws):
            step = dur[f] + dur[d]
            width = spans[f][NOTE]
            if width <= 32:
                short.append(step)
            if width >= run["max_seq"] - 8:
                long_.append(step)
            draws_all.append(dur[d])
            if spans[d][NOTE]:
                draws_sampled.append(dur[d])
    out["generator.ms_per_token.short"] = 1e3 * statistics.median(short or run["probe_short"])
    out["generator.ms_per_token.long"] = 1e3 * statistics.median(long_ or run["probe_long"])
    out["generator.first_token_ms"] = 1e3 * statistics.median(first)
    out["generator.sample_us"] = 1e6 * statistics.median(draws_sampled or draws_all)
    out["cli.generate_workers2_tokens_per_s"] = run["workers2_tokens_per_s"]

    out["metrics.bleu_ms"] = 1e3 * total("metrics.bleu") / sentences
    out["metrics.cider_ms"] = 1e3 * total("metrics.cider") / sentences
    out["metrics.rouge_l_ms"] = 1e3 * total("metrics.rouge_l") / sentences
    out["metrics.meteor_ms"] = 1e3 * total("metrics.meteor") / sentences
    searches = [s for s in spans if s[NAME] == "metrics.min_chunks_exact"]
    out["metrics.meteor_pairs"] = len(searches) / run["eval_rounds"]
    out["metrics.meteor_exact_pairs"] = sum(bool(s[NOTE]) for s in searches) / run["eval_rounds"]
    out["cli.evaluate_workers2_sentences_per_s"] = run["workers2_sentences_per_s"]

    out["trace.overhead_pct"] = overhead_pct(run["busy"])
    return out


def overhead_pct(busy: dict) -> float:
    """Measured tracing overhead of a traced run, whose rounds alternate
    between traced and untraced. ``busy[(stage, traced)]`` holds the
    seconds and the units of work (prep rounds, training tokens, generated
    tokens, scored sentences) of that stage's rounds. The traced rounds'
    time is compared with what the same work took per unit untraced."""
    traced_s = untraced_s = 0.0
    for (stage, traced), (seconds, units) in busy.items():
        if traced and (stage, False) in busy:
            base_s, base_units = busy[stage, False]
            traced_s += seconds
            untraced_s += units * base_s / base_units
    return 100.0 * (traced_s / untraced_s - 1.0)
