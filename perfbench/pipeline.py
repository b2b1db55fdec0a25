"""One workload run: set-up, the four timed stages, their checks, and the
end-to-end figures.

Each stage calls the public functions `condlm.cli` calls, in the order a
user runs the subcommands, and passes artifacts through disk as the CLI
does. Prep repeats whole rounds for its share of the run's seconds,
training is one ``trainer.train`` call of fixed length, and generate and
evaluate then alternate whole rounds for the rest.

A traced run alternates traced and untraced rounds (prep rounds, blocks of
training steps between two checkpoint writes, serving cycles), so that its
tracing overhead is measured against untraced work of the same run. Its
per-layer figures come from the traced rounds only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import checks
import tracing
from condlm import autodiff, cli, config, corpus, generator, metrics, model, tokenizer, toydata, trainer, vocab

now = time.perf_counter
SETUP_REPEATS = 3
MIN_PREP_ROUNDS = 2  # prep_s is a median; a traced run needs both kinds of round
EVAL_CALLS = 2  # evaluate calls after each generate round, once the rows exist
PROBE_STEPS = 8


class Paths:
    def __init__(self, work: Path):
        self.work = work
        self.corpus = work / "corpus.jsonl"
        self.config = work / "model.cfg"
        self.tok = work / "tokenizer.tsv"
        self.vocab = work / "vocab"
        self.df = work / "df.tsv"
        self.ckpts = work / "checkpoints"
        self.final = self.ckpts / "final.bin"
        self.candidates = work / "candidates.jsonl"
        self.references = work / "references.jsonl"
        self.report = work / "report.json"

    def prompts(self, group) -> Path:
        return self.work / f"prompts-{group.name}.jsonl"

    def generations(self, group) -> Path:
        return self.work / f"generations-{group.name}.jsonl"


def _read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


class Run:
    def __init__(self, workload, seed: int, seconds: float, traced: bool, work: Path):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracing.Tracer() if traced else None
        self.paths = Paths(work)
        self.rng = np.random.default_rng(seed + 1000)  # check sampling only
        self.attempted: dict[str, int] = {}
        self.e2e: dict[str, float] = {}
        # (stage, traced) -> [busy seconds, units of work]
        self.busy: dict[tuple[str, bool], list[float]] = {}
        self.info: dict = {}  # what the traced run's per-layer figures need

    def traces(self, k: int) -> bool:
        """Whether round k of a stage is traced: every other round of a
        traced run, the first one included."""
        return self.tracer is not None and k % 2 == 0

    def traced(self, stage: str, on: bool):
        if not on:
            return contextlib.nullcontext()
        stack = contextlib.ExitStack()
        stack.enter_context(self.tracer.active())
        stack.enter_context(self.tracer.span(f"stage.{stage}"))
        return stack

    def tally(self, stage: str, on: bool, seconds: float, units: float) -> None:
        b = self.busy.setdefault((stage, on), [0.0, 0.0])
        b[0] += seconds
        b[1] += units

    # -- set-up ---------------------------------------------------------------

    def setup(self, imports_s: float) -> None:
        times = []
        for _ in range(SETUP_REPEATS):
            t = now()
            self.inputs = self._write_inputs()
            times.append(now() - t)
        self.e2e["setup_s"] = imports_s + statistics.median(times)

    def _write_inputs(self):
        p, inp = self.paths, self.wl.make_inputs(self.seed)
        p.work.mkdir(parents=True, exist_ok=True)
        toydata.write_jsonl(inp.corpus, p.corpus)
        for g in inp.groups:
            toydata.write_jsonl(g.prompts, p.prompts(g))
        if inp.eval_rows is not None:
            toydata.write_jsonl(inp.eval_rows, p.candidates)
        if inp.eval_refs is not None:
            toydata.write_jsonl(inp.eval_refs, p.references)
        with open(p.config, "w", encoding="utf-8") as f:
            f.writelines(f"{k} = {v}\n" for k, v in self.wl.config.items())
        return inp

    # -- prep: train-tokenizer, build-vocab, build-df --------------------------

    def prep(self) -> None:
        budget = self.wl.shares[0] * self.seconds
        times, start = [], now()
        while len(times) < MIN_PREP_ROUNDS or now() - start < budget:
            on = self.traces(len(times))
            with self.traced("prep", on):
                t = now()
                sentences, docs = self._prep_round()
                t = now() - t
            times.append((t, on))
            self.tally("prep", on, t, 1)
        self.attempted["prep"] = len(times)
        self.info["prep_rounds"] = sum(on for _, on in times)
        self.e2e["prep_s"] = statistics.median(t for t, on in times if not on)

        tok = tokenizer.load_tokenizer(self.paths.tok)
        checks.tokenizer_size(tok, self.wl.vocab_size)
        checks.tokenizer_round_trip(tok, sentences)
        checks.document_frequencies(metrics.load_df(self.paths.df), docs, self.rng)

    def _prep_round(self):
        p = self.paths
        records = list(corpus.load_records(p.corpus))
        sentences = []
        for rec in records:
            sentences.append(rec.title_text())
            sentences.extend(rec.sentence_texts())
        tok = tokenizer.train_unigram(sentences, self.wl.vocab_size, seed=self.seed)
        tokenizer.save_tokenizer(tok, p.tok)
        cvocab = vocab.build_condition_vocab(records, self.wl.min_count)
        labels = vocab.build_label_vocabs(records)
        os.makedirs(p.vocab, exist_ok=True)
        vocab.save_condition_vocab(cvocab, p.vocab / "conditions.tsv")
        vocab.save_label_vocabs(labels, p.vocab / "labels.tsv")
        docs = [metrics.tokenize(" ".join(rec.sentence_texts())) for rec in records]
        metrics.save_df(metrics.build_df(docs), p.df)
        return sentences, docs

    def _artifacts(self):
        p = self.paths
        return (tokenizer.load_tokenizer(p.tok),
                vocab.load_condition_vocab(p.vocab / "conditions.tsv"),
                vocab.load_label_vocabs(p.vocab / "labels.tsv"))

    # -- train ----------------------------------------------------------------

    def train(self) -> None:
        p = self.paths
        model_cfg, train_cfg = config.load_config(str(p.config), {"seed": self.seed})
        tok, cvocab, labels = self._artifacts()
        model_cfg.token_vocab = tok.vocab_size
        model_cfg.pos_vocab = labels.pos.size
        model_cfg.dep_vocab = labels.dep.size
        model_cfg.ent_vocab = labels.ent.size
        model_cfg.cond_vocab = cvocab.total
        model_cfg.validate()
        self.records = list(corpus.load_records(p.corpus))
        rng = np.random.default_rng(train_cfg.seed)
        params = model.init_parameters(model_cfg, rng, dtype=autodiff.DTYPES[train_cfg.precision])
        opt = trainer.OptimizerState()
        os.makedirs(p.ckpts, exist_ok=True)
        # Blocks of `c` steps, each holding one checkpoint write; a traced
        # run traces every other block after the untraced warm-up.
        c, w = trainer._checkpoint_cadence(train_cfg, len(self.records)), self.wl.warmup_steps
        tracer, on = self.tracer, [False]

        stamps, tokens, modes = [], [], []
        draw = trainer._draw_batch

        def counted_draw(*args, **kwargs):  # real (unpadded) target tokens per step
            batch = draw(*args, **kwargs)
            tokens.append(float(batch.loss_mask.sum()))
            return batch

        trainer._draw_batch = counted_draw
        try:
            with open(p.ckpts / "training_log.jsonl", "a", encoding="utf-8") as log_file:
                def on_step(stats):
                    log_file.write(json.dumps(dataclasses.asdict(stats)) + "\n")
                    stamps.append(now())
                    modes.append(on[0])
                    # The checkpoint write of this step opens the next block.
                    if tracer is not None and stats.step >= w and stats.step % c == 0:
                        if on[0]:
                            tracer.uninstall()
                        else:
                            tracer.install()
                        on[0] = not on[0]

                with tracer.span("stage.train") if tracer else contextlib.nullcontext():
                    self.history = trainer.train(params, self.records, tok, cvocab, labels, train_cfg,
                                                 opt=opt, rng=rng, checkpoint_dir=str(p.ckpts),
                                                 on_step=on_step)
        finally:
            if on[0]:
                tracer.uninstall()
            trainer._draw_batch = draw
        trainer.save_checkpoint(p.final, params, opt, rng, train_cfg)
        self.attempted["train"] = len(self.history)
        self.info["steps"] = sum(modes)
        self.info["ckpt_bytes"] = [os.path.getsize(p.ckpts / f) for f in os.listdir(p.ckpts)
                                   if f.startswith("ckpt-")]
        # Throughput per block after warm-up; the median resists bursts of load.
        rates = []
        for b in range(w, len(stamps) - c + 1, c):
            t, n = stamps[b + c - 1] - stamps[b - 1], sum(tokens[b:b + c])
            self.tally("train", modes[b], t, n)
            if not modes[b]:
                rates.append(n / t)
        self.e2e["train_tokens_per_s"] = statistics.median(rates)

        # A non-finite loss makes trainer.train raise NumericalError, which
        # the run counts as a failed training operation.
        checks.initial_loss(self.history[0].loss, model_cfg)
        checks.checkpoint_matches(p.final, params, opt)

    # -- generate and evaluate -------------------------------------------------

    def serve(self) -> None:
        """Cycles of one generate round (one group's requests, as one
        ``condlm generate`` call on its prompts file: from loading the
        checkpoint to writing the rows) and, once every group has written
        its rows, EVAL_CALLS evaluate calls, for the serving share of the
        run. Passes over the groups are whole, and there are at least two,
        so every request is repeated once. Alternating spreads both stages'
        samples over the same stretch of time, so a slow spell of the
        machine touches both alike instead of one of them whole."""
        p, inp, groups = self.paths, self.inputs, self.inputs.groups
        budget = self.wl.shares[1] * self.seconds
        first, first_rows, repeats = [], {}, []
        request_s, gen_rates, reports, eval_rates = [], [], [], []
        k, start = 0, now()
        while k % len(groups) or k < 2 * len(groups) or now() - start < budget:
            g = groups[k % len(groups)]
            on = self.traces(k // len(groups))  # a traced run alternates whole passes
            with self.traced("generate", on):
                t = now()
                rows, outs, params, cvocab, times = self._generate_round(g)
                t = now() - t
            generated = sum(len(out.token_ids) - out.prompt_len for _, _, out in outs)
            self.tally("generate", on, t, generated)
            if not on:
                gen_rates.append(generated / t)
                request_s += times
            if k < len(groups):
                first += outs
                first_rows[g.name] = rows
            else:
                repeats.append((g.name, rows))
            if k == len(groups) - 1:
                paths = [p.candidates] if inp.eval_rows is not None else map(p.generations, groups)
                generations = [row for path in paths for row in _read_jsonl(path)]
                refs_path = p.references if inp.eval_refs is not None else p.corpus
                references = {rec.id: rec.sentence_texts() for rec in corpus.load_records(refs_path)}
                df = metrics.load_df(p.df)
            if k >= len(groups) - 1:
                for _ in range(EVAL_CALLS):
                    with self.traced("evaluate", on):
                        t = now()
                        report = metrics.evaluate(generations, references, df, workers=1)
                        t = now() - t
                    self.tally("evaluate", on, t, report["sentences"])
                    if not on:
                        eval_rates.append(report["sentences"] / t)
                    reports.append((report, on))
            k += 1
        metrics.save_report(reports[-1][0], p.report)
        self.attempted["generate"] = len(first) + sum(len(rows) for _, rows in repeats)
        self.attempted["evaluate"] = len(reports)
        traced_reports = [r for r, on in reports if on]
        self.info["sentences"] = sum(r["sentences"] for r in traced_reports)
        self.info["eval_rounds"] = len(traced_reports)
        self.e2e["gen_tokens_per_s"] = statistics.median(gen_rates)
        self.e2e["gen_request_ms"] = 1e3 * statistics.median(request_s)
        self.e2e["eval_sentences_per_s"] = statistics.median(eval_rates)

        for name, rows in repeats:
            checks.same_rows(first_rows[name], rows, "repeated requests")
        for g, req, out in first:
            logits = checks.teacher_forced_logits(params, out.token_ids, out.prompt_len,
                                                  cvocab.lookup(req.year, req.keywords))
            checks.generated_tokens(logits, out.token_ids[out.prompt_len:], g.temperature, g.top_k, g.top_p)
        rows = [row for g in groups for row in first_rows[g.name]]
        if self.wl.memorize:
            texts = {row["id"]: out.text for row, (_, _, out) in zip(rows, first)}
            checks.memorized(self.history, texts, self.records)
        with open(p.report, encoding="utf-8") as f:
            checks.report(json.load(f), generations, references, df, self.rng)
        for report, _ in reports[1:]:
            checks.same_scores(reports[0][0], report)
        if self.tracer is not None:
            self._generate_workers2(rows, first)
            self._probe_widths(params, cvocab, first)
            t = now()
            report = metrics.evaluate(generations, references, df, workers=2)
            self.info["workers2_sentences_per_s"] = report["sentences"] / (now() - t)
            checks.same_scores(reports[0][0], report)

    def _generate_round(self, g):
        p = self.paths
        ckpt = trainer.load_checkpoint(str(p.final))
        tok, cvocab, _ = self._artifacts()
        rows, outs, request_s = [], [], []
        for i, prompt in enumerate(g.prompts):
            req = generator.GenerationRequest(
                title=prompt["title"], year=int(prompt["year"]), keywords=tuple(prompt["keywords"]),
                max_tokens=g.n, temperature=g.temperature, top_k=g.top_k, top_p=g.top_p,
                seed=g.seed + i)
            t = now()
            out = generator.generate(ckpt.params, tok, cvocab, req)
            request_s.append(now() - t)
            rows.append({"id": prompt["id"], "title": req.title, "year": req.year,
                         "keywords": list(req.keywords), "generated": out.generated_text,
                         "sentences": out.sentences, "termination": out.termination,
                         "seed": req.seed})
            outs.append((g, req, out))
        with open(p.generations(g), "w", encoding="utf-8") as f:
            f.writelines(json.dumps(row) + "\n" for row in rows)
        return rows, outs, ckpt.params, cvocab, request_s

    def _generate_workers2(self, rows, outs) -> None:
        """`condlm generate --workers 2` on every group; its rows must equal
        the one-worker rows."""
        p, cli_rows, busy = self.paths, [], 0.0
        for g in self.inputs.groups:
            out = p.work / f"workers2-{g.name}.jsonl"
            argv = ["generate", "--checkpoint", str(p.final), "--tokenizer", str(p.tok),
                    "--vocab", str(p.vocab), "--prompts-file", str(p.prompts(g)),
                    *g.cli_args(), "--workers", "2", "--out", str(out)]
            t = now()
            code = cli.main(argv)
            busy += now() - t
            if code != 0:
                raise checks.CheckFailed("generate", f"condlm generate --workers 2 exited {code}")
            cli_rows += _read_jsonl(out)
        checks.same_rows(rows, cli_rows, "rows from --workers 2")
        self.info["workers2_tokens_per_s"] = sum(len(o.token_ids) - o.prompt_len for _, _, o in outs) / busy

    def _probe_widths(self, params, cvocab, outs) -> None:
        """Time decode steps at a short and a full window when the
        workload's own requests never decode at that width."""
        n = params.config.max_seq
        widths = [min(p, n - 1) for _, _, o in outs for p in range(o.prompt_len, len(o.token_ids))]
        g, req, out = outs[0]
        cond = np.asarray(cvocab.lookup(req.year, req.keywords), dtype=np.int64)
        rng = np.random.default_rng(0)
        for key, width, present in (("probe_short", min(32, n - 1), any(w <= 32 for w in widths)),
                                    ("probe_long", n - 1, any(w >= n - 8 for w in widths))):
            times = []
            if not present:
                window = np.resize(np.asarray(out.token_ids, dtype=np.int64), width)
                for _ in range(PROBE_STEPS):
                    t = now()
                    logits = generator.forward(params, window, cond, mode="eval").token_logits.data[-1]
                    generator.sample_next(logits, g.temperature, rng, g.top_k, g.top_p)
                    times.append(now() - t)
            self.info[key] = times
        self.info["max_seq"] = n

    # -- the whole run --------------------------------------------------------

    def finish(self) -> None:
        self.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def per_layer(self) -> dict[str, float]:
        return tracing.per_layer(self.tracer, {**self.info, "busy": self.busy})


STAGES = ("prep", "train", "serve")
