#!/usr/bin/env python3
"""Show that every stage check accepts a correct output and rejects a
deliberately wrong one.

    python3 perfbench/selftest.py

Builds small real artifacts (a tokenizer on the toy corpus, a tiny model,
a checkpoint, generations and an evaluation report), runs each check on
them, then on a damaged copy: a tokenizer whose round trip is broken, a
wrong vocabulary size, shifted document frequencies, a wrong first loss,
an unmemorized run, a truncated and a bit-flipped
checkpoint, a flipped greedy token, a sampled token outside top-k, changed
rows, and perturbed, miscounted or malformed metric reports. Exits 1 if
any check fails to tell them apart.
"""

import copy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from condlm import metrics, toydata, trainer  # noqa: E402
from condlm.config import ModelConfig, TrainConfig  # noqa: E402
from condlm.corpus import load_records  # noqa: E402
from condlm.generator import GenerationRequest, generate  # noqa: E402
from condlm.model import init_parameters  # noqa: E402
from condlm.tokenizer import TokenizerModel, train_unigram  # noqa: E402
from condlm.trainer import StepStats  # noqa: E402
from condlm.vocab import build_condition_vocab, build_label_vocabs  # noqa: E402

failures = []


def expect(name, good, bad):
    """``good()`` must pass and ``bad()`` must raise CheckFailed."""
    try:
        good()
    except checks.CheckFailed as e:
        failures.append(name)
        print(f"FAIL {name}: rejected the correct output ({e})")
        return
    try:
        bad()
    except checks.CheckFailed as e:
        print(f"ok   {name}: {e}")
        return
    failures.append(name)
    print(f"FAIL {name}: accepted the wrong output")


def main() -> int:
    (ROOT / "perfbench_runs").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / "perfbench_runs"))
    try:
        run_cases(work)
    finally:
        for p in sorted(work.rglob("*"), reverse=True):
            p.unlink() if p.is_file() else p.rmdir()
        work.rmdir()
    print(f"{'all checks reject their wrong outputs' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0


def run_cases(work: Path) -> None:
    rng = np.random.default_rng(0)
    toydata.write_jsonl(toydata.memorization_documents(), work / "toy.jsonl")
    records = list(load_records(work / "toy.jsonl"))
    sentences = [s for r in records for s in [r.title_text(), *r.sentence_texts()]]
    tok = train_unigram(sentences, 160, seed=0)

    # prep
    broken = TokenizerModel(dict(tok.pieces), id_of=dict(tok.id_of), piece_of=list(tok.piece_of))
    broken.piece_of[0] = broken.piece_of[0] + "q"
    expect("tokenizer round trip", lambda: checks.tokenizer_round_trip(tok, sentences),
           lambda: checks.tokenizer_round_trip(broken, sentences))
    expect("tokenizer size", lambda: checks.tokenizer_size(tok, 160),
           lambda: checks.tokenizer_size(tok, 161))
    docs = [metrics.tokenize(" ".join(r.sentence_texts())) for r in records]
    df = metrics.build_df(docs)
    shifted = copy.deepcopy(df)
    for table in shifted.df.values():
        for gram in table:
            table[gram] += 1
    expect("document frequencies", lambda: checks.document_frequencies(df, docs, np.random.default_rng(1)),
           lambda: checks.document_frequencies(shifted, docs, np.random.default_rng(1)))

    # train
    cvocab = build_condition_vocab(records, 1)
    labels = build_label_vocabs(records)
    cfg = ModelConfig(d_model=16, heads=2, encoder_blocks=1, decoder_blocks=1, ff_size=32,
                      max_seq=12, token_vocab=tok.vocab_size, pos_vocab=labels.pos.size,
                      dep_vocab=labels.dep.size, ent_vocab=labels.ent.size, cond_vocab=cvocab.total)
    train_cfg = TrainConfig(batch_size=4, steps=3, log_every=0)
    params = init_parameters(cfg, np.random.default_rng(0), dtype=np.float32)
    opt = trainer.OptimizerState()
    history = trainer.train(params, records, tok, cvocab, labels, train_cfg, opt=opt, rng=rng)
    expect("initial loss", lambda: checks.initial_loss(history[0].loss, cfg),
           lambda: checks.initial_loss(history[0].loss * 1.2, cfg))
    want = {r.id: " ".join(r.sentence_texts()) for r in records}
    low = [StepStats(i, 0.0, 0.1, 0.05, 0.0, 0.0, 0.0) for i in range(50)]
    expect("memorization", lambda: checks.memorized(low, want, records),
           lambda: checks.memorized(history, want, records))
    expect("memorization verbatim", lambda: checks.memorized(low, want, records),
           lambda: checks.memorized(low, {k: v + " ." for k, v in want.items()}, records))

    ckpt = work / "final.bin"
    trainer.save_checkpoint(ckpt, params, opt, rng, train_cfg)
    raw = ckpt.read_bytes()
    (work / "truncated.bin").write_bytes(raw[:len(raw) - 100])
    flipped = bytearray(raw)
    flipped[-1] ^= 0x40
    (work / "flipped.bin").write_bytes(bytes(flipped))
    expect("checkpoint truncated", lambda: checks.checkpoint_matches(ckpt, params, opt),
           lambda: checks.checkpoint_matches(work / "truncated.bin", params, opt))
    expect("checkpoint bit flip", lambda: checks.checkpoint_matches(ckpt, params, opt),
           lambda: checks.checkpoint_matches(work / "flipped.bin", params, opt))

    # generate: one greedy and one sampled request, both across the slide
    rec = records[0]
    cond = cvocab.lookup(rec.year, rec.keywords)
    for temperature, top_k, top_p in ((0.0, None, None), (1.0, 5, 0.9)):
        req = GenerationRequest(title=rec.title_text(), year=rec.year, keywords=rec.keywords,
                                max_tokens=16, temperature=temperature, top_k=top_k, top_p=top_p)
        out = generate(params, tok, cvocab, req)
        logits = checks.teacher_forced_logits(params, out.token_ids, out.prompt_len, cond)
        tokens = out.token_ids[out.prompt_len:]
        wrong = list(tokens)
        wrong[-2] = int(np.argmin(logits[-2]))
        kind = "greedy token flipped" if temperature == 0.0 else "sampled token outside top-k"
        expect(kind, lambda: checks.generated_tokens(logits, tokens, temperature, top_k, top_p),
               lambda: checks.generated_tokens(logits, wrong, temperature, top_k, top_p))
    rows = [{"id": "a", "generated": "x y"}, {"id": "b", "generated": "z"}]
    expect("repeated rows", lambda: checks.same_rows(rows, copy.deepcopy(rows), "rows"),
           lambda: checks.same_rows(rows, [rows[0], {"id": "b", "generated": "w"}], "rows"))

    # evaluate: candidates copied from, cut from and unrelated to the references
    references = {r.id: r.sentence_texts() for r in records}
    generations = [{"id": r.id, "title": r.title_text(),
                    "sentences": [r.sentence_texts()[0], " ".join(r.sentence_texts()[1].split()[:4]),
                                  "gold salt binds the cold probe"]} for r in records]
    report = metrics.evaluate(generations, references, df)
    n = report["sentences"]

    def changed(edit):
        r = copy.deepcopy(report)
        edit(r)
        return r

    def run_report(r):
        return lambda: checks.report(r, generations, references, df, np.random.default_rng(2), samples=n)

    perturbed = changed(lambda r: r["metrics"]["bleu_sum"]["per_sentence"].__setitem__(
        slice(None), [v + 1e-6 for v in r["metrics"]["bleu_sum"]["per_sentence"]]))
    expect("metric value perturbed", run_report(report), run_report(perturbed))
    above = changed(lambda r: r["metrics"]["meteor"]["per_sentence"].__setitem__(
        slice(None), [v + 0.5 for v in r["metrics"]["meteor"]["per_sentence"]]))
    expect("meteor above Fmean", run_report(report), run_report(above))
    expect("sentence count", run_report(report), run_report(changed(lambda r: r.__setitem__("sentences", n - 1))))
    expect("report schema", run_report(report), run_report(changed(lambda r: r.pop("unmatched_ids"))))
    expect("repeated evaluation", lambda: checks.same_scores(report, copy.deepcopy(report)),
           lambda: checks.same_scores(report, perturbed))


if __name__ == "__main__":
    sys.exit(main())
