"""Command-line interface.

Subcommands cover the whole pipeline: train-tokenizer, build-vocab,
build-df, train, generate, evaluate. Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 numerical failure. All randomness is
seeded through explicit --seed flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import autodiff as ad
from . import metrics as met
from .config import config_hash, load_config
from .corpus import load_records
from .errors import ConfigError, DataError, NumericalError
from .generator import GenerationRequest, generate
from .model import init_parameters
from .textio import read_lines
from .tokenizer import load_tokenizer, save_tokenizer, train_unigram
from .toydata import write_jsonl
from .trainer import OptimizerState, load_checkpoint, save_checkpoint, train
from .vocab import (build_condition_vocab, build_label_vocabs,
                    load_condition_vocab, load_label_vocabs,
                    save_condition_vocab, save_label_vocabs)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="condlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-tokenizer", help="fit the subword inventory")
    p.add_argument("--input", required=True, help="annotated JSONL corpus")
    p.add_argument("--vocab-size", type=int, default=16000)
    p.add_argument("--sample", type=int, default=0,
                   help="cap on training sentences (0 = all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="tokenizer model file")

    p = sub.add_parser("build-vocab", help="build condition and label vocabularies")
    p.add_argument("--input", required=True, help="annotated JSONL corpus")
    p.add_argument("--min-count", type=int, default=10,
                   help="document-frequency floor for keywords")
    p.add_argument("--max-year", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("build-df", help="collect n-gram document frequencies")
    p.add_argument("--input", required=True, help="annotated JSONL corpus")
    p.add_argument("--sample", type=int, default=0, help="cap on documents (0 = all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the model")
    p.add_argument("--config", required=True, help="preset name or config file")
    p.add_argument("--data", required=True, help="training JSONL")
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--vocab", required=True, help="build-vocab output directory")
    p.add_argument("--checkpoint-dir", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("generate", help="sample an abstract from a title")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--title", default=None)
    p.add_argument("--year", type=int, default=None)
    p.add_argument("--keywords", default="", help="comma-separated")
    p.add_argument("--prompts-file", default=None,
                   help="JSONL prompts; rows need id, title, year, keywords")
    p.add_argument("--n", type=int, default=256, help="token budget")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--top-p", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="output JSONL (default stdout)")

    p = sub.add_parser("evaluate", help="score generations against references")
    p.add_argument("--generations", required=True, help="generate output JSONL")
    p.add_argument("--references", required=True, help="annotated JSONL with the same ids")
    p.add_argument("--df", required=True, help="build-df output")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="report JSON")
    return parser


def _sample_cap(args) -> int | None:
    """``--sample`` as a cap, None for all."""
    if args.sample < 0:
        raise ConfigError(f"--sample: {args.sample} must be >= 0 (0 = all)")
    return args.sample or None


def _cmd_train_tokenizer(args) -> int:
    cap = _sample_cap(args)
    sentences = []
    for rec in load_records(args.input):
        sentences.append(rec.title_text())
        sentences.extend(rec.sentence_texts())
    model = train_unigram(sentences, args.vocab_size, seed=args.seed, sample=cap)
    save_tokenizer(model, args.out)
    print(f"trained {model.vocab_size} pieces (specials included) -> {args.out}")
    return EXIT_OK


def _cmd_build_vocab(args) -> int:
    records = list(load_records(args.input))
    cvocab = build_condition_vocab(records, args.min_count, args.max_year)
    labels = build_label_vocabs(records)
    os.makedirs(args.out, exist_ok=True)
    save_condition_vocab(cvocab, os.path.join(args.out, "conditions.tsv"))
    save_label_vocabs(labels, os.path.join(args.out, "labels.tsv"))
    print(f"{cvocab.year_count} years + {len(cvocab.keyword_ids)} keywords; "
          f"labels pos={labels.pos.size} dep={labels.dep.size} ent={labels.ent.size} -> {args.out}")
    return EXIT_OK


def _cmd_build_df(args) -> int:
    cap = _sample_cap(args)
    docs = []
    for rec in load_records(args.input):
        docs.append(met.tokenize(" ".join(rec.sentence_texts())))
    if cap is not None and cap < len(docs):
        rng = np.random.default_rng(args.seed)
        idx = rng.choice(len(docs), size=cap, replace=False)
        docs = [docs[i] for i in sorted(idx)]
    corpus = met.build_df(docs)
    met.save_df(corpus, args.out)
    print(f"document frequencies over {corpus.doc_count} documents -> {args.out}")
    return EXIT_OK


def _load_artifacts(tokenizer_path, vocab_dir):
    tok = load_tokenizer(tokenizer_path)
    cvocab = load_condition_vocab(os.path.join(vocab_dir, "conditions.tsv"))
    labels = load_label_vocabs(os.path.join(vocab_dir, "labels.tsv"))
    return tok, cvocab, labels


def _cmd_train(args) -> int:
    overrides = {"steps": args.steps, "batch_size": args.batch_size, "seed": args.seed}
    model_cfg, train_cfg = load_config(args.config, overrides)
    tok, cvocab, labels = _load_artifacts(args.tokenizer, args.vocab)
    model_cfg.token_vocab = tok.vocab_size
    model_cfg.pos_vocab = labels.pos.size
    model_cfg.dep_vocab = labels.dep.size
    model_cfg.ent_vocab = labels.ent.size
    model_cfg.cond_vocab = cvocab.total
    model_cfg.validate()
    records = list(load_records(args.data))
    if not records:
        raise DataError(f"no records in {args.data}")

    if args.resume:
        ckpt = load_checkpoint(args.resume, expect_hash=config_hash(model_cfg))
        params, opt, rng = ckpt.params, ckpt.opt, ckpt.rng
    else:
        rng = np.random.default_rng(train_cfg.seed)
        params = init_parameters(model_cfg, rng, dtype=ad.DTYPES[train_cfg.precision])
        opt = OptimizerState()

    os.makedirs(args.checkpoint_dir, exist_ok=True)
    log_path = os.path.join(args.checkpoint_dir, "training_log.jsonl")
    with open(log_path, "a", encoding="utf-8") as log_file:
        def on_step(stats):
            log_file.write(json.dumps(dataclasses.asdict(stats)) + "\n")

        history = train(params, records, tok, cvocab, labels, train_cfg,
                        opt=opt, rng=rng, checkpoint_dir=args.checkpoint_dir,
                        on_step=on_step)
    final = os.path.join(args.checkpoint_dir, "final.bin")
    save_checkpoint(final, params, opt, rng, train_cfg)
    last = history[-1] if history else None
    if last is not None:
        print(f"step {last.step}: loss {last.loss:.4f} "
              f"(token {last.token:.4f} pos {last.pos:.4f} dep {last.dep:.4f} ent {last.ent:.4f})")
    print(f"final checkpoint -> {final}")
    return EXIT_OK


def _parse_keywords(text: str) -> tuple[str, ...]:
    return tuple(k.strip() for k in text.split(",") if k.strip())


def _jsonl_objects(path, what):
    """(line number, object) for each non-blank line of a JSONL file. A line
    that is not a JSON object is a DataError naming the file and line."""
    for lineno, line in read_lines(path, what):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{lineno}: {what} line is not valid JSON ({e})") from None
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: {what} line is not a JSON object")
        yield lineno, obj


def _prompt_rows(args):
    if args.prompts_file:
        for lineno, row in _jsonl_objects(args.prompts_file, "prompts file"):
            try:
                title = row["title"]
                if isinstance(title, list):  # annotated record: surfaces only
                    if not all(isinstance(t, list) and t and isinstance(t[0], str) and t[0]
                               for t in title):
                        raise TypeError("a title list must hold annotated tokens")
                    title = " ".join(t[0] for t in title)
                year, keywords = row["year"], row.get("keywords", [])
                if isinstance(year, (bool, float)):  # int() would truncate silently
                    raise TypeError(f"year {year!r} is not an integer")
                if not isinstance(title, str) or not isinstance(keywords, list) \
                        or not all(isinstance(k, str) for k in keywords):
                    raise TypeError("the title must be a string and keywords a list of strings")
                prompt = str(row["id"]), title, int(year), tuple(keywords)
            except KeyError as e:
                raise DataError(f"{args.prompts_file}:{lineno}: prompt lacks the field {e}") from None
            except (TypeError, ValueError, IndexError) as e:
                raise DataError(f"{args.prompts_file}:{lineno}: malformed prompt ({e})") from None
            yield prompt
    else:
        if args.title is None or args.year is None:
            raise ConfigError("generate needs either --prompts-file or --title and --year")
        yield "generation-0", args.title, args.year, _parse_keywords(args.keywords)


def _cmd_generate(args) -> int:
    # Flags and prompts are checked before the checkpoint is read; row i gets seed + i.
    template = GenerationRequest(title="", year=0, max_tokens=args.n,
                                 temperature=args.temperature, top_k=args.top_k,
                                 top_p=args.top_p, seed=args.seed)
    try:
        template.validate()
    except ValueError as e:
        raise ConfigError(f"generate: {e}") from None
    prompts = list(_prompt_rows(args))
    ckpt = load_checkpoint(args.checkpoint)
    tok, cvocab, labels = _load_artifacts(args.tokenizer, args.vocab)
    cond_path = os.path.join(args.vocab, "conditions.tsv")
    for path, trained, given in ((args.tokenizer, ckpt.model_config.token_vocab, tok.vocab_size),
                                 (cond_path, ckpt.model_config.cond_vocab, cvocab.total)):
        if trained != given:
            raise DataError(f"checkpoint {args.checkpoint} and {path} do not match: the "
                            f"checkpoint has {trained} ids for it, the file holds {given}")

    def run(item):
        i, (rid, title, year, keywords) = item
        request = dataclasses.replace(template, title=title, year=year,
                                      keywords=keywords, seed=args.seed + i)
        out = generate(ckpt.params, tok, cvocab, request)
        return {
            "id": rid,
            "title": title,
            "year": year,
            "keywords": list(keywords),
            "generated": out.generated_text,
            "sentences": out.sentences,
            "termination": out.termination,
            "seed": request.seed,
        }

    items = list(enumerate(prompts))
    if args.workers > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(run, items))
    else:
        rows = [run(item) for item in items]

    if args.out:
        write_jsonl(rows, args.out)
    else:
        sys.stdout.writelines(json.dumps(row) + "\n" for row in rows)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    generations = []
    for lineno, row in _jsonl_objects(args.generations, "generations file"):
        sentences = row.get("sentences", [])
        if isinstance(row.get("id"), (list, dict)) or not isinstance(row.get("title", ""), str) \
                or not isinstance(sentences, list) or not all(isinstance(s, str) for s in sentences):
            raise DataError(f"{args.generations}:{lineno}: a generation needs a scalar id, "
                            "a string title and a list of sentence strings")
        generations.append(row)
    # Refused, not skipped: a lost reference would silently change the scores.
    references = {rec.id: rec.sentence_texts()
                  for rec in load_records(args.references, strict=True)}
    df = met.load_df(args.df)
    report = met.evaluate(generations, references, df, workers=args.workers)
    met.save_report(report, args.out)
    for name, entry in sorted(report["metrics"].items()):
        mean = entry["mean"]
        print(f"{name}: {'n/a' if mean is None else f'{mean:.4f}'}")
    print(f"scored {report['sentences']} sentences from {report['documents']} generations; "
          f"{len(report['unmatched_ids'])} unmatched id(s) -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "train-tokenizer": _cmd_train_tokenizer,
    "build-vocab": _cmd_build_vocab,
    "build-df": _cmd_build_df,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as e:  # argparse has printed the usage and what is wrong
        return EXIT_USAGE if e.code else EXIT_OK
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
