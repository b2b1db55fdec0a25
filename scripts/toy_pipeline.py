#!/usr/bin/env python3
"""Run the whole pipeline on the built-in eight-document toy corpus.

Writes every artifact the CLI knows how to produce into a work directory,
resumes training from the final checkpoint for ten more steps, generates
twice onto the same file, then prints the evaluation report. Before
training it plants the temp file a killed checkpoint save leaves behind,
for a process that has exited, which training must remove. It exits
non-zero if a step fails or a temp file (*.tmp) is left in the work
directory. With the default 2000 steps the model memorizes the corpus and
greedy decoding reproduces the abstracts; pass a smaller --steps for a
quick smoke run.

    python3 scripts/toy_pipeline.py --workdir toy_run
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from condlm import toydata
from condlm.cli import main


def run(argv):
    print("$ condlm " + " ".join(argv))
    code = main(argv)
    if code != 0:
        sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workdir", default="toy_run", help="artifact directory")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--temperature", type=float, default=0.0,
                   help="sampling temperature for generation (0 = greedy)")
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args()


def main_script():
    args = parse_args()
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)

    corpus = work / "corpus.jsonl"
    toydata.write_jsonl(toydata.memorization_documents(), corpus)

    tok = work / "tokenizer.tsv"
    vocab = work / "vocab"
    df = work / "df.tsv"
    ckpts = work / "checkpoints"
    resumed = work / "checkpoints-resumed"
    gen = work / "generations.jsonl"
    report = work / "report.json"

    run(["train-tokenizer", "--input", str(corpus), "--vocab-size", "160",
         "--seed", str(args.seed), "--out", str(tok)])
    run(["build-vocab", "--input", str(corpus), "--min-count", "1",
         "--out", str(vocab)])
    run(["build-df", "--input", str(corpus), "--out", str(df)])
    # what a save killed between writing and renaming leaves: train removes
    # it, since the process that wrote it is gone
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    ckpts.mkdir(exist_ok=True)
    (ckpts / f".ckpt-0000000.bin.{child.pid}.tmp").write_bytes(b"part of a checkpoint")
    run(["train", "--config", "toy", "--data", str(corpus),
         "--tokenizer", str(tok), "--vocab", str(vocab),
         "--checkpoint-dir", str(ckpts), "--steps", str(args.steps),
         "--seed", str(args.seed)])
    # ten more steps from the final checkpoint, trained in its read buffer
    run(["train", "--config", "toy", "--data", str(corpus),
         "--tokenizer", str(tok), "--vocab", str(vocab),
         "--checkpoint-dir", str(resumed), "--resume", str(ckpts / "final.bin"),
         "--steps", str(args.steps + 10)])
    # twice, so the second run replaces a generations file that exists
    for _ in range(2):
        run(["generate", "--checkpoint", str(ckpts / "final.bin"),
             "--tokenizer", str(tok), "--vocab", str(vocab),
             "--prompts-file", str(corpus), "--n", "48",
             "--temperature", str(args.temperature), "--seed", str(args.seed),
             "--out", str(gen)])
    run(["evaluate", "--generations", str(gen), "--references", str(corpus),
         "--df", str(df), "--out", str(report)])

    print("\n--- generations ---")
    for line in gen.read_text().splitlines():
        row = json.loads(line)
        print(f"{row['id']}: {row['generated']}")
    print(f"\nartifacts in {work}/ (full report: {report})")
    # every artifact is renamed into place; a temp file left behind is a fault
    leftovers = sorted(str(p) for p in work.rglob("*.tmp"))
    if leftovers:
        sys.exit(f"temp files left behind: {', '.join(leftovers)}")


if __name__ == "__main__":
    main_script()
