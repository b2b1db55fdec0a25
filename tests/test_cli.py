import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from condlm import cli, toydata
from condlm.metrics import REPORT_SCHEMA
from condlm.trainer import load_checkpoint

from conftest import write_jsonl


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One full artifact pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    write_jsonl(corpus, toydata.memorization_documents())

    tok = root / "tokenizer.tsv"
    assert cli.main(["train-tokenizer", "--input", str(corpus),
                     "--vocab-size", "160", "--out", str(tok)]) == 0

    vocab = root / "vocab"
    assert cli.main(["build-vocab", "--input", str(corpus),
                     "--min-count", "1", "--out", str(vocab)]) == 0

    df = root / "df.tsv"
    assert cli.main(["build-df", "--input", str(corpus), "--out", str(df)]) == 0

    ckpts = root / "ckpts"
    assert cli.main(["train", "--config", "toy", "--data", str(corpus),
                     "--tokenizer", str(tok), "--vocab", str(vocab),
                     "--checkpoint-dir", str(ckpts), "--steps", "6",
                     "--batch-size", "8", "--seed", "0"]) == 0
    return {"root": root, "corpus": corpus, "tok": tok, "vocab": vocab,
            "df": df, "ckpts": ckpts, "final": ckpts / "final.bin"}


def test_artifacts_exist(workdir):
    assert workdir["final"].exists()
    assert (workdir["vocab"] / "conditions.tsv").exists()
    assert (workdir["vocab"] / "labels.tsv").exists()
    log_lines = (workdir["ckpts"] / "training_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 6
    first = json.loads(log_lines[0])
    assert {"step", "lr", "loss", "token", "pos", "dep", "ent"} <= set(first)


def test_train_resume_continues(workdir, tmp_path):
    out = tmp_path / "resumed"
    code = cli.main(["train", "--config", "toy", "--data", str(workdir["corpus"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--checkpoint-dir", str(out), "--resume", str(workdir["final"]),
                     "--steps", "9", "--batch-size", "8"])
    assert code == 0
    assert load_checkpoint(out / "final.bin").step == 9


def test_generate_single_prompt_stdout(workdir, capsys):
    code = cli.main(["generate", "--checkpoint", str(workdir["final"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--title", "the cold probe assay .", "--year", "1996",
                     "--keywords", "mesh-gold", "--n", "10", "--seed", "1"])
    assert code == 0
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert row["id"] == "generation-0"
    assert row["year"] == 1996 and row["keywords"] == ["mesh-gold"]
    assert row["termination"] in ("end_token", "max_tokens")
    assert isinstance(row["generated"], str) and isinstance(row["sentences"], list)


def test_generate_prompts_file_parallel(workdir, tmp_path):
    prompts = tmp_path / "prompts.jsonl"
    write_jsonl(prompts, toydata.memorization_documents()[:4])
    out = tmp_path / "gen.jsonl"
    code = cli.main(["generate", "--checkpoint", str(workdir["final"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--prompts-file", str(prompts), "--n", "12",
                     "--workers", "3", "--seed", "5", "--out", str(out)])
    assert code == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["id"] for r in rows] == ["toy-000", "toy-001", "toy-002", "toy-003"]
    assert [r["seed"] for r in rows] == [5, 6, 7, 8]  # per-row offsets
    # per-row seeds make the parallel result order- and schedule-independent
    serial = tmp_path / "gen-serial.jsonl"
    assert cli.main(["generate", "--checkpoint", str(workdir["final"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--prompts-file", str(prompts), "--n", "12",
                     "--workers", "1", "--seed", "5", "--out", str(serial)]) == 0
    assert serial.read_text() == out.read_text()


def test_generate_two_workers_match_one_across_the_slide(workdir, tmp_path):
    # 40 sampled tokens run past the toy max_seq of 32, so every request
    # decodes through both the growing cache and the slid-window recompute
    prompts = tmp_path / "prompts.jsonl"
    write_jsonl(prompts, toydata.memorization_documents()[:4])
    outs = {}
    for workers in (1, 2):
        outs[workers] = tmp_path / f"gen-{workers}.jsonl"
        assert cli.main(["generate", "--checkpoint", str(workdir["final"]),
                         "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                         "--prompts-file", str(prompts), "--n", "40", "--temperature", "1.0",
                         "--top-k", "20", "--workers", str(workers), "--seed", "3",
                         "--out", str(outs[workers])]) == 0
    rows = [json.loads(line) for line in outs[1].read_text().splitlines()]
    assert len(rows) == 4 and any(r["termination"] == "max_tokens" for r in rows)
    assert outs[2].read_text() == outs[1].read_text()


def test_evaluate_end_to_end(workdir, tmp_path, capsys):
    prompts = tmp_path / "prompts.jsonl"
    write_jsonl(prompts, toydata.memorization_documents()[:3])
    gen = tmp_path / "gen.jsonl"
    assert cli.main(["generate", "--checkpoint", str(workdir["final"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--prompts-file", str(prompts), "--n", "16", "--seed", "2",
                     "--out", str(gen)]) == 0
    report_path = tmp_path / "report.json"
    code = cli.main(["evaluate", "--generations", str(gen),
                     "--references", str(workdir["corpus"]),
                     "--df", str(workdir["df"]), "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["documents"] == 3
    assert report["unmatched_ids"] == []
    printed = capsys.readouterr().out
    assert "bleu_1" in printed and "cider_title" in printed


def test_config_file_and_unknown_field(workdir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model = 32\nheads = 2\nencoder_blocks = 1\ndecoder_blocks = 1\n"
                   "ff_size = 64\nmax_seq = 32\nsteps = 2\nbatch_size = 4\n"
                   "warmup_steps = 2  # comment\n")
    out = tmp_path / "ck"
    assert cli.main(["train", "--config", str(cfg), "--data", str(workdir["corpus"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--checkpoint-dir", str(out)]) == 0
    ck = load_checkpoint(out / "final.bin")
    assert ck.model_config.d_model == 32 and ck.step == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("d_model = 32\nflux_capacitance = 9\n")
    code = cli.main(["train", "--config", str(bad), "--data", str(workdir["corpus"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--checkpoint-dir", str(out)])
    assert code == 1
    assert "flux_capacitance" in capsys.readouterr().err


@pytest.mark.parametrize("text,line,message", [
    ("d_model = 32\nheads two\n", 2, "expected 'key = value', got 'heads two'"),
    ("d_model = sixty\n", 1, "d_model: cannot parse 'sixty'"),
    ("d_model = 32\n\nflux_capacitance = 9\n", 3, "flux_capacitance: unknown configuration field"),
    (b"d_model = 32\nheads = \xff\n", 2, "byte 0xff is not UTF-8 (invalid start byte)"),
], ids=["no-equals", "bad-number", "unknown-field", "not-utf8"])
def test_config_file_errors_name_file_and_line(workdir, tmp_path, capsys, text, line, message):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(text) if isinstance(text, bytes) else bad.write_text(text)
    code = cli.main(["train", "--config", str(bad), "--data", str(workdir["corpus"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--checkpoint-dir", str(tmp_path / "ck")])
    assert code == 1
    assert capsys.readouterr().err == f"configuration error: {bad}:{line}: {message}\n"


@pytest.mark.parametrize("line", ["eps = 0", "beta2 = 1.0", "weight_decay = -0.5"])
def test_train_rejects_bad_lamb_settings(workdir, tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"d_model = 32\nheads = 2\nsteps = 2\nbatch_size = 4\n{line}\n")
    out = tmp_path / "ck"
    code = cli.main(["train", "--config", str(cfg), "--data", str(workdir["corpus"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--checkpoint-dir", str(out)])
    assert code == 1  # a configuration error, before any step
    assert f"configuration error: {line.split()[0]}:" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_artifact_mismatch_rejected(workdir, tmp_path, capsys):
    # tokenizer with a different vocab size than the checkpoint was trained on
    other_tok = tmp_path / "tok.tsv"
    assert cli.main(["train-tokenizer", "--input", str(workdir["corpus"]),
                     "--vocab-size", "80", "--out", str(other_tok)]) == 0
    code = cli.main(["generate", "--checkpoint", str(workdir["final"]),
                     "--tokenizer", str(other_tok), "--vocab", str(workdir["vocab"]),
                     "--title", "the probe", "--year", "1996"])
    assert code == 2
    assert "do not match" in capsys.readouterr().err


@pytest.mark.parametrize("damage,message", [
    (lambda raw: raw[:4] + (1).to_bytes(4, "little") + raw[8:],
     "was written by format 1, which this version cannot read; re-save or re-train it"),
    (lambda raw: raw[:16] + b"[" + raw[17:], "manifest is not valid JSON"),
])
def test_generate_damaged_checkpoint_exits_two(workdir, tmp_path, capsys, damage, message):
    bad = tmp_path / "damaged.bin"
    bad.write_bytes(damage(workdir["final"].read_bytes()))
    code = cli.main(["generate", "--checkpoint", str(bad),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--title", "the probe", "--year", "1996"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"data error: checkpoint {bad} ") and message in err
    assert "Traceback" not in err


def test_generate_names_the_truncated_tensor(workdir, tmp_path, capsys):
    raw = workdir["final"].read_bytes()
    manifest_end = 16 + int.from_bytes(raw[8:16], "little")
    last = json.loads(raw[16:manifest_end])["tensors"][-1]["name"]
    bad = tmp_path / "short.bin"
    bad.write_bytes(raw[:-8])
    assert cli.main(["generate", "--checkpoint", str(bad),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--title", "the probe", "--year", "1996"]) == 2
    assert f"tensor {last} runs past the payload" in capsys.readouterr().err


def _damaged_run(workdir, tmp_path, target, text):
    """Write ``text`` as the damaged ``target`` artifact and return the argv
    of a generate or evaluate call that reads it."""
    prompt = {"id": "p", "title": "the probe", "year": 1996, "keywords": []}
    ok = tmp_path / "ok.jsonl"
    write_jsonl(ok, [prompt])
    bad = tmp_path / "bad.txt"
    vocab = tmp_path / "vocab"
    shutil.copytree(workdir["vocab"], vocab)
    if target in ("conditions", "labels"):
        bad = vocab / f"{target}.tsv"
    bad.write_bytes(text) if isinstance(text, bytes) else bad.write_text(text, encoding="utf-8")
    generate = ["generate", "--checkpoint", str(workdir["final"]),
                "--tokenizer", str(bad if target == "tokenizer" else workdir["tok"]),
                "--vocab", str(vocab), "--prompts-file", str(bad if target == "prompts" else ok)]
    if target in ("prompts", "tokenizer", "conditions", "labels"):
        return generate, bad
    return ["evaluate", "--generations", str(bad if target == "generations" else ok),
            "--references", str(workdir["corpus"]),
            "--df", str(bad if target == "df" else workdir["df"]),
            "--out", str(tmp_path / "report.json")], bad


@pytest.mark.parametrize("target,text,what", [
    pytest.param("prompts", "[1, 2]\n", "not a JSON object", id="prompt-array"),
    pytest.param("prompts", '{"id": "p", "title": "t", \n', "not valid JSON", id="prompt-broken-json"),
    pytest.param("prompts", '{"id": "p", "year": 1996}\n', "lacks the field 'title'",
                 id="prompt-no-title"),
    pytest.param("prompts", '{"id": "p", "title": "t", "year": "1990x"}\n', "1990x",
                 id="prompt-bad-year"),
    pytest.param("prompts", '{"id": "p", "title": "t", "year": 1996.9}\n', "1996.9",
                 id="prompt-fractional-year"),
    pytest.param("prompts", '{"id": "p", "title": "t", "year": 1996, "keywords": "k"}\n',
                 "keywords a list of strings", id="prompt-keywords-string"),
    pytest.param("generations", "[1, 2]\n", "not a JSON object", id="generation-array"),
    pytest.param("generations", '{"id": "p", "sentences": "one"}\n', "list of sentence strings",
                 id="generation-sentences-string"),
    pytest.param("tokenizer", "#version\t1\n#special\tpad\t9\n", "pad\\t9",
                 id="tokenizer-special-id"),
    pytest.param("tokenizer", "#version\t1\n▁a\tlow\n", "low", id="tokenizer-logprob"),
    pytest.param("conditions", "year\t1990x\t0\n", "1990x", id="conditions-year"),
    pytest.param("labels", "pos\t<none>\tzero\n", "zero", id="labels-id"),
    pytest.param("df", "#documents\t3\nthe cat\tmany\n", "many", id="df-count"),
    pytest.param("prompts", b'{"id": "p", "title": "t\xff", "year": 1996}\n', "not UTF-8",
                 id="prompt-bytes"),
    pytest.param("generations", b'{"id": "p"}\n{"id": "\xff"}\n', "not UTF-8",
                 id="generation-bytes"),
    pytest.param("tokenizer", b"#version\t1\n\xff\t-1.0\n", "not UTF-8", id="tokenizer-bytes"),
    pytest.param("conditions", b"year\t1996\t0\nkeyword\t\xfe\t1\n", "not UTF-8",
                 id="conditions-bytes"),
    pytest.param("labels", b"pos\t<none>\t0\n\xff", "not UTF-8", id="labels-bytes"),
    pytest.param("df", b"#documents\t3\nthe \xffcat\t1\n", "not UTF-8", id="df-bytes"),
])
def test_damaged_input_exits_two_naming_the_file(workdir, tmp_path, capsys, target, text, what):
    argv, bad = _damaged_run(workdir, tmp_path, target, text)
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}:" in err and what in err
    assert "Traceback" not in err


def test_generate_refuses_keyword_id_inside_the_year_block(workdir, tmp_path, capsys):
    # keyword id 0 is the first year's id: loading it would silently
    # condition the keyword as that year
    vocab = tmp_path / "vocab"
    shutil.copytree(workdir["vocab"], vocab)
    cond = vocab / "conditions.tsv"
    lines = cond.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith("keyword\t"))
    kind, keyword, _ = lines[lineno - 1].split("\t")
    lines[lineno - 1] = f"{kind}\t{keyword}\t0"
    cond.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = cli.main(["generate", "--checkpoint", str(workdir["final"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(vocab),
                     "--title", "the probe", "--year", "1996", "--keywords", keyword])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{cond}:{lineno}: keyword id 0 outside" in err


def test_evaluate_refuses_damaged_reference_line(workdir, tmp_path, capsys):
    # a truncated reference record is refused, not skipped: skipping it
    # would score fewer references and still exit 0
    lines = workdir["corpus"].read_text(encoding="utf-8").splitlines()
    refs = tmp_path / "refs.jsonl"
    refs.write_text("\n".join([lines[0][:300]] + lines[1:]) + "\n", encoding="utf-8")
    first = json.loads(lines[1])
    gen = tmp_path / "gen.jsonl"
    write_jsonl(gen, [{"id": first["id"], "title": "the probe", "sentences": ["the probe ."]}])
    report = tmp_path / "report.json"
    code = cli.main(["evaluate", "--generations", str(gen), "--references", str(refs),
                     "--df", str(workdir["df"]), "--out", str(report)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{refs}:1:" in err and "malformed record" in err
    assert "Traceback" not in err
    assert not report.exists()


def test_evaluate_refuses_reference_line_that_is_not_utf8(workdir, tmp_path, capsys):
    lines = workdir["corpus"].read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b'"title"', b'"\xfftitle"', 1)
    refs = tmp_path / "refs.jsonl"
    refs.write_bytes(b"\n".join(lines))
    gen = tmp_path / "gen.jsonl"
    write_jsonl(gen, [{"id": "toy-000", "title": "the probe", "sentences": ["the probe ."]}])
    code = cli.main(["evaluate", "--generations", str(gen), "--references", str(refs),
                     "--df", str(workdir["df"]), "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{refs}:3: malformed record" in err and "0xff" in err


def test_train_tokenizer_skips_a_record_that_is_not_utf8(workdir, tmp_path, caplog):
    lines = workdir["corpus"].read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'"title"', b'"\xfftitle"', 1)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"\n".join(lines))
    with caplog.at_level(logging.WARNING):
        code = cli.main(["train-tokenizer", "--input", str(corpus), "--vocab-size", "120",
                         "--out", str(tmp_path / "tok.tsv")])
    assert code == 0
    assert any(f"{corpus}:2: skipping malformed record" in m for m in caplog.messages)


def test_prompt_title_may_hold_unicode_line_separators(workdir, tmp_path):
    # raw U+2028, U+0085 and a form feed are valid inside a JSON string;
    # only "\n" ends a prompts line
    title = "the probe\u2028assay\x85cold\x0c ."
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text(json.dumps({"id": "p", "title": title, "year": 1996, "keywords": []},
                                  ensure_ascii=False) + "\n", encoding="utf-8")
    out = tmp_path / "gen.jsonl"
    assert cli.main(["generate", "--checkpoint", str(workdir["final"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--prompts-file", str(prompts), "--n", "3", "--out", str(out)]) == 0
    [row] = [json.loads(line) for line in out.read_text(encoding="utf-8").split("\n") if line]
    assert row["title"] == title


@pytest.mark.parametrize("field,value", [("keywords", ["mesh\ttab"]), ("keywords", ["two\nlines"]),
                                         ("pos", "NO\rUN")])
def test_build_vocab_refuses_what_its_files_cannot_store(tmp_path, capsys, field, value):
    docs = toydata.memorization_documents()
    if field == "keywords":
        docs[0]["keywords"] = value
    else:
        docs[0]["title"][0][1] = value
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, docs)
    out = tmp_path / "vocab"
    code = cli.main(["build-vocab", "--input", str(corpus), "--min-count", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert repr(value[0] if field == "keywords" else value) in err and "cannot store" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--n", "0"), ("--top-k", "0"), ("--top-p", "1.5"), ("--temperature", "-1")])
def test_bad_generate_flags_exit_one_before_loading(workdir, tmp_path, capsys, flag, value):
    code = cli.main(["generate", "--checkpoint", str(tmp_path / "missing.bin"),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--title", "the probe", "--year", "1996", flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("configuration error: generate: ") and value in err


# --- exit codes and argument handling ----------------------------------------------

def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["train-tokenizer"]) == 1  # missing required flags
    assert cli.main(["train", "--config", "toy"]) == 1
    capsys.readouterr()


def test_missing_input_exits_two(tmp_path, capsys):
    code = cli.main(["train-tokenizer", "--input", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "t.tsv")])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_generate_needs_prompt_source(workdir, capsys):
    code = cli.main(["generate", "--checkpoint", str(workdir["final"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"])])
    assert code == 1
    assert "prompts-file" in capsys.readouterr().err


def test_generate_year_out_of_range(workdir, capsys):
    code = cli.main(["generate", "--checkpoint", str(workdir["final"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--title", "the probe", "--year", "1901"])
    assert code == 2
    assert "year 1901" in capsys.readouterr().err


def test_unknown_preset_exits_one(workdir, capsys):
    code = cli.main(["train", "--config", "gigantic", "--data", str(workdir["corpus"]),
                     "--tokenizer", str(workdir["tok"]), "--vocab", str(workdir["vocab"]),
                     "--checkpoint-dir", "/tmp/x"])
    assert code == 1
    capsys.readouterr()


def test_declared_defaults():
    parser = cli._build_parser()
    args = parser.parse_args(["train-tokenizer", "--input", "a", "--out", "b"])
    assert args.vocab_size == 16000
    args = parser.parse_args(["build-vocab", "--input", "a", "--out", "b"])
    assert args.min_count == 10
    args = parser.parse_args(["generate", "--checkpoint", "c", "--tokenizer", "t",
                              "--vocab", "v"])
    assert args.n == 256 and args.temperature == 1.0 and args.seed == 0


def test_module_entrypoint_help():
    proc = subprocess.run([sys.executable, "-m", "condlm", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    for cmd in ("train-tokenizer", "build-vocab", "build-df", "train",
                "generate", "evaluate"):
        assert cmd in proc.stdout


def test_toy_pipeline_script_smoke(tmp_path):
    # the script drives every subcommand through the CLI, checkpoints included
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "toy_pipeline.py"),
                           "--steps", "20", "--workdir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "checkpoints" / "final.bin").exists()
    assert json.loads((tmp_path / "report.json").read_text())["documents"] == 8
