import json
import logging

import numpy as np
import pytest

from condlm import corpus as cp
from condlm.errors import DataError
from condlm.tokenizer import END_ID, START_ID, TokenizerModel
from condlm.vocab import LabelVocabs, build_condition_vocab, build_label_vocabs

from conftest import write_jsonl
from oracles import o_align_labels, o_parse_tokens


def doc(rid="d0", year=2000, keywords=(), title="the assay", sentences=("the assay runs",)):
    def annotate(text):
        return [[w, "NOUN", "root", "<none>"] for w in text.split()]
    return {
        "id": rid, "year": year, "keywords": list(keywords),
        "title": annotate(title),
        "sentences": [annotate(s) for s in sentences],
    }


# --- loading -------------------------------------------------------------------

def test_load_parses_fields(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [doc(rid="A", year=1999, keywords=["k1", "k1", "k2"])])
    [rec] = list(cp.load_records(path))
    assert rec.id == "A" and rec.year == 1999
    assert rec.keywords == ("k1", "k2")  # deduped, order kept
    assert rec.title_text() == "the assay"
    assert rec.sentence_texts() == ["the assay runs"]
    assert len(list(rec.all_tokens())) == 5


def test_load_lowercases_surfaces(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [doc(title="The ASSAY")])
    [rec] = list(cp.load_records(path))
    assert rec.title_text() == "the assay"


def test_load_skips_malformed_lines(tmp_path, caplog):
    path = tmp_path / "c.jsonl"
    rows = [json.dumps(doc(rid="ok1")), "{not json", json.dumps({"id": "x"}),
            json.dumps(doc(rid="ok2")), ""]
    path.write_text("\n".join(rows) + "\n")
    stream = cp.load_records(path)
    with caplog.at_level(logging.WARNING):
        records = list(stream)
    assert [r.id for r in records] == ["ok1", "ok2"]
    assert stream.skipped == 2
    assert any("skipping malformed" in m for m in caplog.messages)


def test_load_rejects_bad_shapes(tmp_path):
    bad = [
        {**doc(), "year": "2000"},              # year not an int
        {**doc(), "year": True},                # bool is not a year
        {**doc(), "id": 7},
        {**doc(), "keywords": "kw"},
        {**doc(), "title": [["w", "NOUN", "root"]]},   # 3-tuple token
        {**doc(), "title": [["", "N", "r", "e"]]},     # empty surface
    ]
    path = tmp_path / "c.jsonl"
    write_jsonl(path, bad)
    stream = cp.load_records(path)
    assert list(stream) == []
    assert stream.skipped == len(bad)


def test_load_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        cp.load_records(tmp_path / "absent.jsonl")


def test_load_empty_file_yields_nothing(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    assert list(cp.load_records(path)) == []


def assert_records_equal_oracle_parse(path):
    objs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    records = list(cp.load_records(path, strict=True))
    assert len(records) == len(objs)
    for rec, obj in zip(records, objs):
        assert rec.title == o_parse_tokens(obj["title"])
        assert rec.sentences == tuple(o_parse_tokens(s) for s in obj["sentences"])
        assert all(type(t) is cp.AnnotatedToken for t in rec.all_tokens())
        assert rec.title_text() == " ".join(t[0] for t in o_parse_tokens(obj["title"]))
        assert rec.sentence_texts() == [" ".join(t[0] for t in o_parse_tokens(s))
                                        for s in obj["sentences"]]


def test_load_records_equals_the_oracle_parse_on_the_toy_corpus(toy_path):
    assert_records_equal_oracle_parse(toy_path)


def test_load_records_equals_the_oracle_parse_on_a_generated_corpus(tmp_path):
    # mixed case, non-ASCII surfaces, and label fields that are JSON numbers
    rng = np.random.default_rng(0)
    words = ["Assay", "ß", "İnhibits", "é1", "x_2", "CD4", "p53", "7", "-", "(", "ΔNp63"]
    labels = ["NOUN", "VERB", "nsubj", "root", "<none>", "GENE", 3, 0.5, True]

    def token():
        return [str(rng.choice(words)), *(labels[i] for i in rng.integers(len(labels), size=3))]

    docs = [{"id": f"d{i}", "year": 1990 + i % 30, "keywords": ["kw"],
             "title": [token() for _ in range(rng.integers(1, 6))],
             "sentences": [[token() for _ in range(rng.integers(1, 12))]
                           for _ in range(rng.integers(1, 5))]}
            for i in range(200)]
    path = tmp_path / "c.jsonl"
    write_jsonl(path, docs)
    assert_records_equal_oracle_parse(path)


# --- subword stream and windows ---------------------------------------------------

def splitting_tokenizer():
    # forces "nano" -> ▁na + no so label inheritance is observable
    return TokenizerModel({"▁na": -1.0, "no": -1.0, "▁": -2.0, "n": -2.0,
                           "a": -2.0, "o": -2.0, "▁x": -1.0})


def labeled_record():
    t = [cp.AnnotatedToken("nano", "NOUN", "dobj", "GENE"),
         cp.AnnotatedToken("x", "VERB", "root", "<none>")]
    return cp.AnnotatedRecord("r", 2001, ("kw",), tuple(t), (tuple(t), (t[1],)))


def test_align_labels_inherits_word_labels():
    rec = labeled_record()
    labels = build_label_vocabs([rec])
    tok = splitting_tokenizer()
    stream = cp.align_labels(rec, tok, labels)
    # [start, ▁na, no, ▁x, ▁x, end]
    assert stream.ids[0] == START_ID and stream.ids[-1] == END_ID
    assert stream.ids[1:3] == [tok.id_of["▁na"], tok.id_of["no"]]
    assert stream.sentence_starts == [1, 4]
    noun = labels.pos.id("NOUN")
    assert stream.pos[1] == noun and stream.pos[2] == noun  # both subwords
    assert stream.dep[1] == stream.dep[2] == labels.dep.id("dobj")
    assert stream.ent[1] == stream.ent[2] == labels.ent.id("GENE")
    # specials carry the no-label id
    assert stream.pos[0] == 0 and stream.pos[-1] == 0
    assert len(stream.ids) == len(stream.pos) == len(stream.dep) == len(stream.ent)


class CountingLabelVocab:
    """A label vocabulary that counts its lookups."""

    def __init__(self, vocab):
        self.vocab, self.lookups = vocab, 0

    def id(self, label):
        self.lookups += 1
        return self.vocab.id(label)


@pytest.mark.parametrize("temperature", [None, 1.0], ids=["viterbi", "sampled"])
def test_align_labels_looks_each_token_up_once_and_matches_the_per_piece_oracle(
        temperature, toy_records, toy_tok, toy_labels):
    # a surface of two words and an unseen label ride along with the toy corpus
    extra = cp.AnnotatedRecord("x", 2001, (), (), ((
        cp.AnnotatedToken("nano probe", "NOUN", "dobj", "UNSEEN"),
        cp.AnnotatedToken("binds", "VERB", "root", "<none>")),))
    for rec in [*toy_records, extra]:
        want = o_align_labels(rec, toy_tok, toy_labels, temperature, np.random.default_rng(5))
        counting = LabelVocabs(*map(CountingLabelVocab,
                                    (toy_labels.pos, toy_labels.dep, toy_labels.ent)))
        stream = cp.align_labels(rec, toy_tok, counting, temperature, np.random.default_rng(5))
        got = (stream.ids, stream.pos, stream.dep, stream.ent, stream.sentence_starts)
        assert got == want
        tokens = sum(len(sent) for sent in rec.sentences)
        assert [v.lookups for v in (counting.pos, counting.dep, counting.ent)] == [tokens] * 3


def test_window_targets_are_shifted_inputs():
    rec = labeled_record()
    labels = build_label_vocabs([rec])
    cvocab = build_condition_vocab([rec], min_count=1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = cp.sample_window(rec, splitting_tokenizer(), cvocab, labels, 128, rng)
        assert len(w.input_ids) == len(w.target_ids)
        assert w.input_ids[1:] == w.target_ids[:-1]
        assert w.condition_ids == cvocab.lookup(2001, ("kw",))


def test_window_offsets_cover_sentence_starts():
    rec = labeled_record()
    labels = build_label_vocabs([rec])
    cvocab = build_condition_vocab([rec], min_count=1)
    tok = splitting_tokenizer()
    stream = cp.align_labels(rec, tok, labels)
    rng = np.random.default_rng(1)
    firsts = {w.input_ids[0] for w in
              (cp.sample_window(rec, tok, cvocab, labels, 128, rng) for _ in range(60))}
    # both the front-of-abstract window and the second-sentence window occur
    assert firsts == {START_ID, stream.ids[4]}


def test_window_cap_and_full_length():
    base = labeled_record()
    # single sentence: the only start offset is the front of the abstract
    rec = cp.AnnotatedRecord(base.id, base.year, base.keywords, base.title,
                             base.sentences[:1])
    labels = build_label_vocabs([rec])
    cvocab = build_condition_vocab([rec], min_count=1)
    tok = splitting_tokenizer()
    rng = np.random.default_rng(2)
    w = cp.sample_window(rec, tok, cvocab, labels, 3, rng)
    assert len(w.input_ids) == 3
    assert w.input_ids[0] == START_ID
    # uncapped: the front window spans the whole stream minus the final shift
    stream = cp.align_labels(rec, tok, labels)
    full = cp.sample_window(rec, tok, cvocab, labels, 128, rng)
    assert len(full.input_ids) == len(stream.ids) - 1
    assert full.target_ids[-1] == END_ID


def test_window_rejects_tiny_records():
    t = (cp.AnnotatedToken("x", "N", "r", "e"),)
    rec = cp.AnnotatedRecord("tiny", 2000, (), t, (t,))
    labels = build_label_vocabs([rec])
    cvocab = build_condition_vocab([rec], min_count=1)
    with pytest.raises(DataError, match="fewer than 2 subwords"):
        cp.sample_window(rec, splitting_tokenizer(), cvocab, labels, 8,
                         np.random.default_rng(0))


def test_sampled_tokenization_varies_windows():
    rec = labeled_record()
    labels = build_label_vocabs([rec])
    cvocab = build_condition_vocab([rec], min_count=1)
    tok = splitting_tokenizer()
    rng = np.random.default_rng(3)
    seen = {tuple(cp.sample_window(rec, tok, cvocab, labels, 128, rng,
                                   temperature=1.0).input_ids)
            for _ in range(50)}
    assert len(seen) > 2  # the lattice has alternatives and they appear


# --- batching ---------------------------------------------------------------------

def test_build_batch_pads_and_masks():
    w1 = cp.TrainingWindow([2, 5, 6], [5, 6, 3], [1, 1, 0], [1, 1, 0], [0, 0, 0], [0, 4])
    w2 = cp.TrainingWindow([2, 5], [5, 3], [1, 0], [1, 0], [0, 0], [1])
    batch = cp.build_batch([w1, w2], pad_id=0)
    assert batch.input_ids.shape == (2, 3)
    np.testing.assert_array_equal(batch.input_ids[1], [2, 5, 0])
    np.testing.assert_array_equal(batch.loss_mask, [[1, 1, 1], [1, 1, 0]])
    np.testing.assert_array_equal(batch.condition_ids, [[0, 4], [1, 0]])
    np.testing.assert_array_equal(batch.condition_mask, [[1, 1], [1, 0]])
    assert batch.input_ids.dtype == np.int64
    assert batch.target_ids[1, 2] == 0  # padded target slot


def test_build_batch_rejects_empty():
    with pytest.raises(ValueError):
        cp.build_batch([], pad_id=0)


def test_toy_corpus_streams_fit_toy_window(toy_records, toy_tok, toy_labels):
    for rec in toy_records:
        stream = cp.align_labels(rec, toy_tok, toy_labels)
        assert len(stream.ids) - 1 <= 32  # every front window fits max_seq
        assert stream.ids[0] == START_ID and stream.ids[-1] == END_ID
        assert len(stream.sentence_starts) == len(rec.sentences)
