import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlm.corpus import AnnotatedRecord, AnnotatedToken
from condlm.errors import DataError
from condlm.vocab import (NO_LABEL, ConditionVocab, LabelVocab, build_condition_vocab,
                          build_label_vocabs, load_condition_vocab,
                          load_label_vocabs, save_condition_vocab,
                          save_label_vocabs)


def rec(rid, year, keywords, words=("w",)):
    toks = tuple(AnnotatedToken(w, "NOUN", "root", NO_LABEL) for w in words)
    return AnnotatedRecord(rid, year, tuple(keywords), toks, (toks,))


def test_min_count_is_document_frequency():
    # "mice" appears twice in one record: document frequency is still 1.
    records = [
        rec("a", 2000, ["mice", "mice", "cells"]),
        rec("b", 2001, ["cells"]),
    ]
    v = build_condition_vocab(records, min_count=2)
    assert set(v.keyword_ids) == {"cells"}
    v1 = build_condition_vocab(records, min_count=1)
    assert set(v1.keyword_ids) == {"cells", "mice"}


def test_min_count_boundary():
    records = [rec(f"r{i}", 2000, ["kept"] + (["dropped"] if i < 9 else []))
               for i in range(10)]
    v = build_condition_vocab(records, min_count=10)
    assert "kept" in v.keyword_ids and "dropped" not in v.keyword_ids


def test_year_block_contiguous_and_first():
    records = [rec("a", 1998, []), rec("b", 2003, ["k"]), rec("c", 2000, ["k"])]
    v = build_condition_vocab(records, min_count=1)
    assert (v.year_base, v.year_count) == (1998, 6)  # 1998..2003 inclusive
    assert v.year_id(1998) == 0 and v.year_id(2003) == 5
    assert v.keyword_ids["k"] == 6  # keywords start right after the years
    assert v.total == 7


def test_max_year_extends_block():
    v = build_condition_vocab([rec("a", 2000, [])], min_count=1, max_year=2002)
    assert (v.year_base, v.year_count) == (2000, 3)


def test_year_out_of_range_names_bounds():
    v = build_condition_vocab([rec("a", 2000, []), rec("b", 2004, [])], min_count=1)
    with pytest.raises(DataError, match=r"\[2000, 2004\]"):
        v.year_id(1999)
    with pytest.raises(DataError):
        v.lookup(2005, [])


def test_lookup_order_dedupe_and_oov():
    v = ConditionVocab({"a": 3, "b": 4, "c": 5}, year_base=1990, year_count=3)
    assert v.lookup(1991, ["c", "zzz", "a", "c"]) == [1, 5, 3]
    assert v.lookup(1990, []) == [0]  # keywordless: the year condition only


def test_empty_records_rejected():
    with pytest.raises(DataError):
        build_condition_vocab([], min_count=1)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=1900, max_value=2020),
              st.lists(st.sampled_from(["k1", "k2", "k3", "k4"]), max_size=3)),
    min_size=1, max_size=12))
def test_ids_are_compact(entries):
    records = [rec(f"r{i}", y, kws) for i, (y, kws) in enumerate(entries)]
    v = build_condition_vocab(records, min_count=1)
    ids = list(range(v.year_count)) + sorted(v.keyword_ids.values())
    assert ids == list(range(v.total))
    for y, kws in entries:
        got = v.lookup(y, kws)
        assert got[0] == y - v.year_base
        assert len(got) == len(set(got))
        assert all(0 <= c < v.total for c in got)


def test_condition_vocab_roundtrip(tmp_path):
    v = build_condition_vocab(
        [rec("a", 1995, ["x", "y"]), rec("b", 1997, ["x"])], min_count=1)
    path = tmp_path / "cond.tsv"
    save_condition_vocab(v, path)
    loaded = load_condition_vocab(path)
    assert loaded == v


def test_vocab_rows_end_only_at_a_newline(tmp_path):
    # U+2028, U+0085, a form feed and a group separator stay inside a row
    keywords = ["line\u2028sep", "next\x85line", "form\x0cfeed", "group\x1dsep"]
    v = build_condition_vocab([rec("a", 1995, keywords)], min_count=1)
    path = tmp_path / "cond.tsv"
    save_condition_vocab(v, path)
    assert load_condition_vocab(path) == v
    labels = build_label_vocabs([rec("a", 1995, [])])
    labels = dataclasses.replace(labels, pos=LabelVocab("pos", {NO_LABEL: 0, "N\u2029N": 1}))
    save_label_vocabs(labels, tmp_path / "labels.tsv")
    assert load_label_vocabs(tmp_path / "labels.tsv") == labels


def test_condition_vocab_load_errors(tmp_path):
    p = tmp_path / "cond.tsv"
    p.write_text("bogus\tx\t1\n")
    with pytest.raises(DataError, match="malformed"):
        load_condition_vocab(p)
    p.write_text("keyword\tk\t5\n")
    with pytest.raises(DataError, match="no year"):
        load_condition_vocab(p)
    p.write_text("year\t1990\t0\nyear\t1992\t1\n")
    with pytest.raises(DataError, match="contiguous"):
        load_condition_vocab(p)
    with pytest.raises(DataError):
        load_condition_vocab(tmp_path / "nope.tsv")


YEARS = "year\t1990\t0\nyear\t1991\t1\n"


@pytest.mark.parametrize("text,message", [
    (YEARS + "keyword\tk\t999\n", ":3: keyword id 999 outside [2, 3)"),
    # id 0 is the year 1990: the keyword would silently condition as that year
    (YEARS + "keyword\tk\t0\n", ":3: keyword id 0 outside [2, 3)"),
    (YEARS + "keyword\tk\t2\nkeyword\tm\t2\n", ":4: keyword id 2 repeats line 3"),
    (YEARS + "keyword\tk\t2\nkeyword\tk\t3\n", ":4: keyword 'k' repeats line 3"),
    ("year\t1990\t0\nkeyword\tk\t1\nyear\t1990\t0\n", ":3: year '1990' repeats line 1"),
], ids=["id-past-table", "id-in-year-block", "repeated-id", "repeated-keyword", "repeated-year"])
def test_condition_vocab_refuses_keyword_ids_outside_their_block(tmp_path, text, message):
    p = tmp_path / "cond.tsv"
    p.write_text(text)
    with pytest.raises(DataError) as err:
        load_condition_vocab(p)
    assert str(err.value) == f"{p}{message}"


# --- label vocabularies --------------------------------------------------------

def test_label_vocabs_reserve_no_label():
    records = [
        AnnotatedRecord(
            "a", 2000, (),
            (AnnotatedToken("title", "NOUN", "root", "GENE"),),
            ((AnnotatedToken("body", "VERB", "dobj", NO_LABEL),),),
        ),
        AnnotatedRecord("b", 2000, (), (), ((),)),  # an empty title and sentence
    ]
    vs = build_label_vocabs(records)
    for lv in (vs.pos, vs.dep, vs.ent):
        assert lv.ids[NO_LABEL] == 0
        assert sorted(lv.ids.values()) == list(range(lv.size))
    # title tokens contribute labels too
    assert vs.pos.id("NOUN") > 0 and vs.ent.id("GENE") > 0
    assert vs.pos.id("never-seen") == 0


def test_label_vocabs_roundtrip(tmp_path, toy_labels):
    path = tmp_path / "labels.tsv"
    save_label_vocabs(toy_labels, path)
    loaded = load_label_vocabs(path)
    assert loaded == toy_labels


def test_label_vocabs_load_errors(tmp_path):
    p = tmp_path / "labels.tsv"
    p.write_text("pos\tNOUN\t1\n")
    with pytest.raises(DataError, match="no-label"):
        load_label_vocabs(p)
    p.write_text("huh\tx\t0\n")
    with pytest.raises(DataError, match="malformed"):
        load_label_vocabs(p)


@pytest.mark.parametrize("text,message", [
    # an id past the table used to surface only at training, with no file
    ("pos\t<none>\t0\npos\tNOUN\t77\n", ":2: pos label id 77 outside [0, 2)"),
    ("pos\t<none>\t0\ndep\t<none>\t0\ndep\troot\t0\n", ":3: dep label id 0 repeats line 2"),
    ("ent\t<none>\t0\nent\tGENE\t1\nent\tGENE\t2\n", ":3: ent label 'GENE' repeats line 2"),
], ids=["id-past-table", "repeated-id", "repeated-label"])
def test_label_vocabs_refuse_ids_that_do_not_fill_their_range(tmp_path, text, message):
    p = tmp_path / "labels.tsv"
    p.write_text(text + "".join(f"{kind}\t<none>\t0\n" for kind in ("pos", "dep", "ent")
                                if f"{kind}\t<none>" not in text))
    with pytest.raises(DataError) as err:
        load_label_vocabs(p)
    assert str(err.value) == f"{p}{message}"
