import json
import math
import random

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlm import metrics as mt
from condlm.errors import DataError

from oracles import (o_bleu, o_bleu_geometric, o_build_df, o_cider, o_meteor,
                     o_meteor_alignment, o_rouge_l, o_save_df)

T = str.split  # tests write token lists as plain strings


def flat_df_lookup(df: mt.DfCorpus) -> dict:
    return {g: c for per_order in df.df.values() for g, c in per_order.items()}


@pytest.fixture(scope="module")
def small_df():
    docs = [T("a b a c d"), T("b b c e"), T("x y z w v"), T("a x c y")]
    return mt.build_df(docs)


# --- tokenize ---------------------------------------------------------------------

def test_tokenize_words_and_punctuation():
    assert mt.tokenize("The cat, sat.") == ["the", "cat", ",", "sat", "."]
    assert mt.tokenize("mesh-gold probe") == ["mesh", "-", "gold", "probe"]
    assert mt.tokenize("p < 0.05!") == ["p", "<", "0", ".", "05", "!"]
    assert mt.tokenize("") == []


def test_ngrams():
    assert mt.ngrams(T("a b c"), 2) == [("a", "b"), ("b", "c")]
    assert mt.ngrams(T("a b"), 3) == []


# --- BLEU -------------------------------------------------------------------------

def test_bleu1_short_candidate_penalized():
    # precisions perfect, candidate 3 of 6 reference tokens: BP = e^(1-2)
    got = mt.bleu(T("the cat sat"), [T("the cat sat on the mat")], max_order=1)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_bleu_identity():
    cand = T("the probe binds the target")
    assert mt.bleu(cand, [cand], max_order=1) == pytest.approx(1.0)
    assert mt.bleu(cand, [cand]) == pytest.approx(4.0)  # summed orders
    assert mt.bleu_geometric(cand, [cand]) == pytest.approx(1.0)


def test_bleu_clipping():
    # "the" matches at most once: clipped precision 1/3, BP 1 (c > r)
    assert mt.bleu(T("the the the"), [T("the cat")], max_order=1) == \
        pytest.approx(1.0 / 3.0, abs=1e-12)


def test_bleu_zero_overlap():
    assert mt.bleu(T("x y z"), [T("a b c")]) == 0.0
    assert mt.bleu_geometric(T("x y z"), [T("a b c")]) == 0.0


def test_bleu_brevity_tie_prefers_shorter():
    cand = T("a b c")
    refs = [T("a x"), T("a x y z")]  # distances tie at 1; shorter wins, BP = 1
    assert mt.bleu(cand, refs, max_order=1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    only_long = mt.bleu(cand, [T("a x y z")], max_order=1)
    assert only_long == pytest.approx((1.0 / 3.0) * math.exp(1.0 - 4.0 / 3.0), abs=1e-12)


def test_bleu_empty_candidate_and_refs():
    assert mt.bleu([], [T("a b")]) == 0.0
    with pytest.raises(ValueError):
        mt.bleu(T("a"), [])


def test_bleu_sum_dominates_unigram():
    cand, refs = T("a b c a"), [T("a b d"), T("c a")]
    assert mt.bleu(cand, refs) >= mt.bleu(cand, refs, max_order=1) >= 0.0


# --- ROUGE-L ----------------------------------------------------------------------

def test_rouge_l_transposition():
    # LCS("a b c d", "a c b d") = 3 -> P = R = 3/4 -> F1 = 0.75
    assert mt.rouge_l(T("a b c d"), [T("a c b d")]) == pytest.approx(0.75, abs=1e-12)


def test_rouge_l_identity_and_disjoint():
    assert mt.rouge_l(T("a b c"), [T("a b c")]) == pytest.approx(1.0)
    assert mt.rouge_l(T("a b c"), [T("x y")]) == 0.0
    assert mt.rouge_l([], [T("a")]) == 0.0


def test_rouge_l_best_reference():
    got = mt.rouge_l(T("a b c"), [T("z"), T("a b c"), T("a x")])
    assert got == pytest.approx(1.0)


# --- METEOR -----------------------------------------------------------------------

def test_meteor_identity_penalty():
    cand = T("one two three four five six seven eight nine ten")
    # single chunk over 10 matches: 1 - 0.5 * (1/10)^3
    assert mt.meteor(cand, [cand]) == pytest.approx(1.0 - 0.5e-3, abs=1e-12)


def test_meteor_swap_fragmentation():
    # "b a" vs "a b": P = R = 1, two chunks of two matches -> 1 - 0.5 = 0.5
    assert mt.meteor(T("b a"), [T("a b")]) == pytest.approx(0.5, abs=1e-12)


def test_meteor_no_match_and_best_ref():
    assert mt.meteor(T("x y"), [T("a b")]) == 0.0
    assert mt.meteor(T("a b"), [T("x"), T("a b")]) == pytest.approx(1.0 - 0.5 * (1 / 8))


def test_meteor_chunk_minimization_over_duplicates():
    # candidate "a b a", reference "a a b": the exact search must find the
    # 2-chunk alignment ("a b" contiguous) rather than a 3-chunk one
    matches, chunks = o_meteor_alignment(T("a b a"), T("a a b"))
    assert (matches, chunks) == (3, 2)
    assert mt.meteor(T("a b a"), [T("a a b")]) == pytest.approx(o_meteor(T("a b a"), [T("a a b")]), abs=1e-12)


def test_meteor_greedy_fallback_on_budget():
    # greedy 3 chunks, link bound 2, exact 2: the bounds leave a search open
    quota = {"a": 2, "b": 1}
    exact = mt._min_chunks_exact(T("a a b"), T("a b a"), quota, budget=1)
    assert exact is None  # budget exhausted
    assert mt._chunks_greedy(T("a a b"), T("a b a"), quota) == 3


def _quota(cand, ref):
    return {w: min(cand.count(w), ref.count(w)) for w in set(cand) & set(ref)}


def _link_lower_bound(cand, ref, m):
    # every link uses its own candidate and reference bigram occurrence
    cand_bi, ref_bi = list(zip(cand, cand[1:])), list(zip(ref, ref[1:]))
    shared = sum(min(cand_bi.count(b), ref_bi.count(b)) for b in set(cand_bi))
    return max(1, m - min(m - 1, shared))


small_pairs = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8)


@settings(max_examples=300, deadline=None)
@given(small_pairs, small_pairs)
def test_min_chunks_exact_matches_oracle_within_bounds(cand, ref):
    quota = _quota(cand, ref)
    got = mt._min_chunks_exact(cand, ref, quota, mt._CHUNK_BUDGET)
    assert got is not None
    m, want = o_meteor_alignment(cand, ref)
    assert got == want
    if m:
        assert _link_lower_bound(cand, ref, m) <= got <= mt._chunks_greedy(cand, ref, quota)


def test_min_chunks_exact_solves_mid_size_pair():
    # 31 x 31 tokens over ten words, like the mid-decode benchmark's pairs;
    # the bounds (greedy 20, link bound 16) leave it to the search
    words = T("one two three four five six seven eight nine ten")
    rng = random.Random(0)
    cand = [rng.choice(words) for _ in range(30)] + ["."]
    ref = [rng.choice(words) for _ in range(30)] + ["."]
    quota = _quota(cand, ref)
    assert mt._chunks_greedy(cand, ref, quota) == 20
    assert _link_lower_bound(cand, ref, sum(quota.values())) == 16
    # 17 is the minimum an integer program over all maximal alignments finds
    assert mt._min_chunks_exact(cand, ref, quota, mt._CHUNK_BUDGET) == 17


@pytest.mark.parametrize("kind", ["identical", "shuffled", "random"])
def test_meteor_long_sentence_scores_without_recursion(kind):
    words = [f"w{i}" for i in range(10)]
    rng = random.Random(1)
    cand = [rng.choice(words) for _ in range(1500)]
    ref = {"identical": cand,
           "shuffled": rng.sample(cand, len(cand)),
           "random": [rng.choice(words) for _ in range(1500)]}[kind]
    assert 0.0 <= mt.meteor(cand, [ref]) <= 1.0


# --- CIDEr ------------------------------------------------------------------------

def test_cider_identity_is_ten(small_df):
    cand = T("a b a c d")  # in the df corpus, so idf may be small but > 0 for some
    # use a reference set equal to the candidate; every order cosine is 1
    assert mt.cider(cand, [cand], small_df) == pytest.approx(10.0, abs=1e-9)


def test_cider_half_identical_refs(small_df):
    cand = T("a b a c d")
    other = T("q r s t u")  # no shared n-grams with cand
    got = mt.cider(cand, [cand, other], small_df)
    assert got == pytest.approx(5.0, abs=1e-9)


def test_cider_zero_idf_grams_drop_out():
    # a gram present in every df document has idf 0 and cannot contribute
    docs = [T("a b"), T("a c")]
    df = mt.build_df(docs)
    assert df.idf(("a",)) == 0.0
    assert mt.cider(T("a"), [T("a")], df) == 0.0


def test_cider_unseen_gram_gets_df_one(small_df):
    assert small_df.frequency(("zzz",)) == 1
    assert small_df.idf(("zzz",)) == pytest.approx(math.log(small_df.doc_count))


def test_cider_matches_normalized_tf_oracle(small_df):
    # production drops the TF normalization (it cancels); the oracle keeps it
    lookup = flat_df_lookup(small_df)
    cand = T("a b c x")
    refs = [T("a b x y"), T("c x")]
    got = mt.cider(cand, refs, small_df)
    want = o_cider(cand, refs, lookup, small_df.doc_count)
    assert got == pytest.approx(want, abs=1e-12)


def test_cider_title_masks_title_grams(small_df):
    title = T("a b")
    # candidate made only of title n-grams scores exactly zero
    assert mt.cider_title(T("a b"), [T("a b c")], small_df, title) == 0.0
    # empty title changes nothing
    cand, refs = T("a b c"), [T("a b d")]
    assert mt.cider_title(cand, refs, small_df, []) == \
        pytest.approx(mt.cider(cand, refs, small_df), abs=1e-12)


def test_cider_title_mixed_candidate_between(small_df):
    title = T("x y")
    cand = T("x y a b")
    refs = [T("x y a c")]
    masked = mt.cider_title(cand, refs, small_df, title)
    unmasked = mt.cider(cand, refs, small_df)
    assert 0.0 < masked < unmasked
    want = o_cider(cand, refs, flat_df_lookup(small_df), small_df.doc_count, title=title)
    assert masked == pytest.approx(want, abs=1e-12)


def test_df_build_save_load(tmp_path):
    docs = [T("a b a"), T("b c")]
    df = mt.build_df(docs)
    assert df.doc_count == 2
    assert df.df[1][("a",)] == 1 and df.df[1][("b",)] == 2  # per-document counts
    assert df.df[2][("a", "b")] == 1
    path = tmp_path / "df.tsv"
    mt.save_df(df, path)
    loaded = mt.load_df(path)
    assert loaded == df
    with pytest.raises(DataError):
        mt.build_df([])
    bad = tmp_path / "bad.tsv"
    bad.write_text("nope\n")
    with pytest.raises(DataError):
        mt.load_df(bad)


# Words whose tokens test the df writer's text sort: characters below the
# space and the tab (U+001F is whitespace, and splits), the underscore,
# digits, non-ASCII letters, a capital whose lowercase ends in a combining
# mark, words that are prefixes of others, and punctuation. Words are glued
# to their neighbours at random, which makes longer mixed words.
_DF_WORDS = ["a", "ab", "abc", "ab_", "ab1", "b", "_", "__", "0", "01", "1", "é", "éa", "ß",
             "ßa", "İ", "İa", "\x00", "\x01", "\x1f", "\x7f", ".", ",", "-", "~", "ab.c", "a-b"]


@pytest.mark.parametrize("rows_per_part", [3, mt._DF_PART_ROWS])
def test_df_equals_the_oracle_on_adversarial_tokens(tmp_path, monkeypatch, rows_per_part):
    monkeypatch.setattr(mt, "_DF_PART_ROWS", rows_per_part)
    for seed in range(300):
        rng = random.Random(seed)
        docs = [mt.tokenize("".join(rng.choice(_DF_WORDS) + rng.choice(["", " ", " "])
                                    for _ in range(rng.randint(0, 14))))
                for _ in range(rng.randint(1, 12))]
        df = mt.build_df(docs)
        count, want = o_build_df(docs, mt.MAX_ORDER)
        assert df == mt.DfCorpus(count, want)
        mt.save_df(df, tmp_path / "df.tsv")
        o_save_df(count, want, tmp_path / "oracle.tsv")
        assert (tmp_path / "df.tsv").read_bytes() == (tmp_path / "oracle.tsv").read_bytes()


def test_df_rows_span_write_parts_in_order(tmp_path):
    # more distinct unigrams than one part holds
    words = [f"w{i}" for i in range(2 * mt._DF_PART_ROWS + 5)]
    docs = [words[::-1], words[::3]]
    df = mt.build_df(docs)
    mt.save_df(df, tmp_path / "df.tsv")
    o_save_df(*o_build_df(docs, mt.MAX_ORDER), tmp_path / "oracle.tsv")
    assert (tmp_path / "df.tsv").read_bytes() == (tmp_path / "oracle.tsv").read_bytes()
    assert mt.load_df(tmp_path / "df.tsv") == df


@pytest.mark.parametrize("text,line,message", [
    ("#documents\t0\nthe\t1\n", 1, "document count 0 is below 1"),
    ("#documents\t-3\n", 1, "document count -3 is below 1"),
    ("#documents\t2\nthe\t1\nthe cat\t3\n", 3, "count 3 outside [1, 2] documents"),
    ("#documents\t2\nthe\t0\n", 2, "count 0 outside [1, 2] documents"),
    ("#documents\t3\nthe\t1\nthe cat\t1\nthe\t3\n", 4, "gram 'the' repeats line 2"),
    ("#documents\t3\textra\nthe\t1\n", 1, "expected #documents<TAB>count, got '#documents\\t3\\textra'"),
], ids=["no-documents", "negative-documents", "count-above-documents", "zero-count",
        "repeated-gram", "header-fields"])
def test_load_df_refuses_impossible_counts(tmp_path, text, line, message):
    # build_df never writes these; a zero document count used to surface
    # later as a bare "math domain error", and a repeated gram kept its last count
    path = tmp_path / "df.tsv"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        mt.load_df(path)
    assert str(err.value) == f"{path}:{line}: {message}"


# --- oracle equivalence over random inputs ------------------------------------------

tokens = st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=6)
nonempty_tokens = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=5)
refsets = st.lists(nonempty_tokens, min_size=1, max_size=3)


@settings(max_examples=120, deadline=None)
@given(tokens, refsets)
def test_bleu_matches_oracle(cand, refs):
    assert mt.bleu(cand, refs) == pytest.approx(o_bleu(cand, refs, 4), abs=1e-12)
    assert mt.bleu(cand, refs, max_order=1) == pytest.approx(o_bleu(cand, refs, 1), abs=1e-12)
    assert mt.bleu_geometric(cand, refs) == pytest.approx(
        o_bleu_geometric(cand, refs, 4), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(tokens, refsets)
def test_rouge_matches_oracle(cand, refs):
    assert mt.rouge_l(cand, refs) == pytest.approx(o_rouge_l(cand, refs), abs=1e-12)


long_tokens = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=90)


@settings(max_examples=80, deadline=None)
@given(long_tokens, long_tokens)
def test_rouge_matches_oracle_past_one_machine_word(cand, ref):
    # the bit-parallel LCS keeps one bit per reference token
    assert mt.rouge_l(cand, [ref]) == pytest.approx(o_rouge_l(cand, [ref]), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(tokens, refsets)
def test_meteor_matches_oracle(cand, refs):
    assert mt.meteor(cand, refs) == pytest.approx(o_meteor(cand, refs), abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(tokens, refsets)
def test_cider_matches_oracle(cand, refs):
    docs = [T("a b a c"), T("b c b"), T("c a a b c")]
    df = mt.build_df(docs)
    lookup = flat_df_lookup(df)
    assert mt.cider(cand, refs, df) == pytest.approx(
        o_cider(cand, refs, lookup, df.doc_count), abs=1e-12)
    title = ["a", "b"]
    assert mt.cider_title(cand, refs, df, title) == pytest.approx(
        o_cider(cand, refs, lookup, df.doc_count, title=title), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(tokens, refsets)
def test_metric_ranges_hold(cand, refs):
    docs = [T("a b"), T("c b a")]
    df = mt.build_df(docs)
    values = {
        "bleu_1": mt.bleu(cand, refs, max_order=1),
        "bleu_sum": mt.bleu(cand, refs),
        "bleu_geometric": mt.bleu_geometric(cand, refs),
        "rouge_l": mt.rouge_l(cand, refs),
        "meteor": mt.meteor(cand, refs),
        "cider": mt.cider(cand, refs, df),
        "cider_title": mt.cider_title(cand, refs, df, ["a"]),
    }
    for name, value in values.items():
        lo, hi = mt.METRIC_RANGES[name]
        assert lo <= value <= hi + 1e-12, name


# --- histogram and report ------------------------------------------------------------

def test_histogram_fixed_range():
    h = mt._histogram([0.0, 0.5, 1.0, 1.0], 0.0, 1.0)
    assert len(h["edges"]) == mt.HISTOGRAM_BINS + 1
    assert h["edges"][0] == 0.0 and h["edges"][-1] == pytest.approx(1.0)
    assert sum(h["masses"]) == pytest.approx(1.0)
    assert h["masses"][-1] == pytest.approx(0.5)  # the two 1.0 values clamp in
    assert h["masses"][0] == pytest.approx(0.25)


def test_histogram_empty():
    h = mt._histogram([], 0.0, 1.0)
    assert sum(h["masses"]) == 0.0


def sample_rows():
    gen = [
        {"id": "g1", "title": "the probe",
         "sentences": ["the probe binds the cell.", "results were strong."]},
        {"id": "missing", "title": "", "sentences": ["anything."]},
    ]
    refs = {"g1": ["the probe binds the cell.", "results were strong."]}
    return gen, refs


def test_evaluate_report_shape_and_perfect_copies(small_df):
    gen, refs = sample_rows()
    report = mt.evaluate(gen, refs, small_df)
    jsonschema.validate(report, mt.REPORT_SCHEMA)
    assert report["documents"] == 1
    assert report["sentences"] == 2
    assert report["unmatched_ids"] == ["missing"]
    assert report["metrics"]["bleu_1"]["mean"] == pytest.approx(1.0)
    assert report["metrics"]["rouge_l"]["mean"] == pytest.approx(1.0)
    for name, block in report["metrics"].items():
        assert len(block["per_sentence"]) == 2
        assert sum(block["histogram"]["masses"]) == pytest.approx(1.0)
    # every sentence is scored against all reference sentences: the bleu_1
    # histogram mass sits in the top bin
    assert report["metrics"]["bleu_1"]["histogram"]["masses"][-1] == pytest.approx(1.0)


class UnpicklableDf(mt.DfCorpus):
    def __reduce__(self):
        raise AssertionError("the df reached a pool task")


def test_evaluate_parallel_matches_serial(small_df):
    gen, refs = sample_rows()
    # a second matched row, so the pool has two tasks and starts
    gen.append({"id": "g2", "title": "strong cell",
                "sentences": ["the cell was strong.", "probe results."]})
    refs["g2"] = ["results were strong in the cell.", "the probe binds."]
    df = UnpicklableDf(small_df.doc_count, small_df.df)
    serial = mt.evaluate(gen, refs, df, workers=1)
    parallel = mt.evaluate(gen, refs, df, workers=2)
    assert serial["documents"] == 2
    assert serial == parallel


def test_evaluate_no_matches(small_df):
    report = mt.evaluate([{"id": "x", "sentences": ["a."]}], {"y": ["b."]}, small_df)
    assert report["documents"] == 0 and report["sentences"] == 0
    assert report["unmatched_ids"] == ["x"]
    assert report["metrics"]["bleu_1"]["mean"] is None
    jsonschema.validate(report, mt.REPORT_SCHEMA)


def test_save_report_is_stable_json(tmp_path, small_df):
    gen, refs = sample_rows()
    report = mt.evaluate(gen, refs, small_df)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    mt.save_report(report, p1)
    mt.save_report(json.loads(p1.read_text()), p2)
    assert p1.read_bytes() == p2.read_bytes()
