import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlm import tokenizer as tk
from condlm.errors import DataError

from oracles import (o_best_segmentation_score, o_em_step, o_em_step_numpy, o_fit, o_prune,
                     o_seed_pieces, o_segmentations)

# Hand lattice: P(▁)=1 (normalization aside), the interesting mass is on
# splitting "ab" as one piece vs two.
HAND = {"▁": 0.0, "a": -1.0, "b": -1.0, "ab": -1.5}


def hand_model():
    return tk.TokenizerModel(dict(HAND))


def test_special_ids_fixed():
    assert (tk.PAD_ID, tk.UNK_ID, tk.START_ID, tk.END_ID) == (0, 1, 2, 3)
    assert tk.NUM_SPECIALS == 4


def test_viterbi_prefers_single_piece():
    seg, score = tk._segment("▁ab", HAND)
    assert seg == ["▁", "ab"]
    assert score == pytest.approx(-1.5, abs=1e-12)


def test_viterbi_matches_enumeration_on_hand_vocab():
    for length in range(1, 9):
        for chars in itertools.product("ab", repeat=length):
            word = "▁" + "".join(chars)
            seg, score = tk._segment(word, HAND)
            assert None not in seg
            assert score == pytest.approx(sum(HAND[p] for p in seg), abs=1e-12)
            assert score == pytest.approx(
                o_best_segmentation_score(word, HAND), abs=1e-9)


def test_viterbi_matches_enumeration_on_random_vocabs():
    for seed in (7, 19):
        rng = np.random.default_rng(seed)
        pieces = {c: float(-rng.uniform(0.5, 3.0)) for c in "▁ab"}
        pool = ["ab", "ba", "aa", "bb", "aba", "bab", "▁a", "▁b", "abab"]
        for p in rng.choice(pool, size=6, replace=False):
            pieces[str(p)] = float(-rng.uniform(0.5, 4.0))
        for length in range(1, 9):
            for chars in itertools.product("ab", repeat=length):
                word = "▁" + "".join(chars)
                _, score = tk._segment(word, pieces)
                assert score == pytest.approx(
                    o_best_segmentation_score(word, pieces), abs=1e-9)


def test_segment_tie_takes_first_arc_in_start_order():
    # "▁"+"a"+"b" and "▁"+"ab" both score -2; into the last position the arc
    # from start 1 ("ab") comes before the one from start 2 ("b")
    tied = {"▁": 0.0, "a": -1.0, "b": -1.0, "ab": -2.0}
    assert tk._segment("▁ab", tied) == (["▁", "ab"], -2.0)


_PIECE_POOL = ["▁", "a", "b", "ab", "ba", "aa", "bb", "aba", "bab", "▁a", "▁b", "abab"]


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(_PIECE_POOL),
                       st.sampled_from([-0.5, -1.0, -1.5, -2.0, -3.25]), min_size=1),
       st.text(alphabet="ab", max_size=8),
       st.sampled_from([0.0, 0.5, 1.0, 3.0]),
       st.integers(0, 2**32 - 1))
def test_segment_matches_enumeration(pieces, chars, temperature, seed):
    word = "▁" + chars
    segs = list(o_segmentations(word, pieces))
    seg, score = tk._segment(word, pieces, temperature, np.random.default_rng(seed))
    if not segs:  # some character has no piece: the lattice falls back to unknown arcs
        assert None in seg
        return
    assert seg in segs
    if temperature == 0.0:
        assert score == pytest.approx(o_best_segmentation_score(word, pieces), abs=1e-9)
        assert score == pytest.approx(sum(pieces[p] for p in seg), abs=1e-12)
    else:  # the tempered log partition over every segmentation
        z = tk._logsumexp([sum(pieces[p] for p in s) / temperature for s in segs])
        assert score == pytest.approx(z, abs=1e-9)


def test_sampled_segmentation_frequency():
    # P(["▁","ab"]) = e^-1.5 / (e^-1.5 + e^-2) at temperature 1
    model = hand_model()
    expected = math.exp(-1.5) / (math.exp(-1.5) + math.exp(-2.0))
    rng = np.random.default_rng(0)
    draws = 10_000
    single = sum(
        tk.encode_sampled(model, "ab", 1.0, rng) == [model.id_of["▁"], model.id_of["ab"]]
        for _ in range(draws))
    sigma = math.sqrt(expected * (1 - expected) / draws)
    assert abs(single / draws - expected) < 3 * sigma


def test_low_temperature_collapses_to_viterbi():
    model = hand_model()
    rng = np.random.default_rng(1)
    best = tk.encode_viterbi(model, "ab")
    for _ in range(200):
        assert tk.encode_sampled(model, "ab", 0.01, rng) == best
    # temperature <= 0 short-circuits to the Viterbi path
    assert tk.encode_sampled(model, "ab", 0.0, rng) == best


def test_high_temperature_flattens_distribution():
    model = hand_model()
    rng = np.random.default_rng(2)
    draws = 4000
    target = [model.id_of["▁"], model.id_of["ab"]]
    freq = sum(tk.encode_sampled(model, "ab", 25.0, rng) == target
               for _ in range(draws)) / draws
    assert abs(freq - 0.5) < 0.03  # near-uniform over the two segmentations


def test_unknown_characters_become_unk_ids():
    model = hand_model()
    ids = tk.encode_viterbi(model, "xy")
    assert ids == [model.id_of["▁"], tk.UNK_ID, tk.UNK_ID]
    assert tk.decode(model, ids) == ""


def test_decode_drops_specials_and_restores_spaces():
    model = hand_model()
    ids = [tk.START_ID] + tk.encode_viterbi(model, "ab a b") + [tk.END_ID, tk.PAD_ID]
    assert tk.decode(model, ids) == "ab a b"
    assert tk.decode(model, [tk.PAD_ID, tk.END_ID]) == ""
    with pytest.raises(ValueError):
        tk.decode(model, [model.vocab_size])


def test_encode_is_deterministic_and_cached():
    model = hand_model()
    first = tk.encode_viterbi(model, "ab ab")
    assert first == tk.encode_viterbi(model, "ab ab")
    assert first[:2] == first[2:]


# --- EM against enumeration ---------------------------------------------------

def em_corpus():
    return Counter({"▁abc": 3, "▁ab": 2, "▁bc": 2, "▁c": 1})


def test_em_step_matches_enumeration_oracle():
    counts = em_corpus()
    fit = tk._Fit(*tk._seed_pieces(counts))
    oracle = fit.inventory()
    for _ in range(3):
        ll = fit.em_step()
        pieces = fit.inventory()
        oracle, o_ll = o_em_step(oracle, counts)
        assert ll == pytest.approx(o_ll, abs=1e-9)
        assert set(pieces) == set(oracle)
        for p in pieces:
            assert pieces[p] == pytest.approx(oracle[p], abs=1e-9)


def fit_of(inventory, counts):
    """A fit that starts from ``inventory`` rather than the seed."""
    return tk._Fit(inventory, tk._Lattice.of_strings(counts, list(inventory), list(counts.values())))


def _assert_em_steps_match_numpy_oracle(pieces, counts, steps):
    # one lattice, built against the first inventory, serves every step
    fit = fit_of(pieces, counts)
    oracle = dict(pieces)
    for _ in range(steps):
        ll = fit.em_step()
        oracle, o_ll = o_em_step_numpy(oracle, counts)
        assert fit.inventory() == oracle and ll == o_ll  # bit for bit, same accumulation order


def test_em_step_equals_numpy_oracle_on_toy_corpus(toy_records):
    counts = word_counts(toy_sentences(toy_records))
    _assert_em_steps_match_numpy_oracle(tk._seed_pieces(counts)[0], counts, 4)


def test_em_step_equals_numpy_oracle_on_seeded_corpus():
    counts = word_counts(seeded_sentences(3))
    _assert_em_steps_match_numpy_oracle(tk._seed_pieces(counts)[0], counts, 3)


def test_em_step_equals_numpy_oracle_with_unknown_characters():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        counts = Counter({tk.MARKER + "".join(rng.choice(list("abcz"), size=rng.integers(1, 9))):
                          int(rng.integers(1, 5)) for _ in range(20)})
        pieces = {"".join(rng.choice(list("ab▁c"), size=rng.integers(1, 5))):
                  float(-rng.uniform(0.1, 8.0)) for _ in range(25)}
        _assert_em_steps_match_numpy_oracle(pieces, counts, 3)


def test_em_m_step_takes_math_log_of_the_normalized_counts():
    # np.log rounds a few inputs differently from math.log, which the M-step
    # uses. Each piece here is a one-char string of its own, so its expected
    # count is exactly that string's frequency; a seeded search draws
    # frequencies until np.log and math.log differ on some normalized count.
    pieces = [chr(0x4E00 + j) for j in range(500)]
    rng = np.random.default_rng(0)
    for _ in range(200):
        freqs = rng.integers(1, 2**20, len(pieces)).astype(np.float64)
        normalized = np.maximum(freqs, 1e-300) / sum(freqs.tolist())
        want = list(map(math.log, normalized.tolist()))
        if (np.log(normalized) != want).any():
            break
    lattice = tk._Lattice.of_strings(pieces, pieces, freqs)
    logp, _ = lattice.em_step(np.full(len(pieces), -math.log(len(pieces))))
    assert logp.tolist() == want


def test_logaddexp_equals_numpy():
    rng = np.random.default_rng(0)
    xs = rng.normal(0, 50, 20_000) * rng.choice([1e-3, 1.0, 1e3], 20_000)
    ys = np.concatenate([rng.normal(0, 50, 10_000), xs[:5_000] + rng.normal(0, 1e-12, 5_000),
                         xs[5_000:10_000]])  # near-equal, then equal arguments
    inf = math.inf
    pairs = list(zip(xs.tolist(), ys.tolist())) + [
        (a, b) for a in (-inf, inf, 0.0, -3.5) for b in (-inf, inf, 0.0, -3.5)]
    for x, y in pairs:
        want = float(np.logaddexp(x, y))
        assert tk._logaddexp(x, y) == want and tk._logaddexp(y, x) == want, (x, y)


def test_em_loglik_is_monotone():
    counts = em_corpus()
    fit = tk._Fit(*tk._seed_pieces(counts))
    lls = [fit.em_step() for _ in range(6)]
    for a, b in zip(lls, lls[1:]):
        assert b >= a - 1e-9


def toy_sentences(records):
    return [text for rec in records for text in [rec.title_text()] + rec.sentence_texts()]


_SYLLABLES = ["ka", "to", "ri", "men", "sa", "lu", "vo", "pe", "dri", "nox", "el", "a", "u"]


def seeded_sentences(seed, distinct=200):
    """``distinct`` words of one to four shared syllables, one sentence per
    word repeating it a random number of times that falls with its rank."""
    rng = np.random.default_rng(seed)
    words = {}  # an ordered set: the corpus order must not follow string hashes
    while len(words) < distinct:
        words["".join(rng.choice(_SYLLABLES, size=rng.integers(1, 5)))] = None
    return [" ".join([w] * int(1 + 40 // (1 + rank // 8) * rng.random()))
            for rank, w in enumerate(words)]


def word_counts(sentences):
    return Counter(w for s in sentences for w in tk._words(s))


def _arcs_by_position(lattice, row, pieces):
    """The arcs of one string of a ``_Lattice`` in ``_lattice``'s shape."""
    first, last = lattice.first[row], lattice.last[row]
    out = [[] for _ in range(last - first)]
    for src, dst, k in zip(lattice.src.tolist(), lattice.dst.tolist(), lattice.piece.tolist()):
        if first <= src < last:
            out[src - first].append((dst - first, pieces[k] if k < len(pieces) else None))
    return out


def _plain(out):
    return [[(j, piece) for j, piece, _ in arcs] for arcs in out]


def test_lattice_of_strings_holds_each_words_lattice_arcs_in_order():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        words = [tk.MARKER + "".join(rng.choice(list("abcz"), size=rng.integers(1, 9)))
                 for _ in range(20)]
        inventory = {"".join(rng.choice(list("ab▁c"), size=rng.integers(1, 5))): -1.0
                     for _ in range(25)}
        pieces = list(inventory)
        lattice = tk._Lattice.of_strings(words, pieces)
        for row, word in enumerate(words):
            assert _arcs_by_position(lattice, row, pieces) == _plain(tk._lattice(word, inventory))


def test_parts_hold_each_pieces_lattice_without_itself():
    # including positions that only a longer piece, or no piece, covers
    for seed in range(12):
        rng = np.random.default_rng(seed)
        counts = Counter({tk.MARKER + "".join(rng.choice(list("abcz"), size=rng.integers(1, 9))): 1
                          for _ in range(20)})
        inventory = {"".join(rng.choice(list("ab▁c"), size=rng.integers(1, 6))): -1.0
                     for _ in range(25)}
        fit = fit_of(inventory, counts)
        parts = fit.parts
        for row, k in enumerate(parts.rows.tolist()):
            piece = fit.pieces[k]
            rest = {p: lp for p, lp in inventory.items() if p != piece}
            assert _arcs_by_position(parts, row, fit.pieces) == _plain(tk._lattice(piece, rest))
        occurring = {p for p in fit.pieces if len(p) > 1 and any(p in w for w in counts)}
        assert {fit.pieces[k] for k in parts.rows.tolist()} == occurring


def test_best_counts_and_scores_equal_segment_under_ties():
    # whole-number scores make equal-scoring paths common: the first best arc
    # in ascending start order must win, as ``_segment`` walks back
    for seed in range(20):
        rng = np.random.default_rng(seed)
        inventory = {p: float(rng.choice([-1.0, -2.0, -3.0]))
                     for p in dict.fromkeys(["▁", "a", "b", "c"] + [
                         "".join(rng.choice(list("ab▁c"), size=rng.integers(2, 5))) for _ in range(20)])}
        words = [tk.MARKER + "".join(rng.choice(list("abcz"), size=rng.integers(1, 9)))
                 for _ in range(20)]
        freqs = rng.integers(1, 5, size=len(words)).tolist()
        pieces = list(inventory)
        logp = np.array(list(inventory.values()))
        lattice = tk._Lattice.of_strings(words, pieces, freqs)
        want, scores = Counter(), []
        for word, freq in zip(words, freqs):
            seg, score = tk._segment(word, inventory)
            for piece in seg:
                if piece is not None:
                    want[piece] += freq
            scores.append(score)
        assert lattice.best_scores(logp).tolist() == scores
        got = lattice.best_counts(logp).tolist()
        assert {pieces[k]: c for k, c in enumerate(got) if c} == dict(want)


def _assert_prunes_match_oracle(counts, target_pieces):
    fit = tk._Fit(*tk._seed_pieces(counts))
    rounds = 0
    while True:
        for _ in range(tk.EM_STEPS):
            fit.em_step()
        before = fit.inventory()
        want = o_prune(before, counts, target_pieces, tk.PRUNE_STEP)
        pruned = fit.prune(target_pieces)
        assert set(fit.inventory()) == set(want)
        assert pruned == (len(want) < len(before))
        if not pruned:
            return rounds
        rounds += 1


def test_prune_rounds_drop_what_the_oracle_drops(toy_records):
    assert _assert_prunes_match_oracle(word_counts(toy_sentences(toy_records)), 156) >= 3
    assert _assert_prunes_match_oracle(word_counts(seeded_sentences(5)), 120) >= 10


@pytest.mark.parametrize("corpus", ["toy", "seeded"])
def test_fit_equals_oracle_fit(corpus, toy_records):
    # every log-prob and the id order, with ==: no float may move
    if corpus == "toy":
        sentences, target_vocab = toy_sentences(toy_records), 160
    else:
        sentences, target_vocab = seeded_sentences(11), 124
    counts = word_counts(sentences)
    model = tk.train_unigram(sentences, target_vocab)
    oracle = o_fit(o_seed_pieces(counts, tk.MAX_PIECE_LEN), counts, target_vocab - tk.NUM_SPECIALS)
    assert model.pieces == oracle
    assert model.piece_of == tk.TokenizerModel(oracle).piece_of


def test_seed_pieces_equal_the_counter_seed_and_carry_its_lattice(toy_records):
    # the same pieces in the same (first seen) order with the same log-probs,
    # and the lattice that looking the words up in them builds
    corpora = [word_counts(toy_sentences(toy_records)), word_counts(seeded_sentences(7))]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        corpora.append(Counter({tk.MARKER + "".join(rng.choice(list("abcz"), size=rng.integers(1, 12))):
                                int(rng.integers(1, 5)) for _ in range(30)}))
    for counts in corpora:
        seed, words = tk._seed_pieces(counts)
        want = o_seed_pieces(counts, tk.MAX_PIECE_LEN)
        assert list(seed.items()) == list(want.items())
        looked_up = tk._Lattice.of_strings(counts, list(want), list(counts.values()))
        for name in ("src", "dst", "piece", "string", "freq", "first", "last"):
            assert np.array_equal(getattr(words, name), getattr(looked_up, name)), name
        assert words.n_pieces == len(want) and words.n_nodes == looked_up.n_nodes


def test_seed_pieces_coverage_and_frequency_threshold():
    counts = Counter({"▁xyz": 1})
    seed, _ = tk._seed_pieces(counts)
    # singleton multi-char substrings are excluded, chars always kept
    assert set(seed) == {"▁", "x", "y", "z"}
    counts = Counter({"▁xy": 2})
    seed, _ = tk._seed_pieces(counts)
    assert "▁xy" in seed and "xy" in seed and "▁x" in seed


def test_trained_model_prefers_frequent_whole_words():
    # "abc" occurs often; after EM its one-piece segmentation must win.
    sentences = ["abc abc abc abc", "ab c", "abc bc"]
    model = tk.train_unigram(sentences, target_vocab=30, seed=0)
    assert tk.decode(model, tk.encode_viterbi(model, "abc")) == "abc"
    assert model.log_prob("▁abc") > model.log_prob("▁a") + model.log_prob("bc")


# --- full training -------------------------------------------------------------

def test_train_reaches_target_vocab(toy_tok):
    assert toy_tok.vocab_size == 160
    ids = sorted(toy_tok.id_of.values())
    assert ids == list(range(tk.NUM_SPECIALS, toy_tok.vocab_size))
    assert toy_tok.piece_of == [p for p, _ in sorted(
        toy_tok.pieces.items(), key=lambda kv: (-kv[1], kv[0]))]
    # all log-probabilities are proper
    assert all(math.isfinite(lp) and lp <= 0 for lp in toy_tok.pieces.values())


def test_training_is_deterministic():
    sentences = ["the cell line", "the gene line", "cell and gene"]
    a = tk.train_unigram(sentences, target_vocab=40, seed=3)
    b = tk.train_unigram(sentences, target_vocab=40, seed=3)
    assert a.pieces == b.pieces
    assert a.id_of == b.id_of


def test_training_subsample_is_seeded():
    sentences = [f"word{i} text" for i in range(20)]
    a = tk.train_unigram(sentences, target_vocab=60, seed=5, sample=4)
    b = tk.train_unigram(sentences, target_vocab=60, seed=5, sample=4)
    assert a.pieces == b.pieces


def test_training_errors():
    with pytest.raises(DataError):
        tk.train_unigram([], target_vocab=100)
    with pytest.raises(DataError):
        tk.train_unigram(["   ", ""], target_vocab=100)
    with pytest.raises(DataError, match="cannot cover"):
        # alphabet is {▁, a, b, c}: 4 chars + 4 specials > 7
        tk.train_unigram(["ab c"], target_vocab=7)


def test_roundtrip_on_training_corpus(toy_records, toy_tok):
    for rec in toy_records:
        for text in [rec.title_text()] + rec.sentence_texts():
            ids = tk.encode_viterbi(toy_tok, text)
            assert tk.decode(toy_tok, ids) == " ".join(text.lower().split())
            assert all(i >= tk.NUM_SPECIALS for i in ids)  # fully covered


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=7), min_size=1, max_size=6))
def test_roundtrip_over_known_alphabet(words):
    model = tk.train_unigram(["a b c d ab cd abcd abcd"], target_vocab=20, seed=0)
    text = " ".join(words)
    assert tk.decode(model, tk.encode_viterbi(model, text)) == text


def test_roundtrip_normalizes_case_and_whitespace():
    model = hand_model()
    assert tk.decode(model, tk.encode_viterbi(model, "  AB   a\tB ")) == "ab a b"


def test_lattice_lists_arcs_by_start_in_ascending_end():
    out = tk._lattice("▁abx", HAND)
    assert out == [[(1, "▁", 0.0)], [(2, "a", -1.0), (3, "ab", -1.5)], [(3, "b", -1.0)],
                   [(4, None, tk.UNK_SCORE)]]


# --- save / load ---------------------------------------------------------------

def test_save_load_roundtrip(tmp_path, toy_tok):
    path = tmp_path / "tok.tsv"
    tk.save_tokenizer(toy_tok, path)
    loaded = tk.load_tokenizer(path)
    assert loaded.pieces == toy_tok.pieces  # repr() round-trips floats exactly
    assert loaded.id_of == toy_tok.id_of
    assert loaded.piece_of == toy_tok.piece_of
    second = tmp_path / "tok2.tsv"
    tk.save_tokenizer(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("not a model\n")
    with pytest.raises(DataError, match="version"):
        tk.load_tokenizer(p)
    p.write_text("#version\t99\n")
    with pytest.raises(DataError, match="version 99"):
        tk.load_tokenizer(p)
    with pytest.raises(DataError):
        tk.load_tokenizer(tmp_path / "missing.tsv")


def test_model_rejects_invalid_logprobs():
    with pytest.raises(ValueError):
        tk.TokenizerModel({"a": 0.5})
    with pytest.raises(ValueError):
        tk.TokenizerModel({"a": float("-inf")})


def test_oracle_segmentation_counts():
    # sanity on the test oracle itself: "▁ab" has exactly two segmentations
    segs = list(o_segmentations("▁ab", HAND))
    assert sorted(map(tuple, segs)) == [("▁", "a", "b"), ("▁", "ab")]
