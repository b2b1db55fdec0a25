"""Seeded input generators for the benchmark workloads.

Everything here is made from a seed alone: the same seed gives the same
corpus, prompts and candidate abstracts. The program under test only ever
sees the files these functions produce.
"""

from __future__ import annotations

import numpy as np

LEXICON_SEED = 20020

# Function words take the top Zipf ranks, as in real abstracts.
_FUNCTION = [("the", "DET"), ("of", "ADP"), ("in", "ADP"), ("and", "CCONJ"),
             ("a", "DET"), ("with", "ADP"), ("to", "ADP"), ("was", "AUX"),
             ("were", "AUX"), ("by", "ADP"), ("for", "ADP"), ("on", "ADP"),
             ("is", "AUX"), ("that", "SCONJ"), ("we", "PRON"), ("these", "DET")]
_PREFIXES = ["cardi", "neur", "hepat", "nephr", "oste", "derm", "gastr",
             "pulmon", "immun", "onc", "lip", "glyc", "prot", "kin", "cyt",
             "myel", "lymph", "angi", "thromb", "endo", "micr", "hyper",
             "hypo", "poly", "fibr", "chondr", "leuk", "erythr", "mucos",
             "ser", "phosph", "sulf", "nitr", "hem", "my", "aden", "lact",
             "chol", "ster", "ren"]
_MIDDLES = ["o", "i", "a", "", "ul", "en", "ot", "am"]
# suffix -> (POS, entity label)
_SUFFIXES = {"itis": ("NOUN", "disease"), "ase": ("NOUN", "gene_or_gene_product"),
             "ine": ("NOUN", "simple_chemical"), "ol": ("NOUN", "simple_chemical"),
             "ide": ("NOUN", "simple_chemical"), "emia": ("NOUN", "disease"),
             "oma": ("NOUN", "cancer"), "osis": ("NOUN", "disease"),
             "genic": ("ADJ", "O"), "ocyte": ("NOUN", "cell"),
             "ectomy": ("NOUN", "O"), "ology": ("NOUN", "O"), "al": ("ADJ", "O"),
             "ic": ("ADJ", "O"), "ous": ("ADJ", "O"), "in": ("NOUN", "gene_or_gene_product"),
             "ates": ("VERB", "O"), "izes": ("VERB", "O"), "ed": ("VERB", "O")}
_KEYWORD_ROOTS = ["neoplasms", "liver", "kidney", "bone", "lipids", "insulin",
                  "apoptosis", "mice", "humans", "rats", "inflammation",
                  "signal-transduction", "gene-expression", "mutation",
                  "brain", "blood", "heart", "lung", "skin", "t-lymphocytes",
                  "antibodies", "receptors", "enzymes", "hormones", "diet",
                  "obesity", "diabetes", "hypertension", "infection", "vaccines",
                  "dna", "rna", "proteins", "peptides", "membranes",
                  "mitochondria", "oxidative-stress", "aging", "pregnancy",
                  "child"]


class Lexicon:
    """Distinct pseudo-biomedical words with a Zipf rank order and a fixed
    annotation per word."""

    def __init__(self, size: int, rng: np.random.Generator, zipf_s: float = 1.05):
        words = {w: (pos, "O") for w, pos in _FUNCTION}
        suffixes = list(_SUFFIXES)
        while len(words) < size:
            w = (str(rng.choice(_PREFIXES)) + str(rng.choice(_MIDDLES))
                 + str(rng.choice(suffixes)))
            if rng.random() < 0.3:  # compounds widen the set of distinct words
                w = str(rng.choice(_PREFIXES)) + str(rng.choice(_MIDDLES)) + w
            if w not in words:
                words[w] = _SUFFIXES[next(s for s in suffixes if w.endswith(s))]
        func = [w for w, _ in _FUNCTION]
        content = [w for w in words if w not in dict(_FUNCTION)]
        rng.shuffle(content)
        self.words = func + content
        self.labels = words
        ranks = np.arange(1, len(self.words) + 1, dtype=np.float64)
        p = ranks ** -zipf_s
        self.probs = p / p.sum()

    def sentence(self, rng: np.random.Generator, n_words: int) -> list[list[str]]:
        idx = rng.choice(len(self.words), size=n_words, p=self.probs)
        return annotate([self.words[i] for i in idx], self.labels) + [[".", "PUNCT", "punct", "O"]]


def annotate(words: list[str], labels: dict[str, tuple[str, str]]) -> list[list[str]]:
    """[surface, pos, dep, ent] quadruples; dependency labels follow POS."""
    out = []
    for i, w in enumerate(words):
        pos, ent = labels[w]
        if pos == "VERB":
            dep = "ROOT"
        elif pos == "DET":
            dep = "det"
        elif pos == "ADP":
            dep = "case"
        elif pos == "ADJ":
            dep = "amod"
        else:
            dep = "nsubj" if i == 0 else "obj"
        out.append([w, pos, dep, ent])
    return out


def keyword_pool(count: int) -> list[str]:
    return [f"mesh-{_KEYWORD_ROOTS[i % len(_KEYWORD_ROOTS)]}"
            + ("" if i < len(_KEYWORD_ROOTS) else f"-{i // len(_KEYWORD_ROOTS)}")
            for i in range(count)]


def zipf_documents(seed: int, docs: int, lexicon_size: int, sentences: tuple[int, int],
                   words: tuple[int, int], last_words: tuple[int, int] | None = None,
                   keywords: int = 60) -> tuple[list[dict], Lexicon]:
    """Annotated records over a Zipf lexicon. The first sentence doubles as
    the title, so a title prompt is an in-distribution prefix; ``last_words``
    appends one closing sentence of that length.

    The lexicon is the same for every seed, like the vocabulary of a field:
    the seed draws the documents. Work that scales with the distinct words
    (the tokenizer fit) is then the same size from seed to seed."""
    lex = Lexicon(lexicon_size, np.random.default_rng(LEXICON_SEED))
    rng = np.random.default_rng(seed)
    kw_pool = keyword_pool(keywords)
    kw_p = 1.0 / np.arange(1, len(kw_pool) + 1)
    kw_p /= kw_p.sum()
    out = []
    for d in range(docs):
        n_sent = int(rng.integers(sentences[0], sentences[1] + 1))
        sents = [lex.sentence(rng, int(rng.integers(words[0], words[1] + 1)))
                 for _ in range(n_sent)]
        if last_words is not None:
            sents.append(lex.sentence(rng, int(rng.integers(last_words[0], last_words[1] + 1))))
        n_kw = int(rng.integers(1, 4))
        kws = sorted({kw_pool[i] for i in rng.choice(len(kw_pool), size=n_kw, p=kw_p)})
        out.append({"id": f"doc-{d:05d}", "year": 1990 + int(rng.integers(0, 30)),
                    "keywords": kws, "title": sents[0], "sentences": sents})
    return out, lex


def surface(tokens: list[list[str]]) -> str:
    return " ".join(t[0] for t in tokens)


def prompts(seed: int, docs: list[dict], count: int, title_words: int = 8) -> list[dict]:
    """Prompt rows for ``generate --prompts-file``: the first words of a
    corpus title, one to three keywords and a year from the corpus range.
    Titles are cut to one length so that requests cost about the same."""
    rng = np.random.default_rng(seed + 7)
    kws = sorted({k for d in docs for k in d["keywords"]})
    years = [d["year"] for d in docs]
    rows = []
    for i in range(count):
        d = docs[int(rng.integers(len(docs)))]
        n_kw = int(rng.integers(1, 4))
        chosen = sorted({kws[int(j)] for j in rng.integers(len(kws), size=n_kw)})
        rows.append({"id": f"prompt-{i:03d}", "title": surface(d["title"][:title_words]),
                     "year": int(rng.integers(min(years), max(years) + 1)),
                     "keywords": chosen})
    return rows


def pooled_references(seed: int, lex: Lexicon, docs: int, pool: int,
                      words: tuple[int, int], sentences: int) -> list[dict]:
    """Reference records whose sentences are long runs over a pool of a
    few lexicon words, the title an ordinary sentence."""
    rng = np.random.default_rng(seed + 5)
    out = []
    for d in range(docs):
        chosen = [lex.words[i] for i in rng.choice(len(lex.words), size=pool, replace=False, p=lex.probs)]
        sents = [annotate([str(w) for w in rng.choice(chosen, size=int(rng.integers(words[0], words[1] + 1)))],
                          lex.labels) + [[".", "PUNCT", "punct", "O"]] for _ in range(sentences)]
        out.append({"id": f"ref-{d:03d}", "year": 2000, "keywords": [],
                    "title": lex.sentence(rng, 8), "sentences": sents})
    return out


def repetitive_candidates(seed: int, docs: list[dict], pool: int,
                          words: tuple[int, int], sentences: int) -> list[dict]:
    """Generation rows like a barely trained model emits: long sentences
    drawn from a handful of frequent words of the row's own reference."""
    rng = np.random.default_rng(seed + 11)
    rows = []
    for d in docs:
        ref_words = [t[0] for s in d["sentences"] for t in s if t[0] != "."]
        common = sorted(set(ref_words), key=lambda w: (-ref_words.count(w), w))[:pool]
        sents = []
        for _ in range(sentences):
            n = int(rng.integers(words[0], words[1] + 1))
            sents.append(" ".join(str(w) for w in rng.choice(common, size=n)) + " .")
        rows.append({"id": d["id"], "title": surface(d["title"]), "sentences": sents})
    return rows

