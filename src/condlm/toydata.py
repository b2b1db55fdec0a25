"""A small synthetic annotated corpus for demos, smoke tests, and the
desk-scale memorization runs.

The fixed eight-document corpus is built so a toy model can memorize it:
every word is at most five characters and occurs at least twice corpus-wide
(so whole words survive tokenizer seeding and each abstract fits in one
toy-length window), the title repeats the first sentence so a title prompt
is an in-distribution prefix, and two documents share a title while
differing only in their keyword condition (the conditioning signal is the
only way to tell their continuations apart).
"""

from __future__ import annotations

import json

from .textio import write_atomic

_POS = {"the": "DET", "a": "DET", "in": "ADP", "with": "ADP", "under": "ADP",
        "and": "CCONJ", ".": "PUNCT"}
_VERBS = {"shows", "rises", "heals", "drops", "slows", "binds", "bind",
          "store", "guide", "grows", "marks"}
_ENTS = {"gene": "gene_or_gene_product", "dna": "gene_or_gene_product",
         "rna": "gene_or_gene_product", "cell": "cell", "cells": "cell",
         "tumor": "cancer", "mice": "organism", "liver": "tissue",
         "bone": "tissue", "serum": "tissue", "lipid": "simple_chemical",
         "acid": "simple_chemical", "salt": "simple_chemical",
         "iron": "simple_chemical", "gold": "simple_chemical"}


def _annotate(sentence: str) -> list[list[str]]:
    tokens = []
    for i, w in enumerate(sentence.split()):
        if w in _POS:
            pos, dep = _POS[w], "det" if _POS[w] == "DET" else "case"
        elif w in _VERBS:
            pos, dep = "VERB", "ROOT"
        else:
            pos, dep = "NOUN", "nsubj" if i == 0 else "obj"
        if w == ".":
            dep = "punct"
        tokens.append([w, pos, dep, _ENTS.get(w, "O")])
    return tokens


# Eight documents: (year, keywords, sentences). The title is sentence one.
# Documents 6 and 7 share a title and a year; only their keywords differ,
# and their continuations diverge at the first word after the title.
_DOCS = [
    (1990, ["mesh-tumor"], ["the tumor gene assay .",
                            "the assay shows tumor mass .",
                            "the gene shows cell mass ."]),
    (1991, ["mesh-serum"], ["serum lipid level assay .",
                            "the lipid level rises with dose .",
                            "serum dose rises fast ."]),
    (1992, ["mesh-bone"], ["bone graft heals fast .",
                           "the graft heals with acid salt .",
                           "bone mass drops under salt ."]),
    (1993, [], ["dna marks guide cell fix .",
                "the marks guide under cold .",
                "dna cold drops the fix ."]),
    (1994, ["mesh-liver", "mesh-iron"], ["liver cells store iron .",
                                         "cells store lipid under cold .",
                                         "the liver slows iron fast ."]),
    (1995, ["mesh-rna"], ["rna loops bind acid .",
                          "the loops bind acid salt .",
                          "rna dose slows the bind ."]),
    (1996, ["mesh-gold"], ["the cold probe assay .",
                           "gold salt binds bone mass .",
                           "the probe marks gold level ."]),
    (1996, ["mesh-blue"], ["the cold probe assay .",
                           "iron dose binds cell mass .",
                           "the probe marks iron level ."]),
]


def memorization_documents() -> list[dict]:
    """The fixed eight-document corpus as JSONL-ready dicts."""
    docs = []
    for i, (year, keywords, sentences) in enumerate(_DOCS):
        docs.append({
            "id": f"toy-{i:03d}",
            "year": year,
            "keywords": keywords,
            "title": _annotate(sentences[0]),
            "sentences": [_annotate(s) for s in sentences],
        })
    return docs


def write_jsonl(docs: list[dict], path) -> None:
    write_atomic(path, (json.dumps(doc) + "\n" for doc in docs))
