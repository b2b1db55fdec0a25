"""Condition and annotation-label vocabularies.

Conditions are publication year plus keyword headings. Year ids occupy a
contiguous block [0, year_count) covering every year from the earliest
observed one; keyword ids follow. Keywords are kept when they occur in at
least ``min_count`` distinct documents. Annotation labels (POS, dependency,
entity) get their own small vocabularies with id 0 reserved for "no label",
used for special tokens and unseen labels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import DataError
from .textio import read_lines, write_atomic

NO_LABEL = "<none>"


def _storable(kind: str, key: str) -> str:
    """``key`` itself, if a vocabulary file row can hold it: a tab or a
    line break would split the row, and the loader would refuse it."""
    if any(c in key for c in "\t\n\r"):
        raise DataError(f"{kind} {key!r} holds a tab or line break, which a vocabulary file cannot store")
    return key


@dataclass(frozen=True)
class ConditionVocab:
    keyword_ids: dict[str, int]  # keyword -> id in [year_count, total)
    year_base: int
    year_count: int

    @property
    def total(self) -> int:
        return self.year_count + len(self.keyword_ids)

    def year_id(self, year: int) -> int:
        if not self.year_base <= year < self.year_base + self.year_count:
            hi = self.year_base + self.year_count - 1
            raise DataError(f"year {year} outside vocabulary range [{self.year_base}, {hi}]")
        return year - self.year_base

    def lookup(self, year: int, keywords: Iterable[str]) -> list[int]:
        """Condition ids: year first, then in-vocabulary keywords in input
        order. Out-of-vocabulary keywords are dropped; duplicates collapse."""
        ids = [self.year_id(year)]
        seen = set()
        for kw in keywords:
            kid = self.keyword_ids.get(kw)
            if kid is not None and kid not in seen:
                seen.add(kid)
                ids.append(kid)
        return ids


def build_condition_vocab(records, min_count: int, max_year: int | None = None) -> ConditionVocab:
    """Document-frequency count over keywords, year range from observation.

    ``max_year`` extends the year block upward (e.g. to cover a held-out
    split); the base is always the earliest observed year.
    """
    df: Counter = Counter()
    years = []
    for rec in records:
        years.append(rec.year)
        df.update(set(rec.keywords))
    if not years:
        raise DataError("cannot build a condition vocabulary from zero records")
    base = min(years)
    top = max(max(years), max_year if max_year is not None else base)
    year_count = top - base + 1
    kept = sorted(_storable("keyword", kw) for kw, c in df.items() if c >= min_count)
    keyword_ids = {kw: year_count + i for i, kw in enumerate(kept)}
    return ConditionVocab(keyword_ids, base, year_count)


def save_condition_vocab(vocab: ConditionVocab, path) -> None:
    write_atomic(path, [*(f"year\t{vocab.year_base + i}\t{i}\n" for i in range(vocab.year_count)),
                        *(f"keyword\t{kw}\t{kid}\n" for kw, kid
                          in sorted(vocab.keyword_ids.items(), key=lambda kv: kv[1]))])


def _rows(path, what: str, kinds: tuple[str, ...]):
    """(line number, kind, key, integer id) for each non-blank line; a line
    of another shape or kind is a DataError naming the file and line."""
    for lineno, line in read_lines(path, what):
        if not line:
            continue
        row = line.split("\t")
        if len(row) != 3 or row[0] not in kinds:
            raise DataError(f"{path}:{lineno}: malformed {what} row {line!r}")
        try:
            row_id = int(row[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: id {row[2]!r} is not an integer") from None
        yield lineno, row[0], row[1], row_id


def _check_ids(path, what: str, rows: list[tuple[int, str, int]], low: int) -> None:
    """Refuse a repeated key, or an id that repeats or falls outside
    [low, low + len(rows)), naming the file and line: the ids of ``rows``
    (line number, key, id) must fill that range exactly."""
    high = low + len(rows)
    key_lines: dict[str, int] = {}
    id_lines: dict[int, int] = {}
    for lineno, key, row_id in rows:
        if key in key_lines:
            raise DataError(f"{path}:{lineno}: {what} {key!r} repeats line {key_lines[key]}")
        if not low <= row_id < high:
            raise DataError(f"{path}:{lineno}: {what} id {row_id} outside [{low}, {high})")
        if row_id in id_lines:
            raise DataError(f"{path}:{lineno}: {what} id {row_id} repeats line {id_lines[row_id]}")
        key_lines[key] = id_lines[row_id] = lineno


def load_condition_vocab(path) -> ConditionVocab:
    rows: dict[str, list] = {"year": [], "keyword": []}
    for lineno, kind, key, cid in _rows(path, "condition vocabulary", tuple(rows)):
        rows[kind].append((lineno, key, cid))
    years = {}
    for lineno, key, cid in rows["year"]:
        try:
            years[int(key)] = cid
        except ValueError:
            raise DataError(f"{path}:{lineno}: year {key!r} is not an integer") from None
    if not years:
        raise DataError(f"condition vocabulary {path} has no year entries")
    _check_ids(path, "year", rows["year"], 0)
    base = min(years)
    count = len(years)
    expected = {base + i: i for i in range(count)}
    if years != expected:
        raise DataError(f"year block in {path} is not contiguous from {base}")
    # Keyword ids follow the years; a gap or an id inside the year block
    # would condition on the wrong embedding row.
    _check_ids(path, "keyword", rows["keyword"], count)
    return ConditionVocab({key: cid for _, key, cid in rows["keyword"]}, base, count)


@dataclass(frozen=True)
class LabelVocab:
    kind: str
    ids: dict[str, int]  # includes NO_LABEL -> 0

    @property
    def size(self) -> int:
        return len(self.ids)

    def id(self, label: str) -> int:
        # Unseen labels collapse onto the no-label id.
        return self.ids.get(label, 0)


def _build_label_vocab(kind: str, labels: Iterable[str]) -> LabelVocab:
    distinct = sorted(_storable(f"{kind} label", lab) for lab in set(labels) - {NO_LABEL})
    ids = {NO_LABEL: 0}
    ids.update({lab: i + 1 for i, lab in enumerate(distinct)})
    return LabelVocab(kind, ids)


@dataclass(frozen=True)
class LabelVocabs:
    pos: LabelVocab
    dep: LabelVocab
    ent: LabelVocab


def build_label_vocabs(records) -> LabelVocabs:
    """Collect every POS, dependency, and entity label in the records
    (title tokens included)."""
    pos, dep, ent = set(), set(), set()
    for rec in records:
        for tokens in (rec.title, *rec.sentences):
            if tokens:  # one zip splits a token list's labels by kind
                _, p, d, e = zip(*tokens)
                pos.update(p)
                dep.update(d)
                ent.update(e)
    return LabelVocabs(
        _build_label_vocab("pos", pos),
        _build_label_vocab("dep", dep),
        _build_label_vocab("ent", ent),
    )


def save_label_vocabs(vocabs: LabelVocabs, path) -> None:
    write_atomic(path, (f"{lv.kind}\t{label}\t{lid}\n"
                        for lv in (vocabs.pos, vocabs.dep, vocabs.ent)
                        for label, lid in sorted(lv.ids.items(), key=lambda kv: kv[1])))


def load_label_vocabs(path) -> LabelVocabs:
    rows: dict[str, list] = {"pos": [], "dep": [], "ent": []}
    for lineno, kind, label, lid in _rows(path, "label vocabulary", tuple(rows)):
        rows[kind].append((lineno, label, lid))
    tables = {}
    for kind, kind_rows in rows.items():
        tables[kind] = {label: lid for _, label, lid in kind_rows}
        if tables[kind].get(NO_LABEL) != 0:
            raise DataError(f"label vocabulary {path} lacks the {kind} no-label entry at id 0")
        _check_ids(path, f"{kind} label", kind_rows, 0)
    return LabelVocabs(
        LabelVocab("pos", tables["pos"]),
        LabelVocab("dep", tables["dep"]),
        LabelVocab("ent", tables["ent"]),
    )
