"""Data model, corpus file ingestion, preprocessing, and split sampling.

Three on-disk formats are supported, all UTF-8:

* column-formatted NER files (token in the first column, BIO tag in the
  last, blank line between sentences, ``-DOCSTART-`` blocks skipped),
* 10-column CoNLL-U dependency treebanks,
* classification TSV with the mandatory header ``label\\tlanguage\\ttext``.

All three are read by `_lines`: ``\\n``, ``\\r\\n`` and a bare ``\\r`` end a
line, and a byte that is not UTF-8 is rejected with its path and line.
`first_fit` is the one budget walk: the seed and validation draws here and
every AL batch (`acquisition.select_ranked`) use it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, FormatError, ParseError
from .graph import Arborescence

_LANGUAGE_RE = re.compile(r"^[a-z][a-z0-9_-]*$")
_BIO_RE = re.compile(r"^(O|[BI]-\S+)$")
# how errors="surrogateescape" decodes a byte that is not UTF-8
_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")

TSV_HEADER = "label\tlanguage\ttext"


def check_language(code: str) -> str:
    if not isinstance(code, str) or not _LANGUAGE_RE.match(code):
        raise DataError(f"invalid language code {code!r} (lowercase ASCII required)")
    return code


@dataclass(frozen=True)
class ClassificationText:
    text: str
    label: str | None = None


@dataclass(frozen=True)
class TaggedSentence:
    tokens: tuple[str, ...]
    tags: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.tags is not None and len(self.tags) != len(self.tokens):
            raise DataError("tag count does not match token count")


@dataclass(frozen=True)
class DepTree:
    tokens: tuple[str, ...]
    upos: tuple[str, ...]
    heads: tuple[int, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = len(self.tokens)
        if len(self.upos) != n:
            raise DataError("UPOS count does not match token count")
        if self.heads is not None and len(self.heads) != n:
            raise DataError("head count does not match token count")
        if self.labels is not None and len(self.labels) != n:
            raise DataError("label count does not match token count")


Payload = ClassificationText | TaggedSentence | DepTree


@dataclass(frozen=True)
class Instance:
    """One annotatable unit: a payload with a language tag and a cost.

    Cost is the token count for token-budgeted tasks and 1 for classification.
    """

    id: int
    language: str
    payload: Payload
    cost: int

    def __post_init__(self):
        if self.cost < 1:
            raise DataError(f"instance {self.id} has non-positive cost {self.cost}")


@dataclass(frozen=True)
class SplitSpec:
    seed_budget: int
    val_budget: int
    rng_seed: int

    def __post_init__(self):
        if self.seed_budget < 1 or self.val_budget < 1:
            raise ConfigError("split budgets must be positive")


def _lines(path: Path):
    """(line number, line without its break) for each line of a UTF-8 file.

    Lines end at ``\\n``, ``\\r\\n`` or a bare ``\\r``, as in text mode. The
    first byte that is not UTF-8 raises ParseError with its line, before any
    line is yielded.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        text = handle.read()
    if not text.isascii() and (bad := _ESCAPED_BYTE_RE.search(text)):
        line_no = text.count("\n", 0, bad.start()) + 1
        raise ParseError(f"byte {ord(bad.group()) - 0xDC00:#04x} is not UTF-8", path=path, line=line_no)
    lines = text.removesuffix("\n").split("\n") if text else []
    yield from enumerate(lines, start=1)


def _sentences(path: Path, docstart: bool):
    """The (line number, line) pairs of each sentence of a column-format file.

    A blank line ends a sentence; with `docstart`, so does a line whose first
    field is ``-DOCSTART-``. Neither belongs to a sentence.
    """
    sentence = []
    for line_no, line in _lines(path):
        # the substring test spares splitting every line
        if line.strip() and not (docstart and "-DOCSTART-" in line and line.split()[0] == "-DOCSTART-"):
            sentence.append((line_no, line))
        elif sentence:
            yield sentence
            sentence = []
    if sentence:
        yield sentence


def ingest_conll_ner(path, language: str, start_id: int = 0) -> list[Instance]:
    """Read a column-formatted NER file into tagged-sentence instances."""
    check_language(language)
    path = Path(path)
    instances = []
    for sentence in _sentences(path, docstart=True):
        tokens, tags = [], []
        for line_no, line in sentence:
            cols = line.split()
            if len(cols) < 2:
                raise ParseError(
                    f"expected at least 2 columns, got {len(cols)}", path=path, line=line_no
                )
            tag = cols[-1]
            if not _BIO_RE.match(tag):
                raise ParseError(f"tag {tag!r} is not valid BIO", path=path, line=line_no)
            tokens.append(cols[0])
            tags.append(tag)
        payload = TaggedSentence(tuple(tokens), tuple(tags))
        instances.append(Instance(start_id + len(instances), language, payload, len(tokens)))
    return instances


def ingest_conllu(path, language: str, start_id: int = 0) -> list[Instance]:
    """Read a CoNLL-U file into dependency-tree instances.

    Multiword-token lines (hyphenated ids) and empty nodes (dotted ids) are
    skipped; cost counts syntactic-word lines only, and the k-th of them in a
    sentence must have id k. Files without head annotations (``_`` in the
    HEAD column) produce unlabeled trees.
    """
    check_language(language)
    path = Path(path)
    instances = []
    for sentence in _sentences(path, docstart=False):
        rows = []  # (line_no, form, upos, head, deprel)
        for line_no, line in sentence:
            if line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 10:
                raise ParseError(
                    f"expected 10 tab-separated columns, got {len(cols)}", path=path, line=line_no
                )
            if "-" not in cols[0] and "." not in cols[0]:
                if cols[0] != str(len(rows) + 1):
                    raise ParseError(f"expected word id {len(rows) + 1}, got {cols[0]!r}",
                                     path=path, line=line_no)
                rows.append((line_no, cols[1], cols[3], cols[6], cols[7]))
        if not rows:
            continue
        n = len(rows)
        line_nos, forms, upos, head_cols, labels = zip(*rows)
        if all(h == "_" for h in head_cols):
            heads = labels = None
        else:
            heads = []
            for line_no, head in zip(line_nos, head_cols):
                try:
                    h = int(head)
                except ValueError:
                    raise ParseError(f"head {head!r} is not an integer", path=path, line=line_no)
                if not 0 <= h <= n:
                    raise ParseError(
                        f"head {h} out of range for a {n}-token sentence", path=path, line=line_no
                    )
                heads.append(h)
            try:
                heads = Arborescence(tuple(heads)).heads
            except DataError as exc:
                raise DataError(f"{path}: sentence starting at line {line_nos[0]}: {exc}")
        payload = DepTree(forms, upos, heads, labels)
        instances.append(Instance(start_id + len(instances), language, payload, n))
    return instances


def ingest_tsv_classification(path, start_id: int = 0) -> list[Instance]:
    """Read a three-column classification TSV (label, language, text)."""
    path = Path(path)
    lines = _lines(path)
    if next(lines, (1, ""))[1] != TSV_HEADER:
        raise FormatError(f"{path}: missing header {TSV_HEADER!r}")
    instances = []
    for row_no, line in lines:
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise ParseError(f"expected 3 columns, got {len(cols)}", path=path, line=row_no)
        label, language, text = cols
        check_language(language)
        if not text:
            raise ParseError("empty text field", path=path, line=row_no)
        payload = ClassificationText(text, label or None)
        instances.append(Instance(start_id + len(instances), language, payload, 1))
    return instances


def write_conll_ner(instances: Iterable[Instance], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for inst in instances:
            payload = inst.payload
            tags = payload.tags if payload.tags is not None else ("O",) * len(payload.tokens)
            for token, tag in zip(payload.tokens, tags):
                handle.write(f"{token} {tag}\n")
            handle.write("\n")


def write_conllu(instances: Iterable[Instance], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for inst in instances:
            payload = inst.payload
            n = len(payload.tokens)
            heads = payload.heads if payload.heads is not None else ("_",) * n
            labels = payload.labels if payload.labels is not None else ("_",) * n
            for i in range(n):
                cols = (
                    str(i + 1),
                    payload.tokens[i],
                    "_",
                    payload.upos[i],
                    "_",
                    "_",
                    str(heads[i]),
                    labels[i],
                    "_",
                    "_",
                )
                handle.write("\t".join(cols) + "\n")
            handle.write("\n")


def write_tsv_classification(instances: Iterable[Instance], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(TSV_HEADER + "\n")
        for inst in instances:
            payload = inst.payload
            handle.write(f"{payload.label or ''}\t{inst.language}\t{payload.text}\n")


def dedup(instances: Sequence[Instance]) -> list[Instance]:
    """Drop instances whose (language, payload) already occurred, keeping order.

    The key covers the full payload content, annotations included, so the
    same text in two languages survives.
    """
    seen = set()
    kept = []
    for inst in instances:
        key = (inst.language, inst.payload)
        if key in seen:
            continue
        seen.add(key)
        kept.append(inst)
    return kept


def length_filter(instances: Sequence[Instance], max_tokens: int) -> list[Instance]:
    """Drop over-long tagging/parsing sentences; truncate classification text.

    Sentences of exactly `max_tokens` tokens are kept. Classification text is
    cut to its first `max_tokens` whitespace tokens instead of being dropped.
    """
    if max_tokens < 1:
        raise ConfigError("max_tokens must be positive")
    kept = []
    for inst in instances:
        payload = inst.payload
        if isinstance(payload, ClassificationText):
            words = payload.text.split()
            if len(words) > max_tokens:
                inst = replace(inst, payload=replace(payload, text=" ".join(words[:max_tokens])))
            kept.append(inst)
        else:
            if len(payload.tokens) <= max_tokens:
                kept.append(inst)
    return kept


class Pool:
    """Instances partitioned into labeled / unlabeled / validation, pairwise
    disjoint by instance id: the fixed record of a `sample_splits` draw."""

    def __init__(self, labeled=(), unlabeled=(), validation=()):
        self.labeled = {i.id: i for i in labeled}
        self.unlabeled = {i.id: i for i in unlabeled}
        self.validation = {i.id: i for i in validation}
        self._check_disjoint()

    def _check_disjoint(self):
        parts = [self.labeled, self.unlabeled, self.validation]
        total = sum(len(p) for p in parts)
        union = set()
        for p in parts:
            union.update(p.keys())
        if len(union) != total:
            raise DataError("pool partitions share instance ids")


def first_fit(costs: np.ndarray, budget: int) -> np.ndarray:
    """The positions a first-fit walk over `costs` takes, in walk order.

    The walk takes each cost that still fits what is left of `budget` and
    skips the ones that do not. Each step takes the longest run that fits from
    the first position that does; the walk ends once no remaining cost fits.
    """
    # no more than everything: keeps the running sums within the costs' dtype
    remaining = min(budget, int(costs.sum()))
    taken, start = [], 0
    while len(fits := np.flatnonzero(costs[start:] <= remaining)):
        start += int(fits[0])
        spend = np.cumsum(costs[start:])
        stop = start + int(np.searchsorted(spend, remaining, side="right"))
        taken.append(np.arange(start, stop))
        remaining -= int(spend[stop - start - 1])
        start = stop
    return np.concatenate(taken) if taken else np.arange(0)


def sample_splits(instances: Sequence[Instance], spec: SplitSpec) -> Pool:
    """Draw seed and validation sets without replacement; the rest is unlabeled.

    One pooled draw over all instances uses the budgets in `spec`. Instances
    are shuffled with the seeded PRNG; the seed set, then the validation set
    from the rest, is bought with `first_fit` over that order, so the draw is
    a pure function of (instances ordered by id, spec).
    """
    ordered = sorted(instances, key=lambda i: i.id)
    if len({i.id for i in ordered}) != len(ordered):
        raise DataError("duplicate instance ids in sampling input")
    costs = np.array([i.cost for i in ordered], dtype=np.int64)
    available = int(costs.sum())
    if available < spec.seed_budget + spec.val_budget:
        raise ConfigError(
            f"available cost {available} cannot cover seed+validation "
            f"budget {spec.seed_budget + spec.val_budget}"
        )
    order = np.random.default_rng(spec.rng_seed).permutation(len(ordered))
    parts = []
    for budget in (spec.seed_budget, spec.val_budget):
        taken = first_fit(costs[order], budget)
        parts.append(order[taken])
        order = np.delete(order, taken)
    labeled, validation, unlabeled = ([ordered[k] for k in part.tolist()] for part in (*parts, order))
    return Pool(labeled=labeled, unlabeled=unlabeled, validation=validation)
