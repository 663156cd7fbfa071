"""Trainable log-linear task models over a shared hashed feature space.

One feature space is shared by every language, so surface forms that look
alike contribute to the same weights regardless of language; this is what
lets a single pooled model transfer across languages. All three models are
multinomial logistic layers over sparse hashed features, trained by
mini-batch gradient ascent with a learning-rate search and patience-based
early stopping on the task metric. One `fit` and one `evaluate` serve all
three (`_ModelBase`) on one gathered form of labeled data, the `EvalSet`:
a training, validation or test set's payloads, feature rows and gold labels
as codes. Each model supplies its gold labels, its epoch trainer on a
training set (each epoch's rows gathered once, every mini-batch a slice of
them) and its counter of the task's counts on a validation or test set.
Every counter compares arrays of codes: argmax classes, the BIO spans of
argmax tags as int64 keys, or decoded heads and argmax arc labels; pool
scores read the softmax of the logits.

Features are computed once per process: the first time a model needs a
text, a sentence's token windows or a sentence's arc candidates, they are
hashed and appended to one packed CSR store per kind (`FeatureCache`);
every later fit, validation pass, pool scoring and prediction over the same
content takes its rows from that store in one gather. Featurization, pool
scoring and decoding run in passes of whole instances cut by a row budget
per model (texts, tokens or candidate arcs), which bounds their transient
arrays; an evaluation set is predicted on in one pass.
Content not seen before is hashed in one batched pass per kind: the batch
is encoded to UTF-8 once, every feature key is a byte span of it (an n-gram
is found by its character offsets, with no string built for it; arc keys
are joined into such a buffer), one table-driven CRC-32 runs over all
spans at once, starting from the register of a key prefix such as "t:"
where there is one, and one `np.unique` counts each row's indices. The
indices are those of `zlib.crc32` per key, bit for bit. All three models
run through one batched softmax layer over such rows. Its logits and
gradients are scattered with `np.bincount`, which adds terms in row order,
so a batch's gradient is bit for bit the sum of its examples' gradients
taken one after another. A training step adds each class's gradient into
its weight row in place, with no objective value; the objectives serve the
gradient checks.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import DepTree, Instance
from .errors import ConfigError, EvaluationError, ModelStateError
from .graph import ArcScores, chu_liu_edmonds
from .tasks import TaskKind, task_metrics

ROOT_FORM = "<root>"
ROOT_UPOS = "<root>"


@dataclass(frozen=True)
class FeatureSpace:
    """Hashed character n-gram space shared across languages."""

    hash_dimension: int = 4096
    ngram_min: int = 2
    ngram_max: int = 4

    def __post_init__(self):
        d = self.hash_dimension
        if d < 1024 or d & (d - 1):
            raise ConfigError("hash_dimension must be a power of two >= 1024")
        if not 1 <= self.ngram_min <= self.ngram_max <= 8:
            raise ConfigError("ngram range must satisfy 1 <= min <= max <= 8")


@dataclass(frozen=True)
class TrainingConfig:
    learning_rates: tuple[float, ...] = (0.1, 0.5)
    batch_size: int = 32
    max_epochs: int = 75
    patience: int = 25
    l2: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not self.learning_rates:
            raise ConfigError("need at least one learning rate")
        if not all(0 < lr < np.inf for lr in self.learning_rates):
            raise ConfigError("learning rates must be positive and finite")
        if len(set(self.learning_rates)) < len(self.learning_rates):
            raise ConfigError("learning rates must be distinct")
        if self.patience > self.max_epochs:
            raise ConfigError("patience cannot exceed max_epochs")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, max_epochs, and patience must be positive")
        if not 0 <= self.l2 < np.inf:
            raise ConfigError("l2 must be non-negative and finite")


# ---------------------------------------------------------------------------
# Feature hashing: a key's index is the CRC-32 of its UTF-8 bytes modulo the
# dimension (Weinberger et al., ICML 2009). N-gram keys are never built as
# strings: they are byte spans of the encoded content, hashed together by
# `_crc32` from a register that already holds their "t:"/"p:"/"n:" prefix.
# Arc keys are conjunctions, built as strings and hashed by the same pass.
# ---------------------------------------------------------------------------


def _crc_table() -> np.ndarray:
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC_TABLE = _crc_table()


def _crc32(buf: np.ndarray, starts, lengths, init=0) -> np.ndarray:
    """`zlib.crc32(buf[s:s+n], init)` of every span (s, n), as uint32.

    `init` is one register or one per span. Spans are visited longest first,
    so the j-th byte of every span still running is folded in by one
    table lookup over a prefix of them.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    pos = np.asarray(starts, dtype=np.int64)[order]
    reg = np.broadcast_to(np.asarray(init, dtype=np.uint32), lengths.shape)[order] ^ np.uint32(0xFFFFFFFF)
    running = len(lengths) - np.cumsum(np.bincount(lengths))  # spans longer than j
    for j, k in enumerate(running[:-1].tolist()):
        r = reg[:k]
        reg[:k] = _CRC_TABLE[(r ^ buf[pos[:k] + j]) & 0xFF] ^ (r >> 8)
    out = np.empty_like(reg)
    out[order] = reg ^ np.uint32(0xFFFFFFFF)
    return out


def _encode(words: Sequence[str]):
    """The UTF-8 bytes of the words back to back, the byte offset of each
    character boundary, and each word's first character and length."""
    buf = np.frombuffer("".join(words).encode("utf-8"), dtype=np.uint8)
    offsets = np.append(np.flatnonzero((buf & 0xC0) != 0x80), len(buf))
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    return buf, offsets, np.cumsum(lengths) - lengths, lengths


def _key_spans(keys: Sequence[str]):
    """The UTF-8 keys back to back, and each key's byte (start, length)."""
    buf, offsets, starts, lengths = _encode(keys)
    return buf, offsets[starts], offsets[starts + lengths] - offsets[starts]


def _ngram_spans(words: Sequence[str], lo: int, hi: int):
    """The UTF-8 words back to back, and the (word, byte start, byte length)
    of each of their character n-grams, lo <= n <= hi."""
    buf, offsets, starts, lengths = _encode(words)
    owner, begin, size = [], [], []
    for k in range(lo, hi + 1):
        count = np.maximum(lengths - k + 1, 0)
        first = _ranges(starts, count)
        owner.append(np.repeat(np.arange(len(words)), count))
        begin.append(offsets[first])
        size.append(offsets[first + k] - offsets[first])
    return buf, np.concatenate(owner), np.concatenate(begin), np.concatenate(size)


def _counted(rows: np.ndarray, codes: np.ndarray, n_rows: int, dim: int):
    """(row lengths, indices, counts) of hashed keys `codes` owned by `rows`; each row's indices ascend."""
    pairs, counts = np.unique(rows * dim + (codes & (dim - 1)), return_counts=True)
    return (
        np.bincount(pairs // dim, minlength=n_rows),
        (pairs % dim).astype(np.int32),
        counts.astype(np.float32),
    )


def hash_features(keys: Sequence[str], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash string features into (sorted indices, counts)."""
    codes = _crc32(*_key_spans(keys))
    _, indices, counts = _counted(np.zeros(len(keys), dtype=np.int64), codes, 1, dim)
    return indices.astype(np.int64), counts.astype(np.float64)


def _text_features(texts: Sequence[str], space: FeatureSpace) -> tuple:
    """One row per text: its character n-grams."""
    buf, rows, starts, sizes = _ngram_spans(texts, space.ngram_min, space.ngram_max)
    return _counted(rows, _crc32(buf, starts, sizes), len(texts), space.hash_dimension)


# (the register after a window prefix, the offset from a word to the token
# whose row takes its n-grams under that prefix)
_WINDOW = ((zlib.crc32(b"t:"), 0), (zlib.crc32(b"p:"), 1), (zlib.crc32(b"n:"), -1))


def _token_features(sentences: Sequence[tuple], space: FeatureSpace) -> tuple:
    """One row per token: n-grams of the token ("t:"), of the token before it
    or "<s>" ("p:") and of the token after it or "</s>" ("n:")."""
    words = [w for tokens in sentences for w in ("<s>", *tokens, "</s>")]
    buf, owner, starts, sizes = _ngram_spans(words, space.ngram_min, space.ngram_max)
    n_tokens = np.array([len(tokens) for tokens in sentences], dtype=np.int64)
    n_rows = int(n_tokens.sum())
    # token r of sentence s is word r + 2s + 1; row_of[w + 1] is the row of
    # word w, -1 for "<s>", "</s>" and past either end
    row_of = np.full(len(words) + 2, -1, dtype=np.int64)
    row_of[np.arange(n_rows) + 2 * np.repeat(np.arange(len(sentences)), n_tokens) + 2] = np.arange(n_rows)
    rows, grams, inits = [], [], []
    for init, shift in _WINDOW:
        row = row_of[owner + 1 + shift]
        keep = np.flatnonzero(row >= 0)
        rows.append(row[keep])
        grams.append(keep)
        inits.append(np.full(len(keep), init, dtype=np.uint32))
    grams = np.concatenate(grams)
    codes = _crc32(buf, starts[grams], sizes[grams], np.concatenate(inits))
    return _counted(np.concatenate(rows), codes, n_rows, space.hash_dimension)


def featurize_text(text: str, space: FeatureSpace):
    _, indices, data = _text_features([text], space)
    return indices.astype(np.int64), data.astype(np.float64)


def featurize_tokens(tokens: Sequence[str], space: FeatureSpace):
    """One vector per token: n-grams of the token and its window-1 neighbors."""
    lengths, indices, data = _token_features([tokens], space)
    return [
        (i.astype(np.int64), v.astype(np.float64))
        for i, v in zip(_split(indices, lengths), _split(data, lengths))
    ]


def _distance_bucket(dist: int) -> str:
    if dist <= 2:
        return str(dist)
    if dist <= 5:
        return "3-5"
    if dist <= 10:
        return "6-10"
    return ">10"


def arc_feature_keys(tokens, upos, head: int, dep: int) -> list[str]:
    """Conjunction features for the arc head -> dep (positions, 0 = ROOT)."""
    hf = ROOT_FORM if head == 0 else tokens[head - 1]
    hp = ROOT_UPOS if head == 0 else upos[head - 1]
    df = tokens[dep - 1]
    dp = upos[dep - 1]
    direction = "R" if head < dep else "L"
    bucket = _distance_bucket(abs(head - dep))
    pos_pair = f"{hp}|{dp}"
    return [
        f"hf:{hf}",
        f"df:{df}",
        f"hf|df:{hf}|{df}",
        f"pp:{pos_pair}",
        f"dir:{direction}",
        f"dist:{bucket}",
        f"pp|dir:{pos_pair}|{direction}",
        f"pp|dist:{pos_pair}|{bucket}",
        f"pp|dir|dist:{pos_pair}|{direction}|{bucket}",
    ]


def featurize_arc(tokens, upos, head: int, dep: int, space: FeatureSpace):
    return hash_features(arc_feature_keys(tokens, upos, head, dep), space.hash_dimension)


# ---------------------------------------------------------------------------
# Packed feature rows and the process-wide feature cache.
# ---------------------------------------------------------------------------


def _ranges(starts, lengths) -> np.ndarray:
    """Concatenation of arange(s, s + n) over the pairs (s, n)."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)


def _split(values, counts) -> list:
    """`values` cut into consecutive pieces of `counts` entries."""
    ends = np.cumsum(counts).tolist()
    return [values[a:b] for a, b in zip([0] + ends, ends)]


class Rows:
    """Sparse feature rows in CSR form.

    Row r holds `indices[indptr[r]:indptr[r+1]]` with the values at the same
    positions of `data`; `row_ids` gives the row of every stored entry.
    Rows built by `stack` hold int64 indices and float64 values, so products
    with float64 weights cast nothing per class.
    """

    __slots__ = ("indptr", "indices", "data", "_row_ids")

    def __init__(self, indptr, indices, data):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._row_ids = None

    @classmethod
    def stack(cls, lengths, indices, data) -> "Rows":
        """Rows from per-row lengths and the concatenated (indices, values)."""
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        return cls(indptr, np.asarray(indices, dtype=np.int64), np.asarray(data, dtype=np.float64))

    @classmethod
    def from_vectors(cls, vectors) -> "Rows":
        """Rows from (indices, values) pairs, one per row."""
        if not vectors:
            return cls.stack([], [], [])
        indices, values = zip(*vectors)
        return cls.stack([len(i) for i in indices], np.concatenate(indices), np.concatenate(values))

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def row_ids(self) -> np.ndarray:
        if self._row_ids is None:
            self._row_ids = np.repeat(np.arange(self.n), np.diff(self.indptr))
        return self._row_ids

    def take(self, rows) -> "Rows":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        pos = _ranges(starts, lengths)
        return Rows.stack(lengths, self.indices[pos], self.data[pos])

    def slice(self, a: int, b: int) -> "Rows":
        """Rows a to b - 1, their entries views of this one's."""
        lo, hi = self.indptr[a], self.indptr[b]
        part = Rows(self.indptr[a : b + 1] - lo, self.indices[lo:hi], self.data[lo:hi])
        part._row_ids = self.row_ids[lo:hi] - a
        return part


def _permuter(rows: Rows):
    """`permute(order)`: all of `rows` in that order, with their row ids, in
    arrays made once and rewritten by every call, since each page of a new
    array of a megabyte or more faults when first written, which costs more
    than the gather."""
    lengths = np.diff(rows.indptr)
    entry = np.arange(len(rows.indices))
    pos = np.empty_like(entry)
    out = Rows(np.zeros_like(rows.indptr), np.empty_like(rows.indices), np.empty_like(rows.data))

    def permute(order) -> Rows:
        # mode="clip" writes `out` directly; the default mode goes through a copy
        np.cumsum(lengths[order], out=out.indptr[1:])
        out._row_ids = np.repeat(np.arange(len(order)), lengths[order])
        np.take(rows.indptr[order] - out.indptr[:-1], out._row_ids, out=pos, mode="clip")
        np.add(pos, entry, out=pos)
        np.take(rows.indices, pos, out=out.indices, mode="clip")
        np.take(rows.data, pos, out=out.data, mode="clip")
        return out

    return permute


def _arc_features(sentences: Sequence[tuple], space: FeatureSpace) -> tuple:
    """n*n rows per (tokens, upos) sentence, one per candidate arc: dependent-major, heads ascending."""
    arcs = [
        arc_feature_keys(tokens, upos, h, d)
        for tokens, upos in sentences
        for d in range(1, len(tokens) + 1)
        for h in range(len(tokens) + 1)
        if h != d
    ]
    keys = [key for arc in arcs for key in arc]
    rows = np.repeat(np.arange(len(arcs)), [len(arc) for arc in arcs])
    return _counted(rows, _crc32(*_key_spans(keys)), len(arcs), space.hash_dimension)


# kind -> (the cache key of a payload, the number of rows of a key, the batch
# featurizer of such keys)
_FEATURIZERS = {
    "text": (lambda p: p.text, lambda key: 1, _text_features),
    "tokens": (lambda p: p.tokens, len, _token_features),
    "arcs": (lambda p: (p.tokens, p.upos), lambda key: len(key[0]) ** 2, _arc_features),
}


def featurize_batch(kind: str, contents: Sequence, space: FeatureSpace) -> tuple:
    """(row lengths, indices, counts) of the rows of all contents of a kind, in order, in one pass."""
    return _FEATURIZERS[kind][2](contents, space)


def _passes(sizes: Sequence[int], budget: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive runs of whole items of at most `budget`
    rows in all; an item with more rows than that is a run of its own."""
    cuts, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if total + size > budget and i > start:
            cuts.append((start, i))
            start, total = i, 0
        total += size
    return cuts + [(start, len(sizes))] if sizes else cuts


def _put(array: np.ndarray, at: int, values: np.ndarray) -> np.ndarray:
    """`array` with `values` written from position `at` on; when they run past
    its end, into a copy of its first `at` entries at least twice as long."""
    end = at + len(values)
    if end > len(array):
        grown = np.empty(max(end, 2 * len(array)), dtype=array.dtype)
        grown[:at] = array[:at]
        array = grown
    array[at:end] = values
    return array


class _Store:
    """Every cached row of one kind and feature space, packed as CSR arrays.

    `where` maps a content key to its slot, the order in which it was
    stored; slot s holds rows `first[s]:first[s + 1]`, and row r holds
    entries `indptr[r]:indptr[r + 1]` of `indices` and `data`. The arrays
    have spare room past their filled part; a pass that outgrows them moves
    that part into arrays at least twice as long (`_put`), so a store
    copies O(final size) entries in all, however many passes filled it.
    """

    def __init__(self):
        self.where: dict = {}
        self.first = np.zeros(1, dtype=np.int64)
        self.indptr = np.zeros(1, dtype=np.int64)
        self.indices = np.zeros(0, dtype=np.int32)
        self.data = np.zeros(0, dtype=np.float32)

    def append(self, keys: Sequence, sizes: Sequence[int], features: tuple) -> None:
        """Store the (row lengths, indices, counts) of the keys' rows, `sizes` rows per key."""
        lengths, indices, data = features
        slots = len(self.where)
        rows = int(self.first[slots])
        entries = int(self.indptr[rows])
        self.first = _put(self.first, slots + 1, rows + np.cumsum(sizes))
        self.indptr = _put(self.indptr, rows + 1, entries + np.cumsum(lengths))
        self.indices = _put(self.indices, entries, indices)
        self.data = _put(self.data, entries, data)
        self.where.update(zip(keys, range(slots, slots + len(keys))))

    def take(self, slots: np.ndarray) -> tuple[Rows, list[int]]:
        """The rows of the given slots, in order, and each slot's row count.

        Each slot's rows are contiguous, so they are one range per slot of
        the rows held, gathered as any `Rows` are."""
        first, stop = self.first[slots], self.first[slots + 1]
        rows = int(self.first[len(self.where)])
        held = Rows(self.indptr[: rows + 1], self.indices[: self.indptr[rows]],
                    self.data[: self.indptr[rows]])
        return held.take(_ranges(first, stop - first)), (stop - first).tolist()


class FeatureCache:
    """Featurized content for the life of the process, per kind and feature space.

    Content is the lookup key (a text, a token tuple, or a sentence's
    (tokens, upos)), because a corpus ingested again yields new instances
    with new ids but the same content. A cached row is what featurizing
    the key again would give, so sharing the cache never changes a result;
    it grows with the distinct content a process sees. Each (kind, space)
    keeps one packed store (`_Store`) in compact dtypes: hashed indices fit
    int32 and counts are small integers, exact in float32.
    """

    def __init__(self):
        self._stores: dict[tuple[str, FeatureSpace], _Store] = {}

    def clear(self) -> None:
        self._stores.clear()

    def rows(self, kind: str, payloads: Sequence, space: FeatureSpace, chunk: int) -> tuple[Rows, list[int]]:
        """The rows of every payload in order, and how many rows each has.

        Content not cached yet is featurized once per distinct key, in
        `featurize_batch` passes of at most `chunk` rows (`_passes`); then
        one gather takes every payload's rows from the store.
        """
        key_of, size_of, _ = _FEATURIZERS[kind]
        store = self._stores.setdefault((kind, space), _Store())
        keys = [key_of(p) for p in payloads]
        missing = list(dict.fromkeys(k for k in keys if k not in store.where))
        sizes = [size_of(k) for k in missing]
        for a, b in _passes(sizes, chunk):
            store.append(missing[a:b], sizes[a:b], featurize_batch(kind, missing[a:b], space))
        return store.take(np.fromiter(map(store.where.__getitem__, keys), dtype=np.int64, count=len(keys)))


FEATURES = FeatureCache()


# ---------------------------------------------------------------------------
# The softmax layer. Weights are (classes, dim); the parser's arc weights are
# one row of it. Each objective returns (log-likelihood - l2 penalty,
# gradient) so that the analytic gradients can be checked against finite
# differences.
# ---------------------------------------------------------------------------


def logits(weights: np.ndarray, rows: Rows) -> np.ndarray:
    """(rows, classes) scores; each row's terms are summed in feature order."""
    return np.stack(
        [np.bincount(rows.row_ids, w[rows.indices] * rows.data, rows.n) for w in weights], axis=1
    )


def _class_sums(coef: np.ndarray, rows: Rows, dim: int):
    """Row k of `scatter`, for each class k in turn (float64 even for rows with no entries)."""
    for c in coef.T:
        yield np.bincount(rows.indices, c[rows.row_ids] * rows.data, dim).astype(np.float64, copy=False)


def scatter(coef: np.ndarray, rows: Rows, dim: int) -> np.ndarray:
    """sum_r outer(coef[r], x_r) as (classes, dim), the rows added in order."""
    return np.stack(list(_class_sums(coef, rows, dim)))


def _ascend(weights: np.ndarray, coef: np.ndarray, rows: Rows, scale: float, l2: float) -> None:
    """weights += scale * (scatter(coef, rows, dim) - l2 * weights), in place, one class row at a time."""
    for w, g in zip(weights, _class_sums(coef, rows, weights.shape[1])):
        if l2:
            g -= l2 * w
        w += scale * g


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis."""
    m = z.max(axis=-1, keepdims=True)
    return z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))


def softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(z))


def _group_log_softmax(z: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Log-softmax within each run of `sizes` consecutive entries of z.

    Runs of one length are stacked and normalized together, so each run is
    reduced exactly as `_log_softmax` would reduce it alone.
    """
    starts = np.cumsum(sizes) - sizes
    out = np.empty_like(z)
    for size in np.unique(sizes):
        pos = starts[sizes == size][:, None] + np.arange(size)
        out[pos] = _log_softmax(z[pos])
    return out


def _coefficients(logp: np.ndarray, at) -> np.ndarray:
    """d sum(logp[at]) / d logits: the gold indicator at `at` minus the probabilities."""
    coef = -np.exp(logp)
    coef[at] += 1.0
    return coef


def softmax_objective(weights: np.ndarray, rows: Rows, gold: np.ndarray, l2: float):
    """Multinomial logistic log-likelihood of gold classes over rows."""
    logp = _log_softmax(logits(weights, rows))
    at = (np.arange(rows.n), gold)
    coef = _coefficients(logp, at)
    value = float(logp[at].sum())
    grad = scatter(coef, rows, weights.shape[1])
    if l2:
        value -= 0.5 * l2 * float((weights * weights).sum())
        grad -= l2 * weights
    return value, grad


def _softmax_step(weights: np.ndarray, rows: Rows, gold: np.ndarray, scale: float, l2: float) -> None:
    """weights += scale * softmax_objective(weights, rows, gold, l2)[1], in place, with no objective value."""
    coef = _coefficients(_log_softmax(logits(weights, rows)), (np.arange(rows.n), gold))
    _ascend(weights, coef, rows, scale, l2)


def arc_objective(arc_w, label_w, arcs: Rows, sizes, gold, labels, l2: float):
    """Gold-tree log-likelihood: head softmax terms plus arc-label terms.

    `arcs` holds each dependent's candidate arcs as a run of `sizes` rows,
    `gold` the gold candidate's position within its run and `labels` the
    gold arc's label.
    """
    logp = _group_log_softmax(logits(arc_w[None], arcs)[:, 0], sizes)
    gold_rows = np.cumsum(sizes) - sizes + gold
    grad_arc = scatter(_coefficients(logp, gold_rows)[:, None], arcs, arc_w.shape[0])[0]
    label_value, grad_label = softmax_objective(label_w, arcs.take(gold_rows), labels, 0.0)
    value = float(logp[gold_rows].sum()) + label_value
    if l2:
        value -= 0.5 * l2 * (float((arc_w * arc_w).sum()) + float((label_w * label_w).sum()))
        grad_arc -= l2 * arc_w
        grad_label -= l2 * label_w
    return value, grad_arc, grad_label


def class_objective(weights: np.ndarray, examples, l2: float):
    """`softmax_objective` over ((indices, values), y) pairs."""
    rows = Rows.from_vectors([vec for vec, _ in examples])
    return softmax_objective(weights, rows, np.array([y for _, y in examples], dtype=np.int64), l2)


def parser_objective(arc_w: np.ndarray, label_w: np.ndarray, sentences, l2: float):
    """`arc_objective` over (arc_groups, label_examples) pairs, one per sentence.

    Each arc group is (candidate feature vectors, gold candidate index); each
    label example is (gold arc feature vector, label index).
    """
    groups = [group for arc_groups, _ in sentences for group in arc_groups]
    arcs = Rows.from_vectors([vec for vecs, _ in groups for vec in vecs])
    sizes = np.array([len(vecs) for vecs, _ in groups], dtype=np.int64)
    gold = np.array([g for _, g in groups], dtype=np.int64)
    labels = np.array([y for _, examples in sentences for _, y in examples], dtype=np.int64)
    return arc_objective(arc_w, label_w, arcs, sizes, gold, labels, l2)


@dataclass(frozen=True)
class FitInfo:
    """What a `fit` found: the winning learning rate and, per learning rate,
    the best validation score and the number of epochs run."""

    learning_rate: float
    validation: dict[float, float]
    epochs_run: dict[float, int]

    @property
    def score(self) -> float:
        return self.validation[self.learning_rate]


def _train(init, prepare, eval_fn, n_examples: int, config: TrainingConfig):
    """Train once per learning rate (ascending) and keep the best validation score.

    Every epoch visits the examples in a fresh permutation `order`, in
    mini-batches. `prepare(order)` gathers the epoch's rows in that order
    once and returns `step(weights, a, b, scale)`, which applies the update
    of examples `order[a:b]` to the weights in place, where `scale` is the
    learning rate over the batch size. After each epoch the validation score
    is computed; a learning rate's run stops once `patience` consecutive
    epochs fail to improve on its best score, or at `max_epochs`. Returns the
    best weights and a `FitInfo`.
    """
    best = None
    validation: dict[float, float] = {}
    epochs: dict[float, int] = {}
    for lr in sorted(config.learning_rates):
        rng = np.random.default_rng(config.rng_seed)
        weights, kept, score, bad = init(), None, -np.inf, 0
        for epoch in range(1, config.max_epochs + 1):
            step = prepare(rng.permutation(n_examples))
            for a in range(0, n_examples, config.batch_size):
                b = min(a + config.batch_size, n_examples)
                step(weights, a, b, lr / (b - a))
            value = eval_fn(weights)
            if value > score:
                kept, score, bad = weights.copy(), value, 0
            else:
                bad += 1
                if bad >= config.patience:
                    break
        validation[lr], epochs[lr] = score, epoch
        if best is None or score > best[1]:
            best = (kept, score, lr)
    return best[0], FitInfo(best[2], validation, epochs)


def _span_keys(tags, codes: np.ndarray, payloads) -> np.ndarray:
    """The BIO spans of the sentences' tokens laid end to end, tagged
    `tags[codes]`, as int64 keys of (type, start, end), with types numbered
    in order of first appearance in `tags`. A span opens at a B tag, at a
    sentence's first token and after O or a tag of another type: the
    conlleval rule of `tasks.bio_spans`."""
    parts = [("O", None) if t == "O" else t.partition("-")[::2] for t in tags]
    ids: dict = {}
    types = np.array([-1 if e is None else ids.setdefault(e, len(ids)) for _, e in parts], dtype=np.int64)[codes]
    opens = np.append(np.array([prefix == "B" for prefix, _ in parts], dtype=bool)[codes], False)
    opens[np.cumsum([0] + [len(p.tokens) for p in payloads][:-1])] = True
    n = len(codes)
    opens = (types >= 0) & (opens[:n] | (types != np.append(-1, types)[:-1]))
    stops = np.append(np.flatnonzero(opens | (types < 0)), n)
    starts = np.flatnonzero(opens)
    return (types[starts] * (n + 1) + starts) * (n + 1) + stops[np.searchsorted(stops, starts, side="right")]


@dataclass(frozen=True)
class EvalSet:
    """Instances to train, validate or test on, gathered once by a model's
    `evaluation_set`: their payloads and feature rows, and each unit's gold
    label (a text's class, a token's tag, an arc's label) as a code into
    `labels`. Every model of that task and feature space can train,
    validate and test on it, each taking its gold codes from `gold`."""

    payloads: list
    rows: Rows
    labels: tuple
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.payloads)

    def gold(self, vocab) -> np.ndarray:
        """Each unit's gold label as a code into `vocab`, -1 for one outside it or none."""
        index = {y: k for k, y in enumerate(vocab)}
        return np.array([index.get(y, -1) for y in self.labels], dtype=np.int64)[self.codes]


class _ModelBase:
    """One `fit` and one `evaluate` for all three models, on `EvalSet`s,
    through three hooks: `_gold(payload)`, the labels, or None for a payload
    without annotation, whose units an `EvalSet` codes as `_blank(payload)`;
    `_trainer(train, vocab, config)`, the training set's number of examples
    and the `prepare` of `_train`, which gathers an epoch's rows and returns
    its in-place batch step; and `_counter(vocab, evaluation)`, which maps
    the vocabulary into the set's label space once and returns the task's
    counts of some weights on that set: each epoch's weights in validation,
    the trained ones in `evaluate`. Each model binds `fit` and its
    one-instance predictors in its own namespace, where
    `perfbench/tracer.py` wraps them.
    """

    task: TaskKind
    headline: str  # the metric of `task_metrics` that validation maximizes
    kind: str  # the feature kind of the cache
    chunk: int  # rows per feature or prediction pass, which bounds its transient arrays
    _arc_rows = 0  # weight rows ahead of the vocabulary's: the parser's arc scorer

    def __init__(self, space: FeatureSpace, vocab: Sequence[str] | None = None):
        self.space = space
        self.vocab = tuple(vocab) if vocab is not None else None
        self.weights: np.ndarray | None = None
        self.fit_info: FitInfo | None = None

    def _zeros(self, vocab) -> np.ndarray:
        return np.zeros((self._arc_rows + len(vocab), self.space.hash_dimension))

    def _require_trained(self):
        if self.weights is None:
            raise ModelStateError("model has no weights; train it or set them explicitly")

    def _features(self, payloads) -> tuple[Rows, list[int]]:
        return FEATURES.rows(self.kind, payloads, self.space, self.chunk)

    _blank = staticmethod(lambda payload: (None,) * len(payload.tokens))

    def evaluation_set(self, instances: Sequence[Instance]) -> EvalSet:
        """`instances` gathered once, to train, validate or test on as often as needed."""
        payloads = [i.payload for i in instances]
        code_of: dict = {}
        codes = [code_of.setdefault(y, len(code_of)) for p in payloads for y in self._gold(p) or self._blank(p)]
        return EvalSet(payloads, self._features(payloads)[0], tuple(code_of), np.array(codes, dtype=np.int64))

    def fit(self, labeled: Sequence[Instance], validation: EvalSet, config: TrainingConfig) -> float:
        """Train on the set of the annotated `labeled` instances; keep and
        return the best score on the `validation` set."""
        if not labeled or not validation:
            raise ConfigError("need non-empty labeled and validation sets")
        train = self.evaluation_set([i for i in labeled if self._gold(i.payload) is not None])
        vocab = tuple(sorted(train.labels))
        if not vocab:
            raise ConfigError("empty label vocabulary")
        n_examples, step = self._trainer(train, vocab, config)
        count = self._counter(vocab, validation)

        def eval_fn(weights):
            return task_metrics(self.task, count(weights))[self.headline]

        self.weights, self.fit_info = _train(lambda: self._zeros(vocab), step, eval_fn, n_examples, config)
        self.vocab = vocab
        return self.fit_info.score

    def _in_passes(self, fn, instances: Sequence[Instance]) -> list:
        """The lists fn(payloads, rows, rows per payload) of consecutive passes of
        whole instances of at most `chunk` rows (`_passes`), concatenated."""
        self._require_trained()
        key_of, size_of, _ = _FEATURIZERS[self.kind]
        payloads = [i.payload for i in instances]
        return [
            item
            for start, stop in _passes([size_of(key_of(p)) for p in payloads], self.chunk)
            for item in fn(payloads[start:stop], *self._features(payloads[start:stop]))
        ]

    def evaluate(self, evaluation: EvalSet) -> dict[str, int]:
        """The task's counts of the trained model's predictions on the set
        against its gold annotation."""
        self._require_trained()
        return self._counter(self.vocab, evaluation)(self.weights)


class _SoftmaxModel(_ModelBase):
    """A softmax over feature rows: one row per text (classifier) or per token (tagger)."""

    def _trainer(self, train: EvalSet, vocab, config: TrainingConfig):
        permute, gold = _permuter(train.rows), train.gold(vocab)

        def prepare(order):
            epoch, epoch_gold = permute(order), gold[order]

            def step(weights, a, b, scale):
                _softmax_step(weights, epoch.slice(a, b), epoch_gold[a:b], scale, config.l2)

            return step

        return train.rows.n, prepare

    def _probas(self, instances: Sequence[Instance]) -> tuple[np.ndarray, list[int]]:
        """One (rows, vocab) matrix of distributions over every instance's rows, and each instance's row count."""
        passes = self._in_passes(
            lambda _, rows, counts: [(softmax(logits(self.weights, rows)), counts)], instances
        )
        matrices = [m for m, _ in passes] or [np.zeros((0, len(self.vocab)))]
        return np.concatenate(matrices), [n for _, counts in passes for n in counts]


class TextClassifier(_SoftmaxModel):
    task = TaskKind.CLASSIFICATION
    headline = "accuracy"
    kind = "text"
    chunk = 256  # texts

    @property
    def classes(self):
        return self.vocab

    @staticmethod
    def _gold(payload):
        return None if payload.label is None else (payload.label,)

    _blank = staticmethod(lambda payload: (None,))

    def _counter(self, vocab, evaluation: EvalSet):
        """Hits and instances, a hit where a text's argmax is its gold label's
        code in `vocab`; a gold label outside `vocab`, or none, is a miss."""
        gold = evaluation.gold(vocab)
        return lambda weights: {
            "correct": int(np.count_nonzero(logits(weights, evaluation.rows).argmax(axis=1) == gold)),
            "total": len(evaluation),
        }

    fit = _ModelBase.fit

    def predict_proba_batch(self, instances: Sequence[Instance]) -> np.ndarray:
        """(instances, classes) distributions."""
        return self._probas(instances)[0]

    def predict_proba(self, instance: Instance) -> np.ndarray:
        return self.predict_proba_batch([instance])[0]

    def predict(self, instance: Instance) -> str:
        return self.classes[int(self.predict_proba(instance).argmax())]


class SequenceTagger(_SoftmaxModel):
    task = TaskKind.SEQUENCE_TAGGING
    headline = "f1"
    kind = "tokens"
    chunk = 448  # tokens: 64 sentences of 7

    @property
    def tags(self):
        return self.vocab

    @staticmethod
    def _gold(payload):
        return payload.tags

    def _counter(self, vocab, evaluation: EvalSet):
        """Matching, predicted and gold spans; the argmax tags are coded after
        the set's labels, so their spans' types are numbered as the gold ones."""
        for i, p in enumerate(evaluation.payloads):
            if p.tags is None:
                raise EvaluationError(f"sentence {i} lacks tag annotations")
        tags = (*evaluation.labels, *vocab)
        gold = np.sort(_span_keys(evaluation.labels, evaluation.codes, evaluation.payloads))

        def count(weights):
            best = logits(weights, evaluation.rows).argmax(axis=1) + len(evaluation.labels)
            pred = _span_keys(tags, best, evaluation.payloads)
            tp = len(np.intersect1d(pred, gold, assume_unique=True))
            return {"tp": tp, "pred_spans": len(pred), "gold_spans": len(gold)}

        return count

    fit = _ModelBase.fit

    def predict_tag_probas_batch(self, instances: Sequence[Instance]) -> tuple[np.ndarray, list[int]]:
        """One (tokens, tags) matrix of distributions over every instance's tokens, and each instance's token count."""
        return self._probas(instances)

    def predict_tag_probas(self, instance: Instance) -> np.ndarray:
        return self.predict_tag_probas_batch([instance])[0]

    def predict_tags(self, instance: Instance) -> list[str]:
        return [self.tags[k] for k in self.predict_tag_probas(instance).argmax(axis=1).tolist()]


def _candidate_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(head, dependent column) of each candidate arc, shaped (dependents, candidates)."""
    k = np.arange(n)[None, :]
    deps = np.arange(1, n + 1)[:, None]
    return k + (k >= deps), np.broadcast_to(deps - 1, (n, n))


def _candidate(head: int, dep: int) -> int:
    """Position of the arc head -> dep among dep's candidates (every head but dep)."""
    return head if head < dep else head - 1


class DependencyParser(_ModelBase):
    """Arc-factored parser: a head softmax per dependent plus a label classifier.

    A sentence of n tokens has n candidate arcs per dependent (every head
    but itself), stored as n*n rows: dependent-major, heads ascending.
    Weight row 0 scores arcs; rows 1.. classify an arc's label.
    """

    task = TaskKind.DEPENDENCY_PARSING
    headline = "las"
    kind = "arcs"
    chunk = 24_576  # candidate arcs: 16 sentences of about 39 tokens
    _arc_rows = 1

    @property
    def labels(self):
        return self.vocab

    def _sentence_examples(self, payload: DepTree, label_index):
        """One sentence as (arc groups, label examples) for `parser_objective`."""
        n = len(payload.tokens)
        arcs, _ = self._features([payload])
        vecs = [(arcs.indices[a:b], arcs.data[a:b]) for a, b in zip(arcs.indptr, arcs.indptr[1:])]
        arc_groups = []
        label_examples = []
        for d, (head, label) in enumerate(zip(payload.heads, payload.labels), start=1):
            cands = vecs[(d - 1) * n : d * n]
            arc_groups.append((cands, _candidate(head, d)))
            label_examples.append((cands[_candidate(head, d)], label_index[label]))
        return arc_groups, label_examples

    @staticmethod
    def _gold(payload: DepTree):
        return None if payload.heads is None or payload.labels is None else payload.labels

    def _trainer(self, train: EvalSet, vocab, config: TrainingConfig):
        lengths = np.array([len(t.tokens) for t in train.payloads], dtype=np.int64)
        first_dep = np.cumsum(lengths) - lengths
        first_arc = np.cumsum(lengths * lengths) - lengths * lengths
        gold = np.array(
            [_candidate(h, d) for t in train.payloads for d, h in enumerate(t.heads, start=1)], dtype=np.int64
        )
        gold_labels = train.gold(vocab)
        permute = _permuter(train.rows)

        def prepare(order):
            # the epoch's sentences back to back: per dependent its candidate
            # count, gold arc row and gold label; per sentence its first arc
            # row and first dependent (`arc_at`, `dep_at`)
            n = lengths[order]
            deps = _ranges(first_dep[order], n)
            sizes = np.repeat(n, n)
            gold_rows = np.cumsum(sizes) - sizes + gold[deps]
            epoch = permute(_ranges(first_arc[order], n * n))
            label_rows, epoch_labels = epoch.take(gold_rows), gold_labels[deps]
            arc_at = np.append(0, np.cumsum(n * n))
            dep_at = np.append(0, np.cumsum(n))

            def step(weights, a, b, scale):
                i, j, p, q = arc_at[a], arc_at[b], dep_at[a], dep_at[b]
                batch = epoch.slice(i, j)
                logp = _group_log_softmax(logits(weights[:1], batch)[:, 0], sizes[p:q])
                coef = _coefficients(logp, gold_rows[p:q] - i)[:, None]
                _ascend(weights[:1], coef, batch, scale, config.l2)
                _softmax_step(weights[1:], label_rows.slice(p, q), epoch_labels[p:q], scale, config.l2)

            return step

        return len(train), prepare

    fit = _ModelBase.fit

    # `tasks.attachment_scores` compares a tree without labels as all ""
    _blank = staticmethod(lambda payload: ("",) * len(payload.tokens))

    def _counter(self, vocab, evaluation: EvalSet):
        """Head-correct, head- and label-correct, and all tokens of the decoded
        trees; a gold label outside `vocab` is a miss."""
        for i, p in enumerate(evaluation.payloads):
            if p.heads is None:
                raise EvaluationError(f"sentence {i} lacks head annotations")
        if not len(evaluation.codes):
            raise EvaluationError("no tokens to score")
        gold = evaluation.gold(vocab)
        gold_heads = np.array([h for p in evaluation.payloads for h in p.heads], dtype=np.int64)

        def count(weights):
            heads, labels = self._decode(weights, evaluation.payloads, evaluation.rows)
            hit = np.concatenate(heads) == gold_heads
            return {"head_correct": int(np.count_nonzero(hit)),
                    "label_correct": int(np.count_nonzero(hit & (labels == gold))), "total": len(gold)}

        return count

    def _head_log_probs(self, arc_w, payloads, arcs: Rows) -> list[np.ndarray]:
        """Per sentence, (n+1, n) head log-probabilities; -inf on forbidden arcs."""
        lengths = [len(p.tokens) for p in payloads]
        logp = _group_log_softmax(logits(arc_w[None], arcs)[:, 0], np.repeat(lengths, lengths))
        out = []
        for n, block in zip(lengths, _split(logp, [n * n for n in lengths])):
            matrix = np.full((n + 1, n), -np.inf)
            matrix[_candidate_grid(n)] = block.reshape(n, n)
            out.append(matrix)
        return out

    def _decode(self, weights, payloads, arcs: Rows) -> tuple[list[tuple], np.ndarray]:
        """Per sentence, the heads of the best single-root tree under the head
        softmax; and the argmax label code of each of those arcs, flat."""
        heads = [
            chu_liu_edmonds(ArcScores(m)).heads
            for m in self._head_log_probs(weights[0], payloads, arcs)
        ]
        rows = []
        for tree_heads, first in zip(heads, np.cumsum([0] + [len(h) ** 2 for h in heads]).tolist()):
            n = len(tree_heads)
            rows += [first + (d - 1) * n + _candidate(h, d) for d, h in enumerate(tree_heads, 1)]
        return heads, logits(weights[1:], arcs.take(rows)).argmax(axis=1)

    def _trees(self, payloads, arcs: Rows, _) -> list[DepTree]:
        """The trees of `_decode` with the trained weights, their labels as strings."""
        heads, codes = self._decode(self.weights, payloads, arcs)
        labels = _split([self.labels[k] for k in codes.tolist()], [len(h) for h in heads])
        return [DepTree(p.tokens, p.upos, h, tuple(y)) for p, h, y in zip(payloads, heads, labels)]

    def head_log_probs_batch(self, instances: Sequence[Instance]) -> list[np.ndarray]:
        """Per instance, (n+1, n) head log-probabilities; -inf on forbidden arcs."""
        return self._in_passes(
            lambda payloads, arcs, _: self._head_log_probs(self.weights[0], payloads, arcs), instances
        )

    def predict_arc_probas(self, instance: Instance):
        """Head distribution per dependent plus a label distribution per arc.

        Returns (head_probs, label_probs) with shapes (n+1, n) and
        (n+1, n, num_labels); forbidden arcs (h == d) carry zero probability.
        """
        self._require_trained()
        payload = instance.payload
        n = len(payload.tokens)
        arcs, _ = self._features([payload])
        head_probs = np.exp(self._head_log_probs(self.weights[0], [payload], arcs)[0])
        label_probs = np.zeros((n + 1, n, len(self.labels)))
        label_probs[_candidate_grid(n)] = softmax(logits(self.weights[1:], arcs)).reshape(n, n, -1)
        return head_probs, label_probs

    def decode_tree_batch(self, instances: Sequence[Instance]) -> list[DepTree]:
        """Best single-root tree per instance under the head softmax, with argmax arc labels."""
        return self._in_passes(self._trees, instances)

    def decode_tree(self, instance: Instance) -> DepTree:
        return self.decode_tree_batch([instance])[0]


def build_model(task: TaskKind, space: FeatureSpace):
    if task is TaskKind.CLASSIFICATION:
        return TextClassifier(space)
    if task is TaskKind.SEQUENCE_TAGGING:
        return SequenceTagger(space)
    return DependencyParser(space)

