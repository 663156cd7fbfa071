"""Trainable log-linear task models over a shared hashed feature space.

One feature space is shared by every language, so surface forms that look
alike contribute to the same weights regardless of language; this is what
lets a single pooled model transfer across languages. All three models are
multinomial logistic layers over sparse hashed features, trained by
mini-batch gradient ascent with a learning-rate search and patience-based
early stopping on the task metric.

Features are computed once per process: the first time a model needs a
text, a sentence's token windows or a sentence's arc candidates, they are
hashed and appended to one packed CSR store per kind (`FeatureCache`);
every later fit, validation pass, pool scoring and prediction over the same
content takes its rows from that store in one gather. Featurization and
prediction run in passes of whole instances cut by a row budget per model
(texts, tokens or candidate arcs), which bounds their transient arrays.
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
taken one after another. Inference yields one (rows, vocabulary) matrix per
call, from which predictions, pool scores and validation take whole-array
argmaxes and maxima.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import DepTree, Instance
from .errors import ConfigError, ModelStateError
from .graph import ArcScores, chu_liu_edmonds
from .tasks import TaskKind, attachment_scores, span_f1, task_metrics

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
        if not all(lr > 0 for lr in self.learning_rates):
            raise ConfigError("learning rates must be positive")
        if self.patience > self.max_epochs:
            raise ConfigError("patience cannot exceed max_epochs")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, max_epochs, and patience must be positive")
        if self.l2 < 0:
            raise ConfigError("l2 must be non-negative")


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
        return cls(indptr, np.asarray(indices, dtype=np.int64), np.asarray(data))

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

        Each slot's rows and entries are contiguous, so both are gathered
        by one range per slot."""
        first, stop = self.first[slots], self.first[slots + 1]
        row = _ranges(first, stop - first)
        entry = _ranges(self.indptr[first], self.indptr[stop] - self.indptr[first])
        lengths = self.indptr[row + 1] - self.indptr[row]
        return Rows.stack(lengths, self.indices[entry], self.data[entry]), (stop - first).tolist()


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


def scatter(coef: np.ndarray, rows: Rows, dim: int) -> np.ndarray:
    """sum_r outer(coef[r], x_r) as (classes, dim), the rows added in order."""
    return np.stack([np.bincount(rows.indices, c[rows.row_ids] * rows.data, dim) for c in coef.T])


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


def softmax_objective(weights: np.ndarray, rows: Rows, gold: np.ndarray, l2: float):
    """Multinomial logistic log-likelihood of gold classes over rows."""
    logp = _log_softmax(logits(weights, rows))
    at = (np.arange(rows.n), gold)
    coef = -np.exp(logp)
    coef[at] += 1.0
    value = float(logp[at].sum())
    grad = scatter(coef, rows, weights.shape[1])
    if l2:
        value -= 0.5 * l2 * float((weights * weights).sum())
        grad -= l2 * weights
    return value, grad


def arc_objective(arc_w, label_w, arcs: Rows, sizes, gold, labels, l2: float):
    """Gold-tree log-likelihood: head softmax terms plus arc-label terms.

    `arcs` holds each dependent's candidate arcs as a run of `sizes` rows,
    `gold` the gold candidate's position within its run and `labels` the
    gold arc's label.
    """
    logp = _group_log_softmax(logits(arc_w[None], arcs)[:, 0], sizes)
    gold_rows = np.cumsum(sizes) - sizes + gold
    target = np.zeros(arcs.n)
    target[gold_rows] = 1.0
    grad_arc = scatter((target - np.exp(logp))[:, None], arcs, arc_w.shape[0])[0]
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


def _train(init, step, eval_fn, n_examples: int, config: TrainingConfig):
    """Train once per learning rate (ascending) and keep the best validation score.

    Every epoch visits the examples in a fresh permutation, in mini-batches;
    `step(weights, batch_positions, scale)` applies one batch's update in
    place, where `scale` is the learning rate over the batch size. After each
    epoch the validation score is computed; a learning rate's run stops once
    `patience` consecutive epochs fail to improve on its best score, or at
    `max_epochs`. Returns the best weights and a `FitInfo`.
    """
    best = None
    validation: dict[float, float] = {}
    epochs: dict[float, int] = {}
    for lr in sorted(config.learning_rates):
        rng = np.random.default_rng(config.rng_seed)
        weights, kept, score, bad = init(), None, -np.inf, 0
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(n_examples)
            for start in range(0, n_examples, config.batch_size):
                batch = order[start : start + config.batch_size]
                step(weights, batch, lr / len(batch))
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


class _ModelBase:
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

    @classmethod
    def with_zero_weights(cls, space: FeatureSpace, vocab: Sequence[str]):
        model = cls(space, vocab)
        model.weights = model._zeros(model.vocab)
        return model

    def _require_trained(self):
        if self.weights is None:
            raise ModelStateError("model has no weights; train it or set them explicitly")

    def _score(self, counts: dict[str, int]) -> float:
        return task_metrics(self.task, counts)[self.headline]

    def _features(self, payloads) -> tuple[Rows, list[int]]:
        return FEATURES.rows(self.kind, payloads, self.space, self.chunk)

    def _in_passes(self, fn, instances: Sequence[Instance]) -> list:
        """fn(payloads, rows, rows per payload) over consecutive passes of whole
        instances of at most `chunk` rows (`_passes`); one result per pass."""
        self._require_trained()
        key_of, size_of, _ = _FEATURIZERS[self.kind]
        payloads = [i.payload for i in instances]
        return [
            fn(payloads[start:stop], *self._features(payloads[start:stop]))
            for start, stop in _passes([size_of(key_of(p)) for p in payloads], self.chunk)
        ]


class _SoftmaxModel(_ModelBase):
    """A softmax over feature rows: one row per text (classifier) or per token (tagger).

    Subclasses name the feature kind, the gold label of each row and the
    `_counter` of the task's counts, which validation and `evaluate` share;
    `_fit` is their shared training body. Each subclass still defines `fit`
    and the one-instance predictors itself, because `perfbench/tracer.py`
    wraps them in each class's own namespace.
    """

    def _fit(self, labeled, validation, config: TrainingConfig) -> float:
        if not labeled or not validation:
            raise ConfigError("need non-empty labeled and validation sets")
        labeled = [i.payload for i in labeled if self._gold(i.payload) is not None]
        vocab = tuple(sorted({y for p in labeled for y in self._gold(p)}))
        if not vocab:
            raise ConfigError("empty label vocabulary")
        index = {y: k for k, y in enumerate(vocab)}
        rows, _ = self._features(labeled)
        gold = np.array([index[y] for p in labeled for y in self._gold(p)], dtype=np.int64)
        val_payloads = [i.payload for i in validation]
        val_rows, val_counts = self._features(val_payloads)
        count = self._counter(vocab, val_payloads, val_counts)

        def step(weights, batch, scale):
            _, grad = softmax_objective(weights, rows.take(batch), gold[batch], config.l2)
            weights += scale * grad

        def eval_fn(weights):
            return self._score(count(logits(weights, val_rows).argmax(axis=1)))

        self.weights, self.fit_info = _train(lambda: self._zeros(vocab), step, eval_fn, rows.n, config)
        self.vocab = vocab
        return self.fit_info.score

    def _probas(self, instances: Sequence[Instance]) -> tuple[np.ndarray, list[int]]:
        """One (rows, vocab) matrix of distributions over every instance's rows, and each instance's row count."""
        passes = self._in_passes(
            lambda _, rows, counts: (softmax(logits(self.weights, rows)), counts), instances
        )
        matrices = [m for m, _ in passes] or [np.zeros((0, len(self.vocab)))]
        return np.concatenate(matrices), [n for _, counts in passes for n in counts]

    def evaluate(self, instances: Sequence[Instance]) -> dict[str, int]:
        """The task's counts of the argmax predictions on `instances` against their gold labels."""
        probas, counts = self._probas(instances)
        return self._counter(self.vocab, [i.payload for i in instances], counts)(probas.argmax(axis=1))


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

    @staticmethod
    def _counter(classes, payloads, _):
        """Hits and instances of argmax class indices; a gold label outside `classes` is a miss."""
        index = {y: k for k, y in enumerate(classes)}
        gold = np.array([index.get(p.label, -1) for p in payloads], dtype=np.int64)
        return lambda best: {"correct": int((best == gold).sum()), "total": len(gold)}

    def fit(self, labeled: Sequence[Instance], validation: Sequence[Instance], config: TrainingConfig) -> float:
        return self._fit(labeled, validation, config)

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

    @staticmethod
    def _counter(tags, payloads, counts):
        """Span counts of argmax tag indices, cut into sentences of `counts` tokens."""
        gold = [list(p.tags) for p in payloads]
        return lambda best: span_f1(_split([tags[k] for k in best.tolist()], counts), gold).counts

    def fit(self, labeled: Sequence[Instance], validation: Sequence[Instance], config: TrainingConfig) -> float:
        return self._fit(labeled, validation, config)

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

    def fit(self, labeled: Sequence[Instance], validation: Sequence[Instance], config: TrainingConfig) -> float:
        if not labeled or not validation:
            raise ConfigError("need non-empty labeled and validation sets")
        labels = tuple(
            sorted({l for i in labeled if i.payload.labels for l in i.payload.labels})
        )
        if not labels:
            raise ConfigError("empty dependency label vocabulary")
        label_index = {l: k for k, l in enumerate(labels)}
        trees = [i.payload for i in labeled if i.payload.heads is not None]
        arcs, arc_counts = self._features(trees)
        lengths = np.array([len(t.tokens) for t in trees], dtype=np.int64)
        first_dep = np.cumsum(lengths) - lengths
        first_arc = np.cumsum(arc_counts) - arc_counts
        gold = np.array(
            [_candidate(h, d) for t in trees for d, h in enumerate(t.heads, start=1)], dtype=np.int64
        )
        gold_labels = np.array([label_index[l] for t in trees for l in t.labels], dtype=np.int64)
        val_gold = [i.payload for i in validation]
        val_arcs, _ = self._features(val_gold)

        def step(weights, batch, scale):
            n = lengths[batch]
            deps = _ranges(first_dep[batch], n)
            _, g_arc, g_label = arc_objective(
                weights[0], weights[1:], arcs.take(_ranges(first_arc[batch], n * n)),
                np.repeat(n, n), gold[deps], gold_labels[deps], config.l2,
            )
            weights[0] += scale * g_arc
            weights[1:] += scale * g_label

        def eval_fn(weights):
            decoded = self._decode(weights, labels, val_gold, val_arcs)
            return self._score(attachment_scores(decoded, val_gold).counts)

        self.weights, self.fit_info = _train(lambda: self._zeros(labels), step, eval_fn, len(trees), config)
        self.vocab = labels
        return self.fit_info.score

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

    def _decode(self, weights, labels, payloads, arcs: Rows) -> list[DepTree]:
        heads = [
            chu_liu_edmonds(ArcScores(m)).heads
            for m in self._head_log_probs(weights[0], payloads, arcs)
        ]
        rows = []
        for tree_heads, first in zip(heads, np.cumsum([0] + [len(h) ** 2 for h in heads]).tolist()):
            n = len(tree_heads)
            rows += [first + (d - 1) * n + _candidate(h, d) for d, h in enumerate(tree_heads, 1)]
        best = [labels[k] for k in logits(weights[1:], arcs.take(rows)).argmax(axis=1).tolist()]
        return [
            DepTree(p.tokens, p.upos, tree_heads, tuple(pred))
            for p, tree_heads, pred in zip(payloads, heads, _split(best, [len(h) for h in heads]))
        ]

    def head_log_probs_batch(self, instances: Sequence[Instance]) -> list[np.ndarray]:
        """Per instance, (n+1, n) head log-probabilities; -inf on forbidden arcs."""
        passes = self._in_passes(
            lambda payloads, arcs, _: self._head_log_probs(self.weights[0], payloads, arcs),
            instances,
        )
        return [matrix for matrices in passes for matrix in matrices]

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
        passes = self._in_passes(
            lambda payloads, arcs, _: self._decode(self.weights, self.labels, payloads, arcs), instances
        )
        return [tree for trees in passes for tree in trees]

    def decode_tree(self, instance: Instance) -> DepTree:
        return self.decode_tree_batch([instance])[0]

    def evaluate(self, instances: Sequence[Instance]) -> dict[str, int]:
        """Attachment counts of the decoded trees of `instances` against their gold trees."""
        return attachment_scores(self.decode_tree_batch(instances), [i.payload for i in instances]).counts


def build_model(task: TaskKind, space: FeatureSpace):
    if task is TaskKind.CLASSIFICATION:
        return TextClassifier(space)
    if task is TaskKind.SEQUENCE_TAGGING:
        return SequenceTagger(space)
    return DependencyParser(space)

