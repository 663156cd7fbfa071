"""Trainable log-linear task models over a shared hashed feature space.

One feature space is shared by every language, so surface forms that look
alike contribute to the same weights regardless of language; this is what
lets a single pooled model transfer across languages. All three models are
multinomial logistic layers over sparse hashed features, trained by
mini-batch gradient ascent with a learning-rate search and patience-based
early stopping on the task metric.

Features are computed once per process: the first time a model needs a
text, a sentence's token windows or a sentence's arc candidates, they are
hashed and packed as CSR rows (`Rows`); every later fit, validation pass,
pool scoring and prediction over the same content slices those arrays. All
three models run through one batched softmax layer over such rows. Its
logits and gradients are scattered with `np.bincount`, which adds terms in
row order, so a batch's gradient is bit for bit the sum of its examples'
gradients taken one after another.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import DepTree, Instance
from .errors import ConfigError, FormatError, ModelStateError
from .graph import ArcScores, chu_liu_edmonds
from .tasks import TaskKind, accuracy, attachment_scores, span_f1

ROOT_FORM = "<root>"
ROOT_UPOS = "<root>"

CHECKPOINT_VERSION = 1


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
        if self.patience > self.max_epochs:
            raise ConfigError("patience cannot exceed max_epochs")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, max_epochs, and patience must be positive")
        if self.l2 < 0:
            raise ConfigError("l2 must be non-negative")


def _stable_hash(key: str) -> int:
    return zlib.crc32(key.encode("utf-8"))


def hash_features(keys: Sequence[str], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash string features into (sorted indices, counts)."""
    counts: dict[int, float] = {}
    mask = dim - 1
    for key in keys:
        idx = _stable_hash(key) & mask
        counts[idx] = counts.get(idx, 0.0) + 1.0
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[i] for i in indices], dtype=np.float64)
    return indices, values


def char_ngrams(text: str, lo: int, hi: int) -> list[str]:
    grams = []
    for k in range(lo, hi + 1):
        grams.extend(text[i : i + k] for i in range(len(text) - k + 1))
    return grams


def featurize_text(text: str, space: FeatureSpace):
    return hash_features(char_ngrams(text, space.ngram_min, space.ngram_max), space.hash_dimension)


def featurize_tokens(tokens: Sequence[str], space: FeatureSpace):
    """One vector per token: n-grams of the token and its window-1 neighbors."""
    vecs = []
    for i, token in enumerate(tokens):
        keys = [f"t:{g}" for g in char_ngrams(token, space.ngram_min, space.ngram_max)]
        prev_tok = tokens[i - 1] if i > 0 else "<s>"
        next_tok = tokens[i + 1] if i + 1 < len(tokens) else "</s>"
        keys.extend(f"p:{g}" for g in char_ngrams(prev_tok, space.ngram_min, space.ngram_max))
        keys.extend(f"n:{g}" for g in char_ngrams(next_tok, space.ngram_min, space.ngram_max))
        vecs.append(hash_features(keys, space.hash_dimension))
    return vecs


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


def _arc_vectors(sentence, space: FeatureSpace):
    """Every candidate arc of a (tokens, upos) sentence: dependent-major, heads ascending."""
    tokens, upos = sentence
    n = len(tokens)
    return [
        featurize_arc(tokens, upos, h, d, space)
        for d in range(1, n + 1)
        for h in range(n + 1)
        if h != d
    ]


# kind -> (the cache key of a payload, the feature vectors of that key). The
# featurize_* functions are looked up when called, so that a profiler that
# rebinds them in this module sees every call.
_FEATURIZERS = {
    "text": (lambda p: p.text, lambda text, space: [featurize_text(text, space)]),
    "tokens": (lambda p: p.tokens, lambda tokens, space: featurize_tokens(tokens, space)),
    "arcs": (lambda p: (p.tokens, p.upos), _arc_vectors),
}


class FeatureCache:
    """Featurized content for the life of the process, per kind and feature space.

    Content is the lookup key (a text, a token tuple, or a sentence's
    (tokens, upos)), because a corpus ingested again yields new instances
    with new ids but the same content. A cached block is what featurizing
    the key again would give, so sharing the cache never changes a result;
    it grows with the distinct content a process sees. Each key keeps (row
    lengths, indices, values) in compact dtypes: hashed indices fit int32
    and counts are small integers, exact in float32.
    """

    def __init__(self):
        self._blocks: dict[tuple[str, FeatureSpace], dict] = {}

    def clear(self) -> None:
        self._blocks.clear()

    def rows(self, kind: str, payloads: Sequence, space: FeatureSpace) -> tuple[Rows, list[int]]:
        """The rows of every payload in order, and how many rows each has."""
        key_of, featurize = _FEATURIZERS[kind]
        table = self._blocks.setdefault((kind, space), {})
        blocks = []
        for payload in payloads:
            key = key_of(payload)
            block = table.get(key)
            if block is None:
                rows = Rows.from_vectors(featurize(key, space))
                lengths = np.diff(rows.indptr)
                block = (lengths, rows.indices.astype(np.int32), rows.data.astype(np.float32))
                table[key] = block
            blocks.append(block)
        if not blocks:
            return Rows.stack([], [], []), []
        lengths, indices, data = (np.concatenate(parts) for parts in zip(*blocks))
        return Rows.stack(lengths, indices, data), [len(b[0]) for b in blocks]


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


def run_epochs(
    state,
    epoch_fn: Callable,
    eval_fn: Callable,
    max_epochs: int,
    patience: int,
    copy_fn: Callable,
):
    """Run training epochs with patience-based early stopping.

    After each epoch the validation score is computed; training stops once
    `patience` consecutive epochs fail to improve on the best score (or at
    `max_epochs`). Returns (best state, best score, epochs run).
    """
    best_state = None
    best_score = -np.inf
    bad = 0
    epochs_run = 0
    for epoch in range(1, max_epochs + 1):
        state = epoch_fn(state, epoch)
        score = eval_fn(state)
        epochs_run = epoch
        if score > best_score:
            best_score = score
            best_state = copy_fn(state)
            bad = 0
        else:
            bad += 1
        if bad >= patience:
            break
    return best_state, best_score, epochs_run


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


def _train(init, step, eval_fn, n_examples: int, config: TrainingConfig, copy_fn=np.copy):
    """Train once per learning rate (ascending) and keep the best validation score.

    Every epoch visits the examples in a fresh permutation, in mini-batches;
    `step(state, batch_positions, scale)` applies one batch's update, where
    `scale` is the learning rate over the batch size. Returns the best state
    and a `FitInfo`.
    """
    best = None
    validation: dict[float, float] = {}
    epochs: dict[float, int] = {}
    for lr in sorted(config.learning_rates):
        rng = np.random.default_rng(config.rng_seed)

        def epoch_fn(state, _epoch):
            order = rng.permutation(n_examples)
            for start in range(0, n_examples, config.batch_size):
                batch = order[start : start + config.batch_size]
                step(state, batch, lr / len(batch))
            return state

        state, score, epochs[lr] = run_epochs(
            init(), epoch_fn, eval_fn, config.max_epochs, config.patience, copy_fn
        )
        validation[lr] = score
        if best is None or score > best[1]:
            best = (state, score, lr)
    return best[0], FitInfo(best[2], validation, epochs)


class _ModelBase:
    task: TaskKind
    kind: str  # the feature kind of the cache
    chunk: int  # instances per prediction pass, which bounds its transient arrays

    def __init__(self, space: FeatureSpace):
        self.space = space
        self.fit_info: FitInfo | None = None

    def _require_trained(self):
        if getattr(self, "weights", None) is None:
            raise ModelStateError("model has no weights; train it or set them explicitly")

    def _features(self, payloads) -> tuple[Rows, list[int]]:
        return FEATURES.rows(self.kind, payloads, self.space)

    def _in_chunks(self, fn, instances: Sequence[Instance]) -> list:
        """fn(payloads, rows, rows per payload) over consecutive chunks; one result per instance."""
        self._require_trained()
        out = []
        for start in range(0, len(instances), self.chunk):
            payloads = [i.payload for i in instances[start : start + self.chunk]]
            out += fn(payloads, *self._features(payloads))
        return out


class _SoftmaxModel(_ModelBase):
    """A softmax over feature rows: one row per text (classifier) or per token (tagger).

    Subclasses name the feature kind, the gold label of each row and the
    validation metric; `_fit` is their shared training body. Each subclass
    still defines `fit` and the per-instance predictors itself, because
    `perfbench/tracer.py` wraps them in each class's own namespace.
    """

    def __init__(self, space: FeatureSpace, vocab: Sequence[str] | None = None):
        super().__init__(space)
        self.vocab = tuple(vocab) if vocab is not None else None
        self.weights: np.ndarray | None = None

    @classmethod
    def with_zero_weights(cls, space: FeatureSpace, vocab: Sequence[str]):
        model = cls(space, vocab)
        model.weights = np.zeros((len(model.vocab), space.hash_dimension))
        return model

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
        val_gold = [i.payload for i in validation]
        val_rows, val_counts = self._features(val_gold)

        def step(weights, batch, scale):
            _, grad = softmax_objective(weights, rows.take(batch), gold[batch], config.l2)
            weights += scale * grad

        def eval_fn(weights):
            best = [vocab[k] for k in logits(weights, val_rows).argmax(axis=1).tolist()]
            return self._metric(_split(best, val_counts), val_gold)

        weights, self.fit_info = _train(
            lambda: np.zeros((len(vocab), self.space.hash_dimension)), step, eval_fn, rows.n, config
        )
        self.vocab = vocab
        self.weights = weights
        return self.fit_info.score

    def _probas(self, instances: Sequence[Instance]) -> list[np.ndarray]:
        """Per instance, a (rows, vocab) array of distributions."""
        return self._in_chunks(
            lambda _, rows, counts: _split(softmax(logits(self.weights, rows)), counts), instances
        )


class TextClassifier(_SoftmaxModel):
    task = TaskKind.CLASSIFICATION
    kind = "text"
    chunk = 256

    @property
    def classes(self):
        return self.vocab

    @staticmethod
    def _gold(payload):
        return None if payload.label is None else (payload.label,)

    @staticmethod
    def _metric(preds, payloads) -> float:
        return accuracy([p[0] for p in preds], [p.label for p in payloads])

    def fit(self, labeled: Sequence[Instance], validation: Sequence[Instance], config: TrainingConfig) -> float:
        return self._fit(labeled, validation, config)

    def predict_proba_batch(self, instances: Sequence[Instance]) -> list[np.ndarray]:
        return [probas[0] for probas in self._probas(instances)]

    def predict_proba(self, instance: Instance) -> np.ndarray:
        return self.predict_proba_batch([instance])[0]

    def predict_batch(self, instances: Sequence[Instance]) -> list[str]:
        return [self.classes[int(np.argmax(p))] for p in self.predict_proba_batch(instances)]

    def predict(self, instance: Instance) -> str:
        return self.predict_batch([instance])[0]


class SequenceTagger(_SoftmaxModel):
    task = TaskKind.SEQUENCE_TAGGING
    kind = "tokens"
    chunk = 64

    @property
    def tags(self):
        return self.vocab

    @staticmethod
    def _gold(payload):
        return payload.tags

    @staticmethod
    def _metric(preds, payloads) -> float:
        return span_f1(preds, [list(p.tags) for p in payloads]).f1

    def fit(self, labeled: Sequence[Instance], validation: Sequence[Instance], config: TrainingConfig) -> float:
        return self._fit(labeled, validation, config)

    def predict_tag_probas_batch(self, instances: Sequence[Instance]) -> list[np.ndarray]:
        return self._probas(instances)

    def predict_tag_probas(self, instance: Instance) -> np.ndarray:
        return self.predict_tag_probas_batch([instance])[0]

    def predict_tags_batch(self, instances: Sequence[Instance]) -> list[list[str]]:
        return [
            [self.tags[int(k)] for k in probas.argmax(axis=1)]
            for probas in self.predict_tag_probas_batch(instances)
        ]

    def predict_tags(self, instance: Instance) -> list[str]:
        return self.predict_tags_batch([instance])[0]


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
    """

    task = TaskKind.DEPENDENCY_PARSING
    kind = "arcs"
    chunk = 16

    def __init__(self, space: FeatureSpace, labels: Sequence[str] | None = None):
        super().__init__(space)
        self.labels = tuple(labels) if labels is not None else None
        self.arc_weights: np.ndarray | None = None
        self.label_weights: np.ndarray | None = None

    @property
    def weights(self):
        return self.arc_weights

    @classmethod
    def with_zero_weights(cls, space: FeatureSpace, labels: Sequence[str]):
        model = cls(space, labels)
        model.arc_weights = np.zeros(space.hash_dimension)
        model.label_weights = np.zeros((len(model.labels), space.hash_dimension))
        return model

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

        def step(state, batch, scale):
            arc_w, label_w = state
            n = lengths[batch]
            deps = _ranges(first_dep[batch], n)
            _, g_arc, g_label = arc_objective(
                arc_w, label_w, arcs.take(_ranges(first_arc[batch], n * n)),
                np.repeat(n, n), gold[deps], gold_labels[deps], config.l2,
            )
            arc_w += scale * g_arc
            label_w += scale * g_label

        def eval_fn(state):
            return attachment_scores(self._decode(*state, labels, val_gold, val_arcs), val_gold).las

        dim = self.space.hash_dimension
        (arc_w, label_w), self.fit_info = _train(
            lambda: (np.zeros(dim), np.zeros((len(labels), dim))),
            step, eval_fn, len(trees), config,
            copy_fn=lambda state: (state[0].copy(), state[1].copy()),
        )
        self.labels = labels
        self.arc_weights = arc_w
        self.label_weights = label_w
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

    def _decode(self, arc_w, label_w, labels, payloads, arcs: Rows) -> list[DepTree]:
        heads = [
            chu_liu_edmonds(ArcScores(m)).heads
            for m in self._head_log_probs(arc_w, payloads, arcs)
        ]
        rows = []
        for tree_heads, first in zip(heads, np.cumsum([0] + [len(h) ** 2 for h in heads]).tolist()):
            n = len(tree_heads)
            rows += [first + (d - 1) * n + _candidate(h, d) for d, h in enumerate(tree_heads, 1)]
        best = [labels[k] for k in logits(label_w, arcs.take(rows)).argmax(axis=1).tolist()]
        return [
            DepTree(p.tokens, p.upos, tree_heads, tuple(pred))
            for p, tree_heads, pred in zip(payloads, heads, _split(best, [len(h) for h in heads]))
        ]

    def head_log_probs_batch(self, instances: Sequence[Instance]) -> list[np.ndarray]:
        """Per instance, (n+1, n) head log-probabilities; -inf on forbidden arcs."""
        return self._in_chunks(
            lambda payloads, arcs, _: self._head_log_probs(self.arc_weights, payloads, arcs),
            instances,
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
        head_probs = np.exp(self._head_log_probs(self.arc_weights, [payload], arcs)[0])
        label_probs = np.zeros((n + 1, n, len(self.labels)))
        label_probs[_candidate_grid(n)] = softmax(logits(self.label_weights, arcs)).reshape(n, n, -1)
        return head_probs, label_probs

    def decode_tree_batch(self, instances: Sequence[Instance]) -> list[DepTree]:
        """Best single-root tree per instance under the head softmax, with argmax arc labels."""
        return self._in_chunks(
            lambda payloads, arcs, _: self._decode(
                self.arc_weights, self.label_weights, self.labels, payloads, arcs
            ),
            instances,
        )

    def decode_tree(self, instance: Instance) -> DepTree:
        return self.decode_tree_batch([instance])[0]


def build_model(task: TaskKind, space: FeatureSpace):
    if task is TaskKind.CLASSIFICATION:
        return TextClassifier(space)
    if task is TaskKind.SEQUENCE_TAGGING:
        return SequenceTagger(space)
    return DependencyParser(space)


# ---------------------------------------------------------------------------
# Checkpoints: a JSON container with a mandatory version field.
# ---------------------------------------------------------------------------


def save_checkpoint(model, path) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "task": model.task.value,
        "feature_space": {
            "hash_dimension": model.space.hash_dimension,
            "ngram_min": model.space.ngram_min,
            "ngram_max": model.space.ngram_max,
        },
    }
    if isinstance(model, DependencyParser):
        model._require_trained()
        payload["labels"] = list(model.labels)
        payload["arc_weights"] = model.arc_weights.tolist()
        payload["label_weights"] = model.label_weights.tolist()
    elif isinstance(model, SequenceTagger):
        model._require_trained()
        payload["tags"] = list(model.tags)
        payload["weights"] = model.weights.tolist()
    else:
        model._require_trained()
        payload["classes"] = list(model.classes)
        payload["weights"] = model.weights.tolist()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_checkpoint(path):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {payload.get('version')!r}")
    space = FeatureSpace(**payload["feature_space"])
    task = TaskKind(payload["task"])
    if task is TaskKind.DEPENDENCY_PARSING:
        model = DependencyParser(space, payload["labels"])
        model.arc_weights = np.asarray(payload["arc_weights"], dtype=np.float64)
        model.label_weights = np.asarray(payload["label_weights"], dtype=np.float64)
    elif task is TaskKind.SEQUENCE_TAGGING:
        model = SequenceTagger(space, payload["tags"])
        model.weights = np.asarray(payload["weights"], dtype=np.float64)
    else:
        model = TextClassifier(space, payload["classes"])
        model.weights = np.asarray(payload["weights"], dtype=np.float64)
    return model
