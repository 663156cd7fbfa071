"""Feature hashing: the batched CRC-32 pass against the one-key-at-a-time loop of `oracles`,
and the featurized corpus every set of a run is taken from."""

import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

import lingalloc.models as models
from lingalloc.corpus import ClassificationText, DepTree, Instance, TaggedSentence
from lingalloc.experiment import MultilingualData, featurize
from lingalloc.models import (
    DependencyParser,
    FeatureSpace,
    Rows,
    SequenceTagger,
    TextClassifier,
    arc_feature_keys,
    build_model,
    featurize_arc,
    featurize_batch,
    featurize_text,
    featurize_tokens,
    hash_features,
)
from lingalloc.synth import synth_dataset
from lingalloc.tasks import TaskKind

from oracles import key_loop_arcs, key_loop_block, key_loop_hash, key_loop_text, key_loop_tokens

SPACES = (
    FeatureSpace(hash_dimension=1024, ngram_min=2, ngram_max=4),
    FeatureSpace(hash_dimension=2**16, ngram_min=1, ngram_max=8),
)
# one, two, three and four UTF-8 bytes per character
ALPHABET = "ab z" + "éßж" + "日本語€" + "\U0001F600\U00010348"


def _word(rng, lo=0, hi=12):
    return "".join(rng.choice(list(ALPHABET), size=int(rng.integers(lo, hi + 1))))


def _assert_same(got, expected):
    for g, e in zip(got, expected, strict=True):
        assert g.dtype == e.dtype
        assert np.array_equal(g, e)


class TestCrc32:
    def test_equals_zlib_on_spans_of_one_buffer(self):
        rng = np.random.default_rng(0)
        words = [_word(rng) for _ in range(400)] + ["", "", "x"]
        data = [w.encode("utf-8") for w in words]
        buf = np.frombuffer(b"".join(data), dtype=np.uint8)
        lengths = np.array([len(d) for d in data])
        starts = np.cumsum(lengths) - lengths
        expected = [zlib.crc32(d) for d in data]
        assert models._crc32(buf, starts, lengths).tolist() == expected

    def test_initial_register_continues_a_prefix(self):
        rng = np.random.default_rng(1)
        words = [_word(rng) for _ in range(300)]
        prefixes = [_word(rng, 0, 4).encode("utf-8") for _ in words]
        data = [w.encode("utf-8") for w in words]
        buf = np.frombuffer(b"".join(data), dtype=np.uint8)
        lengths = np.array([len(d) for d in data])
        inits = np.array([zlib.crc32(p) for p in prefixes], dtype=np.uint32)
        got = models._crc32(buf, np.cumsum(lengths) - lengths, lengths, inits)
        assert got.tolist() == [zlib.crc32(p + d) for p, d in zip(prefixes, data)]
        assert got.dtype == np.uint32

    def test_spans_may_overlap_and_come_in_any_order(self):
        data = "ab日€\U0001F600z".encode("utf-8")
        buf = np.frombuffer(data, dtype=np.uint8)
        spans = [(s, n) for s in range(len(data)) for n in range(len(data) - s + 1)][::-1]
        starts, lengths = map(np.array, zip(*spans))
        got = models._crc32(buf, starts, lengths, 12345)
        assert got.tolist() == [zlib.crc32(data[s : s + n], 12345) for s, n in spans]

    def test_no_spans(self):
        got = models._crc32(np.zeros(0, dtype=np.uint8), np.zeros(0), np.zeros(0))
        assert got.shape == (0,) and got.dtype == np.uint32


class TestOneRowCase:
    """The public per-row featurizers keep the per-key loop's arrays and dtypes."""

    @pytest.mark.parametrize("space", SPACES)
    def test_text(self, space):
        rng = np.random.default_rng(2)
        for text in [_word(rng, 0, 30) for _ in range(60)] + ["", "a"]:
            _assert_same(featurize_text(text, space), key_loop_text(text, space))

    @pytest.mark.parametrize("space", SPACES)
    def test_tokens(self, space):
        rng = np.random.default_rng(3)
        for _ in range(30):
            tokens = tuple(_word(rng, 1, 8) for _ in range(int(rng.integers(1, 6))))
            got = featurize_tokens(tokens, space)
            expected = key_loop_tokens(tokens, space)
            assert len(got) == len(expected) == len(tokens)
            for g, e in zip(got, expected):
                _assert_same(g, e)

    def test_arc_and_hash_features(self):
        space = SPACES[0]
        tokens, upos = ("Straße", "日本", "\U0001F600!"), ("NOUN", "PROPN", "SYM")
        for dep in range(1, 4):
            for head in range(4):
                if head != dep:
                    expected = key_loop_hash(arc_feature_keys(tokens, upos, head, dep), 1024)
                    _assert_same(featurize_arc(tokens, upos, head, dep, space), expected)
        _assert_same(hash_features([], 1024), key_loop_hash([], 1024))
        _assert_same(hash_features(["x", "", "x", "ж"], 1024), key_loop_hash(["x", "", "x", "ж"], 1024))


def _texts(rng, n):
    return [_word(rng, 0, 40) for _ in range(n)]


def _sentences(rng, n):
    return [tuple(_word(rng, 1, 9) for _ in range(int(rng.integers(0, 7)))) for _ in range(n)]


def _trees(rng, n):
    tags = ("NOUN", "VERB", "ADJ", "ÜPOS")
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 7))
        out.append((tuple(_word(rng, 1, 6) for _ in range(k)), tuple(str(t) for t in rng.choice(tags, size=k))))
    return out


def _oracle_block(kind, content, space):
    if kind == "text":
        return key_loop_block([key_loop_text(content, space)])
    if kind == "tokens":
        return key_loop_block(key_loop_tokens(content, space))
    return key_loop_block(key_loop_arcs(*content, space, arc_feature_keys))


KINDS = [("text", _texts), ("tokens", _sentences), ("arcs", _trees)]


class TestBatch:
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("kind, make", KINDS)
    def test_blocks_equal_the_key_loop(self, kind, make, space):
        """One pass gives the rows of every content, in order, packed as one block."""
        contents = make(np.random.default_rng(4), 40)
        blocks = [_oracle_block(kind, content, space) for content in contents]
        expected = tuple(np.concatenate(parts) for parts in zip(*blocks))
        _assert_same(featurize_batch(kind, contents, space), expected)

    @pytest.mark.parametrize("kind, make", KINDS)
    def test_rows_across_chunk_borders(self, monkeypatch, kind, make):
        space = SPACES[0]
        batches = _recorded_batches(monkeypatch)
        monkeypatch.setattr(MODELS[kind], "chunk", 4)
        contents = make(np.random.default_rng(5), 23)
        held = _featurized(kind, contents, space).instances
        # whole contents of at most 4 rows a pass, or one content alone
        assert [c for batch in batches for c in batch] == contents
        assert all(len(b) == 1 or sum(models._FEATURIZERS[kind][1](c) for c in b) <= 4 for b in batches)
        assert held.rows.indices.dtype == np.int32 and held.rows.data.dtype == np.float32
        assert held.sizes[:, 1].tolist() == [len(_oracle_block(kind, c, space)[0]) for c in contents]
        for k, content in enumerate(contents):
            lengths, indices, data = _oracle_block(kind, content, space)
            got = held.take([k]).rows
            assert np.array_equal(np.diff(got.indptr), lengths)
            assert np.array_equal(got.indices, indices) and np.array_equal(got.data, data)

    def test_featurize_hashes_each_instance_once(self, monkeypatch):
        batches = _recorded_batches(monkeypatch)
        monkeypatch.setattr(TextClassifier, "chunk", 4)
        texts = [f"{i}:{t}" for i, t in enumerate(_texts(np.random.default_rng(6), 9))]
        contents = texts * 3 + texts[::-1]
        corpus = _featurized("text", contents, SPACES[0])
        # every instance once, repeated content too, in passes of 4 texts
        assert [t for batch in batches for t in batch] == contents
        assert [len(b) for b in batches] == [4] * 9
        assert corpus.instances.rows.n == len(contents)
        batches.clear()
        assert corpus.instances.take(corpus.locate(corpus.data.train["aa"][:5])).rows.n == 5
        assert batches == []


def _recorded_batches(monkeypatch) -> list:
    """The contents of each `featurize_batch` call made from now on, in call order."""
    batches = []
    original = models.featurize_batch

    def recording(kind, contents, space):
        batches.append(list(contents))
        return original(kind, contents, space)

    monkeypatch.setattr(models, "featurize_batch", recording)
    return batches


_PAYLOAD = {"text": ClassificationText, "tokens": TaggedSentence, "arcs": lambda c: DepTree(*c)}
_TASK = {"text": TaskKind.CLASSIFICATION, "tokens": TaskKind.SEQUENCE_TAGGING, "arcs": TaskKind.DEPENDENCY_PARSING}
MODELS = {"text": TextClassifier, "tokens": SequenceTagger, "arcs": DependencyParser}


def _featurized(kind, contents, space):
    """`featurize` of the contents as the training instances of one language, numbered in order."""
    instances = [Instance(k, "aa", _PAYLOAD[kind](c), 1) for k, c in enumerate(contents)]
    return featurize(MultilingualData(_TASK[kind], {"aa": instances}, {"aa": []}), space)


def _one_row_vectors(kind, content, space):
    """The content's rows as the one-row public featurizers give them."""
    if kind == "text":
        return [featurize_text(content, space)]
    if kind == "tokens":
        return featurize_tokens(content, space)
    tokens, upos = content
    n = len(tokens)
    return [
        featurize_arc(tokens, upos, h, d, space)
        for d in range(1, n + 1) for h in range(n + 1) if h != d
    ]


class TestTake:
    @pytest.mark.parametrize("kind, make", KINDS)
    def test_rows_equal_the_one_row_featurizers(self, monkeypatch, kind, make):
        """A corpus featurized with row budgets of 1, 3, 7 and 50: the rows of
        any members taken from it, repeated ones too, are those of the one-row
        featurizers, stacked in order."""
        space = SPACES[0]
        rng = np.random.default_rng(7)
        contents = make(rng, 30)
        for chunk in (1, 3, 7, 50):
            monkeypatch.setattr(MODELS[kind], "chunk", chunk)
            held = _featurized(kind, contents, space).instances
            picked = rng.integers(0, len(contents), size=25)
            rows = held.take(picked).rows
            vectors = [_one_row_vectors(kind, contents[k], space) for k in picked]
            expected = Rows.from_vectors([v for per_content in vectors for v in per_content])
            assert held.sizes[picked, 1].tolist() == [len(v) for v in vectors]
            assert rows.indices.dtype == np.int64 and rows.data.dtype == np.float64
            assert np.array_equal(rows.indptr, expected.indptr)
            assert np.array_equal(rows.indices, expected.indices)
            assert np.array_equal(rows.data, expected.data)

    @pytest.mark.parametrize("task", list(TaskKind))
    def test_equals_the_evaluation_set_of_the_same_instances(self, task):
        """Payloads, labels recoded to those that occur, codes, sizes and
        rows, with unannotated members and repeated ones among them."""
        data = synth_dataset(task, ["aa", "bb"], 20, 6, 0.5, seed=9)
        instances = [i for part in (data.train, data.test) for lang in data.languages for i in part[lang]]
        blank = {"label": None} if task is TaskKind.CLASSIFICATION else (
            {"tags": None} if task is TaskKind.SEQUENCE_TAGGING else {"heads": None, "labels": None})
        for k in (2, 9, 31):
            instances[k] = replace(instances[k], payload=replace(instances[k].payload, **blank))
        model = build_model(task, SPACES[0])
        held = model.evaluation_set(instances)
        rng = np.random.default_rng(10)
        for picked in ([], [31], [2, 9], rng.integers(0, len(instances), size=30), rng.permutation(len(instances))):
            got = held.take(picked)
            expected = model.evaluation_set([instances[k] for k in picked])
            assert got.payloads == expected.payloads and got.labels == expected.labels
            for field in ("codes", "sizes"):
                assert np.array_equal(getattr(got, field), getattr(expected, field))
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got.rows, field), getattr(expected.rows, field))


def _transient_peak(n_sentences: int) -> int:
    """Bytes allocated at the peak of featurizing `n_sentences` sentences of
    120 tokens, beyond what is still held afterwards."""
    rng = np.random.default_rng(n_sentences)
    contents = [
        (tuple(f"w{k}" for k in rng.integers(0, 500, 120)), tuple(f"P{k}" for k in rng.integers(0, 12, 120)))
        for _ in range(n_sentences)
    ]
    tracemalloc.start()
    try:
        corpus = _featurized("arcs", contents, SPACES[0])
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert corpus.instances.rows.n == 120**2 * n_sentences
    return peak - current


def test_featurizing_transient_does_not_grow_with_sentences():
    """Parser passes are cut by candidate arcs: 8 sentences of 120 tokens
    (14,400 arcs each) peak no higher than one does."""
    assert 120**2 <= DependencyParser.chunk < 2 * 120**2
    assert _transient_peak(8) <= 1.25 * _transient_peak(1)
