import math
from dataclasses import replace

import numpy as np
import pytest

from lingalloc.corpus import ClassificationText, DepTree, Instance, TaggedSentence
from lingalloc.errors import ConfigError, EvaluationError, ModelStateError
from lingalloc.graph import Arborescence, tree_log_prob
from lingalloc.models import (
    DependencyParser,
    FeatureSpace,
    Rows,
    SequenceTagger,
    TextClassifier,
    TrainingConfig,
    arc_feature_keys,
    build_model,
    class_objective,
    featurize_arc,
    featurize_text,
    featurize_tokens,
    hash_features,
    parser_objective,
    _train,
)
from lingalloc.synth import synth_dataset
from lingalloc.tasks import TaskKind, accuracy, attachment_scores, span_f1, task_metrics

from oracles import (
    all_single_root_trees,
    batch_loop_parser,
    batch_loop_softmax,
    best_tree,
    char_ngrams,
    instance_loop_counts,
)

SPACE = FeatureSpace(hash_dimension=1024, ngram_min=2, ngram_max=4)


def text_instance(iid, text, label=None, language="en"):
    return Instance(iid, language, ClassificationText(text, label), 1)


def tagged_instance(iid, tokens, tags, language="en"):
    return Instance(iid, language, TaggedSentence(tuple(tokens), tuple(tags)), len(tokens))


def tree_instance(iid, tokens, upos, heads, labels, language="en"):
    payload = DepTree(tuple(tokens), tuple(upos), tuple(heads), tuple(labels))
    return Instance(iid, language, payload, len(tokens))


def one_hot_counts(cls, vocab, instances, best):
    """A `cls`'s counts on `instances` with `vocab`, for weights whose argmax on
    row i of their evaluation set is best[i]: the set's rows are made one-hot."""
    n = len(best)
    one_hot = Rows.stack(np.ones(n, dtype=np.int64), np.arange(n), np.ones(n))
    model = cls(SPACE)
    evaluation = replace(model.evaluation_set(instances), rows=one_hot)
    weights = np.zeros((len(vocab), n))
    weights[best, np.arange(n)] = 1.0
    return model._counter(vocab, evaluation)(weights)


def zero_model(cls, vocab):
    """A `cls` over `vocab` whose weights are all zero, set as `fit` sets them."""
    model = cls(SPACE)
    model.vocab = tuple(vocab)
    model.weights = model._zeros(model.vocab)
    return model


class TestFeatureSpace:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            FeatureSpace(hash_dimension=3000)

    def test_rejects_small_dimension(self):
        with pytest.raises(ConfigError):
            FeatureSpace(hash_dimension=512)

    def test_rejects_bad_ngram_range(self):
        with pytest.raises(ConfigError):
            FeatureSpace(ngram_min=4, ngram_max=2)


class TestTrainingConfig:
    @pytest.mark.parametrize("fields, message", [
        ({"learning_rates": (0.5, 0.5)}, "learning rates must be distinct"),
        ({"learning_rates": (0.5, float("inf"))}, "learning rates must be positive and finite"),
        ({"learning_rates": (float("nan"),)}, "learning rates must be positive and finite"),
        ({"l2": float("inf")}, "l2 must be non-negative and finite"),
        ({"l2": float("nan")}, "l2 must be non-negative and finite"),
    ], ids=["repeated-rate", "infinite-rate", "nan-rate", "infinite-l2", "nan-l2"])
    def test_rejects_a_repeated_or_non_finite_value(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            TrainingConfig(**fields)


class TestFeaturize:
    def test_deterministic(self):
        a = featurize_text("the same string", SPACE)
        b = featurize_text("the same string", SPACE)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_indices_bounded(self):
        space = FeatureSpace(hash_dimension=2**16)
        idx, _ = featurize_text("bounded indices please", space)
        assert idx.max() < 2**16 and idx.min() >= 0

    def test_ngram_extraction(self):
        assert char_ngrams("abc", 2, 3) == ["ab", "bc", "abc"]

    def test_counts_accumulate(self):
        idx, vals = hash_features(["x", "x", "y"], 1024)
        assert vals.sum() == 3.0

    def test_token_vectors_one_per_token(self):
        vecs = featurize_tokens(("one", "two", "three"), SPACE)
        assert len(vecs) == 3

    def test_root_arc_has_root_feature(self):
        keys = arc_feature_keys(("only",), ("NOUN",), head=0, dep=1)
        assert "hf:<root>" in keys
        assert "dir:R" in keys

    def test_distance_buckets(self):
        near = arc_feature_keys(tuple("abcdefghijkl"), ("X",) * 12, head=1, dep=2)
        far = arc_feature_keys(tuple("abcdefghijkl"), ("X",) * 12, head=1, dep=12)
        assert "dist:1" in near
        assert "dist:>10" in far


class TestObjectiveGradients:
    """Analytic gradients must match central finite differences."""

    STEP = 1e-5
    REL_TOL = 1e-4

    @staticmethod
    def _check(f, flat, grad_flat, coords):
        for i in coords:
            plus = np.array(flat)
            minus = np.array(flat)
            plus[i] += TestObjectiveGradients.STEP
            minus[i] -= TestObjectiveGradients.STEP
            fd = (f(plus) - f(minus)) / (2 * TestObjectiveGradients.STEP)
            denom = max(1.0, abs(fd))
            assert abs(grad_flat[i] - fd) / denom < TestObjectiveGradients.REL_TOL

    def test_classification_gradient(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            examples = [
                (featurize_text("".join(rng.choice(list("abcde"), 6)), SPACE), int(rng.integers(0, 3)))
                for _ in range(3)
            ]
            weights = rng.normal(0, 0.5, size=(3, SPACE.hash_dimension))
            _, grad = class_objective(weights, examples, l2=0.01)
            shape = weights.shape

            def f(flat):
                return class_objective(flat.reshape(shape), examples, l2=0.01)[0]

            # flatten index mapping: weights[c, i] -> flat[c * dim + i]
            coords = [c * SPACE.hash_dimension + i for (idx, _), _ in examples for i in idx for c in range(3)]
            self._check(f, weights.ravel(), grad.ravel(), sorted(set(coords))[:40])

    def test_tagging_gradient(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            tokens = tuple("".join(rng.choice(list("xyz"), 4)) for _ in range(3))
            vecs = featurize_tokens(tokens, SPACE)
            examples = [(vec, int(rng.integers(0, 2))) for vec in vecs]
            weights = rng.normal(0, 0.5, size=(2, SPACE.hash_dimension))
            _, grad = class_objective(weights, examples, l2=0.0)

            def f(flat):
                return class_objective(flat.reshape(weights.shape), examples, l2=0.0)[0]

            coords = sorted({c * SPACE.hash_dimension + int(i) for (idx, _), _ in examples for i in idx for c in range(2)})
            self._check(f, weights.ravel(), grad.ravel(), coords[:40])

    def test_parser_gradient(self):
        rng = np.random.default_rng(2)
        space = SPACE
        for _ in range(5):
            n = int(rng.integers(2, 4))
            tokens = tuple("".join(rng.choice(list("nvda"), 3)) for _ in range(n))
            upos = tuple(rng.choice(["NOUN", "VERB"]) for _ in range(n))
            heads = list(all_single_root_trees(n)[int(rng.integers(0, len(all_single_root_trees(n))))])
            labels = tuple(rng.choice(["a", "b"]) for _ in range(n))
            parser = DependencyParser(space, ["a", "b"])
            payload = DepTree(tokens, upos, tuple(heads), labels)
            sentences = [parser._sentence_examples(payload, {"a": 0, "b": 1})]
            arc_w = rng.normal(0, 0.5, size=space.hash_dimension)
            label_w = rng.normal(0, 0.5, size=(2, space.hash_dimension))
            _, g_arc, g_label = parser_objective(arc_w, label_w, sentences, l2=0.01)
            dim = space.hash_dimension

            def f(flat):
                return parser_objective(
                    flat[:dim], flat[dim:].reshape(2, dim), sentences, l2=0.01
                )[0]

            flat = np.concatenate([arc_w, label_w.ravel()])
            grad_flat = np.concatenate([g_arc, g_label.ravel()])
            active_arc = sorted(
                {int(i) for groups, _ in sentences for vecs, _ in groups for idx, _ in vecs for i in idx}
            )
            active_label = [dim + c * dim + i for i in active_arc[:10] for c in range(2)]
            self._check(f, flat, grad_flat, active_arc[:20] + active_label[:20])


class TestTrainLoop:
    """`_train` with one example and batch size 1, so one step per epoch; the
    state is a one-entry array counting the epochs run."""

    @staticmethod
    def _run(eval_fn, max_epochs, patience):
        def step(state, a, b, scale):
            state += 1

        config = TrainingConfig(learning_rates=(0.5,), batch_size=1, max_epochs=max_epochs, patience=patience)
        state, info = _train(lambda: np.zeros(1), lambda order: step, eval_fn, 1, config)
        return int(state[0]), info

    def test_early_stopping_returns_best_epoch(self):
        scripted = [0.5, 0.6, 0.6, 0.6, 0.6]
        best_state, info = self._run(lambda state: scripted[int(state[0]) - 1], max_epochs=5, patience=2)
        assert info.epochs_run == {0.5: 4}
        assert best_state == 2
        assert info.score == 0.6

    def test_runs_to_cap_when_improving(self):
        best_state, info = self._run(lambda state: float(state[0]), max_epochs=3, patience=3)
        assert info.epochs_run == {0.5: 3}
        assert best_state == 3


def _random_heads(rng, n):
    """Heads of a random single-root tree over tokens 1..n."""
    order = (rng.permutation(n) + 1).tolist()
    heads = [0] * n
    for k, d in enumerate(order[1:], start=1):
        heads[d - 1] = order[int(rng.integers(0, k))]
    return tuple(heads)


def _training_payloads(kind, rng, n_examples, n_classes):
    """Payloads holding `n_examples` training examples (texts, tokens or
    trees) labeled from `n_classes`; two texts are too short to have any
    feature."""
    classes = [f"c{k}" for k in range(n_classes)]

    def word():
        return "".join(rng.choice(list("abcdé"), int(rng.integers(1, 6))))

    if kind == "text":
        texts = ["", "a"] + [" ".join(word() for _ in range(3)) for _ in range(n_examples - 2)]
        return [ClassificationText(t, classes[i % n_classes]) for i, t in enumerate(texts)]
    if kind == "tokens":
        lengths = []
        while sum(lengths) < n_examples:
            lengths.append(min(int(rng.integers(1, 6)), n_examples - sum(lengths)))
        return [
            TaggedSentence(tuple(word() for _ in range(n)), tuple(rng.choice(classes, n)))
            for n in lengths
        ]
    trees = []
    for _ in range(n_examples):
        n = int(rng.integers(1, 5))
        tokens = tuple(word() for _ in range(n))
        upos = tuple(rng.choice(["NOUN", "VERB", "ADP"], n))
        trees.append(DepTree(tokens, upos, _random_heads(rng, n), tuple(rng.choice(classes, n))))
    return trees


class TestEpochTrainer:
    """Each model's epoch trainer, run by `_train`, leaves the weights equal
    bit for bit to the per-batch SGD loop over the objectives in
    `tests/oracles.py`, on the same permutations."""

    EPOCHS = 2
    LR = 0.3

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @pytest.mark.parametrize("n_classes", [1, 3, 8, 12])
    @pytest.mark.parametrize("batch_size, n_examples", [(1, 20), (7, 21), (7, 25), (32, 64), (32, 45)])
    @pytest.mark.parametrize("model_class", [TextClassifier, SequenceTagger, DependencyParser])
    def test_equals_the_per_batch_loop(self, model_class, batch_size, n_examples, n_classes, l2):
        rng = np.random.default_rng(batch_size * 1000 + n_examples * 10 + n_classes)
        payloads = _training_payloads(model_class.kind, rng, n_examples, n_classes)
        model = model_class(SPACE)
        vocab = tuple(sorted({y for p in payloads for y in model._gold(p)}))
        config = TrainingConfig(
            learning_rates=(self.LR,), batch_size=batch_size, max_epochs=self.EPOCHS, patience=self.EPOCHS,
            l2=l2, rng_seed=4,
        )
        train = model.evaluation_set([Instance(i, "en", p, 1) for i, p in enumerate(payloads)])
        n, prepare = model._trainer(train, vocab, config)
        scores = iter(range(self.EPOCHS))  # rising, so `_train` keeps the last epoch's weights
        got, _ = _train(lambda: model._zeros(vocab), prepare, lambda _: next(scores), n, config)

        perms = np.random.default_rng(4)
        orders = [perms.permutation(n) for _ in range(self.EPOCHS)]
        rows, _ = model._features(payloads)
        index = {y: k for k, y in enumerate(vocab)}
        if model_class is DependencyParser:
            expected = batch_loop_parser(
                model._zeros(vocab), rows, payloads, index, orders, batch_size, self.LR, l2
            )
        else:
            gold = np.array([index[y] for p in payloads for y in model._gold(p)])
            expected = batch_loop_softmax(model._zeros(vocab), rows, gold, orders, batch_size, self.LR, l2)
        assert n == n_examples
        assert np.any(got) or n_classes == 1
        assert np.array_equal(got, expected)


SEPARABLE = (
    [text_instance(i, f"yes good fine {i}", "pos") for i in range(10)]
    + [text_instance(10 + i, f"non bad awful {i}", "neg") for i in range(10)]
)

FAST = TrainingConfig(learning_rates=(0.5,), batch_size=8, max_epochs=30, patience=30, rng_seed=3)


class TestTextClassifier:
    def test_reaches_perfect_training_accuracy(self):
        model = TextClassifier(SPACE)
        model.fit(SEPARABLE, model.evaluation_set(SEPARABLE), FAST)
        preds = [model.predict(i) for i in SEPARABLE]
        gold = [i.payload.label for i in SEPARABLE]
        assert preds == gold

    def test_bit_identical_retraining(self):
        a = TextClassifier(SPACE)
        b = TextClassifier(SPACE)
        a.fit(SEPARABLE, a.evaluation_set(SEPARABLE), FAST)
        b.fit(SEPARABLE, b.evaluation_set(SEPARABLE), FAST)
        assert np.array_equal(a.weights, b.weights)

    def test_zero_weights_give_uniform(self):
        model = zero_model(TextClassifier, ("neg", "pos"))
        proba = model.predict_proba(text_instance(0, "whatever"))
        assert np.allclose(proba, [0.5, 0.5])

    def test_distribution_normalized(self):
        model = TextClassifier(SPACE)
        model.fit(SEPARABLE, model.evaluation_set(SEPARABLE), FAST)
        proba = model.predict_proba(text_instance(99, "fresh unseen text"))
        assert abs(proba.sum() - 1.0) < 1e-9
        assert (proba > 0).all() and (proba < 1).all()

    def test_known_weights_match_hand_softmax(self):
        # uniform per-class weights make the logit c_k * (number of n-grams)
        model = zero_model(TextClassifier, ("neg", "pos"))
        model.weights[0, :] = 0.02
        model.weights[1, :] = -0.01
        text = "abc"
        m = len(char_ngrams(text, SPACE.ngram_min, SPACE.ngram_max))  # 3
        z = [0.02 * m, -0.01 * m]
        denom = math.exp(z[0]) + math.exp(z[1])
        expected = [math.exp(z[0]) / denom, math.exp(z[1]) / denom]
        proba = model.predict_proba(text_instance(0, text))
        assert np.allclose(proba, expected, atol=1e-12)

    def test_untrained_raises(self):
        with pytest.raises(ModelStateError):
            TextClassifier(SPACE).predict_proba(text_instance(0, "x"))

    def test_empty_labels_rejected(self):
        insts = [text_instance(0, "x", None)]
        model = TextClassifier(SPACE)
        with pytest.raises(ConfigError):
            model.fit(insts, model.evaluation_set(insts), FAST)

    def test_loglik_nondecreasing_at_small_lr(self):
        examples = [
            (featurize_text(i.payload.text, SPACE), 0 if i.payload.label == "neg" else 1)
            for i in SEPARABLE
        ]
        weights = np.zeros((2, SPACE.hash_dimension))
        values = []
        for _ in range(25):  # full-batch ascent
            value, grad = class_objective(weights, examples, l2=0.0)
            values.append(value)
            weights += 1e-3 * grad
        assert all(b >= a for a, b in zip(values, values[1:]))


TAGGED = [
    tagged_instance(0, ["anna", "runs"], ["B-PER", "O"]),
    tagged_instance(1, ["oslo", "is", "nice"], ["B-LOC", "O", "O"]),
    tagged_instance(2, ["bob", "visits", "oslo"], ["B-PER", "O", "B-LOC"]),
    tagged_instance(3, ["nothing", "here"], ["O", "O"]),
]


class TestValidationMetric:
    """Each model's counter counts predictions against gold labels; the counts give the string metrics."""

    def test_classifier_metric_is_accuracy(self):
        # the classifier counts on an evaluation set: a hit is an argmax equal
        # to the gold label's code, and an unseen or missing label is a miss
        rng = np.random.default_rng(5)
        classes = ("neg", "neu", "pos")
        for _ in range(200):
            n = int(rng.integers(1, 40))
            labels = rng.choice(["neg", "neu", "pos", "unseen", None], size=n).tolist()
            best = rng.integers(0, len(classes), size=n)
            pred = [classes[k] for k in best]
            counts = one_hot_counts(TextClassifier, classes, [text_instance(i, "x", y) for i, y in enumerate(labels)],
                                    best)
            assert counts == {"correct": sum(p == g for p, g in zip(pred, labels)), "total": n}
            assert task_metrics(TaskKind.CLASSIFICATION, counts)["accuracy"] == accuracy(pred, labels)

    def test_tagger_metric_is_span_f1(self):
        rng = np.random.default_rng(6)
        tags = ("B-LOC", "B-PER", "I-LOC", "I-PER", "O")
        counts = rng.integers(1, 8, size=30).tolist()
        gold = [tuple(rng.choice(tags, size=n).tolist()) for n in counts]
        best = rng.integers(0, len(tags), size=sum(counts))
        ends = np.cumsum(counts).tolist()
        pred = [[tags[k] for k in best[a:b]] for a, b in zip([0] + ends, ends)]
        got = one_hot_counts(SequenceTagger, tags, [tagged_instance(i, "w" * n, g) for i, (n, g)
                                                    in enumerate(zip(counts, gold))], best)
        expected = span_f1(pred, [list(g) for g in gold])
        assert got == expected.counts
        assert task_metrics(TaskKind.SEQUENCE_TAGGING, got)["f1"] == expected.f1

    def test_tagger_counter_is_span_f1_on_random_bio(self):
        # I after O, type switches and spans at sentence ends; the fit's
        # vocabulary has a type (MISC) that no gold tag has, and lacks gold
        # tags (I-ORG, and the untyped "B")
        rng = np.random.default_rng(7)
        gold_tags = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "I-ORG", "B"]
        vocab = ("B-LOC", "B-MISC", "B-PER", "I-LOC", "I-MISC", "I-PER", "O")
        for _ in range(300):
            lengths = rng.integers(0, 8, size=int(rng.integers(1, 12))).tolist()
            gold = [rng.choice(gold_tags, size=n).tolist() for n in lengths]
            best = rng.integers(0, len(vocab), size=sum(lengths))
            ends = np.cumsum(lengths).tolist()
            pred = [[vocab[k] for k in best[a:b]] for a, b in zip([0] + ends, ends)]
            instances = [Instance(i, "en", TaggedSentence(("w",) * len(g), tuple(g)), 1) for i, g in enumerate(gold)]
            assert one_hot_counts(SequenceTagger, vocab, instances, best) == span_f1(pred, gold).counts

    def test_parser_counter_is_attachment_scores_on_random_trees(self):
        # gold heads and labels at random, labels the vocabulary lacks, and
        # gold trees without labels; the weights decode a random tree
        rng = np.random.default_rng(8)
        vocab = ("", "dep", "obj", "root")
        for _ in range(100):
            gold, pred, arc_w, label_w = [], [], [], []
            for _ in range(int(rng.integers(1, 6))):
                n = int(rng.integers(1, 6))
                heads = tuple(int(h) for h in rng.integers(0, n + 1, size=n))
                labels = None if rng.random() < 0.3 else tuple(rng.choice(["dep", "obj", "nsubj"], size=n).tolist())
                gold.append(DepTree(("w",) * n, ("X",) * n, heads, labels))
                order = rng.permutation(n) + 1  # each token's head comes before it, ROOT first
                tree = [0] * n
                for k in range(1, n):
                    tree[order[k] - 1] = int(order[rng.integers(0, k)])
                codes = rng.integers(0, len(vocab), size=n)
                pred.append(DepTree(("w",) * n, ("X",) * n, tuple(tree), tuple(vocab[k] for k in codes)))
                # one-hot rows n*n per sentence: arc weight 1 on the tree's arcs
                chosen = np.zeros((n, n))
                chosen[np.arange(n), [h if h < d else h - 1 for d, h in enumerate(tree, 1)]] = 1.0
                arc_w.append(chosen.ravel())
                label_w.append(np.zeros((len(vocab), n, n)))
                label_w[-1][codes, np.arange(n), chosen.argmax(axis=1)] = 1.0
            r = sum(len(t.tokens) ** 2 for t in gold)
            model = DependencyParser(SPACE)
            instances = [Instance(i, "en", t, len(t.tokens)) for i, t in enumerate(gold)]
            one_hot = Rows.stack(np.ones(r, dtype=np.int64), np.arange(r), np.ones(r))
            evaluation = replace(model.evaluation_set(instances), rows=one_hot)
            weights = np.vstack([np.concatenate(arc_w)[None],
                                 np.concatenate([w.reshape(len(vocab), -1) for w in label_w], axis=1)])
            assert model._counter(vocab, evaluation)(weights) == attachment_scores(pred, gold).counts

    @pytest.mark.parametrize("task", list(TaskKind))
    def test_validation_score_is_the_headline_of_the_counts(self, task):
        """`fit` returns the headline metric of the counts `evaluate` gives on
        the validation set with the weights it kept."""
        data = synth_dataset(task, ["aa", "bb"], 40, 5, 0.5, seed=3)
        insts = [i for lang in data.languages for i in data.train[lang]]
        model = build_model(task, SPACE)
        config = TrainingConfig(learning_rates=(0.1, 0.5), batch_size=8, max_epochs=6, patience=3)
        validation = model.evaluation_set(insts[30:60])
        score = model.fit(insts[:30], validation, config)
        counts = model.evaluate(validation)
        assert score == task_metrics(task, counts)[model.headline]
        assert model.headline == {TaskKind.CLASSIFICATION: "accuracy",
                                  TaskKind.SEQUENCE_TAGGING: "f1",
                                  TaskKind.DEPENDENCY_PARSING: "las"}[task]


class TestSequenceTagger:
    def test_fit_and_predict_shapes(self):
        model = SequenceTagger(SPACE)
        model.fit(TAGGED, model.evaluation_set(TAGGED), FAST)
        probas = model.predict_tag_probas(TAGGED[1])
        assert probas.shape == (3, len(model.tags))
        assert np.allclose(probas.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_weights_uniform(self):
        model = zero_model(SequenceTagger, ("B-PER", "O"))
        probas = model.predict_tag_probas(tagged_instance(0, ["x", "y"], ["O", "O"]))
        assert np.allclose(probas, 0.5)

    def test_known_weights_match_hand_softmax(self):
        model = zero_model(SequenceTagger, ("B-PER", "O"))
        model.weights[0, :] = 0.05
        tokens = ("ab",)
        vecs = featurize_tokens(tokens, SPACE)
        total = float(vecs[0][1].sum())
        z0, z1 = 0.05 * total, 0.0
        denom = math.exp(z0) + math.exp(z1)
        expected = [math.exp(z0) / denom, math.exp(z1) / denom]
        probas = model.predict_tag_probas(tagged_instance(0, tokens, ("O",)))
        assert np.allclose(probas[0], expected, atol=1e-12)

    def test_deterministic(self):
        a = SequenceTagger(SPACE)
        b = SequenceTagger(SPACE)
        a.fit(TAGGED, a.evaluation_set(TAGGED), FAST)
        b.fit(TAGGED, b.evaluation_set(TAGGED), FAST)
        assert np.array_equal(a.weights, b.weights)


def _parse_fixture():
    rng = np.random.default_rng(5)
    insts = []
    for i in range(6):
        n = 3
        tokens = tuple(str(rng.choice(["det", "adj", "nounx", "verby"])) + str(i) for _ in range(n))
        heads = (2, 0, 2)
        labels = ("dep", "root", "dep")
        insts.append(tree_instance(i, tokens, ("D", "V", "N"), heads, labels))
    return insts


class TestDependencyParser:
    def test_single_token_points_to_root(self):
        model = zero_model(DependencyParser, ("root",))
        head_probs, _ = model.predict_arc_probas(
            tree_instance(0, ("solo",), ("X",), (0,), ("root",))
        )
        assert head_probs[0, 0] == 1.0
        tree = model.decode_tree(tree_instance(0, ("solo",), ("X",), (0,), ("root",)))
        assert tree.heads == (0,)

    def test_zero_weights_uniform_heads(self):
        model = zero_model(DependencyParser, ("root",))
        inst = tree_instance(0, ("a", "b"), ("X", "Y"), (0, 1), ("root", "dep"))
        head_probs, _ = model.predict_arc_probas(inst)
        assert np.allclose(head_probs[[0, 2], 0], 0.5)
        assert np.allclose(head_probs[[0, 1], 1], 0.5)
        assert head_probs[1, 0] == 0.0  # self-arc forbidden

    def test_probability_columns_normalized(self):
        rng = np.random.default_rng(9)
        model = zero_model(DependencyParser, ("a", "b"))
        model.weights[0] = rng.normal(0, 0.3, SPACE.hash_dimension)
        inst = tree_instance(0, ("x", "yy", "zzz"), ("A", "B", "C"), (0, 1, 2), ("a", "b", "a"))
        head_probs, label_probs = model.predict_arc_probas(inst)
        assert np.allclose(head_probs.sum(axis=0), 1.0, atol=1e-9)
        sums = label_probs.sum(axis=2)
        for d in range(3):
            for h in range(4):
                if head_probs[h, d] > 0:
                    assert abs(sums[h, d] - 1.0) < 1e-9

    def test_known_weights_match_hand_softmax(self):
        rng = np.random.default_rng(21)
        model = zero_model(DependencyParser, ("a",))
        model.weights[0] = rng.normal(0, 0.4, SPACE.hash_dimension)
        inst = tree_instance(0, ("foo", "bar"), ("N", "V"), (0, 1), ("a", "a"))
        zs = []
        for h in (0, 2):  # candidates for dependent 1
            idx, vals = featurize_arc(("foo", "bar"), ("N", "V"), h, 1, SPACE)
            zs.append(sum(model.weights[0, int(i)] * float(v) for i, v in zip(idx, vals)))
        denom = math.exp(zs[0]) + math.exp(zs[1])
        expected = [math.exp(z) / denom for z in zs]
        head_probs, _ = model.predict_arc_probas(inst)
        assert np.allclose([head_probs[0, 0], head_probs[2, 0]], expected, atol=1e-10)

    def test_decode_beats_gold_score(self):
        insts = _parse_fixture()
        model = DependencyParser(SPACE)
        model.fit(insts, model.evaluation_set(insts), FAST)
        for inst in insts:
            head_probs, _ = model.predict_arc_probas(inst)
            decoded = model.decode_tree(inst)
            decoded_score = tree_log_prob(head_probs, Arborescence(decoded.heads))
            gold_score = tree_log_prob(head_probs, Arborescence(inst.payload.heads))
            assert decoded_score >= gold_score - 1e-12

    def test_decode_matches_enumeration(self):
        rng = np.random.default_rng(33)
        model = zero_model(DependencyParser, ("a",))
        model.weights[0] = rng.normal(0, 0.5, SPACE.hash_dimension)
        inst = tree_instance(0, ("uno", "dos", "tres"), ("A", "B", "C"), (0, 1, 1), ("a", "a", "a"))
        head_probs, _ = model.predict_arc_probas(inst)
        with np.errstate(divide="ignore"):
            logp = np.log(head_probs)
        logp[~np.isfinite(logp)] = -1e30
        _, expected_heads = best_tree(logp, 3)
        assert model.decode_tree(inst).heads == expected_heads

    def test_fit_improves_and_is_deterministic(self):
        insts = _parse_fixture()
        a = DependencyParser(SPACE)
        b = DependencyParser(SPACE)
        score_a = a.fit(insts, a.evaluation_set(insts), FAST)
        score_b = b.fit(insts, b.evaluation_set(insts), FAST)
        assert score_a == score_b
        assert np.array_equal(a.weights[0], b.weights[0])
        assert np.array_equal(a.weights[1:], b.weights[1:])
        assert score_a == 1.0  # tiny treebank with one template is learnable
        # a sentence without heads, or with heads but no labels, is not trained on
        tokens, upos = ("lone", "word"), ("D", "V")
        unannotated = [Instance(90, "en", DepTree(tokens, upos), 2),
                       Instance(91, "en", DepTree(tokens, upos, None, ("dep", "root")), 2),
                       Instance(92, "en", DepTree(tokens, upos, (2, 0), None), 2)]
        c = DependencyParser(SPACE)
        assert c.fit(insts[:3] + unannotated + insts[3:], c.evaluation_set(insts), FAST) == score_a
        assert c.labels == a.labels and np.array_equal(c.weights, a.weights)


class TestBuildModel:
    @pytest.mark.parametrize(
        "cls, rows", [(TextClassifier, 2), (SequenceTagger, 2), (DependencyParser, 3)]
    )
    def test_zero_weights_shape(self, cls, rows):
        # the parser's arc scorer is row 0, ahead of one row per label
        model = zero_model(cls, ("a", "b"))
        assert model.weights.shape == (rows, SPACE.hash_dimension)
        assert not model.weights.any()

    def test_dispatch(self):
        assert isinstance(build_model(TaskKind.CLASSIFICATION, SPACE), TextClassifier)
        assert isinstance(build_model(TaskKind.SEQUENCE_TAGGING, SPACE), SequenceTagger)
        assert isinstance(build_model(TaskKind.DEPENDENCY_PARSING, SPACE), DependencyParser)


def _unseen(inst, iid):
    """`inst` again under id `iid`, with gold labels that no fit has in its vocabulary."""
    payload = inst.payload
    if isinstance(payload, ClassificationText):
        payload = replace(payload, label="unseen")
    elif isinstance(payload, TaggedSentence):
        payload = replace(payload, tags=("B-UNSEEN",) * len(payload.tokens))
    else:
        payload = replace(payload, labels=("unseen",) * len(payload.tokens))
    return replace(inst, id=iid, payload=payload)


class TestEvaluationSet:
    """An `EvalSet` counts as the per-instance predictions do, compared one at a time."""

    CONFIG = TrainingConfig(learning_rates=(0.1, 0.5), batch_size=8, max_epochs=6, patience=3)

    @staticmethod
    def _fitted(task, validation=None):
        data = synth_dataset(task, ["aa", "bb"], 40, 12, 0.5, seed=4)
        insts = [i for lang in data.languages for i in data.train[lang]]
        model = build_model(task, SPACE)
        validation = validation or (lambda model, val: model.evaluation_set(val))
        score = model.fit(insts[:30], validation(model, insts[30:60]), TestEvaluationSet.CONFIG)
        return model, score, insts, [i for lang in data.languages for i in data.test[lang]]

    @staticmethod
    def _predictions(model, instances):
        predict = {TaskKind.CLASSIFICATION: "predict", TaskKind.SEQUENCE_TAGGING: "predict_tags",
                   TaskKind.DEPENDENCY_PARSING: "decode_tree"}[model.task]
        return [getattr(model, predict)(i) for i in instances]

    @pytest.mark.parametrize("task", list(TaskKind))
    def test_counts_equal_instance_loop(self, task):
        model, _, _, tests = self._fitted(task)
        tests = tests + [_unseen(tests[0], 10**6)]
        if task is TaskKind.CLASSIFICATION:
            tests.append(text_instance(10**6 + 1, tests[1].payload.text))
        expected = instance_loop_counts(task.value, self._predictions(model, tests), [i.payload for i in tests])
        assert model.evaluate(model.evaluation_set(tests)) == expected
        # an evaluation set serves any fit of the task and space, not only the model that made it
        assert model.evaluate(build_model(task, SPACE).evaluation_set(tests)) == expected

    @pytest.mark.parametrize("task, expected", [
        (TaskKind.CLASSIFICATION, {"correct": 0, "total": 0}),
        (TaskKind.SEQUENCE_TAGGING, {"tp": 0, "pred_spans": 0, "gold_spans": 0}),
    ])
    def test_empty_set_counts_nothing(self, task, expected):
        model = self._fitted(task)[0]
        assert model.evaluate(model.evaluation_set([])) == expected

    def test_tagger_rejects_an_unannotated_sentence(self):
        model, _, _, tests = self._fitted(TaskKind.SEQUENCE_TAGGING)
        unannotated = replace(tests[0], payload=replace(tests[0].payload, tags=None))
        with pytest.raises(EvaluationError, match="^sentence 1 lacks tag annotations$"):
            model.evaluate(model.evaluation_set([tests[1], unannotated]))

    def test_parser_rejects_an_empty_or_unannotated_set(self):
        model, _, _, tests = self._fitted(TaskKind.DEPENDENCY_PARSING)
        unannotated = replace(tests[0], payload=replace(tests[0].payload, heads=None, labels=None))
        for instances in ([], [tests[1], unannotated]):
            with pytest.raises(EvaluationError):
                model.evaluate(model.evaluation_set(instances))

    # the validation scores each learning rate reached, and the epochs it ran,
    # when validation counted one instance's prediction at a time
    PINNED = {
        TaskKind.CLASSIFICATION: ({0.1: 0.8333333333333334, 0.5: 0.9333333333333333}, {0.1: 4, 0.5: 4}),
        TaskKind.SEQUENCE_TAGGING: ({0.1: 0.17391304347826086, 0.5: 0.4}, {0.1: 6, 0.5: 6}),
        TaskKind.DEPENDENCY_PARSING: ({0.1: 1.0, 0.5: 1.0}, {0.1: 4, 0.5: 4}),
    }

    @pytest.mark.parametrize("task", list(TaskKind))
    def test_fit_validates_on_the_set_as_on_instances(self, task):
        a, score, insts, _ = self._fitted(task)
        b, same, _, _ = self._fitted(task, lambda model, val: build_model(task, SPACE).evaluation_set(val))
        assert (a.fit_info.validation, a.fit_info.epochs_run) == self.PINNED[task]
        assert same == score and b.fit_info == a.fit_info and np.array_equal(b.weights, a.weights)
        val = insts[30:60]
        counts = instance_loop_counts(task.value, self._predictions(a, val), [i.payload for i in val])
        assert score == task_metrics(task, counts)[a.headline]
