"""The batched softmax layer behind all three models, and the one featurization of a run's corpus."""

from collections import Counter

import numpy as np
import pytest

import lingalloc.models as models
from lingalloc.acquisition import StrategyKind, lc_score, mnlp_score, nlpdt_score
from lingalloc.corpus import ClassificationText, DepTree, Instance
from lingalloc.experiment import (
    BudgetSpec,
    Setting,
    SettingFamily,
    _score_pool,
    allocate,
    featurize,
    run_arms,
    run_rounds,
)
from lingalloc.graph import Arborescence
from lingalloc.models import (
    DependencyParser,
    FeatureSpace,
    SequenceTagger,
    TextClassifier,
    TrainingConfig,
    class_objective,
    parser_objective,
)
from lingalloc.synth import synth_classification, synth_parsing, synth_tagging
from lingalloc.tasks import BudgetUnit, accuracy, attachment_scores, span_f1, task_metrics

from oracles import example_loop_class_objective, example_loop_parser_objective

SPACE = FeatureSpace(hash_dimension=1024, ngram_min=2, ngram_max=4)
FAST = TrainingConfig(learning_rates=(0.5,), batch_size=8, max_epochs=4, patience=4, rng_seed=0)


def _sparse_vector(rng, dim):
    """Sorted distinct indices with small integer counts, as hashing produces."""
    k = int(rng.integers(0, 40))
    idx = np.sort(rng.choice(dim, size=k, replace=False)).astype(np.int64)
    return idx, rng.integers(1, 4, size=k).astype(np.float64)


class TestBatchedGradients:
    """The batched layer against the one-example-at-a-time loop of `oracles`."""

    DIM = 64  # small, so that examples of a batch share features

    def test_class_objective_matches_example_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            classes = int(rng.integers(1, 12))
            examples = [
                (_sparse_vector(rng, self.DIM), int(rng.integers(0, classes)))
                for _ in range(int(rng.integers(1, 40)))
            ]
            weights = rng.normal(0, 1.0, size=(classes, self.DIM))
            value, grad = class_objective(weights, examples, l2=0.0)
            expected_value, expected_grad = example_loop_class_objective(weights, examples)
            assert np.array_equal(grad, expected_grad)
            assert abs(value - expected_value) <= 1e-12 * max(1.0, abs(expected_value))

    def test_parser_objective_matches_example_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            labels = int(rng.integers(1, 6))
            sentences = []
            for _ in range(int(rng.integers(1, 5))):
                arc_groups, label_examples = [], []
                for _ in range(int(rng.integers(1, 6))):
                    cands = [_sparse_vector(rng, self.DIM) for _ in range(int(rng.integers(1, 12)))]
                    gold = int(rng.integers(0, len(cands)))
                    arc_groups.append((cands, gold))
                    label_examples.append((cands[gold], int(rng.integers(0, labels))))
                sentences.append((arc_groups, label_examples))
            arc_w = rng.normal(0, 1.0, size=self.DIM)
            label_w = rng.normal(0, 1.0, size=(labels, self.DIM))
            value, g_arc, g_label = parser_objective(arc_w, label_w, sentences, l2=0.0)
            expected = example_loop_parser_objective(arc_w, label_w, sentences)
            assert np.array_equal(g_arc, expected[1])
            assert np.array_equal(g_label, expected[2])
            assert abs(value - expected[0]) <= 1e-12 * max(1.0, abs(expected[0]))


def _classification_run():
    data = synth_classification(["aa", "bb"], 60, 15, 0.5, seed=2)
    spec = BudgetSpec(20, 12, 10, rounds=3, unit=BudgetUnit.INSTANCE)
    return data, Setting(SettingFamily.SMA, StrategyKind.LC), spec


def _tagging_run():
    data = synth_tagging(["aa", "bb"], 30, 8, 0.5, seed=3)
    spec = BudgetSpec(60, 40, 40, rounds=3, unit=BudgetUnit.TOKEN)
    return data, Setting(SettingFamily.MMA, StrategyKind.MNLP), spec


def _parsing_run():
    data = synth_parsing(["aa", "bb"], 20, 6, 0.5, seed=3)
    spec = BudgetSpec(40, 30, 30, rounds=3, unit=BudgetUnit.TOKEN)
    return data, Setting(SettingFamily.SMA, StrategyKind.NLPDT_GLOBAL), spec


def _content_rows(payload):
    """(content, feature rows): a text has one row, a tagged sentence one per
    token, a parse tree one per candidate arc."""
    if isinstance(payload, ClassificationText):
        return payload.text, 1
    n = len(payload.tokens)
    if isinstance(payload, DepTree):
        return (payload.tokens, payload.upos), n * n
    return payload.tokens, n


@pytest.mark.parametrize("make_run", [_classification_run, _tagging_run, _parsing_run])
def test_run_rounds_featurizes_each_instance_once(monkeypatch, make_run):
    data, setting, spec = make_run()
    calls = Counter()
    original = models.featurize_batch

    def counting(kind, contents, space):
        features = original(kind, contents, space)
        rows = [(content, row) for content in contents for row in range(models._FEATURIZERS[kind][1](content))]
        assert len(rows) == len(features[0])
        calls.update(rows)
        return features

    monkeypatch.setattr(models, "featurize_batch", counting)
    plan = allocate(setting, spec, data.languages)
    run_rounds(plan, data, FAST, SPACE, rng_seed=4)
    # one hash per row (text, token window or candidate arc) of each training and test instance
    each_once = Counter(
        (content, row)
        for part in (data.train, data.test)
        for lang in data.languages
        for content, rows in (_content_rows(i.payload) for i in part[lang])
        for row in range(rows)
    )
    assert calls == each_once
    calls.clear()
    corpus = featurize(data, SPACE)
    assert calls == each_once
    calls.clear()
    # runs on a featurized corpus hash nothing; a second `run_rounds` featurizes its data again
    run_arms(plan, corpus, FAST, 5, (True, False))[0]
    run_arms(plan, corpus, FAST, 6, (True,))[0]
    assert not calls
    run_rounds(plan, data, FAST, SPACE, rng_seed=5)
    assert calls == each_once


class TestBatchedPrediction:
    """Whole-set predictions and pool scores equal their one-instance
    counterparts, and `evaluate` counts what the metrics count over the
    one-instance predictions. The pool is scored in passes: a row budget of
    40 cuts it into many and leaves some parse trees with more rows than
    that in passes of their own."""

    @staticmethod
    def _fitted(model, data, n_train, n_validation):
        insts = [i for lang in data.languages for i in data.train[lang]]
        train, validation = insts[:n_train], insts[n_train : n_train + n_validation]
        model.fit(model.evaluation_set(train), model.evaluation_set(validation), FAST)
        model.chunk = 40
        return insts

    @staticmethod
    def _pool_scores(model, data, strategy):
        """The pool scores of every training instance, and those instances in pool order."""
        pool = [i for lang in data.languages for i in data.train[lang]]
        corpus = featurize(data, SPACE)
        positions = corpus.locate(pool[::-1])
        ordered = [corpus.members[k] for k in positions.tolist()]
        assert ordered == sorted(pool, key=lambda i: i.id)
        return _score_pool(model, corpus, positions, strategy, None), ordered

    def test_classifier(self):
        data = synth_classification(["aa", "bb"], 160, 10, 0.5, seed=1)
        model = TextClassifier(SPACE)
        insts = self._fitted(model, data, 60, 30)
        batch = model.predict_proba_batch(model.evaluation_set(insts))
        assert batch.shape == (len(insts), len(model.classes))
        for inst, probas in zip(insts, batch, strict=True):
            assert np.array_equal(probas, model.predict_proba(inst))
        scores, ordered = self._pool_scores(model, data, StrategyKind.LC)
        assert scores.tolist() == [lc_score(model.predict_proba(i)) for i in ordered]
        pred, gold = [model.predict(i) for i in insts], [i.payload.label for i in insts]
        counts = model.evaluate(model.evaluation_set(insts))
        assert counts == {"correct": sum(p == g for p, g in zip(pred, gold)), "total": len(insts)}
        assert task_metrics(model.task, counts)["accuracy"] == accuracy(pred, gold)

    def test_tagger(self):
        data = synth_tagging(["aa", "bb"], 50, 10, 0.5, seed=1)
        model = SequenceTagger(SPACE)
        insts = self._fitted(model, data, 30, 15)
        held = model.evaluation_set(insts)
        probas, counts = model.predict_proba_batch(held), held.sizes[:, 1].tolist()
        assert counts == [len(i.payload.tokens) for i in insts]
        assert probas.shape == (sum(counts), len(model.tags))
        for inst, rows in zip(insts, np.split(probas, np.cumsum(counts)[:-1]), strict=True):
            assert np.array_equal(rows, model.predict_tag_probas(inst))
        scores, ordered = self._pool_scores(model, data, StrategyKind.MNLP)
        assert scores.tolist() == [mnlp_score(model.predict_tag_probas(i)) for i in ordered]
        gold = [list(i.payload.tags) for i in insts]
        expected = span_f1([model.predict_tags(i) for i in insts], gold).counts
        assert model.evaluate(model.evaluation_set(insts)) == expected

    def test_parser(self):
        data = synth_parsing(["aa", "bb"], 15, 5, 0.5, seed=1)
        model = DependencyParser(SPACE)
        insts = self._fitted(model, data, 12, 6)
        assert max(len(i.payload.tokens) ** 2 for i in insts) > model.chunk
        trees = [model.decode_tree(i) for i in insts]
        assert model.decode_tree_batch(model.evaluation_set(insts)) == trees
        expected = attachment_scores(trees, [i.payload for i in insts]).counts
        assert model.evaluate(model.evaluation_set(insts)) == expected
        for inst, log_probs in zip(insts, model.head_log_probs_batch(model.evaluation_set(insts)), strict=True):
            head_probs, _ = model.predict_arc_probas(inst)
            assert np.array_equal(np.exp(log_probs), head_probs)
        scores, ordered = self._pool_scores(model, data, StrategyKind.NLPDT)
        assert scores.tolist() == [
            nlpdt_score(model.predict_arc_probas(i)[0], Arborescence(model.decode_tree(i).heads),
                        len(i.payload.tokens), StrategyKind.NLPDT)
            for i in ordered
        ]

    def test_empty_input(self):
        data = synth_tagging(["aa"], 30, 5, 0.5, seed=2)
        model = SequenceTagger(SPACE)
        model.fit(model.evaluation_set(data.train["aa"][:15]), model.evaluation_set(data.train["aa"][15:]), FAST)
        held = model.evaluation_set([])
        probas, counts = model.predict_proba_batch(held), held.sizes[:, 1].tolist()
        assert probas.shape == (0, len(model.tags)) and counts == []
        assert model.evaluate(model.evaluation_set([])) == {"tp": 0, "pred_spans": 0, "gold_spans": 0}
        data = synth_classification(["aa"], 30, 5, 0.5, seed=2)
        model = TextClassifier(SPACE)
        model.fit(model.evaluation_set(data.train["aa"][:15]), model.evaluation_set(data.train["aa"][15:]), FAST)
        assert model.predict_proba_batch(model.evaluation_set([])).shape == (0, len(model.classes))
        assert model.evaluate(model.evaluation_set([])) == {"correct": 0, "total": 0}


def test_fit_info_records_the_learning_rate_search():
    insts = [
        Instance(i, "aa", ClassificationText(f"{word} {i}", label), 1)
        for i, (word, label) in enumerate([("good fine", "pos"), ("bad awful", "neg")] * 10)
    ]
    config = TrainingConfig(learning_rates=(0.5, 0.001), batch_size=4, max_epochs=12, patience=3)
    model = TextClassifier(SPACE)
    assert model.fit_info is None
    score = model.fit(model.evaluation_set(insts), model.evaluation_set(insts), config)
    info = model.fit_info
    assert sorted(info.validation) == [0.001, 0.5] == sorted(info.epochs_run)
    assert info.learning_rate in info.validation
    assert score == info.validation[info.learning_rate] == max(info.validation.values())
    assert all(config.patience <= e <= config.max_epochs for e in info.epochs_run.values())
