import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lingalloc.acquisition import (
    AcquisitionScore,
    StrategyKind,
    lc_score,
    lc_scores,
    mnlp_score,
    mnlp_scores,
    nlpdt_score,
    random_scores,
    select_batch,
    select_ranked,
    strategy_compatible,
)
from lingalloc.errors import DataError, ScoringError
from lingalloc.graph import Arborescence
from lingalloc.tasks import TaskKind

from oracles import all_single_root_trees, first_fit_selection, logsumexp_over_trees, tree_total


class TestStrategyCompatibility:
    def test_random_fits_all(self):
        for task in TaskKind:
            assert strategy_compatible(StrategyKind.RANDOM, task)

    def test_task_specific(self):
        assert strategy_compatible(StrategyKind.LC, TaskKind.CLASSIFICATION)
        assert not strategy_compatible(StrategyKind.LC, TaskKind.SEQUENCE_TAGGING)
        assert strategy_compatible(StrategyKind.MNLP, TaskKind.SEQUENCE_TAGGING)
        assert strategy_compatible(StrategyKind.NLPDT, TaskKind.DEPENDENCY_PARSING)


class TestLcScore:
    def test_uniform_binary(self):
        assert lc_score([0.5, 0.5]) == 0.5

    def test_confident(self):
        assert lc_score([0.9, 0.1]) == pytest.approx(0.9)

    def test_ranking_ascending(self):
        pool = {"a": [0.6, 0.4], "b": [0.51, 0.49], "c": [0.99, 0.01]}
        ranked = sorted(pool, key=lambda k: lc_score(pool[k]))
        assert ranked == ["b", "a", "c"]

    def test_rejects_unnormalized(self):
        with pytest.raises(ScoringError):
            lc_score([0.9, 0.9])


class TestMnlpScore:
    def test_perfect_confidence(self):
        assert mnlp_score([[1.0, 0.0], [0.0, 1.0]]) == 0.0

    def test_two_tokens_half(self):
        got = mnlp_score([[0.5, 0.5], [0.5, 0.5]])
        assert got == pytest.approx(math.log(0.5), abs=1e-12)

    def test_length_invariant_at_constant_confidence(self):
        short = mnlp_score([[0.8, 0.2]] * 3)
        long = mnlp_score([[0.8, 0.2]] * 7)
        assert short == pytest.approx(long, abs=1e-12)

    def test_empty_sentence(self):
        with pytest.raises(ScoringError):
            mnlp_score(np.empty((0, 2)))


def _random_arc_probas(rng, n):
    raw = rng.uniform(0.05, 1.0, size=(n + 1, n))
    for d in range(1, n + 1):
        raw[d, d - 1] = 0.0
    return raw / raw.sum(axis=0, keepdims=True)


class TestNlpdtScore:
    def test_single_token_all_variants(self):
        probas = np.array([[1.0], [0.0]])
        tree = Arborescence((0,))
        for variant in (StrategyKind.NLPDT, StrategyKind.NLPDT_N2, StrategyKind.NLPDT_GLOBAL):
            assert nlpdt_score(probas, tree, 1, variant) == 0.0

    @pytest.mark.parametrize("variant", [StrategyKind.NLPDT, StrategyKind.NLPDT_N2,
                                         StrategyKind.NLPDT_GLOBAL])
    @pytest.mark.parametrize("n_tokens", [0, -1])
    def test_rejects_fewer_than_one_token(self, variant, n_tokens):
        probas = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ScoringError):
            nlpdt_score(probas, Arborescence((0, 1)), n_tokens, variant)

    @pytest.mark.parametrize("variant", [StrategyKind.NLPDT, StrategyKind.NLPDT_N2,
                                         StrategyKind.NLPDT_GLOBAL])
    @pytest.mark.parametrize("n_tokens", [1, 3])
    def test_rejects_a_token_count_other_than_the_trees(self, variant, n_tokens):
        probas = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ScoringError, match=f"^the tree has 2 tokens, got n_tokens={n_tokens}$"):
            nlpdt_score(probas, Arborescence((0, 1)), n_tokens, variant)

    @pytest.mark.parametrize("variant", [StrategyKind.NLPDT, StrategyKind.NLPDT_N2,
                                         StrategyKind.NLPDT_GLOBAL])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("arc", [(0, 0), (2, 0)], ids=["tree_arc", "other_arc"])
    def test_rejects_nan_or_inf_under_every_variant(self, variant, bad, arc):
        probas = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
        probas[arc] = bad
        with pytest.raises(DataError, match="must not be NaN or \\+inf"):
            nlpdt_score(probas, Arborescence((0, 1)), 2, variant)

    def test_two_token_normalizations(self):
        probas = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
        tree = Arborescence((0, 1))
        plain = nlpdt_score(probas, tree, 2, StrategyKind.NLPDT)
        squared = nlpdt_score(probas, tree, 2, StrategyKind.NLPDT_N2)
        assert plain == pytest.approx(math.log(0.5), abs=1e-12)
        assert squared == pytest.approx(math.log(0.5) / 2, abs=1e-12)

    def test_global_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            probas = _random_arc_probas(rng, n)
            with np.errstate(divide="ignore"):
                log_scores = np.log(probas)
            trees = all_single_root_trees(n)
            heads = trees[int(rng.integers(0, len(trees)))]
            expected = tree_total(log_scores, heads) - logsumexp_over_trees(log_scores, n)
            got = nlpdt_score(probas, Arborescence(heads), n, StrategyKind.NLPDT_GLOBAL)
            assert got == pytest.approx(expected, abs=1e-9)
            assert got <= 1e-12

    def test_equal_length_rank_agreement(self):
        rng = np.random.default_rng(31)
        n = 3
        trees = all_single_root_trees(n)
        items = []
        for _ in range(50):
            probas = _random_arc_probas(rng, n)
            heads = trees[int(rng.integers(0, len(trees)))]
            items.append((probas, Arborescence(heads)))
        plain = [nlpdt_score(p, t, n, StrategyKind.NLPDT) for p, t in items]
        squared = [nlpdt_score(p, t, n, StrategyKind.NLPDT_N2) for p, t in items]
        assert np.argsort(plain, kind="stable").tolist() == np.argsort(
            squared, kind="stable"
        ).tolist()


class TestRandomScores:
    def test_reproducible(self):
        ids = [5, 1, 9]
        a = random_scores(ids, np.random.default_rng(42))
        b = random_scores(ids, np.random.default_rng(42))
        assert a == b

    def test_id_order_not_input_order(self):
        a = random_scores([1, 5, 9], np.random.default_rng(42))
        b = random_scores([9, 5, 1], np.random.default_rng(42))
        assert a == b

    def test_rounds_differ(self):
        ids = list(range(20))
        r1 = random_scores(ids, np.random.default_rng(1))
        r2 = random_scores(ids, np.random.default_rng(2))
        assert r1 != r2

    def test_range(self):
        scores = random_scores(range(100), np.random.default_rng(0))
        assert all(0.0 <= v < 1.0 for v in scores.values())


class TestArrayScores:
    """The whole-array scorers against their one-row forms, bit for bit."""

    @pytest.mark.parametrize("classes", [1, 2, 3, 7])
    def test_lc_scores_equal_one_row_scores(self, classes):
        raw = np.random.default_rng(classes).random((500, classes))
        dist = raw / raw.sum(axis=1, keepdims=True)
        got = lc_scores(dist)
        assert got.dtype == np.float64
        assert got.tolist() == [lc_score(p) for p in dist]

    @pytest.mark.parametrize(
        "row", [[1.2, -0.2], [0.5, 0.5 + 2e-6], [0.6, 0.3], [-0.0 - 1e-300, 1.0]]
    )
    def test_lc_rejects_a_bad_row(self, row):
        dist = np.full((50, 2), 0.5)
        dist[17] = row
        with pytest.raises(ScoringError, match="non-negative and sum to 1") as many:
            lc_scores(dist)
        with pytest.raises(ScoringError) as one:
            lc_score(row)
        assert str(many.value) == str(one.value)

    def test_lc_tolerance_and_shapes(self):
        near = [[0.5, 0.5 + 5e-7]] * 3
        assert lc_scores(near).tolist() == [lc_score(p) for p in near]
        assert lc_scores(np.zeros((0, 3))).shape == (0,)
        for bad in ([], [[]], 0.5, [[[1.0]]]):
            with pytest.raises(ScoringError):
                lc_score(bad)

    def test_mnlp_scores_equal_one_sentence_scores(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 12, size=200).tolist()
        probas = rng.random((sum(counts), 4))
        probas /= probas.sum(axis=1, keepdims=True)
        probas[5] = [0.0, 0.0, 0.0, 0.0]  # a zero-confidence token gives -inf
        ends = np.cumsum(counts).tolist()
        expected = [mnlp_score(probas[a:b]) for a, b in zip([0] + ends, ends)]
        assert mnlp_scores(probas, counts) == expected
        assert expected[0] == float("-inf")
        assert mnlp_scores(np.zeros((0, 4)), []) == []

    @pytest.mark.parametrize("counts", [[2, 0, 2], [2, 1], [3, 2]])
    def test_mnlp_rejects_empty_or_miscounted_sentences(self, counts):
        with pytest.raises(ScoringError):
            mnlp_scores(np.full((4, 2), 0.5), counts)

    def test_random_scores_equal_scalar_draws(self):
        ids = np.random.default_rng(0).permutation(10_001).tolist()
        vectorized, scalar = np.random.default_rng(11), np.random.default_rng(11)
        got = random_scores(ids, vectorized)
        assert list(got) == sorted(ids)
        assert got == {iid: scalar.random() for iid in sorted(ids)}
        assert vectorized.random() == scalar.random()


def _scores(spec):
    """spec: list of (id, score, cost)."""
    return [AcquisitionScore(iid, score, "en", cost) for iid, score, cost in spec]


class TestSelectBatch:
    def test_unit_costs(self):
        scores = _scores([(i, s, 1) for i, s in enumerate([0.9, 0.1, 0.5, 0.3, 0.7])])
        selected, spent = select_batch(scores, 3)
        assert selected == [1, 3, 2]
        assert spent == 3

    def test_skip_and_continue(self):
        scores = _scores([(0, 0.1, 10), (1, 0.2, 20), (2, 0.3, 10)])
        selected, spent = select_batch(scores, 15)
        assert selected == [0]
        assert spent == 10

    def test_skip_then_take_smaller(self):
        scores = _scores([(0, 0.1, 10), (1, 0.2, 20), (2, 0.3, 4)])
        selected, spent = select_batch(scores, 15)
        assert selected == [0, 2]
        assert spent == 14

    def test_tie_broken_by_id(self):
        scores = _scores([(3, 0.5, 1), (1, 0.5, 1), (2, 0.5, 1)])
        selected, _ = select_batch(scores, 2)
        assert selected == [1, 2]

    def test_empty_scores(self):
        assert select_batch([], 10) == ([], 0)

    def test_neg_inf_goes_first(self):
        scores = _scores([(0, 0.0, 1), (1, float("-inf"), 1)])
        selected, _ = select_batch(scores, 1)
        assert selected == [1]


@st.composite
def score_pools(draw, max_cost=9):
    n = draw(st.integers(1, 30))
    ids = draw(st.permutations(list(range(n))))
    entries = []
    for iid in ids:
        score = draw(st.floats(-100, 100, allow_nan=False))
        cost = draw(st.integers(1, max_cost))
        entries.append(AcquisitionScore(iid, score, "en", cost))
    return entries


class TestSelectionProperties:
    @settings(max_examples=200, deadline=None)
    @given(score_pools(), st.integers(1, 60))
    def test_budget_safety(self, pool, budget):
        _, spent = select_batch(pool, budget)
        assert spent <= budget

    @settings(max_examples=200, deadline=None)
    @given(score_pools(), st.integers(1, 60))
    def test_deterministic(self, pool, budget):
        assert select_batch(pool, budget) == select_batch(list(reversed(pool)), budget)

    @settings(max_examples=200, deadline=None)
    @given(score_pools(max_cost=1), st.integers(1, 40), st.integers(0, 20))
    def test_monotone_under_unit_costs(self, pool, budget, extra):
        small, _ = select_batch(pool, budget)
        large, _ = select_batch(pool, budget + extra)
        assert set(small) <= set(large)

    @settings(max_examples=200, deadline=None)
    @given(score_pools(), st.integers(1, 60), st.integers(1, 60))
    def test_no_duplicates_across_rounds(self, pool, budget1, budget2):
        first, _ = select_batch(pool, budget1)
        remaining = [s for s in pool if s.instance_id not in set(first)]
        second, _ = select_batch(remaining, budget2)
        assert not set(first) & set(second)

    @settings(max_examples=200, deadline=None)
    @given(score_pools())
    def test_spend_matches_selection(self, pool):
        selected, spent = select_batch(pool, 25)
        by_id = {s.instance_id: s.cost for s in pool}
        assert spent == sum(by_id[i] for i in selected)


@st.composite
def array_pools(draw):
    """(ids, scores, costs) of a pool: distinct ids in any order, scores with
    repeats and -inf among them, and unit costs or 1-8 tokens."""
    ids = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=40))
    score = st.sampled_from([float("-inf"), -1.0, 0.0, 0.25, 0.5]) | st.floats(-10, 10)
    scores = draw(st.lists(score, min_size=len(ids), max_size=len(ids)))
    max_cost = draw(st.sampled_from([1, 8]))
    costs = draw(st.lists(st.integers(1, max_cost), min_size=len(ids), max_size=len(ids)))
    return ids, scores, costs


class TestSelectRanked:
    @settings(max_examples=300, deadline=None)
    @given(array_pools(), st.integers(1, 80))
    def test_equals_first_fit_over_the_ranking(self, pool, budget):
        ids, scores, costs = pool
        expected = first_fit_selection(list(zip(ids, scores, costs)), budget)
        chosen, spent = select_ranked(np.array(ids, dtype=np.int64), np.array(scores, dtype=np.float64),
                                      np.array(costs, dtype=np.int64), budget)
        assert (np.array(ids, dtype=np.int64)[chosen].tolist(), spent) == expected
        assert type(spent) is int
        assert select_batch(_scores(zip(ids, scores, costs)), budget) == expected

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nan_and_inf_raise_naming_the_instance(self, bad):
        with pytest.raises(ScoringError, match="instance 7: score must be finite or -inf"):
            select_ranked(np.array([3, 7, 5]), np.array([0.5, bad, float("-inf")]), np.ones(3, dtype=np.int64), 2)

    def test_budget_must_be_positive(self):
        with pytest.raises(ScoringError, match="budget must be positive"):
            select_ranked(np.array([1]), np.array([0.5]), np.array([1]), 0)
