import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingalloc.corpus import DepTree
from lingalloc.errors import EvaluationError
from lingalloc.tasks import (
    BudgetUnit,
    MetricReport,
    TaskKind,
    accuracy,
    attachment_scores,
    bio_spans,
    span_f1,
)


class TestTaskKind:
    def test_budget_units(self):
        assert TaskKind.CLASSIFICATION.budget_unit is BudgetUnit.INSTANCE
        assert TaskKind.SEQUENCE_TAGGING.budget_unit is BudgetUnit.TOKEN
        assert TaskKind.DEPENDENCY_PARSING.budget_unit is BudgetUnit.TOKEN


class TestAccuracy:
    def test_identity(self):
        assert accuracy(["pos", "neg"], ["pos", "neg"]) == 1.0

    def test_all_wrong(self):
        assert accuracy(["pos", "neg"], ["neg", "pos"]) == 0.0

    def test_three_of_four(self):
        assert accuracy(["a", "a", "a", "a"], ["a", "a", "a", "b"]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            accuracy(["a"], ["a", "b"])

    def test_empty(self):
        with pytest.raises(EvaluationError):
            accuracy([], [])


class TestBioSpans:
    def test_simple(self):
        assert bio_spans(["B-PER", "I-PER", "O", "B-LOC"]) == [("PER", 0, 2), ("LOC", 3, 4)]

    def test_repair_leading_inside(self):
        assert bio_spans(["O", "I-PER", "I-PER"]) == [("PER", 1, 3)]

    def test_repair_type_switch(self):
        assert bio_spans(["B-PER", "I-LOC"]) == [("PER", 0, 1), ("LOC", 1, 2)]

    def test_adjacent_b_tags(self):
        assert bio_spans(["B-PER", "B-PER"]) == [("PER", 0, 1), ("PER", 1, 2)]

    @given(
        st.lists(
            st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]), max_size=12
        )
    )
    def test_repair_never_loses_spans(self, tags):
        # every non-O token lies in exactly one span, and spans are ordered
        covered = [i for _, start, end in bio_spans(tags) for i in range(start, end)]
        assert covered == [i for i, tag in enumerate(tags) if tag != "O"]


class TestSpanF1:
    def test_identity(self):
        tags = [["B-PER", "I-PER", "O", "B-LOC"]]
        assert span_f1(tags, tags)[:3] == (1.0, 1.0, 1.0)

    def test_half_recall(self):
        gold = [["B-PER", "O", "B-LOC"]]
        pred = [["B-PER", "O", "O"]]
        precision, recall, f1, *_ = span_f1(pred, gold)
        assert (precision, recall) == (1.0, 0.5)
        assert f1 == 2 / 3

    def test_repair_matches_gold(self):
        gold = [["O", "B-PER", "I-PER"]]
        pred = [["O", "I-PER", "I-PER"]]
        assert span_f1(pred, gold)[:3] == (1.0, 1.0, 1.0)

    def test_zero_denominator(self):
        gold = [["B-PER"]]
        pred = [["O"]]
        assert span_f1(pred, gold).f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            span_f1([["O", "O"]], [["O"]])

    def test_permutation_invariant(self):
        gold = [["B-PER", "O"], ["O", "B-LOC"], ["B-ORG", "I-ORG"]]
        pred = [["B-PER", "O"], ["B-LOC", "O"], ["B-ORG", "O"]]
        direct = span_f1(pred, gold)
        perm = [2, 0, 1]
        shuffled = span_f1([pred[i] for i in perm], [gold[i] for i in perm])
        assert direct == shuffled


def _tree(heads, labels=None):
    n = len(heads)
    return DepTree(
        tuple(f"w{i}" for i in range(n)),
        tuple("X" for _ in range(n)),
        tuple(heads),
        tuple(labels) if labels is not None else None,
    )


class TestAttachmentScores:
    def test_identity(self):
        trees = [_tree([2, 0], ["a", "root"])]
        assert attachment_scores(trees, trees)[:2] == (1.0, 1.0)

    def test_labels_half_wrong(self):
        gold = [_tree([2, 0], ["a", "root"])]
        pred = [_tree([2, 0], ["b", "root"])]
        assert attachment_scores(pred, gold)[:2] == (1.0, 0.5)

    def test_hand_counted_pair(self):
        # 3+2 tokens; 4 correct heads of which 3 correctly labeled -> (0.8, 0.6)
        gold = [_tree([0, 1, 1], ["root", "x", "y"]), _tree([2, 0], ["z", "root"])]
        pred = [_tree([0, 1, 2], ["root", "x", "y"]), _tree([2, 0], ["q", "root"])]
        uas, las, *_ = attachment_scores(pred, gold)
        assert uas == 0.8
        assert las == 0.6

    def test_token_count_mismatch(self):
        with pytest.raises(EvaluationError):
            attachment_scores([_tree([0])], [_tree([0, 1])])

    def test_las_never_exceeds_uas(self):
        # head/label values are compared positionally, so arbitrary head
        # vectors (valid trees or not) are fine here
        rng = np.random.default_rng(17)
        labels = ["a", "b", "c"]
        for _ in range(300):
            n = int(rng.integers(1, 7))
            gold_heads = [int(rng.integers(0, n + 1)) for _ in range(n)]
            pred_heads = [int(rng.integers(0, n + 1)) for _ in range(n)]
            gold = _tree(gold_heads, [labels[rng.integers(0, 3)] for _ in range(n)])
            pred = _tree(pred_heads, [labels[rng.integers(0, 3)] for _ in range(n)])
            uas, las, *_ = attachment_scores([pred], [gold])
            assert las <= uas


class TestMetricReport:
    def test_micro_matches_single_language(self):
        report = MetricReport(TaskKind.SEQUENCE_TAGGING)
        report.add_tagging("en", span_f1([["B-PER", "O"]], [["B-PER", "B-LOC"]]))
        assert abs(report.micro()["f1"] - report.per_language["en"]["f1"]) < 1e-12

    def test_micro_pools_counts(self):
        report = MetricReport(TaskKind.CLASSIFICATION)
        report.add_classification("en", correct=3, total=4)
        report.add_classification("de", correct=1, total=4)
        assert report.micro()["accuracy"] == 0.5

    def test_parsing_micro(self):
        report = MetricReport(TaskKind.DEPENDENCY_PARSING)
        gold = [_tree([0, 1], ["root", "x"])]
        pred = [_tree([0, 2], ["root", "x"])]
        report.add_parsing("en", attachment_scores(pred, gold))
        report.add_parsing("de", attachment_scores(gold, gold))
        micro = report.micro()
        assert micro["uas"] == 0.75
        assert micro["las"] == 0.75
