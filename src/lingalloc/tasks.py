"""Task definitions and evaluation metrics: accuracy, span F1, UAS/LAS."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .corpus import DepTree
from .errors import EvaluationError


class BudgetUnit(Enum):
    INSTANCE = "instance"
    TOKEN = "token"


class TaskKind(Enum):
    CLASSIFICATION = "classification"
    SEQUENCE_TAGGING = "tagging"
    DEPENDENCY_PARSING = "parsing"

    @property
    def budget_unit(self) -> BudgetUnit:
        if self is TaskKind.CLASSIFICATION:
            return BudgetUnit.INSTANCE
        return BudgetUnit.TOKEN


def task_metrics(task: TaskKind, counts: Mapping[str, int]) -> dict[str, float]:
    """A task's metrics from its counts: accuracy, span P/R/F1 or UAS/LAS.

    The counts are those `MetricReport.counts` holds per language, so the
    metrics of one language, of any pool of languages and of the string-level
    `accuracy`, `span_f1` and `attachment_scores` all come from here.
    """
    if task is TaskKind.CLASSIFICATION:
        total = counts["total"]
        return {"accuracy": counts["correct"] / total if total else 0.0}
    if task is TaskKind.SEQUENCE_TAGGING:
        tp, pred, gold = counts["tp"], counts["pred_spans"], counts["gold_spans"]
        precision = tp / pred if pred else 0.0
        recall = tp / gold if gold else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return {"precision": precision, "recall": recall, "f1": f1}
    total = counts["total"]
    return {
        "uas": counts["head_correct"] / total if total else 0.0,
        "las": counts["label_correct"] / total if total else 0.0,
    }


def accuracy(pred: Sequence[str], gold: Sequence[str]) -> float:
    if len(pred) != len(gold):
        raise EvaluationError(f"length mismatch: {len(pred)} predictions vs {len(gold)} labels")
    if not gold:
        raise EvaluationError("cannot score an empty prediction list")
    hits = sum(1 for p, g in zip(pred, gold) if p == g)
    return task_metrics(TaskKind.CLASSIFICATION, {"correct": hits, "total": len(gold)})["accuracy"]


def bio_spans(tags: Sequence[str]) -> list[tuple[str, int, int]]:
    """Extract maximal (type, start, end) spans from a BIO sequence.

    `end` is exclusive. An I-X that follows O, the sentence start, or a span
    of a different type opens a new span (the conlleval convention).
    """
    spans = []
    current: tuple[str, int] | None = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if current is not None:
                spans.append((current[0], current[1], i))
                current = None
            continue
        prefix, _, etype = tag.partition("-")
        if prefix == "B" or current is None or current[0] != etype:
            if current is not None:
                spans.append((current[0], current[1], i))
            current = (etype, i)
    if current is not None:
        spans.append((current[0], current[1], len(tags)))
    return spans


class SpanF1(NamedTuple):
    precision: float
    recall: float
    f1: float
    counts: dict[str, int]  # tp, pred_spans, gold_spans


def span_f1(pred_tags: Sequence[Sequence[str]], gold_tags: Sequence[Sequence[str] | None]) -> SpanF1:
    """Micro-averaged exact-match span precision/recall/F1 over sentences;
    EvaluationError for a gold sentence without tags (None)."""
    if len(pred_tags) != len(gold_tags):
        raise EvaluationError(
            f"sentence count mismatch: {len(pred_tags)} vs {len(gold_tags)}"
        )
    tp = pred_total = gold_total = 0
    for i, (pred, gold) in enumerate(zip(pred_tags, gold_tags)):
        if gold is None:
            raise EvaluationError(f"sentence {i} lacks tag annotations")
        if len(pred) != len(gold):
            raise EvaluationError(f"token count mismatch in sentence {i}")
        p_spans = set(bio_spans(pred))
        g_spans = set(bio_spans(gold))
        tp += len(p_spans & g_spans)
        pred_total += len(p_spans)
        gold_total += len(g_spans)
    counts = {"tp": tp, "pred_spans": pred_total, "gold_spans": gold_total}
    metrics = task_metrics(TaskKind.SEQUENCE_TAGGING, counts)
    return SpanF1(metrics["precision"], metrics["recall"], metrics["f1"], counts)


class Attachment(NamedTuple):
    uas: float
    las: float
    counts: dict[str, int]  # head_correct, label_correct, total


def attachment_scores(pred: Sequence[DepTree], gold: Sequence[DepTree]) -> Attachment:
    """Unlabeled and labeled attachment scores; every token counts."""
    if len(pred) != len(gold):
        raise EvaluationError(f"sentence count mismatch: {len(pred)} vs {len(gold)}")
    head_correct = label_correct = total = 0
    for i, (p, g) in enumerate(zip(pred, gold)):
        if p.heads is None or g.heads is None:
            raise EvaluationError(f"sentence {i} lacks head annotations")
        if len(p.heads) != len(g.heads):
            raise EvaluationError(f"token count mismatch in sentence {i}")
        p_labels = p.labels if p.labels is not None else ("",) * len(p.heads)
        g_labels = g.labels if g.labels is not None else ("",) * len(g.heads)
        for ph, gh, pl, gl in zip(p.heads, g.heads, p_labels, g_labels):
            total += 1
            if ph == gh:
                head_correct += 1
                if pl == gl:
                    label_correct += 1
    if total == 0:
        raise EvaluationError("no tokens to score")
    counts = {"head_correct": head_correct, "label_correct": label_correct, "total": total}
    metrics = task_metrics(TaskKind.DEPENDENCY_PARSING, counts)
    return Attachment(metrics["uas"], metrics["las"], counts)


@dataclass
class MetricReport:
    """Per-language metric values plus the raw counts they were computed from.

    Counts are kept so micro-aggregates over any language subset can be
    recomputed exactly.
    """

    task: TaskKind
    per_language: dict[str, dict[str, float]] = field(default_factory=dict)
    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def add(self, language: str, counts: dict[str, int]):
        self.counts[language] = counts
        self.per_language[language] = task_metrics(self.task, counts)

    def micro(self) -> dict[str, float]:
        """Metrics recomputed from the pooled counts of every language."""
        pooled: Counter[str] = Counter()
        for counts in self.counts.values():
            pooled.update(counts)
        return task_metrics(self.task, pooled)
