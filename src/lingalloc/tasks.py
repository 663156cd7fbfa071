"""Task definitions and evaluation metrics: accuracy, span F1, UAS/LAS."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

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


def accuracy(pred: Sequence[str], gold: Sequence[str]) -> float:
    if len(pred) != len(gold):
        raise EvaluationError(f"length mismatch: {len(pred)} predictions vs {len(gold)} labels")
    if not gold:
        raise EvaluationError("cannot score an empty prediction list")
    return sum(1 for p, g in zip(pred, gold) if p == g) / len(gold)


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
    tp: int
    pred_spans: int
    gold_spans: int


def _prf(tp: int, pred: int, gold: int) -> tuple[float, float, float]:
    precision = tp / pred if pred else 0.0
    recall = tp / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def span_f1(pred_tags: Sequence[Sequence[str]], gold_tags: Sequence[Sequence[str]]) -> SpanF1:
    """Micro-averaged exact-match span precision/recall/F1 over sentences."""
    if len(pred_tags) != len(gold_tags):
        raise EvaluationError(
            f"sentence count mismatch: {len(pred_tags)} vs {len(gold_tags)}"
        )
    tp = pred_total = gold_total = 0
    for i, (pred, gold) in enumerate(zip(pred_tags, gold_tags)):
        if len(pred) != len(gold):
            raise EvaluationError(f"token count mismatch in sentence {i}")
        p_spans = set(bio_spans(pred))
        g_spans = set(bio_spans(gold))
        tp += len(p_spans & g_spans)
        pred_total += len(p_spans)
        gold_total += len(g_spans)
    precision, recall, f1 = _prf(tp, pred_total, gold_total)
    return SpanF1(precision, recall, f1, tp, pred_total, gold_total)


class Attachment(NamedTuple):
    uas: float
    las: float
    head_correct: int
    label_correct: int
    total: int


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
    return Attachment(head_correct / total, label_correct / total, head_correct, label_correct, total)


@dataclass
class MetricReport:
    """Per-language metric values plus the raw counts they were computed from.

    Counts are kept so micro-aggregates over any language subset can be
    recomputed exactly.
    """

    task: TaskKind
    per_language: dict[str, dict[str, float]] = field(default_factory=dict)
    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def add_classification(self, language: str, correct: int, total: int):
        self.counts[language] = {"correct": correct, "total": total}
        self.per_language[language] = {"accuracy": correct / total if total else 0.0}

    def add_tagging(self, language: str, result: SpanF1):
        self.counts[language] = {
            "tp": result.tp,
            "pred_spans": result.pred_spans,
            "gold_spans": result.gold_spans,
        }
        self.per_language[language] = {
            "precision": result.precision,
            "recall": result.recall,
            "f1": result.f1,
        }

    def add_parsing(self, language: str, result: Attachment):
        self.counts[language] = {
            "head_correct": result.head_correct,
            "label_correct": result.label_correct,
            "total": result.total,
        }
        self.per_language[language] = {"uas": result.uas, "las": result.las}

    def micro(self) -> dict[str, float]:
        """Metrics recomputed from the pooled counts of every language."""
        if self.task is TaskKind.CLASSIFICATION:
            correct = sum(c["correct"] for c in self.counts.values())
            total = sum(c["total"] for c in self.counts.values())
            return {"accuracy": correct / total if total else 0.0}
        if self.task is TaskKind.SEQUENCE_TAGGING:
            tp = sum(c["tp"] for c in self.counts.values())
            pred = sum(c["pred_spans"] for c in self.counts.values())
            gold = sum(c["gold_spans"] for c in self.counts.values())
            precision, recall, f1 = _prf(tp, pred, gold)
            return {"precision": precision, "recall": recall, "f1": f1}
        head = sum(c["head_correct"] for c in self.counts.values())
        label = sum(c["label_correct"] for c in self.counts.values())
        total = sum(c["total"] for c in self.counts.values())
        return {
            "uas": head / total if total else 0.0,
            "las": label / total if total else 0.0,
        }
