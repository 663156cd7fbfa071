"""Uncertainty scoring and budget-constrained batch selection.

Every strategy produces scores where *lower means acquired first*, so one
selection rule serves them all: sort ascending by (score, instance id), then
walk the ranking first-fit, taking each instance whose cost still fits the
remaining budget and skipping the ones that do not. `select_ranked` applies
it to a pool held as arrays of ids, scores and costs, which is how the
experiment buys; `select_batch` is the same rule over `AcquisitionScore`s.
The walk is `corpus.first_fit`, which also buys the seed and validation sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .corpus import first_fit
from .errors import DataError, ScoringError
from .graph import Arborescence, ArcScores, log_partition, tree_log_prob
from .tasks import TaskKind


class StrategyKind(Enum):
    RANDOM = "random"
    LC = "lc"
    MNLP = "mnlp"
    NLPDT = "nlpdt"
    NLPDT_N2 = "nlpdt_n2"
    NLPDT_GLOBAL = "nlpdt_global"


_COMPATIBLE = {
    StrategyKind.RANDOM: set(TaskKind),
    StrategyKind.LC: {TaskKind.CLASSIFICATION},
    StrategyKind.MNLP: {TaskKind.SEQUENCE_TAGGING},
    StrategyKind.NLPDT: {TaskKind.DEPENDENCY_PARSING},
    StrategyKind.NLPDT_N2: {TaskKind.DEPENDENCY_PARSING},
    StrategyKind.NLPDT_GLOBAL: {TaskKind.DEPENDENCY_PARSING},
}


def strategy_compatible(strategy: StrategyKind, task: TaskKind) -> bool:
    return task in _COMPATIBLE[strategy]


@dataclass(frozen=True)
class AcquisitionScore:
    instance_id: int
    score: float
    language: str
    cost: int

    def __post_init__(self):
        if math.isnan(self.score) or self.score == float("inf"):
            raise ScoringError(f"instance {self.instance_id}: score must be finite or -inf")


def lc_scores(distributions) -> np.ndarray:
    """Confidence of each row's predicted class: its max probability, acquired ascending."""
    dist = np.asarray(distributions, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[1] == 0 or (dist < 0).any() or (abs(dist.sum(axis=1) - 1.0) > 1e-6).any():
        raise ScoringError("class distribution must be non-negative and sum to 1")
    return dist.max(axis=1)


def lc_score(distribution) -> float:
    """`lc_scores` of one distribution."""
    return float(lc_scores(np.asarray(distribution, dtype=np.float64)[None])[0])


def mnlp_scores(tag_distributions, counts: Sequence[int]) -> list[float]:
    """Per sentence of `counts` consecutive token rows, the mean over its tokens
    of the log probability of the argmax tag; the argmax is one row max over all."""
    probas = np.asarray(tag_distributions, dtype=np.float64)
    if probas.ndim != 2 or min(counts, default=1) < 1 or sum(counts) != len(probas):
        raise ScoringError("need one tag distribution per token of a non-empty sentence")
    confidences, ends = probas.max(axis=1), np.cumsum(counts).tolist()
    sentences = [confidences[a:b] for a, b in zip([0] + ends, ends)]
    return [float(np.log(c).mean()) if (c > 0).all() else float("-inf") for c in sentences]


def mnlp_score(tag_distributions) -> float:
    """`mnlp_scores` of one sentence."""
    probas = np.asarray(tag_distributions, dtype=np.float64)
    return mnlp_scores(probas, [len(probas) if probas.ndim == 2 else 0])[0]


def nlpdt_score(
    arc_probas: np.ndarray,
    tree: Arborescence,
    n_tokens: int,
    variant: StrategyKind = StrategyKind.NLPDT,
) -> float:
    """Log probability of the decoded tree under one of three normalizations.

    Plain: divide by token count. N2: divide by its square. Global: subtract
    the log partition over all single-root trees, giving the tree's log share
    of the total mass (always <= 0, no length normalization needed).
    Raises ScoringError when `n_tokens` is below one, and DataError under
    every variant when a probability is NaN or +inf, on a tree arc or not.
    """
    if n_tokens < 1:
        raise ScoringError(f"a tree needs at least one token, got n_tokens={n_tokens}")
    arc_probas = np.asarray(arc_probas, dtype=np.float64)
    if not (arc_probas < np.inf).all():  # NaN or +inf
        raise DataError("arc probabilities must not be NaN or +inf")
    logp = tree_log_prob(arc_probas, tree)
    if variant is StrategyKind.NLPDT:
        return logp / n_tokens
    if variant is StrategyKind.NLPDT_N2:
        return logp / (n_tokens * n_tokens)
    if variant is StrategyKind.NLPDT_GLOBAL:
        with np.errstate(divide="ignore"):
            log_scores = np.log(arc_probas)
        return logp - log_partition(ArcScores(log_scores))
    raise ScoringError(f"{variant} is not a tree-probability variant")


def random_scores(instance_ids: Sequence[int], round_rng: np.random.Generator) -> dict[int, float]:
    """Uniform scores in [0, 1), drawn in ascending instance-id order."""
    ids = sorted(instance_ids)
    return dict(zip(ids, round_rng.random(len(ids)).tolist()))


def select_ranked(
    ids: np.ndarray, scores: np.ndarray, costs: np.ndarray, budget: int
) -> tuple[np.ndarray, int]:
    """First-fit selection over the ascending (score, id) ranking of a pool of arrays.

    Returns the positions of the chosen instances in selection order and the
    total cost spent, which never exceeds the budget: the ranking is walked by
    `corpus.first_fit`. A NaN or +inf score raises ScoringError naming its
    instance.
    """
    if budget < 1:
        raise ScoringError("budget must be positive")
    bad = np.flatnonzero(np.isnan(scores) | (scores == np.inf))
    if len(bad):
        raise ScoringError(f"instance {ids[bad[0]]}: score must be finite or -inf")
    rank = np.lexsort((ids, scores))
    chosen = rank[first_fit(costs[rank], budget)]
    return chosen, int(costs[chosen].sum())


def select_batch(
    scores: Sequence[AcquisitionScore], budget: int
) -> tuple[list[int], int]:
    """`select_ranked` over `AcquisitionScore`s: the chosen ids in selection
    order and the total cost spent."""
    ids = np.array([s.instance_id for s in scores], dtype=np.int64)
    chosen, spent = select_ranked(
        ids,
        np.array([s.score for s in scores], dtype=np.float64),
        np.array([s.cost for s in scores], dtype=np.int64),
        budget,
    )
    return ids[chosen].tolist(), spent
