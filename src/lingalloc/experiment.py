"""Round-based experiment protocol over the three budget-allocation settings.

A run is one seed training round followed by acquisition rounds: score the
unlabeled pool, buy a batch within the per-round budget, reveal its gold
annotations, retrain from scratch, evaluate every target language. The
settings differ only in how models, budgets, and eligible pools are laid out:

* ``monoa`` - one model, the whole budget on a single source language,
  evaluated on every language (zero-shot on the others);
* ``mma``   - one model per language, budgets split evenly, each evaluated
  on its own language;
* ``sma``   - one model, one pooled budget over all languages jointly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .acquisition import (
    AcquisitionScore,
    StrategyKind,
    lc_score,
    mnlp_score,
    nlpdt_score,
    random_scores,
    select_batch,
    strategy_compatible,
)
from .corpus import Instance, Pool, SplitSpec, sample_splits
from .errors import ConfigError, ScoringError
from .graph import ArcScores, chu_liu_edmonds
from .models import FeatureSpace, TrainingConfig, build_model
from .tasks import BudgetUnit, MetricReport, TaskKind, attachment_scores, span_f1


@dataclass(frozen=True)
class BudgetSpec:
    """Seed / acquisition / validation allotments, all in the task's cost unit."""

    seed_budget: int
    acq_budget: int
    val_budget: int
    rounds: int = 4
    unit: BudgetUnit = BudgetUnit.INSTANCE

    def __post_init__(self):
        if min(self.seed_budget, self.acq_budget, self.val_budget) < 1:
            raise ConfigError("budgets must be positive")
        if self.rounds < 1:
            raise ConfigError("need at least one round")

    @property
    def acquisition_rounds(self) -> int:
        return self.rounds - 1

    @property
    def per_round_budget(self) -> int:
        """Equal split of the acquisition budget; any remainder stays unspent."""
        if self.acquisition_rounds == 0:
            return 0
        return self.acq_budget // self.acquisition_rounds


class SettingFamily(Enum):
    MONOA = "monoa"
    MMA = "mma"
    SMA = "sma"


@dataclass(frozen=True)
class Setting:
    family: SettingFamily
    strategy: StrategyKind
    with_al: bool = True
    source: str | None = None

    def __post_init__(self):
        if self.family is SettingFamily.MONOA and self.source is None:
            raise ConfigError("monoa requires a source language")
        if self.family is not SettingFamily.MONOA and self.source is not None:
            raise ConfigError(f"{self.family.value} takes no source language")

    @property
    def label(self) -> str:
        base = self.family.value
        if self.source is not None:
            base += f"-{self.source}"
        return base


@dataclass(frozen=True)
class ModelPlan:
    index: int
    languages: tuple[str, ...]  # languages this model trains and acquires on
    seed_budget: int
    acq_budget: int
    val_budget: int
    eval_languages: tuple[str, ...]

    @property
    def key(self) -> str:
        return "+".join(self.languages)


@dataclass(frozen=True)
class AllocationPlan:
    setting: Setting
    spec: BudgetSpec
    models: tuple[ModelPlan, ...]


def allocate(setting: Setting, spec: BudgetSpec, languages: Sequence[str]) -> AllocationPlan:
    """Lay out models and their budget shares for one setting."""
    langs = tuple(sorted(languages))
    if not langs:
        raise ConfigError("empty language set")
    n = len(langs)
    if setting.family is SettingFamily.MONOA:
        if setting.source not in langs:
            raise ConfigError(f"monoa source {setting.source!r} not in language set")
        models = (
            ModelPlan(0, (setting.source,), spec.seed_budget, spec.acq_budget,
                      spec.val_budget, langs),
        )
    elif setting.family is SettingFamily.MMA:
        if min(spec.seed_budget, spec.acq_budget, spec.val_budget) < n:
            raise ConfigError(f"mma needs every budget >= {n} (one share per language)")
        models = tuple(
            ModelPlan(i, (lang,), spec.seed_budget // n, spec.acq_budget // n,
                      spec.val_budget // n, (lang,))
            for i, lang in enumerate(langs)
        )
    else:
        models = (
            ModelPlan(0, langs, spec.seed_budget, spec.acq_budget,
                      spec.val_budget, langs),
        )
    return AllocationPlan(setting, spec, models)


@dataclass
class MultilingualData:
    """Per-language annotatable pools and held-out test sets for one task."""

    task: TaskKind
    train: dict[str, list[Instance]]
    test: dict[str, list[Instance]]

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self.train))

    def composition(self, languages: Sequence[str] | None = None) -> dict[str, int]:
        """Total annotatable cost per language (seed candidates + unlabeled)."""
        langs = self.languages if languages is None else tuple(sorted(languages))
        return {lang: sum(i.cost for i in self.train[lang]) for lang in langs}


@dataclass(frozen=True)
class AcquisitionEvent:
    round: int
    instance_id: int
    language: str
    cost: int
    score: float
    strategy: str


@dataclass
class RoundResult:
    round_index: int
    report: MetricReport
    spend: dict[str, int]
    validation: dict[str, float]
    warnings: tuple[str, ...] = ()


def _derive_seed(base: int, *key: int) -> int:
    return int(np.random.SeedSequence(base, spawn_key=tuple(key)).generate_state(1)[0])


def _score_pool(model, task, instances, strategy, round_rng):
    """Acquisition scores for every unlabeled instance, lower acquired first."""
    if strategy is not StrategyKind.RANDOM and not strategy_compatible(strategy, task):
        raise ScoringError(f"strategy {strategy.value} incompatible with task {task.value}")
    ordered = sorted(instances, key=lambda i: i.id)
    if strategy is StrategyKind.RANDOM:
        draws = random_scores([i.id for i in ordered], round_rng)
        return [AcquisitionScore(i.id, draws[i.id], i.language, i.cost) for i in ordered]
    if strategy is StrategyKind.LC:
        values = [lc_score(p) for p in model.predict_proba_batch(ordered)]
    elif strategy is StrategyKind.MNLP:
        values = [mnlp_score(p) for p in model.predict_tag_probas_batch(ordered)]
    else:
        values = []
        for log_probs in model.head_log_probs_batch(ordered):
            tree = chu_liu_edmonds(ArcScores(log_probs))
            values.append(nlpdt_score(np.exp(log_probs), tree, tree.n, strategy))
    return [
        AcquisitionScore(inst.id, value, inst.language, inst.cost)
        for inst, value in zip(ordered, values)
    ]


def _predict_metrics(model, task, test_by_language, languages) -> MetricReport:
    report = MetricReport(task)
    for lang in languages:
        instances = test_by_language[lang]
        if task is TaskKind.CLASSIFICATION:
            preds = model.predict_batch(instances)
            gold = [i.payload.label for i in instances]
            correct = sum(1 for p, g in zip(preds, gold) if p == g)
            report.add_classification(lang, correct, len(gold))
        elif task is TaskKind.SEQUENCE_TAGGING:
            preds = model.predict_tags_batch(instances)
            gold = [list(i.payload.tags) for i in instances]
            report.add_tagging(lang, span_f1(preds, gold))
        else:
            preds = model.decode_tree_batch(instances)
            gold = [i.payload for i in instances]
            report.add_parsing(lang, attachment_scores(preds, gold))
    return report


def run_rounds(
    plan: AllocationPlan,
    data: MultilingualData,
    training_config: TrainingConfig,
    feature_space: FeatureSpace,
    rng_seed: int,
) -> tuple[list[RoundResult], list[AcquisitionEvent]]:
    """Execute the full protocol for one setting.

    Round 0 trains every model on its sampled seed and evaluates; each later
    round scores that model's unlabeled pool, selects a batch within the
    per-round budget, reveals it, retrains from scratch, and re-evaluates.
    Identical (plan, data, config, seed) inputs reproduce identical results.
    """
    setting = plan.setting
    spec = plan.spec
    pools: list[Pool] = []
    for mp in plan.models:
        candidates = [inst for lang in mp.languages for inst in data.train[lang]]
        split = SplitSpec(mp.seed_budget, mp.val_budget, _derive_seed(rng_seed, mp.index, 0))
        pools.append(sample_splits(candidates, split))
    results: list[RoundResult] = []
    events: list[AcquisitionEvent] = []
    models: list = [None] * len(plan.models)
    for round_idx in range(spec.rounds):
        spend = {lang: 0 for lang in data.languages}
        warnings: list[str] = []
        if round_idx > 0:
            for mp, pool, model in zip(plan.models, pools, models):
                per_round = mp.acq_budget // spec.acquisition_rounds
                if per_round < 1:
                    continue
                strategy = setting.strategy if setting.with_al else StrategyKind.RANDOM
                round_rng = np.random.default_rng(
                    _derive_seed(rng_seed, mp.index, 2, round_idx)
                )
                scores = _score_pool(
                    model, data.task, pool.unlabeled.values(), strategy, round_rng
                )
                selected, spent = select_batch(scores, per_round) if scores else ([], 0)
                by_id = {s.instance_id: s for s in scores}
                for iid in selected:
                    entry = by_id[iid]
                    events.append(
                        AcquisitionEvent(
                            round_idx, iid, entry.language, entry.cost, entry.score,
                            strategy.value,
                        )
                    )
                    spend[entry.language] += entry.cost
                pool.move_to_labeled(selected)
                if spent < per_round and not pool.unlabeled:
                    warnings.append(
                        f"model {mp.key}: unlabeled pool exhausted at round {round_idx} "
                        f"(spent {spent} of {per_round})"
                    )
        validation: dict[str, float] = {}
        for i, (mp, pool) in enumerate(zip(plan.models, pools)):
            model = build_model(data.task, feature_space)
            cfg = replace(training_config, rng_seed=_derive_seed(rng_seed, mp.index, 1, round_idx))
            score = model.fit(
                sorted(pool.labeled.values(), key=lambda x: x.id),
                sorted(pool.validation.values(), key=lambda x: x.id),
                cfg,
            )
            models[i] = model
            validation[mp.key] = score
        report = MetricReport(data.task)
        for mp, model in zip(plan.models, models):
            partial = _predict_metrics(model, data.task, data.test, mp.eval_languages)
            report.per_language.update(partial.per_language)
            report.counts.update(partial.counts)
        results.append(
            RoundResult(round_idx, report, spend, validation, tuple(warnings))
        )
    return results, events


def initial_composition(plan: AllocationPlan, data: MultilingualData, rng_seed: int) -> dict[str, int]:
    """Cost per language of the initial labeled+unlabeled pools of a run.

    Reconstructs the same seed/validation draw as `run_rounds` (the split is a
    pure function of its seed), then counts everything except the validation
    partition. This is the share denominator the curriculum analysis uses.
    """
    composition = {
        lang: 0 for lang in sorted({l for mp in plan.models for l in mp.languages})
    }
    for mp in plan.models:
        candidates = [inst for lang in mp.languages for inst in data.train[lang]]
        split = SplitSpec(mp.seed_budget, mp.val_budget, _derive_seed(rng_seed, mp.index, 0))
        pool = sample_splits(candidates, split)
        for part in (pool.labeled, pool.unlabeled):
            for inst in part.values():
                composition[inst.language] += inst.cost
    return composition


@dataclass
class CurriculumReport:
    """Per-round, per-language acquisition relative to proportional random.

    ``relative_difference[i][lang]`` compares the cumulative amount acquired
    for a language through round i against the amount a proportional draw
    would have spent (alpha * per-round budget * i), as a relative difference.
    """

    alphas: dict[str, float]
    acquired: dict[int, dict[str, int]]
    relative_difference: dict[int, dict[str, float]]
    per_round_budget: int

    def identity_gap(self, round_index: int) -> float:
        """|sum_j alpha_j (1 + r_ij) - cumulative spend ratio| for one round."""
        cumulative = 0
        for i in range(1, round_index + 1):
            cumulative += sum(self.acquired.get(i, {}).values())
        expected = cumulative / (round_index * self.per_round_budget)
        got = sum(
            self.alphas[lang] * (1.0 + self.relative_difference[round_index][lang])
            for lang in self.alphas
        )
        return abs(got - expected)


def curriculum(
    events: Sequence[AcquisitionEvent],
    composition: Mapping[str, int],
    per_round_budget: int,
) -> CurriculumReport:
    """Acquisition-share analysis over one run's acquisition log."""
    if per_round_budget < 1:
        raise ConfigError("per-round budget must be positive")
    total = sum(composition.values())
    if total <= 0:
        raise ConfigError("empty pool composition")
    rounds = sorted({e.round for e in events})
    if not rounds:
        raise ConfigError("acquisition log covers no rounds")
    alphas = {}
    for lang, amount in sorted(composition.items()):
        if amount <= 0:
            raise ConfigError(f"language {lang} present with zero pool share")
        alphas[lang] = amount / total
    acquired: dict[int, dict[str, int]] = {
        i: {lang: 0 for lang in alphas} for i in range(1, max(rounds) + 1)
    }
    for event in events:
        if event.language not in alphas:
            raise ConfigError(f"acquired language {event.language} missing from composition")
        acquired[event.round][event.language] += event.cost
    relative: dict[int, dict[str, float]] = {}
    for i in range(1, max(rounds) + 1):
        relative[i] = {}
        for lang in alphas:
            cumulative = sum(acquired[k][lang] for k in range(1, i + 1))
            expected = alphas[lang] * per_round_budget * i
            relative[i][lang] = (cumulative - expected) / expected
    return CurriculumReport(alphas, acquired, relative, per_round_budget)


@dataclass
class AggregateReport:
    """Replicate-level averages of the per-round, per-language metric means."""

    per_replicate: dict[str, list[float]]
    mean: dict[str, float]
    stddev: dict[str, float]


def _replicate_mean(rounds: Sequence[RoundResult], metric: str) -> float:
    values = [
        metrics[metric]
        for result in rounds
        for metrics in result.report.per_language.values()
    ]
    return float(np.mean(values))


def aggregate(replicates: Sequence[Sequence[RoundResult]]) -> AggregateReport:
    """Mean over rounds and languages per replicate, then mean +- sample stddev."""
    if not replicates:
        raise ConfigError("need at least one replicate")
    metric_names = sorted(
        {
            name
            for rounds in replicates
            for result in rounds
            for metrics in result.report.per_language.values()
            for name in metrics
        }
    )
    per_replicate = {
        name: [_replicate_mean(rounds, name) for rounds in replicates]
        for name in metric_names
    }
    mean = {name: float(np.mean(vals)) for name, vals in per_replicate.items()}
    stddev = {
        name: float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        for name, vals in per_replicate.items()
    }
    return AggregateReport(per_replicate, mean, stddev)


def run_full_data_baselines(
    data: MultilingualData,
    training_config: TrainingConfig,
    feature_space: FeatureSpace,
    rng_seed: int,
    val_budget: int,
) -> dict[str, dict[str, dict[str, float]]]:
    """Upper-bound models trained on the full annotatable pool.

    ``sm_full`` is one model pooled over every language; ``mm_full`` trains one
    model per language, each evaluated on its own language. A validation split
    of `val_budget` is carved out for early stopping; everything else trains.
    """
    langs = data.languages
    sm_pool = sample_splits(
        [i for lang in langs for i in data.train[lang]],
        SplitSpec(
            max(1, sum(data.composition().values()) - val_budget),
            val_budget,
            _derive_seed(rng_seed, 0, 3),
        ),
    )
    sm_model = build_model(data.task, feature_space)
    sm_model.fit(
        sorted(sm_pool.labeled.values(), key=lambda x: x.id),
        sorted(sm_pool.validation.values(), key=lambda x: x.id),
        replace(training_config, rng_seed=_derive_seed(rng_seed, 0, 4)),
    )
    sm_report = _predict_metrics(sm_model, data.task, data.test, langs)
    mm_report = MetricReport(data.task)
    for i, lang in enumerate(langs):
        available = sum(inst.cost for inst in data.train[lang])
        # same seed streams as the pooled model so n=1 degenerates identically
        pool = sample_splits(
            data.train[lang],
            SplitSpec(max(1, available - val_budget), val_budget, _derive_seed(rng_seed, i, 3)),
        )
        model = build_model(data.task, feature_space)
        model.fit(
            sorted(pool.labeled.values(), key=lambda x: x.id),
            sorted(pool.validation.values(), key=lambda x: x.id),
            replace(training_config, rng_seed=_derive_seed(rng_seed, i, 4)),
        )
        partial = _predict_metrics(model, data.task, data.test, (lang,))
        mm_report.per_language.update(partial.per_language)
        mm_report.counts.update(partial.counts)
    return {"sm_full": sm_report.per_language, "mm_full": mm_report.per_language}
