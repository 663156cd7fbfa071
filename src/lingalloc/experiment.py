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
    lc_scores,
    mnlp_scores,
    nlpdt_score,
    random_scores,
    select_batch,
    strategy_compatible,
)
from .corpus import Instance, Pool, SplitSpec, sample_splits
from .errors import ConfigError, ScoringError
from .graph import ArcScores, chu_liu_edmonds
from .models import FeatureSpace, TrainingConfig, build_model
from .tasks import BudgetUnit, MetricReport, TaskKind


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

    def per_round(self, model: ModelPlan) -> int:
        """What `model` may spend in each acquisition round; 0 when there is none."""
        rounds = self.spec.acquisition_rounds
        return model.acq_budget // rounds if rounds else 0


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
    if not strategy_compatible(strategy, task):
        raise ScoringError(f"strategy {strategy.value} incompatible with task {task.value}")
    ordered = sorted(instances, key=lambda i: i.id)
    if strategy is StrategyKind.RANDOM:
        values = list(random_scores([i.id for i in ordered], round_rng).values())
    elif strategy is StrategyKind.LC:
        values = lc_scores(model.predict_proba_batch(ordered)).tolist()
    elif strategy is StrategyKind.MNLP:
        values = mnlp_scores(*model.predict_tag_probas_batch(ordered))
    else:
        values = []
        for log_probs in model.head_log_probs_batch(ordered):
            tree = chu_liu_edmonds(ArcScores(log_probs))
            values.append(nlpdt_score(np.exp(log_probs), tree, tree.n, strategy))
    return [
        AcquisitionScore(inst.id, value, inst.language, inst.cost)
        for inst, value in zip(ordered, values)
    ]


def _draw_pools(plan: AllocationPlan, data: MultilingualData, rng_seed: int) -> list[Pool]:
    """Each model's seed/validation/unlabeled split, a pure function of its seed."""
    pools = []
    for mp in plan.models:
        candidates = [inst for lang in mp.languages for inst in data.train[lang]]
        split = SplitSpec(mp.seed_budget, mp.val_budget, _derive_seed(rng_seed, mp.index, 0))
        pools.append(sample_splits(candidates, split))
    return pools


def _fit_and_evaluate(plan, pools, data, training_config, feature_space, rng_seed, round_idx):
    """Retrain every model from scratch on its labeled pool; test every eval language."""
    models, validation = [], {}
    report = MetricReport(data.task)
    for mp, pool in zip(plan.models, pools):
        model = build_model(data.task, feature_space)
        cfg = replace(training_config, rng_seed=_derive_seed(rng_seed, mp.index, 1, round_idx))
        validation[mp.key] = model.fit(
            sorted(pool.labeled.values(), key=lambda x: x.id),
            sorted(pool.validation.values(), key=lambda x: x.id),
            cfg,
        )
        models.append(model)
        for lang in mp.eval_languages:
            report.add(lang, model.evaluate(data.test[lang]))
    return models, validation, report


def run_arms(
    plan: AllocationPlan,
    data: MultilingualData,
    training_config: TrainingConfig,
    feature_space: FeatureSpace,
    rng_seed: int,
    arms: Sequence[bool],
) -> dict[bool, tuple[list[RoundResult], list[AcquisitionEvent]]]:
    """Execute the full protocol for one setting, with and/or without AL.

    Round 0 trains every model on its sampled seed and evaluates. Neither the
    pools nor the seeds it draws depend on AL, so it runs once and every arm
    in `arms` (True: the setting's strategy, False: random) starts from it
    with its own copy of the pools. Each later round scores that model's
    unlabeled pool, selects a batch within the per-round budget, reveals it,
    retrains from scratch, and re-evaluates. `plan.setting.with_al` is not
    read. Identical (plan, data, config, seed) inputs reproduce identical
    results, whichever arms run together.
    """
    spec = plan.spec
    pools = _draw_pools(plan, data, rng_seed)
    first_models, validation, report = _fit_and_evaluate(
        plan, pools, data, training_config, feature_space, rng_seed, 0
    )
    first = RoundResult(0, report, {lang: 0 for lang in data.languages}, validation)
    runs = {}
    for with_al in arms:
        strategy = plan.setting.strategy if with_al else StrategyKind.RANDOM
        arm_pools = [Pool(p.labeled.values(), p.unlabeled.values(), p.validation.values())
                     for p in pools]
        models = first_models
        results, events = [first], []
        for round_idx in range(1, spec.rounds):
            spend = {lang: 0 for lang in data.languages}
            warnings: list[str] = []
            for mp, pool, model in zip(plan.models, arm_pools, models):
                per_round = plan.per_round(mp)
                if per_round < 1:
                    continue
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
            models, validation, report = _fit_and_evaluate(
                plan, arm_pools, data, training_config, feature_space, rng_seed, round_idx
            )
            results.append(RoundResult(round_idx, report, spend, validation, tuple(warnings)))
        runs[with_al] = (results, events)
    return runs


def run_rounds(
    plan: AllocationPlan,
    data: MultilingualData,
    training_config: TrainingConfig,
    feature_space: FeatureSpace,
    rng_seed: int,
) -> tuple[list[RoundResult], list[AcquisitionEvent]]:
    """Execute the full protocol for one setting, AL or not per `plan.setting.with_al`."""
    with_al = plan.setting.with_al
    return run_arms(plan, data, training_config, feature_space, rng_seed, (with_al,))[with_al]


def initial_composition(plan: AllocationPlan, data: MultilingualData, rng_seed: int) -> dict[str, int]:
    """Cost per language of the initial labeled+unlabeled pools of a run.

    Redraws the pools `run_arms` starts from, then counts everything except
    the validation partition. This is the share denominator the curriculum
    analysis uses.
    """
    composition = {
        lang: 0 for lang in sorted({l for mp in plan.models for l in mp.languages})
    }
    for pool in _draw_pools(plan, data, rng_seed):
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


def _replicate_mean(rounds: Sequence[Mapping[str, Mapping[str, float]]], metric: str) -> float:
    values = [metrics[metric] for per_language in rounds for metrics in per_language.values()]
    return float(np.mean(values))


def aggregate(replicates: Sequence[Sequence[Mapping[str, Mapping[str, float]]]]) -> AggregateReport:
    """Mean over rounds and languages per replicate, then mean +- sample stddev.

    A replicate is its rounds' `MetricReport.per_language` dicts, in round order.
    """
    if not replicates:
        raise ConfigError("need at least one replicate")
    metric_names = sorted(
        {
            name
            for rounds in replicates
            for per_language in rounds
            for metrics in per_language.values()
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

