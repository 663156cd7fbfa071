"""Round-based experiment protocol over the three budget-allocation settings.

A run is one seed training round followed by acquisition rounds: score the
unlabeled pool, buy a batch within the per-round budget, reveal its gold
annotations, retrain from scratch, evaluate every target language. A run's
corpus is featurized once (`featurize`), in ascending id order, the one
order a run follows; its pools are ascending positions into that corpus,
scored into one array and bought from on arrays (`select_ranked`); only
the instances bought become `AcquisitionEvent`s. Each test language is
taken from the corpus once, when it is featurized, and each validation pool
once per run, as evaluation sets that every fit tests and validates on. A
run draws its pools once and returns their composition. A setting's AL and
random arms run their rounds in lockstep: each round, each arm buys for
each of its models and then fits it, or reuses the fit of a labeled pool
another arm holds too. The settings differ only in how models, budgets,
and eligible pools are laid out:

* ``monoa`` - one model, the whole budget on a single source language,
  evaluated on every language (zero-shot on the others);
* ``mma``   - one model per language, budgets split evenly, each evaluated
  on its own language;
* ``sma``   - one model, one pooled budget over all languages jointly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .acquisition import (
    StrategyKind,
    lc_scores,
    mnlp_scores,
    nlpdt_score,
    select_ranked,
    strategy_compatible,
)
from .corpus import Instance, Pool, SplitSpec, sample_splits
from .errors import ConfigError, DataError, ScoringError
from .graph import ArcScores, chu_liu_edmonds
from .models import EvalSet, FeatureSpace, TrainingConfig, build_model
from .tasks import BudgetUnit, MetricReport, TaskKind


@dataclass(frozen=True)
class BudgetSpec:
    """Seed / acquisition / validation allotments, all in the task's cost unit;
    acquisition and validation default to the seed budget."""

    seed_budget: int
    acq_budget: int = None
    val_budget: int = None
    rounds: int = 4
    unit: BudgetUnit = BudgetUnit.INSTANCE

    def __post_init__(self):
        for name in ("acq_budget", "val_budget"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, self.seed_budget)
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
    """Lay out models and their budget shares for one setting; ConfigError if
    that leaves a model less than one unit to buy in each acquisition round."""
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
    plan = AllocationPlan(setting, spec, models)
    if spec.acquisition_rounds and min(plan.per_round(mp) for mp in models) < 1:
        raise ConfigError(f"{setting.family.value} needs an acquisition budget of at least "
                          "one per model and acquisition round")
    return plan


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
class Featurized:
    """A run's corpus featurized once: `data`, its feature space, all its
    training and test instances in ascending id order (`members`, with their
    int64 `ids` and `costs`), one evaluation set over them, member k at
    position k, and each test language's evaluation set taken from it
    (`tests`). A run holds every other set it uses as positions into it."""

    data: MultilingualData
    space: FeatureSpace
    members: list[Instance]
    ids: np.ndarray
    costs: np.ndarray
    instances: EvalSet
    tests: dict[str, EvalSet]

    def locate(self, instances: Iterable[Instance]) -> np.ndarray:
        """The positions of `instances`, ascending; DataError for one that is not a member."""
        instances = list(instances)
        at = np.searchsorted(self.ids, [i.id for i in instances]).astype(np.int64)
        for k, inst in zip(at.tolist(), instances):
            if k == len(self.members) or self.members[k] != inst:
                raise DataError(f"instance {inst.id} is not in the corpus")
        return np.sort(at)


def featurize(data: MultilingualData, space: FeatureSpace) -> Featurized:
    """Every training and test instance of `data`, in ascending id order, hashed once
    in passes of at most its task model's `chunk` rows, and each test language
    taken from them once; DataError if an id repeats."""
    members = sorted((i for part in (data.train, data.test) for group in part.values() for i in group),
                     key=lambda i: i.id)
    ids = np.array([i.id for i in members], dtype=np.int64)
    if len(repeated := ids[1:][ids[1:] == ids[:-1]]):
        raise DataError(f"instance id {repeated[0]} occurs more than once")
    costs = np.array([i.cost for i in members], dtype=np.int64)
    instances = build_model(data.task, space).evaluation_set(members)
    # every test instance is a member, so its id finds its position
    tests = {lang: instances.take(np.sort(np.searchsorted(ids, [i.id for i in group])))
             for lang, group in data.test.items()}
    return Featurized(data, space, members, ids, costs, instances, tests)


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


def _score_pool(model, corpus: Featurized, positions: np.ndarray, strategy, round_rng) -> np.ndarray:
    """The acquisition scores of the corpus members at ascending `positions`,
    in that order, as one float64 array, lower acquired first. A model scores
    them in passes of at most its `chunk` rows, taken from the corpus one at a time."""
    if not strategy_compatible(strategy, corpus.data.task):
        raise ScoringError(f"strategy {strategy.value} incompatible with task {corpus.data.task.value}")
    if strategy is StrategyKind.RANDOM:
        # the draws of `random_scores`, which are made in ascending id order too
        return round_rng.random(len(positions))
    values = [np.zeros(0)]
    for part in corpus.instances.passes(positions, model.chunk):
        if strategy is StrategyKind.LC:
            values.append(lc_scores(model.predict_proba_batch(part)))
        elif strategy is StrategyKind.MNLP:
            values.append(mnlp_scores(model.predict_proba_batch(part), part.sizes[:, 1]))
        else:
            for log_probs in model.head_log_probs_batch(part):
                tree = chu_liu_edmonds(ArcScores(log_probs))
                values.append([nlpdt_score(np.exp(log_probs), tree, tree.n, strategy)])
    return np.concatenate(values)


def _draw_pools(plan: AllocationPlan, data: MultilingualData, rng_seed: int) -> list[Pool]:
    """Each model's seed/validation/unlabeled split, a pure function of its seed."""
    pools = []
    for mp in plan.models:
        candidates = [inst for lang in mp.languages for inst in data.train[lang]]
        split = SplitSpec(mp.seed_budget, mp.val_budget, _derive_seed(rng_seed, mp.index, 0))
        pools.append(sample_splits(candidates, split))
    return pools


def _composition(plan: AllocationPlan, pools: Sequence[Pool]) -> dict[str, int]:
    """Cost per plan language of the labeled and unlabeled parts of `pools`,
    each model's draw: the share denominator of the curriculum analysis."""
    composition = dict.fromkeys(sorted({lang for mp in plan.models for lang in mp.languages}), 0)
    for pool in pools:
        for part in (pool.labeled, pool.unlabeled):
            for inst in part.values():
                composition[inst.language] += inst.cost
    return composition


def _fit_and_evaluate(mp, corpus: Featurized, labeled: np.ndarray, val_set, training_config,
                      rng_seed, round_idx):
    """Train one model from scratch on the members at positions `labeled`; test each of its eval languages.

    `val_set` is an evaluation set; the test sets are the corpus's. Returns
    the model, its validation score and its test counts per language.
    """
    model = build_model(corpus.data.task, corpus.space)
    cfg = replace(training_config, rng_seed=_derive_seed(rng_seed, mp.index, 1, round_idx))
    score = model.fit(corpus.instances.take(labeled), val_set, cfg)
    return model, score, [(lang, model.evaluate(corpus.tests[lang])) for lang in mp.eval_languages]


def run_arms(
    plan: AllocationPlan,
    corpus: Featurized,
    training_config: TrainingConfig,
    rng_seed: int,
    arms: Sequence[bool],
) -> tuple[dict[bool, tuple[list[RoundResult], list[AcquisitionEvent]]], dict[str, int]]:
    """Execute the full protocol for one setting on a featurized corpus, with and/or without AL.

    The arms in `arms` (True: the setting's strategy, False: random) run in
    lockstep. Each holds, per model, a (labeled, unlabeled) pair of ascending
    int64 positions into `corpus`, from the model's draw (`_draw_pools`). In
    every round each arm takes each of its models in turn: from round 1 on,
    it scores the model's unlabeled positions with the model's fit of the
    previous round and moves a batch bought within the per-round budget to
    labeled; then it fits the model from scratch on its labeled positions
    and evaluates it, or reuses the fit another arm made of the same ones.
    A fit depends on the model, the round and the labeled pool, never on
    the arm, so each model is fitted once per distinct labeled pool in a
    round: in round 0, and in every later round where the arms hold the same
    pool, as they do once it has run out. Each model's validation pool is
    taken from `corpus` once, as the evaluation set every fit validates on;
    every fit tests on the corpus's own test sets. `plan.setting.with_al` is
    not read. Returns each arm's (results, events) and the composition of
    the pools drawn (`initial_composition`). Identical (plan, corpus,
    config, seed) inputs reproduce identical results, whichever arms run
    together. Before any pool is drawn, ConfigError is raised for a repeated
    arm, which would buy its batches twice, and for plan languages the
    corpus lacks.
    """
    if len(set(arms)) != len(arms):
        raise ConfigError(f"arms must be distinct, got {list(arms)}")
    data = corpus.data
    if missing := sorted({lang for mp in plan.models for lang in mp.languages} - data.train.keys()
                         | {lang for mp in plan.models for lang in mp.eval_languages}
                         - corpus.tests.keys()):
        raise ConfigError(f"plan languages {missing} are not in the data")
    pools = _draw_pools(plan, data, rng_seed)
    drawn = [[corpus.locate(part.values()) for part in (p.labeled, p.unlabeled, p.validation)]
             for p in pools]
    val_sets = [corpus.instances.take(validation) for _, _, validation in drawn]
    arm_pools = {with_al: [(labeled, unlabeled) for labeled, unlabeled, _ in drawn] for with_al in arms}
    runs = {with_al: ([], []) for with_al in arms}
    fits = {}
    for round_idx in range(plan.spec.rounds):
        last, fits = fits, {}
        for with_al in arms:
            strategy = plan.setting.strategy if with_al else StrategyKind.RANDOM
            results, events = runs[with_al]
            result = RoundResult(round_idx, MetricReport(data.task), dict.fromkeys(data.languages, 0), {})
            for mp, (labeled, unlabeled) in zip(plan.models, arm_pools[with_al]):
                if round_idx:
                    # until it buys, the pool is the one the model of the round before was fitted on
                    model = last[mp.index, labeled.tobytes()][0]
                    per_round = plan.per_round(mp)
                    rng = np.random.default_rng(_derive_seed(rng_seed, mp.index, 2, round_idx))
                    scores = _score_pool(model, corpus, unlabeled, strategy, rng)
                    chosen, spent = select_ranked(corpus.ids[unlabeled], scores, corpus.costs[unlabeled],
                                                  per_round)
                    # Python floats: the repr of a numpy scalar would name its type in the log
                    for k, score in zip(unlabeled[chosen].tolist(), scores[chosen].tolist()):
                        inst = corpus.members[k]
                        events.append(AcquisitionEvent(round_idx, inst.id, inst.language,
                                                       inst.cost, score, strategy.value))
                        result.spend[inst.language] += inst.cost
                    labeled = np.sort(np.append(labeled, unlabeled[chosen]))
                    unlabeled = np.delete(unlabeled, chosen)
                    arm_pools[with_al][mp.index] = labeled, unlabeled
                    if spent < per_round and not len(unlabeled):
                        result.warnings += (f"model {mp.key}: unlabeled pool exhausted at round "
                                            f"{round_idx} (spent {spent} of {per_round})",)
                key = (mp.index, labeled.tobytes())
                if key not in fits:
                    fits[key] = _fit_and_evaluate(mp, corpus, labeled, val_sets[mp.index],
                                                  training_config, rng_seed, round_idx)
                result.validation[mp.key], counts = fits[key][1:]
                for lang, lang_counts in counts:
                    result.report.add(lang, lang_counts)
            results.append(result)
    return runs, _composition(plan, pools)


def run_rounds(
    plan: AllocationPlan,
    data: MultilingualData,
    training_config: TrainingConfig,
    feature_space: FeatureSpace,
    rng_seed: int,
) -> tuple[list[RoundResult], list[AcquisitionEvent]]:
    """Execute the full protocol for one setting, AL or not per `plan.setting.with_al`,
    on `data` featurized for this call."""
    with_al = plan.setting.with_al
    return run_arms(plan, featurize(data, feature_space), training_config, rng_seed, (with_al,))[0][with_al]


def initial_composition(plan: AllocationPlan, data: MultilingualData, rng_seed: int) -> dict[str, int]:
    """Cost per language of the initial labeled+unlabeled pools of a run, as
    `run_arms` returns it, from the pools it starts from drawn again."""
    return _composition(plan, _draw_pools(plan, data, rng_seed))


# largest gap a curriculum report accepts in its acquisition-share identity
_IDENTITY_TOLERANCE = 1e-9


@dataclass
class CurriculumReport:
    """Per-round, per-language acquisition relative to proportional random.

    ``relative_difference[i][lang]`` compares the cumulative amount acquired
    for a language through round i against the amount a proportional draw
    would have spent (alpha * per-round budget * i), as a relative difference.

    Rounds are numbered from 1. A report is valid or is not made: ConfigError
    unless the per-round budget is at least 1, every round of both maps covers
    exactly the languages of ``alphas``, and every round of
    ``relative_difference`` meets the share identity (`identity_gap`) within 1e-9,
    its cumulative spend ratio no larger than a float holds.
    """

    alphas: dict[str, float]
    acquired: dict[int, dict[str, int]]
    relative_difference: dict[int, dict[str, float]]
    per_round_budget: int

    def __post_init__(self):
        if self.per_round_budget < 1:
            raise ConfigError("per-round budget must be positive")
        for rounds in (self.acquired, self.relative_difference):
            for round_index, per_language in rounds.items():
                if per_language.keys() != self.alphas.keys():
                    raise ConfigError(f"round {round_index} covers languages "
                                      f"{sorted(per_language)}, not those of alphas "
                                      f"{sorted(self.alphas)}")
        for round_index in sorted(self.relative_difference):
            try:
                gap = self.identity_gap(round_index)
            except OverflowError:  # acquired integers that each fit a float, but not their sum
                raise ConfigError(f"round {round_index}: cumulative spend ratio too large "
                                  "for a float") from None
            # written so that a NaN gap fails too
            if not gap <= _IDENTITY_TOLERANCE:
                raise ConfigError(f"acquisition-share identity violated at round {round_index} "
                                  f"(gap {gap:.3e})")

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
    """Acquisition-share analysis over one run's acquisition log; ConfigError
    if it would not make a valid `CurriculumReport`."""
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
    # the report without shares checks the budget they are divided by
    report = CurriculumReport(alphas, acquired, {}, per_round_budget)
    relative: dict[int, dict[str, float]] = {}
    for i in range(1, max(rounds) + 1):
        relative[i] = {}
        for lang in alphas:
            cumulative = sum(acquired[k][lang] for k in range(1, i + 1))
            expected = alphas[lang] * per_round_budget * i
            relative[i][lang] = (cumulative - expected) / expected
    return replace(report, relative_difference=relative)


@dataclass
class AggregateReport:
    """Replicate-level averages of the per-round, per-language metric means."""

    per_replicate: dict[str, list[float]]
    mean: dict[str, float]
    stddev: dict[str, float]


def _replicate_mean(rounds: Sequence[Mapping[str, Mapping[str, float]]], metric: str) -> float:
    values = [metrics[metric] for per_language in rounds for metrics in per_language.values()]
    return float(np.mean(values))


def mean_stddev(values: Sequence[float]) -> tuple[float, float]:
    """The mean of `values` and their sample standard deviation, 0.0 for one value."""
    return float(np.mean(values)), float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


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
    mean, stddev = {}, {}
    for name, vals in per_replicate.items():
        mean[name], stddev[name] = mean_stddev(vals)
    return AggregateReport(per_replicate, mean, stddev)

