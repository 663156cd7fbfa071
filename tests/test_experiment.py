from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lingalloc import experiment, models
from lingalloc.acquisition import StrategyKind, random_scores, select_ranked
from lingalloc.errors import ConfigError, DataError
from lingalloc.experiment import (
    AcquisitionEvent,
    BudgetSpec,
    CurriculumReport,
    MultilingualData,
    Setting,
    SettingFamily,
    aggregate,
    allocate,
    curriculum,
    featurize,
    initial_composition,
    run_arms,
    run_rounds,
)
from lingalloc.models import FeatureSpace, TrainingConfig, build_model
from lingalloc.synth import synth_classification, synth_parsing, synth_tagging
from lingalloc.tasks import BudgetUnit, MetricReport, TaskKind

SPACE = FeatureSpace(hash_dimension=1024, ngram_min=2, ngram_max=4)
FAST = TrainingConfig(learning_rates=(0.5,), batch_size=32, max_epochs=8, patience=8, rng_seed=0)
SPEC = BudgetSpec(40, 30, 20, rounds=4, unit=BudgetUnit.INSTANCE)


@pytest.fixture(scope="module")
def small_data():
    return synth_classification(["aa", "bb", "cc"], 150, 40, 0.5, seed=5)


@pytest.fixture(scope="module")
def mono_data():
    return synth_classification(["solo"], 150, 40, 0.5, seed=6)


def sma(with_al=True):
    return Setting(SettingFamily.SMA, StrategyKind.LC, with_al)


class TestBudgetSpec:
    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            BudgetSpec(0, 1, 1)


class TestSetting:
    def test_monoa_requires_source(self):
        with pytest.raises(ConfigError):
            Setting(SettingFamily.MONOA, StrategyKind.LC)

    def test_others_reject_source(self):
        with pytest.raises(ConfigError):
            Setting(SettingFamily.SMA, StrategyKind.LC, source="en")

    def test_labels(self):
        assert Setting(SettingFamily.MONOA, StrategyKind.LC, source="en").label == "monoa-en"
        assert sma().label == "sma"


class TestAllocate:
    LANGS = ("aa", "bb", "cc", "dd")

    def test_sma_single_pooled_model(self):
        spec = BudgetSpec(300, 300, 300)
        plan = allocate(sma(), spec, self.LANGS)
        assert len(plan.models) == 1
        mp = plan.models[0]
        assert mp.languages == self.LANGS
        assert (mp.seed_budget, mp.acq_budget, mp.val_budget) == (300, 300, 300)
        assert mp.eval_languages == self.LANGS

    def test_mma_splits_evenly(self):
        spec = BudgetSpec(300, 300, 300)
        plan = allocate(Setting(SettingFamily.MMA, StrategyKind.LC), spec, self.LANGS)
        assert len(plan.models) == 4
        for mp in plan.models:
            assert (mp.seed_budget, mp.acq_budget, mp.val_budget) == (75, 75, 75)
            assert mp.eval_languages == mp.languages

    def test_monoa_all_on_source(self):
        spec = BudgetSpec(300, 300, 300)
        setting = Setting(SettingFamily.MONOA, StrategyKind.LC, source="bb")
        plan = allocate(setting, spec, self.LANGS)
        assert len(plan.models) == 1
        assert plan.models[0].languages == ("bb",)
        assert plan.models[0].seed_budget == 300
        assert plan.models[0].eval_languages == self.LANGS

    def test_mma_budget_too_small(self):
        with pytest.raises(ConfigError):
            allocate(Setting(SettingFamily.MMA, StrategyKind.LC), BudgetSpec(3, 3, 3), self.LANGS)

    def test_monoa_source_must_exist(self):
        setting = Setting(SettingFamily.MONOA, StrategyKind.LC, source="zz")
        with pytest.raises(ConfigError):
            allocate(setting, BudgetSpec(10, 10, 10), self.LANGS)

    def test_per_round_budget(self):
        mma = Setting(SettingFamily.MMA, StrategyKind.LC)
        plan = allocate(mma, BudgetSpec(300, 302, 300, rounds=4), self.LANGS)
        # 302 // 4 = 75 per model, spread over 3 acquisition rounds
        assert [plan.per_round(mp) for mp in plan.models] == [25] * 4
        plan = allocate(mma, BudgetSpec(300, 302, 300, rounds=1), self.LANGS)
        assert [plan.per_round(mp) for mp in plan.models] == [0] * 4

    @pytest.mark.parametrize("family, acquisition, langs", [
        # 8 // 3 = 2 per model, 2 // 3 acquisition rounds = 0 per round
        (SettingFamily.MMA, 8, ("aa", "bb", "cc")),
        (SettingFamily.SMA, 2, LANGS),
    ], ids=["mma", "sma"])
    def test_budget_leaving_a_model_nothing_per_round_rejected(self, family, acquisition, langs):
        with pytest.raises(ConfigError, match=f"^{family.value} needs an acquisition budget of "
                                              "at least one per model and acquisition round$"):
            allocate(Setting(family, StrategyKind.LC), BudgetSpec(60, acquisition, 60, rounds=4),
                     langs)

    def test_one_unit_per_round_accepted(self):
        plan = allocate(sma(), BudgetSpec(60, 3, 60, rounds=4), self.LANGS)
        assert [plan.per_round(mp) for mp in plan.models] == [1]


class TestRunRounds:
    def test_protocol_shape(self, small_data):
        plan = allocate(sma(), SPEC, small_data.languages)
        results, events = run_rounds(plan, small_data, FAST, SPACE, rng_seed=1)
        assert len(results) == 4
        acquisition_rounds = sorted({e.round for e in events})
        assert acquisition_rounds == [1, 2, 3]
        per_round = SPEC.acq_budget // 3
        for r in results:
            assert sum(r.spend.values()) <= per_round
        assert sum(results[0].spend.values()) == 0

    def test_every_language_evaluated_each_round(self, small_data):
        setting = Setting(SettingFamily.MONOA, StrategyKind.LC, source="aa")
        plan = allocate(setting, SPEC, small_data.languages)
        results, events = run_rounds(plan, small_data, FAST, SPACE, rng_seed=1)
        for r in results:
            assert sorted(r.report.per_language) == list(small_data.languages)
        assert {e.language for e in events} == {"aa"}

    def test_mma_evaluates_own_language_only(self, small_data):
        plan = allocate(Setting(SettingFamily.MMA, StrategyKind.LC), SPEC, small_data.languages)
        results, _ = run_rounds(plan, small_data, FAST, SPACE, rng_seed=1)
        for r in results:
            assert sorted(r.report.per_language) == list(small_data.languages)
            assert sorted(r.validation) == list(small_data.languages)

    def test_no_duplicate_acquisitions(self, small_data):
        plan = allocate(sma(), SPEC, small_data.languages)
        _, events = run_rounds(plan, small_data, FAST, SPACE, rng_seed=2)
        ids = [e.instance_id for e in events]
        assert len(ids) == len(set(ids))

    def test_conservation(self, small_data):
        plan = allocate(sma(), SPEC, small_data.languages)
        results, events = run_rounds(plan, small_data, FAST, SPACE, rng_seed=3)
        train_ids = {i.id for lang in small_data.languages for i in small_data.train[lang]}
        assert {e.instance_id for e in events} <= train_ids
        total_spent = sum(e.cost for e in events)
        assert total_spent == sum(sum(r.spend.values()) for r in results)
        assert total_spent <= SPEC.acq_budget

    def test_deterministic(self, small_data):
        plan = allocate(sma(), SPEC, small_data.languages)
        a = run_rounds(plan, small_data, FAST, SPACE, rng_seed=4)
        b = run_rounds(plan, small_data, FAST, SPACE, rng_seed=4)
        assert a == b

    def test_seed_changes_results(self, small_data):
        plan = allocate(sma(), SPEC, small_data.languages)
        a = run_rounds(plan, small_data, FAST, SPACE, rng_seed=4)
        b = run_rounds(plan, small_data, FAST, SPACE, rng_seed=5)
        assert a != b

    def test_without_al_uses_random(self, small_data):
        plan = allocate(sma(with_al=False), SPEC, small_data.languages)
        _, events = run_rounds(plan, small_data, FAST, SPACE, rng_seed=6)
        assert {e.strategy for e in events} == {"random"}
        assert all(0.0 <= e.score < 1.0 for e in events)

    def test_single_language_degeneracy(self, mono_data):
        spec = BudgetSpec(40, 30, 20, rounds=3, unit=BudgetUnit.INSTANCE)
        outputs = []
        for setting in (
            sma(),
            Setting(SettingFamily.MMA, StrategyKind.LC),
            Setting(SettingFamily.MONOA, StrategyKind.LC, source="solo"),
        ):
            plan = allocate(setting, spec, mono_data.languages)
            outputs.append(run_rounds(plan, mono_data, FAST, SPACE, rng_seed=9))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_pool_exhaustion_warns(self):
        data = synth_classification(["aa"], 30, 10, 0.5, seed=8)
        spec = BudgetSpec(10, 60, 10, rounds=2, unit=BudgetUnit.INSTANCE)
        plan = allocate(sma(), spec, data.languages)
        results, _ = run_rounds(plan, data, FAST, SPACE, rng_seed=1)
        assert any("exhausted" in w for r in results for w in r.warnings)

    def test_tagging_task_runs(self):
        data = synth_tagging(["aa", "bb"], 40, 10, 0.5, seed=3)
        spec = BudgetSpec(80, 60, 60, rounds=2, unit=BudgetUnit.TOKEN)
        plan = allocate(
            Setting(SettingFamily.SMA, StrategyKind.MNLP, True), spec, data.languages
        )
        results, events = run_rounds(plan, data, FAST, SPACE, rng_seed=1)
        assert len(results) == 2
        assert all("f1" in m for r in results for m in r.report.per_language.values())
        assert sum(e.cost for e in events) <= 60

    def test_parsing_task_runs(self):
        data = synth_parsing(["aa", "bb"], 30, 8, 0.5, seed=3)
        spec = BudgetSpec(60, 40, 40, rounds=2, unit=BudgetUnit.TOKEN)
        plan = allocate(
            Setting(SettingFamily.SMA, StrategyKind.NLPDT, True), spec, data.languages
        )
        results, events = run_rounds(plan, data, FAST, SPACE, rng_seed=1)
        assert all("las" in m for r in results for m in r.report.per_language.values())
        assert all(e.score <= 0.0 for e in events)  # log-prob based scores

    @pytest.mark.parametrize("make_data, strategy", [
        (lambda: synth_classification(["aa"], 30, 5, 0.5, seed=1), StrategyKind.LC),
        (lambda: synth_tagging(["aa"], 20, 5, 0.5, seed=1), StrategyKind.MNLP),
        (lambda: synth_parsing(["aa"], 10, 5, 0.5, seed=1), StrategyKind.NLPDT_GLOBAL),
    ], ids=["classification", "tagging", "parsing"])
    def test_exhausted_pool_scores_and_buys_nothing(self, make_data, strategy):
        # an arm whose unlabeled pool has run out still scores and buys each round
        data = make_data()
        model = build_model(data.task, SPACE)
        model.fit(model.evaluation_set(data.train["aa"][:8]), model.evaluation_set(data.train["aa"][8:]), FAST)
        for kind in (strategy, StrategyKind.RANDOM):
            scores = experiment._score_pool(model, featurize(data, SPACE), np.zeros(0, dtype=np.int64),
                                            kind, np.random.default_rng(0))
            assert scores.dtype == np.float64 and scores.shape == (0,)
            chosen, spent = select_ranked(np.zeros(0, dtype=np.int64), scores,
                                          np.zeros(0, dtype=np.int64), 3)
            assert chosen.tolist() == [] and spent == 0

    def test_random_pool_scores_are_those_of_random_scores(self, small_data):
        pool = small_data.train["bb"][::-1]
        corpus = featurize(small_data, SPACE)
        positions = corpus.locate(pool)
        scores = experiment._score_pool(None, corpus, positions, StrategyKind.RANDOM,
                                        np.random.default_rng(9))
        expected = random_scores([i.id for i in pool], np.random.default_rng(9))
        assert corpus.ids[positions].tolist() == list(expected)
        assert scores.tolist() == list(expected.values())

    @pytest.mark.parametrize("with_al", [True, False])
    def test_event_scores_are_python_floats(self, small_data, with_al):
        # so that the acquisition log writes them as `repr` of a float
        plan = allocate(Setting(SettingFamily.SMA, StrategyKind.LC, with_al), SPEC,
                        small_data.languages)
        _, events = run_rounds(plan, small_data, FAST, SPACE, rng_seed=2)
        assert events and all(type(e.score) is float for e in events)


class TestRunArms:
    @pytest.mark.parametrize(
        "make_data, family, strategy, unit, budgets",
        [
            (lambda: synth_classification(["aa", "bb", "cc"], 150, 40, 0.5, seed=5),
             SettingFamily.SMA, StrategyKind.LC, BudgetUnit.INSTANCE, (40, 30, 20)),
            (lambda: synth_tagging(["aa", "bb"], 40, 10, 0.5, seed=3),
             SettingFamily.MMA, StrategyKind.MNLP, BudgetUnit.TOKEN, (80, 60, 60)),
            (lambda: synth_parsing(["aa", "bb"], 30, 8, 0.5, seed=3),
             SettingFamily.MMA, StrategyKind.NLPDT, BudgetUnit.TOKEN, (60, 40, 40)),
        ],
        ids=["classification", "tagging", "parsing"],
    )
    def test_each_arm_equals_its_own_run(self, make_data, family, strategy, unit, budgets):
        data = make_data()
        spec = BudgetSpec(*budgets, rounds=3, unit=unit)
        together = run_arms(allocate(Setting(family, strategy), spec, data.languages),
                            featurize(data, SPACE), FAST, rng_seed=3, arms=(True, False))[0]
        assert sorted(together) == [False, True]
        for with_al in (True, False):
            plan = allocate(Setting(family, strategy, with_al), spec, data.languages)
            alone = run_rounds(plan, data, FAST, SPACE, rng_seed=3)
            # reports, spend, validation and warnings of every round, and the events
            assert together[with_al] == alone
            assert alone[1] and {e.strategy for e in alone[1]} == {
                strategy.value if with_al else "random"}
        # the arms share round 0 and part ways after it
        assert together[True][0][0] == together[False][0][0]
        assert together[True][1] != together[False][1]

    @pytest.fixture
    def fitted(self, monkeypatch):
        """The languages of the labeled pool of each fit, in fit order."""
        fit, keys = experiment._fit_and_evaluate, []

        def recorded(mp, corpus, labeled, *args):
            keys.append("+".join(sorted({corpus.members[k].language for k in labeled.tolist()})))
            return fit(mp, corpus, labeled, *args)

        monkeypatch.setattr(experiment, "_fit_and_evaluate", recorded)
        return keys

    @pytest.mark.parametrize(
        "setting, bb_size, budgets, fits, exhausted",
        [
            # aa's pool holds 40 unlabeled and buys 30 a round: the arms part in
            # round 1 and both hold the whole pool from round 2 on
            (Setting(SettingFamily.MONOA, StrategyKind.LC, source="aa"), 100, (40, 90, 20),
             {"aa": 5}, ["aa"]),
            # only bb's model (20 unlabeled, 15 a round) runs out, so only it is shared
            (Setting(SettingFamily.MMA, StrategyKind.LC), 50, (40, 90, 20),
             {"aa": 7, "bb": 5}, ["bb"]),
            # no pool runs out: 1 + 2 * 3 fits, only round 0 is shared
            (Setting(SettingFamily.SMA, StrategyKind.LC), 100, (40, 30, 20),
             {"aa+bb": 7}, []),
        ],
        ids=["monoa-exhausted", "mma-one-exhausted", "never-exhausted"],
    )
    def test_each_distinct_pool_is_fitted_once(self, fitted, setting, bb_size, budgets,
                                               fits, exhausted):
        full = synth_classification(["aa", "bb"], 100, 20, 0.5, seed=5)
        data = MultilingualData(
            full.task, {"aa": full.train["aa"], "bb": full.train["bb"][:bb_size]}, full.test
        )
        spec = BudgetSpec(*budgets, rounds=4)
        together = run_arms(allocate(setting, spec, data.languages), featurize(data, SPACE), FAST,
                            rng_seed=3, arms=(True, False))[0]
        assert Counter(fitted) == fits
        for with_al in (True, False):
            plan = allocate(replace(setting, with_al=with_al), spec, data.languages)
            assert together[with_al] == run_rounds(plan, data, FAST, SPACE, rng_seed=3)
            warned = {w.split(" (")[0] for result in together[with_al][0] for w in result.warnings}
            assert warned == {f"model {lang}: unlabeled pool exhausted at round {r}"
                              for lang in exhausted for r in (2, 3)}
        for lang in exhausted:
            # the arms buy different instances in round 1 and the same pool by round 2
            bought = [
                [{e.instance_id for e in together[with_al][1]
                  if e.language == lang and e.round <= r} for r in (1, 2)]
                for with_al in (True, False)
            ]
            assert bought[0][0] != bought[1][0] and bought[0][1] == bought[1][1]

    def test_only_requested_arms_run(self, small_data):
        plan = allocate(sma(), SPEC, small_data.languages)
        assert list(run_arms(plan, featurize(small_data, SPACE), FAST, 1, (False,))[0]) == [False]

    @pytest.mark.parametrize("setting", [
        sma(), Setting(SettingFamily.MMA, StrategyKind.LC),
        Setting(SettingFamily.MONOA, StrategyKind.LC, source="bb"),
    ], ids=["sma", "mma", "monoa"])
    def test_composition_is_that_of_the_pools_drawn(self, small_data, setting):
        plan = allocate(setting, BudgetSpec(40, 30, 20, rounds=2), small_data.languages)
        corpus = featurize(small_data, SPACE)
        expected = initial_composition(plan, small_data, 3)
        assert set(expected) == {lang for mp in plan.models for lang in mp.languages}
        for arms in [(True, False), (False,), (True,)]:
            assert run_arms(plan, corpus, FAST, 3, arms)[1] == expected

    def test_every_fit_tests_on_the_corpus_test_sets(self, monkeypatch, small_data):
        # two settings on one corpus: no run takes a test language again
        corpus = featurize(small_data, SPACE)
        for lang, group in small_data.test.items():
            assert corpus.tests[lang].payloads == [i.payload for i in sorted(group, key=lambda i: i.id)]
        fit, evaluate, fits = experiment._fit_and_evaluate, models._ModelBase.evaluate, []

        def recorded(mp, *args):
            fits.append((mp.eval_languages, []))
            return fit(mp, *args)

        def recorded_evaluate(model, evaluation):
            fits[-1][1].append(evaluation)
            return evaluate(model, evaluation)

        monkeypatch.setattr(experiment, "_fit_and_evaluate", recorded)
        monkeypatch.setattr(models._ModelBase, "evaluate", recorded_evaluate)
        spec = BudgetSpec(40, 30, 20, rounds=2)
        for setting in (sma(), Setting(SettingFamily.MMA, StrategyKind.LC)):
            run_arms(allocate(setting, spec, small_data.languages), corpus, FAST, 1, (True, False))
        # sma: 1 model x 3 pools; mma: 3 models x 3 pools
        assert len(fits) == 12
        for languages, tested in fits:
            assert len(tested) == len(languages)
            assert all(s is corpus.tests[lang] for lang, s in zip(languages, tested))

    def test_repeated_arm_rejected_before_drawing_pools(self, monkeypatch):
        # run twice, the arm would buy its batches twice: 8 rounds, twice the budget
        data = synth_classification(["aa", "bb"], 80, 20, 0.5, seed=5)
        plan = allocate(sma(), BudgetSpec(20, 15, 10, rounds=4), data.languages)
        corpus = featurize(data, SPACE)
        monkeypatch.setattr(experiment, "_draw_pools", None)
        with pytest.raises(ConfigError, match="arms must be distinct"):
            run_arms(plan, corpus, FAST, 1, (True, True))

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_repeated_instance_id_rejected(self, split):
        data = synth_classification(["aa", "bb"], 20, 5, 0.5, seed=5)
        repeated = replace(getattr(data, split)["bb"][1], id=data.train["aa"][3].id)
        getattr(data, split)["bb"].append(repeated)
        with pytest.raises(DataError, match=f"^instance id {repeated.id} occurs more than once$"):
            featurize(data, SPACE)

    @pytest.mark.parametrize("changed", [{"id": 10_000}, {"cost": 7}], ids=["unknown-id", "other-content"])
    def test_locate_rejects_what_is_not_a_member(self, small_data, changed):
        corpus = featurize(small_data, SPACE)
        outsider = replace(small_data.train["bb"][4], **changed)
        with pytest.raises(DataError, match=f"^instance {outsider.id} is not in the corpus$"):
            corpus.locate([small_data.train["aa"][0], outsider])

    @pytest.mark.parametrize("entry", ["run_arms", "run_rounds"])
    def test_missing_language_rejected_before_drawing_pools(self, monkeypatch, entry):
        data = synth_classification(["aa", "bb"], 80, 20, 0.5, seed=5)
        plan = allocate(sma(), BudgetSpec(20, 15, 10, rounds=4), ["aa", "cc", "dd"])
        corpus = featurize(data, SPACE)
        monkeypatch.setattr(experiment, "_draw_pools", None)
        with pytest.raises(ConfigError, match=r"^plan languages \['cc', 'dd'\] are not in the data$"):
            if entry == "run_arms":
                run_arms(plan, corpus, FAST, 1, (True,))
            else:
                run_rounds(plan, data, FAST, SPACE, rng_seed=1)

    @pytest.mark.parametrize("family", [SettingFamily.SMA, SettingFamily.MMA], ids=["sma", "mma"])
    @pytest.mark.parametrize("make_data, strategy, unit, budgets", [
        (lambda: synth_classification(["aa", "bb", "cc"], 60, 15, 0.5, seed=5),
         StrategyKind.LC, BudgetUnit.INSTANCE, (15, 12, 9)),
        (lambda: synth_tagging(["aa", "bb"], 30, 8, 0.5, seed=3),
         StrategyKind.MNLP, BudgetUnit.TOKEN, (60, 40, 40)),
    ], ids=["classification", "tagging"])
    def test_results_do_not_depend_on_the_order_of_the_data(self, family, make_data, strategy, unit,
                                                           budgets):
        # featurize orders the corpus by id: reversed lists and languages change nothing
        data = make_data()
        reversed_data = MultilingualData(data.task, *(
            {lang: part[lang][::-1] for lang in reversed(list(part))} for part in (data.train, data.test)))
        assert list(reversed_data.train) == list(data.train)[::-1]
        plan = allocate(Setting(family, strategy), BudgetSpec(*budgets, rounds=3, unit=unit), data.languages)
        run = run_rounds(plan, data, FAST, SPACE, rng_seed=2)
        assert run[1] and run_rounds(plan, reversed_data, FAST, SPACE, rng_seed=2) == run

    @pytest.mark.parametrize("family, make_data, strategy, unit, budgets", [
        (SettingFamily.SMA, lambda: synth_classification(["aa", "bb", "cc"], 60, 15, 0.5, seed=5),
         StrategyKind.LC, BudgetUnit.INSTANCE, (15, 12, 9)),
        (SettingFamily.MMA, lambda: synth_tagging(["aa", "bb"], 30, 8, 0.5, seed=3),
         StrategyKind.MNLP, BudgetUnit.TOKEN, (60, 40, 40)),
    ], ids=["sma-classification", "mma-tagging"])
    def test_each_fit_trains_on_its_seed_and_its_buys(self, monkeypatch, family, make_data, strategy,
                                                      unit, budgets):
        data = make_data()
        plan = allocate(Setting(family, strategy), BudgetSpec(*budgets, rounds=4, unit=unit),
                        data.languages)
        fit, fitted = experiment._fit_and_evaluate, []

        def recorded(mp, corpus, labeled, *args):
            # the last argument is the round
            fitted.append((mp.index, args[-1], frozenset(corpus.ids[labeled].tolist())))
            return fit(mp, corpus, labeled, *args)

        monkeypatch.setattr(experiment, "_fit_and_evaluate", recorded)
        runs = run_arms(plan, featurize(data, SPACE), FAST, rng_seed=3, arms=(True, False))[0]
        expected = set()
        for _, events in runs.values():
            for mp, pool in zip(plan.models, experiment._draw_pools(plan, data, 3)):
                own = [e for e in events if e.language in mp.languages]
                bought = [e.instance_id for e in own]
                assert bought and len(set(bought)) == len(bought)
                assert not set(bought) & (pool.labeled.keys() | pool.validation.keys())
                expected |= {(mp.index, r, frozenset(pool.labeled.keys() | {
                    e.instance_id for e in own if e.round <= r})) for r in range(plan.spec.rounds)}
        # one fit per model, round and distinct labeled pool, on exactly the seed and the buys
        assert len(fitted) == len(set(fitted)) and set(fitted) == expected


class TestCurriculum:
    def _events(self, spec):
        return [
            AcquisitionEvent(r, i, lang, cost, 0.0, "lc")
            for i, (r, lang, cost) in enumerate(spec)
        ]

    def test_proportional_acquisition_is_zero(self):
        events = self._events([(1, "aa", 10), (1, "bb", 10), (2, "aa", 10), (2, "bb", 10)])
        report = curriculum(events, {"aa": 500, "bb": 500}, per_round_budget=20)
        for i in (1, 2):
            for lang in ("aa", "bb"):
                assert report.relative_difference[i][lang] == pytest.approx(0.0)

    def test_single_language_takes_all(self):
        events = self._events([(1, "aa", 20)])
        report = curriculum(
            events, {"aa": 100, "bb": 100, "cc": 100, "dd": 100}, per_round_budget=20
        )
        assert report.relative_difference[1]["aa"] == pytest.approx(3.0)
        for lang in ("bb", "cc", "dd"):
            assert report.relative_difference[1][lang] == pytest.approx(-1.0)

    def test_identity_on_random_log(self):
        rng = np.random.default_rng(0)
        langs = ["aa", "bb", "cc"]
        events = []
        i = 0
        for r in (1, 2, 3):
            for _ in range(10):
                events.append(
                    AcquisitionEvent(r, i, langs[int(rng.integers(0, 3))], int(rng.integers(1, 4)), 0.0, "lc")
                )
                i += 1
        composition = {"aa": 300, "bb": 500, "cc": 200}
        report = curriculum(events, composition, per_round_budget=30)
        for round_index in (1, 2, 3):
            assert report.identity_gap(round_index) < 1e-9

    def test_zero_share_language_rejected(self):
        events = self._events([(1, "aa", 5)])
        with pytest.raises(ConfigError):
            curriculum(events, {"aa": 100, "bb": 0}, per_round_budget=5)

    def test_initial_composition_excludes_validation(self, small_data):
        plan = allocate(sma(), SPEC, small_data.languages)
        composition = initial_composition(plan, small_data, rng_seed=4)
        total_costs = {
            lang: sum(i.cost for i in small_data.train[lang])
            for lang in small_data.languages
        }
        assert sum(composition.values()) == sum(total_costs.values()) - SPEC.val_budget
        assert set(composition) == set(small_data.languages)

    def test_empty_log_rejected(self):
        with pytest.raises(ConfigError):
            curriculum([], {"aa": 100}, per_round_budget=5)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_per_round_budget_below_one_rejected(self, budget):
        events = self._events([(1, "aa", 5)])
        with pytest.raises(ConfigError, match="^per-round budget must be positive$"):
            curriculum(events, {"aa": 100, "bb": 100}, per_round_budget=budget)

    def test_spend_ratio_beyond_a_float_rejected(self):
        # each amount fits a float, their sum over a per-round budget of 1 does not
        with pytest.raises(ConfigError, match="^round 1: cumulative spend ratio too large for a float$"):
            CurriculumReport({"aa": 0.5, "bb": 0.5}, {1: {"aa": 10**308, "bb": 10**308}},
                             {1: {"aa": 0.0, "bb": 0.0}}, 1)


def _fake_rounds(metric_value, rounds=2, langs=("aa", "bb")):
    out = []
    for r in range(rounds):
        report = MetricReport(TaskKind.CLASSIFICATION)
        for lang in langs:
            report.add(lang, {"correct": int(metric_value * 100), "total": 100})
        out.append(report.per_language)
    return out


class TestAggregate:
    def test_single_replicate(self):
        report = aggregate([_fake_rounds(0.8)])
        assert report.mean["accuracy"] == pytest.approx(0.8)
        assert report.stddev["accuracy"] == 0.0

    def test_two_replicates(self):
        report = aggregate([_fake_rounds(0.7), _fake_rounds(0.9)])
        assert report.mean["accuracy"] == pytest.approx(0.8)
        assert report.stddev["accuracy"] == pytest.approx(0.1414, abs=1e-4)

    def test_recomputable_from_round_results(self, small_data):
        plan = allocate(sma(), SPEC, small_data.languages)
        replicates = [
            [result.report.per_language for result in run_rounds(plan, small_data, FAST, SPACE, rng_seed=s)[0]]
            for s in (1, 2)
        ]
        first = aggregate(replicates)
        second = aggregate(replicates)
        assert first == second

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            aggregate([])
