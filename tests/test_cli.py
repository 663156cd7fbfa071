import hashlib
import json
import os
import shutil
import time
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import pytest

import lingalloc.cli as cli
import lingalloc.experiment as experiment
import lingalloc.models as models
from lingalloc.cli import load_data, main, run_cell, validate_config
from lingalloc.corpus import ingest_conll_ner, ingest_conllu
from lingalloc.errors import ConfigError, ParseError
from lingalloc.experiment import AcquisitionEvent, BudgetSpec, aggregate, curriculum
from lingalloc.synth import synth_dataset
from lingalloc.tasks import BudgetUnit, TaskKind


def _write_corpus(root: Path, languages=("aa", "bb"), train=80, test=20, seed=7):
    root.mkdir(parents=True, exist_ok=True)
    rc = main(
        [
            "synth",
            "--task", "classification",
            "--languages", ",".join(languages),
            "--train-size", str(train),
            "--test-size", str(test),
            "--overlap", "0.5",
            "--seed", str(seed),
            "--budget", "16",
            "--out", str(root),
        ]
    )
    assert rc == 0
    return root / "config.json"


def _small_config(root: Path, **overrides) -> Path:
    config_path = _write_corpus(root)
    cfg = json.loads(config_path.read_text())
    cfg["settings"] = [{"kind": "sma", "strategy": "lc"}, {"kind": "mma", "strategy": "lc"}]
    cfg["budget"] = {"seed": 16, "rounds": 3}
    cfg["training"] = {"learning_rates": [0.5], "max_epochs": 4, "patience": 4}
    cfg["feature_space"] = {"hash_dimension": 1024}
    cfg.update(overrides)
    config_path.write_text(json.dumps(cfg, indent=2))
    return config_path


def _tree_bytes(root: Path, subdirs=("results", "logs")) -> dict[str, bytes]:
    out = {}
    for sub in subdirs:
        base = root / sub
        if base.is_dir():
            for path in sorted(base.rglob("*")):
                if path.is_file():
                    out[str(path.relative_to(root))] = path.read_bytes()
    out["summary.csv"] = (root / "summary.csv").read_bytes()
    return out


def _slow_after_the_first(config, task, out_dir):
    """A `run_cell` for pool workers: records the task's start in `out_dir`,
    sleeps in every task but the first to start, then runs the task."""
    started = Path(out_dir) / "started"
    started.mkdir(exist_ok=True)
    (started / task["key"]).touch()
    try:
        os.close(os.open(started / ".first", os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        time.sleep(0.2)
    return run_cell(config, task, out_dir)


def _dies_in_sma(config, task, out_dir):
    """A `run_cell` for pool workers whose process ends abruptly in the SMA setting."""
    if task["key"] == "sma.lc":
        os._exit(1)
    return run_cell(config, task, out_dir)


# what `report` says of a results line and of a curriculum sidecar without any of their keys
RECORD_KEYS = "; ".join(f"record.{key}: expected {what}, got None" for key, what in [
    ("cell", "a string"), ("setting", "a string"), ("strategy", "a string"), ("al", "a boolean"),
    ("replicate", "an integer"), ("round", "an integer"), ("metrics", "an object"),
    ("counts", "an object"), ("spend", "an object"), ("validation", "an object"),
    ("warnings", "a list"),
])
SIDECAR_KEYS = "; ".join(f"curriculum.{key}: expected {what}, got None" for key, what in [
    ("acquired", "an object"), ("relative_difference", "an object"),
    ("per_round_budget", "an integer"),
])
RESULTS = "results/mma.lc.noal.jsonl"
SIDECAR = "logs/sma.lc.al.rep1.curriculum.json"
# a sidecar of one round, in which two languages of equal share get 4 of 8 units each
EQUAL_SHARES = {"alphas": {"aa": 0.5, "bb": 0.5}, "acquired": {"1": {"aa": 4, "bb": 4}},
                "per_round_budget": 8}
KINDS = "['mma', 'monoa', 'sma']"
STRATEGIES = "['lc', 'mnlp', 'nlpdt', 'nlpdt_global', 'nlpdt_n2', 'random']"


class TestValidateConfig:
    def test_minimal_config_echoes_defaults(self, tmp_path):
        config_path = _write_corpus(tmp_path / "corpus")
        config, errors = validate_config(config_path)
        assert errors == []
        assert config.budget.rounds == 4
        assert config.budget.acq_budget == config.budget.seed_budget
        assert config.budget.val_budget == config.budget.seed_budget
        assert config.training.patience == 25
        assert config.training.max_epochs == 75
        assert config.training.batch_size == 32
        assert config.replicates == 1
        assert config.max_length == 256  # classification truncates, not drops

    def test_max_length_default_for_token_tasks(self, tmp_path):
        out = tmp_path / "corpus"
        rc = main(
            [
                "synth", "--task", "tagging", "--languages", "aa,bb",
                "--train-size", "30", "--test-size", "8",
                "--overlap", "0.5", "--seed", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        config, errors = validate_config(out / "config.json")
        assert errors == []
        assert config.max_length == 175

    def test_unknown_key_rejected(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus", foo=1)
        config, errors = validate_config(config_path)
        assert config is None
        assert any("foo" in e for e in errors)

    def test_unknown_nested_key_rejected(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus")
        cfg = json.loads(config_path.read_text())
        cfg["budget"]["bogus"] = 1
        config_path.write_text(json.dumps(cfg))
        config, errors = validate_config(config_path)
        assert config is None
        assert any("budget: unknown key 'bogus'" in e for e in errors)

    def test_mma_budget_error_surfaced(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus")
        cfg = json.loads(config_path.read_text())
        cfg["budget"] = {"seed": 1, "rounds": 3}
        config_path.write_text(json.dumps(cfg))
        config, errors = validate_config(config_path)
        assert config is None
        assert any("mma" in e for e in errors)

    def test_budget_leaving_a_model_nothing_per_round_rejected(self, tmp_path, capsys):
        # 8 // 3 languages = 2 per MMA model (settings[1]), 2 // 3 acquisition rounds = 0
        config_path = _write_corpus(tmp_path / "corpus", languages=("aa", "bb", "cc"))
        cfg = json.loads(config_path.read_text())
        cfg["budget"] = {"seed": 60, "acquisition": 8, "rounds": 4}
        config_path.write_text(json.dumps(cfg))
        expected = ("error: settings[1]: mma needs an acquisition budget of at least one per "
                    "model and acquisition round\n")
        assert main(["validate", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == expected
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_missing_file_reported(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus")
        cfg = json.loads(config_path.read_text())
        cfg["data"]["aa"]["train"] = "nope.tsv"
        config_path.write_text(json.dumps(cfg))
        config, errors = validate_config(config_path)
        assert config is None
        assert any("not found" in e for e in errors)

    def test_errors_are_exhaustive(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus", foo=1, replicates=0)
        cfg = json.loads(config_path.read_text())
        cfg["data"]["aa"]["train"] = "nope.tsv"
        config_path.write_text(json.dumps(cfg))
        _, errors = validate_config(config_path)
        assert len(errors) >= 3

    def test_strategy_task_compatibility(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus")
        cfg = json.loads(config_path.read_text())
        cfg["settings"] = [{"kind": "sma", "strategy": "mnlp"}]
        config_path.write_text(json.dumps(cfg))
        config, errors = validate_config(config_path)
        assert config is None
        assert any("incompatible" in e for e in errors)

    @pytest.mark.parametrize("task", ["classification", "tagging", "parsing"])
    def test_round_trip(self, tmp_path, task):
        out = tmp_path / "corpus"
        rc = main(
            [
                "synth", "--task", task, "--languages", "aa,bb",
                "--train-size", "30", "--test-size", "8",
                "--overlap", "0.5", "--seed", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        cfg = json.loads((out / "config.json").read_text())
        # every section off its default, so a key dropped from the echo shows
        cfg.update(
            budget={"seed": 40, "acquisition": 30, "validation": 20, "rounds": 3},
            training={"learning_rates": [0.25, 1], "batch_size": 8, "max_epochs": 5,
                      "patience": 2, "l2": 0.001},
            feature_space={"hash_dimension": 2048, "ngram_min": 1, "ngram_max": 3},
            replicates=2, seed=5, max_length=50, output_dir="elsewhere",
        )
        first_path = out / "config.json"
        first_path.write_text(json.dumps(cfg))
        config, errors = validate_config(first_path)
        assert errors == []
        echo = json.loads(json.dumps(config.to_json_dict()))
        for key in ("budget", "training", "feature_space", "replicates", "seed", "max_length",
                    "settings", "languages"):
            assert echo[key] == cfg[key]
        second_path = tmp_path / "echo.json"
        second_path.write_text(json.dumps(echo))
        second, errors = validate_config(second_path)
        assert errors == []
        assert second == config

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "seed", -1),
            (None, "replicates", True),
            (None, "max_length", True),
            ("training", "learning_rates", "0.5"),
            ("training", "learning_rates", [-0.5]),
            ("training", "batch_size", 2.7),
            ("training", "l2", float("nan")),
            ("budget", "seed", "12"),
            ("feature_space", "hash_dimension", 4096.0),
        ],
    )
    def test_values_that_would_break_run_rejected(self, tmp_path, capsys, section, key, value):
        config_path = _small_config(tmp_path / "corpus")
        cfg = json.loads(config_path.read_text())
        (cfg if section is None else cfg[section])[key] = value
        config_path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(config_path)]) == 1
        assert (section or key) in capsys.readouterr().err

    def test_repeated_learning_rate_rejected(self, tmp_path, capsys):
        config_path = _small_config(tmp_path / "corpus")
        cfg = json.loads(config_path.read_text())
        cfg["training"]["learning_rates"] = [0.5, 0.5]
        config_path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: training: learning rates must be distinct"]

    @pytest.mark.parametrize("value", [[], {}], ids=["list", "object"])
    @pytest.mark.parametrize("key", ["kind", "strategy", "task"])
    def test_enum_given_as_list_or_object_rejected(self, tmp_path, capsys, key, value):
        config_path = _small_config(tmp_path / "corpus")
        cfg = json.loads(config_path.read_text())
        (cfg if key == "task" else cfg["settings"][0])[key] = value
        config_path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(config_path)]) == 1
        where = key if key == "task" else f"settings[0].{key}"
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {where}: expected one of [") and line.endswith(f"], got {value!r}")

    @pytest.mark.parametrize("entry, expected", [
        ({"kind": "xx", "strategy": "lc"}, [f"settings[0].kind: expected one of {KINDS}, got 'xx'"]),
        ({"strategy": "lc"}, [f"settings[0].kind: expected one of {KINDS}, got None"]),
        ({"kind": "sma"}, [f"settings[0].strategy: expected one of {STRATEGIES}, got None"]),
        ({"kind": "xx", "strategy": "yy"}, [f"settings[0].kind: expected one of {KINDS}, got 'xx'",
                                            f"settings[0].strategy: expected one of {STRATEGIES}, got 'yy'"]),
        ({"kind": "monoa", "strategy": "lc", "source": 5}, ["settings[0].source: expected a string, got 5"]),
        ({"kind": "sma", "strategy": "lc", "source": "zz"}, ["settings[0]: sma takes no source language"]),
        ({"kind": "monoa", "strategy": "lc", "source": "zz"}, ["settings[0].source: 'zz' not in language set"]),
        ({"kind": "monoa", "strategy": "mnlp"}, ["settings[0]: monoa requires a source language"]),
        ({"kind": "sma", "strategy": "lc", "foo": 1}, ["settings[0]: unknown key 'foo'"]),
        (5, ["settings[0]: must be an object"]),
    ], ids=["bad-kind", "no-kind", "no-strategy", "bad-kind-and-strategy", "int-source",
            "sma-unknown-source", "monoa-unknown-source", "monoa-no-source", "unknown-key",
            "not-an-object"])
    def test_setting_entry_errors(self, tmp_path, entry, expected):
        config, errors = validate_config(_small_config(tmp_path / "corpus", settings=[entry]))
        assert config is None
        assert errors == expected

    def test_negative_seed_override_rejected(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out), "--seed", "-1"]) == 1
        assert not (out / "results").exists()

    def test_duplicate_settings_rejected(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus")
        cfg = json.loads(config_path.read_text())
        cfg["settings"].append({"kind": "sma", "strategy": "lc"})
        config_path.write_text(json.dumps(cfg))
        config, errors = validate_config(config_path)
        assert config is None
        assert errors == ["settings[2]: duplicate of settings[0]"]

    def test_invalid_language_code_rejected(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus")
        cfg = json.loads(config_path.read_text())
        cfg["languages"] = ["AA", "bb"]
        cfg["data"]["AA"] = cfg["data"].pop("aa")
        config_path.write_text(json.dumps(cfg))
        config, errors = validate_config(config_path)
        assert config is None
        assert any("invalid language code 'AA'" in e for e in errors)

    def test_validate_command_exit_codes(self, tmp_path, capsys):
        good = _small_config(tmp_path / "corpus")
        assert main(["validate", "--config", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{\"task\": \"nope\"}")
        assert main(["validate", "--config", str(bad)]) == 1

    def test_integer_of_too_many_digits_cannot_be_read(self, tmp_path, capsys):
        # `json` reads an integer of at most 4300 digits
        config_path = _small_config(tmp_path / "corpus")
        text = config_path.read_text()
        config_path.write_text(text.replace("{", '{"replicates": 1' + "0" * 5000 + ",", 1))
        assert main(["validate", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            "error: cannot read config: Exceeds the limit (4300 digits) for integer string "
            "conversion: value has 5001 digits; use sys.set_int_max_str_digits() to increase "
            "the limit\n")


    @pytest.mark.parametrize("change, expected", [
        (lambda cfg: cfg.update(languages="aa"), ["data.aa: language not in the language set",
                                                  "data.bb: language not in the language set",
                                                  "languages: expected a list, got 'aa'"]),
        (lambda cfg: cfg["languages"].append(5), ["languages[2]: expected a string, got 5"]),
        (lambda cfg: cfg.update(data=5), ["data: expected an object, got 5"]),
        (lambda cfg: cfg["data"].update(aa=5), ["data.aa: expected an object, got 5"]),
        (lambda cfg: cfg["data"]["aa"].update(train=5), ["data.aa.train: expected a string, got 5"]),
        (lambda cfg: cfg.update(budget=5), ["budget: must be an object"]),
        (lambda cfg: cfg.pop("budget"), ["budget: must be an object"]),
        (lambda cfg: cfg.update(budget={"rounds": 3}), ["budget.seed: expected an integer, got None"]),
        (lambda cfg: cfg["budget"].update(acquisition=None),
         ["budget.acquisition: expected an integer, got None"]),
        (lambda cfg: cfg.update(settings={"kind": "sma"}),
         ["settings: expected a list, got {'kind': 'sma'}"]),
        (lambda cfg: cfg.update(replicates="3"), ["replicates: expected an integer, got '3'"]),
        (lambda cfg: cfg.update(seed=1.0), ["seed: expected an integer, got 1.0"]),
        (lambda cfg: cfg.update(max_length=None), ["max_length: expected an integer, got None"]),
        (lambda cfg: cfg.pop("output_dir"), ["output_dir: expected a string, got None"]),
    ], ids=["languages-string", "language-number", "data-number", "data-entry-number",
            "path-number", "budget-number", "no-budget", "budget-without-seed",
            "acquisition-null", "settings-object", "replicates-string", "seed-float",
            "max-length-null", "no-output-dir"])
    def test_wrongly_typed_value_reported_by_the_schema(self, tmp_path, capsys, change, expected):
        config_path = _small_config(tmp_path / "corpus")
        cfg = json.loads(config_path.read_text())
        change(cfg)
        config_path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == "".join(f"error: {line}\n" for line in expected)

    def test_type_error_hides_no_rule_error(self, tmp_path, capsys):
        config_path = _small_config(tmp_path / "corpus", training={"batch_size": "x"}, replicates=0)
        cfg = json.loads(config_path.read_text())
        cfg["data"]["aa"]["train"] = "nope.tsv"
        config_path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: data.aa.train: file not found: {(config_path.parent / 'nope.tsv').resolve()}\n"
            "error: replicates: must be an integer >= 1, got 0\n"
            "error: training.batch_size: expected an integer, got 'x'\n")

    def test_budget_defaults_to_the_seed_budget(self):
        assert BudgetSpec(60) == BudgetSpec(60, 60, 60)
        assert BudgetSpec(60, val_budget=10) == BudgetSpec(60, 60, 10)

    def test_tagging_pool_warning_counts_tokens(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["synth", "--task", "tagging", "--languages", "aa,bb", "--train-size", "30",
                     "--test-size", "8", "--budget", "400", "--out", str(out)]) == 0
        capsys.readouterr()
        assert validate_config(out / "config.json")[0].budget.unit is BudgetUnit.TOKEN
        assert main(["validate", "--config", str(out / "config.json")]) == 0
        lines = capsys.readouterr().err.splitlines()
        # a MonoA model needs seed 400 + validation 400 + acquisition 399 from one language
        assert lines and all(line.startswith("warning: ") and " tokens (seed " in line for line in lines)
        assert any(" needs 1199 tokens " in line for line in lines)

    @pytest.mark.parametrize("train_size, warned", [(120, ["aa", "bb", "cc"]), (240, [])])
    def test_validate_warns_when_a_pool_is_too_small(self, tmp_path, capsys, train_size, warned):
        out = tmp_path / "corpus"
        assert main(["synth", "--task", "classification", "--languages", "aa,bb,cc",
                     "--train-size", str(train_size), "--budget", "60", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["validate", "--config", str(out / "config.json")]) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        # a MonoA model needs seed 60 + validation 60 + acquisition 60 from one language
        assert [line.split()[1] for line in lines] == [f"monoa-{lang}.lc:" for lang in warned]
        assert all(line.startswith("warning: ") and "needs 180 instances" in line for line in lines)
        assert json.loads(captured.out)["task"] == "classification"

class TestLoadData:
    def test_loads_and_filters(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus")
        config, _ = validate_config(config_path)
        data = load_data(config)
        assert data.languages == ("aa", "bb")
        all_ids = [
            i.id
            for part in (data.train, data.test)
            for lang in part
            for i in part[lang]
        ]
        assert len(all_ids) == len(set(all_ids))

    def test_shared_mixed_language_tsv(self, tmp_path):
        # one TSV holding both languages, referenced by each language entry
        root = tmp_path / "corpus"
        root.mkdir()
        rows = ["label\tlanguage\ttext"]
        for i in range(30):
            rows.append(f"pos\taa\taa text number {i}")
            rows.append(f"neg\tbb\tbb text number {i}")
        for name in ("all.train.tsv", "all.test.tsv"):
            (root / name).write_text("\n".join(rows) + "\n", encoding="utf-8")
        config_path = root / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "task": "classification",
                    "languages": ["aa", "bb"],
                    "data": {
                        lang: {"train": "all.train.tsv", "test": "all.test.tsv"}
                        for lang in ("aa", "bb")
                    },
                    "settings": [{"kind": "sma", "strategy": "lc"}],
                    "budget": {"seed": 10, "rounds": 2},
                    "output_dir": "runs",
                }
            )
        )
        config, errors = validate_config(config_path)
        assert errors == []
        data = load_data(config)
        all_ids = [
            i.id
            for part in (data.train, data.test)
            for lang in part
            for i in part[lang]
        ]
        assert len(all_ids) == len(set(all_ids))
        assert len(data.train["aa"]) == 30
        assert all(i.language == "bb" for i in data.train["bb"])
        # every read numbers all 60 rows of its file, aa's on the even ids and bb's on the odd
        assert {(split, lang): [i.id for i in part[lang]]
                for split, part in (("train", data.train), ("test", data.test))
                for lang in part} == {
            ("train", "aa"): list(range(0, 60, 2)), ("train", "bb"): list(range(61, 120, 2)),
            ("test", "aa"): list(range(120, 180, 2)), ("test", "bb"): list(range(181, 240, 2)),
        }

    @pytest.mark.parametrize("task, ext, sentence", [
        ("tagging", "conll", "{word} B-PER\nx O\n\n"),
        ("parsing", "conllu",
         "1\t{word}\t_\tX\t_\t_\t0\troot\t_\t_\n2\tx\t_\tX\t_\t_\t1\tdep\t_\t_\n\n"),
    ])
    def test_one_language_files_take_contiguous_ids(self, tmp_path, task, ext, sentence):
        root = tmp_path / "corpus"
        assert main(["synth", "--task", task, "--languages", "aa,bb", "--train-size", "40",
                     "--test-size", "10", "--budget", "8", "--out", str(root)]) == 0
        sizes = {("train", "aa"): 3, ("train", "bb"): 2, ("test", "aa"): 2, ("test", "bb"): 1}
        for (split, lang), size in sizes.items():
            text = "".join(sentence.format(word=f"{lang}-{split}-{k}") for k in range(size))
            (root / f"{lang}.{split}.{ext}").write_text(text, encoding="utf-8")
        config, errors = validate_config(root / "config.json")
        assert errors == []
        data = load_data(config)
        assert {(split, lang): [i.id for i in part[lang]]
                for split, part in (("train", data.train), ("test", data.test))
                for lang in part} == {
            ("train", "aa"): [0, 1, 2], ("train", "bb"): [3, 4],
            ("test", "aa"): [5, 6], ("test", "bb"): [7],
        }


    @pytest.mark.parametrize("task, name, text", [
        ("classification", "bb.test.tsv", "label\tlanguage\ttext\n"),
        ("classification", "bb.test.tsv", "label\tlanguage\ttext\npos\taa\tan aa row\n"),
        ("tagging", "bb.test.conll", ""),
        ("parsing", "bb.test.conllu", ""),
        ("classification", "bb.train.tsv", "label\tlanguage\ttext\n"),
        ("classification", "bb.train.tsv", "label\tlanguage\ttext\npos\taa\tan aa row\n"),
        ("tagging", "bb.train.conll", ""),
        ("parsing", "bb.train.conllu", ""),
    ])
    def test_language_without_test_instances_is_rejected(self, tmp_path, capsys, task, name, text):
        """An empty test or training split of a language fails `validate` and `run` alike."""
        root = tmp_path / "corpus"
        assert main(["synth", "--task", task, "--languages", "aa,bb", "--train-size", "40",
                     "--test-size", "10", "--budget", "8", "--out", str(root)]) == 0
        (root / name).write_text(text, encoding="utf-8")
        config_path = str(root / "config.json")
        out = tmp_path / "out"
        capsys.readouterr()
        for command in (["validate"], ["run", "--out", str(out)]):
            assert main([*command, "--config", config_path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            split = name.split(".")[1]
            assert captured.err == f"error: data.bb.{split}: no bb instances in {(root / name).resolve()}\n"
        # rejected before any model is trained
        assert not (out / "results").exists() and not (out / "logs").exists()

    @pytest.mark.parametrize("task, name, column, field", [
        ("classification", "bb.test.tsv", 0, "label"),
        ("parsing", "bb.test.conllu", 6, "heads"),
    ])
    def test_unannotated_test_split_is_rejected(self, tmp_path, capsys, task, name, column, field):
        """A test split whose gold column is all blank fails `validate` and
        `run` before any training, naming the split, the file and its first
        instance without gold; a training split may lack gold (`fit` skips it)."""
        root = tmp_path / "corpus"
        assert main(["synth", "--task", task, "--languages", "aa,bb", "--train-size", "40",
                     "--test-size", "10", "--budget", "8", "--out", str(root)]) == 0
        path = root / name
        blank = "" if task == "classification" else "_"
        original = path.read_text(encoding="utf-8")
        lines = original.split("\n")
        for k, line in enumerate(lines):
            cols = line.split("\t")
            if len(cols) > column and not line.startswith(("#", "label\t")):
                cols[column] = blank
                lines[k] = "\t".join(cols)
        path.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        for command in (["validate"], ["run", "--out", str(out)]):
            assert main([*command, "--config", str(root / "config.json")]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: data.bb.test: instance 1 of {path.resolve()} has no gold {field}\n"
        assert not (out / "results").exists() and not (out / "logs").exists()
        # the same split as training data is accepted
        (root / name.replace("test", "train")).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        path.write_text(original, encoding="utf-8")
        assert main(["validate", "--config", str(root / "config.json")]) == 0

    @pytest.mark.parametrize("task, ext", [
        ("classification", "tsv"), ("tagging", "conll"), ("parsing", "conllu")])
    def test_byte_not_utf8_is_one_error_line(self, tmp_path, capsys, task, ext):
        """`validate` and `run` name the path and line of a byte that is not UTF-8."""
        root = tmp_path / "corpus"
        assert main(["synth", "--task", task, "--languages", "aa,bb", "--train-size", "40",
                     "--test-size", "10", "--budget", "8", "--out", str(root)]) == 0
        path = root / f"bb.train.{ext}"
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:1] + b"\xe9" + lines[2][1:]
        path.write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        capsys.readouterr()
        for command in (["validate"], ["run", "--out", str(out)]):
            assert main([*command, "--config", str(root / "config.json")]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {path.resolve()}:3: byte 0xe9 is not UTF-8\n"
        assert not (out / "results").exists() and not (out / "manifest.json").exists()

    def test_conllu_word_id_out_of_place_is_one_error_line(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        assert main(["synth", "--task", "parsing", "--languages", "aa,bb", "--train-size", "40",
                     "--test-size", "10", "--budget", "8", "--out", str(root)]) == 0
        path = root / "bb.train.conllu"
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[1].startswith("2\t")
        lines[1] = "1" + lines[1][1:]
        path.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", "--config", str(root / "config.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path.resolve()}:2: expected word id 2, got '1'\n"


class TestRunCommand:
    def test_run_writes_expected_files(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "manifest.json").is_file()
        assert (out / "summary.csv").is_file()
        for cell in ("sma.lc.al", "sma.lc.noal", "mma.lc.al", "mma.lc.noal"):
            assert (out / "results" / f"{cell}.jsonl").is_file()
            assert (out / "logs" / f"{cell}.rep0.acquisition.csv").is_file()

    def test_rerun_byte_identical(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus")
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert main(["run", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(out2)]) == 0
        assert _tree_bytes(out1) == _tree_bytes(out2)

    def test_jobs_do_not_change_results(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus")
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        assert main(["run", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(config_path), "--jobs", "2", "--out", str(out2)]) == 0
        assert _tree_bytes(out1) == _tree_bytes(out2)

    def test_failed_cell_marks_manifest_and_exit_2(self, tmp_path, monkeypatch):
        config_path = _small_config(tmp_path / "corpus")
        out = tmp_path / "out"

        def failing(config_dict, task, out_dir):
            if task["key"] == "sma.lc":
                raise RuntimeError("injected failure")
            return run_cell(config_dict, task, out_dir)

        monkeypatch.setattr(cli, "run_cell", failing)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        statuses = {key: entry["status"] for key, entry in manifest["cells"].items()}
        # only the failing setting's arms are incomplete
        assert statuses == {"sma.lc.al": "incomplete", "sma.lc.noal": "incomplete",
                            "mma.lc.al": "complete", "mma.lc.noal": "complete"}
        assert sorted(p.name for p in (out / "results").iterdir()) == [
            "mma.lc.al.jsonl", "mma.lc.noal.jsonl"]

    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch):
        config_path = _small_config(tmp_path / "corpus")
        out = tmp_path / "out"

        def failing(config_dict, task, out_dir):
            if task["key"] == "sma.lc":
                raise RuntimeError("injected failure")
            return run_cell(config_dict, task, out_dir)

        monkeypatch.setattr(cli, "run_cell", failing)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        monkeypatch.undo()

        calls = []

        def counting(config_dict, task, out_dir):
            calls.append([cli._cell_key(task["setting"], with_al) for with_al in task["arms"]])
            return run_cell(config_dict, task, out_dir)

        monkeypatch.setattr(cli, "run_cell", counting)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        # exactly the incomplete arms, in one task
        assert calls == [["sma.lc.al", "sma.lc.noal"]]
        fresh = tmp_path / "fresh"
        monkeypatch.undo()
        assert main(["run", "--config", str(config_path), "--out", str(fresh)]) == 0
        assert _tree_bytes(out) == _tree_bytes(fresh)

    def test_resume_with_only_the_random_arm_pending(self, tmp_path, monkeypatch, capsys):
        config_path = _small_config(tmp_path / "corpus")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        (out / "results" / "sma.lc.noal.jsonl").unlink()
        calls = []

        def counting(config_dict, task, out_dir):
            calls.append([cli._cell_key(task["setting"], with_al) for with_al in task["arms"]])
            return run_cell(config_dict, task, out_dir)

        monkeypatch.setattr(cli, "run_cell", counting)
        capsys.readouterr()
        assert main(["run", "--config", str(config_path), "--jobs", "2", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert calls == [["sma.lc.noal"]]
        assert [line for line in lines if line.startswith("done ")] == ["done sma.lc.noal"]
        monkeypatch.undo()
        fresh = tmp_path / "fresh"
        assert main(["run", "--config", str(config_path), "--out", str(fresh)]) == 0
        assert _tree_bytes(out) == _tree_bytes(fresh)

    def test_interrupted_run_resumes_after_finished_cells(self, tmp_path, monkeypatch, capsys):
        config_path = _small_config(tmp_path / "corpus")
        out = tmp_path / "out"
        finished = []

        def interrupted(config, task, out_dir):
            if finished:
                raise KeyboardInterrupt
            keys = run_cell(config, task, out_dir)
            finished.extend(keys)
            return keys

        monkeypatch.setattr(cli, "run_cell", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(config_path), "--out", str(out)])
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        skipped = [line.split()[1] for line in lines if line.startswith("skip ")]
        done = [line.split()[1] for line in lines if line.startswith("done ")]
        # one task (both arms of one setting) finished before the interrupt
        assert finished == ["mma.lc.al", "mma.lc.noal"] and skipped == finished
        assert done == ["sma.lc.al", "sma.lc.noal"]

    def test_interrupted_pool_runs_no_more_tasks(self, tmp_path, monkeypatch):
        config_path = _small_config(tmp_path / "corpus", settings=[
            *({"kind": kind, "strategy": strategy} for kind in ("sma", "mma")
              for strategy in ("lc", "random")),
            *({"kind": "monoa", "strategy": "lc", "source": lang} for lang in ("aa", "bb"))])
        out = tmp_path / "out"
        write_manifest = cli._write_manifest

        def interrupted(*args):
            # the parent writes the manifest after each task it hears of
            write_manifest(*args)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_cell", _slow_after_the_first)
        monkeypatch.setattr(cli, "_write_manifest", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(config_path), "--jobs", "2", "--out", str(out)])
        started = sorted(p.name for p in (out / "started").iterdir() if p.name != ".first")
        # one setting per worker; without a bound all six ran
        assert started == ["mma.lc", "mma.random"]
        monkeypatch.undo()
        # the resume reruns every setting but the one recorded, those that finished unrecorded too
        assert main(["run", "--config", str(config_path), "--jobs", "2", "--out", str(out)]) == 0
        fresh = tmp_path / "fresh"
        assert main(["run", "--config", str(config_path), "--out", str(fresh)]) == 0
        assert _tree_bytes(out) == _tree_bytes(fresh)

    def test_dead_worker_fails_every_setting_left(self, tmp_path, monkeypatch, capsys):
        config_path = _small_config(tmp_path / "corpus", settings=[
            {"kind": kind, "strategy": "lc"} for kind in ("sma", "mma")] + [
            {"kind": "monoa", "strategy": "lc", "source": "aa"}])
        out = tmp_path / "out"
        monkeypatch.setattr(cli, "run_cell", _dies_in_sma)
        assert main(["run", "--config", str(config_path), "--jobs", "2", "--out", str(out)]) == 2
        failed = {line.split(":")[1].strip() for line in capsys.readouterr().err.splitlines()}
        manifest = json.loads((out / "manifest.json").read_text())
        # the setting started after the pool broke fails too, and is recorded so
        for key in ("sma.lc.al", "sma.lc.noal", "monoa-aa.lc.al", "monoa-aa.lc.noal"):
            assert key in failed and manifest["cells"][key] == {"status": "incomplete"}

    def test_pool_has_at_most_one_worker_per_pending_cell(self, tmp_path, monkeypatch):
        config_path = _small_config(tmp_path / "corpus")
        workers = []

        class InlineExecutor:
            """Records its size and runs each submitted task in this process."""

            def __init__(self, max_workers, initializer, initargs):
                workers.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
        # the inline initializer sets this process's corpus; drop it afterwards
        monkeypatch.setattr(cli, "_loaded", None)
        serial = tmp_path / "serial"
        assert main(["run", "--config", str(config_path), "--out", str(serial)]) == 0
        assert workers == []
        pooled = tmp_path / "pooled"
        # four cells, two settings: one worker per setting
        assert main(["run", "--config", str(config_path), "--jobs", "64", "--out", str(pooled)]) == 0
        assert workers == [2]
        assert _tree_bytes(pooled) == _tree_bytes(serial)
        # one pending cell in each setting: two tasks
        (pooled / "results" / "sma.lc.al.jsonl").unlink()
        (pooled / "results" / "mma.lc.noal.jsonl").unlink()
        assert main(["run", "--config", str(config_path), "--jobs", "64", "--out", str(pooled)]) == 0
        assert workers == [2, 2]
        # one pending cell left: no pool at all
        (pooled / "results" / "sma.lc.al.jsonl").unlink()
        assert main(["run", "--config", str(config_path), "--jobs", "64", "--out", str(pooled)]) == 0
        assert workers == [2, 2]
        assert _tree_bytes(pooled) == _tree_bytes(serial)

    def test_corpus_is_read_once_per_run(self, tmp_path, monkeypatch):
        config_path = _small_config(tmp_path / "corpus")
        paths = []
        ingest = cli.ingest_tsv_classification

        def counting(path, *args, **kwargs):
            paths.append(str(path))
            return ingest(path, *args, **kwargs)

        monkeypatch.setattr(cli, "ingest_tsv_classification", counting)
        assert main(["run", "--config", str(config_path), "--jobs", "1",
                     "--out", str(tmp_path / "serial")]) == 0
        assert len(paths) == 4 and len(set(paths)) == 4  # aa, bb x train, test
        # pool workers are forked with this process's patches; none may load
        parent = os.getpid()
        load = cli.load_data

        def parent_only(config):
            if os.getpid() != parent:
                raise RuntimeError("a pool worker loaded the corpus")
            return load(config)

        monkeypatch.setattr(cli, "load_data", parent_only)
        assert main(["run", "--config", str(config_path), "--jobs", "2",
                     "--out", str(tmp_path / "pooled")]) == 0
        assert len(paths) == 8
        assert _tree_bytes(tmp_path / "pooled") == _tree_bytes(tmp_path / "serial")

    def test_pools_are_drawn_once_per_setting_and_replicate(self, tmp_path, monkeypatch):
        # the curriculum sidecars count the pools the run drew, not a second draw
        config_path = _small_config(tmp_path / "corpus", replicates=2)
        draw, draws = experiment._draw_pools, []

        def counting(plan, data, rng_seed):
            draws.append((plan.setting.label, rng_seed))
            return draw(plan, data, rng_seed)

        monkeypatch.setattr(experiment, "_draw_pools", counting)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--jobs", "1", "--out", str(out)]) == 0
        assert sorted(draws) == [("mma", 7), ("mma", 8), ("sma", 7), ("sma", 8)]
        assert len(list((out / "logs").glob("*.curriculum.json"))) == 8

    def test_run_hashes_each_instance_once(self, tmp_path, monkeypatch):
        """One featurization serves every setting of a serial run: each
        training and test instance is hashed once, repeated content too."""
        config_path = _small_config(tmp_path / "corpus")
        hashed = []
        featurize_batch = models.featurize_batch

        def recording(kind, contents, space):
            hashed.extend(contents)
            return featurize_batch(kind, contents, space)

        monkeypatch.setattr(models, "featurize_batch", recording)
        assert main(["run", "--config", str(config_path), "--jobs", "1",
                     "--out", str(tmp_path / "out")]) == 0
        data = load_data(validate_config(config_path)[0])
        texts = [i.payload.text for part in (data.train, data.test) for group in part.values() for i in group]
        assert len(hashed) == len(texts) and Counter(hashed) == Counter(texts)

    @pytest.mark.parametrize("change", ["seed", "data"])
    def test_resume_under_another_config_refused(self, tmp_path, capsys, change):
        config_path = _small_config(tmp_path / "corpus")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--seed", "1", "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        argv = ["run", "--config", str(config_path), "--seed", "1", "--out", str(out)]
        if change == "seed":
            argv[-3] = "2"
        else:
            train = tmp_path / "corpus" / "aa.train.tsv"
            train.write_text("".join(train.read_text().splitlines(keepends=True)[:-1]))
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "another config" in captured.err
        assert "skip" not in captured.out
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        config_path = _small_config(tmp_path / "corpus")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--jobs", jobs, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --jobs must be at least 1")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["not-an-object", "no-cells", "too-many-digits"])
    def test_unusable_manifest_counts_as_absent(self, tmp_path, capsys, kind):
        config_path = _small_config(tmp_path / "corpus")
        digest = cli._config_digest(validate_config(config_path)[0])
        out = tmp_path / "out"
        out.mkdir()
        text = {"not-an-object": "[1]",
                "no-cells": json.dumps({"version": 2, "config_digest": digest}),
                # `json` reads an integer of at most 4300 digits
                "too-many-digits": '{"cells": {}, "version": 1' + "0" * 5000 + "}"}[kind]
        (out / "manifest.json").write_text(text)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert "skip" not in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_digest"] == digest
        assert manifest["cells"] == {key: {"status": "complete"} for key in (
            "sma.lc.al", "sma.lc.noal", "mma.lc.al", "mma.lc.noal")}

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_output_path_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, under):
        config_path = _small_config(tmp_path / "corpus")
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / "runs" if under else blocker
        capsys.readouterr()
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
        assert blocker.read_text() == "kept\n"
        assert not list(tmp_path.rglob("manifest.json"))

    def test_invalid_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["run", "--config", str(bad)]) == 1

    def test_summary_has_one_row_per_setting(self, tmp_path):
        # default synthesized config: sma, mma, and one monoa per language
        config_path = _write_corpus(tmp_path / "corpus")
        cfg = json.loads(config_path.read_text())
        cfg["budget"] = {"seed": 16, "rounds": 3}
        cfg["training"] = {"learning_rates": [0.5], "max_epochs": 3, "patience": 3}
        cfg["feature_space"] = {"hash_dimension": 1024}
        config_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()
        labels = sorted(r.split(",")[0] for r in rows[1:])
        assert labels == ["mma:lc", "monoa-aa:lc", "monoa-bb:lc", "sma:lc"]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliflow")
    config_path = _small_config(root / "corpus", replicates=2)
    out = root / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    return out


class TestReportCommand:
    def test_report_files(self, finished_run):
        assert main(["report", "--out", str(finished_run)]) == 0
        assert (finished_run / "plot_data.csv").is_file()
        assert (finished_run / "curriculum.csv").is_file()

    def test_plot_data_row_count(self, finished_run):
        main(["report", "--out", str(finished_run)])
        lines = (finished_run / "plot_data.csv").read_text().strip().splitlines()
        # 4 cells x 3 rounds x 2 languages x 1 metric + header
        assert len(lines) == 1 + 4 * 3 * 2

    def test_csvs_reparse(self, finished_run):
        import csv as csvmod

        main(["report", "--out", str(finished_run)])
        for name in ("summary.csv", "plot_data.csv", "curriculum.csv"):
            with open(finished_run / name, newline="", encoding="utf-8") as handle:
                rows = list(csvmod.reader(handle))
            width = len(rows[0])
            assert all(len(r) == width for r in rows)
            assert len(rows) > 1

    def test_summary_matches_aggregate(self, finished_run):
        records = cli._read_cell_records(finished_run)
        recs = records["sma.lc.al"]
        rounds = [
            [r.metrics for r in sorted(recs, key=lambda r: r.round) if r.replicate == rep]
            for rep in (0, 1)
        ]
        expected = aggregate(rounds)
        text = (finished_run / "summary.csv").read_text().splitlines()
        header = text[0].split(",")
        row = next(r for r in text[1:] if r.startswith("sma:lc")).split(",")
        mean = float(row[header.index("accuracy_with_al_mean")])
        std = float(row[header.index("accuracy_with_al_stddev")])
        assert mean == pytest.approx(expected.mean["accuracy"], abs=1e-10)
        assert std == pytest.approx(expected.stddev["accuracy"], abs=1e-10)

    def test_curriculum_skips_sidecars_of_cells_without_results(self, finished_run, tmp_path):
        # a cell that failed after writing a sidecar has no results file
        assert main(["report", "--out", str(finished_run)]) == 0
        full = (finished_run / "curriculum.csv").read_text().splitlines()
        out = tmp_path / "out"
        shutil.copytree(finished_run, out)
        (out / "results" / "sma.lc.al.jsonl").unlink()
        assert (out / "logs" / "sma.lc.al.rep0.curriculum.json").is_file()
        assert main(["report", "--out", str(out)]) == 0
        expected = [row for row in full if not row.startswith("sma:lc,al,")]
        assert len(expected) < len(full)
        assert (out / "curriculum.csv").read_text().splitlines() == expected

    # "curriculum": the curriculum writer on its own, which the tracer binds
    @pytest.mark.parametrize("reader", ["report", "curriculum"])
    def test_report_on_empty_dir(self, tmp_path, capsys, reader):
        if reader == "report":
            assert main(["report", "--out", str(tmp_path)]) == 1
            assert "no results found" in capsys.readouterr().err
        else:
            with pytest.raises(ConfigError, match="no results found"):
                cli.write_curriculum_csv(tmp_path, cli._read_cell_records(tmp_path))


    @pytest.mark.parametrize("reader", ["report", "curriculum"])
    @pytest.mark.parametrize("name, line, text, message", [
        (RESULTS, 6, '{"alphas": ', "invalid JSON: Expecting value (column 11)"),
        (SIDECAR, 1, '{"alphas": ', "invalid JSON: Expecting value (column 11)"),
        (RESULTS, 6, '{"x": 1}', f"record: unknown key 'x'; {RECORD_KEYS}"),
        (RESULTS, 6, '["cell"]', "record: must be an object"),
        (SIDECAR, 1, '{"alphas": {}}', SIDECAR_KEYS),
        (SIDECAR, 1, "7", "curriculum: must be an object"),
        (RESULTS, 6, {"cell": []}, "record.cell: expected a string, got []"),
        (RESULTS, 6, {"metrics": []}, "record.metrics: expected an object, got []"),
        (RESULTS, 6, {"metrics": {"aa": {"accuracy": "hi"}}},
         "record.metrics.aa.accuracy: expected a number, got 'hi'"),
        (RESULTS, 6, {"metrics": {"aa": 5}}, "record.metrics.aa: expected an object, got 5"),
        (RESULTS, 6, {"round": "0"}, "record.round: expected an integer, got '0'"),
        (RESULTS, 6, {"al": "yes"}, "record.al: expected a boolean, got 'yes'"),
        (SIDECAR, 1, {"acquired": {"x": {"aa": 1, "bb": 1}}},
         "curriculum.acquired: expected rounds >= 1 as keys, got 'x'"),
        (SIDECAR, 1, {"per_round_budget": 0}, "curriculum: per-round budget must be positive"),
        (SIDECAR, 1, {"relative_difference": {"0": {"aa": 0.0, "bb": 0.0}}},
         "curriculum.relative_difference: expected rounds >= 1 as keys, got '0'"),
        (SIDECAR, 1, {"relative_difference": {"1": {"aa": 0.0}}},
         "curriculum: round 1 covers languages ['aa'], not those of alphas ['aa', 'bb']"),
        (SIDECAR, 1, {"alphas": {"aa": "1"}}, "curriculum.alphas.aa: expected a number, got '1'"),
        (SIDECAR, 1, {"relative_difference": {"1": {"aa": float("nan"), "bb": 0.0}}},
         "curriculum.relative_difference.1.aa: expected a number, got nan"),
        # aa's relative difference is 0.5 off its value, 0
        (SIDECAR, 1, {**EQUAL_SHARES, "relative_difference": {"1": {"aa": 0.5, "bb": 0.0}}},
         "curriculum: acquisition-share identity violated at round 1 (gap 2.500e-01)"),
        (SIDECAR, 1, {**EQUAL_SHARES, "relative_difference": {"-1": {"aa": 0.0, "bb": 0.0}}},
         "curriculum.relative_difference: expected rounds >= 1 as keys, got '-1'"),
        (RESULTS, 6, '{"round": 2' + "0" * 5000 + "}",
         "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: value "
         "has 5001 digits; use sys.set_int_max_str_digits() to increase the limit"),
        # an integer larger than any float
        (RESULTS, 6, {"metrics": {"aa": {"accuracy": 10**400}}},
         f"record.metrics.aa.accuracy: expected a number, got {10**400}"),
        (SIDECAR, 1, {"acquired": {"1": {"aa": 10**400, "bb": 1}}},
         f"curriculum.acquired.1.aa: expected an integer, got {10**400}"),
        # amounts that each fit a float, but whose spend ratio does not
        (SIDECAR, 1, {**EQUAL_SHARES, "acquired": {"1": {"aa": 10**308, "bb": 10**308}},
                      "relative_difference": {"1": {"aa": 0.0, "bb": 0.0}}, "per_round_budget": 1},
         "curriculum: round 1: cumulative spend ratio too large for a float"),
    ], ids=["results", "sidecar", "results-no-keys", "results-array", "sidecar-no-keys",
            "sidecar-number", "results-cell-list", "results-metrics-list", "results-metric-string",
            "results-language-number", "results-round-string", "results-al-string",
            "sidecar-round-not-a-number", "sidecar-budget-zero", "sidecar-round-zero",
            "sidecar-languages-differ", "sidecar-alpha-string", "sidecar-nan", "sidecar-identity",
            "sidecar-round-negative", "results-too-many-digits", "results-metric-beyond-float",
            "sidecar-acquired-beyond-float", "sidecar-spend-ratio-beyond-float"])
    def test_invalid_json_is_a_runtime_error(self, finished_run, tmp_path, capsys, reader,
                                             name, line, text, message):
        out = tmp_path / "out"
        shutil.copytree(finished_run, out)
        path = out / name
        lines = path.read_text().splitlines(keepends=True)
        # 2 replicates x 3 rounds of results; one line of sidecar
        assert len(lines) == line
        if isinstance(text, dict):
            # these keys replace those of the last line
            text = json.dumps({**json.loads(lines[-1]), **text})
        path.write_text("".join(lines[:-1]) + text + "\n")
        if reader == "report":
            assert main(["report", "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"
        else:
            with pytest.raises(ParseError) as exc:
                cli.write_curriculum_csv(out, cli._read_cell_records(out))
            assert str(exc.value) == f"{path}:{line}: {message}"

    def test_results_and_sidecars_echo_their_bytes(self, finished_run):
        paths = sorted((finished_run / "results").glob("*.jsonl"))
        sidecars = sorted((finished_run / "logs").glob("*.curriculum.json"))
        assert len(paths) == 4 and len(sidecars) == 8
        for name, files in (("record", paths), ("curriculum", sidecars)):
            for path in files:
                for number, line in enumerate(path.read_text().splitlines(), 1):
                    value = cli._read_json(path, line, name, number)
                    assert isinstance(value, cli._SECTIONS[name][0])
                    assert json.dumps(cli._echo(name, value), sort_keys=True,
                                      separators=(",", ":")) == line

    def test_sidecar_round_keys_echo_in_string_order(self):
        # one unit to each language in each of 11 acquisition rounds
        events = [AcquisitionEvent(r, 2 * r + i, lang, 1, 0.0, "lc")
                  for r in range(1, 12) for i, lang in enumerate(("aa", "bb"))]
        report = curriculum(events, {"aa": 100, "bb": 100}, per_round_budget=2)
        echo = json.loads(json.dumps(cli._echo("curriculum", report), sort_keys=True))
        order = ["1", "10", "11", "2", "3", "4", "5", "6", "7", "8", "9"]
        assert list(echo["acquired"]) == list(echo["relative_difference"]) == order


class TestSynthCommand:
    def test_fixed_seed_identical_files(self, tmp_path):
        a = _write_corpus(tmp_path / "a", seed=3)
        b = _write_corpus(tmp_path / "b", seed=3)
        for name in ("aa.train.tsv", "aa.test.tsv", "bb.train.tsv", "bb.test.tsv"):
            assert (a.parent / name).read_bytes() == (b.parent / name).read_bytes()

    def test_full_overlap_shares_vocabulary(self):
        # both languages sample from one lexicon, so observed vocabularies
        # nearly coincide (finite samples miss a few rare words each)
        probe = synth_dataset(TaskKind.CLASSIFICATION, ["aa", "bb"], 400, 10, 1.0, 0)
        full = {
            lang: {w for i in probe.train[lang] for w in i.payload.text.split()}
            for lang in ("aa", "bb")
        }
        inter = full["aa"] & full["bb"]
        union = full["aa"] | full["bb"]
        assert len(inter) / len(union) > 0.9

    def test_zero_overlap_disjoint(self):
        data = synth_dataset(TaskKind.CLASSIFICATION, ["aa", "bb"], 100, 10, 0.0, 0)
        vocab = {
            lang: {w for i in data.train[lang] for w in i.payload.text.split()}
            for lang in ("aa", "bb")
        }
        assert not (vocab["aa"] & vocab["bb"])

    def test_invalid_overlap(self):
        with pytest.raises(ConfigError):
            synth_dataset(TaskKind.CLASSIFICATION, ["aa"], 10, 5, 1.5, 0)

    @pytest.mark.parametrize("task, writer, ext", [
        ("classification", "write_tsv_classification", "tsv"),
        ("tagging", "write_conll_ner", "conll"),
        ("parsing", "write_conllu", "conllu"),
    ])
    def test_writes_through_the_writers_module_names(self, tmp_path, monkeypatch, task, writer, ext):
        # `perfbench/tracer.py` traces a writer by rebinding its name in this module
        write, paths = getattr(cli, writer), []

        def counting(instances, path):
            paths.append(Path(path).name)
            return write(instances, path)

        monkeypatch.setattr(cli, writer, counting)
        assert main(["synth", "--task", task, "--languages", "aa,bb", "--train-size", "20",
                     "--test-size", "5", "--out", str(tmp_path / "corpus")]) == 0
        assert sorted(paths) == [f"{lang}.{split}.{ext}" for lang in ("aa", "bb")
                                 for split in ("test", "train")]

    def test_invalid_language_code_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = main(
            [
                "synth", "--task", "classification", "--languages", "AA,bb",
                "--train-size", "20", "--test-size", "5", "--out", str(out),
            ]
        )
        assert rc == 1
        assert "invalid language code 'AA'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--seed", "-1", "seed: must be an integer >= 0, got -1"),
        ("--budget", "0", "budgets must be positive"),
        # 5 // 2 languages = 2 per MMA model, 2 // 3 acquisition rounds = 0 per round
        ("--budget", "5", "mma needs an acquisition budget of at least one per model and "
                          "acquisition round"),
    ], ids=["seed", "budget", "budget-per-round"])
    def test_invalid_seed_or_budget_writes_nothing(self, tmp_path, capsys, option, value, message):
        out = tmp_path / "corpus"
        rc = main([
            "synth", "--task", "classification", "--languages", "aa,bb",
            "--train-size", "20", "--test-size", "5", option, value, "--out", str(out),
        ])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_output_path_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, under):
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / "corpus" if under else blocker
        rc = main(["synth", "--task", "classification", "--languages", "aa,bb",
                   "--train-size", "20", "--test-size", "5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("task, ext, strategy, digest", [
        ("classification", "tsv", "lc",
         "78c82b314f471d51365419e49dcbc16ab1b5aac5859e8a78f96260315a1ff2c7"),
        ("tagging", "conll", "mnlp",
         "2be5bdea37207057fd5a47340fcbd3450697ba109b65d06f4213d48f718f9b2b"),
        ("parsing", "conllu", "nlpdt",
         "f2d3e147b9b78c242e64dc74515e45ce92d563fa67fa766bdc8c2ad10504b22f"),
    ])
    def test_output_bytes_pinned(self, tmp_path, task, ext, strategy, digest):
        # every file synth writes (corpora and config.json), hashed by name
        # and content; a change here changes every downstream result
        rc = main([
            "synth", "--task", task, "--languages", "bb,aa", "--train-size", "40",
            "--test-size", "10", "--seed", "3", "--out", str(tmp_path),
        ])
        assert rc == 0
        config = json.loads((tmp_path / "config.json").read_text())
        names = {lang: {split: f"{lang}.{split}.{ext}" for split in ("train", "test")}
                 for lang in ("aa", "bb")}
        assert config["data"] == names
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["config.json", *(name for split in names.values() for name in split.values())])
        assert [s["strategy"] for s in config["settings"]] == [strategy] * 4
        sha = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            sha.update(path.name.encode() + b"\0" + path.read_bytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("task", ["classification", "tagging", "parsing"])
    def test_settings_equal_the_validate_echo(self, tmp_path, capsys, task):
        out = tmp_path / "corpus"
        assert main(["synth", "--task", task, "--languages", "bb,aa", "--train-size", "30",
                     "--test-size", "8", "--budget", "8", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["validate", "--config", str(out / "config.json")]) == 0
        echo = json.loads(capsys.readouterr().out)
        written = json.loads((out / "config.json").read_text())
        assert written["settings"] == echo["settings"]
        assert [(s["kind"], s.get("source")) for s in written["settings"]] == [
            ("sma", None), ("mma", None), ("monoa", "aa"), ("monoa", "bb")]

    def test_tagging_and_parsing_files_reparse(self, tmp_path):
        for task, ext, reader in (
            ("tagging", "conll", lambda p: ingest_conll_ner(p, "aa")),
            ("parsing", "conllu", lambda p: ingest_conllu(p, "aa")),
        ):
            out = tmp_path / task
            rc = main(
                [
                    "synth", "--task", task, "--languages", "aa,bb",
                    "--train-size", "20", "--test-size", "5",
                    "--overlap", "0.5", "--seed", "1", "--out", str(out),
                ]
            )
            assert rc == 0
            parsed = reader(out / f"aa.train.{ext}")
            assert len(parsed) == 20
