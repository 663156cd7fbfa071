import json
from pathlib import Path

import pytest

import lingalloc.cli as cli
from lingalloc.cli import load_data, main, run_cell, validate_config
from lingalloc.corpus import ingest_conll_ner, ingest_conllu
from lingalloc.errors import ConfigError
from lingalloc.experiment import aggregate
from lingalloc.synth import synth_dataset
from lingalloc.tasks import TaskKind


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

    def test_round_trip(self, tmp_path):
        config_path = _small_config(tmp_path / "corpus")
        config, errors = validate_config(config_path)
        assert errors == []
        second_path = tmp_path / "echo.json"
        second_path.write_text(json.dumps(config.to_json_dict()))
        second, errors = validate_config(second_path)
        assert errors == []
        assert second == config

    def test_validate_command_exit_codes(self, tmp_path, capsys):
        good = _small_config(tmp_path / "corpus")
        assert main(["validate", "--config", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{\"task\": \"nope\"}")
        assert main(["validate", "--config", str(bad)]) == 1


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

        def failing(config_dict, cell, out_dir):
            if cell["key"] == "sma.lc.al":
                raise RuntimeError("injected failure")
            return run_cell(config_dict, cell, out_dir)

        monkeypatch.setattr(cli, "run_cell", failing)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cells"]["sma.lc.al"]["status"] == "incomplete"
        assert manifest["cells"]["mma.lc.al"]["status"] == "complete"
        assert (out / "results" / "mma.lc.al.jsonl").is_file()

    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch):
        config_path = _small_config(tmp_path / "corpus")
        out = tmp_path / "out"

        def failing(config_dict, cell, out_dir):
            if cell["key"] == "sma.lc.al":
                raise RuntimeError("injected failure")
            return run_cell(config_dict, cell, out_dir)

        monkeypatch.setattr(cli, "run_cell", failing)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        monkeypatch.undo()

        calls = []

        def counting(config_dict, cell, out_dir):
            calls.append(cell["key"])
            return run_cell(config_dict, cell, out_dir)

        monkeypatch.setattr(cli, "run_cell", counting)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert calls == ["sma.lc.al"]
        fresh = tmp_path / "fresh"
        monkeypatch.undo()
        assert main(["run", "--config", str(config_path), "--out", str(fresh)]) == 0
        assert _tree_bytes(out) == _tree_bytes(fresh)

    def test_interrupted_run_resumes_after_finished_cells(self, tmp_path, monkeypatch, capsys):
        config_path = _small_config(tmp_path / "corpus")
        out = tmp_path / "out"
        finished = []

        def interrupted(config, cell, out_dir):
            if len(finished) == 2:
                raise KeyboardInterrupt
            key = run_cell(config, cell, out_dir)
            finished.append(key)
            return key

        monkeypatch.setattr(cli, "run_cell", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(config_path), "--out", str(out)])
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        skipped = [line.split()[1] for line in lines if line.startswith("skip ")]
        assert len(finished) == 2 and skipped == finished

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
            cli._reconstruct_rounds(
                [r for r in recs if r["replicate"] == rep], TaskKind.CLASSIFICATION
            )
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

    def test_curriculum_command(self, finished_run):
        assert main(["curriculum", "--out", str(finished_run)]) == 0

    def test_report_on_empty_dir(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 1


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
