"""Command-line interface: config validation, experiment runs, reporting.

Subcommands: ``validate``, ``run``, ``report``, ``curriculum``, ``synth``.
Exit codes: 0 success, 1 validation failure, 2 runtime failure.

Result files are written atomically (temp file + rename) and contain no
timestamps, so reruns with the same config and seed are byte-identical; the
only timestamp lives in the run manifest, which also lets an interrupted run
resume by skipping completed cells.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .acquisition import StrategyKind, strategy_compatible
from .corpus import (
    dedup,
    ingest_conll_ner,
    ingest_conllu,
    ingest_tsv_classification,
    length_filter,
    write_conll_ner,
    write_conllu,
    write_tsv_classification,
)
from .errors import ConfigError, LingallocError
from .experiment import (
    BudgetSpec,
    CurriculumReport,
    MultilingualData,
    RoundResult,
    Setting,
    SettingFamily,
    aggregate,
    allocate,
    curriculum,
    initial_composition,
    run_rounds,
)
from .models import FeatureSpace, TrainingConfig
from .synth import synth_dataset
from .tasks import MetricReport, TaskKind

MANIFEST_VERSION = 1

_TASK_NAMES = {t.value: t for t in TaskKind}
_STRATEGY_NAMES = {s.value: s for s in StrategyKind}
_FAMILY_NAMES = {f.value: f for f in SettingFamily}

_TOP_KEYS = {
    "task", "languages", "data", "settings", "budget", "training", "feature_space",
    "replicates", "seed", "output_dir", "max_length", "full_data_baselines",
}
_BUDGET_KEYS = {"seed", "acquisition", "validation", "rounds"}
_TRAINING_KEYS = {"learning_rates", "batch_size", "max_epochs", "patience", "l2"}
_SPACE_KEYS = {"hash_dimension", "ngram_min", "ngram_max"}
_SETTING_KEYS = {"kind", "strategy", "source"}
_DATA_KEYS = {"train", "test"}


@dataclass(frozen=True)
class ExperimentConfig:
    task: TaskKind
    languages: tuple[str, ...]
    data: dict[str, dict[str, str]]
    settings: tuple[Setting, ...]
    budget: BudgetSpec
    training: TrainingConfig
    feature_space: FeatureSpace
    replicates: int
    seed: int
    output_dir: str
    max_length: int
    full_data_baselines: bool

    def to_json_dict(self) -> dict:
        return {
            "task": self.task.value,
            "languages": list(self.languages),
            "data": {lang: dict(paths) for lang, paths in sorted(self.data.items())},
            "settings": [
                {
                    "kind": s.family.value,
                    "strategy": s.strategy.value,
                    **({"source": s.source} if s.source is not None else {}),
                }
                for s in self.settings
            ],
            "budget": {
                "seed": self.budget.seed_budget,
                "acquisition": self.budget.acq_budget,
                "validation": self.budget.val_budget,
                "rounds": self.budget.rounds,
            },
            "training": {
                "learning_rates": list(self.training.learning_rates),
                "batch_size": self.training.batch_size,
                "max_epochs": self.training.max_epochs,
                "patience": self.training.patience,
                "l2": self.training.l2,
            },
            "feature_space": {
                "hash_dimension": self.feature_space.hash_dimension,
                "ngram_min": self.feature_space.ngram_min,
                "ngram_max": self.feature_space.ngram_max,
            },
            "replicates": self.replicates,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "max_length": self.max_length,
            "full_data_baselines": self.full_data_baselines,
        }


def _check_unknown(obj: dict, allowed: set, where: str, errors: list[str]):
    for key in sorted(set(obj) - allowed):
        errors.append(f"{where}: unknown key {key!r}")


def validate_config(path) -> tuple[ExperimentConfig | None, list[str]]:
    """Parse and fully validate a JSON config, collecting every violation."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"cannot read config: {exc}"]
    if not isinstance(raw, dict):
        return None, ["config root must be a JSON object"]
    errors: list[str] = []
    _check_unknown(raw, _TOP_KEYS, "config", errors)

    task = None
    task_name = raw.get("task")
    if task_name not in _TASK_NAMES:
        errors.append(f"task: expected one of {sorted(_TASK_NAMES)}, got {task_name!r}")
    else:
        task = _TASK_NAMES[task_name]

    languages: tuple[str, ...] = ()
    if not isinstance(raw.get("languages"), list) or not raw.get("languages"):
        errors.append("languages: need a non-empty list of language codes")
    else:
        codes = raw["languages"]
        if len(set(codes)) != len(codes):
            errors.append("languages: duplicate codes")
        languages = tuple(sorted(str(c) for c in codes))

    data: dict[str, dict[str, str]] = {}
    raw_data = raw.get("data")
    if not isinstance(raw_data, dict):
        errors.append("data: need a mapping from language to {train, test} paths")
    else:
        for lang in languages:
            entry = raw_data.get(lang)
            if not isinstance(entry, dict):
                errors.append(f"data.{lang}: missing train/test paths")
                continue
            _check_unknown(entry, _DATA_KEYS, f"data.{lang}", errors)
            resolved = {}
            for split in ("train", "test"):
                value = entry.get(split)
                if not isinstance(value, str):
                    errors.append(f"data.{lang}.{split}: missing path")
                    continue
                resolved_path = Path(value)
                if not resolved_path.is_absolute():
                    resolved_path = (path.parent / resolved_path).resolve()
                if not resolved_path.is_file():
                    errors.append(f"data.{lang}.{split}: file not found: {resolved_path}")
                resolved[split] = str(resolved_path)
            if len(resolved) == 2:
                data[lang] = resolved
        for lang in sorted(set(raw_data) - set(languages)):
            errors.append(f"data.{lang}: language not in the language set")

    budget = None
    raw_budget = raw.get("budget")
    if not isinstance(raw_budget, dict) or "seed" not in raw_budget:
        errors.append("budget: need an object with at least a seed budget")
    else:
        _check_unknown(raw_budget, _BUDGET_KEYS, "budget", errors)
        try:
            seed_b = int(raw_budget["seed"])
            budget = BudgetSpec(
                seed_b,
                int(raw_budget.get("acquisition", seed_b)),
                int(raw_budget.get("validation", seed_b)),
                int(raw_budget.get("rounds", 4)),
                task.budget_unit if task else None,
            )
        except (ConfigError, TypeError, ValueError) as exc:
            errors.append(f"budget: {exc}")

    raw_training = raw.get("training", {})
    training = None
    if not isinstance(raw_training, dict):
        errors.append("training: must be an object")
    else:
        _check_unknown(raw_training, _TRAINING_KEYS, "training", errors)
        try:
            training = TrainingConfig(
                learning_rates=tuple(raw_training.get("learning_rates", (0.1, 0.5))),
                batch_size=int(raw_training.get("batch_size", 32)),
                max_epochs=int(raw_training.get("max_epochs", 75)),
                patience=int(raw_training.get("patience", 25)),
                l2=float(raw_training.get("l2", 0.0)),
                rng_seed=0,
            )
        except (ConfigError, TypeError, ValueError) as exc:
            errors.append(f"training: {exc}")

    raw_space = raw.get("feature_space", {})
    feature_space = None
    if not isinstance(raw_space, dict):
        errors.append("feature_space: must be an object")
    else:
        _check_unknown(raw_space, _SPACE_KEYS, "feature_space", errors)
        try:
            feature_space = FeatureSpace(
                hash_dimension=int(raw_space.get("hash_dimension", 4096)),
                ngram_min=int(raw_space.get("ngram_min", 2)),
                ngram_max=int(raw_space.get("ngram_max", 4)),
            )
        except (ConfigError, TypeError, ValueError) as exc:
            errors.append(f"feature_space: {exc}")

    settings: list[Setting] = []
    raw_settings = raw.get("settings")
    if not isinstance(raw_settings, list) or not raw_settings:
        errors.append("settings: need a non-empty list")
    else:
        for i, entry in enumerate(raw_settings):
            if not isinstance(entry, dict):
                errors.append(f"settings[{i}]: must be an object")
                continue
            _check_unknown(entry, _SETTING_KEYS, f"settings[{i}]", errors)
            family = _FAMILY_NAMES.get(entry.get("kind"))
            strategy = _STRATEGY_NAMES.get(entry.get("strategy"))
            if family is None:
                errors.append(
                    f"settings[{i}].kind: expected one of {sorted(_FAMILY_NAMES)}"
                )
                continue
            if strategy is None:
                errors.append(
                    f"settings[{i}].strategy: expected one of {sorted(_STRATEGY_NAMES)}"
                )
                continue
            if task and not strategy_compatible(strategy, task):
                errors.append(
                    f"settings[{i}]: strategy {strategy.value!r} incompatible with task {task.value!r}"
                )
            source = entry.get("source")
            if source is not None and source not in languages:
                errors.append(f"settings[{i}].source: {source!r} not in language set")
            try:
                setting = Setting(family, strategy, True, source)
                if budget is not None:
                    allocate(setting, budget, languages or ("placeholder",))
                settings.append(setting)
            except ConfigError as exc:
                errors.append(f"settings[{i}]: {exc}")

    replicates = raw.get("replicates", 1)
    if not isinstance(replicates, int) or replicates < 1:
        errors.append("replicates: must be an integer >= 1")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        errors.append("seed: must be an integer")
    output_dir = raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        errors.append("output_dir: required")
    # truncation limit for classification, hard drop limit for token tasks
    default_max = 256 if task is TaskKind.CLASSIFICATION else 175
    max_length = raw.get("max_length", default_max)
    if not isinstance(max_length, int) or max_length < 1:
        errors.append("max_length: must be a positive integer")
    full_data = raw.get("full_data_baselines", False)
    if not isinstance(full_data, bool):
        errors.append("full_data_baselines: must be a boolean")

    if errors:
        return None, sorted(set(errors))
    out_path = Path(output_dir)
    if not out_path.is_absolute():
        out_path = (path.parent / out_path).resolve()
    config = ExperimentConfig(
        task=task,
        languages=languages,
        data=data,
        settings=tuple(settings),
        budget=budget,
        training=training,
        feature_space=feature_space,
        replicates=replicates,
        seed=seed,
        output_dir=str(out_path),
        max_length=max_length,
        full_data_baselines=full_data,
    )
    return config, []


def load_data(config: ExperimentConfig) -> MultilingualData:
    """Ingest, dedup, and length-filter the configured corpus files.

    Over-long sentences are dropped from training pools only; classification
    truncation applies everywhere. Instance ids are assigned contiguously in
    sorted language order, train before test.
    """
    def ingest(split: str, lang: str, counter: int):
        paths = config.data[lang]
        if config.task is TaskKind.CLASSIFICATION:
            # a TSV may mix languages; ids are assigned to every row before
            # filtering, so the counter must advance by the full row count
            ingested = ingest_tsv_classification(paths[split], start_id=counter)
            return [i for i in ingested if i.language == lang], counter + len(ingested)
        if config.task is TaskKind.SEQUENCE_TAGGING:
            ingested = ingest_conll_ner(paths[split], lang, start_id=counter)
        else:
            ingested = ingest_conllu(paths[split], lang, start_id=counter)
        return ingested, counter + len(ingested)

    train: dict[str, list] = {}
    test: dict[str, list] = {}
    counter = 0
    for lang in config.languages:
        instances, counter = ingest("train", lang, counter)
        train[lang] = length_filter(dedup(instances), config.max_length)
    for lang in config.languages:
        instances, counter = ingest("test", lang, counter)
        if config.task is TaskKind.CLASSIFICATION:
            instances = length_filter(instances, config.max_length)
        test[lang] = instances
    return MultilingualData(config.task, train, test)


# ---------------------------------------------------------------------------
# Run execution
# ---------------------------------------------------------------------------


def _cell_key(setting: Setting, with_al: bool) -> str:
    return f"{setting.label}.{setting.strategy.value}.{'al' if with_al else 'noal'}"


def _cells(config: ExperimentConfig) -> list[dict]:
    cells = []
    for setting in config.settings:
        for with_al in (True, False):
            cells.append(
                {
                    "key": _cell_key(setting, with_al),
                    "kind": setting.family.value,
                    "strategy": setting.strategy.value,
                    "source": setting.source,
                    "al": with_al,
                }
            )
    return sorted(cells, key=lambda c: c["key"])


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _round_record(cell: dict, replicate: int, result: RoundResult) -> dict:
    return {
        "cell": cell["key"],
        "setting": cell["kind"] + (f"-{cell['source']}" if cell["source"] else ""),
        "strategy": cell["strategy"],
        "al": cell["al"],
        "replicate": replicate,
        "round": result.round_index,
        "metrics": result.report.per_language,
        "counts": result.report.counts,
        "spend": result.spend,
        "validation": result.validation,
        "warnings": list(result.warnings),
    }


def run_cell(config: ExperimentConfig, cell: dict, out_dir: str) -> str:
    """Execute one (setting, AL flag) cell for all replicates and write files."""
    data = load_data(config)
    setting = Setting(
        _FAMILY_NAMES[cell["kind"]],
        _STRATEGY_NAMES[cell["strategy"]],
        cell["al"],
        cell["source"],
    )
    plan = allocate(setting, config.budget, config.languages)
    out = Path(out_dir)
    lines = []
    for replicate in range(config.replicates):
        rng_seed = config.seed + replicate
        results, events = run_rounds(plan, data, config.training, config.feature_space, rng_seed)
        for result in results:
            lines.append(
                json.dumps(_round_record(cell, replicate, result), sort_keys=True,
                           separators=(",", ":"))
            )
        log_lines = ["round,instance_id,language,cost,score,strategy"]
        log_lines.extend(
            f"{e.round},{e.instance_id},{e.language},{e.cost},{e.score!r},{e.strategy}"
            for e in events
        )
        _atomic_write(
            out / "logs" / f"{cell['key']}.rep{replicate}.acquisition.csv",
            "\n".join(log_lines) + "\n",
        )
        per_round_total = sum(
            mp.acq_budget // plan.spec.acquisition_rounds for mp in plan.models
        ) if plan.spec.acquisition_rounds else 0
        if events and per_round_total >= 1:
            composition = initial_composition(plan, data, rng_seed)
            report = curriculum(events, composition, per_round_total)
            _atomic_write(
                out / "logs" / f"{cell['key']}.rep{replicate}.curriculum.json",
                json.dumps(
                    {
                        "alphas": report.alphas,
                        "acquired": {str(k): v for k, v in report.acquired.items()},
                        "relative_difference": {
                            str(k): v for k, v in report.relative_difference.items()
                        },
                        "per_round_budget": report.per_round_budget,
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n",
            )
    _atomic_write(out / "results" / f"{cell['key']}.jsonl", "\n".join(lines) + "\n")
    return cell["key"]


def _load_manifest(out: Path) -> dict:
    manifest_path = out / "manifest.json"
    if manifest_path.is_file():
        try:
            loaded = json.loads(manifest_path.read_text(encoding="utf-8"))
            if loaded.get("version") == MANIFEST_VERSION:
                return loaded
        except json.JSONDecodeError:
            pass
    return {"version": MANIFEST_VERSION, "cells": {}}


def _write_manifest(out: Path, manifest: dict) -> None:
    manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    _atomic_write(out / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _reconstruct_rounds(records: list[dict], task: TaskKind) -> list[RoundResult]:
    out = []
    for rec in sorted(records, key=lambda r: r["round"]):
        report = MetricReport(task, rec["metrics"], rec["counts"])
        out.append(
            RoundResult(rec["round"], report, rec["spend"], rec["validation"],
                        tuple(rec["warnings"]))
        )
    return out


def _read_cell_records(out: Path) -> dict[str, list[dict]]:
    records: dict[str, list[dict]] = {}
    results_dir = out / "results"
    if not results_dir.is_dir():
        return records
    for path in sorted(results_dir.glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    rec = json.loads(line)
                    records.setdefault(rec["cell"], []).append(rec)
    return records


def _format_float(value: float) -> str:
    return repr(round(float(value), 10))


def write_summary(out: Path, task: TaskKind) -> Path:
    """Aggregate every cell into one CSV: a row per setting, metric x AL columns."""
    records = _read_cell_records(out)
    if not records:
        raise ConfigError(f"no results found under {out}")
    by_setting: dict[str, dict[bool, list]] = {}
    metric_names: set[str] = set()
    for key, recs in records.items():
        setting_label = f"{recs[0]['setting']}:{recs[0]['strategy']}"
        replicates = sorted({r["replicate"] for r in recs})
        rounds_by_rep = [
            _reconstruct_rounds([r for r in recs if r["replicate"] == rep], task)
            for rep in replicates
        ]
        agg = aggregate(rounds_by_rep)
        metric_names.update(agg.mean)
        by_setting.setdefault(setting_label, {})[recs[0]["al"]] = agg
    names = sorted(metric_names)
    header = ["setting"]
    for name in names:
        for flag in ("with_al", "without_al"):
            header.append(f"{name}_{flag}_mean")
            header.append(f"{name}_{flag}_stddev")
    rows = [",".join(header)]
    for setting_label in sorted(by_setting):
        row = [setting_label]
        for name in names:
            for flag in (True, False):
                agg = by_setting[setting_label].get(flag)
                if agg is None or name not in agg.mean:
                    row.extend(["", ""])
                else:
                    row.extend([_format_float(agg.mean[name]), _format_float(agg.stddev[name])])
        rows.append(",".join(row))
    path = out / "summary.csv"
    _atomic_write(path, "\n".join(rows) + "\n")
    return path


def write_plot_data(out: Path, task: TaskKind) -> Path:
    """Long-format per-round CSV suitable for external plotting."""
    records = _read_cell_records(out)
    if not records:
        raise ConfigError(f"no results found under {out}")
    rows = ["setting,al_flag,round,language,metric,mean,stddev"]
    out_rows = []
    for key in sorted(records):
        recs = records[key]
        setting_label = f"{recs[0]['setting']}:{recs[0]['strategy']}"
        al_flag = "al" if recs[0]["al"] else "noal"
        per_round: dict[tuple, list[float]] = {}
        for rec in recs:
            for lang, metrics in rec["metrics"].items():
                for metric, value in metrics.items():
                    per_round.setdefault((rec["round"], lang, metric), []).append(value)
        for (round_idx, lang, metric), values in sorted(per_round.items()):
            n = len(values)
            mean = sum(values) / n
            if n > 1:
                var = sum((v - mean) ** 2 for v in values) / (n - 1)
                std = var ** 0.5
            else:
                std = 0.0
            out_rows.append(
                f"{setting_label},{al_flag},{round_idx},{lang},{metric},"
                f"{_format_float(mean)},{_format_float(std)}"
            )
    path = out / "plot_data.csv"
    _atomic_write(path, "\n".join(rows + out_rows) + "\n")
    return path


def write_curriculum_csv(out: Path, tolerance: float = 1e-9) -> Path:
    """Per-round acquisition-share CSV; the share identity is re-checked here."""
    records = _read_cell_records(out)
    rows = ["setting,al_flag,replicate,round,language,alpha,relative_difference,metric,value"]
    out_rows = []
    logs_dir = out / "logs"
    metric_lookup: dict[tuple, dict] = {}
    for key, recs in records.items():
        for rec in recs:
            for lang, metrics in rec["metrics"].items():
                metric_lookup[(key, rec["replicate"], rec["round"], lang)] = metrics
    for path in sorted(logs_dir.glob("*.curriculum.json")) if logs_dir.is_dir() else []:
        name = path.name[: -len(".curriculum.json")]
        key, _, rep_part = name.rpartition(".rep")
        replicate = int(rep_part)
        payload = json.loads(path.read_text(encoding="utf-8"))
        report = CurriculumReport(
            payload["alphas"],
            {int(k): v for k, v in payload["acquired"].items()},
            {int(k): v for k, v in payload["relative_difference"].items()},
            payload["per_round_budget"],
        )
        recs = records.get(key, [])
        al_flag = "al" if recs and recs[0]["al"] else "noal"
        setting_label = f"{recs[0]['setting']}:{recs[0]['strategy']}" if recs else key
        for round_idx in sorted(report.relative_difference):
            gap = report.identity_gap(round_idx)
            if gap > tolerance:
                raise ConfigError(
                    f"{path.name}: acquisition-share identity violated at round "
                    f"{round_idx} (gap {gap:.3e})"
                )
            for lang in sorted(report.alphas):
                metrics = metric_lookup.get((key, replicate, round_idx, lang), {})
                if metrics:
                    metric, value = sorted(metrics.items())[0]
                    metric_cell = f"{metric},{_format_float(value)}"
                else:
                    metric_cell = ","
                out_rows.append(
                    f"{setting_label},{al_flag},{replicate},{round_idx},{lang},"
                    f"{_format_float(report.alphas[lang])},"
                    f"{_format_float(report.relative_difference[round_idx][lang])},"
                    f"{metric_cell}"
                )
    path = out / "curriculum.csv"
    _atomic_write(path, "\n".join(rows + out_rows) + "\n")
    return path


def cmd_validate(args) -> int:
    config, errors = validate_config(args.config)
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(config.to_json_dict(), indent=2, sort_keys=True))
    return 0


def cmd_run(args) -> int:
    config, errors = validate_config(args.config)
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    overrides = {}
    if args.out is not None:
        overrides["output_dir"] = str(Path(args.out).resolve())
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _load_manifest(out)
    cells = _cells(config)
    pending = []
    for cell in cells:
        status = manifest["cells"].get(cell["key"], {})
        done = status.get("status") == "complete" and (
            out / "results" / f"{cell['key']}.jsonl"
        ).is_file()
        if done:
            print(f"skip {cell['key']} (complete per manifest)")
        else:
            pending.append(cell)
    failures: list[str] = []

    def finished(cell, error=None):
        # the manifest is rewritten after every cell so that an interrupted
        # run resumes from the last finished one
        if error is None:
            manifest["cells"][cell["key"]] = {"status": "complete"}
            print(f"done {cell['key']}")
        else:
            failures.append(f"{cell['key']}: {error}")
            manifest["cells"][cell["key"]] = {"status": "incomplete"}
        _write_manifest(out, manifest)

    if args.jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = {
                pool.submit(run_cell, config, cell, str(out)): cell for cell in pending
            }
            for future in as_completed(futures):
                try:
                    future.result()
                except Exception as exc:  # noqa: BLE001 - cell failures must not kill siblings
                    finished(futures[future], exc)
                else:
                    finished(futures[future])
    else:
        for cell in pending:
            try:
                run_cell(config, cell, str(out))
            except Exception as exc:  # noqa: BLE001
                finished(cell, exc)
            else:
                finished(cell)
    if not failures:
        write_summary(out, config.task)
    _write_manifest(out, manifest)
    if failures:
        for failure in sorted(failures):
            print(f"error: {failure}", file=sys.stderr)
        return 2
    print(f"results written to {out}")
    return 0


def _task_from_results(out: Path) -> TaskKind:
    records = _read_cell_records(out)
    for recs in records.values():
        for rec in recs:
            for metrics in rec["metrics"].values():
                if "accuracy" in metrics:
                    return TaskKind.CLASSIFICATION
                if "f1" in metrics:
                    return TaskKind.SEQUENCE_TAGGING
                return TaskKind.DEPENDENCY_PARSING
    raise ConfigError(f"no results found under {out}")


def cmd_report(args) -> int:
    out = Path(args.out)
    task = _task_from_results(out)
    summary = write_summary(out, task)
    plot = write_plot_data(out, task)
    curriculum_csv = write_curriculum_csv(out)
    for path in (summary, plot, curriculum_csv):
        print(path)
    return 0


def cmd_curriculum(args) -> int:
    out = Path(args.out)
    _task_from_results(out)
    print(write_curriculum_csv(out))
    return 0


_SYNTH_EXT = {
    TaskKind.CLASSIFICATION: "tsv",
    TaskKind.SEQUENCE_TAGGING: "conll",
    TaskKind.DEPENDENCY_PARSING: "conllu",
}
_SYNTH_WRITERS = {
    TaskKind.CLASSIFICATION: write_tsv_classification,
    TaskKind.SEQUENCE_TAGGING: write_conll_ner,
    TaskKind.DEPENDENCY_PARSING: write_conllu,
}


def cmd_synth(args) -> int:
    task = _TASK_NAMES[args.task]
    languages = sorted(args.languages.split(","))
    data = synth_dataset(task, languages, args.train_size, args.test_size, args.overlap, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ext = _SYNTH_EXT[task]
    writer = _SYNTH_WRITERS[task]
    paths = {}
    for lang in languages:
        train_path = out / f"{lang}.train.{ext}"
        test_path = out / f"{lang}.test.{ext}"
        writer(data.train[lang], train_path)
        writer(data.test[lang], test_path)
        paths[lang] = {"train": train_path.name, "test": test_path.name}
    config = {
        "task": task.value,
        "languages": languages,
        "data": paths,
        "settings": _default_settings(task, languages),
        "budget": {"seed": args.budget},
        "replicates": 1,
        "seed": args.seed,
        "output_dir": "runs",
    }
    config_path = out / "config.json"
    _atomic_write(config_path, json.dumps(config, indent=2, sort_keys=True) + "\n")
    print(config_path)
    return 0


def _default_settings(task: TaskKind, languages) -> list[dict]:
    strategy = {
        TaskKind.CLASSIFICATION: "lc",
        TaskKind.SEQUENCE_TAGGING: "mnlp",
        TaskKind.DEPENDENCY_PARSING: "nlpdt",
    }[task]
    settings = [
        {"kind": "sma", "strategy": strategy},
        {"kind": "mma", "strategy": strategy},
    ]
    settings.extend({"kind": "monoa", "strategy": strategy, "source": lang} for lang in languages)
    return settings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lingalloc",
        description="Annotation-budget allocation experiments across languages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a config file")
    p_validate.add_argument("--config", required=True)

    p_run = sub.add_parser("run", help="execute every setting x AL cell")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--out", default=None, help="override the configured output dir")
    p_run.add_argument("--seed", type=int, default=None, help="override the base seed")

    p_report = sub.add_parser("report", help="emit plot-ready CSVs from results")
    p_report.add_argument("--out", required=True, help="results directory")

    p_curr = sub.add_parser("curriculum", help="emit the acquisition-share CSV")
    p_curr.add_argument("--out", required=True, help="results directory")

    p_synth = sub.add_parser("synth", help="generate a synthetic multilingual corpus")
    p_synth.add_argument("--task", choices=sorted(_TASK_NAMES), required=True)
    p_synth.add_argument("--languages", required=True, help="comma-separated codes")
    p_synth.add_argument("--train-size", type=int, default=700)
    p_synth.add_argument("--test-size", type=int, default=150)
    p_synth.add_argument("--overlap", type=float, default=0.5)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--budget", type=int, default=300)
    p_synth.add_argument("--out", required=True)
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "run": cmd_run,
    "report": cmd_report,
    "curriculum": cmd_curriculum,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LingallocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
