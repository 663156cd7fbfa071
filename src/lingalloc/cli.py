"""Command-line interface: config validation, experiment runs, reporting.

Subcommands: ``validate``, ``run``, ``report``, ``curriculum``, ``synth``.
Exit codes: 0 success, 1 validation failure, 2 runtime failure.

Result files are written atomically (temp file + rename) and contain no
timestamps, so reruns with the same config and seed are byte-identical; the
only timestamp lives in the run manifest, which also lets an interrupted run
resume by skipping completed cells, and refuses to resume under another
config or other data.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
import typing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .acquisition import StrategyKind, strategy_compatible
from .corpus import (
    check_language,
    dedup,
    ingest_conll_ner,
    ingest_conllu,
    ingest_tsv_classification,
    length_filter,
    write_conll_ner,
    write_conllu,
    write_tsv_classification,
)
from .errors import ConfigError, DataError, LingallocError
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
    run_arms,
)
from .models import FeatureSpace, TrainingConfig
from .synth import synth_dataset
from .tasks import TaskKind

MANIFEST_VERSION = 2

_TASK_NAMES = {t.value: t for t in TaskKind}
_STRATEGY_NAMES = {s.value: s for s in StrategyKind}
_FAMILY_NAMES = {f.value: f for f in SettingFamily}

_SETTING_KEYS = {"kind", "strategy", "source"}
_DATA_KEYS = {"train", "test"}

# One mapping per dataclass-backed section, JSON key -> dataclass field. The
# keys a section accepts, its echo and (through the dataclass) its defaults,
# field types and cross-field checks all come from here.
_SECTIONS = {
    "budget": (BudgetSpec, {
        "seed": "seed_budget", "acquisition": "acq_budget",
        "validation": "val_budget", "rounds": "rounds",
    }),
    "training": (TrainingConfig, {
        key: key for key in ("learning_rates", "batch_size", "max_epochs", "patience", "l2")
    }),
    "feature_space": (FeatureSpace, {
        key: key for key in ("hash_dimension", "ngram_min", "ngram_max")
    }),
}
# smallest value of each top-level integer
_TOP_MINIMUM = {"replicates": 1, "seed": 0, "max_length": 1}
# largest gap `report` accepts in a curriculum sidecar's acquisition-share identity
_IDENTITY_TOLERANCE = 1e-9


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

    def to_json_dict(self) -> dict:
        sections = {
            name: {key: getattr(getattr(self, name), field) for key, field in keys.items()}
            for name, (_, keys) in _SECTIONS.items()
        }
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
            **sections,
            **{key: getattr(self, key) for key in (*_TOP_MINIMUM, "output_dir")},
        }


def _check_unknown(obj: dict, allowed, where: str, errors: list[str]):
    for key in sorted(set(obj) - set(allowed)):
        errors.append(f"{where}: unknown key {key!r}")


def _is_number(value) -> bool:
    return type(value) is int or type(value) is float and math.isfinite(value)


# field type -> (its name, the JSON values it takes): a bool is not an
# integer, a JSON int is a number, nothing is coerced
_JSON_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", _is_number),
    tuple[float, ...]: ("a list of numbers", lambda v: type(v) is list and all(map(_is_number, v))),
}


def _section(name: str, raw, errors: list[str], **fixed):
    """Build one section's dataclass from its JSON object, collecting errors.

    `fixed` holds field values not read from JSON; keys present in `raw`
    override them, and fields in neither take the dataclass default.
    """
    if not isinstance(raw, dict):
        errors.append(f"{name}: must be an object")
        return None
    cls, keys = _SECTIONS[name]
    _check_unknown(raw, keys, name, errors)
    hints = typing.get_type_hints(cls)
    kwargs, typed = dict(fixed), True
    for key in keys.keys() & raw.keys():
        value = raw[key]
        what, accepts = _JSON_TYPES[hints[keys[key]]]
        if not accepts(value):
            errors.append(f"{name}.{key}: expected {what}, got {value!r}")
            typed = False
        kwargs[keys[key]] = tuple(value) if type(value) is list else value
    try:
        return cls(**kwargs) if typed else None
    except ConfigError as exc:
        errors.append(f"{name}: {exc}")
        return None


def _top_integer(key: str, value) -> int:
    minimum = _TOP_MINIMUM[key]
    if type(value) is not int or value < minimum:
        raise ConfigError(f"{key}: must be an integer >= {minimum}, got {value!r}")
    return value


def _name(names: dict, value):
    return names.get(value) if isinstance(value, str) else None


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
    _check_unknown(raw, [f.name for f in dataclasses.fields(ExperimentConfig)], "config", errors)

    task = _name(_TASK_NAMES, raw.get("task"))
    if task is None:
        errors.append(f"task: expected one of {sorted(_TASK_NAMES)}, got {raw.get('task')!r}")

    languages: tuple[str, ...] = ()
    codes = raw.get("languages")
    if not isinstance(codes, list) or not codes:
        errors.append("languages: need a non-empty list of language codes")
    else:
        for code in codes:
            try:
                check_language(code)
            except DataError as exc:
                errors.append(f"languages: {exc}")
        languages = tuple(sorted(c for c in codes if isinstance(c, str)))
        if len(set(languages)) != len(languages):
            errors.append("languages: duplicate codes")

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
        # acquisition and validation default to the seed budget
        seed_b = raw_budget["seed"]
        budget = _section(
            "budget", raw_budget, errors, acq_budget=seed_b, val_budget=seed_b,
            unit=task.budget_unit if task else None,
        )
    training = _section("training", raw.get("training", {}), errors)
    feature_space = _section("feature_space", raw.get("feature_space", {}), errors)

    settings: dict[Setting, int] = {}
    raw_settings = raw.get("settings")
    if not isinstance(raw_settings, list) or not raw_settings:
        errors.append("settings: need a non-empty list")
    else:
        for i, entry in enumerate(raw_settings):
            if not isinstance(entry, dict):
                errors.append(f"settings[{i}]: must be an object")
                continue
            _check_unknown(entry, _SETTING_KEYS, f"settings[{i}]", errors)
            family = _name(_FAMILY_NAMES, entry.get("kind"))
            strategy = _name(_STRATEGY_NAMES, entry.get("strategy"))
            if family is None:
                errors.append(f"settings[{i}].kind: expected one of {sorted(_FAMILY_NAMES)}")
                continue
            if strategy is None:
                errors.append(f"settings[{i}].strategy: expected one of {sorted(_STRATEGY_NAMES)}")
                continue
            if task and not strategy_compatible(strategy, task):
                errors.append(
                    f"settings[{i}]: strategy {strategy.value!r} incompatible with task {task.value!r}"
                )
            source = entry.get("source")
            if source is not None and source not in languages:
                errors.append(f"settings[{i}].source: {source!r} not in language set")
                continue
            try:
                setting = Setting(family, strategy, True, source)
                if budget is not None:
                    allocate(setting, budget, languages or ("placeholder",))
            except ConfigError as exc:
                errors.append(f"settings[{i}]: {exc}")
                continue
            if setting in settings:
                errors.append(f"settings[{i}]: duplicate of settings[{settings[setting]}]")
            settings.setdefault(setting, i)

    # truncation limit for classification, hard drop limit for token tasks
    top = {
        "replicates": raw.get("replicates", 1),
        "seed": raw.get("seed", 0),
        "max_length": raw.get("max_length", 256 if task is TaskKind.CLASSIFICATION else 175),
    }
    for key, value in top.items():
        try:
            _top_integer(key, value)
        except ConfigError as exc:
            errors.append(str(exc))
    output_dir = raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        errors.append("output_dir: required")

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
        output_dir=str(out_path),
        **top,
    )
    return config, []


def load_data(config: ExperimentConfig) -> MultilingualData:
    """Ingest, dedup, and length-filter the configured corpus files.

    Over-long sentences are dropped from training pools only; classification
    truncation applies everywhere. Instance ids are assigned contiguously in
    sorted language order, train before test. A language without test
    instances raises DataError, because its metrics would read 0.
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
        if not instances:
            raise DataError(f"data.{lang}.test: no {lang} instances in {config.data[lang]['test']}")
        test[lang] = instances
    return MultilingualData(config.task, train, test)


# ---------------------------------------------------------------------------
# Run execution
# ---------------------------------------------------------------------------


def _setting_key(setting: Setting) -> str:
    return f"{setting.label}.{setting.strategy.value}"


def _cell_key(setting: Setting, with_al: bool) -> str:
    return f"{_setting_key(setting)}.{'al' if with_al else 'noal'}"


def _tasks(config: ExperimentConfig) -> list[dict]:
    """One task per setting: its key, its setting and its arms (AL flags), AL first.

    Settings whose models train on every language come before the one-source
    MonoA settings, so that the cheap tasks fill the end of a pool's run.
    """
    tasks = [
        {"key": _setting_key(setting), "setting": setting, "arms": [True, False]}
        for setting in config.settings
    ]
    return sorted(tasks, key=lambda t: (t["setting"].family is SettingFamily.MONOA, t["key"]))


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


def _round_record(setting: Setting, with_al: bool, replicate: int, result: RoundResult) -> dict:
    return {
        "cell": _cell_key(setting, with_al),
        "setting": setting.label,
        "strategy": setting.strategy.value,
        "al": with_al,
        "replicate": replicate,
        "round": result.round_index,
        "metrics": result.report.per_language,
        "counts": result.report.counts,
        "spend": result.spend,
        "validation": result.validation,
        "warnings": list(result.warnings),
    }


# The corpus of the run in progress. `cmd_run` loads it once; a pool worker
# receives it once, through the pool's initializer, so no task re-reads the
# files or carries the data.
_loaded: MultilingualData | None = None


def _keep_corpus(data: MultilingualData | None) -> None:
    global _loaded
    _loaded = data


def run_cell(config: ExperimentConfig, task: dict, out_dir: str) -> list[str]:
    """Execute one task from `_tasks` for all replicates and write its cells' files.

    The task's cells are arms of one setting and share its round 0. Returns
    the keys of the cells written.
    """
    data = _loaded
    assert data is not None, "run_cell runs only inside _task_runs"
    setting, arms = task["setting"], task["arms"]
    plan = allocate(setting, config.budget, config.languages)
    per_round_total = sum(plan.per_round(mp) for mp in plan.models)
    out = Path(out_dir)
    lines: dict[str, list[str]] = {_cell_key(setting, with_al): [] for with_al in arms}
    for replicate in range(config.replicates):
        rng_seed = config.seed + replicate
        runs = run_arms(plan, data, config.training, config.feature_space, rng_seed, arms)
        composition = None
        for with_al in arms:
            key = _cell_key(setting, with_al)
            results, events = runs[with_al]
            for result in results:
                lines[key].append(
                    json.dumps(_round_record(setting, with_al, replicate, result), sort_keys=True,
                               separators=(",", ":"))
                )
            log_lines = ["round,instance_id,language,cost,score,strategy"]
            log_lines.extend(
                f"{e.round},{e.instance_id},{e.language},{e.cost},{e.score!r},{e.strategy}"
                for e in events
            )
            _atomic_write(
                out / "logs" / f"{key}.rep{replicate}.acquisition.csv",
                "\n".join(log_lines) + "\n",
            )
            if events:
                if composition is None:
                    composition = initial_composition(plan, data, rng_seed)
                report = curriculum(events, composition, per_round_total)
                _atomic_write(
                    out / "logs" / f"{key}.rep{replicate}.curriculum.json",
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
    for key, records in lines.items():
        _atomic_write(out / "results" / f"{key}.jsonl", "\n".join(records) + "\n")
    return list(lines)


def _config_digest(config: ExperimentConfig) -> str:
    """SHA-256 of what a run's results depend on.

    That is the effective config (seed overrides included, the output
    directory left out) with each data path replaced by its file's SHA-256,
    so a moved corpus keeps its digest and an edited one does not.
    """
    echo = config.to_json_dict()
    del echo["output_dir"]
    echo["data"] = {
        lang: {split: hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for split, path in paths.items()}
        for lang, paths in echo["data"].items()
    }
    return hashlib.sha256(json.dumps(echo, sort_keys=True).encode()).hexdigest()


def _load_manifest(out: Path, digest: str) -> dict:
    """The manifest under `out`, or a fresh one if none of this version is there.

    Raises ConfigError if it was written for a config with another digest.
    """
    manifest_path = out / "manifest.json"
    if manifest_path.is_file():
        try:
            loaded = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            loaded = {}
        if loaded.get("version") == MANIFEST_VERSION:
            if loaded.get("config_digest") != digest:
                raise ConfigError(
                    f"{manifest_path} belongs to a run with another config or other data; "
                    "run into a new output directory"
                )
            return loaded
    return {"version": MANIFEST_VERSION, "config_digest": digest, "cells": {}}


def _write_manifest(out: Path, manifest: dict) -> None:
    manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    _atomic_write(out / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _read_cell_records(out: Path) -> dict[str, list[dict]]:
    """Every result record under `out`, grouped by cell; raises if there is none."""
    records: dict[str, list[dict]] = {}
    for path in sorted((out / "results").glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    rec = json.loads(line)
                    records.setdefault(rec["cell"], []).append(rec)
    if not records:
        raise ConfigError(f"no results found under {out}")
    return records


def _setting_label(rec: dict) -> str:
    return f"{rec['setting']}:{rec['strategy']}"


def _format_float(value: float) -> str:
    return repr(round(float(value), 10))


def write_summary(out: Path, records: dict[str, list[dict]]) -> Path:
    """Aggregate every cell into one CSV: a row per setting, metric x AL columns."""
    by_setting: dict[str, dict[bool, list]] = {}
    metric_names: set[str] = set()
    for recs in records.values():
        setting_label = _setting_label(recs[0])
        in_order = sorted(recs, key=lambda r: r["round"])
        agg = aggregate([
            [r["metrics"] for r in in_order if r["replicate"] == rep]
            for rep in sorted({r["replicate"] for r in recs})
        ])
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


def write_plot_data(out: Path, records: dict[str, list[dict]]) -> Path:
    """Long-format per-round CSV suitable for external plotting."""
    rows = ["setting,al_flag,round,language,metric,mean,stddev"]
    out_rows = []
    for key in sorted(records):
        recs = records[key]
        setting_label = _setting_label(recs[0])
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


def write_curriculum_csv(out: Path, records: dict[str, list[dict]]) -> Path:
    """Per-round acquisition-share CSV; the share identity is re-checked here.

    Rows come from each result replicate's `logs/<cell>.rep<k>.curriculum.json`,
    so the sidecar of a cell without results is never read.
    """
    rows = ["setting,al_flag,replicate,round,language,alpha,relative_difference,metric,value"]
    for key in sorted(records):
        recs = records[key]
        setting_label = _setting_label(recs[0])
        al_flag = "al" if recs[0]["al"] else "noal"
        metric_lookup = {(r["replicate"], r["round"]): r["metrics"] for r in recs}
        for replicate in sorted({r["replicate"] for r in recs}):
            path = out / "logs" / f"{key}.rep{replicate}.curriculum.json"
            if not path.is_file():
                continue
            payload = json.loads(path.read_text(encoding="utf-8"))
            report = CurriculumReport(
                payload["alphas"],
                {int(k): v for k, v in payload["acquired"].items()},
                {int(k): v for k, v in payload["relative_difference"].items()},
                payload["per_round_budget"],
            )
            for round_idx in sorted(report.relative_difference):
                gap = report.identity_gap(round_idx)
                if gap > _IDENTITY_TOLERANCE:
                    raise ConfigError(
                        f"{path.name}: acquisition-share identity violated at round "
                        f"{round_idx} (gap {gap:.3e})"
                    )
                for lang in sorted(report.alphas):
                    metrics = metric_lookup.get((replicate, round_idx), {}).get(lang)
                    if metrics:
                        metric, value = sorted(metrics.items())[0]
                        metric_cell = f"{metric},{_format_float(value)}"
                    else:
                        metric_cell = ","
                    rows.append(
                        f"{setting_label},{al_flag},{replicate},{round_idx},{lang},"
                        f"{_format_float(report.alphas[lang])},"
                        f"{_format_float(report.relative_difference[round_idx][lang])},"
                        f"{metric_cell}"
                    )
    path = out / "curriculum.csv"
    _atomic_write(path, "\n".join(rows) + "\n")
    return path


def _pool_warnings(config: ExperimentConfig, data: MultilingualData) -> list[str]:
    """One line per model whose budgets need more than its training pool holds.

    The need is the seed and validation budgets plus what the acquisition
    rounds can spend; the pool is the cost of the model's languages' training
    instances after dedup and length filtering.
    """
    spec = config.budget
    warnings = []
    for setting in config.settings:
        plan = allocate(setting, spec, config.languages)
        for mp in plan.models:
            acquisition = plan.per_round(mp) * spec.acquisition_rounds
            need = mp.seed_budget + mp.val_budget + acquisition
            available = sum(i.cost for lang in mp.languages for i in data.train[lang])
            if need > available:
                warnings.append(
                    f"{_setting_key(setting)}: model {mp.key} needs {need} {spec.unit.value}s "
                    f"(seed {mp.seed_budget} + validation {mp.val_budget} + acquisition "
                    f"{acquisition}) but its training pool holds {available}"
                )
    return warnings


def cmd_validate(args) -> int:
    config, errors = validate_config(args.config)
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    for warning in _pool_warnings(config, load_data(config)):
        print(f"warning: {warning}", file=sys.stderr)
    print(json.dumps(config.to_json_dict(), indent=2, sort_keys=True))
    return 0


def _task_runs(config: ExperimentConfig, data: MultilingualData, tasks: list[dict], out: str,
               jobs: int):
    """Yield (task, call) in the order the tasks finish.

    `call()` returns the task's cell keys or raises the task's error. With
    more than one job the tasks run in a process pool with at most one worker
    per task; each worker receives `data` once, when it starts.
    """
    workers = min(jobs, len(tasks))
    if workers < 2:
        _keep_corpus(data)
        try:
            for task in tasks:
                yield task, functools.partial(run_cell, config, task, out)
        finally:
            _keep_corpus(None)
        return
    # this process keeps no corpus of its own here, so a worker has one only
    # through the initializer, whether the pool forks or spawns it
    with ProcessPoolExecutor(max_workers=workers, initializer=_keep_corpus,
                             initargs=(data,)) as pool:
        futures = {pool.submit(run_cell, config, task, out): task for task in tasks}
        for future in as_completed(futures):
            yield futures[future], future.result


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    config, errors = validate_config(args.config)
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    overrides = {}
    if args.out is not None:
        overrides["output_dir"] = str(Path(args.out).resolve())
    if args.seed is not None:
        overrides["seed"] = _top_integer("seed", args.seed)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    out = Path(config.output_dir)
    # checked before anything is written
    manifest = _load_manifest(out, _config_digest(config))
    out.mkdir(parents=True, exist_ok=True)
    tasks = []
    for task in _tasks(config):
        pending = []
        for with_al in task["arms"]:
            key = _cell_key(task["setting"], with_al)
            status = manifest["cells"].get(key, {})
            done = status.get("status") == "complete" and (
                out / "results" / f"{key}.jsonl"
            ).is_file()
            if done:
                print(f"skip {key} (complete per manifest)")
            else:
                pending.append(with_al)
        if pending:
            tasks.append({**task, "arms": pending})
    failures: list[str] = []
    data = load_data(config) if tasks else None
    # closing shuts the pool down even when an interrupt escapes the loop
    with contextlib.closing(_task_runs(config, data, tasks, str(out), args.jobs)) as runs:
        for task, call in runs:
            keys = [_cell_key(task["setting"], with_al) for with_al in task["arms"]]
            try:
                call()
            except Exception as exc:  # noqa: BLE001 - task failures must not kill siblings
                for key in keys:
                    failures.append(f"{key}: {exc}")
                    manifest["cells"][key] = {"status": "incomplete"}
            else:
                for key in keys:
                    manifest["cells"][key] = {"status": "complete"}
                    print(f"done {key}")
            # the manifest is rewritten after every task so that an interrupted
            # run resumes from the last finished one
            _write_manifest(out, manifest)
    if not failures:
        write_summary(out, _read_cell_records(out))
    _write_manifest(out, manifest)
    if failures:
        for failure in sorted(failures):
            print(f"error: {failure}", file=sys.stderr)
        return 2
    print(f"results written to {out}")
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    records = _read_cell_records(out)
    paths = [write(out, records) for write in (write_summary, write_plot_data, write_curriculum_csv)]
    print(*paths, sep="\n")
    return 0


def cmd_curriculum(args) -> int:
    out = Path(args.out)
    print(write_curriculum_csv(out, _read_cell_records(out)))
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
    # checked as `validate` checks them, before anything is written
    seed = _top_integer("seed", args.seed)
    settings = _default_settings(task, languages)
    spec = BudgetSpec(args.budget, args.budget, args.budget)
    for entry in settings:
        family, strategy = _FAMILY_NAMES[entry["kind"]], _STRATEGY_NAMES[entry["strategy"]]
        allocate(Setting(family, strategy, True, entry.get("source")), spec, languages)
    data = synth_dataset(task, languages, args.train_size, args.test_size, args.overlap, seed)
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
        "settings": settings,
        "budget": {"seed": args.budget},
        "replicates": 1,
        "seed": seed,
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
