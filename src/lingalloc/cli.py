"""Command-line interface: config validation, experiment runs, reporting.

Subcommands: ``validate``, ``run``, ``report``, ``synth``.
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
from enum import Enum
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
from .errors import ConfigError, DataError, LingallocError, ParseError
from .experiment import (
    BudgetSpec,
    CurriculumReport,
    Featurized,
    MultilingualData,
    Setting,
    SettingFamily,
    aggregate,
    allocate,
    curriculum,
    featurize,
    mean_stddev,
    run_arms,
)
from .models import FeatureSpace, TrainingConfig
from .synth import synth_dataset
from .tasks import TaskKind

MANIFEST_VERSION = 2


class _Task(typing.NamedTuple):
    """What the CLI does differently for one task."""

    ext: str  # of its corpus files
    read: typing.Callable  # (path, language, first id) -> the file's instances, numbered in order
    write: typing.Callable  # (instances, path)
    strategy: StrategyKind  # of the settings `synth` writes
    max_length: int  # the config's default: truncates a text, drops a longer sentence
    gold: str  # the payload field that holds the gold annotation a test instance needs


# A TSV may mix languages, so a reader returns every instance of its file and
# `load_data` keeps the language's. A reader or writer calls its `corpus`
# function by this module's name, which `perfbench/tracer.py` rebinds to its wrapper.
_TASKS = {
    TaskKind.CLASSIFICATION: _Task(
        "tsv", lambda path, language, first: ingest_tsv_classification(path, first),
        lambda *args: write_tsv_classification(*args), StrategyKind.LC, 256, "label"),
    TaskKind.SEQUENCE_TAGGING: _Task(
        "conll", lambda *args: ingest_conll_ner(*args),
        lambda *args: write_conll_ner(*args), StrategyKind.MNLP, 175, "tags"),
    TaskKind.DEPENDENCY_PARSING: _Task(
        "conllu", lambda *args: ingest_conllu(*args),
        lambda *args: write_conllu(*args), StrategyKind.NLPDT, 175, "heads"),
}


@dataclass(frozen=True)
class RoundRecord:
    """One line of `results/<cell>.jsonl`: a cell's state after one round of one replicate."""

    cell: str
    setting: str
    strategy: str
    al: bool
    replicate: int
    round: int
    metrics: dict[str, dict[str, float]]
    counts: dict[str, dict[str, int]]
    spend: dict[str, int]
    validation: dict[str, float]
    warnings: tuple[str, ...]

    @property
    def label(self) -> str:
        return f"{self.setting}:{self.strategy}"


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's whole config: JSON keys are field names, and a key left out takes
    its field's default; that of `max_length` is the task's (`_TASKS`). The
    budget counts in the task's unit. `validate_config` reads and checks it."""

    task: TaskKind
    languages: tuple[str, ...]
    data: dict[str, dict[str, str]]
    settings: tuple[Setting, ...]
    budget: BudgetSpec
    output_dir: str
    training: TrainingConfig = TrainingConfig()
    feature_space: FeatureSpace = FeatureSpace()
    replicates: int = 1
    seed: int = 0
    max_length: int = None

    def __post_init__(self):
        if self.max_length is None:
            object.__setattr__(self, "max_length", _TASKS[self.task].max_length)
        object.__setattr__(self, "budget", dataclasses.replace(self.budget, unit=self.task.budget_unit))

    def to_json_dict(self) -> dict:
        return _echo("config", self)


# JSON key -> field of each dataclass section (the config, a `settings` entry, a results
# line and a curriculum sidecar are each one). Keys, echo, defaults, types and checks come from here.
_SECTIONS = {
    "budget": (BudgetSpec, {
        "seed": "seed_budget", "acquisition": "acq_budget",
        "validation": "val_budget", "rounds": "rounds",
    }),
    "training": (TrainingConfig, {
        key: key for key in ("learning_rates", "batch_size", "max_epochs", "patience", "l2")
    }),
    "settings": (Setting, {"kind": "family", "strategy": "strategy", "source": "source"}),
    # sections whose JSON keys are their field names
    **{name: (cls, {f.name: f.name for f in dataclasses.fields(cls)}) for name, cls in (
        ("config", ExperimentConfig), ("feature_space", FeatureSpace), ("record", RoundRecord),
        ("curriculum", CurriculumReport),
    )},
}
# the section of each dataclass: a field of that type is read and echoed as the section
_SECTION_NAMES = {cls: name for name, (cls, _) in _SECTIONS.items()}
# smallest value of each top-level integer
_TOP_MINIMUM = {"replicates": 1, "seed": 0, "max_length": 1}


def _echo(name: str, value) -> dict:
    """Section `name`'s JSON: no None values."""
    fields = {key: getattr(value, field) for key, field in _SECTIONS[name][1].items()}
    return {key: _plain(v) for key, v in fields.items() if v is not None}


def _plain(value):
    """A field value as JSON holds it: a section by its `_echo`, a tuple as a
    list, an enum by its value, a mapping with string keys (made here:
    `json.dumps` would sort int keys as numbers, 2 before 10, not as strings)."""
    if type(value) in _SECTION_NAMES:
        return _echo(_SECTION_NAMES[type(value)], value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    return value


def _check_unknown(obj: dict, allowed, where: str, errors: list[str]):
    for key in sorted(set(obj) - set(allowed)):
        errors.append(f"{where}: unknown key {key!r}")


def _is_integer(value) -> bool:
    # arithmetic with floats overflows on an int of larger magnitude than a float holds
    return type(value) is int and abs(value) <= sys.float_info.max


def _is_number(value) -> bool:
    return _is_integer(value) or type(value) is float and math.isfinite(value)


def _enum_type(kind: type[Enum]) -> tuple:
    members = {member.value: member for member in kind}
    # the type test comes first: a list or an object cannot be looked up
    return f"one of {sorted(members)}", lambda v: type(v) is str and v in members, members.get


# field type -> (its name, the JSON values it takes, the function that turns
# a taken value into the field's value, or None): a bool is not an integer, a
# JSON int is a number, a number is finite and no larger than a float holds, an
# enum member is named by its value
_JSON_TYPES = {
    int: ("an integer", _is_integer, None),
    float: ("a number", _is_number, None),
    bool: ("a boolean", lambda v: type(v) is bool, None),
    str: ("a string", lambda v: type(v) is str, None),
    str | None: ("a string", lambda v: v is None or type(v) is str, None),
    **{kind: _enum_type(kind) for kind in (SettingFamily, StrategyKind, TaskKind)},
    # the origins of `tuple[T, ...]` and `dict[K, T]`, whose items `_typed` reads
    tuple: ("a list", lambda v: type(v) is list, None),
    dict: ("an object", lambda v: type(v) is dict, None),
}


def _typed(where: str, hint, value, errors: list[str]):
    """The field value of type `hint` that JSON `value` gives, or None and errors.
    A section's dataclass is read by `_section`. Each item of a `tuple[T, ...]`
    or a `dict[K, T]` is read as a T, and is None where it is not one; an int
    key is a round: a decimal string >= 1, as `_plain` writes it."""
    if hint in _SECTION_NAMES:
        return _section(_SECTION_NAMES[hint], value, errors, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    what, accepts, convert = _JSON_TYPES[origin if origin in (tuple, dict) else hint]
    if not accepts(value):
        errors.append(f"{where}: expected {what}, got {value!r}")
        return None
    if origin is tuple:
        return tuple(_typed(f"{where}[{i}]", args[0], v, errors) for i, v in enumerate(value))
    if origin is not dict:
        return convert(value) if convert else value
    rounds, items = args[0] is int, {}
    for key, v in value.items():
        if rounds and not (key.isascii() and key.isdigit() and key[0] != "0"):
            errors.append(f"{where}: expected rounds >= 1 as keys, got {key!r}")
        else:
            items[int(key) if rounds else key] = _typed(f"{where}.{key}", args[1], v, errors)
    return items


@functools.cache
def _schema(cls: type) -> tuple[dict, set[str]]:
    """A dataclass's field types and the names of its fields without a default."""
    required = {f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}
    return typing.get_type_hints(cls), required


def _fields(name: str, raw, errors: list[str], where: str) -> dict | None:
    """Section `name`'s field values that the JSON object `raw` gives, or None
    and errors: those of its keys, and None for each required field it lacks.
    A value `_typed` rejects is None. A key is named `<where>.<key>`, or by
    itself where `where` is empty (the config's)."""
    if not isinstance(raw, dict):
        errors.append(f"{where}: must be an object")
        return None
    cls, keys = _SECTIONS[name]
    _check_unknown(raw, keys, where or name, errors)
    hints, required = _schema(cls)
    return {
        field: _typed(f"{where}.{key}" if where else key, hints[field], raw.get(key), errors)
        for key, field in keys.items() if key in raw or field in required
    }


def _section(name: str, raw, errors: list[str], where: str | None = None):
    """Build one section's dataclass from its JSON object, collecting errors.

    A key absent from `raw` takes the dataclass default, and a field without
    one is required. Errors name the section `where`, else `name`.
    """
    where = where or name
    known = len(errors)
    fields = _fields(name, raw, errors, where)
    if len(errors) > known:
        return None
    try:
        return _SECTIONS[name][0](**fields)
    except ConfigError as exc:
        errors.append(f"{where}: {exc}")
        return None


def _top_integer(key: str, value: int) -> int:
    minimum = _TOP_MINIMUM[key]
    if value < minimum:
        raise ConfigError(f"{key}: must be an integer >= {minimum}, got {value!r}")
    return value


def validate_config(path) -> tuple[ExperimentConfig | None, list[str]]:
    """Read a JSON config and check it, collecting every violation.

    The schema (`_fields`) reads each value and checks its type. The rules
    here tie fields together or reach outside the JSON; each skips a value the
    schema rejected, so that no error hides another. Relative paths resolve
    against the config's directory.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        # ValueError: a JSONDecodeError, or an integer of more digits than `int` reads
        return None, [f"cannot read config: {exc}"]
    if not isinstance(raw, dict):
        return None, ["config root must be a JSON object"]
    errors: list[str] = []
    fields = _fields("config", raw, errors, "")
    task, budget = fields["task"], fields["budget"]

    if fields["languages"] == ():
        errors.append("languages: need a non-empty list of language codes")
    languages = tuple(sorted(c for c in fields["languages"] or () if c is not None))
    for code in languages:
        try:
            check_language(code)
        except DataError as exc:
            errors.append(f"languages: {exc}")
    if len(set(languages)) != len(languages):
        errors.append("languages: duplicate codes")

    data: dict[str, dict[str, str]] = {}
    if fields["data"] is not None:
        for lang in sorted(set(fields["data"]) - set(languages)):
            errors.append(f"data.{lang}: language not in the language set")
        for lang in languages:
            if lang not in fields["data"]:
                errors.append(f"data.{lang}: missing train/test paths")
                continue
            entry = fields["data"][lang]
            if entry is None:
                continue
            _check_unknown(entry, ("train", "test"), f"data.{lang}", errors)
            for split in ("train", "test"):
                if split not in entry:
                    errors.append(f"data.{lang}.{split}: missing path")
                elif entry[split] is not None:
                    file = Path(entry[split])
                    if not file.is_absolute():
                        file = (path.parent / file).resolve()
                    if not file.is_file():
                        errors.append(f"data.{lang}.{split}: file not found: {file}")
                    data.setdefault(lang, {})[split] = str(file)

    if fields["settings"] == ():
        errors.append("settings: need a non-empty list")
    settings: dict[Setting, int] = {}
    for i, setting in enumerate(fields["settings"] or ()):
        if setting is None:
            continue
        if task is not None and not strategy_compatible(setting.strategy, task):
            errors.append(f"settings[{i}]: strategy {setting.strategy.value!r} "
                          f"incompatible with task {task.value!r}")
        if setting.source is not None and setting.source not in languages:
            errors.append(f"settings[{i}].source: {setting.source!r} not in language set")
            continue
        try:
            if budget is not None:
                allocate(setting, budget, languages or ("placeholder",))
        except ConfigError as exc:
            errors.append(f"settings[{i}]: {exc}")
            continue
        if setting in settings:
            errors.append(f"settings[{i}]: duplicate of settings[{settings[setting]}]")
        settings.setdefault(setting, i)

    for key in _TOP_MINIMUM:
        if fields.get(key) is not None:
            try:
                _top_integer(key, fields[key])
            except ConfigError as exc:
                errors.append(str(exc))
    if fields["output_dir"] == "":
        errors.append("output_dir: required")

    if errors:
        return None, sorted(set(errors))
    out_path = Path(fields["output_dir"])
    if not out_path.is_absolute():
        out_path = (path.parent / out_path).resolve()
    fields.update(languages=languages, data=data, output_dir=str(out_path))
    return ExperimentConfig(**fields), []


def load_data(config: ExperimentConfig) -> MultilingualData:
    """Ingest, dedup, and length-filter the configured corpus files.

    Over-long sentences are dropped from training pools only; classification
    truncation applies everywhere. Instance ids count on from file to file
    in sorted language order, train before test, and each instance a file
    holds takes one, also one of another language in a mixed-language TSV. A
    language without training or test instances raises DataError: no model
    could train on it, or its metrics would read 0. So does a test instance
    without gold annotation, which would be scored as misses.
    """
    read, gold = _TASKS[config.task].read, _TASKS[config.task].gold
    splits: dict[str, dict[str, list]] = {"train": {}, "test": {}}
    counter = 0
    for split, out in splits.items():
        for lang in config.languages:
            path = config.data[lang][split]
            first, ingested = counter, read(path, lang, counter)
            counter += len(ingested)
            instances = [i for i in ingested if i.language == lang]
            if split == "train":
                instances = length_filter(dedup(instances), config.max_length)
            elif config.task is TaskKind.CLASSIFICATION:
                instances = length_filter(instances, config.max_length)
            if not instances:
                raise DataError(f"data.{lang}.{split}: no {lang} instances in {path}")
            blank = [i.id - first + 1 for i in instances if split == "test" and getattr(i.payload, gold) is None]
            if blank:  # numbered from 1 among all the file's instances
                raise DataError(f"data.{lang}.test: instance {blank[0]} of {path} has no gold {gold}")
            out[lang] = instances
    return MultilingualData(config.task, splits["train"], splits["test"])


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


def _write_table(path: Path, header: str, rows) -> Path:
    """The one writer of the CLI's CSVs: the `header` line, then a line of each
    row's cells as `str` gives them. No cell holds a comma, so none is quoted."""
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


# The featurized corpus of the run in progress. `cmd_run` loads the data once;
# this process, or each pool worker through the pool's initializer, featurizes
# it once, so no task re-reads the files, carries the data or hashes it again.
_loaded: Featurized | None = None


def _keep_corpus(data: MultilingualData | None, space: FeatureSpace) -> None:
    global _loaded
    _loaded = None if data is None else featurize(data, space)


def run_cell(config: ExperimentConfig, task: dict, out_dir: str) -> list[str]:
    """Execute one task from `_tasks` for all replicates and write its cells' files.

    The task's cells are arms of one setting, which `run_arms` runs in
    lockstep, sharing the fits of pools they hold in common. Returns the
    keys of the cells written.
    """
    corpus = _loaded
    assert corpus is not None, "run_cell runs only inside _task_runs"
    setting, arms = task["setting"], task["arms"]
    plan = allocate(setting, config.budget, config.languages)
    per_round_total = sum(plan.per_round(mp) for mp in plan.models)
    out = Path(out_dir)
    lines: dict[str, list[str]] = {_cell_key(setting, with_al): [] for with_al in arms}
    for replicate in range(config.replicates):
        rng_seed = config.seed + replicate
        runs, composition = run_arms(plan, corpus, config.training, rng_seed, arms)
        for with_al in arms:
            key = _cell_key(setting, with_al)
            results, events = runs[with_al]
            for result in results:
                record = RoundRecord(key, setting.label, setting.strategy.value, with_al, replicate,
                                     result.round_index, result.report.per_language,
                                     result.report.counts, result.spend, result.validation,
                                     result.warnings)
                lines[key].append(json.dumps(_echo("record", record), sort_keys=True,
                                             separators=(",", ":")))
            _write_table(out / "logs" / f"{key}.rep{replicate}.acquisition.csv",
                         "round,instance_id,language,cost,score,strategy",
                         [(e.round, e.instance_id, e.language, e.cost, repr(e.score), e.strategy)
                          for e in events])
            if events:
                report = curriculum(events, composition, per_round_total)
                _atomic_write(out / "logs" / f"{key}.rep{replicate}.curriculum.json",
                              json.dumps(_echo("curriculum", report), sort_keys=True,
                                         separators=(",", ":")) + "\n")
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

    A file that is not a JSON object holding a `cells` object is none. Raises
    ConfigError if it was written for a config with another digest.
    """
    manifest_path = out / "manifest.json"
    if manifest_path.is_file():
        try:
            loaded = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError:  # a JSONDecodeError, or an integer of more digits than `int` reads
            loaded = None
        valid = isinstance(loaded, dict) and isinstance(loaded.get("cells"), dict)
        if valid and loaded.get("version") == MANIFEST_VERSION:
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


def _read_json(path: Path, text: str, name: str, line: int = 1):
    """Section `name` read from the JSON `text`, which starts on line `line` of
    `path`; ParseError, with every error `_section` finds, if it is not one."""
    try:
        # without its trailing newline, a truncated value is reported on its own line
        value = json.loads(text.rstrip())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg} (column {exc.colno})", path=path,
                         line=line + exc.lineno - 1) from None
    except ValueError as exc:
        # an integer of more digits than `int` reads
        raise ParseError(f"invalid JSON: {exc}", path=path, line=line) from None
    errors: list[str] = []
    section = _section(name, value, errors)
    if errors:
        raise ParseError("; ".join(errors), path=path, line=line)
    return section


def _read_cell_records(out: Path) -> dict[str, list[RoundRecord]]:
    """Every result record under `out`, grouped by cell; raises if there is none."""
    records: dict[str, list[RoundRecord]] = {}
    for path in sorted((out / "results").glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                if line.strip():
                    rec = _read_json(path, line, "record", number)
                    records.setdefault(rec.cell, []).append(rec)
    if not records:
        raise ConfigError(f"no results found under {out}")
    return records


def _format_float(value: float) -> str:
    return repr(round(float(value), 10))


def write_summary(out: Path, records: dict[str, list[RoundRecord]]) -> Path:
    """Aggregate every cell into one CSV: a row per setting, metric x AL columns."""
    by_setting: dict[str, dict[bool, list]] = {}
    metric_names: set[str] = set()
    for recs in records.values():
        in_order = sorted(recs, key=lambda r: r.round)
        agg = aggregate([
            [r.metrics for r in in_order if r.replicate == rep]
            for rep in sorted({r.replicate for r in recs})
        ])
        metric_names.update(agg.mean)
        by_setting.setdefault(recs[0].label, {})[recs[0].al] = agg
    names = sorted(metric_names)
    header = ["setting"]
    for name in names:
        for flag in ("with_al", "without_al"):
            header.append(f"{name}_{flag}_mean")
            header.append(f"{name}_{flag}_stddev")
    rows = []
    for setting_label in sorted(by_setting):
        row = [setting_label]
        for name in names:
            for flag in (True, False):
                agg = by_setting[setting_label].get(flag)
                if agg is None or name not in agg.mean:
                    row.extend(["", ""])
                else:
                    row.extend([_format_float(agg.mean[name]), _format_float(agg.stddev[name])])
        rows.append(row)
    return _write_table(out / "summary.csv", ",".join(header), rows)


def write_plot_data(out: Path, records: dict[str, list[RoundRecord]]) -> Path:
    """Long-format per-round CSV suitable for external plotting."""
    rows = []
    for key, recs in sorted(records.items()):
        al_flag = "al" if recs[0].al else "noal"
        per_round: dict[tuple, list[float]] = {}
        for rec in recs:
            for lang, metrics in rec.metrics.items():
                for metric, value in metrics.items():
                    per_round.setdefault((rec.round, lang, metric), []).append(value)
        for (round_idx, lang, metric), values in sorted(per_round.items()):
            mean, std = mean_stddev(values)
            rows.append((recs[0].label, al_flag, round_idx, lang, metric,
                         _format_float(mean), _format_float(std)))
    header = "setting,al_flag,round,language,metric,mean,stddev"
    return _write_table(out / "plot_data.csv", header, rows)


def write_curriculum_csv(out: Path, records: dict[str, list[RoundRecord]]) -> Path:
    """Per-round acquisition-share CSV; reading a sidecar re-checks its share identity.

    Rows come from each result replicate's `logs/<cell>.rep<k>.curriculum.json`,
    so the sidecar of a cell without results is never read.
    """
    rows = []
    for key, recs in sorted(records.items()):
        al_flag = "al" if recs[0].al else "noal"
        metric_lookup = {(r.replicate, r.round): r.metrics for r in recs}
        for replicate in sorted({r.replicate for r in recs}):
            path = out / "logs" / f"{key}.rep{replicate}.curriculum.json"
            if not path.is_file():
                continue
            report = _read_json(path, path.read_text(encoding="utf-8"), "curriculum")
            for round_idx in sorted(report.relative_difference):
                for lang in sorted(report.alphas):
                    metrics = sorted(metric_lookup.get((replicate, round_idx), {}).get(lang, {}).items())
                    metric_cells = (metrics[0][0], _format_float(metrics[0][1])) if metrics else ("", "")
                    rows.append((recs[0].label, al_flag, replicate, round_idx, lang,
                                 _format_float(report.alphas[lang]),
                                 _format_float(report.relative_difference[round_idx][lang]),
                                 *metric_cells))
    header = "setting,al_flag,replicate,round,language,alpha,relative_difference,metric,value"
    return _write_table(out / "curriculum.csv", header, rows)


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
    per task; each worker receives and featurizes `data` once, when it starts.
    """
    workers = min(jobs, len(tasks))
    if workers < 2:
        _keep_corpus(data, config.feature_space)
        try:
            for task in tasks:
                yield task, functools.partial(run_cell, config, task, out)
        finally:
            _keep_corpus(None, config.feature_space)
        return
    # this process keeps no corpus of its own here, so a worker has one only
    # through the initializer, whether the pool forks or spawns it
    with ProcessPoolExecutor(max_workers=workers, initializer=_keep_corpus,
                             initargs=(data, config.feature_space)) as pool:
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
            done = manifest["cells"].get(key) == {"status": "complete"}
            if done and (out / "results" / f"{key}.jsonl").is_file():
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


def cmd_synth(args) -> int:
    task = TaskKind(args.task)
    languages = sorted(args.languages.split(","))
    # checked as `validate` checks them, before anything is written
    seed = _top_integer("seed", args.seed)
    settings = _default_settings(task, languages)
    spec = BudgetSpec(args.budget)
    for setting in settings:
        allocate(setting, spec, languages)
    data = synth_dataset(task, languages, args.train_size, args.test_size, args.overlap, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ext, write = _TASKS[task].ext, _TASKS[task].write
    paths = {}
    for lang in languages:
        paths[lang] = {split: f"{lang}.{split}.{ext}" for split in ("train", "test")}
        write(data.train[lang], out / paths[lang]["train"])
        write(data.test[lang], out / paths[lang]["test"])
    config = {
        "task": task.value,
        "languages": languages,
        "data": paths,
        "settings": _plain(settings),
        "budget": {"seed": args.budget},
        "replicates": 1,
        "seed": seed,
        "output_dir": "runs",
    }
    config_path = out / "config.json"
    _atomic_write(config_path, json.dumps(config, indent=2, sort_keys=True) + "\n")
    print(config_path)
    return 0


def _default_settings(task: TaskKind, languages) -> tuple[Setting, ...]:
    strategy = _TASKS[task].strategy
    return (
        Setting(SettingFamily.SMA, strategy),
        Setting(SettingFamily.MMA, strategy),
        *(Setting(SettingFamily.MONOA, strategy, source=lang) for lang in languages),
    )


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

    p_synth = sub.add_parser("synth", help="generate a synthetic multilingual corpus")
    p_synth.add_argument("--task", choices=[t.value for t in TaskKind], required=True)
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
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LingallocError, OSError) as exc:  # OSError: an output or corpus path is unusable
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
