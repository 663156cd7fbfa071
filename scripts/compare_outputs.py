#!/usr/bin/env python3
"""Check that two checkouts write byte-identical outputs.

    python scripts/compare_outputs.py A B [--seeds 0,1,2]

A and B are checkout roots, each with a `src/lingalloc`. For every seed
(default: 0 alone) and for classification, tagging and parsing, each
checkout's own CLI runs `synth --seed S`; parsing's config also gets SMA
settings with `nlpdt_n2` and `nlpdt_global`, so all three tree scores are
compared. Language aa's train file is rewritten with `\\r\\n` line ends, so
the readers' newline handling is compared end to end. Then `validate` runs
on that config and on a copy with ten times
its budget, whose standard output and error (the config echo and the pool
warnings) are kept in `validate.txt` with the checkout's work directory
written as `<work>`. `validate` must reject each
config of `_invalid`, and its error lines are kept in `invalid.txt` the
same way. Then the CLI runs `run --jobs 1` and `run --jobs 2` into two
output directories, then `report` on both. Before that,
the SMA setting's AL result file of the `--jobs 2` run is deleted and
`run --jobs 2` resumes into the same directory, so the path that reruns
one arm of a setting is compared too.
Classification also runs a copy of its config with the budgets in
`EXHAUSTING` and 3 replicates, with `--jobs 1` and `--jobs 2`, then
`report`: there every MonoA source pool runs out in round 2, so the AL and
random arms buy different instances in round 1, then hold the same pool and
share its fits, and the results carry `unlabeled pool exhausted` warnings.
With three replicates, each standard deviation of its `summary.csv` and
`plot_data.csv` is taken over three values, where two formulas for it can
differ in their last bits. Classification also runs its config on one
train and one test TSV that hold every language, their rows interleaved
(`MIXED`), with `--jobs 1` and `--jobs 2`, then `report`: each language's
instance ids then have gaps, so pools are drawn over candidate ids that
are not consecutive. Every file
written is then compared between A and B; the manifest's timestamp is left
out. Prints each seed's count of identical files and the
files that differ, or that only one side wrote. Exits 1 when any file of
any seed differs, 0 when all are identical.
"""

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LANGUAGES = "aa,bb,cc"
# task -> (train instances per language, budget): every MonoA pool holds its
# seed, validation and acquisition budgets, so no AL arm copies its random arm
SIZES = {"classification": (200, 60), "tagging": (80, 120), "parsing": (60, 80)}
STRATEGY = {"classification": "lc", "tagging": "mnlp", "parsing": "nlpdt"}
# SMA settings added to the synthesized ones, so that parsing runs every tree
# score `experiment._score_pool` computes
MORE_STRATEGIES = {"parsing": ("nlpdt_n2", "nlpdt_global")}
TEST_SIZE = 20
# over 200 instances per language, a MonoA pool keeps 80 unlabeled after its
# seed and validation draws (60 each) and buys 50 per round, so it runs out in
# round 2; the other settings' pools do not
EXHAUSTING = {"seed": 60, "acquisition": 150}
# l2 > 0 and small batches, so the weight-decay branch of every SGD step and
# a short last batch per epoch are compared too
TRAINING = {"learning_rates": [0.5], "max_epochs": 4, "patience": 2, "l2": 0.001, "batch_size": 7}
# the classification corpus's split files merged into one per split, under the corpus directory
MIXED = {split: f"mixed.{split}.tsv" for split in ("train", "test")}


def _invalid(config: dict, own: str, other: str) -> dict[str, dict]:
    """Name -> each config `validate` rejects, made from the valid `config`.

    `own` is the task's strategy, `other` one the task does not take.
    """
    sma = {"kind": "sma", "strategy": own}
    aa = config["data"]["aa"]
    changes = {
        "unknown-key": {"settings": [dict(sma, note=1)]},
        "duplicate": {"settings": [sma, sma]},
        "incompatible": {"settings": [dict(sma, strategy=other)]},
        "monoa-no-source": {"settings": [{"kind": "monoa", "strategy": own}]},
        # MMA over three languages needs every budget >= 3
        "mma-budget": {"settings": [{"kind": "mma", "strategy": own}], "budget": {"seed": 2}},
        "unknown-top-key": {"note": 1},
        "no-replicates": {"replicates": 0},
        "missing-file": {"data": dict(config["data"], aa=dict(aa, train="missing." + aa["train"]))},
        # a wrongly typed value in one section beside a broken rule in another
        "type-and-rule": {"training": dict(config["training"], batch_size="x"), "replicates": 0},
    }
    return {name: dict(config, **change) for name, change in changes.items()}


def _cli(root: Path, *args: str, expect: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "lingalloc.cli", *args],
        env=env, capture_output=True, text=True,
    )
    if done.returncode != expect:
        sys.stderr.write(done.stderr)
        raise subprocess.CalledProcessError(done.returncode, done.args)
    return done


def produce(root: Path, work: Path, seed: int) -> None:
    """Every output of one checkout for all three tasks on one seed, under `work`."""
    for task, (train, budget) in SIZES.items():
        corpus = work / task
        _cli(root, "synth", "--task", task, "--languages", LANGUAGES, "--train-size", str(train),
             "--test-size", str(TEST_SIZE), "--budget", str(budget), "--seed", str(seed),
             "--out", str(corpus))
        config_path = corpus / "config.json"
        config = json.loads(config_path.read_text())
        crlf = corpus / config["data"]["aa"]["train"]
        crlf.write_bytes(crlf.read_bytes().replace(b"\n", b"\r\n"))
        config.update(replicates=2, training=TRAINING)
        config["settings"] += [{"kind": "sma", "strategy": strategy}
                               for strategy in MORE_STRATEGIES.get(task, ())]
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        # ten times the budget: every model needs more than its pool holds and warns
        tight_path = corpus / "tight.json"
        tight_path.write_text(json.dumps(dict(config, budget={"seed": 10 * budget}), indent=2) + "\n")
        text = ""
        for path in (config_path, tight_path):
            shown = _cli(root, "validate", "--config", str(path))
            text += f"{path.name} stdout:\n{shown.stdout}{path.name} stderr:\n{shown.stderr}"
        (corpus / "validate.txt").write_text(text.replace(str(work.resolve()), "<work>"))
        text = ""
        other = "mnlp" if task == "classification" else "lc"
        for name, bad in _invalid(config, STRATEGY[task], other).items():
            path = corpus / f"{name}.json"
            path.write_text(json.dumps(bad, indent=2) + "\n")
            shown = _cli(root, "validate", "--config", str(path), expect=1)
            text += f"{path.name} stderr:\n{shown.stderr}"
        (corpus / "invalid.txt").write_text(text.replace(str(work.resolve()), "<work>"))
        for jobs in ("1", "2"):
            out = str(corpus / f"jobs{jobs}")
            _cli(root, "run", "--config", str(config_path), "--jobs", jobs, "--out", out)
            if jobs == "2":
                # resume with one setting's AL arm pending and its random arm done
                (Path(out) / "results" / f"sma.{STRATEGY[task]}.al.jsonl").unlink()
                _cli(root, "run", "--config", str(config_path), "--jobs", jobs, "--out", out)
            _cli(root, "report", "--out", out)
    corpus = work / "classification"
    exhaust_path = corpus / "exhaust.json"
    config = json.loads((corpus / "config.json").read_text())
    exhaust = dict(config, budget=EXHAUSTING, replicates=3)
    exhaust_path.write_text(json.dumps(exhaust, indent=2) + "\n")
    for jobs in ("1", "2"):
        out = str(corpus / f"exhaust-jobs{jobs}")
        _cli(root, "run", "--config", str(exhaust_path), "--jobs", jobs, "--out", out)
        _cli(root, "report", "--out", out)
    results = corpus / "exhaust-jobs1" / "results" / "monoa-aa.lc.al.jsonl"
    if "unlabeled pool exhausted" not in results.read_text():
        raise SystemExit(f"{root}: no MonoA pool of {exhaust_path.name} ran out")
    for split, name in MIXED.items():
        # each file's rows after its header, one row of each language in turn
        rows = [(corpus / config["data"][lang][split]).read_text(encoding="utf-8").splitlines()
                for lang in LANGUAGES.split(",")]
        mixed = [row for group in itertools.zip_longest(*(r[1:] for r in rows)) for row in group if row]
        (corpus / name).write_text("\n".join([rows[0][0], *mixed]) + "\n", encoding="utf-8")
    mixed_path = corpus / "mixed.json"
    mixed_path.write_text(json.dumps(dict(config, data={lang: MIXED for lang in LANGUAGES.split(",")}),
                                     indent=2) + "\n")
    for jobs in ("1", "2"):
        out = str(corpus / f"mixed-jobs{jobs}")
        _cli(root, "run", "--config", str(mixed_path), "--jobs", jobs, "--out", out)
        _cli(root, "report", "--out", out)


def _contents(path: Path) -> bytes:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        manifest.pop("timestamp", None)
        return json.dumps(manifest, sort_keys=True).encode()
    return path.read_bytes()


def _files(work: Path) -> dict[str, bytes]:
    return {str(p.relative_to(work)): _contents(p) for p in sorted(work.rglob("*")) if p.is_file()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs=2, type=Path, metavar="ROOT")
    parser.add_argument("--seeds", default="0", help="comma-separated synth seeds")
    args = parser.parse_args()
    seeds = [int(seed) for seed in args.seeds.split(",")]
    roots = [root.resolve() for root in args.roots]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            trees = []
            for side, root in zip("AB", roots):
                work = Path(tmp) / f"seed{seed}" / side
                produce(root, work, seed)
                trees.append(_files(work))
            a, b = trees
            differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
            for name in differ:
                print(f"seed {seed}: differs: {name}")
            print(f"seed {seed}: {len(a.keys() | b.keys()) - len(differ)} files identical, "
                  f"{len(differ)} differ")
            failed = failed or bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
