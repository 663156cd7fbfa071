#!/usr/bin/env python3
"""Check that two checkouts write byte-identical outputs.

    python scripts/compare_outputs.py A B [--seeds 0,1,2]

A and B are checkout roots, each with a `src/lingalloc`. For every seed
(default: 0 alone) and for classification, tagging and parsing, each
checkout's own CLI runs `synth --seed S`, then `validate` on that config and
on a copy with ten times its budget, whose standard output and error (the
config echo and the pool warnings) are kept in `validate.txt` with the
checkout's work directory written as `<work>`, then `run --jobs 1` and
`run --jobs 2` into two output directories, then `report` and `curriculum`
on both. Before those, the SMA setting's AL result file of the
`--jobs 2` run is deleted and `run --jobs 2` resumes into the same
directory, so the path that reruns one arm of a setting is compared too.
Every file written is then compared between A and B; the manifest's
timestamp is left out. Prints each seed's count of identical files and the
files that differ, or that only one side wrote. Exits 1 when any file of
any seed differs, 0 when all are identical.
"""

import argparse
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
TEST_SIZE = 20
TRAINING = {"learning_rates": [0.5], "max_epochs": 4, "patience": 2}


def _cli(root: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "lingalloc.cli", *args],
        env=env, capture_output=True, text=True,
    )
    if done.returncode:
        sys.stderr.write(done.stderr)
    done.check_returncode()
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
        config.update(replicates=2, training=TRAINING)
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        # ten times the budget: every model needs more than its pool holds and warns
        tight_path = corpus / "tight.json"
        tight_path.write_text(json.dumps(dict(config, budget={"seed": 10 * budget}), indent=2) + "\n")
        text = ""
        for path in (config_path, tight_path):
            shown = _cli(root, "validate", "--config", str(path))
            text += f"{path.name} stdout:\n{shown.stdout}{path.name} stderr:\n{shown.stderr}"
        (corpus / "validate.txt").write_text(text.replace(str(work.resolve()), "<work>"))
        for jobs in ("1", "2"):
            out = str(corpus / f"jobs{jobs}")
            _cli(root, "run", "--config", str(config_path), "--jobs", jobs, "--out", out)
            if jobs == "2":
                # resume with one setting's AL arm pending and its random arm done
                (Path(out) / "results" / f"sma.{STRATEGY[task]}.al.jsonl").unlink()
                _cli(root, "run", "--config", str(config_path), "--jobs", jobs, "--out", out)
            _cli(root, "report", "--out", out)
            _cli(root, "curriculum", "--out", out)


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
