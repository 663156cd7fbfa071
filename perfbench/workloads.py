"""The benchmark's workloads: inputs made from a seed, one measured run, its outputs.

Every workload is a closed loop of measured runs in one process; a run
starts only after the previous one finished. `setup` makes the inputs from
the seed (the program receives only those), `run` is one measured run, and
`summarize` turns a run's outputs into the record that is compared with the
stored reference: the quality figure, one digest per operation (a cell, a
run of the protocol, or a scored tree) and the sum of all acquisition or
tree scores. Digests cover exact values only (ids, heads, counts and metrics
computed from counts); scores are floats whose low-order digits may move with
summation order, so their sum is compared with a tolerance instead.

Why each workload exists is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from lingalloc import acquisition, cli, experiment, graph, synth
from lingalloc.acquisition import StrategyKind
from lingalloc.corpus import DepTree, Instance
from lingalloc.experiment import BudgetSpec, MultilingualData, Setting, SettingFamily
from lingalloc.models import FeatureSpace, TrainingConfig
from lingalloc.tasks import TaskKind

LANGUAGES = ("aa", "bb", "cc", "dd")
OVERLAP = 0.5
# A fixed number of epochs (patience equal to the epoch cap) keeps the work
# of a run independent of where early stopping happens to fire for a seed.
EPOCHS = 10
TRAINING = TrainingConfig(learning_rates=(0.5,), max_epochs=EPOCHS, patience=EPOCHS)


def digest(value) -> str:
    """Short stable digest of a JSON-serialisable value or of raw bytes."""
    if not isinstance(value, bytes):
        value = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(value).hexdigest()[:16]


def _quiet(fn, *args):
    """Call `fn` with the program's standard output captured; return (result, text)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        result = fn(*args)
    return result, buffer.getvalue()


def _score_sum(scores) -> float:
    return math.fsum(s for s in scores if math.isfinite(s))


def _budget_violations(spend_by_round, per_round: int) -> list[str]:
    return [f"round {r} spent {s} of {per_round}"
            for r, s in spend_by_round if s > per_round]


class ClsGrid:
    """``lingalloc synth`` -> ``run --jobs 2`` -> ``report``, all through ``cli.main``."""

    name = "cls_grid"
    jobs = 2
    train_size = 700
    test_size = 150
    budget = 300
    ops_per_run = 12  # cells: (sma, mma, monoa x 4) x (with AL, without AL)

    def __init__(self, seed: int, work: Path, jobs: int | None = None):
        self.seed = seed
        self.work = work
        if jobs is not None:
            self.jobs = jobs
        self.setups = 0
        self.runs = 0
        self.config = None

    def setup(self) -> None:
        corpus = self.work / f"corpus-{self.setups}"
        self.setups += 1
        rc, _ = _quiet(cli.main, [
            "synth", "--task", "classification", "--languages", ",".join(LANGUAGES),
            "--train-size", str(self.train_size), "--test-size", str(self.test_size),
            "--overlap", str(OVERLAP), "--seed", str(self.seed),
            "--budget", str(self.budget), "--out", str(corpus),
        ])
        if rc != 0:
            raise RuntimeError(f"lingalloc synth exited with {rc}")
        config_path = corpus / "config.json"
        config = json.loads(config_path.read_text())
        config["training"] = {"learning_rates": list(TRAINING.learning_rates),
                              "max_epochs": TRAINING.max_epochs,
                              "patience": TRAINING.patience}
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
        self.config = config_path

    def run(self):
        # a fresh output directory, so no run can resume from an earlier manifest
        out = self.work / f"run-{self.runs}"
        self.runs += 1
        run_rc, run_text = _quiet(cli.main, ["run", "--config", str(self.config),
                                             "--jobs", str(self.jobs), "--out", str(out)])
        report_rc, report_text = _quiet(cli.main, ["report", "--out", str(out)])
        return {"out": out, "rc": (run_rc, report_rc), "text": run_text + report_text}

    def summarize(self, outputs) -> tuple[dict, list[str]]:
        out = outputs["out"]
        lines = outputs["text"].splitlines()
        done = sorted(line.split()[1] for line in lines if line.startswith("done "))
        problems = []
        if outputs["rc"] != (0, 0):
            problems.append(f"exit codes {outputs['rc']}")
        if len(done) != self.ops_per_run or any(line.startswith("skip ") for line in lines):
            problems.append(f"{len(done)} cells done, {self.ops_per_run} expected, none skipped")
        ops, sums, qualities = {}, [], []
        per_round = self.budget // 3
        results = sorted((out / "results").glob("*.jsonl"))
        for path in results:
            key = path.name[: -len(".jsonl")]
            raw = path.read_bytes()
            records = [json.loads(line) for line in raw.splitlines() if line.strip()]
            final = max(records, key=lambda r: r["round"])
            correct = sum(c["correct"] for c in final["counts"].values())
            total = sum(c["total"] for c in final["counts"].values())
            qualities.append(correct / total)
            events, scores = [], []
            with open(out / "logs" / f"{key}.rep0.acquisition.csv", newline="") as handle:
                for row in csv.DictReader(handle):
                    events.append([int(row["round"]), int(row["instance_id"]),
                                   row["language"], int(row["cost"])])
                    scores.append(float(row["score"]))
            spend = [(r["round"], sum(r["spend"].values())) for r in records]
            bad = _budget_violations(spend, per_round)
            if bad:
                problems.append(f"{key}: {'; '.join(bad)}")
            ops[key] = digest([digest(raw), events])
            sums.append(_score_sum(scores))
        whole = hashlib.sha256()
        for path in results:
            whole.update(path.name.encode() + b"\0" + path.read_bytes())
        summary = {
            "quality": float(np.mean(qualities)) if qualities else 0.0,
            "score_sum": math.fsum(sums),
            "results_digest": whole.hexdigest()[:16],
            "ops": ops,
        }
        shutil.rmtree(out, ignore_errors=True)
        return summary, problems

    def tamper(self, outputs) -> None:
        """Change one byte of one result file, as a faulty program might."""
        path = sorted((outputs["out"] / "results").glob("*.jsonl"))[0]
        text = path.read_text()
        path.write_text(text.replace('"round":0', '"round":9', 1))


class _ProtocolRun:
    """One in-process `run_rounds` over generated data; one operation per run."""

    ops_per_run = 1

    def __init__(self, seed: int, work: Path, jobs: int | None = None):
        self.seed = seed
        self.data = None
        self.plan = experiment.allocate(
            Setting(SettingFamily.SMA, self.strategy),
            BudgetSpec(self.budget, self.budget, self.budget, 4),
            LANGUAGES,
        )

    def run(self):
        return experiment.run_rounds(self.plan, self.data, TRAINING, FeatureSpace(), self.seed)

    def summarize(self, outputs) -> tuple[dict, list[str]]:
        results, events = outputs
        rounds = [[r.round_index, r.report.per_language, r.report.counts, r.spend,
                   r.validation, list(r.warnings)] for r in results]
        event_rows = [[e.round, e.instance_id, e.language, e.cost, e.strategy] for e in events]
        per_round = self.budget // 3
        problems = _budget_violations(
            [(r.round_index, sum(r.spend.values())) for r in results], per_round)
        if len(results) != 4:
            problems.append(f"{len(results)} rounds, 4 expected")
        summary = {
            "quality": results[-1].report.micro()[self.metric],
            "score_sum": _score_sum(e.score for e in events),
            "ops": {"run": digest([rounds, event_rows])},
        }
        return summary, problems

    def tamper(self, outputs) -> None:
        """Report one acquired instance under another id."""
        _, events = outputs
        events[0] = experiment.AcquisitionEvent(
            events[0].round, events[0].instance_id + 1, events[0].language,
            events[0].cost, events[0].score, events[0].strategy)


class TagSma(_ProtocolRun):
    """SMA with ``mnlp`` on the tagging task: training dominates."""

    name = "tag_sma"
    strategy = StrategyKind.MNLP
    metric = "f1"
    train_size = 300
    test_size = 150
    budget = 1500

    def setup(self) -> None:
        self.data = synth.synth_dataset(TaskKind.SEQUENCE_TAGGING, LANGUAGES, self.train_size,
                                        self.test_size, OVERLAP, self.seed)


def chain_clauses(data: MultilingualData, rng: np.random.Generator,
                  lo: int, hi: int) -> MultilingualData:
    """Join consecutive synthetic clauses into sentences of `lo`..`hi` tokens.

    Each later clause keeps its internal arcs, shifted, and its root is
    attached to the first clause's root verb with the label ``conj``. A
    sentence closes as soon as it reaches its drawn length, so the last
    clause may carry it a few tokens past `hi`.
    """
    next_id = 0
    split_out: dict[str, dict[str, list[Instance]]] = {"train": {}, "test": {}}
    for split, source in (("train", data.train), ("test", data.test)):
        for lang in data.languages:
            clauses = [inst.payload for inst in source[lang]]
            sentences = []
            i = 0
            while i < len(clauses):
                target = int(rng.integers(lo, hi + 1))
                tokens, upos, heads, labels = [], [], [], []
                first_root = None
                while len(tokens) < target and i < len(clauses):
                    clause = clauses[i]
                    i += 1
                    offset = len(tokens)
                    tokens += clause.tokens
                    upos += clause.upos
                    labels += clause.labels
                    heads += [0 if h == 0 else h + offset for h in clause.heads]
                    root = offset + clause.heads.index(0) + 1
                    if first_root is None:
                        first_root = root
                    else:
                        heads[root - 1] = first_root
                        labels[root - 1] = "conj"
                tree = DepTree(tuple(tokens), tuple(upos), tuple(heads), tuple(labels))
                sentences.append(Instance(next_id, lang, tree, len(tokens)))
                next_id += 1
            split_out[split][lang] = sentences
    return MultilingualData(data.task, split_out["train"], split_out["test"])


class ParseLong(_ProtocolRun):
    """SMA with ``nlpdt_global`` on parsing, over chained 15-60 token sentences."""

    name = "parse_long"
    strategy = StrategyKind.NLPDT_GLOBAL
    metric = "las"
    clauses_train = 40
    clauses_test = 20
    budget = 200
    min_tokens, max_tokens = 15, 60

    def setup(self) -> None:
        base = synth.synth_dataset(TaskKind.DEPENDENCY_PARSING, LANGUAGES, self.clauses_train,
                                   self.clauses_test, OVERLAP, self.seed)
        rng = np.random.default_rng([self.seed, 1])
        self.data = chain_clauses(base, rng, self.min_tokens, self.max_tokens)


VARIANTS = (StrategyKind.NLPDT, StrategyKind.NLPDT_N2, StrategyKind.NLPDT_GLOBAL)


def head_matrix(rng: np.random.Generator, n: int, roots: int, boost: float) -> np.ndarray:
    """(n+1) x n head probabilities: column softmax of noise, ROOT boosted on `roots` tokens.

    Self-attachment gets probability zero. This is the shape of what an
    under-trained parser emits when several tokens prefer ROOT.
    """
    z = rng.normal(size=(n + 1, n))
    boosted = rng.choice(n, size=roots, replace=False)
    z[0, boosted] += boost
    z[np.arange(1, n + 1), np.arange(n)] = -np.inf
    z -= z.max(axis=0)
    p = np.exp(z)
    return p / p.sum(axis=0)


class TreeScoring:
    """`chu_liu_edmonds` and the three `nlpdt_score` variants on generated matrices."""

    name = "tree_scoring"
    # (sentence length, tokens whose ROOT arc is boosted), scored in this order.
    # Many short matrices rather than a few long ones: one decode's cost
    # varies by up to 1.7x between matrices of the same length, and averaging
    # over many keeps one seed's run time close to another's. Lengths stop at
    # 25: on a shared 2-vCPU virtual machine, passes over matrices of 30 to 40
    # tokens slowed and sped up by a third between neighbouring 15-second
    # windows while passes over these moved half as much.
    lengths = [10] * 16 + [15] * 24 + [20] * 40 + [25] * 40
    shapes = tuple((n, 2 + i % 7) for i, n in enumerate(lengths))
    boost = 4.0
    ops_per_run = len(shapes)

    def __init__(self, seed: int, work: Path, jobs: int | None = None):
        self.seed = seed
        self.matrices = []

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.matrices = [head_matrix(rng, n, k, self.boost) for n, k in self.shapes]

    def run(self):
        out = []
        for probs in self.matrices:
            with np.errstate(divide="ignore"):
                scores = graph.ArcScores(np.log(probs))
            tree = graph.chu_liu_edmonds(scores)
            n = probs.shape[1]
            out.append((tree, [acquisition.nlpdt_score(probs, tree, n, v) for v in VARIANTS]))
        return out

    def summarize(self, outputs) -> tuple[dict, list[str]]:
        ops, sums, problems, per_token = {}, [], [], []
        for i, (probs, (tree, values)) in enumerate(zip(self.matrices, outputs)):
            key = f"m{i:03d}-n{probs.shape[1]}"
            ops[key] = digest(list(tree.heads))
            sums.append(_score_sum(values))
            per_token.append(math.exp(values[0]))
            problems += [f"{key}: {p}" for p in _tree_bounds(probs, tree, values)]
        summary = {"quality": float(np.mean(per_token)), "score_sum": math.fsum(sums), "ops": ops}
        return summary, problems

    def tamper(self, outputs) -> None:
        """Replace the first decoded tree by the star tree on its root."""
        tree, values = outputs[0]
        root = tree.heads.index(0) + 1
        star = tuple(0 if d == root else root for d in range(1, tree.n + 1))
        outputs[0] = (graph.Arborescence(star), values)


def _tree_bounds(probs: np.ndarray, tree, values) -> list[str]:
    """Checks that need no reference: the decoded tree is at least as good as a
    star tree on the best ROOT child, at most the unconstrained column maxima,
    and its global score is a log share (<= 0)."""
    n = probs.shape[1]
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    got = sum(logp[h, d] for d, h in enumerate(tree.heads))
    root = int(np.argmax(logp[0])) + 1
    star = logp[0, root - 1] + sum(logp[root, d] for d in range(n) if d != root - 1)
    upper = logp.max(axis=0).sum()
    problems = []
    if got < star - 1e-9:
        problems.append(f"tree log-prob {got} below a star tree's {star}")
    if got > upper + 1e-9:
        problems.append(f"tree log-prob {got} above the column maxima {upper}")
    if values[2] > 1e-9:
        problems.append(f"global score {values[2]} is positive")
    return problems


WORKLOADS = {w.name: w for w in (ClsGrid, TagSma, ParseLong, TreeScoring)}
