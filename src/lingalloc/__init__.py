"""Annotation-budget allocation experiments across languages, with active learning."""

from .acquisition import (
    AcquisitionScore,
    StrategyKind,
    lc_score,
    mnlp_score,
    nlpdt_score,
    select_batch,
)
from .corpus import (
    ClassificationText,
    DepTree,
    Instance,
    Pool,
    SplitSpec,
    TaggedSentence,
    dedup,
    ingest_conll_ner,
    ingest_conllu,
    ingest_tsv_classification,
    length_filter,
    sample_splits,
)
from .experiment import (
    BudgetSpec,
    Featurized,
    MultilingualData,
    RoundResult,
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
from .graph import Arborescence, ArcScores, chu_liu_edmonds, log_partition, tree_log_prob
from .models import (
    DependencyParser,
    FeatureSpace,
    SequenceTagger,
    TextClassifier,
    TrainingConfig,
    build_model,
)
from .synth import synth_dataset
from .tasks import BudgetUnit, MetricReport, TaskKind, accuracy, attachment_scores, span_f1

__version__ = "0.1.0"
