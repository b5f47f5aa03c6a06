"""Component Interaction Automata toolkit.

Modeling, composition, weak-bisimulation state-space reduction, structural
metrics, synthetic corpus generation, and logistic-regression analysis of
refinement outcomes.
"""

from .compose import IoSets, compose, compose_pairwise_reduce, default_io_sets
from .core import (
    Automaton,
    Hierarchy,
    Label,
    LabelKind,
    Transition,
    reachable,
)
from .dot import export_dot
from .errors import (
    CiaError,
    FormatError,
    OracleLimitError,
    RefinementTimeout,
    SeparationError,
    ValidationError,
)
from .experiment import ExperimentRow, reduction_report, run_experiment, run_pair
from .fmt import (
    parse_automata,
    parse_automaton,
    parse_hierarchy,
    serialize_automaton,
)
from .generate import GenParams, SplitMix64, generate_corpus, generate_primitive, write_corpus
from .metrics import MetricsRecord, gini, metrics_record
from .refine import (
    Partition,
    RefineStats,
    partition_refine,
    quotient,
    weak_bisim_relation,
)
from .regress import (
    ClassificationReport,
    LogisticFit,
    classify,
    fit_logistic,
    threshold_x,
)

__version__ = "0.1.0"
