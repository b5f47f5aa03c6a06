"""Component Interaction Automata toolkit.

Modeling, composition, weak-bisimulation state-space reduction, structural
metrics, synthetic corpus generation, and logistic-regression analysis of
refinement outcomes.

A public name loads its module on first use (PEP 562), so ``import ciakit``
loads no submodule and a script that only generates a corpus does not load
the refinement engine, the experiment pipeline or the fitter.  The product
module is ``ciakit.product``; ``ciakit.compose`` is its function.
"""

from importlib import import_module

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "product": ("IoSets", "compose", "compose_pairwise_reduce", "default_io_sets"),
        "core": ("Automaton", "Hierarchy", "Label", "LabelKind", "Transition", "reachable"),
        "dot": ("export_dot",),
        "errors": (
            "CiaError",
            "FormatError",
            "OracleLimitError",
            "RefinementTimeout",
            "SeparationError",
            "ValidationError",
        ),
        "experiment": ("ExperimentRow", "reduction_report", "run_experiment", "run_pair"),
        "fmt": ("parse_automata", "parse_hierarchy", "serialize_automaton"),
        "generate": (
            "GenParams",
            "SplitMix64",
            "generate_corpus",
            "generate_primitive",
            "write_corpus",
        ),
        "metrics": ("MetricsRecord", "gini", "metrics_record"),
        "refine": (
            "Partition",
            "RefineStats",
            "partition_refine",
            "quotient",
            "weak_bisim_relation",
        ),
        "regress": (
            "ClassificationReport",
            "LogisticFit",
            "classify",
            "fit_logistic",
            "threshold_x",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        # a submodule not imported yet, e.g. ``ciakit.refine`` after ``import ciakit``
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
