"""The ``ciakit`` namespace, each test in a fresh interpreter: what a plain import
loads, and that every public name resolves to its module's object."""

import json

from ciakit import GenParams, compose_pairwise_reduce, default_io_sets, generate_corpus
from ciakit import serialize_automaton
from conftest import python_output

# module -> the public names ``ciakit`` re-exports from it
PUBLIC = {
    "product": ["IoSets", "compose", "compose_pairwise_reduce", "default_io_sets"],
    "core": ["Automaton", "Hierarchy", "Label", "LabelKind", "Transition", "reachable"],
    "dot": ["export_dot"],
    "errors": [
        "CiaError",
        "FormatError",
        "OracleLimitError",
        "RefinementTimeout",
        "SeparationError",
        "ValidationError",
    ],
    "experiment": ["ExperimentRow", "reduction_report", "run_experiment", "run_pair"],
    "fmt": ["parse_automata", "parse_hierarchy", "serialize_automaton"],
    "generate": ["GenParams", "SplitMix64", "generate_corpus", "generate_primitive", "write_corpus"],
    "metrics": ["MetricsRecord", "gini", "metrics_record"],
    "refine": ["Partition", "RefineStats", "partition_refine", "quotient", "weak_bisim_relation"],
    "regress": ["ClassificationReport", "LogisticFit", "classify", "fit_logistic", "threshold_x"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)
# what writing a corpus does not need
UNUSED_BY_SETUP = ["ciakit.cells", "ciakit.dot", "ciakit.experiment", "ciakit.metrics",
                   "ciakit.product", "ciakit.refine", "ciakit.regress", "logging"]


def test_plain_import_loads_no_submodule():
    probe = "import ciakit, sys; print(sorted(m for m in sys.modules if m.startswith('ciakit.')))"
    assert python_output(probe).strip() == "[]"


def test_corpus_setup_loads_only_what_it_uses():
    # the import line of the benchmark's corpus set-up
    probe = (
        "from ciakit import Automaton, GenParams, Label, SplitMix64, Transition, "
        "generate_primitive, write_corpus\n"
        f"import sys; print(sorted(set({UNUSED_BY_SETUP!r}) & set(sys.modules)))"
    )
    assert python_output(probe).strip() == "[]"


def test_all_lists_the_public_names_and_each_resolves_to_its_module_object():
    probe = f"""
import importlib, json, ciakit
public = json.loads({json.dumps(json.dumps(PUBLIC))})
# read every name through the package first, so each goes through the lazy path
values = {{name: getattr(ciakit, name) for names in public.values() for name in names}}
wrong = [name for module, names in public.items() for name in names
         if values[name] is not getattr(importlib.import_module("ciakit." + module), name)]
print(json.dumps([sorted(ciakit.__all__), wrong, sorted(set(ciakit.__all__) - set(dir(ciakit)))]))
"""
    assert json.loads(python_output(probe)) == [NAMES, [], []]


def test_the_package_table_is_the_only_list_of_public_names():
    probe = (
        "import ciakit, importlib, pkgutil\n"
        "print([m.name for m in pkgutil.iter_modules(ciakit.__path__)\n"
        "       if hasattr(importlib.import_module('ciakit.' + m.name), '__all__')])"
    )
    assert python_output(probe).strip() == "[]"


def test_star_import_binds_every_public_name():
    probe = (
        "namespace = {}\n"
        "exec('from ciakit import *', namespace)\n"
        "print(sorted(set(namespace) - {'__builtins__'}))"
    )
    assert python_output(probe).strip() == repr(NAMES)


def test_submodules_stay_reachable_as_attributes():
    probe = "import ciakit, sys; print(ciakit.refine is sys.modules['ciakit.refine'])"
    assert python_output(probe).strip() == "True"


def test_compose_is_the_function_after_its_module_is_imported():
    probe = (
        "import ciakit, ciakit.product as m, sys\n"
        "from ciakit import compose\n"
        "print(m is sys.modules['ciakit.product'], compose is m.compose is ciakit.compose)"
    )
    assert python_output(probe).strip() == "True True"


def test_pairwise_fold_loads_the_engine_itself():
    probe = """
import sys
from ciakit import GenParams, compose_pairwise_reduce, default_io_sets, generate_corpus
from ciakit import serialize_automaton
print("ciakit.refine" in sys.modules)
a, b = generate_corpus(GenParams(state_count_range=(4, 8), seed=3), 1)[0]
print(serialize_automaton(compose_pairwise_reduce([a, b], default_io_sets([a, b]))), end="")
"""
    loaded, folded = python_output(probe).split("\n", 1)
    a, b = generate_corpus(GenParams(state_count_range=(4, 8), seed=3), 1)[0]
    assert loaded == "False"
    assert folded == serialize_automaton(compose_pairwise_reduce([a, b], default_io_sets([a, b])))
