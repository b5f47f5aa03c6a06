from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciakit import (
    Automaton,
    FormatError,
    GenParams,
    LabelKind,
    compose,
    default_io_sets,
    generate_corpus,
    generate_primitive,
    parse_automata,
    parse_hierarchy,
    partition_refine,
    quotient,
    reachable,
    serialize_automaton,
)
from conftest import aut

MINIMAL = """\
automaton M
hierarchy (A)
states s0 s1
initial s0
trans s0 (-,m,A) s1
end
"""


def test_parse_minimal():
    [a] = parse_automata(MINIMAL)
    assert a.name == "M"
    assert a.states == {"s0", "s1"}
    assert a.initial == {"s0"}
    (t,) = a.transitions
    assert t.label.kind is LabelKind.INPUT
    assert t.label.render() == "(-,m,A)"


def test_comments_and_blank_lines():
    doc = "# top\n\nautomaton M # name\nhierarchy (A)\nstates s0\ninitial s0 # first\n\nend\n"
    [a] = parse_automata(doc)
    assert a.states == {"s0"}


def test_two_absent_label_rejected():
    doc = MINIMAL.replace("(-,m,A)", "(-,m,-)")
    with pytest.raises(FormatError, match="two absent annotations"):
        parse_automata(doc)


def test_hierarchy_disjointness_rejected():
    doc = "automaton M\nhierarchy ((A B)(B C))\nstates s0\ninitial s0\nend\n"
    with pytest.raises(FormatError, match="not disjoint"):
        parse_automata(doc)


def test_duplicate_state_id_rejected():
    doc = "automaton M\nhierarchy (A)\nstates s0 s0\ninitial s0\nend\n"
    with pytest.raises(FormatError, match="duplicate state id"):
        parse_automata(doc)
    doc2 = "automaton M\nhierarchy (A)\nstates s0\nstates s0\ninitial s0\nend\n"
    with pytest.raises(FormatError, match="duplicate state id"):
        parse_automata(doc2)


def test_unknown_component_rejected():
    doc = MINIMAL.replace("(-,m,A)", "(-,m,B)")
    with pytest.raises(FormatError, match="unknown component name"):
        parse_automata(doc)


def test_undeclared_transition_state_rejected():
    doc = MINIMAL.replace("trans s0 (-,m,A) s1", "trans s0 (-,m,A) s9")
    with pytest.raises(FormatError, match="undeclared state"):
        parse_automata(doc)


def test_empty_initial_rejected():
    doc = "automaton M\nhierarchy (A)\nstates s0\nend\n"
    with pytest.raises(FormatError, match="initial set is empty"):
        parse_automata(doc)


def test_missing_end_rejected():
    with pytest.raises(FormatError, match="not closed"):
        parse_automata("automaton M\nhierarchy (A)\nstates s0\ninitial s0\n")


def test_error_carries_line_number():
    doc = "automaton M\nhierarchy (A)\nstates s0 s1\ninitial s0\ntrans s0 (-,m,-) s1\nend\n"
    with pytest.raises(FormatError, match="line 5"):
        parse_automata(doc)


def test_malformed_label():
    doc = MINIMAL.replace("(-,m,A)", "(-,m)")
    with pytest.raises(FormatError, match="malformed label"):
        parse_automata(doc)


@pytest.mark.parametrize(
    "token", ["(-,m)", "(,m,A)", "(A,m!,B)", "(A,m,B", "((A,m,B))", "(-,m,-)"]
)
def test_bad_label_located(token):
    doc = MINIMAL.replace("(-,m,A)", token)
    with pytest.raises(FormatError) as err:
        parse_automata(doc)
    assert (err.value.line, err.value.column) == (5, len("trans s0 ") + 1)


# (document, message, line, column) for each block-structure error
STRUCTURE_ERRORS = [
    ("automaton M N\nend\n", "expected: automaton <name>", 1, None),
    ("automaton M\nhierarchy (A)\nautomaton N\n", "automaton 'M' not closed with 'end'", 3, None),
    ("states s0\n", "expected 'automaton', got 'states'", 1, None),
    ("automaton M\nhierarchy\n", "expected: hierarchy <expr>", 2, None),
    (
        MINIMAL.replace("trans s0 (-,m,A) s1", "trans s0 (-,m,A)"),
        "expected: trans <id> (<src>,<action>,<dst>) <id>",
        5,
        None,
    ),
    (
        "automaton M\nstates s0 s1\ninitial s0\ntrans s0 (-,m,A) s1\nend\n",
        "hierarchy must be declared before transitions",
        4,
        None,
    ),
    ("automaton M\nstates s0\ninitial s0\nend\n", "automaton 'M' has no hierarchy", 4, None),
    ("automaton M\nstate s0\n", "unknown keyword 'state'", 2, None),
    (
        "automaton M\nhierarchy (A B)\nstates s0 s1\ninitial s0\ntrans s0 (-,m,B) s1\n"
        "hierarchy (A)\ntrans s1 (-,m,B) s0\nend\n",
        "unknown component name 'B' in label (-,m,B)",
        7,
        len("trans s1 ") + 1,
    ),
    (
        "automaton M\nhierarchy (A)\nstates (A,m,Z) s1\ninitial s1\n"
        "trans (A,m,Z) (A,m,Z) s1\nend\n",
        "unknown component name 'Z' in label (A,m,Z)",
        5,
        len("trans (A,m,Z) ") + 1,
    ),
]


@pytest.mark.parametrize(
    "doc,message,line,column",
    STRUCTURE_ERRORS,
    ids=[
        "automaton-arity", "automaton-unclosed", "before-automaton", "hierarchy-empty",
        "trans-arity", "trans-before-hierarchy", "end-without-hierarchy", "unknown-keyword",
        "redeclared-hierarchy", "label-text-in-source-state",
    ],
)
def test_structure_errors_located(doc, message, line, column):
    with pytest.raises(FormatError) as err:
        parse_automata(doc)
    assert (err.value.line, err.value.column) == (line, column)
    where = f"line {line}" + (f", col {column}" if column is not None else "")
    assert str(err.value) == f"{where}: {message}"


@pytest.mark.parametrize("token", ["(-,m)", "(-,m,B)"])
def test_label_checked_after_its_endpoints(token):
    with pytest.raises(FormatError, match="line 5: undeclared state 's9' in transition"):
        parse_automata(MINIMAL.replace("trans s0 (-,m,A) s1", f"trans s0 {token} s9"))


def test_label_checked_after_the_hierarchy():
    doc = "automaton M\nstates s0 s1\ninitial s0\ntrans s0 (-,m) s1\nend\n"
    with pytest.raises(FormatError, match="line 4: hierarchy must be declared before transitions"):
        parse_automata(doc)


def test_repeated_label_token_is_one_object():
    doc = MINIMAL.replace("trans s0 (-,m,A) s1", "trans s0 (-,m,A) s1\ntrans s1 (-,m,A) s0")
    [a] = parse_automata(doc)
    first, second = a.transitions
    assert first.label is second.label


def test_redeclared_hierarchy_keeps_earlier_label_actions():
    doc = MINIMAL.replace("hierarchy (A)", "hierarchy (A B)").replace(
        "end", "hierarchy (A)\ntrans s1 (-,n,A) s0\nend"
    )
    [a] = parse_automata(doc)
    assert a.actions == {"m", "n"}
    assert {t.label.render() for t in a.transitions} == {"(-,m,A)", "(-,n,A)"}


@pytest.mark.parametrize("line, column", [
    ("actions a-b", len("actions ") + 1),
    ("actions  n\tm  a-b # x-y", len("actions  n\tm  ") + 1),
], ids=["first-word", "third-word"])
def test_bad_action_word_located_at_its_line(line, column):
    """A bad ``actions`` word is reported where it stands, not at ``end``."""
    doc = MINIMAL.replace("initial s0", f"initial s0\n{line}")
    with pytest.raises(FormatError) as err:
        parse_automata(doc)
    assert (err.value.line, err.value.column) == (5, column)
    assert str(err.value) == (
        f"line 5, col {column}: invalid action 'a-b': expected letters/digits/underscore"
    )


@pytest.mark.parametrize("line, column", [
    ("initial s9", len("initial ") + 1),
    ("initial  s0\ts9  s8 # s7", len("initial  s0\t") + 1),
], ids=["first-word", "second-word"])
def test_undeclared_initial_state_located_at_its_line(line, column):
    """An undeclared initial state is reported where it is named, not at ``end``."""
    doc = MINIMAL.replace("initial s0", line)
    with pytest.raises(FormatError) as err:
        parse_automata(doc)
    assert (err.value.line, err.value.column) == (4, column)
    assert str(err.value) == f"line 4, col {column}: initial state 's9' not among states"
    # a states line may follow the initial line
    [a] = parse_automata(doc.replace("trans", "states s9 s8\ntrans", 1))
    assert a.initial == set(line.split("#")[0].split()[1:])


def test_actions_line_extends_alphabet():
    doc = MINIMAL.replace("initial s0", "initial s0\nactions n m")
    [a] = parse_automata(doc)
    assert a.actions == {"m", "n"}


def test_multiple_blocks():
    autos = parse_automata(MINIMAL + MINIMAL.replace("automaton M", "automaton N"))
    assert [x.name for x in autos] == ["M", "N"]


def test_parse_hierarchy_shapes():
    assert parse_hierarchy("(A)").leaf_names() == {"A"}
    nested = parse_hierarchy("((A B)(C))")
    assert not nested.is_leaf
    assert nested.leaf_names() == {"A", "B", "C"}
    assert parse_hierarchy(nested.render()) == nested
    with pytest.raises(FormatError, match="mixes names and subtrees"):
        parse_hierarchy("(A (B))")
    with pytest.raises(FormatError):
        parse_hierarchy("()")
    with pytest.raises(FormatError):
        parse_hierarchy("(A")


@pytest.mark.parametrize(
    "expr,message",
    [
        ("(A-B)", "invalid characters in hierarchy expression '(A-B)'"),
        ("A", "expected '(' in hierarchy expression 'A'"),
        ("(A)(B)", "trailing tokens after hierarchy expression '(A)(B)'"),
    ],
    ids=["characters", "no-paren", "trailing"],
)
def test_parse_hierarchy_errors(expr, message):
    with pytest.raises(FormatError) as err:
        parse_hierarchy(expr)
    assert str(err.value) == message


def test_tuple_state_tokens_round_trip():
    a = aut(
        hier=("A", "B"),
        states=["(a0,b0)", "(a1,b1)"],
        trans=[("(a0,b0)", ("B", "m", "A"), "(a1,b1)")],
        init=["(a0,b0)"],
    )
    assert parse_automata(serialize_automaton(a)) == [a]


def test_round_trip_is_identity():
    [a] = parse_automata(MINIMAL)
    text = serialize_automaton(a)
    [parsed] = parse_automata(text)
    assert parsed == a
    assert serialize_automaton(parsed) == text


def _generated(seed: int, form: str) -> Automaton:
    """A primitive; the reachable composite ``((C0)(C1))`` then ``(Z)``, whose
    states are nested tuple tokens like ``((s0,s1),s2)``; or its quotient."""
    params = GenParams(state_count_range=(2, 10 if form == "primitive" else 5), seed=seed)
    if form == "primitive":
        return generate_primitive(params)
    first, second = generate_corpus(params, 1)[0]
    third = generate_primitive(replace(params, seed=seed + 1), name="Z")
    inner = reachable(compose([first, second], default_io_sets([first, second])))
    composite = reachable(compose([inner, third], default_io_sets([inner, third])))
    if form == "composite":
        return composite
    return quotient(composite, partition_refine(composite))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["primitive", "composite", "quotient"]),
)
def test_round_trip_on_generated(seed, form):
    a = _generated(seed, form)
    text = serialize_automaton(a)
    [parsed] = parse_automata(text)
    assert parsed == a
    assert serialize_automaton(parsed) == text
