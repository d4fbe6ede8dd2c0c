"""Fixed-seed property test: the generated schema checkers agree with the
per-key loop reader of ``oracles.py`` on the single-field mutations that
the scenario and board fuzzers make. Each field is set to a drawn value
(or to an integer at or next to a bound that some key states), deleted,
or given an unknown sibling key; then the scenario, each of its
statement lists, each syscall record, the board and the register map
must read as the same steps or values, with the same violations, by both.
Examples are derandomized, so tier-1 stays deterministic."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernsim.abi import SYSCALL
from kernsim.board import _BOARD
from kernsim.errors import Key, ScenarioError
from kernsim.regmap import _REGISTER_MAP
from kernsim.scenario import MAX_STATEMENTS, STATEMENT, _parse_statements, parse_script
from kernsim.scenario import SCENARIO as SCENARIO_SCHEMA

from oracles import reference_check, reference_parse_script, reference_statements
from test_board_fuzz import ALARM_MAP, BASE_BOARD, BOARD_FIELDS, MAP_FIELDS
from test_board_fuzz import VALUES as BOARD_VALUES
from test_scenario_fuzz import FIELDS as SCENARIO_FIELDS
from test_scenario_fuzz import SCENARIO
from test_scenario_fuzz import VALUES as SCENARIO_VALUES


def _bounds(keys, seen=None):
    """Each integer bound of the keys and the keys nested in them, and
    the integers either side of it."""
    seen = set() if seen is None else seen
    for key in keys:
        if id(key) in seen:
            continue
        seen.add(id(key))
        if key.kind == "int":
            yield from (bound + step for bound in (key.lo, key.hi) if bound is not None
                        for step in (-1, 0, 1))
        nested = [key.item] if key.item is not None else []
        if key.kind == "object":
            schemas = [key.type] if key.tag is None else list(key.type.values())
            nested += [sub for schema in schemas for sub in schema.values()]
        yield from _bounds(nested, seen)


UNKNOWN = "zz"
BOUND_VALUES = sorted(set(_bounds([_BOARD, _REGISTER_MAP, STATEMENT,
                                   Key(SCENARIO_SCHEMA)])))
BOUNDS = st.sampled_from(BOUND_VALUES)
CASES = [("scenario", SCENARIO, field, SCENARIO_VALUES | BOUNDS)
         for field in SCENARIO_FIELDS] + \
    [("board", BASE_BOARD, field, BOARD_VALUES | BOUNDS) for field in BOARD_FIELDS] + \
    [("map", ALARM_MAP, field, BOARD_VALUES | BOUNDS) for field in MAP_FIELDS]


def _mutated(doc, path, how, value):
    """doc with the field at path set to value, deleted, or given a
    sibling key that no schema names."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if how == "set":
        node[path[-1]] = value
    elif how == "delete" and path[-1] in (node if type(node) is dict else
                                           range(len(node))):
        del node[path[-1]]
    elif how == "unknown" and type(node) is dict:
        node[UNKNOWN] = value
    return doc


def _parsed(parse, *args):
    try:
        return parse(*args)
    except ScenarioError as exc:
        return exc.violations


def _statements(parse, raw_list, in_handler):
    """The steps, violations and unspent budget of one statement list."""
    out, budget = [], [MAX_STATEMENTS]
    try:
        steps = parse(raw_list, ("scenario", "main"), in_handler, budget, out)
    except ScenarioError as exc:
        return exc.violations
    return steps, out, budget


def _agree(key, value, root):
    """What key's generated checker and its reference make of value."""
    out, expected = [], []
    assert key.check(value, root, out) == reference_check(key)(value, root, expected)
    assert out == expected


@pytest.mark.parametrize("what, doc, field, values", CASES,
                         ids=[f"{what}:{'.'.join(map(str, field))}"
                              for what, _, field, _ in CASES])
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(data=st.data())
def test_generated_checkers_read_as_the_loop_reader(what, doc, field, values, data):
    how = data.draw(st.sampled_from(("set", "set", "delete", "unknown")))
    doc = _mutated(doc, field, how, data.draw(values))
    if what == "board":
        _agree(_BOARD, doc, "board config")
    elif what == "map":
        _agree(_REGISTER_MAP, doc, "register map")
    else:
        assert _parsed(parse_script, doc) == reference_parse_script(doc)
        main = doc.get("main")
        lists = [main] + [body for body in (doc.get("handlers") or {}).values()] \
            if type(doc.get("handlers")) is dict else [main]
        for raw_list in (raw for raw in lists if type(raw) is list):
            for in_handler in (False, True):
                assert _statements(_parse_statements, raw_list, in_handler) == \
                    _statements(reference_statements, raw_list, in_handler)
            for raw in raw_list:
                if type(raw) is dict and "call" in raw:
                    _agree(SYSCALL, raw["call"], "call")


def test_every_input_kind_has_cases():
    assert {what for what, _, _, _ in CASES} == {"scenario", "board", "map"}
    assert len(CASES) >= 103 + len(BOARD_FIELDS)
    assert {2 ** 32 - 1, 2 ** 32, 2 ** 64, 0xFFFF + 1} <= set(BOUND_VALUES)
