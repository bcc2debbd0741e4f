"""Query expressions: grammar, precedence, error positions, matching."""

import pytest

from pirick.errors import QueryParseError
from pirick.properties import PropertyReport
from pirick.query import match_report, parse_query


def _report(statuses):
    return PropertyReport(name="m", module_order=4, end_order=4,
                          generators=1, statuses=statuses, witnesses={},
                          max_witness_n=None,
                          idempotent_count=None)


def test_basic_conjunction():
    q = parse_query("dual_pi_rickart & !dual_rickart")
    assert q.names == frozenset({"dual_pi_rickart", "dual_rickart"})
    assert q.evaluate({"dual_pi_rickart": True, "dual_rickart": False})
    assert not q.evaluate({"dual_pi_rickart": True, "dual_rickart": True})


def test_or_and_precedence():
    q = parse_query("rickart | pi_rickart & c2")
    # equivalent to rickart | (pi_rickart & c2)
    assert q.evaluate({"rickart": True, "pi_rickart": False, "c2": False})
    assert not q.evaluate({"rickart": False, "pi_rickart": True, "c2": False})
    assert q.evaluate({"rickart": False, "pi_rickart": True, "c2": True})


def test_parentheses_override_precedence():
    q = parse_query("(rickart | pi_rickart) & c2")
    assert not q.evaluate({"rickart": True, "pi_rickart": False, "c2": False})


def test_negation_binds_tightest():
    q = parse_query("!rickart & fitting")
    assert q.evaluate({"rickart": False, "fitting": True})
    assert parse_query("!!fitting").evaluate({"fitting": True})


def _position_of(text):
    with pytest.raises(QueryParseError) as exc_info:
        parse_query(text)
    return exc_info.value.position


def test_error_positions():
    assert _position_of("(") == 1
    assert _position_of("") == 1
    assert _position_of("& rickart") == 1
    assert _position_of("rickart &") == 9
    assert _position_of("rickart rickart") == 9
    assert _position_of("ricka$rt") == 6
    assert _position_of("(rickart))") == 10


def test_unknown_property_is_a_parse_error():
    with pytest.raises(QueryParseError) as exc_info:
        parse_query("rickart & made_up")
    assert exc_info.value.position == 11
    assert "made_up" in str(exc_info.value)


def test_expected_set_is_reported():
    with pytest.raises(QueryParseError) as exc_info:
        parse_query("(")
    assert "identifier" in " ".join(exc_info.value.expected)


def test_match_report_true_false():
    rep = _report({"rickart": "false", "fitting": "true"})
    assert match_report(parse_query("fitting & !rickart"), rep) == (True, "")
    assert match_report(parse_query("rickart"), rep) == (False, "")


def test_skipped_property_blocks_match():
    rep = _report({"rickart": "skipped", "fitting": "true"})
    matched, note = match_report(parse_query("rickart | fitting"), rep)
    assert matched is False
    assert note == "skipped: rickart"
    # queries not touching the skipped property are unaffected
    assert match_report(parse_query("fitting"), rep) == (True, "")
