"""Shared vocabulary: weak orders and bias functions, and the attribute form
of a universe and its bias that the config loader reads."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from coiquery import BiasFunction, ConfigurationError, WeakOrder, as_fraction
from coiquery.cli import load_config


# --------------------------------------------------------------------------- #
# Weak orders
# --------------------------------------------------------------------------- #


def test_ranks_use_competition_numbering_across_tie_blocks():
    order = WeakOrder.of(["a", "b"], ["c"], ["d", "e"])
    assert {key: order.rank_of(key) for key in order.keys()} == {
        "a": 1,
        "b": 1,
        "c": 3,
        "d": 4,
        "e": 4,
    }


def test_total_order_ranks_are_positions():
    order = WeakOrder.total(["x", "y", "z"])
    assert [order.rank_of(key) for key in ("x", "y", "z")] == [1, 2, 3]
    assert order.as_lists() == [["x"], ["y"], ["z"]]


def test_rank_of_missing_key_uses_omitted_or_raises():
    order = WeakOrder.total(["x", "y"])
    assert order.rank_of("w", omitted=3) == 3
    assert order.rank_of("w", 3) == 3
    with pytest.raises(KeyError):
        order.rank_of("w")


def test_equality_ignores_member_order_inside_a_block():
    assert WeakOrder.of(["b", "a"], ["c"]) == WeakOrder.of(["a", "b"], ["c"])
    assert hash(WeakOrder.of(["b", "a"])) == hash(WeakOrder.of(["a", "b"]))
    assert WeakOrder.of(["a"], ["b"]) != WeakOrder.of(["b"], ["a"])


def test_from_lists_round_trips_and_validates():
    order = WeakOrder.from_lists([["x"], ["y", "z"]])
    assert order.as_lists() == [["x"], ["y", "z"]]
    with pytest.raises(ConfigurationError):
        WeakOrder.from_lists([["x"], ["x"]])
    with pytest.raises(ConfigurationError):
        WeakOrder.from_lists("not a ranking")


@pytest.mark.parametrize(
    "data, message",
    [
        ([["a"], ["b", "a"]], "invalid weak order: duplicate key 'a'"),
        ([["a"], [], ["a"]], "invalid weak order: block 2 is empty"),
        ([["a", "a"], []], "invalid weak order: duplicate key 'a'"),
        ([[], ["a", 1]], "weak order blocks must be lists of strings"),
        ([["a"], ["a"], "b"], "weak order blocks must be lists of strings"),
        ({"a": 1}, "weak order must be a list of lists of keys"),
    ],
)
def test_from_lists_reports_the_first_defect_shape_errors_first(data, message):
    with pytest.raises(ConfigurationError) as caught:
        WeakOrder.from_lists(data)
    assert str(caught.value) == message


# --------------------------------------------------------------------------- #
# Attribute domains (read by ``cli.load_config``)
# --------------------------------------------------------------------------- #


def _load(tmp_path, document):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return load_config(str(path)).context


def test_rank_domain_orders_elements_lexicographically_by_attribute(tmp_path):
    product_order = [
        ("red", 3),
        ("red", 2),
        ("red", 1),
        ("blue", 3),
        ("blue", 2),
        ("blue", 1),
    ]
    # One rule per element, biased by its expected position.
    rules = [
        {"when": {"color": color, "size": size}, "bias": index}
        for index, (color, size) in enumerate(product_order, start=1)
    ]
    attributes = [
        {"name": "color", "values": ["red", "blue"]},
        {"name": "size", "values": [3, 2, 1]},
    ]
    ctx = _load(tmp_path, {"attributes": attributes, "bias_rules": rules})
    assert ctx.universe_size == 6
    assert ctx.bias.entries == {f"e{i}": Fraction(i) for i in range(1, 7)}


def test_rank_domain_size_is_product_of_attribute_sizes(tmp_path):
    attributes = [
        {"name": "price", "values": list(range(41))},
        {"name": "rating", "values": list(range(30))},
    ]
    ctx = _load(tmp_path, {"attributes": attributes})
    assert ctx.universe_size == 41 * 30
    assert ctx.bias.entries == {}


def test_empty_attribute_rejected(tmp_path):
    with pytest.raises(ConfigurationError) as caught:
        _load(tmp_path, {"attributes": [{"name": "empty", "values": []}]})
    assert str(caught.value) == "attribute 'empty' has an empty domain"


# --------------------------------------------------------------------------- #
# Bias functions and rational parsing
# --------------------------------------------------------------------------- #


def test_bias_function_lookup_and_default():
    bias = BiasFunction({"a": Fraction(1, 2)}, default=Fraction(1, 4))
    assert bias("a") == Fraction(1, 2)
    assert bias("anything else") == Fraction(1, 4)


def test_bias_function_rejects_inverted_bounds():
    with pytest.raises(ConfigurationError):
        BiasFunction({}, lower=Fraction(2), upper=Fraction(1))


def test_bias_function_json_round_trip_preserves_values():
    bias = BiasFunction(
        {"a": Fraction(1, 2), "b": Fraction(3)},
        default=Fraction(0),
        lower=Fraction(0),
        upper=Fraction(3),
    )
    again = BiasFunction.from_jsonable(bias.as_jsonable())
    assert again("a") == Fraction(1, 2)
    assert again("b") == Fraction(3)
    assert (again.lower, again.upper) == (Fraction(0), Fraction(3))
    assert again.as_jsonable() == bias.as_jsonable()


def test_bias_range_check_is_exact_at_rational_bounds():
    low, high = Fraction(-1, 3), Fraction(5, 7)
    bias = BiasFunction({"a": low, "b": high}, lower=low, upper=high)
    assert (bias("a"), bias("b")) == (low, high)
    step = Fraction(1, 10**30)
    for value in (low - step, high + step):
        with pytest.raises(ConfigurationError) as caught:
            BiasFunction({"x": value}, lower=low, upper=high)
        assert str(caught.value) == f"bias for 'x' ({value}) outside range [-1/3, 5/7]"


def test_bias_from_jsonable_converts_each_spelling_once():
    bias = BiasFunction.from_jsonable(
        {"entries": {"a": "1/3", "b": 0.5, "c": 2}, "default": "7", "upper": "5/2"}
    )
    assert bias.entries == {"a": Fraction(1, 3), "b": Fraction(1, 2), "c": Fraction(2)}
    assert all(type(value) is Fraction for value in bias.entries.values())
    assert (bias.default, bias.lower, bias.upper) == (7, Fraction(1, 3), Fraction(5, 2))
    for document, message in (
        ({"entries": {"a": "x"}, "default": "y"}, "not a rational value: 'x'"),
        ({"entries": {"a": 1}, "default": "y"}, "not a rational value: 'y'"),
        ({"entries": {}, "lower": [1]}, "not a rational value: [1]"),
        ({"entries": {"a": 4}, "upper": 3}, "bias for 'a' (4) outside range [0, 3]"),
    ):
        with pytest.raises(ConfigurationError) as caught:
            BiasFunction.from_jsonable(document)
        assert str(caught.value) == message


def test_as_fraction_accepts_the_usual_spellings():
    assert as_fraction(2) == Fraction(2)
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(Fraction(3, 4)) == Fraction(3, 4)
    assert as_fraction(1.5) == Fraction(3, 2)


def test_as_fraction_keeps_floats_exact_not_decimal():
    # 0.1 the float is not 1/10; conversions must not silently round.
    assert as_fraction(0.1) == Fraction(0.1)
    assert as_fraction(0.1) != Fraction(1, 10)


# --------------------------------------------------------------------------- #
# Attribute bias rules (read by ``cli.load_config``)
# --------------------------------------------------------------------------- #


_HEADPHONES = [
    {"name": "brand", "values": ["JBL", "Skullcandy"]},
    {"name": "price", "values": ["[0,50)", "[50,100]"]},
]
_NARROW = {"when": {"brand": "Skullcandy", "price": "[0,50)"}, "bias": 5}
_BROAD = {"when": {"brand": "Skullcandy"}, "bias": 2}


def _rule_bias(tmp_path, rules, scale=1):
    document = {"attributes": _HEADPHONES, "bias_rules": rules, "scale": scale}
    return _load(tmp_path, document).bias


def test_bias_rules_apply_first_match_and_scale(tmp_path):
    bias = _rule_bias(tmp_path, [_NARROW, _BROAD], scale="1/2")
    # e3 = (Skullcandy, [0,50)) hits the specific rule; e4 only the brand rule.
    assert bias.entries == {
        "e1": Fraction(0),
        "e2": Fraction(0),
        "e3": Fraction(5, 2),
        "e4": Fraction(1),
    }
    assert (bias.lower, bias.upper) == (Fraction(0), Fraction(5, 2))


def test_bias_config_from_jsonable(tmp_path):
    # Rule biases and the scale may each be any rational spelling; the loader
    # reads them to exact fractions, so 5 * "1/2" is 5/2, not 2.5.
    rules = [{**_NARROW, "bias": "5"}, {**_BROAD, "bias": 2.0}]
    bias = _rule_bias(tmp_path, rules, scale="1/2")
    assert bias.entries["e3"] == Fraction(5, 2)
    assert bias.entries["e4"] == Fraction(1)
    assert all(type(value) is Fraction for value in bias.entries.values())


def test_rule_order_matters(tmp_path):
    bias = _rule_bias(tmp_path, [_BROAD, _NARROW], scale="1/2")
    assert bias.entries["e3"] == Fraction(1)  # broad rule shadows the narrow one
    assert bias.entries["e4"] == Fraction(1)


def test_bias_rules_reject_unknown_attribute(tmp_path):
    with pytest.raises(ConfigurationError) as caught:
        _rule_bias(tmp_path, [{"when": {"nope": "x"}, "bias": 1}])
    assert str(caught.value) == "bias rule references unknown attribute 'nope'"


def test_no_matching_rule_leaves_zero_bias(tmp_path):
    bias = _rule_bias(tmp_path, [{"when": {"brand": "Bose"}, "bias": 3}])
    assert set(bias.entries.values()) == {Fraction(0)}
    assert (bias.lower, bias.upper) == (Fraction(0), Fraction(0))
