"""Shared vocabulary: weak orders, rank domains, bias functions and rules."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coiquery import (
    AttributeDomain,
    BiasConfig,
    BiasFunction,
    BiasRule,
    ConfigurationError,
    Relation,
    WeakOrder,
    as_fraction,
    assign_bias,
    build_rank_domain,
)


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
    assert order.block_index_map() == {"a": 1, "b": 1, "c": 2, "d": 3, "e": 3}


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


def test_pairwise_relation_covers_all_four_cases():
    order = WeakOrder.of(["a", "b"], ["c"])
    assert order.relation("a", "b") is Relation.TIED
    assert order.relation("a", "c") is Relation.PRECEDES
    assert order.relation("c", "a") is Relation.FOLLOWS
    assert order.relation("a", "w") is Relation.ABSENT


def test_relation_is_antisymmetric_on_random_orders():
    rng = random.Random(11)
    keys = [f"e{i}" for i in range(1, 9)]
    for _ in range(50):
        shuffled = keys[:]
        rng.shuffle(shuffled)
        blocks = []
        start = 0
        while start < len(shuffled):
            width = rng.randint(1, len(shuffled) - start)
            blocks.append(shuffled[start : start + width])
            start += width
        order = WeakOrder.of(*blocks)
        for left in keys:
            for right in keys:
                forward = order.relation(left, right)
                backward = order.relation(right, left)
                if forward is Relation.PRECEDES:
                    assert backward is Relation.FOLLOWS
                elif forward is Relation.TIED:
                    assert backward is Relation.TIED
                    assert order.rank_of(left) == order.rank_of(right)


# --------------------------------------------------------------------------- #
# Rank domains
# --------------------------------------------------------------------------- #


def test_rank_domain_orders_elements_lexicographically_by_attribute():
    domain = build_rank_domain(
        [
            AttributeDomain("color", ("red", "blue")),
            AttributeDomain("size", (3, 2, 1)),
        ]
    )
    assert domain.elements == (
        ("red", 3),
        ("red", 2),
        ("red", 1),
        ("blue", 3),
        ("blue", 2),
        ("blue", 1),
    )


def test_rank_domain_size_is_product_of_attribute_sizes():
    domain = build_rank_domain(
        [
            AttributeDomain("price", tuple(range(41))),
            AttributeDomain("rating", tuple(range(30))),
        ]
    )
    assert len(domain.elements) == 41 * 30


def test_empty_attribute_rejected():
    with pytest.raises(ConfigurationError):
        build_rank_domain([AttributeDomain("empty", ())])


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
# Attribute bias rules
# --------------------------------------------------------------------------- #


def _headphone_domain():
    return build_rank_domain(
        [
            AttributeDomain("brand", ("JBL", "Skullcandy")),
            AttributeDomain("price", ("[0,50)", "[50,100]")),
        ]
    )


def test_bias_rules_apply_first_match_and_scale():
    domain = _headphone_domain()
    config = BiasConfig(
        (
            BiasRule((("brand", "Skullcandy"), ("price", "[0,50)")), Fraction(5)),
            BiasRule((("brand", "Skullcandy"),), Fraction(2)),
        ),
        scale=Fraction(1, 2),
    )
    bias = assign_bias(config, domain)
    # e3 = (Skullcandy, [0,50)) hits the specific rule; e4 only the brand rule.
    assert bias.entries == {
        "e1": Fraction(0),
        "e2": Fraction(0),
        "e3": Fraction(5, 2),
        "e4": Fraction(1),
    }
    assert (bias.lower, bias.upper) == (Fraction(0), Fraction(5, 2))


def test_rule_order_matters():
    domain = _headphone_domain()
    config = BiasConfig(
        (
            BiasRule((("brand", "Skullcandy"),), Fraction(2)),
            BiasRule((("brand", "Skullcandy"), ("price", "[0,50)")), Fraction(5)),
        ),
        scale=Fraction(1, 2),
    )
    bias = assign_bias(config, domain)
    assert bias.entries["e3"] == Fraction(1)  # broad rule shadows the narrow one
    assert bias.entries["e4"] == Fraction(1)


def test_bias_rules_reject_unknown_attribute():
    config = BiasConfig((BiasRule((("nope", "x"),), Fraction(1)),))
    with pytest.raises(ConfigurationError, match="unknown attribute 'nope'"):
        assign_bias(config, _headphone_domain())


def test_bias_config_from_jsonable():
    config = BiasConfig.from_jsonable(
        {
            "rules": [
                {"when": {"brand": "Skullcandy", "price": "[0,50)"}, "bias": 5},
                {"when": {"brand": "Skullcandy"}, "bias": 2},
            ],
            "scale": "1/2",
        }
    )
    assert config.scale == Fraction(1, 2)
    assert len(config.rules) == 2
    assert config.rules[0].bias == Fraction(5)
    bias = assign_bias(config, _headphone_domain())
    assert bias.entries["e3"] == Fraction(5, 2)


def test_bias_config_from_jsonable_rejects_non_list_rules():
    with pytest.raises(ConfigurationError, match="must be a list"):
        BiasConfig.from_jsonable({"rules": "nope"})


def test_no_matching_rule_leaves_zero_bias():
    domain = _headphone_domain()
    config = BiasConfig((BiasRule((("brand", "Bose"),), Fraction(3)),))
    bias = assign_bias(config, domain)
    assert set(bias.entries.values()) == {Fraction(0)}
    assert (bias.lower, bias.upper) == (Fraction(0), Fraction(0))
