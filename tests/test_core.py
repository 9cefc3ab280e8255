"""Shared vocabulary: weak orders and bias functions, and the attribute form
of a universe and its bias that the config loader reads."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coiquery.core
from coiquery import BiasFunction, ConfigurationError, WeakOrder, as_fraction
from coiquery.cli import _read_bias, load_config, run_command
from oracles import bias_range_oracle, weak_order_from_lists_oracle


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


def test_blocks_are_stored_as_a_tuple_of_tuples():
    blocks = (("a", "b"), ("c",))
    assert WeakOrder(blocks).blocks is blocks  # already tuples: kept, not copied
    for raw in ([["a", "b"], ["c"]], (["a", "b"], ("c",)), [("a", "b"), ("c",)]):
        order = WeakOrder(raw)
        assert order.blocks == blocks and type(order.blocks) is tuple
        assert all(type(block) is tuple for block in order.blocks)
        assert order == WeakOrder.of(["a", "b"], ["c"])
    assert WeakOrder(()).blocks == () and len(WeakOrder([])) == 0


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


class _List(list):
    pass


class _Str(str):
    pass


_PARSED_KEYS = st.one_of(
    st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "d"]).map(_Str)
)
_NOT_KEYS = st.one_of(
    st.integers(-1, 1), st.none(), st.just({"a": 1}), st.just(["a"]), st.just(b"a")
)
_PARSED_BLOCKS = st.one_of(
    st.lists(_PARSED_KEYS, max_size=3),
    st.lists(_PARSED_KEYS, max_size=3).map(tuple),
    st.lists(_PARSED_KEYS, max_size=3).map(_List),
    st.lists(st.one_of(_PARSED_KEYS, _NOT_KEYS), max_size=3),
    _PARSED_KEYS,
    _NOT_KEYS,
)
_PARSED_SHAPES = st.one_of(
    st.lists(_PARSED_BLOCKS, max_size=5),
    st.lists(_PARSED_BLOCKS, max_size=5).map(tuple),
    st.lists(_PARSED_BLOCKS, max_size=5).map(_List),
    _PARSED_BLOCKS,
)


def _parsed(parse, data):
    """Blocks with each key's type, or the message of the error raised."""
    try:
        blocks = parse(data).blocks
    except ConfigurationError as exc:
        return str(exc)
    return [[(key, type(key)) for key in block] for block in blocks]


@settings(max_examples=500, deadline=None)
@given(_PARSED_SHAPES)
def test_from_lists_agrees_with_the_per_key_scan(data):
    assert _parsed(WeakOrder.from_lists, data) == _parsed(
        weak_order_from_lists_oracle, data
    )


# --------------------------------------------------------------------------- #
# Attribute domains (read by ``cli.load_config``)
# --------------------------------------------------------------------------- #


def _load(tmp_path, document):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return load_config(str(path))


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
    bias = _read_bias(
        {"entries": {"a": "1/3", "b": 0.5, "c": 2}, "default": "7", "upper": "5/2"}
    )
    assert bias.entries == {"a": Fraction(1, 3), "b": Fraction(1, 2), "c": Fraction(2)}
    stored = [*bias.entries.values(), bias.default, bias.lower, bias.upper]
    assert list(map(type, stored)) == [Fraction, Fraction, int, int, Fraction, Fraction]
    assert (bias.default, bias.lower, bias.upper) == (7, Fraction(1, 3), Fraction(5, 2))
    for document, message in (
        ({"entries": {"a": "x"}, "default": "y"}, "not a rational value: 'x'"),
        ({"entries": {"a": 1}, "default": "y"}, "not a rational value: 'y'"),
        ({"entries": {}, "lower": [1]}, "not a rational value: [1]"),
        ({"entries": {"a": 4}, "upper": 3}, "bias for 'a' (4) outside range [0, 3]"),
    ):
        with pytest.raises(ConfigurationError) as caught:
            _read_bias(document)
        assert str(caught.value) == message


def _stored_form(value: object) -> bool:
    """A stored bias value: an ``int``, or a ``Fraction`` that is not integral."""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def test_bias_values_are_ints_when_integral_and_reduced_fractions_otherwise():
    integral = [2, 2.0, "7", "4/2", "-3/1", "1e2", " 5 ", Fraction(6, 3), -(10**300)]
    integral.append(1e300 / 7)  # every float this large is an integer
    fractional = ["1/3", 0.5, "0.25", "-5/2", "1e-3", Fraction(6, 4), 0.1]
    fractional.append(Fraction(10**300 + 1, 7))
    for kind, spellings in ((int, integral), (Fraction, fractional)):
        for raw in spellings:
            bias = BiasFunction({"a": raw}, default=raw, lower=raw, upper=raw)
            for value in (bias("a"), bias("elsewhere"), bias.lower, bias.upper):
                assert type(value) is kind and _stored_form(value), raw
                assert value == as_fraction(raw)
    for field in ("entries", "default", "lower", "upper"):
        document = {field: {"a": True} if field == "entries" else True}
        with pytest.raises(ConfigurationError) as caught:
            _read_bias({"entries": {}, **document})
        assert str(caught.value) == "not a rational value: True"


def test_int_entries_are_copied_so_later_edits_to_the_given_dict_change_nothing():
    given = {f"e{i}": i for i in range(3_000)}
    bias = BiasFunction(given)
    given["e0"], given["late"] = 10_000, -5
    del given["e1"]
    assert bias.entries is not given
    assert (bias("e0"), bias("e1"), bias("late")) == (0, 1, 0)
    assert (len(bias.entries), bias.lower, bias.upper) == (3_000, 0, 2_999)


def test_a_boolean_among_many_int_entries_is_not_a_rational_value(tmp_path, capsys):
    # ``True`` is an ``int`` to ``isinstance``; the all-int path must not take it.
    entries = {f"e{i}": i for i in range(3_000)}
    entries["e1500"] = True
    with pytest.raises(ConfigurationError) as caught:
        _read_bias({"entries": entries})
    assert str(caught.value) == "not a rational value: True"
    config, beta = tmp_path / "config.json", tmp_path / "beta.json"
    config.write_text(json.dumps({"z": 5_000, "bias": {"entries": entries}}))
    beta.write_text(json.dumps([["e0"]]))
    assert run_command(["trust", "--config", str(config), "--beta", str(beta)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        "configuration error: not a rational value: True\n",
    )


_close = st.integers(-(10**6), 10**6).map(lambda n: 1 + Fraction(n, 10**20))
_values = st.one_of(
    st.integers(-(10**30), 10**30),
    st.integers(-3, 3),
    st.fractions(-5, 5, max_denominator=10**9),
    _close,
    st.floats(-1e6, 1e6),
    _close.map(lambda value: f"{value.numerator}/{value.denominator}"),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_values, max_size=12), _values, st.sampled_from(["", "lower", "upper"]))
def test_derived_bias_range_is_the_exact_extremes(values, default, given_bound):
    # Integer-pair extremes against min/max over Fractions, one bound
    # possibly given (as the exact extreme, so the other is derived).
    exact = [as_fraction(value) for value in (*values, default)]
    low, high = min(exact), max(exact)
    bound = {"lower": {"lower": low}, "upper": {"upper": high}}.get(given_bound, {})
    entries = {f"e{index}": value for index, value in enumerate(values)}
    bias = BiasFunction(entries, default=default, **bound)
    assert (bias.lower, bias.upper) == (low, high)
    stored = [*bias.entries.values(), bias.default, bias.lower, bias.upper]
    assert all(map(_stored_form, stored))
    assert stored == [*exact, low, high]


@settings(max_examples=300, deadline=None)
@given(st.lists(_values, min_size=1, max_size=8), _values, _values)
def test_a_given_range_reports_the_first_entry_outside_it(values, lower, upper):
    entries = {f"e{index}": value for index, value in enumerate(values)}
    low, high = as_fraction(lower), as_fraction(upper)
    outside = [k for k, v in entries.items() if not low <= as_fraction(v) <= high]
    if low <= high and not outside:
        bias = BiasFunction(entries, lower=lower, upper=upper)
        assert (bias.lower, bias.upper) == (low, high)
        return
    with pytest.raises(ConfigurationError) as caught:
        BiasFunction(entries, lower=lower, upper=upper)
    if low > high:
        assert str(caught.value) == f"bias range is empty: [{low}, {high}]"
    else:
        key = outside[0]
        value = as_fraction(entries[key])
        message = f"bias for {key!r} ({value}) outside range [{low}, {high}]"
        assert str(caught.value) == message


_MIXED = st.sampled_from([-2, 0, 3, Fraction(-5, 2), Fraction(1, 3), Fraction(4, 2)])


@st.composite
def _mixed_entries(draw):
    """Entries of only ints, only Fractions, or both, often tied, maybe none."""
    ints, fractions = st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6)
    only_fractions = fractions.filter(lambda value: value.denominator > 1)
    pool = draw(
        st.sampled_from([ints, only_fractions, st.one_of(ints, fractions), _MIXED])
    )
    values = draw(st.lists(pool, max_size=8))
    return {f"e{index}": value for index, value in enumerate(values)}


@settings(max_examples=400, deadline=None)
@given(
    _mixed_entries(),
    _MIXED,
    st.one_of(st.none(), _MIXED),
    st.one_of(st.none(), _MIXED),
)
def test_bias_extremes_over_ints_and_fractions_match_the_reference(
    entries, default, lower, upper
):
    expected = bias_range_oracle(entries, default, lower, upper)
    try:
        bias = BiasFunction(entries, default=default, lower=lower, upper=upper)
    except ConfigurationError as exc:
        assert str(exc) == expected
        return
    assert (bias.lower, bias.upper) == expected
    assert all(map(_stored_form, (bias.lower, bias.upper)))


def test_as_fraction_accepts_the_usual_spellings():
    assert as_fraction(2) == Fraction(2)
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(Fraction(3, 4)) == Fraction(3, 4)
    assert as_fraction(1.5) == Fraction(3, 2)


def test_as_fraction_keeps_floats_exact_not_decimal():
    # 0.1 the float is not 1/10; conversions must not silently round.
    for value in (0.1, 1e308, 5e-324, -2.5):
        assert type(as_fraction(value)) is Fraction
        assert as_fraction(value) == Fraction(value)
        assert BiasFunction({"a": value})("a") == Fraction(value)
    assert as_fraction(0.1) != Fraction(1, 10)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_floats_are_not_rational(value):
    for convert in (as_fraction, lambda v: BiasFunction({}, default=v)):
        with pytest.raises(ConfigurationError) as caught:
            convert(value)
        assert str(caught.value) == f"not a rational value: {value!r}"


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
    stored = [*bias.entries.values(), bias.lower, bias.upper]
    assert list(map(type, stored)) == [int, int, Fraction, int, int, Fraction]


def test_rule_values_are_made_stored_form_once_per_rule(tmp_path, monkeypatch):
    # Each rule's bias times scale is made an int (or a reduced Fraction)
    # once, and unmatched elements take the int 0, so the bias function
    # converts no element of the product again.
    calls = []
    convert = coiquery.core.as_fraction

    def counted(value):
        calls.append(value)
        return convert(value)

    monkeypatch.setattr(coiquery.core, "as_fraction", counted)
    attributes = [{"name": name, "values": [0, 1, 2, 3]} for name in "abc"]
    rules = [
        {"when": {"a": 1}, "bias": 3},
        {"when": {"b": 2}, "bias": "1/2"},
        {"when": {"c": 0}, "bias": 2.0},
    ]
    document = {"attributes": attributes, "bias_rules": rules, "scale": 2}
    bias = _load(tmp_path, document).bias
    assert len(calls) == len(rules)
    assert sorted(set(bias.entries.values())) == [0, 1, 4, 6]
    assert {type(value) for value in bias.entries.values()} == {int}


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
