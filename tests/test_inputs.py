"""Every numeric parameter of every public function, fed bad values.

``CALLS`` holds, per public function, calls with valid values; each numeric
parameter in a call (annotated ``int``, ``float`` or ``float | None``) is
replaced in turn by each of ``BAD``.  A bool, a str, None, nan, +inf, a
list, and a tuple holding a 5,000-digit int (it has no repr, so the refusal
names it by its bit length) are refused with ``DomainError``: a memoized
function checks its arguments before the memo hashes them.  -inf and a
5,000-digit int are refused with ``DomainError`` or ``ResourceLimitError``
where the function does not take them (``count_types(10**5000, 2)`` is
exact); a Fraction is a real, so it gives the float's answer, and no
integer.  Nothing raises a bare ``TypeError``, ``ValueError`` or
``OverflowError``.

``SEQUENCE_CALLS`` does the same for the sequence parameters (a probability
vector, a type's counts, a string), fed None, a str, a list holding a str and
a list holding a 5,000-digit int: each is refused with ``DomainError`` or
``DistributionError``.  ``SOURCE_CALLS`` passes a plain list, a tuple, a
str or None where each public function takes a ``SourcePmf``: each is
refused by name with ``DomainError`` before any other argument is read.
``ORDERING_CALLS`` passes None, a str, a list or a ``SourcePmf`` where the
codec takes a ``CodeOrdering``: each is refused by name with ``DomainError``.

``CODEC_CALLS`` feeds the codec's own parameters (the string of
``string_index`` and ``encode``, the codeword of ``decode``, the bits of
``Codeword`` and the entries of ``SourcePmf``) None, an iterator, a set, a
list of bools, a str and a tuple of floats, except where the parameter takes
one: each is refused with the package's error.  A float is no exact entry:
exact mode would read its numerator.
"""

import inspect
import math
import re
import sys
from fractions import Fraction

import pytest

import pragrate
from pragrate import (KNOWN_SOURCE, UNIVERSAL, Codeword, CodewordError, DistributionError, DomainError,
                      ResourceLimitError, SourcePmf)
from pragrate.inputs import describe
from pragrate.types_census import DEFAULT_TYPE_CAP as CAP
from pragrate.types_census import type_index

from test_public_surface import PUBLIC_NAMES

P = SourcePmf.parse("0.2,0.8")
NUMERIC = {"int", "float", "float | None"}
HUGE = 10 ** 5000

CALLS = {
    "achievability_constant": [dict(p=P, delta=0.05)],
    "blahut_rate": [dict(p=P, n=50, epsilon=0.01)],
    "build_ordering": [dict(mode=UNIVERSAL, n=6, m=2, cap_types=CAP)],
    "compute_rate_ladder": [dict(p=P, n=10, epsilon=0.01, cap_types=CAP)],
    "compute_rate_ladders": [dict(p=P, n=10, epsilons=[0.01], cap_types=CAP)],
    "converse_constants": [dict(p_src=P, delta=0.05)],
    "count_types": [dict(n=5, m=2)],
    "decode": [],
    "delta_range": [],
    "delta_to_epsilon": [dict(delta=0.05, n=10)],
    "encode": [],
    "entropy": [],
    "entropy_slab_count": [dict(n=10, m=2, h=0.7)],
    "enumerate_types": [dict(n=3, m=2)],
    "epsilon_to_delta": [dict(epsilon=0.01, n=10)],
    "error_exponent": [dict(p=P, rate=0.9)],
    "excess_rate_probability": [dict(p=P, n=10, rate=0.5, cap_types=CAP)],
    "kl_divergence": [],
    "length_distribution": [dict(p=P, n=10, cap_types=CAP)],
    "low_entropy_count": [dict(n=10, m=2, h=0.7)],
    "moment_envelope": [dict(p=P, grid_size=64)],
    "optimal_rate": [dict(p=P, n=10, epsilon=0.01, cap_types=CAP), dict(p=P, n=10, log2_epsilon=-7.0)],
    "pragmatic_rate": [dict(p=P, n=50, epsilon=0.01)],
    "prefix_adjust": [dict(rate_per_symbol=0.5, n=10)],
    "rank_in_type_class": [dict(x=[0, 1, 1], m=2)],
    "shannon_rate": [],
    "solve_alpha_star": [dict(p=P, delta=0.05)],
    "strassen_rate": [dict(p=P, n=20, epsilon=0.01)],
    "string_index": [],
    "tilt": [dict(p=P, alpha=0.5)],
    "type_class_size": [],
    "type_entropy_bits": [],
    "universal_excess_probability": [dict(p=P, n=10, length=3, cap_types=CAP)],
    "universal_length_distribution": [dict(p=P, n=10, cap_types=CAP)],
    "universal_rate_bound": [dict(p=P, n=20, delta=0.05)],
    "universal_threshold_alpha_n": [dict(p=P, delta=0.05, n=100)],
    "unrank_in_type_class": [dict(t=(1, 2), rank=1)],
}

BAD = {"bool": True, "str": "1", "none": None, "nan": math.nan, "inf": math.inf,
       "minus_inf": -math.inf, "huge_int": HUGE, "huge_int_in_tuple": (HUGE,), "list": [5]}


def public_functions():
    """The public names that are functions: no class, exception or constant."""
    return sorted(name for name in PUBLIC_NAMES
                  if inspect.isfunction(inspect.unwrap(getattr(pragrate, name))))


def numeric_parameters(name):
    signature = inspect.signature(getattr(pragrate, name))
    return {k for k, v in signature.parameters.items() if v.annotation in NUMERIC}


def call(name, kwargs):
    """The call's result; a lazy one (an iterator) yields its first item."""
    result = getattr(pragrate, name)(**kwargs)
    return next(result) if inspect.isgenerator(result) else result


CASES = [
    pytest.param(name, kwargs, param, id=f"{name}[{i}]-{param}")
    for name, calls in CALLS.items() for i, kwargs in enumerate(calls)
    for param in sorted(numeric_parameters(name) & set(kwargs))
]


def test_table_covers_every_numeric_parameter():
    # a new public function, or a new numeric parameter, needs an entry here
    assert sorted(CALLS) == public_functions()
    takes_source = [name for name in public_functions() if any(
        "SourcePmf" in v.annotation for v in inspect.signature(getattr(pragrate, name)).parameters.values())]
    assert sorted(SOURCE_CALLS) == takes_source
    for name, calls in CALLS.items():
        assert set().union(*calls) & numeric_parameters(name) == numeric_parameters(name), name


@pytest.mark.parametrize("name", sorted(CALLS))
def test_valid_calls_return(name):
    for kwargs in CALLS[name]:
        call(name, kwargs)


@pytest.mark.parametrize("kind", [*BAD, "fraction"])
@pytest.mark.parametrize("name, kwargs, param", CASES)
def test_bad_value(name, kwargs, param, kind):
    valid = kwargs[param]
    bad = Fraction(valid) if kind == "fraction" else BAD[kind]
    try:
        got = call(name, {**kwargs, param: bad})
    except (DomainError, ResourceLimitError) as exc:
        refused = exc
    else:
        refused = None
    is_int = inspect.signature(getattr(pragrate, name)).parameters[param].annotation == "int"
    if kind in ("bool", "str", "none", "nan", "inf", "huge_int_in_tuple", "list") or kind == "fraction" and is_int:
        assert isinstance(refused, DomainError), refused
    elif kind == "fraction":  # a real: the float's answer
        assert refused is None and got == call(name, kwargs)


SEQUENCE_CALLS = {  # a public function with its sequence parameter left open
    "entropy": lambda bad: pragrate.entropy(bad),
    "kl_divergence[q]": lambda bad: pragrate.kl_divergence(bad, [0.5, 0.5]),
    "kl_divergence[p]": lambda bad: pragrate.kl_divergence([0.5, 0.5], bad),
    "type_class_size": lambda bad: pragrate.type_class_size(bad),
    "type_entropy_bits": lambda bad: pragrate.type_entropy_bits(bad),
    "type_index": lambda bad: type_index(bad),
    "unrank_in_type_class": lambda bad: pragrate.unrank_in_type_class(bad, 0),
    "rank_in_type_class": lambda bad: pragrate.rank_in_type_class(bad, 2),
}
BAD_SEQUENCES = {"none": None, "str": "ab", "str_in_list": [1, "x"], "huge_int_in_list": [HUGE],
                 "bools": [True, False]}


@pytest.mark.parametrize("kind", BAD_SEQUENCES)
@pytest.mark.parametrize("name", SEQUENCE_CALLS)
def test_bad_sequence(name, kind):
    # the package's refusal, naming the value in brief: never a bare error
    with pytest.raises((DomainError, DistributionError)) as refused:
        SEQUENCE_CALLS[name](BAD_SEQUENCES[kind])
    assert " at 0x" not in str(refused.value) and len(str(refused.value)) < 200


SOURCE_CALLS = {  # every other argument bad: a refusal of the source shows it came first
    "achievability_constant": lambda bad: pragrate.achievability_constant(bad, math.nan),
    "blahut_rate": lambda bad: pragrate.blahut_rate(bad, HUGE, math.nan),
    "build_ordering": lambda bad: pragrate.build_ordering(KNOWN_SOURCE, HUGE, 2, bad),
    "compute_rate_ladder": lambda bad: pragrate.compute_rate_ladder(bad, HUGE, math.nan),
    "compute_rate_ladders": lambda bad: pragrate.compute_rate_ladders(bad, HUGE, [math.nan]),
    "converse_constants": lambda bad: pragrate.converse_constants(bad, math.nan),
    "delta_range": lambda bad: pragrate.delta_range(bad),
    "error_exponent": lambda bad: pragrate.error_exponent(bad, math.nan),
    "excess_rate_probability": lambda bad: pragrate.excess_rate_probability(bad, HUGE, math.nan),
    "length_distribution": lambda bad: pragrate.length_distribution(bad, HUGE),
    "moment_envelope": lambda bad: pragrate.moment_envelope(bad, HUGE),
    "optimal_rate": lambda bad: pragrate.optimal_rate(bad, HUGE, math.nan),
    "pragmatic_rate": lambda bad: pragrate.pragmatic_rate(bad, HUGE, math.nan),
    "shannon_rate": lambda bad: pragrate.shannon_rate(bad),
    "solve_alpha_star": lambda bad: pragrate.solve_alpha_star(bad, math.nan),
    "strassen_rate": lambda bad: pragrate.strassen_rate(bad, HUGE, math.nan),
    "tilt": lambda bad: pragrate.tilt(bad, math.nan),
    "universal_excess_probability": lambda bad: pragrate.universal_excess_probability(bad, HUGE, math.nan),
    "universal_length_distribution": lambda bad: pragrate.universal_length_distribution(bad, HUGE),
    "universal_rate_bound": lambda bad: pragrate.universal_rate_bound(bad, HUGE, math.nan),
    "universal_threshold_alpha_n": lambda bad: pragrate.universal_threshold_alpha_n(bad, math.nan, HUGE),
}
BAD_SOURCES = {"list": [0.2, 0.8], "tuple": (0.2, 0.8), "str": "0.2,0.8", "none": None}


@pytest.mark.parametrize("name, kind", [  # None is the known-source ordering's own refusal, after the cap
    (name, kind) for name in SOURCE_CALLS for kind in BAD_SOURCES if (name, kind) != ("build_ordering", "none")
])
def test_bad_source(name, kind):
    bad = BAD_SOURCES[kind]
    with pytest.raises(DomainError, match=f"^a source must be a SourcePmf, got {re.escape(describe(bad))}$"):
        SOURCE_CALLS[name](bad)


ORDERING_CALLS = {  # every other argument valid: the ordering is the one bad value
    "string_index": lambda bad: pragrate.string_index(bad, b"ab"),
    "encode": lambda bad: pragrate.encode(bad, b"ab"),
    "decode": lambda bad: pragrate.decode(bad, Codeword("1")),
}
BAD_ORDERINGS = {"none": None, "str": "x", "list": [1, 2], "source": P}


@pytest.mark.parametrize("name, kind", [(name, kind) for name in ORDERING_CALLS for kind in BAD_ORDERINGS])
def test_bad_ordering(name, kind):
    # refused by name, never a bare AttributeError
    bad = BAD_ORDERINGS[kind]
    with pytest.raises(DomainError, match=f"^an ordering must be a CodeOrdering, got {re.escape(describe(bad))}$"):
        ORDERING_CALLS[name](bad)


O = pragrate.build_ordering(UNIVERSAL, 2, 2)
CODEC_CALLS = {  # a codec parameter left open: its refusal, and the bad kinds it takes
    "string_index": (lambda bad: pragrate.string_index(O, bad), DomainError, ()),
    "encode": (lambda bad: pragrate.encode(O, bad), DomainError, ()),
    "decode": (lambda bad: pragrate.decode(O, bad), CodewordError, ()),
    "Codeword": (Codeword, CodewordError, ("str",)),
    "SourcePmf[probs]": (SourcePmf, DistributionError, ("floats",)),
    "SourcePmf[exact]": (lambda bad: SourcePmf((0.5, 0.5), bad), DistributionError, ("none",)),
}
BAD_CODEC = {  # a fresh value per call: an iterator is spent once read
    "none": lambda: None, "iterator": lambda: iter([0, 1]), "set": lambda: {0, 1},
    "bools": lambda: [True, False], "str": lambda: "01", "floats": lambda: (0.5, 0.5),
}


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name, (_, _, takes) in CODEC_CALLS.items() for kind in BAD_CODEC if kind not in takes
])
def test_bad_codec_value(name, kind):
    # the package's refusal, never a bare AttributeError or TypeError
    refuse, error, _ = CODEC_CALLS[name]
    with pytest.raises(error):
        refuse(BAD_CODEC[kind]())


@pytest.mark.parametrize("value", [1.5, -(10 ** 4000), Fraction(-1, 3), "x" * 100, [10 ** 100] * 10, {"a": (None, 2)}])
def test_describe_is_repr_where_repr_works(value):
    assert describe(value) == repr(value)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize("value, name", [
    (HUGE, "<int of 16610 bits>"),
    (-HUGE, "-<int of 16610 bits>"),
    (Fraction(-1, HUGE), "-<Fraction of 16610 bits>"),
    ((HUGE,), "(<int of 16610 bits>,)"),
    ([0.5, [-HUGE]], "[0.5, [-<int of 16610 bits>]]"),
    ({"n": Fraction(HUGE, 3)}, "{'n': <Fraction of 16610 bits>}"),
], ids=["int", "negative_int", "fraction", "in_tuple", "nested_in_list", "in_dict"])
def test_describe_names_a_number_with_no_repr_by_its_bits(value, name):
    # a number past the 4,300-digit limit of int's str, at any depth
    assert describe(value) == name
