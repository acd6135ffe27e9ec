import random

import pytest

from conftest import UnknownAttribute, chain_of, resolve_attribute
from meshlite import parse
from meshlite.chains import (
    Allocated,
    ArrayOf,
    Async,
    Channel,
    Char,
    Col,
    Complex,
    Const,
    EvenDist,
    Horizontal,
    Int,
    Multiple,
    On,
    Real,
    Row,
    Share,
    Single,
    Vertical,
    combine,
    from_type_expr,
    layout_of,
    plan_of,
    validate_append,
)
from meshlite.checker import type_argument
from meshlite.errors import IncompletePlan, InvalidCombination, MeshError


def constant(arg):
    """A type argument's value if it is constant, else None."""
    value = type_argument(arg, lambda name: None, lambda *fault: None)
    return value if isinstance(value, int) else None


def chain_from_source(src):
    """Build a chain from declaration syntax, folding constant arguments."""
    (decl,) = parse(f"var x : {src};").statements
    return from_type_expr(decl.type_expr, constant)


# --- combine ---


def test_const_overrides_char_mutability():
    chain = chain_of(Char(), Const())
    assert resolve_attribute(chain, "mutability") == "read-only"


def test_two_base_types_rejected():
    with pytest.raises(InvalidCombination):
        chain_of(Int(), Char())


def test_duplicate_ordering_rejected():
    base = chain_from_source("array[complex,4,4]")
    extended = combine(base, Row())
    with pytest.raises(InvalidCombination):
        combine(extended, Row())
    with pytest.raises(InvalidCombination):
        combine(extended, Col())


def test_duplicate_partition_rejected():
    with pytest.raises(InvalidCombination):
        chain_from_source("array[complex,4,4] :: horizontal[2] :: vertical[2]")


def test_channel_requires_single():
    with pytest.raises(InvalidCombination):
        chain_from_source("Int :: channel[2,0]")
    with pytest.raises(InvalidCombination):
        chain_from_source("Int :: allocated[multiple[]] :: channel[2,0]")
    chain = chain_from_source("Int :: allocated[single[on[0]]] :: channel[2,0]")
    assert resolve_attribute(chain, "commMode") == ("channel", 2, 0, False)


def test_channel_rejected_on_partitioned_arrays():
    with pytest.raises(InvalidCombination):
        chain_from_source(
            "array[complex,4,4] :: allocated[horizontal[2] :: single[evendist[]]] :: channel[1,0]")


def test_async_requires_channel():
    with pytest.raises(InvalidCombination):
        chain_from_source("Int :: allocated[single[on[0]]] :: async")
    chain = chain_from_source("Int :: allocated[single[on[0]]] :: channel[2,0] :: async")
    assert resolve_attribute(chain, "commMode") == ("channel", 2, 0, True)


def test_partition_requires_array_base():
    with pytest.raises(InvalidCombination):
        chain_from_source("Int :: allocated[horizontal[2] :: single[evendist[]]]")


def test_multiple_and_partition_conflict():
    with pytest.raises(InvalidCombination):
        chain_from_source("array[complex,4,4] :: allocated[horizontal[2] :: multiple[]]")


def test_placement_outside_single_rejected():
    with pytest.raises(InvalidCombination):
        chain_from_source("array[complex,4] :: allocated[evendist[]]")


def test_base_must_come_first():
    with pytest.raises(InvalidCombination):
        chain_of(Const(), Char())


def test_unknown_constructor():
    with pytest.raises(InvalidCombination):
        chain_from_source("Int :: sparkle")


# --- resolve_attribute ---


def test_default_ordering_is_row_major():
    chain = chain_from_source(
        "array[complex,4,4] :: allocated[horizontal[2] :: single[evendist[]]]")
    assert resolve_attribute(chain, "ordering") == "row"


def test_channel_resolves_comm_mode():
    chain = chain_from_source("Int :: allocated[single[on[0]]] :: channel[2,0]")
    assert resolve_attribute(chain, "commMode") == ("channel", 2, 0, False)


def test_defaults_on_bare_base():
    chain = chain_of(Int())
    assert resolve_attribute(chain, "mutability") == "read-write"
    assert resolve_attribute(chain, "ordering") == "row"
    assert resolve_attribute(chain, "commMode") == ("one-sided",)
    assert resolve_attribute(chain, "partition") is None
    assert resolve_attribute(chain, "distribution") == ("multiple",)
    assert resolve_attribute(chain, "placement") is None


def test_unknown_attribute():
    with pytest.raises(UnknownAttribute):
        resolve_attribute(chain_of(Int()), "alignment")


def test_placement_attribute():
    chain = chain_from_source(
        "array[complex,4,4] :: allocated[horizontal[2] :: single[evendist[]]]")
    assert resolve_attribute(chain, "placement") == ("even",)
    assert resolve_attribute(
        chain_from_source("Int :: allocated[single[on[3]]]"), "placement") == ("on", 3)
    assert resolve_attribute(
        chain_from_source("Int :: allocated[multiple[]]"), "placement") is None


def test_right_bias_on_raw_tuples():
    """Rightmost constructor wins, checked on unvalidated tuples."""
    pairs = [
        ("ordering", Row(), Col(), "col"),
        ("ordering", Col(), Row(), "row"),
        ("partition", Horizontal(2), Vertical(3), ("vertical", 3)),
        ("distribution", Single(On(1)), Multiple(), ("multiple",)),
        ("distribution", Multiple(), Single(On(1)), ("on", 1)),
    ]
    prefix = (ArrayOf((Complex(),), (4, 4)),)
    for attribute, x, y, want in pairs:
        assert resolve_attribute(prefix + (x, y), attribute) == want


# --- plan_of ---


def test_plan_partitioned_2d():
    plan = plan_of(chain_from_source(
        "array[complex,4,4] :: allocated[row[] :: horizontal[2] :: single[evendist[]]]"))
    assert plan.shape == (4, 4)
    assert plan.elem == "complex"
    assert plan.ordering == "row"
    assert plan.partition == ("horizontal", 2)
    assert plan.distribution == ("even",)


def test_plan_replicated_1d():
    plan = plan_of(chain_from_source("array[complex,2] :: allocated[multiple[]]"))
    assert plan.shape == (2,)
    assert plan.distribution == ("multiple",)


def test_plan_scalar_on_rank():
    plan = plan_of(chain_from_source("Int :: allocated[single[on[0]]]"))
    assert plan.shape == ()
    assert plan.elem == "int"
    assert plan.distribution == ("on", 0)


def test_plan_single_accepts_bare_rank():
    plan = plan_of(chain_from_source("array[complex,4,4] :: allocated[row[] :: single[0]]"))
    assert plan.distribution == ("on", 0)
    assert plan.partition is None


def test_plan_share_and_channel_fields():
    plan = plan_of(chain_from_source(
        "array[complex,4,4] :: allocated[col[] :: horizontal[2] :: single[evendist[]]] :: share[B]"))
    assert plan.references == (("share", "B"),)
    plan = plan_of(chain_from_source("Int :: allocated[single[on[0]]] :: channel[2,0] :: async"))
    assert plan.comm == ("channel", 2, 0, True)


def test_plan_incomplete_without_distribution():
    with pytest.raises(IncompletePlan):
        plan_of(chain_from_source("array[complex,4,4] :: allocated[horizontal[2]]"))


def test_plan_const_marks_read_only():
    assert layout_of(chain_of(Char(), Const())).read_only


# --- property tests over random chains ---

ATTRIBUTE_POOL = [
    lambda rng: Const(),
    lambda rng: Row(),
    lambda rng: Col(),
    lambda rng: Horizontal(rng.randint(1, 4)),
    lambda rng: Vertical(rng.randint(1, 4)),
    lambda rng: Single(rng.choice([On(rng.randint(0, 3)), EvenDist(), None])),
    lambda rng: Multiple(),
    lambda rng: Channel(rng.randint(0, 3), rng.randint(0, 3)),
    lambda rng: Async(),
    lambda rng: Share("B"),
    lambda rng: Allocated(()),
]

BASE_POOL = [
    lambda rng: Int(),
    lambda rng: Char(),
    lambda rng: Real(),
    lambda rng: Complex(),
    lambda rng: ArrayOf((rng.choice([Int(), Complex()]),),
                        tuple(rng.randint(4, 8) for _ in range(rng.randint(1, 2)))),
]


def test_a_typed_local_is_not_replicated():
    """Only a distributed name has copies: `var n : Int` is one plain local."""
    kind = layout_of(chain_of(Int()))
    assert (kind.distributed, kind.replicated) == (False, False)
    assert layout_of(chain_from_source("Int :: allocated[multiple[]]")).replicated


def random_sequence(rng):
    ctors = []
    if rng.random() < 0.9:
        ctors.append(rng.choice(BASE_POOL)(rng))
    for _ in range(rng.randint(0, 5)):
        ctors.append(rng.choice(ATTRIBUTE_POOL)(rng))
        if rng.random() < 0.15:
            ctors.append(rng.choice(BASE_POOL)(rng))
    return ctors


def legal_by_documented_rules(ctors):
    """Independent restatement of the combination rules."""
    from meshlite.chains import BASE_CTORS

    seen_attrs = set()
    seen_kinds = set()
    base = None
    for i, c in enumerate(ctors):
        if isinstance(c, BASE_CTORS):
            if i != 0 or base is not None:
                return False
            base = c
            continue
        kind = type(c).__name__
        if kind in ("Const", "Allocated", "Async", "Share") and kind in seen_kinds:
            return False
        seen_kinds.add(kind)
        if isinstance(c, (Row, Col)):
            if "ordering" in seen_attrs:
                return False
            if base is not None and not isinstance(base, ArrayOf):
                return False
            seen_attrs.add("ordering")
        if isinstance(c, (Horizontal, Vertical)):
            if "partition" in seen_attrs:
                return False
            if base is not None and not isinstance(base, ArrayOf):
                return False
            if "dist-multiple" in seen_kinds:
                return False
            seen_attrs.add("partition")
        if isinstance(c, (Single, Multiple)):
            if "distribution" in seen_attrs:
                return False
            seen_attrs.add("distribution")
            if isinstance(c, Multiple):
                if "partition" in seen_attrs:
                    return False
                seen_kinds.add("dist-multiple")
            else:
                seen_kinds.add("dist-single")
        if isinstance(c, Channel):
            if "commMode" in seen_attrs:
                return False
            if "dist-single" not in seen_kinds or "partition" in seen_attrs:
                return False
            seen_attrs.add("commMode")
        if isinstance(c, Async) and "Channel" not in {type(x).__name__ for x in ctors[:i]}:
            return False
    return True


def test_combine_accepts_and_rejects_exactly_the_documented_rules():
    rng = random.Random(20240811)
    checked = 0
    for _ in range(1500):
        ctors = random_sequence(rng)
        expected = legal_by_documented_rules(ctors)
        chain = ()
        outcome = True
        try:
            for c in ctors:
                chain = combine(chain, c)
        except InvalidCombination:
            outcome = False
        except Exception as exc:  # anything else is a crash
            raise AssertionError(f"combine crashed on {ctors}: {exc!r}")
        assert outcome == expected, f"{ctors}: combine said {outcome}, rules say {expected}"
        checked += 1
    assert checked >= 1000


def test_plan_of_never_crashes_on_validated_chains():
    rng = random.Random(77)
    produced = 0
    for _ in range(1500):
        ctors = random_sequence(rng)
        chain = ()
        try:
            for c in ctors:
                chain = combine(chain, c)
        except InvalidCombination:
            continue
        try:
            plan = plan_of(chain)
        except IncompletePlan:
            continue
        except MeshError as exc:
            raise AssertionError(f"unexpected error for {ctors}: {exc!r}")
        assert plan.elem in ("int", "char", "real", "complex")
        if plan.partition is not None:
            assert plan.distribution[0] in ("on", "even", "arraydist")
        produced += 1
    assert produced >= 200


def test_layout_problems_are_what_plan_of_raises():
    """A Layout's problems are what plan_of raises; without any, plan_of is that Layout."""
    rng = random.Random(31)
    planned = refused = split = 0
    for _ in range(1500):
        chain = ()
        try:
            for c in random_sequence(rng):
                chain = combine(chain, c)
        except InvalidCombination:
            continue
        layout = layout_of(chain)
        problems = list(layout.problems)
        try:
            plan = plan_of(chain)
        except IncompletePlan as exc:
            assert problems and problems[0] == str(exc), chain
            refused += 1
            continue
        assert problems == [] and plan == layout, chain
        assert plan.read_only == any(isinstance(c, Const) for c in chain), chain
        if not plan.distributed:  # a local names no distribution it would ignore
            assert not any(isinstance(c, (Single, Multiple)) for c in chain), chain
        if plan.partition is not None:
            extent = plan.shape[partitioned_extent_dim(plan)]
            assert 0 < plan.partition[1] <= extent, chain
            for parts in (0, extent + 1, -1):
                bad = with_parts(chain, parts)
                message = f"cannot split extent {extent} into {parts} blocks"
                assert message in layout_of(bad).problems, bad
                with pytest.raises(IncompletePlan):
                    plan_of(bad)
                split += 1
        planned += 1
    assert planned >= 200 and refused >= 50 and split >= 9


def partitioned_extent_dim(plan):
    """The documented storage model: partitions cut the ordering's major
    dimension, or the minor one for vertical."""
    if len(plan.shape) == 1:
        return 0
    major = 0 if plan.ordering == "row" else 1
    return 1 - major if plan.partition[0] == "vertical" else major


def with_parts(chain, parts):
    """chain with its partition constructor splitting into `parts` blocks."""
    out = []
    for c in chain:
        if isinstance(c, (Horizontal, Vertical)):
            c = type(c)(parts)
        elif isinstance(c, Allocated):
            c = Allocated(with_parts(c.inner, parts))
        out.append(c)
    return tuple(out)


def test_idempotent_validation():
    """Chains built by combine re-validate constructor by constructor."""
    rng = random.Random(5)
    for _ in range(500):
        ctors = random_sequence(rng)
        chain = ()
        try:
            for c in ctors:
                chain = combine(chain, c)
        except InvalidCombination:
            continue
        rebuilt = ()
        for c in chain:
            validate_append(rebuilt, c)
            rebuilt = rebuilt + (c,)
        assert rebuilt == chain
