"""Type chains: constructor combination rules, attribute resolution and
allocation planning. This is the only module that reads a chain, and
layout_of reads it once into a Layout: what a declaration makes of its
name, where its data lives and every plan rule it breaks. The checker
records it as each name's kind, and plan_of is that Layout once its
arguments are evaluated.

A chain is an ordered tuple of constructors. Attributes (mutability,
ordering, partition, distribution, placement, commMode) are resolved with
right-to-left precedence: the rightmost constructor contributing an
attribute wins. A nested `allocated[...]` argument is flattened in place,
so the constructors inside it sit between their syntactic neighbours for
precedence purposes; `single`'s placement argument is part of the single
constructor itself.

Defaults when no constructor contributes:
  mutability   read-write
  ordering     row-major
  commMode     one-sided
  partition    none
  distribution multiple (one replica per process)
  placement    none

Integer arguments may be None while a program is only being validated
structurally; plan_of requires concrete values.
"""

from dataclasses import dataclass, fields, replace
from typing import Optional

from .errors import IncompletePlan, InvalidCombination

ELEMENT_SIZES = {"int": 8, "char": 1, "real": 8, "complex": 16}


@dataclass(frozen=True)
class Ctor:
    def describe(self) -> str:
        return type(self).__name__.lower()


@dataclass(frozen=True)
class Int(Ctor):
    pass


@dataclass(frozen=True)
class Char(Ctor):
    pass


@dataclass(frozen=True)
class Real(Ctor):
    pass


@dataclass(frozen=True)
class Complex(Ctor):
    pass


@dataclass(frozen=True)
class ArrayOf(Ctor):
    elem: "TypeChain"
    dims: tuple  # ints, or None while unevaluated

    def describe(self):
        return "array"


@dataclass(frozen=True)
class Const(Ctor):
    pass


@dataclass(frozen=True)
class Allocated(Ctor):
    inner: "TypeChain"


@dataclass(frozen=True)
class On(Ctor):
    rank: Optional[int]


@dataclass(frozen=True)
class EvenDist(Ctor):
    pass


@dataclass(frozen=True)
class ArrayDist(Ctor):
    var: str


@dataclass(frozen=True)
class Single(Ctor):
    placement: Optional[Ctor]  # On | EvenDist | ArrayDist


@dataclass(frozen=True)
class Multiple(Ctor):
    pass


@dataclass(frozen=True)
class Row(Ctor):
    pass


@dataclass(frozen=True)
class Col(Ctor):
    pass


@dataclass(frozen=True)
class Horizontal(Ctor):
    parts: Optional[int]


@dataclass(frozen=True)
class Vertical(Ctor):
    parts: Optional[int]


@dataclass(frozen=True)
class Share(Ctor):
    var: str


@dataclass(frozen=True)
class Channel(Ctor):
    src: Optional[int]
    dst: Optional[int]


@dataclass(frozen=True)
class Async(Ctor):
    pass


BASE_CTORS = (Int, Char, Real, Complex, ArrayOf)
PLACEMENT_CTORS = (On, EvenDist, ArrayDist)

TypeChain = tuple  # tuple of Ctor


def _flatten(chain):
    """Yield constructors in syntactic order, descending into allocated
    arguments (which contribute attributes of their own). A single's
    placement argument is folded into the single itself."""
    for c in chain:
        if isinstance(c, Allocated):
            yield c
            yield from _flatten(c.inner)
        else:
            yield c


def _contribution(ctor):
    """(attribute, value) provided by a constructor, or None."""
    if isinstance(ctor, Const):
        return ("mutability", "read-only")
    if isinstance(ctor, Row):
        return ("ordering", "row")
    if isinstance(ctor, Col):
        return ("ordering", "col")
    if isinstance(ctor, Horizontal):
        return ("partition", ("horizontal", ctor.parts))
    if isinstance(ctor, Vertical):
        return ("partition", ("vertical", ctor.parts))
    if isinstance(ctor, Multiple):
        return ("distribution", ("multiple",))
    if isinstance(ctor, Single):
        p = ctor.placement
        if p is None:
            return ("distribution", ("on", 0))
        if isinstance(p, On):
            return ("distribution", ("on", p.rank))
        if isinstance(p, EvenDist):
            return ("distribution", ("even",))
        return ("distribution", ("arraydist", p.var))
    if isinstance(ctor, Channel):
        return ("commMode", ("channel", ctor.src, ctor.dst, False))
    return None


_DEFAULTS = {
    "mutability": "read-write",
    "ordering": "row",
    "partition": None,
    "distribution": ("multiple",),
    "placement": None,
    "commMode": ("one-sided",),
}


def _base_of(chain):
    for c in chain:
        if isinstance(c, BASE_CTORS):
            return c
    return None


def _reject(left, right, why):
    raise InvalidCombination(f"cannot combine {left} with {right}: {why}")


def validate_append(chain: TypeChain, ctor: Ctor) -> None:
    """Raise InvalidCombination if appending ctor to chain is illegal."""
    flat = list(_flatten(chain))
    base = _base_of(flat)
    new_flat = list(_flatten((ctor,)))

    for nc in new_flat:
        if isinstance(nc, BASE_CTORS):
            if base is not None:
                _reject(base.describe(), nc.describe(), "a chain has exactly one base type")
            if flat:
                _reject(flat[0].describe(), nc.describe(), "the base type must come first")
            base = nc
            continue

        contrib = _contribution(nc)
        if contrib is not None:
            attr = contrib[0]
            for old in flat:
                oc = _contribution(old)
                if oc is not None and oc[0] == attr:
                    _reject(old.describe(), nc.describe(), f"duplicate {attr} constructors")

        if isinstance(nc, (Row, Col, Horizontal, Vertical)):
            if base is not None and not isinstance(base, ArrayOf):
                _reject(base.describe(), nc.describe(), "requires an array base type")
        if isinstance(nc, Multiple):
            if any(isinstance(c, (Horizontal, Vertical)) for c in flat):
                _reject("partition", nc.describe(), "a replicated array cannot be partitioned")
        if isinstance(nc, (Horizontal, Vertical)):
            if any(isinstance(c, Multiple) for c in flat):
                _reject("multiple", nc.describe(), "a replicated array cannot be partitioned")
        if isinstance(nc, PLACEMENT_CTORS):
            _reject("chain", nc.describe(), "placement constructors only appear inside single[...]")
        if isinstance(nc, Allocated):
            if any(isinstance(c, Allocated) for c in flat):
                _reject("allocated", "allocated", "duplicate allocated constructors")
        if isinstance(nc, Channel):
            dist = None
            for c in flat:
                oc = _contribution(c)
                if oc is not None and oc[0] == "distribution":
                    dist = oc[1]
            if dist is None or dist[0] == "multiple":
                _reject("chain", nc.describe(), "channel requires a single-allocated variable")
            if any(isinstance(c, (Horizontal, Vertical)) for c in flat):
                _reject("partition", nc.describe(), "channel is not allowed on partitioned arrays")
        if isinstance(nc, Async):
            if not any(isinstance(c, Channel) for c in flat):
                _reject("chain", nc.describe(), "async requires a channel constructor")
            if any(isinstance(c, Async) for c in flat):
                _reject("async", "async", "duplicate async constructors")
        if isinstance(nc, Share):
            if sum(1 for c in flat if isinstance(c, Share)):
                _reject("share", "share", "duplicate share constructors")
        flat.append(nc)


def combine(left: TypeChain, right: Ctor) -> TypeChain:
    """Append one constructor, enforcing the combination rules."""
    validate_append(left, right)
    return left + (right,)


def _attributes(chain: TypeChain) -> dict:
    """Every attribute's resolved value, in one pass over the chain."""
    values = dict(_DEFAULTS)
    has_async = False
    for c in _flatten(chain):
        if isinstance(c, Async):
            has_async = True
        contrib = _contribution(c)
        if contrib is None:
            continue
        attr, v = contrib
        values[attr] = v
        if attr == "distribution" and v[0] != "multiple":
            values["placement"] = v
    comm = values["commMode"]
    if comm[0] == "channel" and has_async:
        values["commMode"] = (comm[0], comm[1], comm[2], True)
    return values


@dataclass(frozen=True)
class Layout:
    """What a chain makes of its name and where its data lives, whatever
    its extents' values: the one reading of a chain."""

    elem: Optional[str] = None  # int | char | real | complex; None without a scalar base
    shape: tuple = ()  # () scalar, (n,) 1D, (d0, d1) 2D; None for an extent not yet evaluated
    ordering: str = "row"  # row | col
    partition: Optional[tuple] = None  # ("horizontal"|"vertical", parts)
    distribution: tuple = ("multiple",)  # ("on", rank) | ("even",) | ("arraydist", var)
    comm: Optional[tuple] = None  # ("channel", src, dst, is_async); None for one-sided
    references: tuple = ()  # each (role, name) the chain names: "arraydist" or "share"
    distributed: bool = False  # owns PGAS storage: an array base or allocated[...]
    read_only: bool = False
    problems: tuple = ()  # every plan rule the chain breaks, in the order plan_of reports them

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def replicated(self) -> bool:
        """Distributed, and multiple: one copy per process."""
        return self.distributed and self.distribution[0] == "multiple"

    @property
    def partitioned(self) -> bool:
        return self.partition is not None


LOCAL = Layout()  # an untyped local

_ELEM_KINDS = {Int: "int", Char: "char", Real: "real", Complex: "complex"}


def layout_of(chain: TypeChain) -> Layout:
    """The Layout of a formed chain; its arguments may be unevaluated."""
    base = _base_of(chain)
    array = base if isinstance(base, ArrayOf) else None
    if array is not None:
        base = _base_of(array.elem)
    attrs = _attributes(chain)
    flat = list(_flatten(chain))
    references = tuple(("share", c.var) if isinstance(c, Share) else ("arraydist", c.placement.var)
                       for c in flat if isinstance(c, Share)
                       or isinstance(c, Single) and isinstance(c.placement, ArrayDist))
    layout = Layout(
        elem=_ELEM_KINDS.get(type(base)),
        shape=() if array is None else array.dims,
        ordering=attrs["ordering"],
        partition=attrs["partition"],
        distribution=attrs["distribution"],
        comm=None if attrs["commMode"] == ("one-sided",) else attrs["commMode"],
        references=references,
        distributed=array is not None or any(isinstance(c, Allocated) for c in flat),
        read_only=attrs["mutability"] == "read-only",
    )
    return replace(layout, problems=tuple(_problems(layout, array, flat)))


def _problems(layout, array, flat):
    """Every plan rule a layout breaks; array is its chain's ArrayOf, if
    any, and flat its chain's constructors."""
    shape, distribution, partition = layout.shape, layout.distribution, layout.partition
    if layout.elem is None:
        yield ("array element type must be a scalar base type" if array is not None
               else "chain has no base element type")
    if array is not None and not 1 <= len(shape) <= 2:
        yield "arrays are one- or two-dimensional"
    if any(d is not None and d <= 0 for d in shape):
        yield "array extents must be positive"
    if partition is not None:
        if not any(isinstance(c, (Single, Multiple)) for c in flat):
            yield "a partitioned array lacks a distribution"
    elif distribution[0] in ("even", "arraydist"):
        yield f"{distribution[0]} distribution requires a partitioned array"
    if distribution[0] == "on" and distribution[1] is not None and distribution[1] < 0:
        yield f"placement rank {distribution[1]} is negative"
    for end in layout.comm[1:3] if layout.comm else ():
        if end is not None and end < 0:
            yield f"channel endpoint {end} is negative"
    if "share" in dict(layout.references) and distribution[0] == "multiple":
        yield "a share view needs a single-copy allocation to alias"
    if layout.elem is not None and not layout.distributed:  # no allocated[...]: flat is the chain
        for c in flat:
            if isinstance(c, (Single, Multiple)):
                written = "single[...]" if isinstance(c, Single) else "multiple[]"
                yield (f"{written} outside allocated[...] gives a scalar no "
                       f"global storage; write allocated[{written}]")
    count = partition[1] if partition is not None else None
    if count is not None and array is not None and 1 <= len(shape) <= 2:
        extent = shape[partitioned_dim(len(shape), layout.ordering, partition)]
        if extent is not None and extent > 0:
            if not 0 < count <= extent:
                yield f"cannot split extent {extent} into {count} blocks"
        elif count <= 0:
            yield f"cannot split an array into {count} blocks"


def partitioned_dim(ndim: int, ordering: str, partition: Optional[tuple]) -> int:
    """Dimension the blocks slice: the ordering's major dimension for
    horizontal (and unpartitioned) layouts, the minor one for vertical."""
    if ndim <= 1:
        return 0
    major = 0 if ordering == "row" else 1
    if partition is not None and partition[0] == "vertical":
        return 1 - major
    return major


def plan_of(chain: TypeChain) -> Layout:
    """The Layout of a formed chain whose arguments are evaluated.

    Raises IncompletePlan with the first of its problems.
    """
    layout = layout_of(chain)
    if layout.problems:
        raise IncompletePlan(layout.problems[0])
    return layout


# --- building chains from parsed type expressions ---

# Constructors by name: those taking no arguments, those taking one
# integer per field, and those taking the name of a variable.
_NO_ARGS = {c.__name__.lower(): c for c in (
    Int, Char, Real, Complex, Const, Multiple, Row, Col, EvenDist, Async)}
_INT_ARGS = {c.__name__.lower(): c for c in (On, Horizontal, Vertical, Channel)}
_NAME_ARGS = {"arraydist": (ArrayDist, "an integer array"), "share": (Share, "a base array")}
_ARITY = {"allocated": 1, "single": 1, **dict.fromkeys(_NAME_ARGS, 1),
          **{name: len(fields(c)) for name, c in _INT_ARGS.items()}}


def from_type_expr(texpr, evaluate) -> TypeChain:
    """Build a chain from a parsed TypeExpr, one combine at a time.

    `evaluate` maps an argument expression to an int, or to None when the
    value is not known yet (structural validation only).
    """
    from . import ast as _ast  # local import: chains stays usable standalone

    def build(te):
        chain = ()
        for app in te.apps:
            chain = combine(chain, ctor_of(app))
        return chain

    def as_chain_arg(arg):
        if isinstance(arg, _ast.TypeExpr):
            return build(arg)
        if isinstance(arg, _ast.Name):
            return build(_ast.TypeExpr((_ast.TypeApp(arg.name, (), False),)))
        raise InvalidCombination("expected a type argument")

    def ctor_of(app):
        name, args = app.ctor, app.args
        lname = name.lower()
        if lname in _NO_ARGS:
            if args:
                raise InvalidCombination(f"{name} takes no arguments")
            return _NO_ARGS[lname]()
        if lname == "array":
            if not 2 <= len(args) <= 3:
                raise InvalidCombination("array takes an element type and 1 or 2 extents")
            return ArrayOf(as_chain_arg(args[0]), tuple(evaluate(a) for a in args[1:]))
        if lname == "single" and not args:
            return Single(None)
        if lname not in _ARITY:
            raise InvalidCombination(f"unknown type constructor {name!r}")
        n = _ARITY[lname]
        if len(args) != n:
            raise InvalidCombination(
                f"{name} takes {n} argument{'s' if n != 1 else ''}, got {len(args)}")
        if lname in _INT_ARGS:
            return _INT_ARGS[lname](*map(evaluate, args))
        if lname in _NAME_ARGS:
            cls, what = _NAME_ARGS[lname]
            if not isinstance(args[0], _ast.Name):
                raise InvalidCombination(f"{lname} takes the name of {what}")
            return cls(args[0].name)
        if lname == "allocated":
            return Allocated(as_chain_arg(args[0]))
        arg = args[0]  # single's placement
        if not isinstance(arg, _ast.TypeExpr):
            return Single(On(evaluate(arg)))
        inner = ctor_of(arg.apps[0]) if len(arg.apps) == 1 else None
        if not isinstance(inner, PLACEMENT_CTORS):
            raise InvalidCombination("single takes a rank, on[...], evendist[] or arraydist[...]")
        return Single(inner)

    return build(texpr)
