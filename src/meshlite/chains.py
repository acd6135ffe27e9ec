"""Type chains: constructor combination rules, attribute resolution and
allocation planning. This is the only module that reads a chain: the
checker, the compiler and the interpreter take what a declaration makes
of its name from kind_of, and its plan rules from plan_problems.

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

from dataclasses import dataclass
from typing import Optional

from .errors import IncompletePlan, InvalidCombination, UnknownAttribute

ATTRIBUTES = ("mutability", "ordering", "partition", "distribution", "placement", "commMode")

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
            attr, value = contrib
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


def chain_of(*ctors) -> TypeChain:
    """Build a chain constructor by constructor through combine."""
    chain = ()
    for c in ctors:
        chain = combine(chain, c)
    return chain


def resolve_attribute(chain: TypeChain, attribute: str):
    """Value of the rightmost constructor providing the attribute, or the
    documented default."""
    if attribute not in ATTRIBUTES:
        raise UnknownAttribute(f"unknown attribute {attribute!r}")
    return _attributes(chain)[attribute]


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
class Kind:
    """What a declaration makes of its name, whatever its extents' values."""

    elem: Optional[str] = None  # int | char | real | complex; None without a scalar base
    ndim: int = 0  # 0 for a scalar, else the array's dimensions
    distributed: bool = False  # owns PGAS storage: an array base or allocated[...]
    replicated: bool = False  # distribution multiple: one copy per process
    partitioned: bool = False
    read_only: bool = False


LOCAL = Kind()  # an untyped local

_ELEM_KINDS = {Int: "int", Char: "char", Real: "real", Complex: "complex"}


def kind_of(chain: TypeChain) -> Kind:
    """The Kind of a formed chain; its arguments may be unevaluated."""
    base = _base_of(chain)
    ndim = 0
    if isinstance(base, ArrayOf):
        ndim, base = len(base.dims), _base_of(base.elem)
    attrs = _attributes(chain)
    return Kind(
        elem=_ELEM_KINDS.get(type(base)),
        ndim=ndim,
        distributed=ndim > 0 or any(isinstance(c, Allocated) for c in chain),
        replicated=attrs["distribution"][0] == "multiple",
        partitioned=attrs["partition"] is not None,
        read_only=attrs["mutability"] == "read-only",
    )


def references(chain: TypeChain) -> dict:
    """The variables a chain names, in chain order: {"arraydist": d, "share": B},
    each key present only if the chain has that constructor."""
    named = {}
    for c in _flatten(chain):
        if isinstance(c, Single) and isinstance(c.placement, ArrayDist):
            named["arraydist"] = c.placement.var
        elif isinstance(c, Share):
            named["share"] = c.var
    return named


@dataclass(frozen=True)
class AllocationPlan:
    elem: str  # int | char | real | complex
    shape: tuple  # () scalar, (n,) 1D, (d0, d1) 2D
    ordering: str  # row | col
    partition: Optional[tuple]  # ("horizontal"|"vertical", parts)
    distribution: tuple  # ("on", rank) | ("even",) | ("arraydist", var) | ("multiple",)
    share_base: Optional[str]
    comm: Optional[tuple]  # ("channel", src, dst, is_async)
    read_only: bool


def plan_problems(chain: TypeChain) -> list:
    """Every plan rule a formed chain breaks, whatever values its
    unevaluated arguments take, in the order plan_of reports them."""
    problems = []
    base = _base_of(chain)
    if base is None:
        problems.append("chain has no base element type")
    elif isinstance(base, ArrayOf):
        if type(_base_of(base.elem)) not in _ELEM_KINDS:
            problems.append("array element type must be a scalar base type")
        if not 1 <= len(base.dims) <= 2:
            problems.append("arrays are one- or two-dimensional")
        if any(d is not None and d <= 0 for d in base.dims):
            problems.append("array extents must be positive")
    attrs = _attributes(chain)
    distribution = attrs["distribution"]
    if attrs["partition"] is not None:
        if not any(isinstance(c, (Single, Multiple)) for c in _flatten(chain)):
            problems.append("a partitioned array lacks a distribution")
    elif distribution[0] in ("even", "arraydist"):
        problems.append(f"{distribution[0]} distribution requires a partitioned array")
    if "share" in references(chain) and distribution[0] == "multiple":
        problems.append("a share view needs a single-copy allocation to alias")
    if base is not None and not isinstance(base, ArrayOf) and not any(
            isinstance(c, Allocated) for c in chain):
        for c in chain:
            if isinstance(c, (Single, Multiple)):
                written = "single[...]" if isinstance(c, Single) else "multiple[]"
                problems.append(f"{written} outside allocated[...] gives a scalar no "
                                f"global storage; write allocated[{written}]")
    partition = attrs["partition"]
    count = partition[1] if partition is not None else None
    if count is not None and isinstance(base, ArrayOf) and 1 <= len(base.dims) <= 2:
        extent = base.dims[partitioned_dim(len(base.dims), attrs["ordering"], partition)]
        if extent is not None and extent > 0:
            if not 0 < count <= extent:
                problems.append(f"cannot split extent {extent} into {count} blocks")
        elif count <= 0:
            problems.append(f"cannot split an array into {count} blocks")
    return problems


def partitioned_dim(ndim: int, ordering: str, partition: Optional[tuple]) -> int:
    """Dimension the blocks slice: the ordering's major dimension for
    horizontal (and unpartitioned) layouts, the minor one for vertical."""
    if ndim <= 1:
        return 0
    major = 0 if ordering == "row" else 1
    if partition is not None and partition[0] == "vertical":
        return 1 - major
    return major


def plan_of(chain: TypeChain) -> AllocationPlan:
    """Flatten a formed chain into an allocation plan.

    Raises IncompletePlan with the first of plan_problems, or if an
    extent, rank or count argument is not a concrete integer.
    """
    problems = plan_problems(chain)
    if problems:
        raise IncompletePlan(problems[0])
    base = _base_of(chain)
    shape = tuple(base.dims) if isinstance(base, ArrayOf) else ()
    attrs = _attributes(chain)
    partition, distribution = attrs["partition"], attrs["distribution"]
    comm = None if attrs["commMode"] == ("one-sided",) else attrs["commMode"]
    if None in shape:
        raise IncompletePlan("array extents are not fully evaluated")
    if partition is not None and partition[1] is None:
        raise IncompletePlan("partition count is not evaluated")
    if distribution[0] == "on" and distribution[1] is None:
        raise IncompletePlan("placement rank is not evaluated")
    if comm is not None and (comm[1] is None or comm[2] is None):
        raise IncompletePlan("channel endpoints are not evaluated")
    kind = kind_of(chain)
    return AllocationPlan(
        elem=kind.elem,
        shape=shape,
        ordering=attrs["ordering"],
        partition=partition,
        distribution=distribution,
        share_base=references(chain).get("share"),
        comm=comm,
        read_only=kind.read_only,
    )


# --- building chains from parsed type expressions ---

_BASE_NAMES = {"int": Int, "char": Char, "real": Real, "complex": Complex}


def from_type_expr(texpr, evaluate) -> TypeChain:
    """Build a chain from a parsed TypeExpr, one combine at a time.

    `evaluate` maps an argument expression to an int, or to None when the
    value is not known yet (structural validation only).
    """
    from . import ast as _ast  # local import: chains stays usable standalone

    def expr_name(e):
        return e.name if isinstance(e, _ast.Name) else None

    def build(te):
        chain = ()
        for app in te.apps:
            chain = combine(chain, ctor_of(app))
        return chain

    def need_args(app, n):
        if len(app.args) != n:
            raise InvalidCombination(
                f"{app.ctor} takes {n} argument{'s' if n != 1 else ''}, got {len(app.args)}")

    def no_args(app):
        if app.args:
            raise InvalidCombination(f"{app.ctor} takes no arguments")

    def as_chain_arg(arg):
        if isinstance(arg, _ast.TypeExpr):
            return build(arg)
        name = expr_name(arg)
        if name is not None:
            return build(_ast.TypeExpr((_ast.TypeApp(name, (), False),)))
        raise InvalidCombination("expected a type argument")

    def ctor_of(app):
        name = app.ctor
        lname = name.lower()
        if lname in _BASE_NAMES:
            no_args(app)
            return _BASE_NAMES[lname]()
        if lname == "array":
            if len(app.args) < 2 or len(app.args) > 3:
                raise InvalidCombination("array takes an element type and 1 or 2 extents")
            elem = as_chain_arg(app.args[0])
            dims = tuple(evaluate(a) for a in app.args[1:])
            return ArrayOf(elem, dims)
        if lname == "const":
            no_args(app)
            return Const()
        if lname == "allocated":
            need_args(app, 1)
            return Allocated(as_chain_arg(app.args[0]))
        if lname == "single":
            if not app.args:
                return Single(None)
            need_args(app, 1)
            arg = app.args[0]
            if isinstance(arg, _ast.TypeExpr):
                if len(arg.apps) != 1:
                    raise InvalidCombination(
                        "single takes a rank, on[...], evendist[] or arraydist[...]")
                inner = ctor_of(arg.apps[0])
                if not isinstance(inner, PLACEMENT_CTORS):
                    raise InvalidCombination(
                        "single takes a rank, on[...], evendist[] or arraydist[...]")
                return Single(inner)
            return Single(On(evaluate(arg)))
        if lname == "multiple":
            no_args(app)
            return Multiple()
        if lname == "on":
            need_args(app, 1)
            return On(evaluate(app.args[0]))
        if lname == "row":
            no_args(app)
            return Row()
        if lname == "col":
            no_args(app)
            return Col()
        if lname == "horizontal":
            need_args(app, 1)
            return Horizontal(evaluate(app.args[0]))
        if lname == "vertical":
            need_args(app, 1)
            return Vertical(evaluate(app.args[0]))
        if lname == "evendist":
            no_args(app)
            return EvenDist()
        if lname == "arraydist":
            need_args(app, 1)
            var = expr_name(app.args[0])
            if var is None:
                raise InvalidCombination("arraydist takes the name of an integer array")
            return ArrayDist(var)
        if lname == "share":
            need_args(app, 1)
            var = expr_name(app.args[0])
            if var is None:
                raise InvalidCombination("share takes the name of a base array")
            return Share(var)
        if lname == "channel":
            need_args(app, 2)
            return Channel(evaluate(app.args[0]), evaluate(app.args[1]))
        if lname == "async":
            no_args(app)
            return Async()
        raise InvalidCombination(f"unknown type constructor {name!r}")

    return build(texpr)
