"""MSHD binary array files.

Layout, all little-endian:

    4 bytes   magic "MSHD"
    u8        element kind: 0=int, 1=char, 2=real, 3=complex
    u8        number of dimensions (0 for a scalar)
    u64 * d   extents
    payload   elements in row-major order:
              int as i64, char as u8, real as f64,
              complex as an (re, im) pair of f64

Reading and writing round-trip bit-exactly.
"""

import struct

from .errors import FormatError, IoError

MAGIC = b"MSHD"

KIND_CODES = {"int": 0, "char": 1, "real": 2, "complex": 3}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}

# kind: (struct code of one number, numbers per element, the types of value
#        it holds, its own type: an element's value from its numbers)
CODECS = {
    "int": ("q", 1, {int}, int),
    "char": ("B", 1, {int}, int),
    "real": ("d", 1, {int, float}, float),
    "complex": ("d", 2, {int, float, complex}, complex),
}


def write_mshd(path, elem: str, shape: tuple, values, name="values") -> None:
    """Write values (row-major order) as an MSHD file. A value that an
    `elem` file cannot hold is a FormatError naming it as an element of
    name, and nothing is written: a string, a float or a complex as int or
    char, a complex as real, an integer outside the kind's range, and an
    integer as real or complex that a float cannot hold exactly. Any other
    integer as real or complex, or a float as complex, is converted."""
    count = 1
    for d in shape:
        count *= d
    values = list(values)
    if len(values) != count:
        raise FormatError(f"{len(values)} values for shape {shape}")
    code, per, holds, own = CODECS[elem]
    types = set(map(type, values))
    try:
        if not types <= holds:
            raise TypeError
        if types != {own}:  # ints as floats, say
            converted = list(map(own, values))
            if int in types and any(x != v for x, v in zip(converted, values)
                                    if v.__class__ is int):
                raise TypeError  # an integer a float cannot hold exactly
            values = converted
        if per == 2:
            values = [x for v in values for x in (v.real, v.imag)]
        out = struct.pack(f"<4sBB{len(shape)}Q{len(values)}{code}",
                          MAGIC, KIND_CODES[elem], len(shape), *shape, *values)
    except (TypeError, OverflowError, struct.error):
        # values are as they came: a conversion that raises leaves them, and
        # only an int or char file's values, never converted, can be out of range
        for i, v in enumerate(values):  # the first value the file cannot hold
            try:
                if type(v) not in holds:
                    raise TypeError
                x = own(v)
                if x != v and v.__class__ is int:
                    raise TypeError
                struct.pack(f"<{per}{code}", *((x.real, x.imag) if per == 2 else (x,)))
            except (TypeError, OverflowError, struct.error):
                index = divmod(i, shape[1]) if len(shape) == 2 else (i,)
                raise FormatError(f"{name}{''.join(f'[{k}]' for k in index)} holds {v!r}, "
                                  f"which MSHD cannot write as {elem}") from None
        raise
    try:
        with open(path, "wb") as fh:
            fh.write(out)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def read_mshd(path):
    """Read an MSHD file; returns (elem, shape, values in row-major order)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if len(data) < 6 or data[:4] != MAGIC:
        raise FormatError(f"{path}: not an MSHD file")
    code, ndim = struct.unpack_from("<BB", data, 4)
    if code not in KIND_NAMES:
        raise FormatError(f"{path}: unknown element kind {code}")
    elem = KIND_NAMES[code]
    pos = 6 + 8 * ndim
    if pos > len(data):
        raise FormatError(f"{path}: truncated header")
    shape = struct.unpack_from(f"<{ndim}Q", data, 6)
    count = 1
    for d in shape:
        count *= d
    code, per, _, convert = CODECS[elem]
    element = struct.Struct(f"<{per}{code}")
    # sized arithmetically: a declared count can be too large for any format
    if len(data) != pos + count * element.size:
        raise FormatError(f"{path}: payload size mismatch")
    return elem, shape, [convert(*v) for v in element.iter_unpack(memoryview(data)[pos:])]
