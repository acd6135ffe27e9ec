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

# kind: (struct code of one number, numbers per element, the element's
#        value from any value or from its numbers)
CODECS = {
    "int": ("q", 1, int),
    "char": ("B", 1, lambda v: int(v) & 0xFF),
    "real": ("d", 1, float),
    "complex": ("d", 2, complex),
}


def write_mshd(path, elem: str, shape: tuple, values, name="values") -> None:
    """Write values (row-major order) as an MSHD file; a value that an
    `elem` file cannot hold is a FormatError naming it as an element of name."""
    count = 1
    for d in shape:
        count *= d
    values = list(values)
    if len(values) != count:
        raise FormatError(f"{len(values)} values for shape {shape}")
    code, per, convert = CODECS[elem]
    try:
        values = list(map(convert, values))
    except (TypeError, ValueError):
        for i, v in enumerate(values):
            try:
                convert(v)
            except (TypeError, ValueError):
                index = divmod(i, shape[1]) if len(shape) == 2 else (i,)
                raise FormatError(f"{name}{''.join(f'[{k}]' for k in index)} holds {v!r}, "
                                  f"which MSHD cannot write as {elem}") from None
    if per == 2:
        values = [x for v in values for x in (v.real, v.imag)]
    out = struct.pack(f"<4sBB{len(shape)}Q{len(values)}{code}",
                      MAGIC, KIND_CODES[elem], len(shape), *shape, *values)
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
    code, per, convert = CODECS[elem]
    element = struct.Struct(f"<{per}{code}")
    # sized arithmetically: a declared count can be too large for any format
    if len(data) != pos + count * element.size:
        raise FormatError(f"{path}: payload size mismatch")
    return elem, shape, [convert(*v) for v in element.iter_unpack(memoryview(data)[pos:])]
