import math
import struct

import pytest

from meshlite.errors import FormatError, IoError, NotPowerOfTwo
from meshlite.fixtures import generate_image
from meshlite.mshd import read_mshd, write_mshd


def test_complex_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "m.dat"
    values = [complex(i * 0.1, -i) for i in range(16)]
    write_mshd(path, "complex", (4, 4), values)
    elem, shape, back = read_mshd(path)
    assert elem == "complex"
    assert shape == (4, 4)
    assert back == values
    write_mshd(tmp_path / "m2.dat", "complex", (4, 4), back)
    assert (tmp_path / "m.dat").read_bytes() == (tmp_path / "m2.dat").read_bytes()


@pytest.mark.parametrize("elem,values", [
    ("int", [5, -3, 2**40, 0]),
    ("real", [0.5, -1.25, 3e8, 0.0]),
    ("char", [0, 127, 255, 10]),
])
def test_other_element_kinds_round_trip(tmp_path, elem, values):
    path = tmp_path / "m.dat"
    write_mshd(path, elem, (4,), values)
    got_elem, shape, back = read_mshd(path)
    assert got_elem == elem and shape == (4,) and back == values


def test_header_layout(tmp_path):
    path = tmp_path / "header.dat"
    write_mshd(path, "complex", (2, 3), [0j] * 6)
    data = path.read_bytes()
    assert data[:4] == b"MSHD"
    assert data[4] == 3  # complex code
    assert data[5] == 2  # two dimensions
    assert struct.unpack_from("<QQ", data, 6) == (2, 3)
    assert len(data) == 4 + 1 + 1 + 16 + 6 * 16


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(FormatError):
        read_mshd(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short.dat"
    write_mshd(path, "complex", (2, 2), [0j] * 4)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError):
        read_mshd(path)


@pytest.mark.parametrize("header", [
    b"MSHD\x03\x02" + bytes(8),  # two extents declared, one present
    b"MSHD\x03\x02" + struct.pack("<QQ", 2**62, 2**62) + bytes(16),  # count too large to pack
    b"MSHD\x07\x00",  # unknown element kind
])
def test_malformed_header_rejected(tmp_path, header):
    path = tmp_path / "bad.dat"
    path.write_bytes(header)
    with pytest.raises(FormatError):
        read_mshd(path)


def packed_element_by_element(elem, shape, values):
    """MSHD bytes packed one element at a time: the reference for the codec."""
    out = b"MSHD" + struct.pack("<BB", ("int", "char", "real", "complex").index(elem), len(shape))
    out += b"".join(struct.pack("<Q", d) for d in shape)
    for v in values:
        if elem == "complex":
            out += struct.pack("<dd", complex(v).real, complex(v).imag)
        elif elem == "real":
            out += struct.pack("<d", float(v))
        elif elem == "int":
            out += struct.pack("<q", int(v))
        else:
            out += struct.pack("<B", int(v) & 0xFF)
    return out


@pytest.mark.parametrize("elem,values", [
    ("complex", [complex(-0.0, 0.0), complex(math.inf, -math.inf), 3, 2.5, 1e-310 - 7j]),
    ("real", [-0.0, math.inf, 7, 1e-310, 2.5]),
    ("int", [-(2**63), 2**63 - 1, 2.9, -2.9, 0]),
    ("char", [0, 255, 256, -1, 65.7]),
])
def test_codec_matches_element_by_element_packing(tmp_path, elem, values):
    path = tmp_path / "m.dat"
    write_mshd(path, elem, (5,), values)
    assert path.read_bytes() == packed_element_by_element(elem, (5,), values)
    _, _, back = read_mshd(path)
    assert packed_element_by_element(elem, (5,), back) == path.read_bytes()


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        read_mshd(tmp_path / "nothing.dat")


def test_value_count_must_match_shape(tmp_path):
    with pytest.raises(FormatError):
        write_mshd(tmp_path / "m.dat", "int", (4,), [1, 2, 3])


# --- image generator ---


def test_generate_image_is_deterministic(tmp_path):
    generate_image(4, 1, tmp_path / "a.dat")
    generate_image(4, 1, tmp_path / "b.dat")
    generate_image(4, 2, tmp_path / "c.dat")
    assert (tmp_path / "a.dat").read_bytes() == (tmp_path / "b.dat").read_bytes()
    assert (tmp_path / "a.dat").read_bytes() != (tmp_path / "c.dat").read_bytes()


def test_generate_image_payload_size(tmp_path):
    generate_image(16, 7, tmp_path / "img.dat")
    data = (tmp_path / "img.dat").read_bytes()
    header = 4 + 1 + 1 + 2 * 8
    assert len(data) - header == 16 * 16 * 16


def test_generate_image_requires_power_of_two(tmp_path):
    with pytest.raises(NotPowerOfTwo):
        generate_image(3, 1, tmp_path / "img.dat")
