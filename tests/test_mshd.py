import math
import re
import struct

import pytest

from meshlite.errors import FormatError, IoError, NotPowerOfTwo
from meshlite.fixtures import generate_image
from meshlite.mshd import CODECS, read_mshd, write_mshd


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
    ("int", [-(2**63), 2**63 - 1, 2, -3, 0]),
    ("char", [0, 255, 7, 128, 65]),
])
def test_codec_matches_element_by_element_packing(tmp_path, elem, values):
    path = tmp_path / "m.dat"
    write_mshd(path, elem, (5,), values)
    assert path.read_bytes() == packed_element_by_element(elem, (5,), values)
    _, _, back = read_mshd(path)
    assert packed_element_by_element(elem, (5,), back) == path.read_bytes()


@pytest.mark.parametrize("elem, values, where", [
    ("int", [1, 2, "5", 4], "X[2] holds '5'"),
    ("int", [1, 2.75, 3, 4], "X[1] holds 2.75"),
    ("int", [1, 2, 3, 2j], "X[3] holds 2j"),
    ("char", [65, 66.0, 67, 68], "X[1] holds 66.0"),
    ("char", ["A", 66, 67, 68], "X[0] holds 'A'"),
    ("real", [1.5, 2, 3j, 4.0], "X[2] holds 3j"),
    ("real", [1.5, 2, 3.0, "4"], "X[3] holds '4'"),
    ("complex", [1j, 2, 3.0, "x"], "X[3] holds 'x'"),
    ("int", [1, 2**63, 3, 4], f"X[1] holds {2**63}"),
    ("int", [1, 2, -(2**63) - 1, 4], f"X[2] holds {-(2**63) - 1}"),
    ("char", [1, 2, 3, 256], "X[3] holds 256"),
    ("char", [-1, 2, 3, 4], "X[0] holds -1"),
    ("real", [1.5, 10**400, 3, 4], f"X[1] holds {10**400}"),
    ("complex", [1j, 2, 10**400, 4], f"X[2] holds {10**400}"),
    ("real", [1.5, 2, 2**53 + 1, 4], f"X[2] holds {2**53 + 1}"),
    ("complex", [1j, 2, 3.0, -(2**53) - 1], f"X[3] holds {-(2**53) - 1}"),
])
def test_a_value_the_file_cannot_hold_is_refused(tmp_path, elem, values, where):
    """No value is converted into one of another type or wrapped into the
    kind's range: a string, a float or a complex as int or char, a complex
    as real, an integer the kind cannot hold, an integer as real or complex
    that a float cannot hold exactly; nothing is written."""
    path = tmp_path / "m.dat"
    with pytest.raises(FormatError, match=re.escape(f"{where}, which MSHD cannot write as {elem}")):
        write_mshd(path, elem, (4,), values, "X")
    assert not path.exists()


def test_a_refused_value_of_a_2d_array_is_named_by_row_and_column(tmp_path):
    with pytest.raises(FormatError, match=re.escape("X[1][0] holds 0.5, which MSHD cannot")):
        write_mshd(tmp_path / "m.dat", "int", (2, 2), [1, 2, 0.5, 4], "X")


def test_values_of_the_files_own_type_are_written_unconverted(tmp_path):
    """Ints in a real file and ints or floats in a complex one are
    converted; values of the file's own type are packed as they are."""
    for elem, values in (("real", [1, 2.5]), ("complex", [1, 2.5, 3j]), ("int", [7]),
                         ("real", [0.5, -0.0]), ("complex", [1j, -0j])):
        write_mshd(tmp_path / "m.dat", elem, (len(values),), values)
        _, _, back = read_mshd(tmp_path / "m.dat")
        assert [repr(v) for v in back] == [repr(CODECS[elem][3](v)) for v in values]


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
