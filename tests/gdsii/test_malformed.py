"""Malformed GDSII streams: a typed error, never a bare one.

``read_gds`` / ``loads`` on a corrupted stream either return a library
or raise :class:`GdsFormatError`.  An element that lacks a required
record, or whose record holds the wrong number of values, is reported
with the element, its structure and the record; so is a structure
defined twice.
"""

import random

import pytest

from repro.bench import build_design
from repro.gdsii import (
    GdsFormatError,
    GdsLibrary,
    GdsStructure,
    dumps,
    layout_to_gds,
    loads,
)
from repro.gdsii import records as rec

# Seeded corruptions of D1's stream the reader is handed.
CORRUPTIONS = 3000


def corrupt(data: bytes, seed: int) -> bytes:
    """One seeded corruption of ``data``: a truncation, a flipped byte
    or 1-8 deleted bytes."""
    rng = random.Random(seed)
    op = rng.randrange(3)
    pos = rng.randrange(len(data))
    if op == 0:
        return data[:pos]
    if op == 1:
        flipped = data[pos] ^ rng.randrange(1, 256)
        return data[:pos] + bytes([flipped]) + data[pos + 1:]
    return data[:pos] + data[pos + rng.randrange(1, 9):]


def test_corrupted_streams_raise_only_format_errors():
    data = dumps(layout_to_gds(build_design("D1")))
    parsed = 0
    for seed in range(CORRUPTIONS):
        try:
            loads(corrupt(data, seed))
        except GdsFormatError:
            continue
        except Exception as exc:
            pytest.fail(f"corruption seed {seed}: {type(exc).__name__}: "
                        f"{exc}")
        parsed += 1
    # Some corruptions land in coordinates and still parse; most not.
    assert 0 < parsed < CORRUPTIONS


def one_element(kind: int, records) -> bytes:
    """A library whose structure ``TOP`` holds one element of record
    type ``kind`` made of ``records``."""
    lib = GdsLibrary(name="LIB")
    lib.add(GdsStructure(name="TOP"))
    data = dumps(lib)
    tail = rec.pack_record(rec.ENDSTR, rec.DT_NONE) \
        + rec.pack_record(rec.ENDLIB, rec.DT_NONE)
    assert data.endswith(tail)
    element = rec.pack_record(kind, rec.DT_NONE) + b"".join(records) \
        + rec.pack_record(rec.ENDEL, rec.DT_NONE)
    return data[:-len(tail)] + element + tail


LAYER = rec.pack_int16(rec.LAYER, [1])
SNAME = rec.pack_ascii(rec.SNAME, "CELL")
STRING = rec.pack_ascii(rec.STRING, "hello")
COLROW = rec.pack_int16(rec.COLROW, [2, 3])
SQUARE = rec.pack_int32(rec.XY, [0, 0, 10, 0, 10, 10, 0, 10, 0, 0])
ORIGIN = rec.pack_int32(rec.XY, [5, 5])
LATTICE = rec.pack_int32(rec.XY, [0, 0, 20, 0, 0, 30])

# Each element's required records, by record type.
ELEMENTS = {
    rec.BOUNDARY: {rec.LAYER: LAYER, rec.XY: SQUARE},
    rec.PATH: {rec.LAYER: LAYER, rec.XY: SQUARE},
    rec.SREF: {rec.SNAME: SNAME, rec.XY: ORIGIN},
    rec.AREF: {rec.SNAME: SNAME, rec.COLROW: COLROW, rec.XY: LATTICE},
    rec.TEXT: {rec.LAYER: LAYER, rec.XY: ORIGIN, rec.STRING: STRING},
}
REQUIRED = [(kind, rtype) for kind, fields in ELEMENTS.items()
            for rtype in fields]


@pytest.mark.parametrize("kind", sorted(ELEMENTS),
                         ids=lambda k: rec.RECORD_NAMES[k])
def test_complete_elements_parse(kind):
    lib = loads(one_element(kind, ELEMENTS[kind].values()))
    assert lib.structures["TOP"]


@pytest.mark.parametrize(
    "kind,rtype", REQUIRED,
    ids=[f"{rec.RECORD_NAMES[k]}-{rec.RECORD_NAMES[r]}"
         for k, r in REQUIRED])
def test_missing_required_record(kind, rtype):
    records = [payload for r, payload in ELEMENTS[kind].items()
               if r != rtype]
    element, record = rec.RECORD_NAMES[kind], rec.RECORD_NAMES[rtype]
    with pytest.raises(GdsFormatError,
                       match=f"^{element} in structure 'TOP' has no "
                             f"{record} record$"):
        loads(one_element(kind, records))


def test_aref_with_zero_columns():
    records = [SNAME, rec.pack_int16(rec.COLROW, [0, 3]), LATTICE]
    with pytest.raises(GdsFormatError,
                       match="AREF in structure 'TOP': COLROW 0x3"):
        loads(one_element(rec.AREF, records))


def test_sref_with_two_origins():
    records = [SNAME, rec.pack_int32(rec.XY, [0, 0, 5, 5])]
    with pytest.raises(GdsFormatError,
                       match="SREF in structure 'TOP': XY holds 2 "
                             "values, not 1"):
        loads(one_element(rec.SREF, records))


def test_non_ascii_reference_name():
    records = [rec.pack_record(rec.SNAME, rec.DT_ASCII, b"C\xe5"), ORIGIN]
    with pytest.raises(GdsFormatError,
                       match="SREF in structure 'TOP': SNAME: non-ASCII"):
        loads(one_element(rec.SREF, records))


def test_duplicate_structure():
    lib = GdsLibrary(name="LIB")
    empty = dumps(lib)
    lib.add(GdsStructure(name="TOP"))
    data = dumps(lib)
    # Both streams end in the 4-byte ENDLIB; TOP's records sit before it.
    structure = data[len(empty) - 4:-4]
    with pytest.raises(GdsFormatError, match="duplicate structure 'TOP'"):
        loads(data[:-4] + structure + data[-4:])
