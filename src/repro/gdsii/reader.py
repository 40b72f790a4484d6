"""GDSII stream reader.

A malformed stream raises :class:`~repro.gdsii.records.GdsFormatError`
and nothing else.  An element that lacks a required record, holds the
wrong number of values in one, or carries a non-ASCII name or string
is reported with the element, its structure and the record.
"""

from __future__ import annotations

from typing import BinaryIO, Callable, Dict, Optional, Union

from . import records as rec
from .model import ARef, Boundary, GdsLibrary, GdsStructure, Path, SRef, Text
from .records import GdsFormatError


def _decode(where: str, rtype: int, unpack: Callable, payload: bytes):
    """``unpack(payload)``; a malformed payload is reported with
    ``where`` and the record's name."""
    try:
        return unpack(payload)
    except GdsFormatError as exc:
        raise GdsFormatError(
            f"{where}: {rec.RECORD_NAMES[rtype]}: {exc}") from None


class _Element:
    """The records of one element, keyed by type, read with errors
    that name the element and the record."""

    def __init__(self, where: str, fields: Dict[int, bytes]):
        self.where = where
        self.fields = fields

    def __contains__(self, rtype: int) -> bool:
        return rtype in self.fields

    def decode(self, rtype: int, unpack: Callable,
               count: Optional[int] = None):
        """The record's payload through ``unpack``: a list of exactly
        ``count`` values unless ``count`` is None."""
        if rtype not in self.fields:
            raise GdsFormatError(
                f"{self.where} has no {rec.RECORD_NAMES[rtype]} record")
        values = _decode(self.where, rtype, unpack, self.fields[rtype])
        if count is not None and len(values) != count:
            raise GdsFormatError(
                f"{self.where}: {rec.RECORD_NAMES[rtype]} holds "
                f"{len(values)} values, not {count}")
        return values

    def value(self, rtype: int, unpack: Callable, default=None):
        """The record's single value; ``default`` when the record is
        absent (a None default makes the record required)."""
        if default is not None and rtype not in self.fields:
            return default
        return self.decode(rtype, unpack, 1)[0]


class _Parser:
    """Single-pass recursive-descent parser over the record stream."""

    def __init__(self, data: bytes):
        self.records = list(rec.iter_records(data))
        self.pos = 0
        self.structure = ""

    def peek(self):
        if self.pos >= len(self.records):
            raise GdsFormatError("unexpected end of stream")
        return self.records[self.pos]

    def take(self, expected: Optional[int] = None):
        rtype, dtype, payload = self.peek()
        if expected is not None and rtype != expected:
            raise GdsFormatError(
                f"expected {rec.RECORD_NAMES.get(expected, expected)}, "
                f"got {rec.RECORD_NAMES.get(rtype, rtype)}")
        self.pos += 1
        return rtype, dtype, payload

    # ------------------------------------------------------------------
    def parse_library(self) -> GdsLibrary:
        _, _, payload = self.take(rec.HEADER)
        del payload  # version ignored
        self.take(rec.BGNLIB)
        _, _, name_payload = self.take(rec.LIBNAME)
        lib = GdsLibrary(name=_decode("library", rec.LIBNAME,
                                      rec.unpack_ascii, name_payload))
        _, _, units_payload = self.take(rec.UNITS)
        units = rec.unpack_real8(units_payload)
        if len(units) != 2:
            raise GdsFormatError("UNITS must hold two reals")
        lib.unit_user, lib.unit_meters = units

        while True:
            rtype, _, _ = self.peek()
            if rtype == rec.ENDLIB:
                self.take()
                return lib
            structure = self.parse_structure()
            if structure.name in lib.structures:
                raise GdsFormatError(
                    f"duplicate structure {structure.name!r}")
            lib.add(structure)

    def parse_structure(self) -> GdsStructure:
        self.take(rec.BGNSTR)
        _, _, payload = self.take(rec.STRNAME)
        structure = GdsStructure(name=_decode("structure", rec.STRNAME,
                                              rec.unpack_ascii, payload))
        self.structure = structure.name
        while True:
            rtype, _, _ = self.peek()
            if rtype == rec.ENDSTR:
                self.take()
                return structure
            if rtype == rec.BOUNDARY:
                structure.boundaries.append(self.parse_boundary())
            elif rtype == rec.PATH:
                structure.paths.append(self.parse_path())
            elif rtype == rec.SREF:
                structure.srefs.append(self.parse_sref())
            elif rtype == rec.AREF:
                structure.arefs.append(self.parse_aref())
            elif rtype == rec.TEXT:
                structure.texts.append(self.parse_text())
            else:
                # Unknown element: skip to its ENDEL for forward compat.
                self._skip_element()

    def _skip_element(self) -> None:
        while True:
            rtype, _, _ = self.take()
            if rtype == rec.ENDEL:
                return

    def _element(self, kind: int) -> _Element:
        """Take one element of record type ``kind`` through its ENDEL;
        its records keyed by type."""
        self.take(kind)
        fields = {}
        while True:
            rtype, _dtype, payload = self.take()
            if rtype == rec.ENDEL:
                return _Element(f"{rec.RECORD_NAMES[kind]} in structure "
                                f"{self.structure!r}", fields)
            fields[rtype] = payload

    def parse_boundary(self) -> Boundary:
        f = self._element(rec.BOUNDARY)
        return Boundary(
            layer=f.value(rec.LAYER, rec.unpack_int16),
            datatype=f.value(rec.DATATYPE, rec.unpack_int16, 0),
            points=f.decode(rec.XY, rec.unpack_xy),
        )

    def parse_path(self) -> Path:
        f = self._element(rec.PATH)
        return Path(
            layer=f.value(rec.LAYER, rec.unpack_int16),
            datatype=f.value(rec.DATATYPE, rec.unpack_int16, 0),
            width=f.value(rec.WIDTH, rec.unpack_int32, 0),
            pathtype=f.value(rec.PATHTYPE, rec.unpack_int16, 0),
            points=f.decode(rec.XY, rec.unpack_xy),
        )

    def _strans_fields(self, f: _Element):
        reflect_x = False
        if rec.STRANS in f:
            bits = int.from_bytes(f.fields[rec.STRANS], "big")
            reflect_x = bool(bits & 0x8000)
        mag = f.value(rec.MAG, rec.unpack_real8, 1.0)
        angle = f.value(rec.ANGLE, rec.unpack_real8, 0.0)
        return reflect_x, mag, angle

    def parse_sref(self) -> SRef:
        f = self._element(rec.SREF)
        reflect_x, mag, angle = self._strans_fields(f)
        return SRef(sname=f.decode(rec.SNAME, rec.unpack_ascii),
                    origin=f.value(rec.XY, rec.unpack_xy),
                    reflect_x=reflect_x, mag=mag, angle=angle)

    def parse_aref(self) -> ARef:
        f = self._element(rec.AREF)
        reflect_x, mag, angle = self._strans_fields(f)
        cols, rows = f.decode(rec.COLROW, rec.unpack_int16, 2)
        if cols < 1 or rows < 1:
            raise GdsFormatError(f"{f.where}: COLROW {cols}x{rows} has "
                                 "no placement")
        origin, col_corner, row_corner = f.decode(rec.XY, rec.unpack_xy, 3)
        col_step = ((col_corner[0] - origin[0]) // cols,
                    (col_corner[1] - origin[1]) // cols)
        row_step = ((row_corner[0] - origin[0]) // rows,
                    (row_corner[1] - origin[1]) // rows)
        return ARef(sname=f.decode(rec.SNAME, rec.unpack_ascii),
                    cols=cols, rows=rows, origin=origin,
                    col_step=col_step, row_step=row_step,
                    reflect_x=reflect_x, mag=mag, angle=angle)

    def parse_text(self) -> Text:
        f = self._element(rec.TEXT)
        return Text(layer=f.value(rec.LAYER, rec.unpack_int16),
                    texttype=f.value(rec.TEXTTYPE, rec.unpack_int16, 0),
                    origin=f.value(rec.XY, rec.unpack_xy),
                    string=f.decode(rec.STRING, rec.unpack_ascii))


def loads(data: bytes) -> GdsLibrary:
    """Parse GDSII stream bytes into a library."""
    return _Parser(data).parse_library()


def read_gds(source: Union[str, BinaryIO]) -> GdsLibrary:
    """Read a library from a path or binary stream."""
    if isinstance(source, (str, bytes)):
        with open(source, "rb") as f:
            data = f.read()
    else:
        data = source.read()
    return loads(data)
