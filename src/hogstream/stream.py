"""Pixel-vector stream model: frame packing, flag discipline, 3x3 context recovery.

A frame enters the pipeline as a raster-order sequence of packets, each
carrying X pixels (X in {1,2,4,8}), a start-of-frame flag on exactly the first
packet and an end-of-line flag on the last packet of every row. The context
stage rebuilds the 3x3 neighborhood of every pixel using two full row buffers,
replicating edge pixels outward. The model is functional: emission order and
values are exact, cycle timing is not modeled.

Both stages work a row at a time in plain Python ints: pack_frame converts
each pixel row once, and context_stream holds each buffered row as the
(left, centre, right) triples of its pixels, built once when the row
completes, so a row's contexts are one zip of the three rows' triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

VALID_PPC = (1, 2, 4, 8)
CELL = 8


class GeometryError(ValueError):
    """Frame or grid dimensions violate a precondition."""


class StreamProtocolError(ValueError):
    """Packet flags or sizes violate the stream framing rules."""


@dataclass(frozen=True)
class Frame:
    """Row-major 8-bit grayscale frame; both dimensions multiples of 8."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.width % CELL or self.height % CELL or self.width <= 0 or self.height <= 0:
            raise GeometryError(
                f"frame dimensions must be positive multiples of {CELL}, "
                f"got {self.width}x{self.height}"
            )
        px = self.pixels
        if px.shape != (self.height, self.width):
            raise GeometryError(f"pixel array shape {px.shape} does not match "
                                f"{self.height}x{self.width}")
        if px.dtype != np.uint8:
            raise GeometryError(f"pixels must be uint8, got {px.dtype}")

    @classmethod
    def from_array(cls, pixels: np.ndarray) -> "Frame":
        """Frame from a 2-D array of intensities.

        A uint8 array is taken as is. Any other array must hold only integral
        real values in 0..255, checked before the cast, so no value wraps.
        """
        px = np.asarray(pixels)
        if px.ndim != 2:
            raise GeometryError(f"pixels must be a 2-D array, got shape {px.shape}")
        if px.dtype != np.uint8 and not (
                px.dtype.kind in "biuf"
                and np.all((px >= 0) & (px <= 255) & (px == np.floor(px)))):
            raise ValueError(f"{px.dtype} pixels must be integers in 0..255")
        px = np.ascontiguousarray(px, dtype=np.uint8)
        h, w = px.shape
        return cls(width=w, height=h, pixels=px)


@dataclass(frozen=True)
class StreamPacket:
    """X pixel intensities plus framing flags."""

    pixels: tuple[int, ...]
    sof: bool = False
    eol: bool = False


def pack_frame(frame: Frame, ppc: int) -> Iterator[StreamPacket]:
    """Serialize a frame into raster-order packets of ``ppc`` pixels.

    sof is set on exactly the first packet, eol on the last packet of every
    row. For an 8-wide frame at ppc=8 the single row packet carries both.
    """
    if ppc not in VALID_PPC:
        raise GeometryError(f"ppc must be one of {VALID_PPC}, got {ppc}")
    if frame.width % ppc:
        raise GeometryError(f"ppc {ppc} does not divide width {frame.width}")
    last = frame.width - ppc
    for y in range(frame.height):
        row = frame.pixels[y].tolist()
        for x0 in range(0, frame.width, ppc):
            yield StreamPacket(
                pixels=tuple(row[x0 : x0 + ppc]),
                sof=(y == 0 and x0 == 0),
                eol=(x0 == last),
            )


def _triples(row: list[int]) -> list[tuple[int, int, int]]:
    """(left, centre, right) of every pixel of a row, edge pixels replicated."""
    padded = [row[0], *row, row[-1]]
    return list(zip(padded, padded[1:], padded[2:]))


def context_stream(packets: Iterable[StreamPacket],
                   width: int) -> Iterator[tuple[tuple[tuple[int, ...], ...], ...]]:
    """Recover the 3x3 neighborhood of every pixel, emitted in raster order:
    per input packet position, a tuple with one context per lane, each three
    rows top-to-bottom of three pixels left-to-right.

    Functional model of the two-row delay buffer: a row's contexts are emitted
    once the row below it has arrived; border pixels replicate the nearest
    edge pixel. The full frame's contexts always come out, after an internal
    delay of one row. Pixels must be Python ints in 0..255, the range the
    gradient stage is defined on; each row is checked as it completes, and
    a row with any other pixel raises StreamProtocolError.
    """
    if width <= 0:
        raise GeometryError(f"width must be positive, got {width}")
    ppc = None
    per_row = None
    cur: list[int] = []   # row being assembled
    done_rows = 0
    packet_in_row = 0
    # the two buffered rows, each held as its pixels' (left, centre, right)
    # triples, built once per row and shared by the three rows' contexts
    prev: list[tuple[int, int, int]] | None = None     # row y-1
    pending: list[tuple[int, int, int]] | None = None  # row y, waiting for row y+1

    def emit_row(above, row, below):
        contexts = tuple(zip(above, row, below))
        for x0 in range(0, width, ppc):
            yield contexts[x0 : x0 + ppc]

    first = True
    for pkt in packets:
        if ppc is None:
            ppc = len(pkt.pixels)
            if ppc not in VALID_PPC:
                raise StreamProtocolError(f"packet width {ppc} not in {VALID_PPC}")
            if width % ppc:
                raise GeometryError(f"ppc {ppc} does not divide width {width}")
            per_row = width // ppc
        elif len(pkt.pixels) != ppc:
            raise StreamProtocolError("packet width changed mid-stream")
        if pkt.sof != first:
            raise StreamProtocolError("sof flag out of place")
        first = False
        packet_in_row += 1
        expect_eol = packet_in_row == per_row
        if pkt.eol != expect_eol:
            raise StreamProtocolError(
                f"eol flag wrong at packet {packet_in_row} of row {done_rows}"
            )
        cur.extend(pkt.pixels)
        if pkt.eol:
            if set(map(type, cur)) != {int} or min(cur) < 0 or max(cur) > 255:
                raise StreamProtocolError(f"row {done_rows} holds a pixel that is not "
                                          "an int in 0..255")
            below = _triples(cur)
            if pending is not None:
                yield from emit_row(prev if prev is not None else pending, pending, below)
                prev = pending
            pending = below
            cur = []
            done_rows += 1
            packet_in_row = 0
    if first:
        raise StreamProtocolError("empty stream")
    if packet_in_row:
        raise StreamProtocolError("stream ended mid-row (missing eol)")
    # bottom row: the row below replicates the row itself
    yield from emit_row(prev if prev is not None else pending, pending, pending)
