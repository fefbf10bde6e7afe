"""Packet framing and 3x3 context recovery."""

import numpy as np
import pytest

from hogstream.stream import (
    VALID_PPC,
    Frame,
    GeometryError,
    StreamPacket,
    StreamProtocolError,
    context_stream,
    pack_frame,
)
from reference import unpack


def random_frame(rng, w, h):
    return Frame.from_array(rng.integers(0, 256, size=(h, w), dtype=np.uint8))


def test_frame_validation():
    with pytest.raises(GeometryError):
        Frame.from_array(np.zeros((8, 9), dtype=np.uint8))
    with pytest.raises(GeometryError):
        Frame.from_array(np.zeros((7, 8), dtype=np.uint8))
    with pytest.raises(GeometryError):
        Frame(width=8, height=8, pixels=np.zeros((8, 8), dtype=np.int32))
    Frame.from_array(np.zeros((8, 8), dtype=np.uint8))


def test_from_array_rejects_values_uint8_cannot_hold():
    for bad in (300, -1, 256.7, 3.5, float("nan"), float("inf")):
        px = np.zeros((8, 8), dtype=np.int64 if isinstance(bad, int) else np.float64)
        px[2, 3] = bad
        with pytest.raises(ValueError):
            Frame.from_array(px)
    with pytest.raises(ValueError):
        Frame.from_array(np.zeros((8, 8), dtype=np.complex128))
    for shape in ((64,), (8, 8, 3)):
        with pytest.raises(GeometryError, match=r"2-D array, got shape"):
            Frame.from_array(np.zeros(shape, dtype=np.uint8))
    ok = np.arange(64).reshape(8, 8) * 4 - 1
    ok[0, 0] = 0
    for dtype in (np.int64, np.float32, np.uint16):
        f = Frame.from_array(ok.astype(dtype))
        assert f.pixels.dtype == np.uint8
        assert (f.pixels == ok).all()


def test_pack_flags_ppc8():
    f = Frame.from_array(np.arange(64, dtype=np.uint8).reshape(8, 8))
    pkts = list(pack_frame(f, 8))
    assert len(pkts) == 8
    assert pkts[0].sof and pkts[0].eol  # 8-wide row at ppc=8: one packet, both flags
    assert all(p.eol for p in pkts)
    assert sum(p.sof for p in pkts) == 1
    assert pkts[3].pixels == tuple(range(24, 32))


def test_pack_flags_ppc2():
    f = Frame.from_array(np.zeros((8, 8), dtype=np.uint8))
    pkts = list(pack_frame(f, 2))
    assert len(pkts) == 32
    assert [p.sof for p in pkts] == [True] + [False] * 31
    assert [i for i, p in enumerate(pkts) if p.eol] == [3, 7, 11, 15, 19, 23, 27, 31]


def test_pack_rejects_bad_ppc():
    f = Frame.from_array(np.zeros((8, 8), dtype=np.uint8))
    with pytest.raises(GeometryError):
        list(pack_frame(f, 3))


def test_pack_unpack_roundtrip_all_ppc():
    rng = np.random.default_rng(11)
    for w, h in [(8, 8), (16, 8), (40, 24), (64, 128)]:
        f = random_frame(rng, w, h)
        for ppc in VALID_PPC:
            g = unpack(pack_frame(f, ppc))
            assert g.width == f.width and g.height == f.height
            assert np.array_equal(g.pixels, f.pixels)


def test_unpack_protocol_errors():
    f = Frame.from_array(np.zeros((8, 8), dtype=np.uint8))
    pkts = list(pack_frame(f, 4))

    bad = [StreamPacket(p.pixels, sof=False, eol=p.eol) for p in pkts]
    with pytest.raises(StreamProtocolError):
        unpack(bad)  # missing sof

    bad = list(pkts)
    bad[5] = StreamPacket(bad[5].pixels, sof=True, eol=bad[5].eol)
    with pytest.raises(StreamProtocolError):
        unpack(bad)  # second sof

    with pytest.raises(StreamProtocolError):
        unpack(pkts[:-1])  # ends mid-row

    with pytest.raises(StreamProtocolError):
        unpack([])

    bad = pkts[:2] + [StreamPacket((0, 0), sof=False, eol=False)] + pkts[2:]
    with pytest.raises(StreamProtocolError):
        unpack(bad)  # width change mid-stream


def hand_packets(rows, ppc):
    """Raster packets for a plain list-of-lists image."""
    out = []
    width = len(rows[0])
    for y, row in enumerate(rows):
        for x0 in range(0, width, ppc):
            out.append(StreamPacket(
                pixels=tuple(row[x0:x0 + ppc]),
                sof=(y == 0 and x0 == 0),
                eol=(x0 + ppc == width),
            ))
    return out


def test_context_corner_replication():
    # 4x4 ramp; top-left context replicates row 0 and column 0 outward
    rows = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
    ctxs = list(context_stream(hand_packets(rows, 4), width=4))
    assert len(ctxs) == 4
    top_left = ctxs[0][0]
    assert top_left == ((0, 0, 1), (0, 0, 1), (4, 4, 5))
    bottom_right = ctxs[3][3]
    assert bottom_right == ((10, 11, 11), (14, 15, 15), (14, 15, 15))
    # interior pixel (1,1) sees its true neighborhood
    assert ctxs[1][1] == ((0, 1, 2), (4, 5, 6), (8, 9, 10))


def test_context_constant_frame():
    rows = [[9] * 8 for _ in range(3)]
    flat = [c for pkt in context_stream(hand_packets(rows, 8), width=8)
            for c in pkt]
    assert len(flat) == 24
    assert all(c == ((9,) * 3,) * 3 for c in flat)


def test_context_invariant_across_ppc():
    rng = np.random.default_rng(4)
    f = random_frame(rng, 24, 16)
    ref = None
    for ppc in VALID_PPC:
        flat = [c for pkt in context_stream(pack_frame(f, ppc), width=f.width)
                for c in pkt]
        if ref is None:
            ref = flat
        else:
            assert flat == ref


def test_context_packet_granularity():
    rng = np.random.default_rng(5)
    f = random_frame(rng, 16, 8)
    pkts = list(context_stream(pack_frame(f, 4), width=16))
    assert len(pkts) == (16 // 4) * 8
    assert all(isinstance(p, tuple) and len(p) == 4 for p in pkts)


def test_context_protocol_errors():
    rows = [[0] * 8 for _ in range(3)]
    good = hand_packets(rows, 4)

    bad = [StreamPacket(p.pixels, sof=p.sof, eol=not p.eol) for p in good]
    with pytest.raises(StreamProtocolError):
        list(context_stream(bad, width=8))

    with pytest.raises(StreamProtocolError):
        list(context_stream(good[:-1], width=8))  # mid-row end

    with pytest.raises(StreamProtocolError):
        list(context_stream([], width=8))

    with pytest.raises(GeometryError):
        list(context_stream(good, width=10))  # ppc does not divide width


def test_context_stream_admits_only_int_pixels_in_range():
    # numpy uint8 pixels would wrap in the gradient stage (a column of 200
    # would give magnitude 192, not 1023), out-of-range ints would leave the
    # gradient range the tangent constants were checked on, and floats would
    # crash deep in the stage
    px = np.zeros((8, 8), dtype=np.uint8)
    px[:, 0] = 200
    as_uint8 = [StreamPacket(tuple(px[y]), sof=y == 0, eol=True) for y in range(8)]
    with pytest.raises(StreamProtocolError, match="row 0 holds a pixel"):
        list(context_stream(as_uint8, width=8))
    for bad in (1.0, -5, 256):
        rows = [[0] * 8 for _ in range(8)]
        rows[3][5] = bad
        with pytest.raises(StreamProtocolError, match="row 3 holds a pixel"):
            list(context_stream(hand_packets(rows, 4), width=8))
    rows = [[0, 255] * 4 for _ in range(8)]
    assert len(list(context_stream(hand_packets(rows, 4), width=8))) == 16
