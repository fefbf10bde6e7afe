"""Binary PGM (P5) and PPM (P6) ingestion with exact integer luma.

Only maxval 255 is supported. Header comments (# to end of line) are allowed
anywhere between tokens. Color input collapses to grayscale with the integer
luma (77*R + 150*G + 29*B) >> 8; the weights sum to 256, so white maps to 255.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .stream import Frame


class PnmError(ValueError):
    """Malformed or unsupported PGM/PPM input."""


def _header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First `count` whitespace-separated header tokens, skipping comments.

    Returns the tokens and the offset one byte past the single whitespace
    that terminates the last token (the binary payload starts there).
    """
    tokens: list[bytes] = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i] != ord("#"):
            i += 1
        if start == i:
            raise PnmError("truncated header")
        tokens.append(data[start:i])
    if i >= n or not data[i : i + 1].isspace():
        raise PnmError("missing whitespace after maxval")
    return tokens, i + 1


# bytes read for the header; a longer one (long comments) is read from the whole file
_HEADER_BLOCK = 4096


def load_image(path: str | Path) -> Frame:
    """Load a P5/P6 file as a grayscale Frame (dimensions multiples of 8).

    The payload is read straight into the array that the frame or the luma
    reads, so a load holds one payload-sized buffer, not the file's bytes
    and a copy of them.
    """
    with open(path, "rb") as f:
        data = f.read(_HEADER_BLOCK)
        size = os.fstat(f.fileno()).st_size
    if len(data) < 2 or data[:1] != b"P" or data[1:2] not in (b"5", b"6"):
        raise PnmError(f"{path}: not a binary PGM (P5) or PPM (P6) file")
    try:
        tokens, offset = _header_tokens(data, 4)
    except PnmError:
        if len(data) == size:
            raise
        tokens, offset = _header_tokens(Path(path).read_bytes(), 4)
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise PnmError(f"{path}: unsupported magic {magic!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise PnmError(f"{path}: non-numeric header fields") from None
    if width <= 0 or height <= 0:
        raise PnmError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise PnmError(f"{path}: unsupported maxval {maxval} (only 255)")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    # the size is checked before the buffer is allocated, and the bytes read
    # after, in case the file shrank in between
    have = size - offset
    if have >= need:
        px = np.fromfile(path, dtype=np.uint8, count=need, offset=offset)
        have = px.size
    if have < need:
        raise PnmError(f"{path}: truncated pixel data ({have} of {need} bytes)")
    if channels == 1:
        return Frame.from_array(px.reshape(height, width))
    rgb = px.reshape(height, width, 3)
    # uint16 is exact: the weights sum to 256, so a sum is at most 256 * 255 < 2**16
    y = np.multiply(rgb[:, :, 0], 77, dtype=np.uint16)
    y += np.multiply(rgb[:, :, 1], 150, dtype=np.uint16)
    y += np.multiply(rgb[:, :, 2], 29, dtype=np.uint16)
    return Frame.from_array((y >> 8).astype(np.uint8))
