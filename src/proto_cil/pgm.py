"""Minimal PGM (P2/P5) reader/writer.

Pixels are normalized to [0,1] on read by the file's max gray level. Files
are read at 8 bits (one byte per pixel) or 16 bits (two bytes big-endian, per
the netpbm convention) and written at 8 bits.
"""

import re

import numpy as np

from .errors import InputError


_COMMENT = re.compile(rb"#[^\r\n]*")  # a '#' comment runs to the next CR or LF


def _tokens(data: bytes):
    """Yield (end offset, token) for each whitespace-separated token, skipping
    '#' comments."""
    return ((m.end(), m.group()) for m in re.finditer(_COMMENT.pattern + rb"|[^\s#]+", data)
            if not m.group().startswith(b"#"))


def read_pgm(path) -> np.ndarray:
    """Read a P2 or P5 file into a float64 array with values in [0,1]."""
    with open(path, "rb") as f:
        data = f.read()
    toks = _tokens(data)
    _, magic = next(toks, (0, b""))
    if magic not in (b"P2", b"P5"):
        raise InputError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        (_, w_tok), (_, h_tok), (end, maxval_tok) = next(toks), next(toks), next(toks)
        width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except (StopIteration, ValueError) as exc:
        raise InputError(f"{path}: malformed PGM header") from exc
    if width <= 0 or height <= 0 or not (0 < maxval < 65536):
        raise InputError(f"{path}: bad PGM dimensions {width}x{height} maxval {maxval}")
    if magic == b"P2":
        rest = [t for _, t in toks]  # the raster, '#' comments skipped as in the header
        if len(rest) != width * height:
            raise InputError(f"{path}: expected {width * height} pixels, got {len(rest)}")
        bad = [t for t in rest if not t.isdigit()]
        if bad:
            raise InputError(f"{path}: sample {bad[0].decode(errors='replace')!r} "
                             f"is not a non-negative integer")
        pixels = np.array([int(t) for t in rest], dtype=np.float64)
    else:
        # one whitespace byte, after any comment right after maxval, ends the header
        if comment := _COMMENT.match(data, end):
            end = comment.end()
        start = end + 1
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
        count = width * height
        raster = data[start : start + count * dtype.itemsize]
        if len(raster) != count * dtype.itemsize:
            raise InputError(f"{path}: truncated raster")
        pixels = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    if pixels.max(initial=0) > maxval:
        raise InputError(f"{path}: pixel value exceeds maxval {maxval}")
    return (pixels / maxval).reshape(height, width)


def write_pgm(path, image: np.ndarray) -> None:
    """Write a [0,1] float array as an 8-bit binary (P5) PGM."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise InputError("image must be 2-D")
    if not np.isfinite(img).all() or img.min() < 0 or img.max() > 1:
        raise InputError("image values must be finite and in [0,1]")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.rint(img * 255).astype(np.uint8).tobytes())
