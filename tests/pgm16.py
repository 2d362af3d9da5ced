"""16-bit binary PGM files, as other tools write them: the program reads
them but writes 8-bit files only."""

import numpy as np


def write_pgm16(path, image) -> None:
    """Write a [0,1] float array as a P5 PGM with maxval 65535 (big-endian)."""
    img = np.asarray(image, dtype=np.float64)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header + np.rint(img * 65535).astype(">u2").tobytes())
