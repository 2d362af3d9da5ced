"""Checkpoint format: one JSON header line, then raw little-endian float64 blocks.

The header carries `meta` (caller-defined) and `blocks`, an ordered list of
[name, shape] entries matching the binary payload.
"""

import json
import math
import os

import numpy as np

from .errors import InputError


def save_blocks(path, meta: dict, arrays: dict) -> None:
    header = {
        "meta": meta,
        "blocks": [[name, list(arr.shape)] for name, arr in arrays.items()],
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_blocks(path):
    if not os.path.isfile(path):
        raise InputError(f"checkpoint not found: {path}")
    with open(path, "rb") as f:
        line = f.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"{path}: bad checkpoint header") from exc
        if not (type(header) is dict and type(header.get("meta")) is dict
                and type(header.get("blocks")) is list):
            raise InputError(f"{path}: checkpoint header must be an object with a 'meta' "
                             f"object and a 'blocks' list")
        size = os.fstat(f.fileno()).st_size
        arrays = {}
        for entry in header["blocks"]:
            if not (type(entry) is list and len(entry) == 2 and type(entry[0]) is str
                    and type(entry[1]) is list
                    and all(type(n) is int and n >= 0 for n in entry[1])):
                raise InputError(f"{path}: bad block entry {entry!r}: expected [name, shape], "
                                 f"a string and a list of integers >= 0")
            name, shape = entry
            count = math.prod(shape)
            if f.tell() + count * 8 > size:
                raise InputError(f"{path}: truncated block {name!r}")
            arrays[name] = np.frombuffer(f.read(count * 8), dtype="<f8").reshape(shape).copy()
        if f.read(1):
            raise InputError(f"{path}: trailing bytes after last block")
    return header["meta"], arrays
