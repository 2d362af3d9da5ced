"""Feature matrices, CSV ingestion of externally computed features, and the
softmax/cross-entropy kernel shared by every classifier head."""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class FeatureMatrix:
    rows: np.ndarray  # (N, d) float64, finite: each producer makes them so
    labels: list      # N class identifiers, one per row

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis; the input is not checked."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, y_idx):
    """Mean cross-entropy of integer targets. Returns (loss, dlogits), where
    dlogits is the loss gradient with respect to the logits."""
    n = logits.shape[0]
    dlogits = softmax(logits)
    loss = float(-np.log(dlogits[np.arange(n), y_idx] + 1e-300).mean())
    dlogits[np.arange(n), y_idx] -= 1.0
    dlogits /= n
    return loss, dlogits


def ingest_features(path) -> FeatureMatrix:
    """Parse a feature CSV with header `label,f0,..,f{d-1}`; a label may be
    quoted as the csv module quotes it."""
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            lines = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: unreadable CSV: {exc}") from exc
    if not lines:
        raise InputError(f"{path}: empty file")
    header = lines[0][1]
    if header[0] != "label" or len(header) < 2:
        raise InputError(f"{path}: header must be 'label,f0,..'")
    d = len(header) - 1
    if not lines[1:]:
        raise InputError(f"{path}: no rows")
    labels, rows = [], []
    for lineno, parts in lines[1:]:
        if len(parts) != d + 1:
            raise InputError(f"{path}:{lineno}: expected {d + 1} fields, got {len(parts)}")
        labels.append(parts[0])
        try:
            row = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: non-numeric cell") from exc
        if not np.isfinite(row).all():
            raise InputError(f"{path}:{lineno}: non-finite cell")
        rows.append(row)
    return FeatureMatrix(rows=np.array(rows), labels=labels)


def _csv_cell(text: str) -> str:
    """`text` as csv reads it back: quoted, quotes doubled, if it holds a comma, a
    quote or a line break (csv.writer misses a bare \r under "\n" line ends)."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def write_features(fm: FeatureMatrix, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(["label"] + [f"f{i}" for i in range(fm.dim)]) + "\n")
        f.writelines(",".join([_csv_cell(str(label))] + [repr(float(v)) for v in row]) + "\n"
                     for label, row in zip(fm.labels, fm.rows))
