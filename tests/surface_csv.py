"""CSV helpers for the CLI tests: a reader and a reference surface writer."""

import csv

import numpy as np


def read_surface_csv(path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader if row]
    return header, rows


def reference_surface_csv(stream, axes, values: np.ndarray) -> int:
    """One ``csv.writer`` row per grid point, every float through ``repr``."""
    n = len(axes)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([f"u{k + 1}" for k in range(n)] + ["value"])
    for idx in np.ndindex(*values.shape):
        writer.writerow([repr(float(axes[k][idx[k]])) for k in range(n)]
                        + [repr(float(values[idx]))])
    return values.size
