"""Seeded LIBSVM fixture for the CLI workload.

The file is written by the benchmark's own generator, not by
``mblbfgs.make_synthetic``, so the CLI workload's input does not move when
the package's generator changes.
"""
from __future__ import annotations

import os

import numpy as np

_CHUNK = 5000


def write_libsvm(path, n: int, d: int, nnz: int, seed: int,
                 flip_prob: float = 0.05) -> int:
    """Write ``n`` rows of ``nnz`` N(0,1) features over ``d`` columns with
    labels from a planted hyperplane, each flipped with ``flip_prob``.

    The label noise keeps the logistic optimum finite, so the final loss is
    set by the data and not by how long a run lasts. Returns the file size.
    """
    rng = np.random.default_rng(seed)
    plant = rng.standard_normal(d)
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, n, _CHUNK):
            m = min(_CHUNK, n - start)
            cols = np.sort(np.argpartition(rng.random((m, d)), nnz, axis=1)[:, :nnz],
                           axis=1)
            vals = rng.standard_normal((m, nnz))
            z = np.einsum("ij,ij->i", vals, plant[cols])
            labels = np.where(z >= 0, 1, -1)
            labels[rng.random(m) < flip_prob] *= -1
            fh.writelines(
                ("+1 " if lab > 0 else "-1 ")
                + " ".join(f"{c + 1}:{v!r}" for c, v in zip(row_c.tolist(), row_v.tolist()))
                + "\n"
                for lab, row_c, row_v in zip(labels, cols, vals))
    os.replace(tmp, path)
    return os.path.getsize(path)
