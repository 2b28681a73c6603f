"""Dataset ingestion: LIBSVM text files and seeded synthetic generation."""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .errors import DataError
from .linalg import Dataset, check_dimension
from .sampling import SeededRng

# rows drawn between two vectorised passes of make_synthetic; bounds the
# memory of its temporaries
_CHUNK_ROWS = 2048

# characters of whole lines parsed in one pass of parse_libsvm; bounds the
# memory of its temporaries
_BLOCK_BYTES = 64 * 1024

# the largest 1-based index, and dimension, that int64 holds
_INDEX_MAX = int(np.iinfo(np.int64).max)

_PAIR = np.dtype([("i", np.int64), ("v", np.float64)])

_LABEL_MAP = {"1": 1, "+1": 1, "-1": -1, "0": -1,
              "1.0": 1, "+1.0": 1, "-1.0": -1, "0.0": -1}


def parse_libsvm(path, dimension: int | None = None) -> Dataset:
    """Parse a LIBSVM binary-classification file.

    Lines are ``<label> <idx>:<val> ...`` with 1-based indices. Labels may
    follow either the {0,1} or the {-1,+1} convention; both are mapped to
    {-1,+1}. The dimension defaults to the largest index seen.

    The file is read in blocks of whole lines, and numpy's compiled text
    reader parses each block's pairs at once. A block that it or a check
    refuses is parsed again by ``_parse_lines``, which names the first bad
    token; both give the same arrays and the same errors.
    """
    if dimension is not None:
        try:  # NaN, infinity and strings too
            valid = dimension % 1 == 0 and 1 <= int(dimension) <= _INDEX_MAX
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise DataError(f"dimension={dimension!r} is not an integer in [1, 2**63 - 1]")
        dimension = int(dimension)
    blocks = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            start = 1
            while lines := fh.readlines(_BLOCK_BYTES):
                blocks.append(_parse_block(lines, start))
                start += len(lines)
    except UnicodeDecodeError:
        raise DataError(_undecodable_line(path)) from None
    if not any(len(labels) for labels, *_ in blocks):
        raise DataError(f"{path}: no examples found")
    labels, indices, values, counts = (np.concatenate(parts) for parts in zip(*blocks))
    d = dimension if dimension is not None else int(indices.max(initial=-1)) + 1
    if d < 1:
        raise DataError(f"{path}: could not infer a positive dimension")
    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    X = sparse.csr_matrix((values, indices, indptr), shape=(len(labels), d))
    return Dataset(X, labels)


def _parse_block(lines, start: int) -> tuple:
    """``(labels, indices, values, counts)`` of the LIBSVM text ``lines``,
    the first of them line ``start`` of the file, as float64, int64,
    float64 and int64 arrays; ``counts`` holds each row's number of pairs."""
    heads = [head for head in (line.split(None, 1) for line in lines) if head]
    labels = [_LABEL_MAP.get(head[0]) for head in heads]
    if None not in labels:
        pairs = _parse_pairs([head[1] if len(head) > 1 else "" for head in heads])
        if pairs is not None:
            return (np.array(labels, dtype=np.float64), *pairs)
    # _parse_lines takes the block or names its first bad token
    labels, indices, values, indptr = _parse_lines(lines, start)
    return (np.array(labels, dtype=np.float64), np.array(indices, dtype=np.int64),
            np.array(values, dtype=np.float64), np.diff(np.array(indptr, dtype=np.int64)))


def _parse_pairs(rests) -> tuple | None:
    """``(indices, values, counts)`` of the ``idx:val`` text ``rests`` of a
    block's rows, or None if numpy's reader or a check refuses it."""
    tokens = " ".join(rests).split()
    try:
        pairs = (np.loadtxt(tokens, delimiter=":", comments=None, dtype=_PAIR, ndmin=1)
                 if tokens else np.empty(0, dtype=_PAIR))
    except ValueError:  # a token numpy's reader does not take: a "#" comment too
        return None
    idx, val = pairs["i"], pairs["v"]
    counts = np.array([rest.count(":") for rest in rests], dtype=np.int64)
    if counts.sum() != len(idx):
        return None
    # entry positions that open a row; an index drop there is allowed
    row_start = np.zeros(len(idx) + 1, dtype=bool)
    row_start[np.cumsum(counts)] = True
    # with every index >= 1, no step between two of them wraps around
    if ((idx >= 1).all() and ((np.diff(idx) > 0) | row_start[1:-1]).all()
            and np.isfinite(val).all()):
        return idx - 1, val, counts
    return None


def _parse_lines(lines, start: int = 1) -> tuple:
    """``(labels, indices, values, indptr)`` of the LIBSVM text ``lines``,
    the first of them line ``start`` of the file."""
    labels, indices, values, indptr = [], [], [], [0]
    for lineno, line in enumerate(lines, start=start):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        label = _LABEL_MAP.get(tokens[0])
        if label is None:
            raise DataError(f"line {lineno}: unrecognized label {tokens[0]!r}")
        row_start = len(indices)
        for col, tok in enumerate(tokens[1:], start=2):
            try:
                raw_idx, raw_val = tok.split(":", 1)
                idx = int(raw_idx) - 1
                val = float(raw_val)
            except ValueError:
                raise DataError(
                    f"line {lineno}, token {col}: cannot parse {tok!r}") from None
            if idx < 0:
                raise DataError(f"line {lineno}, token {col}: index must be >= 1")
            if idx >= _INDEX_MAX:  # the 1-based index does not fit int64
                raise DataError(
                    f"line {lineno}, token {col}: index must be <= 2**63 - 1")
            if len(indices) > row_start and idx <= indices[-1]:
                raise DataError(
                    f"line {lineno}, token {col}: indices must be strictly increasing")
            if not math.isfinite(val):
                raise DataError(
                    f"line {lineno}, token {col}: non-finite value {tok!r}")
            indices.append(idx)
            values.append(val)
        labels.append(label)
        indptr.append(len(indices))
    return labels, indices, values, indptr


def _undecodable_line(path) -> str:
    """Message naming the first line of ``path`` that is not valid UTF-8,
    counted as text-mode reading counts lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        lineno = before.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        return f"line {lineno}: not valid UTF-8 (byte 0x{data[exc.start]:02x})"
    return f"{path}: not valid UTF-8"


def serialize_libsvm(dataset: Dataset, path) -> None:
    """Write a dataset back to LIBSVM text (1-based indices, +-1 labels)."""
    X = dataset.X
    with open(path, "w", encoding="utf-8") as fh:
        for i, y in enumerate(dataset.y):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            feats = " ".join(
                f"{int(idx) + 1}:{val:.17g}"
                for idx, val in zip(X.indices[lo:hi], X.data[lo:hi])
            )
            label = "+1" if y == 1 else "-1"
            fh.write(f"{label} {feats}\n" if feats else f"{label}\n")


def make_synthetic(n: int, d: int, nnz_per_row: int, seed: int,
                   separable_margin: float = 0.0,
                   feature_decades: float = 0.0) -> Dataset:
    """Sparse synthetic binary classification data.

    Each row gets ``nnz_per_row`` nonzero N(0,1) features at random
    positions. With a positive margin, labels come from a planted unit-norm
    hyperplane; rows whose score falls inside the margin band are nudged
    along the planted direction (restricted to their support) until the
    score clears it, keeping feature magnitudes bounded. With margin 0 the
    labels are random coin flips.

    ``feature_decades`` spreads per-feature scales log-uniformly over that
    many decades, producing the ill-conditioned geometry typical of raw
    (unnormalized) data; 0 keeps all features at unit scale.
    """
    for name, value in (("n", n), ("d", d), ("nnz_per_row", nnz_per_row)):
        if not (value >= 1 and value % 1 == 0):  # NaN and infinity too
            raise DataError(f"{name}={value!r} is not an integer >= 1")
    n, d, nnz_per_row = int(n), int(d), int(nnz_per_row)
    check_dimension(d)
    if not nnz_per_row <= d:
        raise DataError(f"nnz_per_row={nnz_per_row} outside [1, d={d}]")
    if not 0 <= separable_margin < math.inf:  # NaN too
        raise DataError(f"separable margin {separable_margin!r} is not finite and >= 0")
    if not math.isfinite(feature_decades):
        raise DataError(f"feature_decades {feature_decades!r} is not finite")
    rng = SeededRng(seed)
    # a single stream keeps replay exact
    choice, normal, coin = rng._gen.choice, rng._gen.standard_normal, rng._gen.random
    scales = np.logspace(-feature_decades / 2.0, feature_decades / 2.0, d)
    plant_raw = normal(d) / scales  # keeps every scaled feature informative
    plant = plant_raw / np.sqrt(np.dot(plant_raw, plant_raw))
    # a support where the plant nearly vanishes (uu < 1e-6) cannot carry a
    # margin and is redrawn. A rounded sum of non-negative terms is at least
    # its largest term, so a support with one feature of plant**2 >= 1e-6
    # passes; only supports of weak features alone need their exact uu
    weak = ~(plant * plant >= 1e-6)
    weak_supports = separable_margin > 0 and np.count_nonzero(weak) >= nnz_per_row
    indices = np.empty((n, nnz_per_row), dtype=np.int64)
    values = np.empty((n, nnz_per_row), dtype=np.float64)
    labels = np.empty(n, dtype=np.float64)
    coins = np.empty(_CHUNK_ROWS)
    for lo in range(0, n, _CHUNK_ROWS):
        idx, vals = indices[lo:lo + _CHUNK_ROWS], values[lo:lo + _CHUNK_ROWS]
        # the draws, one row after another in the stream's order; the rest
        # is done a chunk at a time, with each row's own arithmetic
        for i in range(len(idx)):
            while True:
                idx[i] = choice(d, nnz_per_row, replace=False)
                vals[i] = normal(nnz_per_row)
                if (not (weak_supports and weak[idx[i]].all())
                        or _plant_norm2(plant, idx[i]) >= 1e-6):
                    break
            if separable_margin == 0:
                coins[i] = coin()
        idx.sort(axis=1)
        vals *= scales[idx]
        if separable_margin > 0:
            u = plant[idx]
            # stacked one-by-one products: each row's np.dot(a, b)
            uu = np.matmul(u[:, None, :], u[:, :, None])[:, 0, 0]
            z = np.matmul(vals[:, None, :], u[:, :, None])[:, 0, 0]
            # rows inside the margin band are nudged along the plant
            inside = np.flatnonzero(np.abs(z) < separable_margin)
            target = np.where(z[inside] >= 0, separable_margin, -separable_margin)
            with np.errstate(over="ignore"):  # as the float scalars it replaces
                step = (target - z[inside]) / uu[inside]
            vals[inside] += step[:, None] * u[inside]
            z[inside] = target
            labels[lo:lo + len(idx)] = np.where(z > 0, 1.0, -1.0)
        else:
            labels[lo:lo + len(idx)] = np.where(coins[:len(idx)] < 0.5, 1.0, -1.0)
    indptr = np.arange(0, n * nnz_per_row + 1, nnz_per_row, dtype=np.int64)
    X = sparse.csr_matrix((values.ravel(), indices.ravel(), indptr), shape=(n, d))
    return Dataset(X, labels)


def _plant_norm2(plant, support) -> float:
    """uu, the squared norm of the plant on ``support``, summed over the
    sorted support as the generator has always summed it."""
    u = plant[np.sort(support)]
    return float(np.dot(u, u))
