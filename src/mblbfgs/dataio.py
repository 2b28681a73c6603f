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
    (unnormalized) data; 0 keeps all features at unit scale. Decades that
    overflow the scales, or a margin that even the strongest support cannot
    carry, are a ``DataError``.

    Rows are drawn from one seeded stream, one after another: a support by
    ``Generator.choice``, its values, and at margin 0 its coin. Where no
    support is ever redrawn, a chunk of rows is drawn faster by replaying
    the stream ``choice`` reads (``_replay_chunk``) when that is expected
    to pay; the data are the same bytes either way.
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
    if not np.isfinite(plant).all():  # scales beyond float64's range
        raise DataError(f"feature_decades {feature_decades!r} overflows the feature scales")
    # were even the strongest support too weak, no redraw would ever end
    if weak_supports and not _plant_norm2(
            plant, np.argpartition(plant * plant, -nnz_per_row)[-nnz_per_row:]) >= 1e-6:
        raise DataError(f"feature_decades {feature_decades!r} leaves no support of "
                        f"{nnz_per_row} features that can carry the margin")
    indices = np.empty((n, nnz_per_row), dtype=np.int64)
    values = np.empty((n, nnz_per_row), dtype=np.float64)
    labels = np.empty(n, dtype=np.float64)
    coins = np.empty(_CHUNK_ROWS)
    replay = not weak_supports and _replay_pays(min(n, _CHUNK_ROWS), d, nnz_per_row)
    for lo in range(0, n, _CHUNK_ROWS):
        idx, vals = indices[lo:lo + _CHUNK_ROWS], values[lo:lo + _CHUNK_ROWS]
        chunk_coins = coins[:len(idx)] if separable_margin == 0 else None
        # the draws, in the stream's order, replayed for the whole chunk
        # or one row after another; the rest is done a chunk at a time,
        # with each row's own arithmetic
        if not (replay and _replay_chunk(rng._gen, d, idx, vals, chunk_coins)):
            for i in range(len(idx)):
                while True:
                    idx[i] = choice(d, nnz_per_row, replace=False)
                    vals[i] = normal(nnz_per_row)
                    if (not (weak_supports and weak[idx[i]].all())
                            or _plant_norm2(plant, idx[i]) >= 1e-6):
                        break
                if chunk_coins is not None:
                    chunk_coins[i] = coin()
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
            labels[lo:lo + len(idx)] = np.where(chunk_coins < 0.5, 1.0, -1.0)
    indptr = np.arange(0, n * nnz_per_row + 1, nnz_per_row, dtype=np.int64)
    X = sparse.csr_matrix((values.ravel(), indices.ravel(), indptr), shape=(n, d))
    return Dataset(X, labels)


def _plant_norm2(plant, support) -> float:
    """uu, the squared norm of the plant on ``support``, summed over the
    sorted support as the generator has always summed it."""
    u = plant[np.sort(support)]
    return float(np.dot(u, u))


# numpy's Generator.choice(d, k, replace=False) runs Floyd's algorithm unless
# d > _FLOYD_POP_MAX and k > d // 50, when it shuffles a tail of arange(d)
_FLOYD_POP_MAX = 10000

# Replay pays where it is expected to be faster than the per-row loop. Per
# row, the loop costs about L = 9 + 0.045 k us, and a replayed chunk about
# R = 2.3 + 0.06 k + 0.15 l us, where l is the expected number of Floyd
# steps whose draw links them to an earlier step (fitted to 23 shapes with
# k = 10..1000 and d = k+20..10**5, one core of a 2-core x86-64 VM). A
# chunk with lam expected rejected words meets one with probability
# p = 1 - exp(-lam), and the loop then draws it too, so replay pays while
# R + p L < L: while lam < ln(L / R). At k = 10 that cutoff is 1.2; it
# falls to 0 by k = 450, where the loop's compiled draws win
_LOOP_US = (9.0, 0.045)
_REPLAY_US = (2.3, 0.06, 0.15)


def _floyd_bounds(d: int, k: int) -> np.ndarray:
    """The bounds b of the draws on [0, b] that ``choice(d, k,
    replace=False)`` makes in Floyd's branch, in the order it makes them:
    b = d-k, ..., d-1 to select, then b = k-1, ..., 1 to shuffle. A bound
    of 0 draws nothing and is left out."""
    bounds = np.concatenate((np.arange(d - k, d), np.arange(k - 1, 0, -1)))
    return bounds[bounds > 0]


def _lemire_thresholds(bounds: np.ndarray) -> np.ndarray:
    """Per bound b, numpy's Lemire step rejects the 32-bit word w, and
    draws another, when (w * (b+1)) mod 2**32 falls below this,
    (2**32 - 1 - b) mod (b+1)."""
    return (0xFFFFFFFF - bounds) % (bounds + 1)


def _replay_pays(rows: int, d: int, k: int) -> bool:
    """Whether chunks of ``rows`` rows with supports ``choice(d, k,
    replace=False)`` are expected to be drawn faster by ``_replay_chunk``
    than by the loop. It needs numpy's Floyd branch, with every bound a
    32-bit Lemire draw."""
    if (d > _FLOYD_POP_MAX and k > d // 50) or d - 1 >= 0xFFFFFFFF:
        return False
    rejects = rows * int(_lemire_thresholds(_floyd_bounds(d, k)).sum()) / 2.0**32
    # step t links when d-k <= v_t < j_t: t of the d-k+t+1 values of v_t
    steps = np.arange(k)
    links = float((steps / (d - k + steps + 1)).sum())
    loop = _LOOP_US[0] + _LOOP_US[1] * k
    replay = _REPLAY_US[0] + _REPLAY_US[1] * k + _REPLAY_US[2] * links
    return rejects < math.log(loop / replay)


def _replay_chunk(gen, d: int, idx, vals, coins) -> bool:
    """Draw a chunk's supports into ``idx`` (each row's in no set order),
    its values into ``vals`` and, unless None, its coins into ``coins``,
    leaving ``gen`` as the per-row loop of ``choice(d, k, replace=False)``,
    ``standard_normal`` and ``random`` would, with the same bytes.

    Each row takes its 32-bit words as 64-bit outputs of the bit generator,
    low half first, in the order the loop takes them; the half left over
    waits in the generator's state, as numpy keeps it. Numpy's Lemire step
    and Floyd's selection then run over the whole chunk. If a word would
    have been rejected, and another drawn, ``gen`` is restored to its state
    at entry and False is returned, for the loop to draw the chunk.
    """
    rows, k = vals.shape
    bitgen = gen.bit_generator
    saved = bitgen.state
    bounds = _floyd_bounds(d, k)
    carried = saved["has_uint32"]
    # outputs drawn by the end of each row: enough for its last word
    ends = -((carried - np.arange(1, rows + 1) * len(bounds)) // 2)
    raw, normal, coin = bitgen.random_raw, gen.standard_normal, gen.random
    outputs = []
    for i, count in enumerate(np.diff(ends, prepend=0).tolist()):
        outputs.append(raw(count))
        normal(out=vals[i])
        if coins is not None:
            coins[i] = coin()
    # 32-bit words, low half first, after the half numpy kept
    drawn = np.concatenate(outputs)
    words = drawn.astype("<u8", copy=False).view("<u4")
    if carried:
        words = np.concatenate((np.array([saved["uinteger"]], np.uint32), words))
    used = rows * len(bounds)
    words = words[:used].reshape(rows, len(bounds))
    span = (bounds + 1).astype(np.uint32)
    # the low half of w * (b+1) is their product in wrapping uint32
    if (words * span < _lemire_thresholds(bounds).astype(np.uint32)).any():
        bitgen.state = saved
        return False
    if len(drawn):  # the last output's high half is numpy's kept half
        state = bitgen.state
        state["has_uint32"] = carried + 2 * len(drawn) - used
        state["uinteger"] = int(drawn[-1] >> np.uint64(32))
        bitgen.state = state
    if k == d:  # every index is selected
        idx[:] = np.arange(d)
        return True
    # Floyd's step t draws v_t on [0, j_t], j_t = d-k+t, and selects v_t,
    # or j_t if v_t is already selected: a repeat. v_t is a repeat when it
    # equals an earlier draw, or equals j_u for an earlier repeat u. Each
    # row's keys v_t * 2**shift + t are sorted, so a draw equal to an
    # earlier one follows it; a step t is tracked as node row * k + t. In
    # Floyd's branch a key is below 2 d k < 2**63
    shift = k.bit_length()
    keys = np.multiply(words[:, :k], span[:k], dtype=np.uint64)
    keys >>= np.uint64(32)
    keys = keys.view(np.int64)
    keys <<= shift
    keys |= np.arange(k)
    keys.sort(axis=1)
    keys = keys.ravel()
    value = keys >> shift
    same = value[1:] == value[:-1]
    same[k - 1::k] = False  # a row's first key after another row's last
    later = np.flatnonzero(same) + 1

    def node(at):
        return at - at % k + (keys[at] & ((1 << shift) - 1))

    repeat = np.zeros(rows * k, dtype=bool)
    repeat[node(later)] = True
    # a draw equal to j_u, u < t, links t to u; pointer jumping ORs repeat
    # along the links in log2(k) passes
    linked = np.flatnonzero(value >= d - k)
    back = value[linked] - (d - k)
    nodes = node(linked)
    keep = back < nodes % k
    linked, nodes = linked[keep], nodes[keep]
    link = np.arange(rows * k)
    link[nodes] = nodes - nodes % k + back[keep]
    while len(nodes):
        up = link[nodes]
        repeat[nodes] |= repeat[up]
        link[nodes] = link[up]
        nodes = nodes[link[nodes] != up]
    # a repeated step selects its j_t
    at = np.concatenate((later, linked))
    at = at[repeat[node(at)]]
    value[at] = node(at) % k + (d - k)
    idx[:] = value.reshape(rows, k)
    return True
