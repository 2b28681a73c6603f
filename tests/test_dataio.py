import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from mblbfgs import (
    ConfigurationError,
    DataError,
    RunConfig,
    constant,
    logistic_l2,
    make_synthetic,
    parse_libsvm,
    run,
    serialize_libsvm,
)
from mblbfgs import dataio
from mblbfgs.linalg import Dataset


class TestParseLibsvm:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("+1 1:0.5 3:2\n")
        ds = parse_libsvm(path)
        assert ds.d == 3 and ds.n == 1
        assert ds.y[0] == 1
        assert np.array_equal(ds.X.indices, [0, 2])
        assert np.array_equal(ds.X.data, [0.5, 2.0])

    def test_zero_one_labels_remapped(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 1:1\n1 2:1\n")
        ds = parse_libsvm(path)
        assert list(ds.y) == [-1, 1]

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("+1 1:1\n2 1:1\n")
        with pytest.raises(DataError, match="line 2"):
            parse_libsvm(path)

    def test_malformed_token_reports_position(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("+1 1:0.5\n-1 1:x\n")
        with pytest.raises(DataError, match="line 2, token 2"):
            parse_libsvm(path)

    def test_nonincreasing_indices(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("+1 3:1 2:1\n")
        with pytest.raises(DataError, match="strictly increasing"):
            parse_libsvm(path)

    def test_non_finite_value_reports_position(self, tmp_path):
        for bad in ("nan", "inf", "-inf", "NaN", "infinity"):
            path = tmp_path / f"{bad}.txt"
            path.write_text(f"+1 1:0.5\n-1 1:1 3:{bad}\n")
            with pytest.raises(DataError, match="line 2, token 3: non-finite"):
                parse_libsvm(path)

    @pytest.mark.parametrize("text, line", [
        (b"+1 1:0.5 2:\xff\n", 1),
        (b"+1 1:0.5\n-1 1:1\n# caf\xe9\n", 3),     # inside a comment
        (b"+1 1:0.5\r\n-1 1:1\r+1 2:\xc3\n", 3),  # CRLF and CR line ends
        (b"+1 1:0.5\n" * 5000 + b"-1 1:\x80\n", 5001),  # past the first read
    ])
    def test_invalid_utf8_names_the_line(self, tmp_path, text, line):
        # used to escape as a UnicodeDecodeError traceback
        path = tmp_path / "bytes.txt"
        path.write_bytes(text)
        with pytest.raises(DataError, match=f"line {line}: not valid UTF-8"):
            parse_libsvm(path)

    def test_empty_rows_kept(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("+1\n-1 2:1\n+1\n")
        ds = parse_libsvm(path)
        assert ds.n == 3 and ds.d == 2
        assert list(ds.X.indptr) == [0, 0, 1, 1]

    def test_dimension_override_too_small(self, tmp_path):
        path = tmp_path / "i.txt"
        path.write_text("+1 1:1\n-1 4:1\n")
        with pytest.raises(DataError, match="example 1"):
            parse_libsvm(path, dimension=3)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("\n# only a comment\n")
        with pytest.raises(DataError, match="no examples"):
            parse_libsvm(path)

    def test_dimension_override(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("+1 1:1\n")
        for dimension in (10, 10.0, np.int32(10)):
            assert parse_libsvm(path, dimension=dimension).d == 10

    def test_oversized_index_names_its_token(self, tmp_path):
        # used to escape as an OverflowError traceback
        path = tmp_path / "big.txt"
        for big in ("99999999999999999999", str(2**63)):
            path.write_text(f"-1 2:1\n+1 1:0.5 {big}:1\n")
            with pytest.raises(DataError, match=r"line 2, token 3: index must be <= 2\*\*63 - 1"):
                parse_libsvm(path)
        # the largest index int64 holds is read, and its dimension is then
        # refused as too large for a float64 vector
        path.write_text(f"+1 1:0.5 {2**63 - 1}:1\n")
        with pytest.raises(DataError, match=f"^dimension d={2**63 - 1} is too large"):
            parse_libsvm(path)
        widest = np.iinfo(np.intp).max // 8  # its float64 vector's bytes fit in intp
        path.write_text(f"+1 1:0.5 {widest}:1\n")
        assert parse_libsvm(path).d == widest

    @pytest.mark.parametrize("dimension", [2.5, "10", 10**20, 2**63, 0, -1,
                                           float("nan"), float("inf")], ids=repr)
    def test_bad_dimension_is_a_data_error_before_reading(self, tmp_path, dimension):
        # the file does not exist: the check comes before any read
        with pytest.raises(DataError, match=f"dimension={dimension!r} is not an integer"):
            parse_libsvm(tmp_path / "missing.txt", dimension=dimension)

    def test_error_past_the_first_block_names_its_file_line(self, tmp_path):
        row = "+1 " + " ".join(f"{j}:0.{j:04d}" for j in range(1, 11)) + "\n"
        lines = [row] * 5000
        lines[2999] = row.replace("7:", "x:")
        path = tmp_path / "long.txt"
        path.write_text("".join(lines))
        assert len(row) * 2999 > 2 * dataio._BLOCK_BYTES  # past two whole blocks
        with pytest.raises(DataError, match=r"^line 3000, token 8: cannot parse 'x:0.0007'$"):
            parse_libsvm(path)

    def test_clean_blocks_skip_the_per_token_loop(self, tmp_path):
        path = tmp_path / "clean.txt"
        path.write_text("+1 1:0.5 3:2\n\n-1\n0 2:1e-300 4:-0.0\n" * 9000)
        with mock.patch.object(dataio, "_parse_lines", side_effect=AssertionError):
            ds = parse_libsvm(path)
        assert ds.n == 27000 and ds.d == 4
        path.write_text("+1 1:0.5 1_0:2\n")  # int() takes it, numpy does not
        assert parse_libsvm(path).d == 10

    def test_round_trip(self, tmp_path):
        ds = make_synthetic(30, 15, 5, seed=2, separable_margin=0.3)
        path = tmp_path / "rt.txt"
        serialize_libsvm(ds, path)
        back = parse_libsvm(path, dimension=ds.d)
        assert back.n == ds.n and back.d == ds.d
        assert np.array_equal(ds.y, back.y)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ds.X, name), getattr(back.X, name))


def _parse_whole_file(path) -> Dataset:
    """The per-token oracle: ``_parse_lines`` over the whole file, with
    the errors ``parse_libsvm`` raises after it."""
    with open(path, "r", encoding="utf-8") as fh:
        labels, indices, values, indptr = dataio._parse_lines(fh)
    if not labels:
        raise DataError(f"{path}: no examples found")
    d = max(indices, default=-1) + 1
    if d < 1:
        raise DataError(f"{path}: could not infer a positive dimension")
    X = sparse.csr_matrix(
        (np.array(values, dtype=np.float64), np.array(indices, dtype=np.int64),
         np.array(indptr, dtype=np.int64)), shape=(len(labels), d))
    return Dataset(X, np.array(labels, dtype=np.float64))


def _outcome(parse, path):
    """Shape, dtypes and bytes of what ``parse(path)`` gives, or its error."""
    try:
        ds = parse(path)
    except DataError as exc:
        return "DataError", str(exc)
    arrays = (ds.X.data, ds.X.indices, ds.X.indptr, ds.y)
    return ds.X.shape, [(a.dtype.str, a.tobytes()) for a in arrays]


_ODD_LABELS = ["2", "+2", "-1.5", "x", "1#c", "\uff11", "#"]
_ODD_TOKENS = ["1_0:1", "\u0663:1", "1:\u0663", "1:1_0", "\uff11:1", "1.0:1", "1:", ":1",
               "1", "1:2:3", "x:1", "0:1", "-2:1", "99999999999999999999:1",
               f"{2**63}:1", "1:nan", "1:-inf", "1:Infinity", "1:1e400", "1:0x1p3",
               "1:1,5", "1:nan(1)", "1:1\x00", "1:x#y", "1:" + "1" * 400]
_ODD_FLOATS = ["1e-400", "4.9e-324", "2.4703282292062328e-324", "-0", "+.5", "5.",
               "1E5", "1.7976931348623158e308", "0." + "0" * 400 + "1", "1" * 300,
               "nan", "-inf", "Infinity", "1e400", "1" * 400]
_SEPS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"]
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _libsvm_text(draw):
    """LIBSVM text: mostly well-formed rows, with blank and comment lines,
    odd separators and line ends, and now and then an odd label or token."""
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(range(80)))  # 0-6 odd lines, the rest plain rows
        end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "# note", " # 1:2"])) + end)
            continue
        label = draw(st.sampled_from(_ODD_LABELS if kind == 1 else sorted(dataio._LABEL_MAP)))
        indices = draw(st.lists(st.one_of(st.integers(1, 60), st.integers(1, 2**63 - 1)),
                                unique=True, max_size=8).map(sorted))
        if kind == 2 and len(indices) > 1:
            indices[0], indices[-1] = indices[-1], indices[0]
        values = st.one_of(_FLOATS.map(repr), _FLOATS.map(lambda v: f"{v:.17g}"))
        tokens = [f"{i}:{draw(values)}" for i in indices]
        if kind == 3:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_ODD_TOKENS)))
        if kind == 4 and tokens:
            tokens[-1] = tokens[-1].split(":")[0] + ":" + draw(st.sampled_from(_ODD_FLOATS))
        if kind == 6 and tokens:
            tokens[0] = draw(st.sampled_from(["0", "-1", "-0", "00"])) + tokens[0][tokens[0].index(":"):]
        sep = st.sampled_from(_SEPS)
        line = draw(st.sampled_from(["", " ", "\t"])) + label
        line += "".join(draw(sep) + token for token in tokens)
        if kind == 5:
            line += " #" + draw(st.sampled_from(["", " a comment", "1:2"]))
        lines.append(line + draw(st.sampled_from(["", " ", "\t "])) + end)
    text = "".join(lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=200, deadline=None)
@given(text=_libsvm_text(), block=st.integers(1, 400))
def test_blocks_parse_as_the_per_token_oracle(tmp_path_factory, text, block):
    path = tmp_path_factory.getbasetemp() / "oracle.txt"
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(_parse_whole_file, path)
    with mock.patch.object(dataio, "_BLOCK_BYTES", block):  # many blocks a file
        assert _outcome(parse_libsvm, path) == expected
    assert _outcome(parse_libsvm, path) == expected


class TestMakeSynthetic:
    def test_shapes_and_nnz(self):
        ds = make_synthetic(20, 12, 7, seed=0)
        assert ds.n == 20 and ds.d == 12
        assert np.array_equal(np.diff(ds.X.indptr), np.full(20, 7))

    def test_dense_rows(self):
        ds = make_synthetic(5, 6, 6, seed=0)
        assert np.array_equal(ds.X.indices, np.tile(np.arange(6), 5))

    def test_margin_enforced(self):
        ds = make_synthetic(200, 10, 5, seed=1, separable_margin=0.7)
        # recover the plant by finding a separator; cheaper: check that a
        # (margin-)separator exists by training on the full batch
        obj = logistic_l2(ds, sigma=0.0)
        cfg = RunConfig(method="robust_lbfgs", mode="strategy2",
                        batch_frac=1.0, overlap_frac=0.2,
                        schedule=constant(1.0), epochs=float("inf"),
                        max_iterations=300, trace_stride=1, seed=0)
        trace = run(cfg, obj)
        assert obj.eval_full(trace.final_w).accuracy == 1.0

    def test_margin_zero_labels_random(self):
        ds = make_synthetic(500, 10, 5, seed=5, separable_margin=0.0)
        frac = np.mean(ds.y == 1)
        assert 0.4 <= frac <= 0.6

    def test_replay_determinism(self):
        a = make_synthetic(25, 9, 4, seed=13, separable_margin=0.5)
        b = make_synthetic(25, 9, 4, seed=13, separable_margin=0.5)
        assert np.array_equal(a.y, b.y)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a.X, name), getattr(b.X, name))

    def test_bad_nnz(self):
        with pytest.raises(DataError):
            make_synthetic(5, 3, 4, seed=0)

    @pytest.mark.parametrize("changes", [
        dict(separable_margin=float("nan")),  # silent coin-flip labels
        dict(separable_margin=-1.0),
        dict(separable_margin=float("inf")),
        dict(feature_decades=float("nan")),
        dict(feature_decades=float("inf")),
        dict(n=20.5),                         # was truncated by the caller
        dict(d=8.5),
        dict(nnz_per_row=4.5),
        dict(n=0),
        dict(n=float("inf")),
        dict(d=np.iinfo(np.intp).max // 8 + 1),  # np.logspace raised ValueError
    ], ids=repr)
    def test_bad_parameters_are_data_errors(self, changes):
        args = dict(n=20, d=8, nnz_per_row=4, seed=0, separable_margin=0.5)
        with pytest.raises(DataError):
            make_synthetic(**{**args, **changes})

    def test_integral_floats_build_the_same_data(self):
        a = make_synthetic(25, 9, 4, seed=13, separable_margin=0.5)
        b = make_synthetic(25.0, 9.0, 4.0, seed=13, separable_margin=0.5)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a.X, name), getattr(b.X, name))
        assert np.array_equal(a.y, b.y)

    def test_seed_outside_the_philox_key_range_is_a_configuration_error(self):
        for seed in (-1, 2**128, 1.5):
            with pytest.raises(ConfigurationError):
                make_synthetic(20, 8, 4, seed=seed)

    def test_feature_decades_spread(self):
        ds = make_synthetic(300, 10, 5, seed=3, feature_decades=2.0,
                            separable_margin=0.1)
        X = ds.X
        col_scale = np.sqrt(np.asarray(X.multiply(X).mean(axis=0)).ravel())
        assert col_scale.max() / col_scale.min() > 10


    def test_a_margin_no_support_can_carry_is_a_data_error(self):
        # from about 310 decades the plant's squared norm overflows and the
        # plant is all zeros (NaN from about 616), so every support was
        # redrawn forever; a subprocess keeps such a hang from stalling.
        # 300 decades still builds, and so does 310 at margin 0, where no
        # support is redrawn; a NaN plant is refused at margin 0 too
        code = ("from mblbfgs import DataError, make_synthetic\n"
                "for margin, decades in ((0.5, 300), (0.0, 310), (0.5, 310),\n"
                "                        (0.5, 400), (0.5, 700), (0.5, 1000), (0.0, 700)):\n"
                "    try:\n"
                "        make_synthetic(10, 5, 2, seed=0, separable_margin=margin,\n"
                "                       feature_decades=decades)\n"
                "        print('built')\n"
                "    except DataError as exc:\n"
                "        print(exc)\n")
        src = os.path.dirname(os.path.dirname(dataio.__file__))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert [line.split()[:2] for line in done.stdout.splitlines()] == [
            ["built"], ["built"], ["feature_decades", "310"], ["feature_decades", "400"],
            ["feature_decades", "700"], ["feature_decades", "1000"],
            ["feature_decades", "700"]]


def _synthetic_bytes(ds):
    return [(a.dtype.str, a.tobytes()) for a in (ds.X.indptr, ds.X.indices, ds.X.data, ds.y)]


def _looped(*args, **kwargs):
    """``make_synthetic`` with every chunk drawn by the per-row loop."""
    with mock.patch.object(dataio, "_replay_pays", return_value=False):
        return make_synthetic(*args, **kwargs)


def _philox_state(gen):
    state = gen.bit_generator.state
    return (state["state"]["counter"].tolist(), state["buffer"].tolist(),
            state["buffer_pos"], state["has_uint32"], state["uinteger"])


@st.composite
def _synthetic_args(draw):
    """Shapes on both sides of numpy's Floyd/tail-shuffle cutoff, k = d
    among them; margins and feature scales that make supports redrawn."""
    # numpy shuffles a tail instead when d > 10000 and k > d // 50
    d = draw(st.one_of(st.integers(1, 400), st.integers(10_001, 15_000),
                       st.integers(1, 120_000)))
    k = draw(st.one_of(st.just(min(d, 300)), st.integers(1, min(d, 300))))
    return dict(n=draw(st.integers(1, 3 * dataio._CHUNK_ROWS + dataio._CHUNK_ROWS // 2)),
                d=d, nnz_per_row=k, seed=draw(st.integers(0, 2**32)),
                separable_margin=draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0))),
                feature_decades=draw(st.one_of(st.just(0.0), st.floats(0.0, 6.0))))


class TestChunkReplay:
    @settings(max_examples=40, deadline=None)
    @given(args=_synthetic_args())
    def test_replay_builds_the_bytes_of_the_per_row_loop(self, args):
        assert _synthetic_bytes(make_synthetic(**args)) == _synthetic_bytes(_looped(**args))

    @pytest.mark.parametrize("coins", [False, True], ids=["normals", "coins"])
    @pytest.mark.parametrize("d, k", [(1, 1), (3, 2), (7, 7), (50, 10), (50, 49),
                                      (60, 50), (20000, 5), (120000, 2)])
    def test_chunk_replay_draws_as_numpy_choice(self, d, k, coins):
        # a numpy whose Generator.choice draws its supports from the stream
        # otherwise than make_synthetic replays it fails here
        def entered():
            gen = np.random.Generator(np.random.Philox(key=d * 1000 + k))
            gen.integers(0, 2**32, size=3, dtype=np.uint32)  # an odd count
            assert gen.bit_generator.state["has_uint32"] == 1
            return gen

        rows = 257
        gen, ref = entered(), entered()
        idx, vals = np.empty((rows, k), dtype=np.int64), np.empty((rows, k))
        flips = np.empty(rows) if coins else None
        assert dataio._replay_chunk(gen, d, idx, vals, flips)
        for i in range(rows):
            support = ref.choice(d, k, replace=False)
            assert np.array_equal(np.sort(idx[i]), np.sort(support)), (
                f"numpy {np.__version__}'s Generator.choice({d}, {k}, replace=False) "
                f"draws row {i} otherwise than the replay")
            assert vals[i].tobytes() == ref.standard_normal(k).tobytes()
            if coins:
                assert flips[i] == ref.random()
        assert _philox_state(gen) == _philox_state(ref)
        assert gen.integers(0, 1000, size=3).tolist() == ref.integers(0, 1000, size=3).tolist()
        assert gen.random() == ref.random()

    def test_a_chunk_with_a_rejected_word_is_drawn_by_the_loop(self):
        # at d = 10**5, k = 10 and seed 0 the second of three chunks meets a
        # word numpy's Lemire step rejects; the third is replayed after it
        replay, outcomes = dataio._replay_chunk, []

        def spy(*args):
            outcomes.append(replay(*args))
            return outcomes[-1]

        args = (3 * dataio._CHUNK_ROWS, 10**5, 10)
        with mock.patch.object(dataio, "_replay_chunk", spy):
            ds = make_synthetic(*args, seed=0)
        assert outcomes == [True, False, True]
        assert _synthetic_bytes(ds) == _synthetic_bytes(_looped(*args, seed=0))

    def test_supports_that_may_be_redrawn_are_never_replayed(self):
        with mock.patch.object(dataio, "_replay_chunk") as replay:
            make_synthetic(300, 40, 1, seed=2, separable_margin=0.5, feature_decades=6.0)
        replay.assert_not_called()


class TestEndToEnd:
    def test_full_batch_reaches_tiny_gradient(self, sep_logistic):
        cfg = RunConfig(method="robust_lbfgs", mode="strategy2",
                        batch_frac=1.0, overlap_frac=0.2,
                        schedule=constant(1.0), epochs=float("inf"),
                        max_iterations=500, trace_stride=1, grad_tol=1e-7,
                        seed=0)
        trace = run(cfg, sep_logistic)
        assert trace.records[-1].grad_norm < 1e-6

    def test_matches_scipy_reference(self, small_logistic):
        scipy_opt = pytest.importorskip("scipy.optimize")
        obj = small_logistic

        def fun(w):
            sg = obj.eval_full(w)
            return sg.loss, sg.gradient

        res = scipy_opt.minimize(fun, np.zeros(obj.d), jac=True,
                                 method="L-BFGS-B",
                                 options={"maxiter": 500, "ftol": 1e-14})
        cfg = RunConfig(method="robust_lbfgs", mode="strategy2",
                        batch_frac=1.0, overlap_frac=0.2,
                        schedule=constant(1.0), epochs=float("inf"),
                        max_iterations=500, trace_stride=1, grad_tol=1e-9,
                        seed=0)
        trace = run(cfg, obj)
        ours = min(r.full_loss for r in trace.records)
        assert ours == pytest.approx(res.fun, abs=1e-6)
