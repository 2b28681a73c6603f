"""Golden digests of generated data, its LIBSVM text, ten run traces and the
generator's output over eight parameter sets.

The digests pin the byte-identical rerun guarantee across refactors of the
data path and the driver: any change to the synthetic generator's stream,
the CSR layout, the text format or the order of floating-point reductions
in a run shows up here. They were recorded once and must not be re-recorded
to make a change pass.
"""
import hashlib

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

from mblbfgs import (RunConfig, constant, logistic_l2, make_synthetic, quadratic, run,
                     serialize_libsvm, sigmoid_lsq)
from mblbfgs import objectives
from mblbfgs.experiment import trace_csv_lines
from mblbfgs.sampling import SERIAL_BLOCK

DATA_SHA256 = "388d376e38140f1f47cbd99163a4395136256b86907fd6284284cb95290b38ab"
LIBSVM_SHA256 = "015dbe5e3eda24068bf86e9eb9a7dc5338d7aeba1f8295d052ef94492114fb37"
# Trace digests by the float64 ``exp`` and ``log1p`` targets numpy dispatches
# to (see ``numpy_dispatch``): its AVX-512 (X86_V4) loops differ from the
# X86_V3 and baseline ones in the last bit on a few percent of inputs, and
# the logistic row terms go through both. The quadratic, sigmoid and
# full-batch traces happen to read the same in both tables.
TRACE_SHA256 = {
    ("X86_V4", "X86_V4"): {
        "strategy1": "38af1d8367e35fa6ffba175d242ea689babb033e7de17d4c0a8750b7c2071164",
        # the full batch, reordered every epoch
        "strategy1_full": "5dc5058c93cd1acadfce4f6f8ebc9cf5607349abd215c2899e5f73cfff79eccf",
        "strategy2": "20cce47c8e35bb445c905bde385e7d39329d2c9efe72d5c336fd8bcae0b72b96",
        # strategy 2 without the extra overlap evaluation: inconsistent
        # pairs difference the batch gradients
        "strategy2_inconsistent": "57430bf20651ae2174c22ac5ad3b3989f00980bf826dc1acfc81226ca3b80240",
        "fault": "a3a8082c425dab8e8fa3329fbffffaadfefe8a4400e0b2ab37a4e453f9b80b43",
        "serial_sgd": "b44471733089ecf267d92a42ca2991f5279767090811099b18082d5c86aad453",
        # fault-mode paths the four above miss: a new shard layout every
        # epoch, responder coverage under half the rows (so metrology has
        # no margins to reuse), and the two other objective kinds; every
        # fault batch is read in place from its layout, and only
        # test_trace_digest_on_each_kernel_branch copies each one's rows
        "fault_reshard": "8e1b41dd3fc7823b9e1b9fe4223bfacabba05fce82535a4f286902b68e5c94ed",
        "fault_p07": "018256b733d398c81819ef8ef87e0878fa9bd733c44f0c80425818a1b7b3c0ff",
        "fault_sigmoid_lsq": "22b6faa3022b018f189ce0b7dc45c2e4720c7681c160b0f23bc8bfcebbd4d835",
        "fault_quadratic": "f325047c7a9a8b88734e92222cb04e5cb3d395fb9279e1b505edb32976a619c5",
    },
    # a CPU without AVX-512, or NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
    # AVX512_SPR" on one with it
    ("X86_V3", "baseline(X86_V2)"): {
        "strategy1": "3d2dadf7b628cab0b83910b545d007d80aecf65be87bc35723cc35d0bac014eb",
        "strategy1_full": "5dc5058c93cd1acadfce4f6f8ebc9cf5607349abd215c2899e5f73cfff79eccf",
        "strategy2": "fd9f1c2c368128e871dc9c745248104118345e1be68da6f6413fd66839a2e620",
        "strategy2_inconsistent": "0b526a79a3f01a963c5581b0f4fa70dea1fb2a0d97f966276b170ee3f3ec9761",
        "fault": "5898b60fd9990150be935ce217d911463d804d0c31b738e36c0912c1f91dbcf1",
        "serial_sgd": "3fe3df635638865c4c389e85b3352d1a6cdcc5b423490ab38b56554a4f2d2886",
        "fault_reshard": "840a0397e0bc5f66e45d5278c89a0a099a29c30dcf5cb116c4e03b8c8170cbdd",
        "fault_p07": "79eab716bd728554fc0aba36226dbe33509af2fce7f205c0a1dd034d67434a68",
        "fault_sigmoid_lsq": "22b6faa3022b018f189ce0b7dc45c2e4720c7681c160b0f23bc8bfcebbd4d835",
        "fault_quadratic": "f325047c7a9a8b88734e92222cb04e5cb3d395fb9279e1b505edb32976a619c5",
    },
}
CONFIGS = {
    "strategy1": RunConfig(mode="strategy1", batch_frac=0.1, epochs=3, seed=0),
    "strategy1_full": RunConfig(mode="strategy1", batch_frac=1.0, epochs=10, seed=0),
    "strategy2": RunConfig(mode="strategy2", batch_frac=0.1, epochs=3, seed=0),
    "strategy2_inconsistent": RunConfig(method="inconsistent_lbfgs", mode="strategy2",
                                        batch_frac=0.1, epochs=3, seed=0),
    "fault": RunConfig(mode="fault", fail_prob=0.3, epochs=3, seed=0),
    "serial_sgd": RunConfig(method="serial_sgd", schedule=constant(0.05),
                            epochs=1, trace_stride=30, seed=0),
    "fault_reshard": RunConfig(mode="fault", fail_prob=0.3, epochs=20, seed=0,
                               reshard_each_epoch=True),
    "fault_p07": RunConfig(mode="fault", fail_prob=0.7, epochs=10, seed=0),
    "fault_sigmoid_lsq": RunConfig(mode="fault", fail_prob=0.3, epochs=10, seed=0),
    "fault_quadratic": RunConfig(mode="fault", fail_prob=0.3, epochs=10, seed=0),
}
OBJECTIVES = {"fault_sigmoid_lsq": sigmoid_lsq, "fault_quadratic": quadratic}


def golden_data():
    return make_synthetic(300, 12, 6, seed=11, separable_margin=0.5)


def test_synthetic_data_digest():
    ds = golden_data()
    h = hashlib.sha256()
    for arr in (ds.X.indptr.astype(np.int64), ds.X.indices.astype(np.int64),
                ds.X.data.astype(np.float64), ds.y.astype(np.float64)):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == DATA_SHA256
    # 32-bit index arrays keep the matrix at its measured size
    assert ds.X.indptr.dtype == np.int32 and ds.X.indices.dtype == np.int32


# make_synthetic's CSR arrays and labels over parameter sets that reach its
# branches: margin 0 (coin-flip labels), the nudge, supports redrawn where
# the plant nearly vanishes (thousands of times at nnz 1 and 6 decades),
# several row chunks, and 2 to 6 decades of feature scales. The scales come
# from numpy's float64 ``power``, whose AVX-512 loop differs from the
# baseline one in the last bit, so the digests are keyed by its target; at
# 0 decades they read the same in both tables.
GENERATOR_SETS = {
    "coin": (200, 30, 5, 0, 0.0, 0.0),
    "nudge": (500, 20, 4, 1, 1.0, 0.0),
    "redraw_heavy": (3000, 40, 1, 2, 0.5, 6.0),
    "chunks": (5000, 50, 10, 3, 1.0, 2.0),
    "coin_dense": (4097, 10, 10, 4, 0.0, 4.0),
    "wide_margin": (1000, 60, 3, 5, 2.0, 3.0),
    "redraws": (2049, 25, 2, 7, 0.25, 5.0),
    "tiny_bench": (2000, 20, 5, 0, 1.0, 0.0),
}
GENERATOR_SHA256 = {
    "X86_V4": {
        "coin": "db80660f65fe5a41d69d18e9d4f9fc66acc7123b89ec4dbd19cfca73d4356a41",
        "nudge": "ab22f2042e80ab0523d98255f3db58edbc39d30f0991fb2cefd05b8b34a9d440",
        "redraw_heavy": "d686fbc91b108d41e1782f1800a98932b21857782db7be28e58a6c7136b9a0fd",
        "chunks": "14e6119173b8f0d319f9629a8f5cc7bc10d374b8aca6207408b2fd580942dc82",
        "coin_dense": "67af15ce7448df62314535712682e699c61b47e70c8bac1613778344f140aab5",
        "wide_margin": "46776d5efd1975e677b97a6245a8d3fff2aed22db14a5564749fee1eadb0cb2f",
        "redraws": "bf3497570c0906e9b27833c51ec49fd26d32a07aea7985736d40a5107db0ee69",
        "tiny_bench": "8a8699f1bc00a5be3c7c020d554e25842a9607b2119bbff678d8abe65eebea62",
    },
    "baseline(X86_V2)": {
        "coin": "db80660f65fe5a41d69d18e9d4f9fc66acc7123b89ec4dbd19cfca73d4356a41",
        "nudge": "ab22f2042e80ab0523d98255f3db58edbc39d30f0991fb2cefd05b8b34a9d440",
        "redraw_heavy": "d686fbc91b108d41e1782f1800a98932b21857782db7be28e58a6c7136b9a0fd",
        "chunks": "5ea322e0d8d5f2ee90b4d26fc2bc1699afe7a7c5850b3a3430ac31b646479d5b",
        "coin_dense": "1214d9d55d6cd79898a3bd2f351e0277bef3d468b4349fa76f223e8156cfbc16",
        "wide_margin": "6402a376fb4948e8076be5dc76f3c1e603af171ef1353a8388765b02238f471f",
        "redraws": "b3c289c546f722fa2c4e760628e9b2b212150c419bef3517754e73ce9733c52b",
        "tiny_bench": "8a8699f1bc00a5be3c7c020d554e25842a9607b2119bbff678d8abe65eebea62",
    },
}


@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
def test_synthetic_generator_digest(name):
    n, d, nnz, seed, margin, decades = GENERATOR_SETS[name]
    ds = make_synthetic(n, d, nnz, seed=seed, separable_margin=margin,
                        feature_decades=decades)
    h = hashlib.sha256()
    for arr in (ds.X.indptr, ds.X.indices, ds.X.data, ds.y):
        h.update(np.ascontiguousarray(arr).tobytes())
    info = opt_func_info(func_name="power", signature="float64")
    target = info.get("power", {}).get("ddd", {}).get("current")
    if target not in GENERATOR_SHA256:
        pytest.fail(f"no generator digests recorded for numpy's float64 power "
                    f"dispatch {target}")
    assert h.hexdigest() == GENERATOR_SHA256[target][name]


def test_libsvm_text_digest(tmp_path):
    path = tmp_path / "golden.txt"
    serialize_libsvm(golden_data(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LIBSVM_SHA256


def numpy_dispatch() -> tuple:
    """The targets numpy's float64 ``exp`` and ``log1p`` loops run at here
    (None for a loop numpy does not dispatch on this platform)."""
    info = opt_func_info(func_name="exp|log1p", signature="float64")
    return tuple(info.get(func, {}).get("dd", {}).get("current")
                 for func in ("exp", "log1p"))


def recorded_digest(name):
    """The trace digest recorded for ``name`` under this numpy dispatch."""
    dispatch = numpy_dispatch()
    if dispatch not in TRACE_SHA256:
        pytest.fail(f"no trace digests recorded for numpy's float64 exp/log1p "
                    f"dispatch {dispatch}")
    return TRACE_SHA256[dispatch][name]


def trace_digest(name):
    objective = OBJECTIVES.get(name, logistic_l2)(golden_data())
    trace = run(CONFIGS[name], objective)
    text = "".join(line + "\n" for line in trace_csv_lines(trace))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_digest(name):
    assert trace_digest(name) == recorded_digest(name)


def _gathered(eval_sums):
    """eval_sums on a writable copy of ``rows``: the objective copies the
    rows up to the last stop again, and gathers each batch into a new entry."""
    def wrapper(self, w, rows, spans=None):
        return eval_sums(self, w, np.array(rows), spans)
    return wrapper


# eval_sums as it is, or wrapped, for every batch of a run outside strategy
# 2 (whose rows are drawn afresh and writable): all their row orders (a
# strategy-1 epoch's, a fault layout's, a serial SGD block of draws) are
# read-only, so a plain run keeps each order once and reads every batch in
# place from it, and the wrapper makes every call's rows writable, so each
# call keeps its own copy instead
KERNEL_BRANCHES = {"kept": lambda eval_sums: eval_sums, "gather": _gathered}


@pytest.mark.parametrize("branch", sorted(KERNEL_BRANCHES))
@pytest.mark.parametrize("name", sorted(n for n in CONFIGS
                                        if CONFIGS[n].mode != "strategy2"))
def test_trace_digest_on_each_kernel_branch(name, branch, monkeypatch):
    Objective = objectives.Objective
    monkeypatch.setattr(Objective, "eval_sums",
                        KERNEL_BRANCHES[branch](Objective.eval_sums))
    # for each kept entry: its rows, whether it reads X's own arrays, and
    # whether its rows are a read-only array of their own
    kept, gather = [], Objective._gather

    def spy(self, rows):
        csr = gather(self, rows)
        kept.append((rows, any(np.shares_memory(a, b) for a in csr
                               for b in (self.X.indptr, self.X.indices, self.X.data)),
                     rows.flags.owndata and not rows.flags.writeable))
        return csr
    monkeypatch.setattr(Objective, "_gather", spy)
    assert trace_digest(name) == recorded_digest(name)
    # every entry, on either branch, is a copy of X's rows
    assert kept and not any(in_x for _, in_x, _ in kept)
    if branch == "gather":
        # every entry is a read-only copy the objective made of the
        # wrapper's writable rows, never that array itself
        assert all(copied for *_, copied in kept)
    elif name == "serial_sgd":
        # one entry per block of draws: the run's 300 one-row steps all
        # come from its first block
        assert [rows.size for rows, *_ in kept] == [SERIAL_BLOCK]
