"""Golden digests of generated data, its LIBSVM text and nine run traces.

The digests pin the byte-identical rerun guarantee across refactors of the
data path and the driver: any change to the synthetic generator's stream,
the CSR layout, the text format or the order of floating-point reductions
in a run shows up here. They were recorded once and must not be re-recorded
to make a change pass.
"""
import hashlib

import numpy as np
import pytest

from mblbfgs import (RunConfig, constant, logistic_l2, make_synthetic, quadratic, run,
                     serialize_libsvm, sigmoid_lsq)
from mblbfgs import objectives
from mblbfgs.experiment import trace_csv_lines

DATA_SHA256 = "388d376e38140f1f47cbd99163a4395136256b86907fd6284284cb95290b38ab"
LIBSVM_SHA256 = "015dbe5e3eda24068bf86e9eb9a7dc5338d7aeba1f8295d052ef94492114fb37"
TRACE_SHA256 = {
    "strategy1": "38af1d8367e35fa6ffba175d242ea689babb033e7de17d4c0a8750b7c2071164",
    # the full batch, reordered every epoch
    "strategy1_full": "5dc5058c93cd1acadfce4f6f8ebc9cf5607349abd215c2899e5f73cfff79eccf",
    "strategy2": "20cce47c8e35bb445c905bde385e7d39329d2c9efe72d5c336fd8bcae0b72b96",
    "fault": "a3a8082c425dab8e8fa3329fbffffaadfefe8a4400e0b2ab37a4e453f9b80b43",
    "serial_sgd": "b44471733089ecf267d92a42ca2991f5279767090811099b18082d5c86aad453",
    # fault-mode paths the four above miss: a new shard layout every epoch,
    # responder coverage low enough for the row-gather branch of eval_sums,
    # and the two other objective kinds
    "fault_reshard": "8e1b41dd3fc7823b9e1b9fe4223bfacabba05fce82535a4f286902b68e5c94ed",
    "fault_p07": "018256b733d398c81819ef8ef87e0878fa9bd733c44f0c80425818a1b7b3c0ff",
    "fault_sigmoid_lsq": "22b6faa3022b018f189ce0b7dc45c2e4720c7681c160b0f23bc8bfcebbd4d835",
    "fault_quadratic": "f325047c7a9a8b88734e92222cb04e5cb3d395fb9279e1b505edb32976a619c5",
}
CONFIGS = {
    "strategy1": RunConfig(mode="strategy1", batch_frac=0.1, epochs=3, seed=0),
    "strategy1_full": RunConfig(mode="strategy1", batch_frac=1.0, epochs=10, seed=0),
    "strategy2": RunConfig(mode="strategy2", batch_frac=0.1, epochs=3, seed=0),
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


def test_libsvm_text_digest(tmp_path):
    path = tmp_path / "golden.txt"
    serialize_libsvm(golden_data(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LIBSVM_SHA256


def trace_digest(name):
    objective = OBJECTIVES.get(name, logistic_l2)(golden_data())
    trace = run(CONFIGS[name], objective)
    text = "".join(line + "\n" for line in trace_csv_lines(trace))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_digest(name):
    assert trace_digest(name) == TRACE_SHA256[name]


def _gathered(eval_sums):
    """eval_sums on a writable copy of ``rows``: nothing is kept, every
    batch is gathered."""
    def wrapper(self, w, rows, spans=None):
        return eval_sums(self, w, np.array(rows), spans)
    return wrapper


# eval_sums as it is, or wrapped, for every batch of a strategy-1 or fault
# run: all their row orders are read-only, so a plain run reads each batch
# in place from the kept copy, and the wrapper gathers each one instead
KERNEL_BRANCHES = {"kept": lambda eval_sums: eval_sums, "gather": _gathered}


@pytest.mark.parametrize("branch", sorted(KERNEL_BRANCHES))
@pytest.mark.parametrize("name", sorted(n for n in CONFIGS
                                        if n.startswith(("fault", "strategy1"))))
def test_trace_digest_on_each_kernel_branch(name, branch, monkeypatch):
    Objective = objectives.Objective
    monkeypatch.setattr(Objective, "eval_sums",
                        KERNEL_BRANCHES[branch](Objective.eval_sums))
    kept, keep = [], Objective._keep
    monkeypatch.setattr(Objective, "_keep",
                        lambda self, *args: kept.append(1) or keep(self, *args))
    assert trace_digest(name) == TRACE_SHA256[name]
    assert bool(kept) == (branch == "kept")
