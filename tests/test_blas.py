"""OpenBLAS's thread count around pretraining and in the part worker."""

import os

import pytest

from promptmoe import blas, pretrain as pt, trainer as tr
from promptmoe.linalg import RngStream
from promptmoe.model import ToyLM

TINY = pt.PretrainConfig(hidden=16, layers=1, heads=2, max_seq=64, docs=60, steps=2, batch_size=4)


@pytest.fixture
def threads():
    functions = blas.thread_functions()
    if functions is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS found in the process")
    get, put = functions
    before = get()
    put(2)
    yield get
    put(before)


def test_one_thread_restores_the_count(threads):
    with blas.one_thread():
        assert threads() == 1
    assert threads() == 2
    with pytest.raises(RuntimeError):
        with blas.one_thread():
            raise RuntimeError
    assert threads() == 2


def test_pretraining_runs_blas_on_one_thread(threads):
    seen = []
    pt.pretrain_base(TINY, log_every=1, log_fn=lambda line: seen.append(threads()))
    assert seen == [1, 1]
    assert threads() == 2


def test_the_part_worker_runs_blas_on_one_thread(threads):
    lm = ToyLM.create(TINY.lm_config(), RngStream(0).child("lm_init"))
    batch = pt._doc_batch(pt.gen_corpus(4, 0), [[i] for i in range(4)], 24)

    def forward(part, extra):
        loss, _ = lm.loss_on_tokens(part)
        return loss, (os.getpid(), threads())

    with tr.part_worker(forward, {}) as worker:
        _, _, seen = tr.part_step(worker, forward, batch, 0, None, {}, 1)
    assert seen[0] == (os.getpid(), 1)
    assert seen[1][0] != os.getpid() and seen[1][1] == 1
    assert threads() == 2
