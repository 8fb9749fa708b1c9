"""OpenBLAS's thread count around pretraining."""

import pytest

from promptmoe import blas, pretrain as pt

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
