"""Evaluation is thread-safe: the closed-form Ricci, the ten residuals
and the FD oracle's Ricci, Einstein residual and Laplacian, run from 4
threads at once on one batch, give the bits of a serial run."""

import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np

from biconf import (
    ExpressionField,
    einstein_residual_fd,
    einstein_residuals,
    frame_to_coords,
    laplace_beltrami_fd,
    metric_of,
    ricci_fd,
    ricci_frame,
)
from helpers import random_pair

THREADS = 4


def test_threads_give_the_bits_of_a_serial_run():
    d = random_pair(np.random.default_rng(41))
    g = metric_of(d)
    p = np.array(list(product((-0.3, 0.0, 0.3), repeat=4)))  # one 3^4 batch
    f = ExpressionField("x1*x3 + x2^2")
    evaluations = [
        lambda: frame_to_coords(ricci_frame(d, p)),
        lambda: ricci_fd(g, p),
        lambda: einstein_residuals(d, 0.5, p),
        lambda: einstein_residual_fd(g, 0.5, p),
        lambda: laplace_beltrami_fd(g, f, p),
    ]
    serial = [evaluate().tobytes() for evaluate in evaluations]
    start = threading.Barrier(THREADS)

    def together(k):
        start.wait(timeout=60)  # each round of THREADS tasks starts at once
        return evaluations[k]().tobytes()

    tasks = [k for _ in range(THREADS) for k in range(len(evaluations))]
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        results = list(pool.map(together, tasks))
    assert results == [serial[k] for k in tasks]
