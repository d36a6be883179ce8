"""Shared test fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    from libfilter_ray.context import apply_scale_defaults

    apply_scale_defaults()  # push-based sort exchange
    yield
    ray.shutdown()


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)


def rand_u64(rng, n):
    return rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)


SF_DIR = "/root/testdata/sf0.001"
SF_DIR_01 = "/root/testdata/sf0.01"
