"""Entry-point context posture (libfilter_ray/context.py): push-based
sort exchange pinned."""
from __future__ import annotations


def _strategy():
    from ray.data import DataContext

    return DataContext.get_current().shuffle_strategy


def test_default_is_push_based():
    from ray.data.context import ShuffleStrategy

    from libfilter_ray.context import apply_scale_defaults

    apply_scale_defaults()
    assert _strategy() == ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

