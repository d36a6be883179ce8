"""Engine-wide Ray Data context posture for scale-safe execution.

`apply_scale_defaults` is called by the engine's ENTRY POINTS
(`__ray_entry__`, `bench.py`, `scale_campaign.py`, the job CLI, the
test session fixture) — never on library import, so embedding
`libfilter_ray` in a host application cannot silently mutate that
application's DataContext.

Why it exists (BASELINE.md §sf1.0, measured 2026-08): Ray 2.49's
default PULL-BASED sort exchange — the engine under every
`groupby(...).map_groups(...)`, `sort(...)` and sort-based aggregate —
grows the DRIVER process heap with the volume of shuffled data:

    pull-based, 2M wide rows (text payload)   driver +1,270 MB
    pull-based, 10M narrow rows               driver +  277 MB
    push-based, same jobs                     driver flat (~110-140 MB)

i.e. ~20-80 B/row plus ~1 B/payload-byte lands on the driver, which at
the 10^12-row design target is a driver OOM no matter how carefully the
pipelines themselves avoid collects. The PUSH-BASED sort strategy is
the same range-partitioned sort (identical results, same operators,
same wall time in our measurements) with the exchange performed by
worker-side merge tasks, keeping the driver flat. We therefore pin it.
(`ShuffleStrategy.HASH_SHUFFLE` is also driver-flat but was slower on
small inputs in our measurements.)
"""
from __future__ import annotations


def apply_scale_defaults() -> None:
    """Pin the scale-safe Ray Data context defaults (idempotent)."""
    from ray.data import DataContext

    try:
        from ray.data.context import ShuffleStrategy
    except ImportError:  # future Ray versions: keep their default
        return
    DataContext.get_current().shuffle_strategy = \
        ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
