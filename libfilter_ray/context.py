"""Engine-wide Ray Data context posture for scale-safe execution.

`apply_scale_defaults` is called by the engine's ENTRY POINTS
(`__ray_entry__`, `bench.py`, `scale_campaign.py`, the job CLI, the
test session fixture, the tools) — never on library import, so
embedding `libfilter_ray` in a host application cannot silently mutate
that application's DataContext. It pins two things.

**Push-based sort exchange** (BASELINE.md §sf1.0, measured 2026-08).
Ray 2.49's default PULL-BASED sort exchange — the engine under every
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
small inputs in our measurements.) The pin serves the query families;
the sketch engine's keyed merge runs no Ray Data shuffle.

**Read blocks of at least `MIN_BLOCK_BYTES`** (8 MiB). A read with no
`parallelism=` cuts its input into `max(min(200, size / min_block),
size / 128 MiB, 2 × CPUs)` blocks, `size` being its estimated in-memory
bytes (Ray 2.49, `ray/data/_internal/util.py:_autodetect_parallelism`),
and every block becomes one task of each map after the read. Ray's
default minimum of 1 MiB makes blocks whose work (~13 ms per MiB for the
flagship's synthesize-extract-build map, ~6 ms for the probe's) is about
what one task costs to schedule (~8-13 ms on one core), so most of a
job's wall was task overhead. At 8 MiB a block carries many times that
fixed cost. Median job wall (s) of the benchmark's lang-build and probe
jobs (`perfbench/`, seeds 1 / 2, one run each) on one CPU, by minimum
block size:

    MiB    1          2          4          8          16         32
    lang   0.79/0.88  0.63/0.66  0.53/0.57  0.64/0.60  0.63/0.57  0.63/0.61
    probe  3.51/3.66  1.71/1.76  1.18/1.14  0.96/0.82  0.81/0.65  0.86/0.68

At 8 MiB the probe has most of its gain; 16 and 32 MiB only cut its
four files into two blocks. The lang input is at its floor of 2 blocks
from 8 MiB up and ran fastest at 4 MiB (3 blocks). Its larger blocks
paid for fresh pages: under Arrow's default (jemalloc) pool its
synthesize and extract maps took ~45k more minor page faults per job at
8 MiB than at 1 MiB (~0.12 s of map time), and none under the system
allocator, which Ray workers now use (`_alloc.py`), so the sweep above
overstates the cost of large blocks. A larger floor would also raise
the block size, and so each task's memory, of every read above 16 MiB
per CPU on a larger host.
Ray's other limits stay as they were:

- the floor of 2 blocks per CPU still wins for any input under
  16 MiB per CPU, so every CPU still gets at least two tasks;
- the cap of 200 blocks and 128 MiB per block still applies, so
  nothing changes for reads above 200 × 8 MiB = 1.6 GiB;
- a read cut into more blocks than it has read tasks splits each
  task's output (`SplitBlocks`) and cannot fuse with the map after it
  (`ray/data/_internal/logical/rules/operator_fusion.py`); with larger
  blocks that split is needed less often, and every operator after the
  read, the keyed merge included, sees fewer blocks. `read_parquet`
  has one read task per file, so a one-file read is always split.
  `read_webpages` has one read task per run of consecutive row groups
  instead, and its read is split only when the file has fewer row
  groups than the read wants blocks (the benchmark's lang input, 8 row
  groups, reads as 2 unsplit blocks fused with every map after them).

`read_webpages(parallelism=)` still sets the block count outright.
"""
from __future__ import annotations

#: Ray Data's `target_min_block_size` under the posture: the smallest
#: block a read with no `parallelism=` cuts (Ray's default is 1 MiB).
MIN_BLOCK_BYTES = 8 << 20


def apply_scale_defaults() -> None:
    """Pin the scale-safe Ray Data context defaults (idempotent): the
    push-based sort exchange, and reads cut into blocks of at least
    `MIN_BLOCK_BYTES`, so that each block's work outweighs the fixed
    cost of the task that carries it."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.target_min_block_size = MIN_BLOCK_BYTES
    try:
        from ray.data.context import ShuffleStrategy
    except ImportError:  # future Ray versions: keep their default
        return
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
