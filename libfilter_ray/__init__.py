"""libfilter_ray — a Ray-Data-native distributed sketch / approximate-aggregation engine.

Reimplements the capabilities of jbapple/libfilter (block / split-block Bloom,
taffy-block, taffy-cuckoo, static xor filters) plus HLL, count-min, t-digest and
KLL as *mergeable UDAFs* driven by ``ray.data.Dataset.map_batches`` over
zero-copy Arrow batches, with one keyed merge of per-block partials (one
task for a small partial set, a key-hash exchange for a large one) and
per-partition checkpoint/resume.

Layout:
  sketch/     pure numpy/Python kernels (no Ray imports)
  sources/    table readers + deterministic web-page synthesis
  stages/     Ray Data stages (extract, sketch build, probe, partitioning)
  functions/  text statistics, shingle hashing, sequence packing
  pipelines/  end-to-end pipelines + the queries()/oracle_sql() registry
  state/      checkpoint/resume
"""

__version__ = "0.1.0"

from ._alloc import tune_allocator as _tune_allocator

_tune_allocator()  # see _alloc.py — first-touch page faults are ~100x cost here
