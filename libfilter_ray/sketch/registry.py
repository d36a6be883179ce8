"""Sketch protocol + registry.

The engine equivalent of the reference's duck-typed filter protocol
(``cpp/include/filter/block.hpp:109-128`` templates;
``java/.../Filter.java``/``Growable.java`` interfaces — SURVEY.md §2.10):
every sketch is a class with

    create(**params)          constructor
    update(arr)               vectorized accumulate; arr is a u64 hash array
                              for INPUT="hashes" kinds, float64 values for
                              INPUT="values" kinds
    merge(other) -> self      associative + commutative combine
    finalize() -> self        freeze/compact (optional no-op)
    to_bytes() / from_bytes   self-describing payload (except BlockBloom,
                              whose raw format is pinned to the reference's)
    build_keys(params, hashes, bounds)
                              optional classmethod: the to_bytes() of one
                              fresh sketch per key, key i fed
                              hashes[bounds[i]:bounds[i+1]] -- the same
                              bytes as the per-key loop (TaffyBlock only)

New sketches register with @register and become available to config-driven
pipelines by `kind` string.
"""

from __future__ import annotations

from typing import Callable

_REGISTRY: dict[str, type] = {}


def register(cls: type) -> type:
    _REGISTRY[cls.kind] = cls
    return cls


def get(kind: str) -> type:
    _ensure_builtins()
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise KeyError(f"unknown sketch kind {kind!r}; "
                       f"known: {sorted(_REGISTRY)}") from None


def kinds() -> list[str]:
    _ensure_builtins()
    return sorted(_REGISTRY)


def make(kind: str, **params):
    return get(kind)(**params)


def factory(kind: str, **params) -> Callable[[], object]:
    """A picklable zero-arg constructor for use inside Ray tasks
    (functools.partial, not a lambda — survives plain pickle too)."""
    import functools

    return functools.partial(get(kind), **params)


_builtins_installed = False


def _ensure_builtins() -> None:
    """Deferred to first lookup: installing eagerly at registry-import time
    creates a cycle (sketch modules import `register` from here while their
    own module bodies are still executing)."""
    global _builtins_installed
    if _builtins_installed:
        return
    _builtins_installed = True
    from .block_bloom import BlockBloom
    register(BlockBloom)
    from . import taffy_block  # noqa: F401  (self-registers)
    from . import taffy_cuckoo  # noqa: F401
    from . import hll  # noqa: F401
    from . import cms  # noqa: F401
    from . import tdigest  # noqa: F401
    from . import kll  # noqa: F401
    from . import xor_static  # noqa: F401
    from . import minimal_taffy_cuckoo  # noqa: F401
