"""Seeded input generation for the sketch-engine benchmark.

Every workload's input is a set of parquet files written from `--seed`
alone, into a directory the benchmark owns. The benchmark runs this module
in a separate process (the load generator is not the system under test, and
its memory must not count towards the driver's peak RSS); the engine reads
only the files it leaves behind.

Layouts (all files under `<work>/`):

- ``lang``: ``documents.parquet`` — synthetic documents with fresh doc ids
  (``libfilter_ray.sources.synth_corpus``), the table the flagship job
  turns into web pages.
- ``domain``: ``rows/part-*.parquet`` — ``(url, domain)`` rows whose domain
  follows a Zipf law over a seeded permutation of domain names.
- ``probe``: ``members.parquet`` — ``(lang, url)`` rows the filters are
  built from; ``stream/part-*.parquet`` — shuffled ``(lang, grp, url)``
  probes, half members drawn with repetition (``grp = lang|m``) and half
  absent (``grp = lang|a``).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

#: doc-id stride between seeds: seed s owns ids [s * ID_STRIDE, ...)
ID_STRIDE = 10_000_000
LANGS = ["en", "zh", "es", "fr", "de"]
#: lang mix of the synthetic corpus (en-heavy, as in the engine's testdata)
LANG_P = [0.40, 0.15, 0.15, 0.15, 0.15]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def write_documents(work: str, seed: int, n_docs: int,
                    row_group: int) -> None:
    from libfilter_ray.sources.synth_corpus import documents_chunk

    lo = seed * ID_STRIDE
    pq.write_table(documents_chunk(lo, lo + n_docs),
                   os.path.join(work, "documents.parquet"),
                   row_group_size=row_group)


def zipf_domains(seed: int, n_rows: int, n_domains: int,
                 skew: float) -> np.ndarray:
    """Domain names per row: rank r is drawn with probability ~ r^-skew,
    and ranks map to a seeded permutation of the names."""
    rng = _rng(seed, 1)
    p = 1.0 / np.arange(1, n_domains + 1, dtype=np.float64) ** skew
    ranks = rng.choice(n_domains, size=n_rows, p=p / p.sum())
    names = np.array([f"d{i:05d}.example.com" for i in
                      rng.permutation(n_domains)], dtype=object)
    return names[ranks]


def write_domains(work: str, seed: int, n_rows: int, n_domains: int,
                  skew: float, n_files: int) -> None:
    dom = zipf_domains(seed, n_rows, n_domains, skew)
    ids = seed * ID_STRIDE + np.arange(n_rows)
    url = np.char.add(np.char.add("https://", dom.astype(str)),
                      np.char.add("/p/", ids.astype(str)))
    d = os.path.join(work, "rows")
    os.makedirs(d, exist_ok=True)
    for k, part in enumerate(np.array_split(np.arange(n_rows), n_files)):
        pq.write_table(pa.table({
            "url": pa.array(url[part].tolist(), type=pa.string()),
            "domain": pa.array(dom[part].tolist(), type=pa.string()),
        }), os.path.join(d, f"part-{k:03d}.parquet"))


def _lang_urls(ids: np.ndarray, langs: pa.Array) -> pa.Array:
    import pyarrow.compute as pc

    from libfilter_ray.sources.webpages import url_of

    src = pc.binary_join_element_wise(
        "src", pc.cast(pa.array(ids % 20), pa.string()), "")
    return url_of(pa.array(ids), langs, src)


def write_probe(work: str, seed: int, n_members: int, n_probes: int,
                n_files: int) -> None:
    rng = _rng(seed, 2)
    lang_names = pa.array(LANGS)
    ids = seed * ID_STRIDE + np.arange(n_members)
    codes = rng.choice(len(LANGS), size=n_members, p=LANG_P)
    langs = lang_names.take(pa.array(codes))
    pq.write_table(pa.table({"lang": langs, "url": _lang_urls(ids, langs)}),
                   os.path.join(work, "members.parquet"))
    half = n_probes // 2
    pick = rng.choice(n_members, size=half)
    absent_ids = seed * ID_STRIDE + n_members + np.arange(n_probes - half)
    absent_codes = rng.choice(len(LANGS), size=len(absent_ids), p=LANG_P)
    probe_codes = np.concatenate([codes[pick], absent_codes])
    lang = lang_names.take(pa.array(probe_codes))
    groups = pa.array([f"{g}|m" for g in LANGS] + [f"{g}|a" for g in LANGS])
    grp = groups.take(pa.array(np.concatenate(
        [codes[pick], absent_codes + len(LANGS)])))
    url = pa.concat_arrays([_lang_urls(ids[pick], lang[:half]),
                            _lang_urls(absent_ids, lang[half:])])
    order = pa.array(rng.permutation(n_probes))
    table = pa.table({"lang": lang, "grp": grp, "url": url}).take(order)
    d = os.path.join(work, "stream")
    os.makedirs(d, exist_ok=True)
    step = -(-n_probes // n_files)
    for k in range(n_files):
        pq.write_table(table.slice(k * step, step),
                       os.path.join(d, f"part-{k:03d}.parquet"))


def generate(kind: str, work: str, seed: int, sizes: dict) -> None:
    """Write one workload's input (`kind` in lang/domain/probe) to `work`."""
    os.makedirs(work, exist_ok=True)
    {"lang": write_documents, "domain": write_domains,
     "probe": write_probe}[kind](work, seed, **sizes)


if __name__ == "__main__":
    # python3 inputs.py <kind> <work dir> <seed> '<sizes as JSON>'
    import json
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    kind, work, seed, sizes = sys.argv[1:5]
    generate(kind, work, int(seed), json.loads(sizes))
