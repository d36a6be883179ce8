"""Gzip'd WARC source + sink — Common Crawl's native archive format.

The reference's only real-corpus reader is caller-side code that streams a
text archive into the filters (``cpp/extras/benchmarks/hibp.cpp:27-31,79-90``);
this module is the same contract for the engine's web-page table: stream the
wire format -> Arrow batches, no external libraries. WARC is the public
ISO 28500 format; the Common Crawl convention is ONE GZIP MEMBER PER RECORD,
members concatenated into a ``.warc.gz`` file, so any record can be
decompressed without touching the rest of the file. Everything here is
stdlib ``zlib``/``gzip`` + pyarrow.

Scale shape: one WARC file per read task (``ray.data.read_binary_files`` ->
a GENERATOR map_batches stage that yields bounded Arrow batches as it walks
the members), so a 1 GB archive never materializes as Python record lists —
the streaming executor sees ~`batch_rows`-row blocks with backpressure.
Writing mirrors the partitioned-sink rule: each task writes its own
``.warc.gz`` shard and emits a manifest row, so a failed run skips finished
shards.
"""

from __future__ import annotations

import gzip
import zlib
from calendar import timegm
from datetime import datetime, timezone

import numpy as np
import pyarrow as pa

_CRLF2 = b"\r\n\r\n"


def _warc_date(ts_us: int) -> str:
    """WARC-Date (WARC 1.0 mandates second precision, UTC, 'Z')."""
    return datetime.fromtimestamp(ts_us // 1_000_000, tz=timezone.utc) \
        .strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_warc_date(s: str) -> int:
    """WARC-Date -> epoch µs. WARC 1.0 mandates second precision (what
    our writer emits); WARC 1.1 allows fractional seconds and real
    crawlers (warcio et al.) emit them — accept up to µs so the
    Common-Crawl on-ramp doesn't die on a legal date."""
    frac_us = 0
    if "." in s:
        base, _, frac = s.rstrip("Z").partition(".")
        frac_us = int((frac + "000000")[:6])
        s = base + "Z"
    return timegm(datetime.strptime(
        s, "%Y-%m-%dT%H:%M:%SZ").timetuple()) * 1_000_000 + frac_us


def _record_bytes(warc_type: str, headers: list[tuple[str, str]],
                  payload: bytes) -> bytes:
    head = [b"WARC/1.0",
            b"WARC-Type: " + warc_type.encode()]
    head += [k.encode() + b": " + v.encode() for k, v in headers]
    head.append(b"Content-Length: " + str(len(payload)).encode())
    return b"\r\n".join(head) + _CRLF2 + payload + _CRLF2


def _record_id(seed: int) -> str:
    """Deterministic urn:uuid record id (no external data / randomness)."""
    from ..sketch.hashing import splitmix64

    a = int(splitmix64(np.array([seed], dtype=np.uint64), seed=0xA1)[0])
    b = int(splitmix64(np.array([seed], dtype=np.uint64), seed=0xB2)[0])
    h = f"{a:016x}{b:016x}"
    return (f"<urn:uuid:{h[0:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-"
            f"{h[20:32]}>")


def warcinfo_member(filename: str) -> bytes:
    """The leading warcinfo record (gzip member) every Common-Crawl-style
    file starts with — readers must skip non-response records."""
    fields = (b"software: libfilter-ray warc writer\r\n"
              b"format: WARC File Format 1.0\r\n")
    rec = _record_bytes("warcinfo", [
        ("WARC-Record-ID", _record_id(0)),
        ("WARC-Date", _warc_date(0)),
        ("WARC-Filename", filename),
        ("Content-Type", "application/warc-fields"),
    ], fields)
    return gzip.compress(rec, mtime=0)


def response_member(url: str, ts_us: int, html: bytes) -> bytes:
    """One response record as its own gzip member: WARC headers wrapping a
    full HTTP/1.1 response whose body is the page bytes."""
    http = (b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/html; charset=utf-8\r\n"
            b"Content-Length: " + str(len(html)).encode() + _CRLF2 + html)
    rec = _record_bytes("response", [
        ("WARC-Record-ID", _record_id(ts_us ^ len(html))),
        ("WARC-Date", _warc_date(ts_us)),
        ("WARC-Target-URI", url),
        ("Content-Type", "application/http; msgtype=response"),
    ], http)
    return gzip.compress(rec, mtime=0)


def write_warc_gz(path: str, urls, ts_us, htmls) -> int:
    """Write a `.warc.gz` file (warcinfo member + one response member per
    row) such that read_warc(path) returns exactly (url, warc_ts
    floored to seconds, html). Returns the record count. I/O path — the
    per-record loop is the format, not a hot kernel."""
    name = path.rsplit("/", 1)[-1]
    with open(path, "wb") as f:
        f.write(warcinfo_member(name))
        n = 0
        for url, ts, html in zip(urls, ts_us, htmls):
            f.write(response_member(str(url), int(ts), bytes(html)))
            n += 1
    return n


def _gzip_members(data: bytes):
    """Yield the decompressed bytes of each gzip member in `data` —
    Common Crawl's record-per-member layout, stdlib zlib only."""
    pos = 0
    while pos < len(data):
        d = zlib.decompressobj(wbits=31)
        try:
            out = d.decompress(data[pos:]) + d.flush()
        except zlib.error as e:
            raise ValueError(f"corrupt gzip member at offset {pos}: {e}")
        if not d.eof:
            raise ValueError(f"truncated gzip member at offset {pos}")
        yield out
        pos = len(data) - len(d.unused_data)


def _parse_record(rec: bytes):
    """One raw WARC record -> (warc_type, headers dict lower-cased,
    payload bytes)."""
    cut = rec.find(_CRLF2)
    if cut < 0:
        raise ValueError("malformed WARC record: no header terminator")
    lines = rec[:cut].split(b"\r\n")
    if not lines[0].startswith(b"WARC/"):
        raise ValueError(f"not a WARC record: {lines[0][:20]!r}")
    headers: dict[str, str] = {}
    for ln in lines[1:]:
        k, _, v = ln.partition(b":")
        headers[k.strip().lower().decode()] = v.strip().decode()
    length = int(headers["content-length"])
    payload = rec[cut + 4:cut + 4 + length]
    if len(payload) != length:
        raise ValueError("truncated WARC record payload")
    return headers.get("warc-type", ""), headers, payload


def iter_warc_records(data: bytes):
    """Yield (url, warc_ts_us, html) for every RESPONSE record in a WARC
    file's bytes — gzip'd (member-per-record) or plain, auto-detected.
    warcinfo/request/metadata records are skipped, as a Common Crawl
    reader must."""
    if data[:2] == b"\x1f\x8b":
        records = _gzip_members(data)
    else:
        def _plain(d: bytes):
            pos = 0
            while pos < len(d):
                cut = d.find(_CRLF2, pos)
                if cut < 0:
                    raise ValueError("malformed WARC record: no header "
                                     "terminator")
                head = d[pos:cut]
                length = None
                for ln in head.split(b"\r\n"):
                    k, _, v = ln.partition(b":")
                    if k.strip().lower() == b"content-length":
                        length = int(v)
                if length is None:
                    raise ValueError("WARC record missing Content-Length")
                end = cut + 4 + length
                yield d[pos:end + 4]
                pos = end + 4
        records = _plain(data)
    for rec in records:
        wtype, headers, payload = _parse_record(rec)
        if wtype != "response":
            continue
        body_cut = payload.find(_CRLF2)  # end of the HTTP header block
        html = payload[body_cut + 4:] if body_cut >= 0 else payload
        yield (headers["warc-target-uri"],
               _parse_warc_date(headers["warc-date"]),
               html)


def parse_warc_stage(batch_rows: int = 512):
    """GENERATOR map_batches fn over read_binary_files rows: walks each
    file's gzip members and yields (url, warc_ts, html) batches of
    ~`batch_rows` rows — a 1 GB archive streams through in bounded
    blocks instead of materializing as one Python list."""
    def fn(t: pa.Table):
        urls: list[str] = []
        tss: list[int] = []
        htmls: list[bytes] = []

        def flush() -> pa.Table:
            out = pa.table({
                "url": pa.array(urls, type=pa.string()),
                "warc_ts": pa.array(tss, type=pa.timestamp("us")),
                "html": pa.array(htmls, type=pa.binary()),
            })
            urls.clear(), tss.clear(), htmls.clear()
            return out

        for blob in t["bytes"]:
            for url, ts_us, html in iter_warc_records(blob.as_py()):
                urls.append(url)
                tss.append(ts_us)
                htmls.append(html)
                if len(urls) >= batch_rows:
                    yield flush()
        if urls:
            yield flush()

    return fn


def read_warc(paths, *, batch_rows: int = 512):
    """Ray Dataset of (url, warc_ts, html) response records from one or
    more `.warc.gz` (or plain `.warc`) files — one file per read task,
    streamed out in bounded batches."""
    import ray.data

    return ray.data.read_binary_files(paths).map_batches(
        parse_warc_stage(batch_rows), batch_format="pyarrow")


def shard_name(table: pa.Table) -> str:
    """Deterministic, content-derived shard name for one batch: a min
    key hash alone is NOT unique when the key column repeats across
    batches (a lang key, recrawled urls), so two concurrent tasks would
    silently overwrite each other's shard and the manifest would
    over-report rows. Digesting the batch's FULL Arrow IPC bytes keys
    the file to its content: a re-run of the same input block lands on
    the same file (idempotent overwrite), while distinct batches can
    collide only on a blake2b accident."""
    import hashlib

    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table.combine_chunks())
    d = hashlib.blake2b(sink.getvalue(), digest_size=12).hexdigest()
    return f"shard-{d}"


def write_warc_shards_stage(out_dir: str):
    """map_batches fn turning a web-page batch (url, warc_ts, html) into
    ONE `.warc.gz` shard under `out_dir` + a manifest row
    (shard_path, n_records) — the resumable partitioned-sink shape: a
    shard is named by the batch's key-multiset hash (`shard_name`), so
    re-running a finished input block overwrites its own file
    idempotently instead of appending a duplicate, and batches sharing
    a min key never clobber each other."""
    import pyarrow.compute as pc

    def fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"shard_path": pa.array([], type=pa.string()),
                             "n_records": pa.array([], type=pa.int64())})
        path = f"{out_dir}/{shard_name(t)}.warc.gz"
        ts = pc.cast(t["warc_ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        n = write_warc_gz(path, t["url"].to_pylist(), ts,
                          t["html"].to_pylist())
        return pa.table({"shard_path": pa.array([path]),
                         "n_records": pa.array([n], type=pa.int64())})

    return fn
