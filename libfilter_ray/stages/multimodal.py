"""Multimodal column plumbing: opaque binary payloads + typed metadata,
processed by actor-pool map_batches stages.

Decode status, honestly split by format family:
- UNCOMPRESSED formats decode for REAL — no codec library needed:
  binary-P6 PPM images (`decode_ppm` / `PpmFeatureStage`: header scan +
  numpy reshape, block-mean thumbnail resize) and RIFF/WAVE PCM16 audio
  (`decode_wav` / `WavFeatureStage`: chunk walk + int16 view). Both are
  driver-gated with SQL oracles that recompute every pixel/sample.
- PNG decodes for REAL too (`decode_png` / `PngFeatureStage`): PNG is
  zlib-compressed filtered scanlines, so stdlib zlib + exact numpy
  unfiltering (all five filter types, CRC-verified chunk walk,
  multi-IDAT) is a complete decoder — driver-gated like PPM.
- VIDEO decodes for REAL as YUV4MPEG2 (`decode_y4m` /
  `Y4mFrameSampleStage`): the standard uncompressed interchange format
  is an ASCII header + raw C420 planes per FRAME marker, so frame
  sampling operates on actually-decoded frames — driver-gated
  (`y4m_frame_sample` recomputes every sampled pixel).
- OTHER compressed formats (JPEG/WebP/MP3/...) stay stubbed — the
  container has no codecs; `codec="real"` raises at actor construction
  (fail fast, once per actor). Every Ray-side piece is still real and
  tested: schema, small-batch sizing for wide binary rows, actor
  `__init__` setup-once contract, zero-copy buffer access, output
  layout.

At 100 TB: binary payloads dominate block size — callers must cap
`batch_size` (here default 256) and drop the payload column immediately
after feature extraction (`select_columns`), exactly like the html column in
the extract stage (SURVEY.md §7.4 "wide records").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sketch.hashing import splitmix64

IMAGE_META_TYPE = pa.struct([("width", pa.int32()), ("height", pa.int32()),
                             ("format", pa.string())])


def _flat_binary_view(col) -> tuple[np.ndarray, np.ndarray]:
    """(row_offsets rebased to 0, flat byte view) of a binary column.

    Thin adapter over the canonical Arrow-buffer walk
    (`sketch.hashing._binary_array_parts`, which already rebases to the
    rows' byte span) so the offset-dtype handling — including
    large_string/large_binary 64-bit offsets — lives in exactly one place."""
    from ..sketch.hashing import _binary_array_parts

    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    data, starts, _ends = _binary_array_parts(col)
    return np.append(starts, len(data)), data


def attach_fake_images(t: pa.Table, *, id_column: str = "doc_id",
                       min_bytes: int = 256, max_bytes: int = 4096) -> pa.Table:
    """Deterministic synthetic `image` binary column + `image_meta` struct —
    stands in for real WARC/JPEG payloads; pure function of the id column so
    any task/retry produces identical bytes. Vectorized: one RNG stream per
    batch, sliced by per-row offsets."""
    ids = np.asarray(t[id_column].combine_chunks()
                     if isinstance(t[id_column], pa.ChunkedArray)
                     else t[id_column]).astype(np.int64)
    n = len(ids)
    sizes = (splitmix64(ids.view(np.uint64), seed=0x1A6E)
             % np.uint64(max_bytes - min_bytes)).astype(np.int64) + min_bytes
    # one deterministic byte stream per row: splitmix64 counter mode keyed by
    # the row id, expanded 8 bytes at a time, truncated to `sizes`
    total = int(sizes.sum())
    row_of = np.repeat(np.arange(n), sizes)
    pos = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    words = splitmix64(ids.view(np.uint64)[row_of] ^ (pos // 8).astype(np.uint64),
                       seed=0xB17E5)
    data = (words >> np.uint64(8) * (pos % 8).astype(np.uint64)).astype(np.uint8)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    img = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n, [None, pa.py_buffer(offsets.tobytes()),
                               pa.py_buffer(data.tobytes())])
    w = (splitmix64(ids.view(np.uint64), seed=3) % np.uint64(1920)).astype(np.int32) + 32
    h = (splitmix64(ids.view(np.uint64), seed=4) % np.uint64(1080)).astype(np.int32) + 32
    meta = pa.StructArray.from_arrays(
        [pa.array(w), pa.array(h),
         pa.array(np.where(ids % 2 == 0, "jpeg", "png").tolist(),
                  type=pa.string())],  # explicit: [] must not infer null
        fields=list(IMAGE_META_TYPE))
    return t.append_column("image", img).append_column("image_meta", meta)


class ImageFeatureStage:
    """Actor-pool stage: binary image column -> fixed-width feature vector.

    Real decode is NOT available in this container — `codec="real"` raises
    NotImplementedError at actor construction (fail fast, once per actor,
    not per batch). The default deterministic fake computes a 16-bin byte
    histogram per payload, fully vectorized via Arrow offsets +
    np.add.at scatter — the Ray plumbing (setup-once __init__, zero-copy
    buffer walk, output schema) is exactly what a real decoder needs.

    Use: ds.map_batches(ImageFeatureStage, batch_size=256, concurrency=N)
    """

    NUM_BINS = 16

    def __init__(self, codec: str = "fake-histogram"):
        if codec == "real":
            raise NotImplementedError(
                "no image codec in this environment; install pillow/opencv "
                "and implement decode() — the surrounding Ray plumbing is "
                "complete")
        self.codec = codec  # a real stage would load the model/codec HERE

    def __call__(self, t: pa.Table) -> pa.Table:
        offsets, data = _flat_binary_view(t["image"])
        n = len(offsets) - 1
        sizes = np.diff(offsets)
        row_of = np.repeat(np.arange(n, dtype=np.int64), sizes)
        hist = np.zeros((n, self.NUM_BINS), dtype=np.int64)
        np.add.at(hist, (row_of, (data >> 4).astype(np.int64)), 1)
        feat = hist / np.maximum(sizes, 1)[:, None]
        flat = pa.array(feat.astype(np.float32).ravel(), type=pa.float32())
        features = pa.LargeListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * self.NUM_BINS, self.NUM_BINS),
                     type=pa.int64()), flat)
        out = t.drop_columns(["image"])  # wide payload dies here
        return out.append_column("image_features", features) \
            .append_column("image_bytes", pa.array(sizes, type=pa.int64()))


AUDIO_META_TYPE = pa.struct([("sample_rate", pa.int32()),
                             ("n_samples", pa.int32()),
                             ("format", pa.string())])


def attach_fake_audio(t: pa.Table, *, id_column: str = "doc_id",
                      sample_rate: int = 16000, min_ms: int = 40,
                      max_ms: int = 320) -> pa.Table:
    """Deterministic synthetic PCM16 `audio` binary column + `audio_meta`
    struct — stands in for real audio payloads; pure function of the id
    column (retry-safe). Waveform = per-row sine whose frequency/length
    derive from splitmix64(id); fully vectorized over the flat sample
    stream."""
    ids = np.asarray(t[id_column].combine_chunks()
                     if isinstance(t[id_column], pa.ChunkedArray)
                     else t[id_column]).astype(np.int64)
    n = len(ids)
    u = ids.view(np.uint64)
    span_ms = max_ms - min_ms
    n_samp = ((splitmix64(u, seed=0xA0D10) % np.uint64(span_ms))
              .astype(np.int64) + min_ms) * sample_rate // 1000
    freq = (splitmix64(u, seed=0xF2E0) % np.uint64(3800)).astype(np.int64) + 100
    total = int(n_samp.sum())
    row_of = np.repeat(np.arange(n, dtype=np.int64), n_samp)
    pos = np.arange(total, dtype=np.int64) \
        - np.repeat(np.cumsum(n_samp) - n_samp, n_samp)
    wave = (np.sin(2 * np.pi * freq[row_of] * pos / sample_rate)
            * 12000).astype(np.int16)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_samp * 2, out=offsets[1:])
    audio = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n, [None, pa.py_buffer(offsets.tobytes()),
                               pa.py_buffer(wave.tobytes())])
    meta = pa.StructArray.from_arrays(
        [pa.array(np.full(n, sample_rate, dtype=np.int32)),
         pa.array(n_samp.astype(np.int32)),
         pa.array(["pcm_s16le"] * n, type=pa.string())],
        fields=list(AUDIO_META_TYPE))
    return t.append_column("audio", audio).append_column("audio_meta", meta)


class AudioFeatureStage:
    """Actor-pool stage: PCM16 audio column -> per-row features (rms,
    zero-crossing rate, duration_ms). A real decoder (ffmpeg/librosa —
    absent in this container) would slot into __init__/decode; the feature
    math itself is the real thing, vectorized over Arrow offsets with
    np.add.reduceat. Drops the wide audio column in-stage."""

    def __init__(self, codec: str = "pcm_s16le", sample_rate: int = 16000):
        if codec != "pcm_s16le":
            raise NotImplementedError(
                "no audio codec in this environment; raw PCM16 only")
        self.sample_rate = sample_rate

    def __call__(self, t: pa.Table) -> pa.Table:
        offsets, data = _flat_binary_view(t["audio"])
        sizes = np.diff(offsets)
        if (sizes % 2).any():
            # an odd payload would shift every later row's int16 view by a
            # byte — silent garbage stats; enforce the PCM16 contract
            raise ValueError(
                "PCM16 payloads must have even byte length; "
                f"{int((sizes % 2).sum())} rows violate it")
        pcm = data.view(np.int16).astype(np.float64)
        n = len(offsets) - 1
        n_samp = (sizes // 2).astype(np.int64)
        starts = np.cumsum(n_samp) - n_samp
        # Segment reductions run over NON-EMPTY rows only: their starts are
        # strictly increasing and in range, so reduceat boundaries are
        # exact — clamping starts instead would steal samples/crossings
        # from neighboring rows when a payload is empty.
        nz = n_samp > 0
        nz_starts = starts[nz]
        rms = np.zeros(n)
        zc = np.zeros(n, dtype=np.int64)
        if len(nz_starts):
            sq = np.add.reduceat(pcm * pcm, nz_starts)
            rms[nz] = np.sqrt(sq / n_samp[nz])
            if len(pcm) > 1:
                # sign products across sample boundaries; positions that
                # straddle two rows (index nz_starts[j]-1) are masked out
                cross = (pcm[:-1] * pcm[1:] < 0).astype(np.int64)
                cross[nz_starts[1:] - 1] = 0
                zc[nz] = np.add.reduceat(np.r_[cross, 0],
                                         np.minimum(nz_starts,
                                                    len(cross)))
        zcr = np.where(n_samp > 1, zc / np.maximum(n_samp - 1, 1), 0.0)
        # per-row sample rate from audio_meta when present (mixed-rate
        # corpora); constructor default otherwise
        if "audio_meta" in t.column_names:
            meta = t["audio_meta"]
            meta = meta.combine_chunks() \
                if isinstance(meta, pa.ChunkedArray) else meta
            sr = np.asarray(meta.field("sample_rate"), dtype=np.int64)
        else:
            sr = np.full(n, self.sample_rate, dtype=np.int64)
        out = t.drop_columns(["audio"])
        return out.append_column("audio_rms",
                                 pa.array(np.round(rms, 3))) \
            .append_column("audio_zcr", pa.array(np.round(zcr, 5))) \
            .append_column("duration_ms",
                           pa.array(n_samp * 1000 // np.maximum(sr, 1),
                                    type=pa.int64()))


def frame_sample_stage(t: pa.Table, *, every: int = 4,
                       column: str = "image") -> pa.Table:
    """'Video' frame-sampling stub: treat each binary payload as a sequence
    of 64-byte frames and keep every `every`-th — demonstrates the
    offset-arithmetic layout a real frame sampler would use. Output:
    `frames` large_binary (concatenated kept frames) + `n_frames` int64."""
    offsets, data = _flat_binary_view(t[column])
    n = len(offsets) - 1
    sizes = np.diff(offsets)
    # vectorized frame keep-mask over the FLAT byte stream: byte position
    # within its row -> frame index -> keep iff frame_idx % every == 0
    row_of = np.repeat(np.arange(n, dtype=np.int64), sizes)
    pos = np.arange(len(data), dtype=np.int64) \
        - np.repeat(offsets[:-1], sizes)
    keep = ((pos >> 6) % every) == 0
    kept = np.ascontiguousarray(data[keep])
    kept_sizes = np.bincount(row_of[keep], minlength=n).astype(np.int64)
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kept_sizes, out=out_offsets[1:])
    frames = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n, [None, pa.py_buffer(out_offsets.tobytes()),
                               pa.py_buffer(kept.tobytes())])
    n_frames = ((sizes + 63) // 64).astype(np.int64)
    return t.append_column("frames", frames) \
        .append_column("n_frames", pa.array(n_frames, type=pa.int64()))


# ---------------------------------------------------------------------------
# REAL image decode for uncompressed formats (binary P6 PPM) — no codec
# library needed, so this path is NOT stubbed: header parse + numpy
# reshape is the entire decoder.
# ---------------------------------------------------------------------------

def attach_ppm_images(t: pa.Table, *, id_column: str = "doc_id",
                      max_side: int = 24) -> pa.Table:
    """Deterministic VALID binary-P6 PPM payloads per row (pure function
    of the id column — retry-safe): width = 8 + id % (max_side - 7),
    height = 8 + id % (max_side - 9), pixel (y, x, c) =
    (x * (y + 1) + id + c) % 256. The synthesis loop is per row (this is
    a test/bench data generator, not a hot pipeline stage); the pixel
    fill itself is numpy per image."""
    ids = np.asarray(t[id_column].combine_chunks()
                     if isinstance(t[id_column], pa.ChunkedArray)
                     else t[id_column]).astype(np.int64)
    payloads = []
    for i in ids:
        w = int(8 + i % (max_side - 7))
        h = int(8 + i % (max_side - 9))
        y, x, c = np.ogrid[0:h, 0:w, 0:3]
        px = ((x * (y + 1) + int(i) + c) % 256).astype(np.uint8)
        payloads.append(b"P6\n%d %d\n255\n" % (w, h) + px.tobytes())
    return t.append_column("image",
                           pa.array(payloads, type=pa.large_binary()))


def decode_ppm(payload: bytes) -> np.ndarray:
    """(h, w, 3) uint8 array from one binary-P6 PPM payload. Raises
    ValueError on malformed headers or truncated pixel data."""
    if not payload.startswith(b"P6"):
        raise ValueError("not a binary P6 PPM")
    # header = magic, width, height, maxval, then EXACTLY ONE whitespace
    # byte before the body (split() would eat whitespace-valued pixels)
    WS = (9, 10, 13, 32)
    pos, vals = 2, []
    try:
        for _ in range(3):
            while payload[pos] in WS:
                pos += 1
            start = pos
            while payload[pos] not in WS:
                pos += 1
            vals.append(int(payload[start:pos]))
        pos += 1  # the single post-maxval whitespace byte
    except (IndexError, ValueError) as e:
        raise ValueError(f"malformed PPM header: {e}")
    w, h, maxval = vals
    if maxval != 255:
        raise ValueError(f"only maxval 255 supported, got {maxval}")
    body = payload[pos:]
    need = w * h * 3
    if len(body) < need:
        raise ValueError(f"truncated PPM body: {len(body)} < {need}")
    return np.frombuffer(body[:need], dtype=np.uint8).reshape(h, w, 3)


def block_mean_thumbnail(img: np.ndarray, side: int = 4) -> np.ndarray:
    """(side, side) float32 grayscale block-mean downsample — a real
    resize kernel (mean over each cell of a side x side grid; cells are
    as equal as integer division allows)."""
    h, w, _ = img.shape
    gray = img.astype(np.float32).mean(axis=2)
    ys = (np.arange(side + 1) * h) // side
    xs = (np.arange(side + 1) * w) // side
    # integral image -> O(side^2) cell sums regardless of image size
    ii = np.zeros((h + 1, w + 1), dtype=np.float64)
    np.cumsum(np.cumsum(gray, axis=0), axis=1, out=ii[1:, 1:])
    sums = (ii[ys[1:], :][:, xs[1:]] - ii[ys[:-1], :][:, xs[1:]]
            - ii[ys[1:], :][:, xs[:-1]] + ii[ys[:-1], :][:, xs[:-1]])
    areas = np.outer(ys[1:] - ys[:-1], xs[1:] - xs[:-1])
    return (sums / areas).astype(np.float32)


class PpmFeatureStage:
    """Actor-pool stage with REAL decode: binary-P6 PPM column ->
    (width, height, mean R/G/B, side x side gray thumbnail). Per-payload
    header parse + one numpy reshape per image is the whole decoder —
    uncompressed formats need no codec library, so unlike
    ImageFeatureStage(codec='real') this path is not stubbed. Compressed
    formats still raise at construction.

    Use: ds.map_batches(PpmFeatureStage, batch_size=256, concurrency=N)
    """

    def __init__(self, codec: str = "ppm", thumb_side: int = 4):
        if codec != "ppm":
            raise NotImplementedError(
                "only uncompressed binary PPM decodes in this "
                "environment; install pillow/opencv for compressed "
                "formats")
        self.thumb_side = thumb_side

    def __call__(self, t: pa.Table) -> pa.Table:
        offsets, data = _flat_binary_view(t["image"])
        n = len(offsets) - 1
        side = self.thumb_side
        width = np.zeros(n, dtype=np.int64)
        height = np.zeros(n, dtype=np.int64)
        means = np.zeros((n, 3), dtype=np.float64)
        sums = np.zeros((n, 3), dtype=np.int64)
        thumbs = np.zeros((n, side * side), dtype=np.float32)
        for i in range(n):  # per-PAYLOAD decode; pixel math is numpy
            img = decode_ppm(data[offsets[i]:offsets[i + 1]].tobytes())
            height[i], width[i] = img.shape[0], img.shape[1]
            means[i] = img.mean(axis=(0, 1))
            # exact integer channel sums: downstream aggregates stay
            # associative-exact (a float mean-of-means is order-sensitive)
            sums[i] = img.astype(np.int64).sum(axis=(0, 1))
            thumbs[i] = block_mean_thumbnail(img, side).ravel()
        out = t.drop_columns(["image"])  # wide payload dies here
        flat = pa.array(thumbs.ravel(), type=pa.float32())
        thumb_col = pa.LargeListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * side * side, side * side,
                               dtype=np.int64)), flat)
        return out.append_column("width", pa.array(width)) \
            .append_column("height", pa.array(height)) \
            .append_column("mean_r", pa.array(means[:, 0])) \
            .append_column("mean_g", pa.array(means[:, 1])) \
            .append_column("mean_b", pa.array(means[:, 2])) \
            .append_column("n_px", pa.array(width * height)) \
            .append_column("px_sum_r", pa.array(sums[:, 0])) \
            .append_column("px_sum_g", pa.array(sums[:, 1])) \
            .append_column("px_sum_b", pa.array(sums[:, 2])) \
            .append_column("thumbnail", thumb_col)


# ---------------------------------------------------------------------------
# REAL audio container decode (RIFF/WAVE, PCM16) — header walk + numpy
# view; uncompressed audio needs no codec library, so this path is not
# stubbed either.
# ---------------------------------------------------------------------------

def attach_wav_audio(t: pa.Table, *, id_column: str = "doc_id",
                     sample_rate: int = 16000, min_samples: int = 64,
                     max_samples: int = 2048) -> pa.Table:
    """Deterministic VALID little-endian RIFF/WAVE (PCM16 mono) payloads
    per row — pure function of the id column. The waveform is INTEGER
    arithmetic (sample k = ((k * (id + 3)) % 65536) - 32768) so an SQL
    oracle can recompute every sample exactly (a sine would drift on
    ulp-level libm differences). Synthesis loop is per row (test/bench
    generator); the sample fill is numpy per payload."""
    import struct

    ids = np.asarray(t[id_column].combine_chunks()
                     if isinstance(t[id_column], pa.ChunkedArray)
                     else t[id_column]).astype(np.int64)
    payloads = []
    span = max_samples - min_samples
    for i in ids:
        n = int(min_samples + i % span)
        k = np.arange(n, dtype=np.int64)
        samples = ((k * (int(i) + 3)) % 65536 - 32768).astype("<i2")
        data = samples.tobytes()
        hdr = (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
               + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sample_rate,
                                       sample_rate * 2, 2, 16)
               + b"data" + struct.pack("<I", len(data)))
        payloads.append(hdr + data)
    return t.append_column("audio",
                           pa.array(payloads, type=pa.large_binary()))


def decode_wav(payload: bytes):
    """(int16 samples ndarray, sample_rate, n_channels) from one
    RIFF/WAVE payload — walks the chunk list (fmt may be preceded or
    followed by other chunks), PCM16 only. Raises ValueError on
    malformed containers."""
    import struct

    if len(payload) < 12 or payload[:4] != b"RIFF" \
            or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(payload):
        cid = payload[pos:pos + 4]
        (size,) = struct.unpack("<I", payload[pos + 4:pos + 8])
        body = payload[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"truncated {cid!r} chunk")
        if cid == b"fmt ":
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("missing fmt / data chunk")
    audio_fmt, n_ch, rate, _bps, _align, bits = fmt
    if audio_fmt != 1 or bits != 16:
        raise ValueError(
            f"only PCM16 supported, got format {audio_fmt}/{bits}-bit")
    return np.frombuffer(data, dtype="<i2"), rate, n_ch


# ---------------------------------------------------------------------------
# REAL video container decode — YUV4MPEG2 (.y4m), the standard
# uncompressed video interchange format (ffmpeg/mjpegtools): an ASCII
# stream header, then raw C420 planes per FRAME marker. No codec needed,
# so frame sampling operates on REAL decoded frames, not a stub.
# ---------------------------------------------------------------------------

Y4M_MAGIC = b"YUV4MPEG2"


def encode_y4m(y: np.ndarray, u: np.ndarray, v: np.ndarray,
               fps: str = "25:1") -> bytes:
    """Valid .y4m bytes from (n, h, w) luma + (n, h/2, w/2) chroma
    planes (C420, 8-bit)."""
    n, h, w = y.shape
    if u.shape != (n, h // 2, w // 2) or v.shape != u.shape:
        raise ValueError("chroma planes must be (n, h/2, w/2) C420")
    out = [b"YUV4MPEG2 W%d H%d F%s Ip A1:1 C420\n"
           % (w, h, fps.encode())]
    for f in range(n):
        out.append(b"FRAME\n")
        out.append(y[f].astype(np.uint8).tobytes())
        out.append(u[f].astype(np.uint8).tobytes())
        out.append(v[f].astype(np.uint8).tobytes())
    return b"".join(out)


def decode_y4m(payload: bytes):
    """((n, h, w) luma, (n, h/2, w/2) u, v) uint8 planes from one .y4m
    payload — ASCII stream-header parse (W/H/C tags), FRAME walk, plane
    slicing. C420 family only (C420 / C420jpeg / C420mpeg2 share the
    plane layout); other chroma modes raise ValueError."""
    if not payload.startswith(Y4M_MAGIC):
        raise ValueError("not a YUV4MPEG2 payload")
    nl = payload.find(b"\n")
    if nl < 0:
        raise ValueError("truncated y4m stream header")
    w = h = None
    chroma = "420"
    for tag in payload[len(Y4M_MAGIC):nl].split(b" "):
        if not tag:
            continue
        k, val = tag[:1], tag[1:]
        if k == b"W":
            w = int(val)
        elif k == b"H":
            h = int(val)
        elif k == b"C":
            chroma = val.decode()
    if w is None or h is None:
        raise ValueError("y4m header missing W/H")
    if chroma not in ("420", "420jpeg", "420mpeg2", "420paldv"):
        # NOT a prefix test: C420p10 / C420p12 are 2-byte-per-sample
        # variants that do not share the 8-bit plane layout below
        raise ValueError(f"only 8-bit C420 family supported, got "
                         f"C{chroma}")
    if w % 2 or h % 2:
        raise ValueError(f"C420 needs even dimensions, got {w}x{h}")
    ysz, csz = w * h, (w // 2) * (h // 2)
    fsz = ysz + 2 * csz
    ys, us, vs = [], [], []
    pos = nl + 1
    while pos < len(payload):
        if not payload.startswith(b"FRAME", pos):
            raise ValueError(f"expected FRAME marker at offset {pos}")
        fnl = payload.find(b"\n", pos)
        if fnl < 0 or pos + 5 > len(payload):
            raise ValueError("truncated FRAME header")
        pos = fnl + 1
        if pos + fsz > len(payload):
            raise ValueError("truncated frame planes")
        buf = np.frombuffer(payload, dtype=np.uint8, count=fsz,
                            offset=pos)
        ys.append(buf[:ysz].reshape(h, w))
        us.append(buf[ysz:ysz + csz].reshape(h // 2, w // 2))
        vs.append(buf[ysz + csz:].reshape(h // 2, w // 2))
        pos += fsz
    if not ys:
        raise ValueError("y4m stream has no frames")
    return np.stack(ys), np.stack(us), np.stack(vs)


#: fixed synthesis dimensions (even, C420-compatible); frame count varies
Y4M_W, Y4M_H = 16, 12


def attach_y4m_videos(t: pa.Table, *, id_column: str = "doc_id",
                      max_frames: int = 12) -> pa.Table:
    """Deterministic VALID .y4m payloads per row (pure function of the
    id column — retry-safe): n_frames = 2 + id % (max_frames - 1),
    luma(f, y, x) = (x * (y + 1) + 7 * f + id) % 256, chroma planes
    constant per frame (U = (id + 5 f) % 256, V = (id + 11 f) % 256) —
    all integer arithmetic so an SQL oracle recomputes every sampled
    pixel."""
    ids = np.asarray(t[id_column].combine_chunks()
                     if isinstance(t[id_column], pa.ChunkedArray)
                     else t[id_column]).astype(np.int64)
    w, h = Y4M_W, Y4M_H
    payloads = []
    for i in ids:
        n = int(2 + i % (max_frames - 1))
        f, y, x = np.ogrid[0:n, 0:h, 0:w]
        luma = ((x * (y + 1) + 7 * f + int(i)) % 256).astype(np.uint8)
        fr = np.arange(n)
        u = np.broadcast_to(((int(i) + 5 * fr) % 256).astype(np.uint8)
                            [:, None, None], (n, h // 2, w // 2))
        v = np.broadcast_to(((int(i) + 11 * fr) % 256).astype(np.uint8)
                            [:, None, None], (n, h // 2, w // 2))
        payloads.append(encode_y4m(luma, np.ascontiguousarray(u),
                                   np.ascontiguousarray(v)))
    return t.append_column("video",
                           pa.array(payloads, type=pa.large_binary()))


class Y4mFrameSampleStage:
    """Actor-pool stage with REAL video decode: .y4m column -> per-row
    (n_frames, n_sampled, mean luma / U / V over every `every`-th
    frame). The container walk is per payload; plane math is numpy.
    Compressed video raises at construction — honestly stubbed like
    JPEG."""

    def __init__(self, codec: str = "y4m", every: int = 3):
        if codec != "y4m":
            raise NotImplementedError(
                "YUV4MPEG2 is the only video container decodable with "
                "the stdlib; install ffmpeg bindings for compressed "
                "formats")
        self.every = every

    def __call__(self, t: pa.Table) -> pa.Table:
        offsets, data = _flat_binary_view(t["video"])
        n = len(offsets) - 1
        n_frames = np.zeros(n, dtype=np.int64)
        n_sampled = np.zeros(n, dtype=np.int64)
        means = np.zeros((n, 3), dtype=np.float64)
        sums = np.zeros((n, 3), dtype=np.int64)
        n_y_px = np.zeros(n, dtype=np.int64)
        n_c_px = np.zeros(n, dtype=np.int64)
        for i in range(n):  # per-PAYLOAD decode; plane math is numpy
            y, u, v = decode_y4m(data[offsets[i]:offsets[i + 1]]
                                 .tobytes())
            keep = np.arange(y.shape[0]) % self.every == 0
            n_frames[i], n_sampled[i] = y.shape[0], int(keep.sum())
            # per-frame means, then the mean of those — the association
            # an SQL oracle (avg of per-frame avgs) computes, so the
            # float rounding matches to the ulp
            means[i] = (y[keep].mean(axis=(1, 2)).mean(),
                        u[keep].mean(axis=(1, 2)).mean(),
                        v[keep].mean(axis=(1, 2)).mean())
            # exact integer plane sums over the sampled frames: lets
            # downstream aggregates stay associative-exact across engines
            sums[i] = (y[keep].astype(np.int64).sum(),
                       u[keep].astype(np.int64).sum(),
                       v[keep].astype(np.int64).sum())
            n_y_px[i] = y[keep].size
            n_c_px[i] = u[keep].size
        out = t.drop_columns(["video"])  # wide payload dies here
        return out.append_column("n_frames", pa.array(n_frames)) \
            .append_column("n_sampled", pa.array(n_sampled)) \
            .append_column("mean_y", pa.array(means[:, 0])) \
            .append_column("mean_u", pa.array(means[:, 1])) \
            .append_column("mean_v", pa.array(means[:, 2])) \
            .append_column("sum_y", pa.array(sums[:, 0])) \
            .append_column("sum_u", pa.array(sums[:, 1])) \
            .append_column("sum_v", pa.array(sums[:, 2])) \
            .append_column("n_y_px", pa.array(n_y_px)) \
            .append_column("n_c_px", pa.array(n_c_px))


# ---------------------------------------------------------------------------
# REAL PNG decode — PNG is zlib-compressed filtered scanlines (public
# spec, RFC 2083 / ISO 15948), so stdlib zlib + numpy unfiltering decode
# it EXACTLY with no codec library: chunk walk with CRC32 verification,
# IDAT concatenation, inflate, per-scanline unfilter (all five filter
# types). This converts the largest honest stub (compressed images)
# into a third real format; JPEG et al. remain stubbed.
# ---------------------------------------------------------------------------

PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(typ: bytes, data: bytes) -> bytes:
    import struct
    import zlib

    return (struct.pack(">I", len(data)) + typ + data
            + struct.pack(">I", zlib.crc32(typ + data)))


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """PNG Paeth predictor, vectorized over lanes (spec §6.6)."""
    p = a + b - c
    pa_, pb_, pc_ = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa_ <= pb_) & (pa_ <= pc_), a,
                    np.where(pb_ <= pc_, b, c))


def encode_png(img: np.ndarray, *, idat_chunk: int = 2048) -> bytes:
    """Valid non-interlaced 8-bit PNG bytes from an (h, w) gray or
    (h, w, 3) RGB uint8 array. Rows cycle through ALL FIVE filter types
    (y % 5) so a decoder must implement every one; the zlib stream is
    split across multiple IDAT chunks to exercise concatenation.
    Filtering forward is fully vectorized (left/up neighbors of the RAW
    image are known)."""
    import struct
    import zlib

    if img.ndim == 2:
        img = img[:, :, None]
    h, w, ch = img.shape
    if ch not in (1, 3):
        raise ValueError(f"gray or RGB only, got {ch} channels")
    color_type = 0 if ch == 1 else 2
    raw = img.astype(np.int32)
    left = np.zeros_like(raw)
    left[:, 1:] = raw[:, :-1]
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    upleft = np.zeros_like(raw)
    upleft[1:, 1:] = raw[:-1, :-1]
    ftype = (np.arange(h) % 5).astype(np.uint8)
    pred = np.zeros_like(raw)
    pred[ftype == 1] = left[ftype == 1]
    pred[ftype == 2] = up[ftype == 2]
    pred[ftype == 3] = (left[ftype == 3] + up[ftype == 3]) // 2
    pred[ftype == 4] = _paeth(left[ftype == 4], up[ftype == 4],
                              upleft[ftype == 4])
    filtered = ((raw - pred) % 256).astype(np.uint8).reshape(h, w * ch)
    scanlines = np.concatenate([ftype[:, None], filtered],
                               axis=1).tobytes()
    z = zlib.compress(scanlines, 6)
    out = [PNG_SIG, _png_chunk(b"IHDR", struct.pack(
        ">IIBBBBB", w, h, 8, color_type, 0, 0, 0))]
    for i in range(0, len(z), idat_chunk):
        out.append(_png_chunk(b"IDAT", z[i:i + idat_chunk]))
    out.append(_png_chunk(b"IEND", b""))
    return b"".join(out)


def decode_png(payload: bytes) -> np.ndarray:
    """(h, w, channels) uint8 array from one PNG payload — full chunk
    walk with CRC32 verification, multi-IDAT concatenation, zlib
    inflate, and exact unfiltering of all five scanline filters.
    Supports non-interlaced 8-bit gray (color type 0) and RGB (type 2);
    anything else raises ValueError (palette/alpha/16-bit/interlaced are
    out of scope for the engine's feature stages). Sub is a per-lane
    prefix sum; Up is one vector add; Average/Paeth carry a true
    left-pixel dependency, so those rows walk pixel columns (numpy over
    the channel lanes) — exact, and at web scale a native codec would
    slot into the same actor `__init__`."""
    import struct
    import zlib

    if payload[:8] != PNG_SIG:
        raise ValueError("not a PNG payload (bad signature)")
    pos, ihdr, idat, seen_end = 8, None, [], False
    while pos + 8 <= len(payload):
        (length,) = struct.unpack(">I", payload[pos:pos + 4])
        typ = payload[pos + 4:pos + 8]
        data = payload[pos + 8:pos + 8 + length]
        if len(data) < length or pos + 12 + length > len(payload):
            raise ValueError(f"truncated {typ!r} chunk")
        (crc,) = struct.unpack(
            ">I", payload[pos + 8 + length:pos + 12 + length])
        if crc != zlib.crc32(typ + data):
            raise ValueError(f"corrupt {typ!r} chunk (CRC mismatch)")
        if typ == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", data)
        elif typ == b"IDAT":
            idat.append(data)
        elif typ == b"IEND":
            seen_end = True
            break
        pos += 12 + length
    if ihdr is None or not idat or not seen_end:
        raise ValueError("missing IHDR / IDAT / IEND chunk")
    w, h, depth, color_type, comp, filt, interlace = ihdr
    if depth != 8 or color_type not in (0, 2) or comp or filt \
            or interlace:
        raise ValueError(
            f"unsupported PNG (depth={depth}, color={color_type}, "
            f"interlace={interlace}); 8-bit gray/RGB non-interlaced only")
    ch = 1 if color_type == 0 else 3
    try:
        stream = zlib.decompress(b"".join(idat))
    except zlib.error as e:
        raise ValueError(f"corrupt IDAT stream: {e}")
    stride = 1 + w * ch
    if len(stream) != h * stride:
        raise ValueError(f"bad scanline data: {len(stream)} != "
                         f"{h}*{stride}")
    lines = np.frombuffer(stream, dtype=np.uint8).reshape(h, stride)
    ftype = lines[:, 0]
    cur_all = lines[:, 1:].astype(np.int32).reshape(h, w, ch)
    out = np.zeros((h, w, ch), dtype=np.int32)
    prev = np.zeros((w, ch), dtype=np.int32)
    for y in range(h):
        f, cur = int(ftype[y]), cur_all[y]
        if f == 0:
            row = cur % 256
        elif f == 1:  # Sub: prefix sum per lane mod 256
            row = np.cumsum(cur, axis=0) % 256
        elif f == 2:  # Up
            row = (cur + prev) % 256
        elif f in (3, 4):  # Average / Paeth: true left dependency
            row = np.zeros_like(cur)
            left = np.zeros(ch, dtype=np.int32)
            upleft = np.zeros(ch, dtype=np.int32)
            for x in range(w):
                if f == 3:
                    p = (left + prev[x]) // 2
                else:
                    p = _paeth(left, prev[x], upleft)
                row[x] = (cur[x] + p) % 256
                left = row[x]
                upleft = prev[x]
        else:
            raise ValueError(f"invalid filter type {f} on row {y}")
        out[y] = row
        prev = row
    return out.astype(np.uint8)


def attach_png_images(t: pa.Table, *, id_column: str = "doc_id",
                      max_side: int = 20) -> pa.Table:
    """Deterministic VALID PNG payloads per row (pure function of the id
    column — retry-safe): width = 8 + id % (max_side - 7), height =
    8 + id % (max_side - 9), pixel (y, x, c) = (x * (y + 1) + id + c)
    % 256 — the same arithmetic formula as the PPM fixture, so the SQL
    oracle recomputes every pixel. Rows cycle all five PNG filters and
    the zlib stream splits across IDAT chunks (encode_png)."""
    ids = np.asarray(t[id_column].combine_chunks()
                     if isinstance(t[id_column], pa.ChunkedArray)
                     else t[id_column]).astype(np.int64)
    payloads = []
    for i in ids:
        w = int(8 + i % (max_side - 7))
        h = int(8 + i % (max_side - 9))
        y, x, c = np.ogrid[0:h, 0:w, 0:3]
        px = ((x * (y + 1) + int(i) + c) % 256).astype(np.uint8)
        payloads.append(encode_png(px))
    return t.append_column("image",
                           pa.array(payloads, type=pa.large_binary()))


class PngFeatureStage:
    """Actor-pool stage with REAL compressed-image decode: PNG column ->
    (width, height, mean R/G/B, thumbnail) — stdlib zlib inflate + exact
    numpy unfiltering per payload (decode_png), same output layout as
    PpmFeatureStage. Non-PNG codecs raise at construction."""

    def __init__(self, codec: str = "png", thumb_side: int = 4):
        if codec != "png":
            raise NotImplementedError(
                "PNG is the only compressed image format decodable with "
                "the stdlib; install pillow/opencv for JPEG/WebP/...")
        self.thumb_side = thumb_side

    def __call__(self, t: pa.Table) -> pa.Table:
        offsets, data = _flat_binary_view(t["image"])
        n = len(offsets) - 1
        side = self.thumb_side
        width = np.zeros(n, dtype=np.int64)
        height = np.zeros(n, dtype=np.int64)
        means = np.zeros((n, 3), dtype=np.float64)
        thumbs = np.zeros((n, side * side), dtype=np.float32)
        sums = np.zeros((n, 3), dtype=np.int64)
        for i in range(n):  # per-PAYLOAD decode; pixel math is numpy
            img = decode_png(data[offsets[i]:offsets[i + 1]].tobytes())
            if img.shape[2] == 1:
                img = np.repeat(img, 3, axis=2)
            height[i], width[i] = img.shape[0], img.shape[1]
            means[i] = img.mean(axis=(0, 1))
            # exact integer channel sums (same contract as PpmFeatureStage)
            sums[i] = img.astype(np.int64).sum(axis=(0, 1))
            thumbs[i] = block_mean_thumbnail(img, side).ravel()
        out = t.drop_columns(["image"])  # wide payload dies here
        flat = pa.array(thumbs.ravel(), type=pa.float32())
        thumb_col = pa.LargeListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * side * side, side * side,
                               dtype=np.int64)), flat)
        return out.append_column("width", pa.array(width)) \
            .append_column("height", pa.array(height)) \
            .append_column("mean_r", pa.array(means[:, 0])) \
            .append_column("mean_g", pa.array(means[:, 1])) \
            .append_column("mean_b", pa.array(means[:, 2])) \
            .append_column("n_px", pa.array(width * height)) \
            .append_column("px_sum_r", pa.array(sums[:, 0])) \
            .append_column("px_sum_g", pa.array(sums[:, 1])) \
            .append_column("px_sum_b", pa.array(sums[:, 2])) \
            .append_column("thumbnail", thumb_col)


class WavFeatureStage:
    """Actor-pool stage with REAL container decode: RIFF/WAVE PCM16
    column -> (n_samples, sample_rate, duration_ms, rms, peak). The
    chunk walk is per payload; sample math is numpy. Compressed audio
    raises at construction — honestly stubbed, like compressed images."""

    def __init__(self, codec: str = "pcm_s16le"):
        if codec != "pcm_s16le":
            raise NotImplementedError(
                "no audio codec in this environment; RIFF/WAVE PCM16 "
                "only")

    def __call__(self, t: pa.Table) -> pa.Table:
        offsets, data = _flat_binary_view(t["audio"])
        n = len(offsets) - 1
        ns = np.zeros(n, dtype=np.int64)
        rate = np.zeros(n, dtype=np.int64)
        rms = np.zeros(n, dtype=np.float64)
        peak = np.zeros(n, dtype=np.int64)
        sum_sq = np.zeros(n, dtype=np.int64)
        for i in range(n):  # per-PAYLOAD decode; sample math is numpy
            s, r, ch = decode_wav(data[offsets[i]:offsets[i + 1]]
                                  .tobytes())
            ns[i], rate[i] = len(s) // max(ch, 1), r
            x = s.astype(np.float64)
            rms[i] = float(np.sqrt(np.mean(x * x))) if len(s) else 0.0
            # exact integer energy: v^2 <= 2^30, so int64 sums stay exact
            # and downstream RMS reduces to one division + one sqrt
            w = s.astype(np.int64)
            sum_sq[i] = int((w * w).sum())
            # widen BEFORE abs: np.abs(int16 -32768) wraps to -32768
            peak[i] = int(np.abs(w).max(initial=0))
        out = t.drop_columns(["audio"])  # wide payload dies here
        return out.append_column("n_samples", pa.array(ns)) \
            .append_column("sample_rate", pa.array(rate)) \
            .append_column("duration_ms", pa.array(
                (ns * 1000) // np.maximum(rate, 1))) \
            .append_column("rms", pa.array(rms)) \
            .append_column("sum_sq", pa.array(sum_sq)) \
            .append_column("peak", pa.array(peak))


class WavSpectrogramStage:
    """Actor-pool stage with REAL spectral feature extraction: WAV
    column -> framed rfft features per row — (n_samples, n_frames,
    audio_rms, spectral_centroid, dominant_bin). Frames are
    `frame_len` samples at `hop` (rectangular window — integer-exact
    framing; tail samples short of a full frame are dropped, the
    standard STFT convention). dominant_bin = argmax of the magnitude
    spectrum summed across frames (ties -> lowest bin);
    spectral_centroid = sum(bin * |X|) / sum(|X|) over all frames
    (0.0 for silent/short rows). FFT features are not SQL-expressible;
    tests recompute every value with plain numpy instead. Non-WAV
    codecs raise at construction (the honest-stub contract)."""

    def __init__(self, codec: str = "wav", frame_len: int = 256,
                 hop: int = 128):
        if codec != "wav":
            raise NotImplementedError(
                "no compressed-audio codec in this environment; "
                "RIFF/WAVE PCM16 only")
        if frame_len < 2 or not 1 <= hop <= frame_len:
            raise ValueError("frame_len >= 2 and 1 <= hop <= frame_len")
        self.frame_len, self.hop = frame_len, hop

    def _features(self, samples: np.ndarray):
        n = len(samples)
        F, H = self.frame_len, self.hop
        n_frames = (n - F) // H + 1 if n >= F else 0
        if n_frames == 0:
            return n, 0, 0.0, 0.0, 0
        x = samples.astype(np.float64)
        idx = (np.arange(n_frames)[:, None] * H
               + np.arange(F)[None, :])
        mag = np.abs(np.fft.rfft(x[idx], axis=1))  # (n_frames, F/2+1)
        spec = mag.sum(axis=0)
        tot = spec.sum()
        centroid = float((np.arange(len(spec)) * spec).sum() / tot) \
            if tot > 0 else 0.0
        rms = float(np.sqrt((x * x).mean())) if n else 0.0
        return n, n_frames, rms, centroid, int(np.argmax(spec))

    def __call__(self, t: pa.Table) -> pa.Table:
        audio = t["audio"].combine_chunks() \
            if isinstance(t["audio"], pa.ChunkedArray) else t["audio"]
        rows = [self._features(decode_wav(p.as_py())[0])
                for p in audio]  # per-row: container decode + FFT
        out = t.drop_columns(["audio"])
        cols = list(zip(*rows)) if rows else [[]] * 5
        return out.append_column(
            "n_samples", pa.array(np.asarray(cols[0], dtype=np.int64))) \
            .append_column("n_frames",
                           pa.array(np.asarray(cols[1],
                                               dtype=np.int64))) \
            .append_column("audio_rms",
                           pa.array(np.asarray(cols[2],
                                               dtype=np.float64))) \
            .append_column("spectral_centroid",
                           pa.array(np.asarray(cols[3],
                                               dtype=np.float64))) \
            .append_column("dominant_bin",
                           pa.array(np.asarray(cols[4],
                                               dtype=np.int64)))


# ---------------------------------------------------------------------------
# REAL palette-image decode — GIF87a with a pure-Python GIF-variant LZW
# (variable 9..12-bit codes, LSB-first packing, CLEAR/EOI, table-full
# deferred-clear). No codec library: the encoder below exists for test
# synthesis; decode_gif is the real format walk.
# ---------------------------------------------------------------------------

GIF_MAGIC = b"GIF87a"


def _lzw_encode_gif(indices: np.ndarray, min_code_size: int) -> bytes:
    """GIF-variant LZW over uint8 symbols. Emits CLEAR first; stops
    adding entries when the table is full (deferred clear — the
    convention real decoders accept). Encoder code width bumps when
    next_code == (1 << width) + 1 — one position AHEAD of the decoder's
    next_code == (1 << width) rule, because the decoder's table add
    lags the encoder's by exactly one code (the classic LZW offset)."""
    clear = 1 << min_code_size
    eoi = clear + 1
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code: int, width: int):
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += width
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    width = min_code_size + 1
    table: dict[bytes, int] = {bytes([i]): i for i in range(clear)}
    next_code = eoi + 1
    emit(clear, width)
    seq = indices.tobytes()
    if seq:
        w = seq[:1]
        for j in range(1, len(seq)):
            k = seq[j:j + 1]
            if w + k in table:
                w += k
                continue
            emit(table[w], width)
            if next_code < 4096:
                table[w + k] = next_code
                next_code += 1
                if next_code == (1 << width) + 1 and width < 12:
                    width += 1
            w = bytes(k)
        emit(table[w], width)
    emit(eoi, width)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def _lzw_decode_gif(data: bytes, min_code_size: int,
                    n_expected: int) -> np.ndarray:
    """Inverse of the GIF LZW coding (spec algorithm): decoder width
    bumps when next_code == 1 << width; table adds stop at 4096."""
    clear = 1 << min_code_size
    eoi = clear + 1
    out = bytearray()
    pos = 0          # bit cursor
    total_bits = len(data) * 8

    def read(width: int) -> int:
        nonlocal pos
        if pos + width > total_bits:
            raise ValueError("LZW stream truncated")
        byte0 = pos >> 3
        chunk = int.from_bytes(data[byte0:byte0 + 3], "little")
        code = (chunk >> (pos & 7)) & ((1 << width) - 1)
        pos += width
        return code

    width = min_code_size + 1
    table: list[bytes] = [bytes([i]) for i in range(clear)] \
        + [b"", b""]
    prev: bytes | None = None
    while True:
        code = read(width)
        if code == clear:
            table = table[:eoi + 1]
            width = min_code_size + 1
            prev = None
            continue
        if code == eoi:
            break
        if code < len(table):
            entry = table[code]
        elif code == len(table) and prev is not None:
            entry = prev + prev[:1]
        else:
            raise ValueError(f"bad LZW code {code}")
        out += entry
        if prev is not None and len(table) < 4096:
            table.append(prev + entry[:1])
            if len(table) == (1 << width) and width < 12:
                width += 1
        prev = entry
        if len(out) > n_expected:
            raise ValueError("LZW output exceeds image size")
    if len(out) != n_expected:
        raise ValueError(
            f"LZW output {len(out)} != {n_expected} pixels")
    return np.frombuffer(bytes(out), dtype=np.uint8)


def encode_gif(indices: np.ndarray, palette: np.ndarray) -> bytes:
    """Minimal valid GIF87a: one image, 256-entry global color table,
    no interlace. `indices` (h, w) uint8, `palette` (256, 3) uint8."""
    import struct

    h, w = indices.shape
    out = bytearray(GIF_MAGIC)
    out += struct.pack("<HH", w, h)
    out += bytes([0xF7, 0, 0])     # GCT present, 8-bit, 256 entries
    out += palette.astype(np.uint8).tobytes()
    out += b"\x2C" + struct.pack("<HHHH", 0, 0, w, h) + b"\x00"
    out.append(8)                  # LZW min code size
    lzw = _lzw_encode_gif(indices.ravel(), 8)
    for i in range(0, len(lzw), 255):
        block = lzw[i:i + 255]
        out.append(len(block))
        out += block
    out += b"\x00\x3B"             # block terminator + trailer
    return bytes(out)


def decode_gif(payload: bytes) -> np.ndarray:
    """(h, w, 3) uint8 RGB from a GIF87a/89a payload: header + global
    color table + first image descriptor + LZW data sub-blocks.
    Extensions (0x21) are skipped; local color tables and interlace are
    rejected (out of scope for the synthesis contract)."""
    import struct

    if payload[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF payload")
    sw, sh, flags, _bg, _ar = struct.unpack("<HHBBB", payload[6:13])
    pos = 13
    if not flags & 0x80:
        raise ValueError("missing global color table")
    gct_n = 2 << (flags & 7)
    palette = np.frombuffer(payload[pos:pos + gct_n * 3],
                            dtype=np.uint8).reshape(gct_n, 3)
    pos += gct_n * 3
    while pos < len(payload) and payload[pos] == 0x21:  # extensions
        pos += 2
        while payload[pos]:
            pos += 1 + payload[pos]
        pos += 1
    if pos >= len(payload) or payload[pos] != 0x2C:
        raise ValueError("no image descriptor")
    _x, _y, w, h, iflags = struct.unpack("<HHHHB",
                                         payload[pos + 1:pos + 10])
    pos += 10
    if iflags & 0x80:
        raise ValueError("local color tables unsupported")
    if iflags & 0x40:
        raise ValueError("interlaced GIFs unsupported")
    mcs = payload[pos]
    pos += 1
    lzw = bytearray()
    while payload[pos]:
        n = payload[pos]
        lzw += payload[pos + 1:pos + 1 + n]
        pos += 1 + n
    idx = _lzw_decode_gif(bytes(lzw), mcs, w * h)
    return palette[idx.reshape(h, w)]


def attach_gif_images(t: pa.Table, *, id_column: str = "doc_id",
                      max_side: int = 20) -> pa.Table:
    """Deterministic VALID GIF87a payloads per row: same dims formula
    as the PNG fixture (w = 8 + id % 13, h = 8 + id % 11 at the default
    max_side), palette index (y, x) = (x * (y + 1) + id) % 256, palette
    entry i = (i, (2*i) % 256, 255 - i) — every decoded channel value
    is recomputable arithmetically by the SQL oracle."""
    ids = np.asarray(t[id_column].combine_chunks()
                     if isinstance(t[id_column], pa.ChunkedArray)
                     else t[id_column]).astype(np.int64)
    pal = np.stack([np.arange(256),
                    (2 * np.arange(256)) % 256,
                    255 - np.arange(256)], axis=1).astype(np.uint8)
    payloads = []
    for i in ids:
        w = int(8 + i % (max_side - 7))
        h = int(8 + i % (max_side - 9))
        y, x = np.ogrid[0:h, 0:w]
        idx = ((x * (y + 1) + int(i)) % 256).astype(np.uint8)
        payloads.append(encode_gif(idx, pal))
    return t.append_column("image",
                           pa.array(payloads, type=pa.large_binary()))


class GifFeatureStage:
    """Actor-pool stage with REAL palette-image decode: GIF column ->
    (width, height, mean R/G/B, exact channel sums, thumbnail) — the
    pure-Python GIF-variant LZW + palette lookup (decode_gif), same
    output layout as Ppm/PngFeatureStage. Non-GIF codecs raise at
    construction."""

    def __init__(self, codec: str = "gif", thumb_side: int = 4):
        if codec != "gif":
            raise NotImplementedError(
                "GIF (LZW) and PNG (zlib) are the only compressed "
                "image formats decodable without a codec library")
        self.thumb_side = thumb_side

    def __call__(self, t: pa.Table) -> pa.Table:
        offsets, data = _flat_binary_view(t["image"])
        n = len(offsets) - 1
        side = self.thumb_side
        width = np.zeros(n, dtype=np.int64)
        height = np.zeros(n, dtype=np.int64)
        means = np.zeros((n, 3), dtype=np.float64)
        thumbs = np.zeros((n, side * side), dtype=np.float32)
        sums = np.zeros((n, 3), dtype=np.int64)
        for i in range(n):  # per-PAYLOAD decode; pixel math is numpy
            img = decode_gif(data[offsets[i]:offsets[i + 1]].tobytes())
            height[i], width[i] = img.shape[0], img.shape[1]
            means[i] = img.mean(axis=(0, 1))
            sums[i] = img.astype(np.int64).sum(axis=(0, 1))
            thumbs[i] = block_mean_thumbnail(img, side).ravel()
        out = t.drop_columns(["image"])
        flat = pa.array(thumbs.ravel(), type=pa.float32())
        thumb_col = pa.LargeListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * side * side, side * side,
                               dtype=np.int64)), flat)
        return out.append_column("width", pa.array(width)) \
            .append_column("height", pa.array(height)) \
            .append_column("mean_r", pa.array(means[:, 0])) \
            .append_column("mean_g", pa.array(means[:, 1])) \
            .append_column("mean_b", pa.array(means[:, 2])) \
            .append_column("n_px", pa.array(width * height)) \
            .append_column("px_sum_r", pa.array(sums[:, 0])) \
            .append_column("px_sum_g", pa.array(sums[:, 1])) \
            .append_column("px_sum_b", pa.array(sums[:, 2])) \
            .append_column("thumbnail", thumb_col)


# ---------------------------------------------------------------------------
# REAL uncompressed-image decode — 24-bit BI_RGB Windows BMP. The format
# traps are real even without compression: pixel rows are stored
# BOTTOM-UP, channels are BGR, and every row pads to a 4-byte boundary.
# ---------------------------------------------------------------------------

def encode_bmp(img: np.ndarray) -> bytes:
    """Minimal valid 24-bit BI_RGB BMP from an (h, w, 3) RGB uint8
    array (BITMAPINFOHEADER, bottom-up, BGR, 4-byte row padding)."""
    import struct

    h, w = img.shape[:2]
    row = w * 3
    pad = (-row) % 4
    data = bytearray()
    for y in range(h - 1, -1, -1):          # bottom-up
        data += img[y, :, ::-1].tobytes()   # RGB -> BGR
        data += b"\x00" * pad
    off = 14 + 40
    hdr = b"BM" + struct.pack("<IHHI", off + len(data), 0, 0, off)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0,
                       len(data), 2835, 2835, 0, 0)
    return hdr + info + bytes(data)


def decode_bmp(payload: bytes) -> np.ndarray:
    """(h, w, 3) uint8 RGB from a 24-bit BI_RGB BMP (top-down rows out;
    negative biHeight = stored top-down per the spec). Compressed or
    non-24-bit BMPs raise."""
    import struct

    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    (off,) = struct.unpack("<I", payload[10:14])
    hsize, w, h_raw, _planes, bpp, comp = \
        struct.unpack("<IiiHHI", payload[14:34])
    if hsize < 40 or comp != 0 or bpp != 24:
        raise ValueError(
            f"only uncompressed 24-bit BMP supported "
            f"(bpp={bpp}, compression={comp})")
    top_down = h_raw < 0
    h = -h_raw if top_down else h_raw
    stride = (w * 3 + 3) & ~3
    need = off + stride * h
    if len(payload) < need:
        raise ValueError("truncated BMP pixel data")
    rows = np.frombuffer(payload, dtype=np.uint8, count=stride * h,
                         offset=off).reshape(h, stride)
    bgr = rows[:, :w * 3].reshape(h, w, 3)
    if not top_down:
        bgr = bgr[::-1]                     # bottom-up -> top-down
    return np.ascontiguousarray(bgr[:, :, ::-1])  # BGR -> RGB


def attach_bmp_images(t: pa.Table, *, id_column: str = "doc_id",
                      max_side: int = 20) -> pa.Table:
    """Deterministic VALID 24-bit BMP payloads per row — the SAME dims
    and pixel formula as the PPM/PNG fixtures (w = 8 + id % 13,
    h = 8 + id % 11; pixel (y, x, c) = (x*(y+1) + id + c) % 256), so
    the shared SQL oracle shape recomputes every channel value."""
    ids = np.asarray(t[id_column].combine_chunks()
                     if isinstance(t[id_column], pa.ChunkedArray)
                     else t[id_column]).astype(np.int64)
    payloads = []
    for i in ids:
        w = int(8 + i % (max_side - 7))
        h = int(8 + i % (max_side - 9))
        y, x, c = np.ogrid[0:h, 0:w, 0:3]
        px = ((x * (y + 1) + int(i) + c) % 256).astype(np.uint8)
        payloads.append(encode_bmp(px))
    return t.append_column("image",
                           pa.array(payloads, type=pa.large_binary()))


class BmpFeatureStage:
    """Actor-pool stage with REAL uncompressed-image decode: BMP column
    -> same output layout as Ppm/Png/GifFeatureStage. Non-BMP codecs
    raise at construction."""

    def __init__(self, codec: str = "bmp", thumb_side: int = 4):
        if codec != "bmp":
            raise NotImplementedError(
                "BmpFeatureStage decodes 24-bit BI_RGB BMP only")
        self.thumb_side = thumb_side

    def __call__(self, t: pa.Table) -> pa.Table:
        offsets, data = _flat_binary_view(t["image"])
        n = len(offsets) - 1
        side = self.thumb_side
        width = np.zeros(n, dtype=np.int64)
        height = np.zeros(n, dtype=np.int64)
        means = np.zeros((n, 3), dtype=np.float64)
        thumbs = np.zeros((n, side * side), dtype=np.float32)
        sums = np.zeros((n, 3), dtype=np.int64)
        for i in range(n):  # per-PAYLOAD decode; pixel math is numpy
            img = decode_bmp(data[offsets[i]:offsets[i + 1]].tobytes())
            height[i], width[i] = img.shape[0], img.shape[1]
            means[i] = img.mean(axis=(0, 1))
            sums[i] = img.astype(np.int64).sum(axis=(0, 1))
            thumbs[i] = block_mean_thumbnail(img, side).ravel()
        out = t.drop_columns(["image"])
        flat = pa.array(thumbs.ravel(), type=pa.float32())
        thumb_col = pa.LargeListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * side * side, side * side,
                               dtype=np.int64)), flat)
        return out.append_column("width", pa.array(width)) \
            .append_column("height", pa.array(height)) \
            .append_column("mean_r", pa.array(means[:, 0])) \
            .append_column("mean_g", pa.array(means[:, 1])) \
            .append_column("mean_b", pa.array(means[:, 2])) \
            .append_column("n_px", pa.array(width * height)) \
            .append_column("px_sum_r", pa.array(sums[:, 0])) \
            .append_column("px_sum_g", pa.array(sums[:, 1])) \
            .append_column("px_sum_b", pa.array(sums[:, 2])) \
            .append_column("thumbnail", thumb_col)
