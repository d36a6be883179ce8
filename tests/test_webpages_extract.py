"""Web-page synthesis + extract invariant (BASELINE.json input_hint:
byte-identical extracted text per url)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from libfilter_ray.sources.webpages import WEBPAGE_SCHEMA, synthesize_webpages
from libfilter_ray.stages.extract import extract_text, verify_extract_stage

from conftest import SF_DIR


def _docs_batch(n=200):
    t = pq.read_table(f"{SF_DIR}/documents.parquet")
    return t.slice(0, n)


def test_schema_matches_input_hint():
    pages = synthesize_webpages(_docs_batch())
    assert pages.schema == WEBPAGE_SCHEMA


def test_extract_byte_identical_on_testdata():
    pages = synthesize_webpages(_docs_batch(500))
    extracted = extract_text(pages["html"])
    assert extracted.to_pylist() == pages["text"].to_pylist()


def test_extract_handles_tricky_text():
    tricky = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "text": pa.array([
            "a & b < c > d",                      # entities
            "line1\nline2\n\npara2",              # newlines + paragraph
            "", "&amp; already-escaped <p>x</p>",  # empty + markup-looking
            "\n\n\n",                              # bare newlines
        ]),
        "lang": pa.array(["en"] * 5),
        "source": pa.array(["src0"] * 5),
    })
    pages = synthesize_webpages(tricky)
    assert extract_text(pages["html"]).to_pylist() == tricky["text"].to_pylist()


def _regex_extract(html):
    """The RE2 capture the offset cut replaces: the semantic reference."""
    s = pc.cast(html, pa.string())
    groups = pc.extract_regex(s, r"(?s)<article><p>(?P<body>.*)</p></article>")
    body = pc.if_else(pc.is_valid(groups), pc.struct_field(groups, "body"), s)
    for old, new in (("</p><p>", "\n\n"), ("<br/>", "\n"), ("&lt;", "<"),
                     ("&gt;", ">"), ("&amp;", "&")):
        body = pc.replace_substring(body, old, new)
    return body


_O, _C = "<article><p>", "</p></article>"
_EDGE_ROWS = [
    None,
    "",
    "no markers at all",
    f"head {_O}open only",
    f"close only{_C} tail",
    f"{_C} close before open {_O}",
    f"{_O}a{_O}b{_C}",                              # two opens
    f"x{_O}a{_C}b{_C}y",                            # two closes: greedy
    f"{_O}{_C}",                                    # empty body
    f"<html>{_O}héllo &amp; 世界</p><p>\U0001f600{_C}</html>",
    f"{_O}a<br/>b &lt;c&gt;{_C}",
    f"{_O}{_C[:-1]}",                               # truncated close
    f"{_O[:-1]}x{_C}",                              # truncated open
    f"{_C}{_O}a{_C}",                               # close, then a match
    f"chrome {_O}body{_C}",                         # close ends the string
    f"{_O}ü{_C}ü{_O}{_C}",                          # non-ASCII, two pairs
    f"título ü {_O}cuerpo ñ{_C} pie ü",             # non-ASCII before open
]


@pytest.mark.parametrize("typ", [pa.binary(), pa.large_binary(),
                                 pa.string(), pa.large_string()])
def test_offset_cut_matches_regex_reference(typ):
    is_bin = typ in (pa.binary(), pa.large_binary())
    rows = [r.encode() if is_bin and r is not None else r for r in _EDGE_ROWS]
    pages = synthesize_webpages(_docs_batch(50))["html"]
    arrays = [pa.array(rows, type=typ), pages.cast(typ)]
    for arr in arrays:
        for a in (arr, arr.slice(2), arr.slice(3, 5)):
            got, want = extract_text(a), _regex_extract(a)
            assert got.type == pa.string()
            assert got.equals(want)


def test_offset_cut_matches_regex_reference_chunked():
    rows = [r.encode() if r is not None else None for r in _EDGE_ROWS]
    chunked = pa.chunked_array([
        pa.array(rows, type=pa.binary()),
        pa.array([None, None, None], type=pa.binary()),
        pa.array(rows, type=pa.binary()).slice(4),
        pa.array([], type=pa.binary()),
    ])
    got = extract_text(chunked)
    assert isinstance(got, pa.ChunkedArray)
    assert got.equals(_regex_extract(chunked))


def test_verify_stage_raises_on_corruption():
    pages = synthesize_webpages(_docs_batch(10))
    bad = pages.set_column(
        pages.schema.get_field_index("text"),
        "text", pa.array(["CORRUPTED"] * 10))
    with pytest.raises(AssertionError, match="extract invariant"):
        verify_extract_stage(bad)


def test_determinism():
    a = synthesize_webpages(_docs_batch(100))
    b = synthesize_webpages(_docs_batch(100))
    assert a.equals(b)
