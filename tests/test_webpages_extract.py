"""Web-page synthesis + extract invariant (BASELINE.json input_hint:
byte-identical extracted text per url)."""

from __future__ import annotations

from itertools import pairwise

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings, strategies as st

from libfilter_ray.sources.webpages import (MARKUP, WEBPAGE_SCHEMA,
                                            replace_many, synthesize_webpages)
from libfilter_ray.stages.extract import (_UNMARKUP, extract_text,
                                          verify_extract_stage)

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


#: The codec as chained single-pattern passes, in order: the semantic
#: reference of the one-pass rewrite (`replace_many`)
_ESCAPE_CHAIN = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"),
                 ("\n\n", "</p><p>"), ("\n", "<br/>"))
_UNESCAPE_CHAIN = (("</p><p>", "\n\n"), ("<br/>", "\n"), ("&lt;", "<"),
                   ("&gt;", ">"), ("&amp;", "&"))


def _chained(col, chain):
    for old, new in chain:
        col = pc.replace_substring(col, old, new)
    return col


def _regex_extract(html):
    """The RE2 capture the offset cut replaces: the semantic reference."""
    s = pc.cast(html, pa.string())
    groups = pc.extract_regex(s, r"(?s)<article><p>(?P<body>.*)</p></article>")
    body = pc.if_else(pc.is_valid(groups), pc.struct_field(groups, "body"), s)
    return _chained(body, _UNESCAPE_CHAIN)


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


# Rows heavy in the codec's bytes: its patterns and replacements, their
# fragments, and multi-byte UTF-8.
_TOKENS = ["&", "<", ">", ";", "/", "\n", "\n\n", "a", "p", "br", "lt",
           "gt", "amp", "&amp;", "&lt;", "&gt;", "<br/>", "</p><p>", "</p>",
           "<p>", "<br", "&am", "é", "世", "\U0001f600"]
_CODEC_ROWS = st.lists(st.one_of(
    st.none(), st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join)),
    max_size=12)


def _codec_cases(rows, lo, n, cuts):
    """A string Array of `rows` sliced at [lo, lo + n), and the same values
    as a ChunkedArray cut at `cuts` (repeated cuts give empty chunks; no
    values give zero chunks)."""
    arr = pa.array(rows, type=pa.string()).slice(lo, n)
    bounds = [0, *sorted(min(c, len(arr)) for c in cuts), len(arr)]
    chunks = [arr.slice(a, b - a) for a, b in pairwise(bounds)] \
        if len(arr) else []
    return arr, pa.chunked_array(chunks, type=pa.string())


@settings(max_examples=300, deadline=None)
@given(rows=_CODEC_ROWS, lo=st.integers(0, 12), n=st.integers(0, 12),
       cuts=st.lists(st.integers(0, 12), max_size=3))
@example(rows=["\n\n\n", "&amp;lt;", "<br/></p><p>", None], lo=0, n=4,
         cuts=[2, 2])
@example(rows=[None, None], lo=1, n=1, cuts=[0])
@example(rows=[], lo=0, n=0, cuts=[])
def test_codec_matches_chained_passes(rows, lo, n, cuts):
    """One leftmost-first pass per direction equals the five chained
    `replace_substring` passes, keeps nulls, slices and the chunk layout
    (empty and zero chunks included), and unescaping inverts escaping."""
    for col in _codec_cases(rows, lo, n, cuts):
        for table, chain in ((MARKUP, _ESCAPE_CHAIN),
                             (_UNMARKUP, _UNESCAPE_CHAIN)):
            got, want = replace_many(col, table), _chained(col, chain)
            assert type(got) is type(col) and got.type == pa.string()
            assert got.equals(want)
            if isinstance(col, pa.ChunkedArray):
                assert [len(c) for c in got.chunks] == \
                    [len(c) for c in col.chunks]
        assert replace_many(replace_many(col, MARKUP), _UNMARKUP).equals(col)


@pytest.mark.parametrize("text,html", [
    # a scan that is not leftmost-first finds "\n" before "\n\n" here
    ("\n\n\n", "</p><p><br/>"),
    ("a\n\nb\n", "a</p><p>b<br/>"),
    # escaped text that looks like markup or like an entity
    ("&amp;lt;", "&amp;amp;lt;"),
    ("<br/></p><p>", "&lt;br/&gt;&lt;/p&gt;&lt;p&gt;"),
    ("&lt;\n>", "&amp;lt;<br/>&gt;"),
])
def test_codec_pinned_cases(text, html):
    col = pa.array([text])
    assert replace_many(col, MARKUP).to_pylist() == [html]
    assert replace_many(pa.array([html]), _UNMARKUP).to_pylist() == [text]
