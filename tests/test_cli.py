import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mompoly import census, classify, cli, report, selftest
from mompoly.cli import main
from mompoly.errors import GeometryError
from mompoly.report import (
    MAX_DIGITS,
    format_rational,
    full_report,
    parse_polytope_document,
    parse_rational,
    render_document,
)
from mompoly.lattice import RationalPoint, Weight
from mompoly.polygon import convex_hull
from mompoly.svgplot import render_svg
from fractions import Fraction

from oracle import polytope_document


def write_doc(tmp_path, vertices, name="poly.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"vertices": vertices}))
    return str(path)


# A reference for parse_rational with no length rule: the value of the
# groups of the coordinate form, then the bound on the reduced fraction,
# read for every input.
_REFERENCE_FORM = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _reference_parse_rational(value) -> Fraction:
    from mompoly.report import DocumentError

    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DocumentError(f"coordinate {value!r:.40} is not an integer or fraction string")
    if isinstance(value, int):
        q = Fraction(value)
    else:
        match = _REFERENCE_FORM.fullmatch(value)
        if match is None:
            raise DocumentError(f"coordinate {value!r:.40} is not of the form n or p/q")
        p, d = match.groups()
        if d is not None and int(d) == 0:
            raise DocumentError(f"cannot parse coordinate {value!r:.40}: Fraction({int(p)}, 0)")
        q = Fraction(int(p), int(d or 1))
    if max(abs(q.numerator), q.denominator) >= 10**MAX_DIGITS:
        raise DocumentError(f"a coordinate has more than {MAX_DIGITS} digits")
    return q


@st.composite
def _coordinate_texts(draw) -> str:
    """Texts of 1 to MAX_DIGITS + 2 characters, often of a length near the
    cap: an optional sign, leading zeros, a numerator and an optional
    denominator, which may be zero; now and then the digits include
    non-ASCII ones."""
    size = draw(st.integers(1, MAX_DIGITS + 2) | st.integers(MAX_DIGITS - 1, MAX_DIGITS + 2))
    digits = draw(st.sampled_from(["0123456789"] * 3 + ["0123456789\u0661\uff13\U0001d7ce"]))

    def run(max_size):
        n = draw(st.integers(1, max_size))
        return draw(st.text(st.sampled_from(digits), min_size=n, max_size=n))

    text = draw(st.sampled_from(["", "-"])) + "0" * draw(st.integers(0, 2)) + run(size)
    if draw(st.booleans()):
        text += "/" + (run(size) if draw(st.booleans()) else "0" * draw(st.integers(1, 2)))
    return text[:size]


def _near_bound(sign: int) -> st.SearchStrategy:
    return st.integers(-3, 3).map(lambda d: sign * 10**MAX_DIGITS + d)


class TestDocuments:
    @settings(max_examples=400, deadline=None)
    @given(_coordinate_texts() | _near_bound(1) | _near_bound(-1) | st.integers()
           | st.booleans() | st.none() | st.floats() | st.lists(st.integers(), max_size=2))
    def test_parse_rational_matches_a_reference(self, value):
        from mompoly.report import DocumentError

        def outcome(parse):
            try:
                q = parse(value)
            except DocumentError as exc:
                return "error", str(exc)
            return type(q), q

        assert outcome(parse_rational) == outcome(_reference_parse_rational)

    def test_rational_round_trip(self):
        for q in [Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(5, 3)]:
            assert parse_rational(format_rational(q)) == q

    def test_polytope_round_trip(self):
        points = [RationalPoint.of(0, 0), RationalPoint.of("1/2", -3)]
        doc = polytope_document(points)
        assert parse_polytope_document(json.dumps(doc)) == points
        # Round-trip through the renderer as well.
        assert parse_polytope_document(render_document(doc)) == points

    def test_digit_cap(self):
        from mompoly.report import MAX_DIGITS, DocumentError

        at_cap = "9" * MAX_DIGITS
        assert parse_rational(f"-{at_cap}/7") == Fraction(-int(at_cap), 7)
        assert parse_rational(f"1/{at_cap}") == Fraction(1, int(at_cap))
        assert parse_rational(int(at_cap)) == int(at_cap)
        for value in ("1" + at_cap, f"1/1{at_cap}", 10**MAX_DIGITS):
            with pytest.raises(DocumentError):
                parse_rational(value)

    def test_parse_rational_from_checked_parts(self):
        from mompoly.report import DocumentError

        # A matched string is parsed once: the fraction is built from the
        # ints of its parts, with the errors Fraction(str) gave.
        assert parse_rational("007/010") == Fraction(7, 10)
        assert parse_rational("-0") == parse_rational("0/5") == 0
        cap = f"a coordinate has more than {MAX_DIGITS} digits"
        for value, message in (("1/0", "cannot parse coordinate '1/0': Fraction(1, 0)"),
                               ("1" * 4301, cap),
                               ("1/" + "1" * 1001, cap),
                               ("\u0661\u0662", "coordinate '\u0661\u0662' is not of the form"),
                               ("1/\uff13", "coordinate '1/\uff13' is not of the form"),
                               (True, "coordinate True is not an integer or fraction string")):
            with pytest.raises(DocumentError, match="^" + re.escape(message)):
                parse_rational(value)

    def test_parse_errors(self):
        from mompoly.report import DocumentError

        bad_coords = ["1.5", "1e3", " 3 ", "+2", "1_000"]
        for text in ["not json", "{}", '{"vertices": []}', '{"vertices": [[1]]}',
                     '{"vertices": [[1, "1/0"]]}', '{"vertices": [[1, 2.5]]}',
                     *(json.dumps({"vertices": [[1, c]]}) for c in bad_coords)]:
            with pytest.raises(DocumentError):
                parse_polytope_document(text)


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


# Report-shaped trees: the leaves are every value type a report holds, with
# strings of any code point (quotes, backslashes, control characters, lone
# surrogates) and ints of up to several hundred digits.  Subclasses of str,
# int, list and dict, which json.dumps renders as their base types, appear
# as leaves, keys and containers.
_text = st.text(st.characters(blacklist_categories=()))
_leaves = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-10**700, max_value=10**700)
           | _text
           | st.text('"\\/\x00\x1f\x7f\n\t \u00e9\u2028\U0001d11e')
           | st.builds(_Str, _text) | st.builds(_Int, st.integers()))
_trees = st.recursive(
    _leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_text | st.builds(_Str, _text), children, max_size=4)
                      | st.lists(children, max_size=4).map(_List)
                      | st.dictionaries(_text, children, max_size=4).map(_Dict)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), _trees, max_size=5))
def test_render_document_is_json_dumps_indent_2(doc):
    assert render_document(doc) == json.dumps(doc, indent=2) + "\n"


# Weights and points are tuples, which json.dumps writes as lists; the
# renderer refuses them like any other tuple.
@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, {1, 2}, object(), {1: "a"},
                                   (1, 2), [[{"a": 1.0}]], Weight(1, 2), [Weight(1, 2)],
                                   RationalPoint.of(1, "1/2")])
def test_render_document_refuses_other_types(value):
    with pytest.raises(TypeError):
        render_document({"value": value})


def test_render_document_on_report_shapes():
    """Every report of the fixtures and figures, and of every candidate of
    the `--shape all` max-coord 2 census, renders as json.dumps does; the
    second round runs on the level tables the first one filled."""
    from test_byte_identity import FIGURES, FIXTURES

    inputs = [[RationalPoint.of(x, y) for x, y in c] for c in FIXTURES + FIGURES]
    points = census.grid_points(2)
    inputs += [[points[k] for k in indices] for indices, _ in census.enumerate_convex(points)]
    docs = [full_report(points) for points in inputs]
    assert len(docs) == len(FIXTURES) + len(FIGURES) + 1619
    for _ in range(2):
        for doc in docs:
            assert render_document(doc) == json.dumps(doc, indent=2) + "\n"


def test_render_document_key_heads_by_place():
    """A key that is a later key at some depth and then a first one at the
    same depth, or the reverse, gets the head of its place; a str subclass
    key, equal to a memoised key or hashing like one, gets its own text."""

    class _Alias(str):
        def __eq__(self, other):
            return isinstance(other, str)

        def __hash__(self):
            return hash("head-a")

    docs = [
        {"d": {"head-a": 1, "head-b": 2}, "e": {"head-b": 3, "head-a": [4]}},
        {"d": [{"head-b": {"head-a": None}}], "e": {"head-b": True}},
        {"head-a": 1, _Str("head-a"): 2},
        {"x": {_Str("head-b"): 1, _Alias("head-c"): 2}},
        {_Alias("head-d"): {_Alias("head-e"): 1}},
    ]
    for doc in docs * 2:
        assert render_document(doc) == json.dumps(doc, indent=2) + "\n"


def _kept_levels():
    level = report._ROOT
    while level is not None:
        yield level
        level = level.child


def test_render_document_tables_stay_bounded():
    """Many keys, a long key and deep nesting render as json.dumps does,
    and the kept level tables stay within their caps."""
    deep = 0
    for depth in range(200):
        deep = {"n": deep, "m": depth} if depth % 2 else [deep, depth]
    doc = {"wide": {f"key-{i}": i for i in range(5000)},
           "long": {"k" * 100_000: {"k" * 100_000: 1}},
           "deep": deep}
    for _ in range(2):
        assert render_document(doc) == json.dumps(doc, indent=2) + "\n"
    levels = list(_kept_levels())
    assert [level.depth for level in levels] == list(range(report._KEPT_DEPTH + 1))
    for level in levels:
        heads = {**level.first, **level.later}
        assert len(level.first) + len(level.later) <= report._MAX_HEADS
        assert all(type(key) is str and len(key) <= report._MAX_KEY for key in heads)


class TestClassifyCommand:
    def test_woodward(self, tmp_path, capsys):
        path = write_doc(tmp_path, [[0, 0], [1, 0], [0, -1], [3, -1]])
        assert main(["classify", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True
        assert doc["kaehler"]["verdict"] is False
        assert doc["kaehler"]["witness_edge"] is not None

    def test_wall_edge_triangle(self, tmp_path, capsys):
        path = write_doc(tmp_path, [[0, 0], [1, 1], [3, 2]])
        assert main(["classify", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["triangle_family"]["family"] == "wall_edge"
        assert doc["triangle_family"]["k"] == 2
        assert doc["triangle_family"]["l"] == 1
        assert doc["diffeo_type"]["type"] == "projective_space_4"
        assert doc["xray"]["applicable"] is False

    def test_invalid_is_exit_zero(self, tmp_path, capsys):
        path = write_doc(tmp_path, [[0, 0], [2, 2]])
        assert main(["classify", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is False
        assert doc["failures"][0]["condition"] == 1

    def test_chamber_violation_exit_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, [[0, 0], [0, 1], [1, 1]])
        assert main(["classify", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("nope")
        assert main(["classify", str(path)]) == 2

    def test_integer_past_digit_limit_exit_two(self, tmp_path, capsys):
        # json.loads refuses integers longer than the interpreter's
        # 4,300-digit limit with a plain ValueError.
        path = tmp_path / "huge.json"
        path.write_text('{"vertices": [[' + "9" * 5000 + ", 0], [0, 0], [1, -1]]}")
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_coordinate_past_digit_cap_exit_two(self, tmp_path, capsys):
        # A valid Delzant triangle whose base has 2,500-digit denominators:
        # its parameter r = x - y of the base has a 5,000-digit denominator,
        # past the interpreter's 4,300-digit str(int) limit.
        x0 = Fraction(1, int("7" * 2500))
        y0 = Fraction(-1, int("3" * 2499 + "1"))
        vertices = [[format_rational(x0 + dx), format_rational(y0 + dy)]
                    for dx, dy in ((1, 0), (0, -1), (0, -2))]
        path = write_doc(tmp_path, vertices)
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "digits" in err

    def test_common_denominator_cap(self, tmp_path, capsys):
        # Denominators 2**k and 5**k have the common denominator 10**k: with
        # k = MAX_DIGITS - 1 it has MAX_DIGITS digits, with k = MAX_DIGITS one
        # digit more, while each coordinate stays under the per-coordinate cap.
        for k, rc in ((MAX_DIGITS - 1, 0), (MAX_DIGITS, 2)):
            path = write_doc(tmp_path, [[0, 0], [1, f"-1/{2**k}"], [3, f"-1/{5**k}"]])
            capsys.readouterr()
            assert main(["classify", path]) == rc, k
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "common denominator" in err

    def test_many_denominators_refused_quickly(self, tmp_path, capsys):
        # 800 coordinates with distinct 100-digit denominators.  The report
        # of their hull would work on integers of about 80,000 digits; the
        # lcm of the denominators passes the cap after a dozen of them.
        path = write_doc(tmp_path, [[i, f"-1/{10**99 + 2 * i + 1}"] for i in range(800)])
        start = time.perf_counter()
        assert main(["classify", path]) == 2
        assert time.perf_counter() - start < 1
        assert "common denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("tail", ["1", "x"], ids=["digits", "malformed"])
    def test_long_bad_coordinate_short_error(self, tmp_path, capsys, tail):
        # A 6,000-digit string and a 6,000-character malformed one: the error
        # line quotes only a short prefix of the value.
        path = write_doc(tmp_path, [["1" * 5999 + tail, 0], [0, 0], [1, -1]])
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.encode()) < 200

    def test_deeply_nested_document_exit_two(self, tmp_path, capsys):
        # json.loads raises RecursionError on nesting this deep.
        path = tmp_path / "deep.json"
        path.write_text('{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_input_exit_two(self, tmp_path, capsys, monkeypatch, source):
        data = b"\xff\xfe"
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            arg = "-"
        else:
            path = tmp_path / "bad.json"
            path.write_bytes(data)
            arg = str(path)
        assert main(["classify", arg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_internal_value_error_exit_one(self, tmp_path, capsys, monkeypatch):
        import mompoly.cli

        def broken(points):
            raise ValueError("engine fault")

        monkeypatch.setattr(mompoly.cli, "full_report", broken)
        path = write_doc(tmp_path, [[0, 0], [1, 0], [0, -1]])
        assert main(["classify", path]) == 1
        assert "internal error" in capsys.readouterr().err

    def test_output_file_and_determinism(self, tmp_path, capsys):
        path = write_doc(tmp_path, [[0, 0], [1, 0], [0, -1], [3, -1]])
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["classify", path, "--output", str(out1)]) == 0
        assert main(["classify", path, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestEnumerateCommand:
    def test_summary_and_stream(self, tmp_path, capsys):
        stream = tmp_path / "items.jsonl"
        assert main(
            ["enumerate", "--max-coord", "1", "--output", str(stream)]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        lines = stream.read_text().splitlines()
        assert summary["total"] == len(lines)
        assert summary["valid"] + summary["invalid"] == summary["total"]

    @pytest.mark.parametrize("max_coord, shape, lines", [(2, "all", 1619), (4, "triangles", 13428)])
    def test_stream_formats_each_grid_point_once(self, tmp_path, capsys, monkeypatch, max_coord,
                                                 shape, lines):
        # The writer formats the texts of the grid's points (15 at max-coord
        # 2, 45 at max-coord 4) when it is built.  Each `--shape all` line
        # joins some of them; each triangle line reads a row of prefixes
        # built from them.
        formatted = []
        point_out = report.point_out
        monkeypatch.setattr(cli, "point_out", lambda p: formatted.append(p) or point_out(p))
        stream = tmp_path / "items.jsonl"
        assert main(["enumerate", "--max-coord", str(max_coord), "--shape", shape,
                     "--output", str(stream)]) == 0
        capsys.readouterr()
        assert len(stream.read_text().splitlines()) == lines
        assert formatted == census.grid_points(max_coord)

    @pytest.mark.parametrize("max_coord, denominator, shape", [
        (3, 1, "triangles"), (3, 3, "triangles"), (2, 2, "all"),
    ])
    def test_stream_lines_are_json_dumps_of_the_items(self, tmp_path, capsys, max_coord,
                                                       denominator, shape):
        # Each stream line is json.dumps of the item's fields, the grid
        # points its indices name as point_out writes them, in the census order; with a denominator
        # some of them are "p/q" strings.
        stream = tmp_path / "items.jsonl"
        assert main(["enumerate", "--max-coord", str(max_coord), "--denominator",
                     str(denominator), "--shape", shape, "--output", str(stream)]) == 0
        capsys.readouterr()
        items = []
        census.run_census(max_coord, denominator, shape, on_item=items.append)
        points = census.grid_points(max_coord, denominator)
        lines = stream.read_bytes().decode("utf-8").splitlines(keepends=True)
        assert lines == [json.dumps({
            "vertices": [report.point_out(points[k]) for k in item.indices],
            "valid": item.valid,
            "family": item.family_tag,
            "kaehler": item.kaehler,
            "diff_type": item.diff_type,
        }) + "\n" for item in items]
        assert any(item.valid for item in items)
        assert any("/" in line for line in lines) == (denominator > 1)

    def test_threads_byte_identical(self, tmp_path, capsys):
        out = []
        for threads in ("1", "8"):
            stream = tmp_path / f"items{threads}.jsonl"
            assert main(
                ["enumerate", "--max-coord", "2", "--threads", threads,
                 "--output", str(stream)]
            ) == 0
            out.append((capsys.readouterr().out, stream.read_bytes()))
        assert out[0] == out[1]

    def test_bad_flags(self, capsys):
        assert main(["enumerate", "--max-coord", "0"]) == 2

    def test_output_dash_refused(self, monkeypatch, tmp_path, capsys):
        # The summary owns stdout, so "-" is refused, not taken as a file
        # name, before the grid is built.
        calls = []
        monkeypatch.setattr(census, "grid_points", lambda *args: calls.append(args) or [])
        monkeypatch.chdir(tmp_path)
        assert main(["enumerate", "--max-coord", "1", "--output", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_max_coord_cap(self, monkeypatch, tmp_path, capsys):
        # A refused census exits 2 before it builds the grid or opens --output.
        calls = []
        monkeypatch.setattr(census, "grid_points", lambda *args: calls.append(args) or [])
        stream = tmp_path / "items.jsonl"
        for flags in (["--max-coord", "20"], ["--max-coord", "6", "--shape", "all"],
                      ["--max-coord", "0"], ["--max-coord", "1", "--denominator", "0"]):
            assert main(["enumerate", *flags, "--output", str(stream)]) == 2, flags
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
        assert calls == []
        assert not stream.exists()

    def test_triangle_count_cap(self, monkeypatch, capsys):
        # The grid is stubbed empty, so an accepted census classifies nothing.
        calls = []
        monkeypatch.setattr(census, "grid_points", lambda *args: calls.append(args) or [])
        assert main(["enumerate", "--max-coord", "19"]) == 0
        assert main(["enumerate", "--max-coord", "5", "--shape", "all"]) == 0
        assert calls == [(19, 1), (5, 1)]
        with pytest.raises(GeometryError):
            census.run_census(6, shape="all")
        with pytest.raises(GeometryError, match="unknown shape"):
            census.run_census(1, shape="squares")
        assert calls == [(19, 1), (5, 1)]


class TestPlotCommand:
    def test_overlays(self, tmp_path, capsys):
        path = write_doc(tmp_path, [[2, 2], [5, 2], [5, 1], [2, 1]])
        assert main(
            ["plot", path, "--overlay", "xray", "--overlay", "fixpoints",
             "--overlay", "reflection"]
        ) == 0
        svg = capsys.readouterr().out
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "circle" in svg and "dasharray" in svg
        for vertices in ([[0, 0], [2, 1]], [[1, 0]]):  # a segment and a point
            assert main(["plot", write_doc(tmp_path, vertices)]) == 0
            assert "<polyline" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        path = write_doc(tmp_path, [[0, 0], [1, 0], [0, -1]])
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        assert main(["plot", path, "--overlay", "xray", "--output", str(a)]) == 0
        assert main(["plot", path, "--overlay", "xray", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_coordinate_past_float_exit_two(self, tmp_path, capsys):
        # classify reports this triangle exactly; the drawing's size,
        # about 1.6e402 display units, does not fit a float.
        path = write_doc(tmp_path, [[0, 0], [1, -1], ["4" + "0" * 400, -3]])
        assert main(["classify", path]) == 0
        capsys.readouterr()
        assert main(["plot", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_xray_overlay_refused_for_two_wall_vertices(self, tmp_path, capsys):
        path = write_doc(tmp_path, [[0, 0], [1, 1], [3, 2]])
        assert main(["plot", path, "--overlay", "xray"]) == 2


_WOODWARD = b'{"vertices": [[0, 0], [1, 0], [0, -1], [3, -1]]}'


def _input_arg(tmp_path, monkeypatch, source, data: bytes) -> str:
    """The input argument under which main reads data from a file or from stdin."""
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        return "-"
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("command", ["classify", "plot"])
class TestDocumentCap:
    def test_one_byte_over_the_cap_is_refused_unparsed(self, tmp_path, capsys, monkeypatch,
                                                       command, source):
        def loads(*args, **kwargs):
            raise AssertionError("json.loads was called")

        data = _WOODWARD.ljust(cli.MAX_DOCUMENT_BYTES + 1)
        arg = _input_arg(tmp_path, monkeypatch, source, data)
        monkeypatch.setattr(report.json, "loads", loads)
        assert main([command, arg]) == 2
        assert capsys.readouterr().err == (
            f"error: input is longer than the cap of {cli.MAX_DOCUMENT_BYTES} bytes\n")

    def test_document_padded_to_the_cap_is_read(self, tmp_path, capsys, monkeypatch,
                                                command, source):
        assert main([command, _input_arg(tmp_path, monkeypatch, "file", _WOODWARD)]) == 0
        expected = capsys.readouterr().out
        data = _WOODWARD.ljust(cli.MAX_DOCUMENT_BYTES)
        assert len(data) == cli.MAX_DOCUMENT_BYTES
        assert main([command, _input_arg(tmp_path, monkeypatch, source, data)]) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["classify", "plot"])
def test_reads_one_byte_past_the_cap(tmp_path, monkeypatch, command):
    # Of a stream twice the cap, one byte more than the cap is read.
    data = _WOODWARD.ljust(2 * cli.MAX_DOCUMENT_BYTES)
    assert main([command, _input_arg(tmp_path, monkeypatch, "stdin", data)]) == 2
    assert sys.stdin.buffer.tell() == cli.MAX_DOCUMENT_BYTES + 1


@pytest.mark.parametrize("command", ["classify", "plot"])
def test_closed_stdin_is_an_input_error(monkeypatch, capsys, command):
    # A process started with stdin closed has sys.stdin None; "-" then cannot
    # be read, as a missing file cannot: one error line and exit 2.
    monkeypatch.setattr(sys, "stdin", None)
    assert main([command, "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot read stdin: it is closed\n"


class TestSelftestCommand:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all suites passed" in out

    def test_injected_fault(self, capsys, monkeypatch):
        monkeypatch.setattr(selftest, "check_census_determinism",
                            lambda: ["census is not reproducible"])
        assert main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL census-determinism: census is not reproducible (1 failure(s))" in lines
        assert lines[-1] == "selftest: failures detected"

    def test_triangle_sweep_sees_every_triangle_and_can_fail(self, monkeypatch):
        # The sweep analyzes each of the 3,036 non-collinear triples of the
        # max-coord 3 grid once and finds the census's valid triangles.
        analyzed = []
        analyze = selftest.analyze
        monkeypatch.setattr(selftest, "analyze",
                            lambda hull: analyzed.append(analyze(hull)) or analyzed[-1])
        assert selftest.check_triangle_sweep() == []
        assert len(analyzed) == 3036
        assert sum(a.report.valid for a in analyzed) == census.run_census(3).valid == 360
        # A family whose triangle is one grid step off fails the sweep.
        triangle = classify._Family.triangle
        monkeypatch.setattr(classify._Family, "triangle", lambda fam: convex_hull(
            [RationalPoint(v.x + 1, v.y) for v in triangle(fam).vertices]))
        failures = selftest.check_triangle_sweep()
        assert len(failures) == 360
        assert all(" does not reconstruct " in f for f in failures)

    def test_threads_option_is_refused(self, capsys):
        # selftest takes no options; an old command line with --threads is
        # an input error.
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--threads", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 4" in capsys.readouterr().err


class TestRepeatedCalls:
    """main may be called many times in one process: it builds its parser on
    the first call, and no call sees another's options."""

    def test_second_call_builds_no_parser(self, monkeypatch, capsys):
        assert main(["enumerate", "--max-coord", "1"]) == 0
        first = capsys.readouterr().out
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *args, **kwargs: built.append(self) or init(
                                self, *args, **kwargs))
        assert main(["enumerate", "--max-coord", "1"]) == 0
        assert built == []
        assert capsys.readouterr().out == first

    def test_calls_carry_no_state(self, tmp_path, capsys):
        vertices = [[2, 2], [5, 2], [5, 1], [2, 1]]
        path = write_doc(tmp_path, vertices)
        plain = render_svg(convex_hull([RationalPoint.of(x, y) for x, y in vertices]), ())
        assert main(["plot", path, "--overlay", "xray"]) == 0
        assert capsys.readouterr().out != plain
        for _ in range(2):
            assert main(["plot", path]) == 0
            assert capsys.readouterr().out == plain
        stream = tmp_path / "items.jsonl"
        assert main(["enumerate", "--max-coord", "2", "--shape", "all", "--denominator", "2",
                     "--output", str(stream)]) == 0
        capsys.readouterr()
        written = stream.read_bytes()
        assert main(["enumerate", "--max-coord", "2"]) == 0
        assert capsys.readouterr().out == render_document(census.run_census(2).as_dict())
        assert stream.read_bytes() == written

    @pytest.mark.parametrize("argv, code, message", [
        (["enumerate"], 2, "the following arguments are required: --max-coord"),
        (["selftest", "--threads", "1"], 2, "unrecognized arguments: --threads 1"),
        (["--help"], 0, "usage: mompoly "),
    ], ids=["missing-option", "unknown-option", "help"])
    def test_argparse_exits_on_every_call(self, capsys, argv, code, message):
        # A usage error writes to stderr and --help to stdout; every other
        # outcome is returned as the exit code.
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            captured = capsys.readouterr()
            written, silent = (captured.err, captured.out) if code else (captured.out, captured.err)
            assert message in written and silent == ""

    def test_import_builds_no_parser(self):
        probe = ("import argparse, sys; sys.path.insert(0, sys.argv[1]); built = []; "
                 "init = argparse.ArgumentParser.__init__; "
                 "argparse.ArgumentParser.__init__ = "
                 "lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs); "
                 "import mompoly.cli; print(len(built))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-I", "-c", probe, src],
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout == "0\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    woodward = json.dumps({"vertices": [[0, 0], [1, 0], [0, -1], [3, -1]]})
    proc = subprocess.run(
        [sys.executable, "-m", "mompoly", "classify", "-"],
        input=woodward, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"valid": true' in proc.stdout
