"""Command-line frontend.

Verbs: classify (full report for one polytope), enumerate (grid census),
plot (SVG drawing), selftest (built-in invariant suites).  Exit codes:
0 = completed (the report may still say valid: false), 2 = input error
(unparseable document, polytope outside the chamber or otherwise
ill-posed, unreadable file), 1 = internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import check_census, grid_points, run_census
from .errors import GeometryError
from .polygon import convex_hull
from .report import (
    DocumentError,
    full_report,
    parse_polytope_document,
    point_out,
    render_document,
)
from .selftest import run_selftest
from .svgplot import OVERLAYS, render_svg


# The most bytes of a document that classify and plot read.  Memory grows by
# up to about 35 bytes per input byte, so this bounds the growth near 35 MiB.
MAX_DOCUMENT_BYTES = 1 << 20


def _read_input(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for "-", of at most
    MAX_DOCUMENT_BYTES bytes: no more than one byte past the cap is read.
    A closed stdin (sys.stdin is None) cannot be read, as a missing file
    cannot: OSError."""
    if path == "-":
        if sys.stdin is None:
            raise OSError("cannot read stdin: it is closed")
        data = sys.stdin.buffer.read(MAX_DOCUMENT_BYTES + 1)
    else:
        with open(path, "rb") as fh:
            data = fh.read(MAX_DOCUMENT_BYTES + 1)
    if len(data) > MAX_DOCUMENT_BYTES:
        raise DocumentError(f"input is longer than the cap of {MAX_DOCUMENT_BYTES} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"input is not UTF-8: {exc.reason}") from None


def _write_output(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mompoly",
        description="Momentum polytopes of multiplicity free U(2)-manifolds: "
        "validity, triangle families, Kähler criterion, x-rays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify one polytope document")
    p_classify.add_argument("input", help="JSON document path, or - for stdin")
    p_classify.add_argument("--output", help="report destination (default stdout)")

    p_enum = sub.add_parser("enumerate", help="census over a rational grid")
    p_enum.add_argument("--max-coord", type=int, required=True)
    p_enum.add_argument("--denominator", type=int, default=1)
    p_enum.add_argument("--shape", choices=["triangles", "all"], default="triangles")
    p_enum.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p_enum.add_argument(
        "--output",
        help="write a per-item JSON-lines stream to this file, summary to stdout "
        "(- is refused: the summary owns stdout)",
    )

    p_plot = sub.add_parser("plot", help="SVG drawing of a polytope")
    p_plot.add_argument("input", help="JSON document path, or - for stdin")
    p_plot.add_argument(
        "--overlay",
        action="append",
        default=[],
        choices=list(OVERLAYS),
        help="repeatable: reflection, xray, fixpoints",
    )
    p_plot.add_argument("--output", help="SVG destination (default stdout)")

    sub.add_parser("selftest", help="run the built-in invariant suites")
    return parser


def _cmd_classify(args) -> int:
    points = parse_polytope_document(_read_input(args.input))
    doc = full_report(points)
    _write_output(args.output, render_document(doc))
    return 0


# The end of the stream line of every invalid candidate.
_INVALID_TAIL = '], "valid": false, "family": null, "kaehler": null, "diff_type": null}\n'


class _ValidTails(dict):
    """The end of a valid candidate's stream line by its fields (family tag,
    Kaehler verdict, diff type), each None, a bool or an ASCII tag; each
    triple is formatted once."""

    def __missing__(self, fields: tuple) -> str:
        tail = self[fields] = '], "valid": true, "family": %s, "kaehler": %s, "diff_type": %s}\n' % (
            tuple(json.dumps(f) for f in fields))
        return tail


_VALID_TAILS = _ValidTails()


def _stream_writer(write, points, shape: str):
    """The census's on_item for a stream of the given shape on the grid
    `points`: it passes `write` the JSON line of each ItemResult, the texts
    of the grid points its indices name and then its tail.  Each grid point
    is formatted once, as a report writes it; the one closure is the only
    Python frame the stream adds per item, and it looks up no global or
    attribute.

    The shape picks the closure.  A `--shape all` line joins its points'
    texts.  A triangle (i, j, k) is row[j] + texts[k] + tail, where row[j]
    is '{"vertices": [' + texts[i] + ", " + texts[j] + ", "; row holds one
    prefix per grid point and is rebuilt when i changes, which
    enumerate_triangles makes rare."""
    texts = [json.dumps(point_out(p)) for p in points]
    tails, invalid_tail = _VALID_TAILS, _INVALID_TAIL
    # item[0] holds the indices, item[1] the validity and item[2:] the
    # fields that key the tails.
    if shape != "triangles":
        text, join = texts.__getitem__, ", ".join

        def on_item(item) -> None:
            write('{"vertices": [' + join(map(text, item[0])) + (
                tails[item[2:]] if item[1] else invalid_tail))
        return on_item

    first = row = None

    def on_triangle(item) -> None:
        nonlocal first, row
        i, j, k = item[0]
        if i != first:
            head = '{"vertices": [' + texts[i] + ", "
            first, row = i, [head + t + ", " for t in texts]
        write(row[j] + texts[k] + (tails[item[2:]] if item[1] else invalid_tail))
    return on_triangle


def _cmd_enumerate(args) -> int:
    if args.output == "-":
        print("error: enumerate writes its summary to stdout; give --output a file", file=sys.stderr)
        return 2
    check_census(args.max_coord, args.denominator, args.shape)
    stream = open(args.output, "w", encoding="utf-8") if args.output else None
    try:
        summary = run_census(
            args.max_coord,
            denominator=args.denominator,
            shape=args.shape,
            on_item=None if stream is None else _stream_writer(
                stream.write, grid_points(args.max_coord, args.denominator), args.shape),
        )
    finally:
        if stream is not None:
            stream.close()
    sys.stdout.write(render_document(summary.as_dict()))
    return 0


def _cmd_plot(args) -> int:
    points = parse_polytope_document(_read_input(args.input))
    polygon = convex_hull(points)
    svg = render_svg(polygon, tuple(args.overlay))
    _write_output(args.output, svg)
    return 0


def _cmd_selftest(args) -> int:
    ok, lines = run_selftest()
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "classify": _cmd_classify,
        "enumerate": _cmd_enumerate,
        "plot": _cmd_plot,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (DocumentError, GeometryError, OSError) as exc:
        # GeometryError covers the chamber, empty hulls and overlay preconditions.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ValueError) as exc:
        # Any other ValueError is a fault of the engine, not of its input.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
