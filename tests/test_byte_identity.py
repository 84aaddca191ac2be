"""Byte-identity guard: sha256 digests of census streams and summaries,
classify reports and SVG drawings.

A refactor of the engine must not change a single output byte.  The
digests are checked on two routes: `compute_digests` runs the command lines
of COMMANDS through `cli.main` in-process, with the report and SVG
renderers of the library, and `check_console_script`, which CI calls, runs
every row of COMMANDS through the installed `mompoly` script.  When a change
alters an output on purpose, record the new digests, those of CI_ONLY
included, by running this file as a script and say so in the change
description:

    PYTHONPATH=src python tests/test_byte_identity.py
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from mompoly.classify import analyze
from mompoly.cli import main
from mompoly.lattice import RationalPoint
from mompoly.polygon import convex_hull
from mompoly.report import full_report, render_document
from mompoly.svgplot import OVERLAYS, render_svg

from oracle import transform
from test_acceptance import _sweep_families

EXPECTED = {
    "census-tri-3.summary": "2f55cc5091fa5a3ce1999c86110b3d47f658aba05376e2ace16bb8754cef6ec2",
    "census-tri-3.stream": "75d25b1917fdb0cea9132167a0bf2d00e819c79100efc44e88fe4adb0ab8957b",
    "census-tri-4.summary": "c63ec3ae45c8c2220f4976278d87628a1e54422dbeddc9f3971b8773ab26b123",
    "census-tri-4.stream": "876ca508ff9c55aae682511ebfb87f0cbc25ca67ef9c506768d8b5f9fb44498e",
    "census-tri-6.summary": "6758d118cdb30017f804b245e8ec821efe5545214e8f5787861fc004db3c9da2",
    "census-tri-6.stream": "10b41b90859281ccabace9ebf7861ad737b736c1c7a5e7ab1a3a56d619fb3d65",
    "census-tri-3-d3.summary": "53eeb214ab87790926125983e64538e51fc9d0ac5bbdaacb6b4ee83d1532ed43",
    "census-tri-3-d3.stream": "4330d0b95c497d2de22bdbd68e3e726b0318ca3bdadb83d2e3103376d2f7b5f2",
    "census-all-1.summary": "990216e89c951aa7c3c4001dc5b9aef1b415d62d8f3c3df6829a41e4e301ee80",
    "census-all-1.stream": "5c0ce774f2ce0bbc2ec577d06f3868b5062e141fa34365ff0de7e77a04891117",
    "census-all-2.summary": "c05fc4d29a91c5a965a60296d64d4a97931d2a930f800513a57aeacfe01589db",
    "census-all-2.stream": "954e808c68637191398d25298120db53022ae0d53be6aeb14fb6eff1fc55a1c2",
    "census-all-3.summary": "eac45f0bc44ef721bdfbbd5ff1c1d88b50c74b17e8cefc8946b4776e32330cf8",
    "census-all-3.stream": "bf627dbfd3eca28aba017ce2729fe25b362d1473bbe7389e625e1e28157bedcf",
    "census-all-2-d2.summary": "2767981347e218cb78ab2b877d85e55cf7587a3434e81e47f727734a8095116c",
    "census-all-2-d2.stream": "8ab3340c46ee96784d969cbc49cb4c647e5dd3d51e6ff9bcb05d1517990e399e",
    "woodward.report": "574d60f837a5dfae7bdd97d9537b2e4639f8ff8c22037849a2be115b30cdd538",
    "woodward.svg": "be284b7d2418c385feda5a60c0b345ff0e5824d6a4685e3225767487e74f8a86",
    "halfrefl.svg": "3a53fd6967a3d48927b3ef8ff3e8b9484bd1ec1d0f5771c538a1bde82c12d46c",
    "segment.svg": "819d627aa1bc324495887ec27727cde24538865b3758f353a388925e3d57e96d",
    "offchamber.svg": "e7859c091ee933e46758da759cfccb656d4ae387e5c9e20b33eb058f33bc0b1d",
    "reports.fixtures": "c4866ab59ac2935a79656f60ec560808f2fb57986960ea57dde426b901b42b22",
    "reports.figures": "712be223ea584a5e575f533ca0f20e218e49caf66152792faf14ea0ea64d00ce",
    "reports.rational": "99743ab99a9ed1f617dbbdfd5465555819180d8e2a7151cc3b0a797c09d93002",
    "reports.redundant": "b18f8a0be7dcc92e9cbe6d8431a1b08be5fab522daf7f1dd49c7d3086739530a",
    "reports.sweep": "b67e5df076a6474832c245afc271940330cc6df5adc79fd139a2b4964da58b61",
    "svg.figures": "74d82aa1a56d795e1476c815b34ad65e47b9889ff207c37a737af976d7b2a1b9",
    "svg.rational": "c2370fa8f442ef37ae0971f01decff6b43bf1e6db936e4235564e9429efd726f",
    "svg.rational-xray": "f725fb52493c117f18d8ac05d48f89560795021c74d6e27256b440f128e604dc",
    "svg.shapes": "e0d1526939a1db5c6db25e907423cc1d59060ea13a077dfb4bdd9fb97bbf76ae",
}

# Digests that only check_console_script checks: `enumerate --max-coord 4
# --shape all` writes a 145 MB stream and `enumerate --max-coord 8` a ray
# table of 153 points, too much for Tier-1.
CI_ONLY = {
    "census-all-4.summary": "2413d348955e0bb4da883f104b956dad51b119f6238e95e073e8155958456513",
    "census-all-4.stream": "b5c82fd024bbcc0e2ed0b7a542e787dcdf3359a8f5d7215ecec93c30801e1577",
    "census-tri-8.summary": "c4b407389f687920d0c7625782f5d09bbb4db1f2f3344d25c67280bd8733c342",
    "census-tri-8.stream": "b5735e67bf1be898afa71fe05009b394fafd61923f8d04cd05468f6589e79e2b",
}

FIGURES = (
    ((2, 2), (5, 2), (5, 1), (2, 1)),
    ((2, 2), (3, 2), (5, 1), (2, 1)),
    ((2, 2), (5, 2), (5, 0), (4, 0)),
    ((2, 2), (3, 2), (5, 1), (3, 1)),
)

# Acceptance fixtures, plus one polytope for each way a report can refuse.
FIXTURES = (
    ((0, 0), (1, 0), (0, -1), (3, -1)),                      # Woodward trapezoids
    ((0, 0), (1, 0), (1, -1), (3, -1)),
    *(((-1, -1), (0, -2), (j, -j - 1)) for j in range(5)),   # half-reflection triangles
    ((0, 0), (1, 0), (0, -1)),                               # reflection triangle
    ((0, 0), (1, 1), (3, 2)),                                # wall-edge triangle
    ((1, 0), (0, -1), (0, -2)),                              # Delzant triangle
    (("1/2", "1/2"), ("7/2", "1/2"), ("1/2", "-5/2")),       # scaled reflection triangle
    ((0, 0), (2, 2)),                                        # condition 1 fails
    ((1, 0), (3, 1), (2, -1)),                               # condition 3 fails
    ((0, 0), (2, 1), (2, -1)),                               # condition 4 fails
    ((1, 0), (2, 0), (1, -1), (2, -1)),                      # no wall vertex
    ((0, 0), (1, 1), (3, 2), (2, 0)),                        # two wall vertices
)

# A point off the wall, and a triangle that leaves the chamber.
SHAPES = (
    ((3, -1),),
    ((0, 0), (2, 0), ("1/2", "3/2")),
)

# Maps v -> s(eps1+eps2) + t*v with mixed denominators.  On the moved
# polygons the order of the fixpoint images is an order of fractions
# across denominators.
MOVES = (
    (Fraction(1, 3), Fraction(7, 5)),
    (Fraction(-5, 7), Fraction(11, 6)),
    (Fraction(2, 9), Fraction(3, 4)),
)


def _points(coords):
    return [RationalPoint.of(x, y) for x, y in coords]


def rational_inputs():
    """The vertices of every fixture and figure polygon moved by each of MOVES."""
    return [list(transform(convex_hull(_points(c)), s, t).vertices)
            for c in FIXTURES + FIGURES for s, t in MOVES]


def redundant_inputs():
    """Each rational input reversed, with every edge's midpoint, the
    vertices' centroid and its first vertex again: collinear, interior and
    duplicate points whose denominators differ from the vertices'."""
    out = []
    for points in rational_inputs():
        n = len(points)
        mids = [RationalPoint((a.x + b.x) / 2, (a.y + b.y) / 2)
                for a, b in zip(points, points[1:] + points[:1])]
        centroid = RationalPoint(sum(p.x for p in points) / n, sum(p.y for p in points) / n)
        out.append([*reversed(points), *mids, centroid, points[0]])
    return out


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
    return h.hexdigest()


# The documents the command lines of COMMANDS read.
DOCUMENTS = {
    # The README's Woodward document.
    "woodward.json": '{"vertices": [[0,0],[1,0],[0,-1],[3,-1]]}\n',
    # A rational quadrilateral on scale 2 whose one wall vertex is HalfReflPlus(j=0):
    # its x-ray takes the all_edges rule, Woodward's the inner_edges_and_cross one.
    "halfrefl.json": '{"vertices": [[0,0],["1/2","-1/2"],["3/2","-1/2"],[1,0]]}\n',
    # The condition-1 segment of FIXTURES, drawn as a polyline, and the
    # triangle of SHAPES that leaves the chamber.
    "segment.json": '{"vertices": [[0,0],[2,2]]}\n',
    "offchamber.json": '{"vertices": [[0,0],[2,0],["1/2","3/2"]]}\n',
}

# Every mompoly command line with a digest: its arguments, the digest name
# of its stdout and the digest name of the file it writes with --output.
COMMANDS = (
    ("classify woodward.json", "woodward.report", None),
    ("plot woodward.json --overlay xray --overlay fixpoints", None, "woodward.svg"),
    ("plot halfrefl.json --overlay reflection --overlay xray --overlay fixpoints",
     None, "halfrefl.svg"),
    ("plot segment.json --overlay reflection", None, "segment.svg"),
    ("plot offchamber.json --overlay reflection", None, "offchamber.svg"),
    ("enumerate --max-coord 3", "census-tri-3.summary", "census-tri-3.stream"),
    # Most valid triangles reuse the fields of an earlier ray signature.
    ("enumerate --max-coord 4", "census-tri-4.summary", "census-tri-4.stream"),
    # The largest triangle grid Tier-1 checks: 117,471 candidates, 284 signatures.
    ("enumerate --max-coord 6", "census-tri-6.summary", "census-tri-6.stream"),
    # The largest triangle grid checked: 153 points, 408 difference vectors,
    # 572,076 candidates.
    ("enumerate --max-coord 8", "census-tri-8.summary", "census-tri-8.stream"),
    # This denominator and census-all-2-d2's give fractional vertices: their
    # streams write "p/q" coordinates and their polygons have scale > 1.
    ("enumerate --max-coord 3 --denominator 3",
     "census-tri-3-d3.summary", "census-tri-3-d3.stream"),
    ("enumerate --max-coord 1 --shape all", "census-all-1.summary", "census-all-1.stream"),
    ("enumerate --max-coord 2 --shape all", "census-all-2.summary", "census-all-2.stream"),
    # The census-all workload's command line as perfbench runs it: the same bytes.
    ("enumerate --max-coord 2 --shape all --threads 1",
     "census-all-2.summary", "census-all-2.stream"),
    # enumerate_convex's chains grow deeper.
    ("enumerate --max-coord 3 --shape all", "census-all-3.summary", "census-all-3.stream"),
    # The largest `--shape all` grid checked: 1,066,962 candidates.
    ("enumerate --max-coord 4 --shape all", "census-all-4.summary", "census-all-4.stream"),
    ("enumerate --max-coord 2 --shape all --denominator 2",
     "census-all-2-d2.summary", "census-all-2-d2.stream"),
)


def _file_sha(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_commands(run, names) -> list[tuple[str, str]]:
    """The (name, digest) pairs of the outputs of each COMMANDS row that
    writes one of names, run in a temporary directory by run(argv), which
    returns the command's stdout as bytes."""
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        for doc, text in DOCUMENTS.items():
            with open(os.path.join(tmp, doc), "w", encoding="utf-8") as fh:
                fh.write(text)
        for args, stdout, output in COMMANDS:
            if stdout not in names and output not in names:
                continue
            argv = [os.path.join(tmp, arg) if arg in DOCUMENTS else arg for arg in args.split()]
            if output:
                argv += ["--output", os.path.join(tmp, output)]
            out = run(argv)
            if stdout:
                pairs.append((stdout, hashlib.sha256(out).hexdigest()))
            if output:
                pairs.append((output, _file_sha(os.path.join(tmp, output))))
    return pairs


def _in_process(argv) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue().encode("utf-8")


def _console(command):
    """A runner for run_commands: the command line through the console
    script `command`, such as ("mompoly",), in a subprocess."""
    return lambda argv: subprocess.run([*command, *argv], stdout=subprocess.PIPE,
                                       check=True).stdout


def check_console_script(command) -> int:
    """Run every COMMANDS row through `command`, print which outputs match
    EXPECTED or CI_ONLY, and return 1 when one differs, else 0."""
    expected = {**EXPECTED, **CI_ONLY}
    pairs = run_commands(_console(command), expected)
    bad = [name for name, digest in pairs if digest != expected[name]]
    print("digests differ:" if bad else "digests match:", *(bad or (name for name, _ in pairs)))
    return int(bool(bad))


def compute_digests() -> dict:
    digests = {}
    for name, digest in run_commands(_in_process, EXPECTED):
        # Both census-all-2 rows must give the same bytes.
        assert digests.setdefault(name, digest) == digest, name
    digests["reports.fixtures"] = _sha(
        render_document(full_report(_points(c))) for c in FIXTURES)
    digests["reports.figures"] = _sha(
        render_document(full_report(_points(c))) for c in FIGURES)
    digests["reports.rational"] = _sha(
        render_document(full_report(points)) for points in rational_inputs())
    digests["reports.redundant"] = _sha(
        render_document(full_report(points)) for points in redundant_inputs())
    digests["reports.sweep"] = _sha(
        render_document(full_report(list(fam.triangle().vertices)))
        for fam in _sweep_families())
    digests["svg.figures"] = _sha(
        render_svg(convex_hull(_points(c)), OVERLAYS) for c in FIGURES)
    # The fixpoints overlay needs a valid polygon.
    digests["svg.rational"] = _sha(
        render_svg(hull, ("fixpoints",)) for hull in map(convex_hull, rational_inputs())
        if analyze(hull).report.valid)
    # The xray overlay needs a valid polygon with one wall vertex.
    digests["svg.rational-xray"] = _sha(
        render_svg(hull, ("xray",)) for hull in map(convex_hull, rational_inputs())
        if (report := analyze(hull).report).valid
        and sum(va.on_wall for va in report.vertex_data) == 1)
    # Plain and reflected drawings of polygons of any dimension, valid or
    # not, in the chamber or not.
    digests["svg.shapes"] = _sha(
        render_svg(hull, overlays)
        for hull in [*(convex_hull(_points(c)) for c in FIXTURES + SHAPES),
                     *map(convex_hull, redundant_inputs())]
        for overlays in ((), ("reflection",)))
    return digests


def test_outputs_byte_identical():
    assert compute_digests() == EXPECTED


def test_commands_write_every_digest():
    written = {name for _, stdout, output in COMMANDS for name in (stdout, output) if name}
    assert set(CI_ONLY) <= written
    assert written <= set(EXPECTED) | set(CI_ONLY)


def test_console_route_on_the_cheap_rows(monkeypatch):
    """The classify and plot rows, census-tri-3 and both census-all-2 rows
    through `python -m mompoly` subprocesses.  Tier-1's PYTHONPATH=src
    holds only in the checkout's root, so theirs is absolute."""
    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"))
    cheap = ("woodward.report", "woodward.svg", "halfrefl.svg", "segment.svg", "offchamber.svg",
             "census-tri-3.summary", "census-tri-3.stream",
             "census-all-2.summary", "census-all-2.stream")
    pairs = run_commands(_console((sys.executable, "-m", "mompoly")), cheap)
    assert len(pairs) == 11
    assert pairs == [(name, EXPECTED[name]) for name, _ in pairs]


if __name__ == "__main__":
    print(json.dumps({**compute_digests(), **dict(run_commands(_in_process, CI_ONLY))}, indent=4))
