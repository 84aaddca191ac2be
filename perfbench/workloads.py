"""The three workloads.  Each is a closed loop with one caller in one
process: the next item starts when the previous one has finished.

census-tri     `mompoly enumerate --max-coord 4 --shape triangles`
census-all     `mompoly enumerate --max-coord 2 --shape all`
classify-rich  `mompoly classify` on every generated document

A pass is one census command, or one sweep over the document set.

A pass is timed in pieces, the same pieces in every pass: a classify pass
in its documents, a census command in segments of SEGMENT_ITEMS stream
items.  A speed.Clock times them and scales them to a fixed machine speed;
a piece's time in a run is its median over the passes.  See speed.py.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import random
import statistics
import traceback
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field

import gate
import gen
import speed

ORACLE_SAMPLE = 256  # census stream lines checked against the oracle per pass
WARMUP_DOCUMENTS = 20
SEGMENT_ITEMS = 256  # census stream items per timed segment (the census chunk size)
SAMPLE_INTERVAL = 0.02  # seconds between reference-loop samples within a census segment
# Candidate generators of the census module; the clock ticks on each candidate.
GENERATORS = ("enumerate_triangles", "enumerate_convex")


@dataclass
class PassResult:
    wall: float                 # timed seconds of the pass, reference samples excluded
    items: int                  # candidates or reports attempted
    valid: int                  # items the engine called valid
    failed: int                 # items the gate rejected
    pieces: list                # seconds per timed piece (document or segment), in order
    scaled: list                # the same at the reference speed of speed.py
    speed: list                 # reference-loop samples taken in the pass, in seconds
    problems: list = field(default_factory=list)


class Census:
    """One `mompoly enumerate` command per pass, through `cli.main`."""

    min_passes = 3
    tail_percentile = 95  # of per-candidate latencies; hundreds of candidates lie beyond it

    def __init__(self, name, shape, max_coord, ctx):
        self.expected = ctx.expected[name]
        self.cli = ctx.cli
        self.oracle_is_valid = ctx.oracle_is_valid
        self.stream = ctx.out_dir / f"{name}.jsonl"
        self.argv = self._argv(shape, max_coord, self.stream)
        # Warm-up: the same command on the smallest grid.
        self.warmup = self._argv(shape, 1, ctx.out_dir / "warmup.jsonl")
        # A census has no random input; the seed picks the oracle sample.
        total = self.expected["summary"]["total"]
        self.sample = set(random.Random(ctx.seed).sample(range(total), min(ORACLE_SAMPLE, total)))

    @staticmethod
    def _argv(shape, max_coord, stream):
        return ["enumerate", "--max-coord", str(max_coord), "--shape", shape,
                "--threads", "1", "--output", str(stream)]

    def setup(self) -> list:
        rc, _ = self._main(self.warmup)
        return [] if rc == 0 else [f"warm-up census exited with {rc}"]

    def _main(self, argv):
        out = io.StringIO()
        with redirect_stdout(out):
            rc = self.cli.main(argv)
        return rc, out.getvalue()

    @contextmanager
    def _ticking(self, clock):
        """Make the census command drive `clock`: tick on every candidate
        the census draws and on every stream item, and start a new piece at
        stream items number SEGMENT_ITEMS, 2 * SEGMENT_ITEMS, ... (from 0).
        It wraps the candidate generators as bound in the census module and
        the per-item callback that cli hands to run_census; each wrapper
        costs a call and a clock read per candidate or item.  If cli no
        longer calls run_census, the pass is one segment."""
        census = importlib.import_module("mompoly.census")
        saved = [(census, name, getattr(census, name)) for name in GENERATORS
                 if hasattr(census, name)]
        if hasattr(self.cli, "run_census"):
            saved.append((self.cli, "run_census", self.cli.run_census))

        def ticking(generate):
            def wrapper(*args, **kwargs):
                for candidate in generate(*args, **kwargs):
                    clock.tick()
                    yield candidate
            return wrapper

        def segmenting(run_census):
            def wrapper(*args, on_item=None, **kwargs):
                if on_item is not None:
                    count = itertools.count()
                    emit = on_item

                    def on_item(item):
                        index = next(count)
                        if index and index % SEGMENT_ITEMS == 0:
                            clock.next_piece()
                        else:
                            clock.tick()
                        emit(item)
                return run_census(*args, on_item=on_item, **kwargs)
            return wrapper

        for module, name, original in saved:
            setattr(module, name, (segmenting if name == "run_census" else ticking)(original))
        try:
            yield
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def run_pass(self, traced: bool = False) -> PassResult:
        """One census command.  A traced pass is one piece, so that no
        reference-loop sample falls inside an engine span."""
        crash = []
        clock = speed.Clock(SAMPLE_INTERVAL)
        try:
            with nullcontext() if traced else self._ticking(clock):
                rc, stdout = self._main(self.argv)
        except Exception:  # noqa: BLE001 - a crash fails the pass, the run goes on
            rc, stdout = -1, ""
            crash.append(traceback.format_exc())
        clock.stop()
        failed, problems = gate.check_census_pass(
            rc, stdout, self.stream, self.expected, self.sample, self.oracle_is_valid)
        problems += crash
        try:
            valid = json.loads(stdout)["valid"]
        except (ValueError, KeyError, TypeError):
            valid = 0
        return PassResult(sum(clock.raw), self.expected["summary"]["total"], valid, failed,
                          clock.raw, clock.scaled, clock.samples, problems)

    def requests(self, passes, scale: bool = True) -> tuple[list, float]:
        """Per-candidate latencies of a run and items/s.  Each segment's
        time is its median over the passes that cut the command into the
        full number of segments (see speed.py); each candidate's latency
        is its segment's time over the segment's size.  items/s is the
        candidate count over the sum of the segment times."""
        total = passes[0].items
        sizes = [SEGMENT_ITEMS] * (total // SEGMENT_ITEMS)
        if total % SEGMENT_ITEMS:
            sizes.append(total % SEGMENT_ITEMS)
        runs = [p for p in passes if len(p.pieces) == len(sizes)]
        if not runs:  # the command made no segments: the pass is one piece
            sizes, runs = [total], passes
        times = _median_pieces(runs, scale)
        latencies = [t / n for t, n in zip(times, sizes) for _ in range(n)]
        return latencies, total / sum(times)

    def properties(self) -> dict:
        try:
            return gen.properties(gate.stream_items(self.stream))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return {"unavailable": repr(exc)}


class ClassifyRich:
    """parse_polytope_document -> full_report -> render_document for every
    generated document; each document is one request."""

    min_passes = 5
    tail_percentile = 95  # 10 of the 200 documents lie beyond it

    def __init__(self, name, ctx):
        self.seed = ctx.seed
        self.report = ctx.report
        self.oracle_is_valid = ctx.oracle_is_valid
        expected = ctx.expected[name]
        self.expected_sha256 = expected["reports_sha256"].get(str(ctx.seed))
        self.docs = None
        self.reference = None

    def setup(self) -> list:
        docs = gen.generate(self.seed, self.oracle_is_valid)
        problems = []
        if self.docs is not None and docs != self.docs:
            problems.append("the generator gave different documents for the same seed")
        self.docs = docs
        for doc in docs[:WARMUP_DOCUMENTS]:
            self._classify(doc.text)
        return problems

    def _classify(self, text: str) -> str:
        report = self.report
        return report.render_document(report.full_report(report.parse_polytope_document(text)))

    def run_pass(self, traced: bool = False) -> PassResult:
        """One sweep over the documents; the samples fall between them."""
        outputs, crashes = [], []
        clock = speed.Clock()
        for i, doc in enumerate(self.docs):
            if i:
                clock.next_piece()
            try:
                out = self._classify(doc.text)
            except Exception as exc:  # noqa: BLE001 - a crash fails the item, the run goes on
                out = None
                crashes.append(repr(exc))
            outputs.append(out)
        clock.stop()
        failed, problems = gate.check_reports(
            self.docs, outputs, self.reference, self.expected_sha256, self.oracle_is_valid)
        problems += crashes
        if self.reference is None:
            self.reference = outputs
        valid = sum(1 for out in outputs if _valid(out))
        return PassResult(sum(clock.raw), len(self.docs), valid, failed, clock.raw, clock.scaled,
                          clock.samples, problems)

    def requests(self, passes, scale: bool = True) -> tuple[list, float]:
        """Request latencies of a run and items/s.  Each document is timed
        once per pass and its latency is the median of those (see
        speed.py)."""
        latencies = _median_pieces(passes, scale)
        return latencies, len(latencies) / sum(latencies)

    def properties(self) -> dict:
        return gen.properties((d.hull, d.valid) for d in self.docs)


def _median_pieces(passes, scale: bool) -> list:
    """Each piece's seconds, at the reference speed or unscaled, median
    over the passes."""
    return [statistics.median(times)
            for times in zip(*(p.scaled if scale else p.pieces for p in passes))]


def _valid(rendered) -> bool:
    try:
        return json.loads(rendered)["valid"] is True
    except (ValueError, KeyError, TypeError):
        return False


def make(name: str, ctx):
    if name == "census-tri":
        return Census(name, "triangles", 4, ctx)
    if name == "census-all":
        return Census(name, "all", 2, ctx)
    if name == "classify-rich":
        return ClassifyRich(name, ctx)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("census-tri", "census-all", "classify-rich")
