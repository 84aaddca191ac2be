"""Tests of the benchmark itself (not part of the engine's test suite).

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import importlib
import json
import pkgutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CLI, REPORT, ORACLE_IS_VALID = run.load_engine()
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _ctx(tmp_path, seed=1):
    return SimpleNamespace(seed=seed, out_dir=tmp_path, expected=EXPECTED, cli=CLI,
                           report=REPORT, oracle_is_valid=ORACLE_IS_VALID)


def test_generator_same_seed_same_documents():
    first = gen.generate(1, ORACLE_IS_VALID)
    assert first == gen.generate(1, ORACLE_IS_VALID)
    digest = hashlib.sha256("\n".join(d.text for d in first).encode()).hexdigest()
    assert digest == EXPECTED["classify-rich"]["documents_sha256"]["1"]
    assert [d.text for d in gen.generate(2, ORACLE_IS_VALID)] != [d.text for d in first]


def _engine_namespaces():
    import mompoly

    names = ["mompoly"] + [f"mompoly.{m.name}" for m in pkgutil.iter_modules(mompoly.__path__)]
    return {name: dict(vars(importlib.import_module(name))) for name in names}


def _assert_same(before, after):
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr}"


def test_tracer_restores_module_attributes(monkeypatch):
    before = _engine_namespaces()
    # A name a later engine might drop is reported absent, not fatal.
    monkeypatch.setattr(tracer, "TARGETS",
                        tracer.TARGETS + (("mompoly.report", "no_such_function", "report.gone"),))
    t = tracer.Tracer()
    with t:
        assert REPORT.full_report is not before["mompoly.report"]["full_report"]
        with t.span("bench.pass") as root:
            text = gen.generate(1, ORACLE_IS_VALID)[0].text
            REPORT.render_document(REPORT.full_report(REPORT.parse_polytope_document(text)))
    assert t.absent == ["mompoly.report.no_such_function"]
    agg = t.aggregate(root)
    assert agg["report.full_report"]["calls"] == 1
    assert agg["classify.check"]["calls"] >= 1
    _assert_same(before, _engine_namespaces())


def test_tracer_restores_after_an_exception():
    before = _engine_namespaces()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    _assert_same(before, _engine_namespaces())


def test_clock_scales_each_stretch_by_the_samples_around_it(monkeypatch):
    loop_times = iter([1, 1, 3, 1, 1])  # in units of REFERENCE_S
    monkeypatch.setattr(speed, "sample", lambda: next(loop_times) * speed.REFERENCE_S)
    clock = speed.Clock(interval=0.0)
    clock.tick()        # stretch between samples 1 and 1: unscaled
    clock.next_piece()  # between 1 and 3: halved
    clock.tick()        # between 3 and 1: halved
    clock.stop()        # between 1 and 1: unscaled
    assert len(clock.raw) == len(clock.scaled) == 2
    assert clock.samples == [t * speed.REFERENCE_S for t in (1, 1, 3, 1, 1)]
    assert all(0 < scaled < raw for raw, scaled in zip(clock.raw, clock.scaled))


def test_census_pass_is_cut_into_segments(tmp_path):
    before = _engine_namespaces()
    census = workloads.make("census-tri", _ctx(tmp_path))
    result = census.run_pass()
    assert (result.failed, result.problems) == (0, [])
    assert len(result.pieces) == len(result.scaled) == -(-result.items // workloads.SEGMENT_ITEMS)
    assert result.wall == sum(result.pieces)
    _assert_same(before, _engine_namespaces())


def test_gate_census_stream_byte_perturbed(tmp_path):
    census = workloads.make("census-tri", _ctx(tmp_path))
    result = census.run_pass(traced=True)
    assert (result.failed, result.problems) == (0, [])
    assert len(result.pieces) == 1
    data = bytearray(census.stream.read_bytes())
    data[len(data) // 2] ^= 1
    census.stream.write_bytes(bytes(data))
    failed, problems = gate.check_census_pass(
        0, json.dumps(census.expected["summary"], indent=2) + "\n", census.stream,
        census.expected, census.sample, ORACLE_IS_VALID)
    assert failed == census.expected["summary"]["total"]
    assert "stream sha256 differs from the recorded one" in problems


def test_gate_report_field_perturbed(tmp_path):
    rich = workloads.make("classify-rich", _ctx(tmp_path))
    rich.setup()
    result = rich.run_pass()
    assert (result.failed, result.problems) == (0, [])
    outputs = list(rich.reference)
    i = next(k for k, d in enumerate(rich.docs) if d.family == "reflection")
    outputs[i] = outputs[i].replace('"family": "reflection"', '"family": "delzant"', 1)
    assert outputs[i] != rich.reference[i]
    # Checked in full (first pass), against the first pass, and by digest alone.
    for reference, digest in ((None, None), (rich.reference, None), (None, rich.expected_sha256)):
        failed, _ = gate.check_reports(rich.docs, outputs, reference, digest, ORACLE_IS_VALID)
        assert failed > 0


def test_metric_names_and_units_match_benchmark_json():
    fake = workloads.PassResult(wall=1.0, items=10, valid=1, failed=0, pieces=[1.0],
                                scaled=[0.6], speed=[0.001, 0.001])
    workload = SimpleNamespace(tail_percentile=95, requests=lambda passes, scale=True: ([0.1] * 10, 10.0))
    e2e, _ = run.end_to_end(workload, [fake], 0.5)
    layers = run.layer_metrics({}, fake, 0)
    layers["trace.overhead_ratio"] = (1.0, "ratio")
    assert {n: u for n, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: u for n, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
