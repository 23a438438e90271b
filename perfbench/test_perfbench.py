"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs two small invocations untraced, traced and traced on one BLAS thread
(about 15 s), and checks span coverage, that tracing leaves every payload
unchanged, that the tracer reaches every binding, and that every printed
metric name is declared in BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

SMALL = (run.Invocation("prop2", run._grid(21, 21)),
         run.Invocation("verify-theorem1", run._grid(21, 21), (1.2, 2.8)))


@pytest.fixture(scope="module")
def passes():
    work = run.WORK / "test"
    shutil.rmtree(work, ignore_errors=True)
    threads = run.nproc()
    return (run.run_pass(SMALL, work / "untraced", threads, False),
            run.run_pass(SMALL, work / "traced", threads, True),
            run.run_pass(SMALL, work / "single", 1, True))


def _reference(untraced):
    return {r["experiment"]: {"exit": r["exit"],
                              **run.read_payload(r["outdir"], r["experiment"])}
            for r in untraced["results"]}


def test_traced_payloads_match_untraced(passes):
    reference = _reference(passes[0])
    for p in passes:
        for r in p["results"]:
            assert r["exit"] in (0, 2)
            assert run.check(r, reference) is None


def test_check_rejects_a_changed_cell(passes):
    reference = _reference(passes[0])
    rows = reference["prop2"]["csv"]
    delta, product = rows[1].split(",")
    rows[1] = f"{delta},{float(product) * (1 + 1e-5)!r}"
    assert "CSV row 1" in run.check(passes[1]["results"][0], reference)


def test_spans_cover_the_wall_time(passes):
    m = run.per_layer(*passes)
    assert m["trace.coverage"] > 0.9
    assert m["cli.calls"] >= len(SMALL)
    assert m["kernel.eigh.calls"] == 3
    # prop2 solves at z and z' on each of its three sweep steps; z' is
    # re_z + 0.25i on every step, and equals z on the second one
    assert m["kernel.solve.calls"] == 6
    assert m["traces.resolvent.unique_ratio"] == pytest.approx(3 / 6)
    assert 0 < m["spectral.useful_pairs_ratio"] < 1


def test_tracer_reaches_every_binding():
    probe = ("import json, sys\n"
             f"sys.path[:0] = [{str(run.ROOT / 'src')!r}, {str(run.HERE)!r}]\n"
             "import magstark.cli, child\n"
             "t = child.Tracer()\n"
             "t.install()\n"
             "print(json.dumps(t.unwrapped()))\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == []


def test_printed_metrics_are_declared(passes):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert run.per_layer_units() == declared
    assert set(run.per_layer(*passes)) == set(declared)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert run.END_TO_END == declared
    assert set(run.end_to_end([passes[0]])) == set(declared)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
