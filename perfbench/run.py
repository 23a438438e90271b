"""End-to-end benchmark of the magstark experiment pipeline.

    python3 perfbench/run.py --workload fcalc --seed 1 --seconds 35 --trace 0

Each workload is a fixed list of ``magstark <experiment>`` invocations.  A
pass runs every invocation once, each as its own process, one after another
(a closed loop with one client), with BLAS threads pinned to ``nproc``.  The
seed only permutes the invocation order of each pass: the configs are fixed
inputs.  Passes repeat while the next one still fits in ``--seconds``.
Every invocation's exit code, gate verdicts and CSV payload are checked
against ``reference.json``; an invocation that exits 1, crashes, times out or
differs counts as failed, so ``failed / attempted`` is the failed fraction.

End-to-end metrics, tracing off, built from each invocation's median over
the passes:
  wall_s       one pass, process start-up included (sum of the medians)
  setup_s      interpreter start and imports, summed over the invocations
  peak_rss_mb  the largest peak RSS of any invocation

With ``--trace 1`` the run makes one untraced pass, one traced pass and one
traced pass with a single BLAS thread, and prints the per-layer metrics:
calls and time per kernel (numpy/scipy call) and per package module, with
kernel work as a computed count (N^3 per eigh or solve, m*n*min(m, n) per
SVD), the 1-thread/n-thread time ratio of eigh, svdvals and solve, waste
ratios (eigenpairs inside supp f, singular values used, distinct
resolvents), assembly's peak allocation, each experiment's untraced wall
time and RSS, span coverage of the wall time and the tracing overhead.
Ratios and times of a layer the workload does not reach read 0.  Expected
couplings: eigh moves wall_s on fcalc and landau; svdvals on norms and
landau; solve and resolvent reuse on norms; hamiltonian moves peak_rss_mb.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
record the environment, the pass count and each pass's wall time.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK = HERE / ".work"
TIMEOUT_S = 60.0
# CSV cells are compared with math.isclose: BLAS thread count alone moves
# them by up to ~1e-10 relative, and by up to 2e-13 absolute in cells that
# are pure round-off (expansion residuals ~1e-16, truncation deltas ~1e-9).
RTOL = 1e-7
ATOL = 1e-10


class Invocation(NamedTuple):
    experiment: str
    overrides: tuple = ()
    window: tuple = None  # support of the configured f, for useful pairs


def _grid(nx, ny):
    return (f"grid.nx={nx}", f"grid.ny={ny}")


# Reference configs with the grid shrunk so one pass of each workload takes
# about 10 s on 2 cores (the reference grids take 40-70 s per pass).
WORKLOADS = {
    "fcalc": (
        Invocation("verify-theorem1", _grid(35, 35), (1.2, 2.8)),
        Invocation("truncation", _grid(27, 27), (1.2, 2.8)),
        Invocation("scaling", _grid(61, 13), (1.5, 2.5)),
        Invocation("mourre", _grid(31, 31), (1.6, 2.4)),
    ),
    "norms": (
        Invocation("lap-probe", _grid(25, 25)),
        Invocation("prop2", _grid(25, 25)),
        Invocation("prop4", _grid(25, 25)),
        Invocation("appendix-norms", _grid(25, 25)),
        Invocation("expansion-check", _grid(25, 25)),
    ),
    "landau": (
        Invocation("spectrum", _grid(41, 41)),
        Invocation("lemma7", _grid(41, 21)),
    ),
}

EXPERIMENTS = sorted(inv.experiment for w in WORKLOADS.values() for inv in w)
LAYERS = ("grid", "potentials", "hamiltonian", "spectral", "traces", "ssf",
          "mourre", "cli")
KERNEL_TIMED = ("eigh", "svdvals", "solve")
KERNEL_COUNTED = ("kron", "matrix_power", "eigvalsh")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for k in KERNEL_TIMED:
        units.update({f"kernel.{k}.calls": "count", f"kernel.{k}.s": "s",
                      f"kernel.{k}.work": "count",
                      f"kernel.{k}.speedup": "ratio"})
    for k in KERNEL_COUNTED:
        units.update({f"kernel.{k}.calls": "count", f"kernel.{k}.s": "s"})
    units.update({"kernel.eigh.complex_frac": "ratio",
                  "kernel.svdvals.used_ratio": "ratio",
                  "spectral.useful_pairs_ratio": "ratio",
                  "traces.resolvent.unique_ratio": "ratio",
                  "hamiltonian.peak_alloc_mb": "MB"})
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s"})
    for exp in EXPERIMENTS:
        units.update({f"cli.{exp}.wall_s": "s", f"cli.{exp}.rss_mb": "MB"})
    units.update({"trace.coverage": "ratio", "trace.overhead_frac": "ratio"})
    return units


def nproc():
    return len(os.sched_getaffinity(0))


def run_invocation(inv, outdir, threads, trace):
    """Run one invocation as its own process; return its measurements."""
    outdir.mkdir(parents=True, exist_ok=True)
    stem = outdir / inv.experiment
    record = Path(f"{stem}.record.json")
    record.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--record", str(record)]
    if trace:
        cmd.append("--trace")
        if inv.window:
            cmd += ["--window", ",".join(str(v) for v in inv.window)]
    cmd.append(inv.experiment)
    for item in inv.overrides:
        cmd += ["--set", item]
    cmd += ["--out", str(outdir)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    with open(f"{stem}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"experiment": inv.experiment, "exit": proc.returncode,
           "wall": t1 - t0, "rss_mb": usage.ru_maxrss / 1024.0,
           "setup": None, "spans": None, "outdir": outdir}
    if record.exists():
        rec = json.loads(record.read_text(encoding="utf-8"))
        out["setup"] = rec["setup_end"] - t0
        out["spans"] = rec.get("spans")
    return out


def run_pass(invocations, outdir, threads, trace):
    t0 = time.monotonic()
    results = [run_invocation(inv, outdir, threads, trace)
               for inv in invocations]
    return {"wall": time.monotonic() - t0, "results": results}


def read_payload(outdir, experiment):
    """Gate verdicts and CSV cells of one invocation's output."""
    env = json.loads((outdir / f"{experiment}.json").read_text("utf-8"))
    rows = (outdir / f"{experiment}.csv").read_text("utf-8").splitlines()
    return {"gates": {k: g["pass"] for k, g in env["gates"].items()},
            "csv": rows}


def _cell_matches(got, want):
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def check(result, reference):
    """None if the invocation matches the seed reference, else the reason."""
    exp = result["experiment"]
    ref = reference[exp]
    if result["exit"] not in (0, 2):
        return f"{exp}: exit {result['exit']}"
    if result["exit"] != ref["exit"]:
        return f"{exp}: exit {result['exit']}, reference {ref['exit']}"
    if result["setup"] is None:
        return f"{exp}: no set-up record"
    try:
        got = read_payload(result["outdir"], exp)
    except (OSError, ValueError, KeyError) as exc:
        return f"{exp}: unreadable output ({exc})"
    if got["gates"] != ref["gates"]:
        return f"{exp}: gates {got['gates']}, reference {ref['gates']}"
    if len(got["csv"]) != len(ref["csv"]):
        return f"{exp}: {len(got['csv'])} CSV rows, reference {len(ref['csv'])}"
    for i, (row, want) in enumerate(zip(got["csv"], ref["csv"])):
        cells, ref_cells = row.split(","), want.split(",")
        if (len(cells) != len(ref_cells)
                or not all(map(_cell_matches, cells, ref_cells))):
            return f"{exp}: CSV row {i} {row!r}, reference {want!r}"
    return None


def _medians(passes, key):
    """Each invocation's median of one measurement over the passes."""
    by_exp = defaultdict(list)
    for p in passes:
        for r in p["results"]:
            by_exp[r["experiment"]].append(r[key] or 0.0)
    return [statistics.median(v) for v in by_exp.values()]


def end_to_end(passes):
    """A typical pass: each invocation's median over passes, summed or maxed.

    Per-invocation medians drop a slow outlier invocation that a median of
    pass totals would keep.
    """
    return {"wall_s": sum(_medians(passes, "wall")),
            "setup_s": sum(_medians(passes, "setup")),
            "peak_rss_mb": max(_medians(passes, "rss_mb"))}


def _ratio(num, den):
    return num / den if den else 0.0


def span_totals(traced_pass):
    """Sum the spans of a traced pass into per-layer and per-kernel counts."""
    t = defaultdict(float)
    for r in traced_pass["results"]:
        spans = r["spans"] or []
        child_time = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        keys = set()
        for i, (name, t0, t1, parent, extra) in enumerate(spans):
            dur = t1 - t0
            layer, _, fn = name.partition(".")
            if parent is None:
                t["root_s"] += dur
            if layer != "kernel":
                t[f"{layer}.calls"] += 1
                t[f"{layer}.self_s"] += dur - child_time[i]
                if extra and "peak_alloc" in extra:
                    t["hamiltonian.peak_alloc"] = max(
                        t["hamiltonian.peak_alloc"], extra["peak_alloc"])
                continue
            t[f"kernel.{fn}.calls"] += 1
            t[f"kernel.{fn}.s"] += dur
            caller = spans[parent][0] if parent is not None else ""
            if fn == "eigh":
                t["kernel.eigh.work"] += extra["n"] ** 3
                t["kernel.eigh.complex"] += extra["complex"]
                if caller == "spectral.eigendecompose" and "useful" in extra:
                    t["pairs.useful"] += extra["useful"]
                    t["pairs.computed"] += extra["n"]
            elif fn == "svdvals":
                m, n = extra["m"], extra["n"]
                t["kernel.svdvals.work"] += m * n * min(m, n)
                t["svdvals.computed"] += min(m, n)
                t["svdvals.used"] += (1 if caller == "traces.operator_norm"
                                      else min(m, n))
            elif fn == "solve":
                t["kernel.solve.work"] += extra["n"] ** 3
                keys.add(extra["key"])
        t["solve.unique"] += len(keys)
    return t


def per_layer(untraced, traced, single):
    """Per-layer metrics from one untraced, one traced and one 1-thread pass."""
    t = span_totals(traced)
    t1 = span_totals(single)
    m = {}
    for k in KERNEL_TIMED + KERNEL_COUNTED:
        m[f"kernel.{k}.calls"] = t[f"kernel.{k}.calls"]
        m[f"kernel.{k}.s"] = t[f"kernel.{k}.s"]
    for k in KERNEL_TIMED:
        m[f"kernel.{k}.work"] = t[f"kernel.{k}.work"]
        m[f"kernel.{k}.speedup"] = _ratio(t1[f"kernel.{k}.s"],
                                          t[f"kernel.{k}.s"])
    m["kernel.eigh.complex_frac"] = _ratio(t["kernel.eigh.complex"],
                                           t["kernel.eigh.calls"])
    m["kernel.svdvals.used_ratio"] = _ratio(t["svdvals.used"],
                                            t["svdvals.computed"])
    m["spectral.useful_pairs_ratio"] = _ratio(t["pairs.useful"],
                                              t["pairs.computed"])
    m["traces.resolvent.unique_ratio"] = _ratio(t["solve.unique"],
                                                t["kernel.solve.calls"])
    m["hamiltonian.peak_alloc_mb"] = t["hamiltonian.peak_alloc"] / 2 ** 20
    for layer in LAYERS:
        m[f"{layer}.calls"] = t[f"{layer}.calls"]
        m[f"{layer}.self_s"] = t[f"{layer}.self_s"]
    for exp in EXPERIMENTS:
        m[f"cli.{exp}.wall_s"] = 0.0
        m[f"cli.{exp}.rss_mb"] = 0.0
    for r in untraced["results"]:
        m[f"cli.{r['experiment']}.wall_s"] = r["wall"]
        m[f"cli.{r['experiment']}.rss_mb"] = r["rss_mb"]
    covered = t["root_s"] + sum(r["setup"] or 0.0 for r in traced["results"])
    wall = sum(r["wall"] for r in traced["results"])
    m["trace.coverage"] = _ratio(covered, wall)
    m["trace.overhead_frac"] = _ratio(traced["wall"], untraced["wall"])
    return m


ENV_PROBE = """
import json, platform, sys
sys.path.insert(0, "src")
import magstark.cli, numpy, scipy
def blas(mod):
    b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{b.get('name')} {b.get('version')}"
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}))
"""


def environment(threads):
    """Library versions and thread settings; the probe also warms imports."""
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=ROOT,
                           capture_output=True, text=True, timeout=TIMEOUT_S,
                           check=True)
    env = json.loads(probe.stdout)
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    env.update(nproc=nproc(), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, src_sha256=digest.hexdigest(),
               git_sha=None)
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "magstark" / "cli.py").is_file():
        print(f"error: no magstark sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    invocations = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    threads = nproc()
    shutil.rmtree(WORK, ignore_errors=True)
    print("env " + json.dumps(environment(threads)), flush=True)

    def one_pass(k, n_threads, trace):
        order = rng.sample(invocations, len(invocations))
        return run_pass(order, WORK / f"pass{k}", n_threads, trace)

    if args.trace:
        passes = [one_pass(0, threads, False), one_pass(1, threads, True),
                  one_pass(2, 1, True)]
        values = per_layer(*passes)
        units = per_layer_units()
    else:
        passes = []
        start = time.monotonic()
        while True:
            passes.append(one_pass(len(passes), threads, False))
            typical = statistics.median(p["wall"] for p in passes)
            if time.monotonic() - start + typical > args.seconds:
                break
        values = end_to_end(passes)
        units = END_TO_END
    print(f"passes {len(passes)} pass_wall_s "
          + json.dumps([p["wall"] for p in passes]))

    results = [r for p in passes for r in p["results"]]
    failures = [f for f in (check(r, reference) for r in results) if f]
    for f in failures:
        print("mismatch " + f)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
