"""One magstark CLI invocation, optionally traced, as its own process.

    python3 perfbench/child.py --record FILE [--trace] [--window LO,HI] \
        <experiment> [--set section.key=value ...] --out DIR

The process imports the package from ``src/`` next to this directory, notes
the moment set-up (interpreter start, imports) ended, and calls
``magstark.cli.main``, the console-script entry point.  With ``--trace`` it
first wraps every public function of every magstark module, at every module
binding of it, and the numpy/scipy kernels those modules call, and records
one span per call.  ``--window`` names the configured spectral window so
eigensolves can count the eigenpairs that fall inside it.  The record file
receives the set-up end time (``time.monotonic``, which is system-wide, so
the parent can subtract its own spawn time) and the spans.
"""

import argparse
import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _eigh_info(a, *args, **kwargs):
    return {"n": int(a.shape[0]), "complex": bool(np.iscomplexobj(a))}


def _svd_info(a, *args, **kwargs):
    return {"m": int(a.shape[0]), "n": int(a.shape[1])}


def _solve_info(a, *args, **kwargs):
    """Order and fingerprint of the operator z - M being inverted.

    Every solve in magstark inverts z - M (or M + i), and the diagonal of that
    matrix separates both different z and different operators, so equal keys
    mark a resolvent computed twice.  The sum guards the off-diagonal part.
    """
    d = np.ascontiguousarray(np.diagonal(a)).tobytes()
    key = hashlib.blake2b(d + repr(complex(a.sum())).encode(), digest_size=12)
    return {"n": int(a.shape[0]), "key": key.hexdigest()}


KERNELS = (
    # (owning module, attribute, kernel name, call description)
    ("scipy.linalg", "eigh", "eigh", _eigh_info),
    ("numpy.linalg", "eigh", "eigh", _eigh_info),
    ("scipy.linalg", "svdvals", "svdvals", _svd_info),
    ("numpy.linalg", "solve", "solve", _solve_info),
    ("numpy", "kron", "kron", None),
    ("numpy.linalg", "matrix_power", "matrix_power", None),
    ("numpy.linalg", "eigvalsh", "eigvalsh", None),
)


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "magstark" or n.startswith("magstark.")]


class Tracer:
    """Span recorder; installing it patches the package and the kernels."""

    def __init__(self, window=None):
        self.window = window
        self.spans = []      # [name, start, end, parent index, extra]
        self._stack = []
        self._wrappers = {}  # id(original) -> wrapper

    def _wrap(self, name, fn, before=None, after=None, alloc=False):
        def wrapper(*args, **kwargs):
            extra = before(*args, **kwargs) if before else None
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                   extra]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            track = alloc and not tracemalloc.is_tracing()
            if track:
                tracemalloc.start()
            rec[1] = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                self._stack.pop()
                if track:
                    rec[4] = {"peak_alloc": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if after:
                after(out, extra)
            return out

        functools.update_wrapper(wrapper, fn)
        wrapper.perfbench_span = name
        return wrapper

    def _count_window(self, out, extra):
        if self.window is not None:
            lam = out[0] if isinstance(out, tuple) else out
            lo, hi = self.window
            extra["useful"] = int(((lam >= lo) & (lam <= hi)).sum())

    def install(self):
        """Wrap every public magstark function and kernel at every binding."""
        mods = package_modules()
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self._wrappers[id(obj)] = self._wrap(
                        f"{layer}.{name}", obj, alloc=(layer == "hamiltonian"))
        for owner_name, attr, kname, info in KERNELS:
            owner = importlib.import_module(owner_name)
            orig = getattr(owner, attr)
            after = self._count_window if kname == "eigh" else None
            w = self._wrap(f"kernel.{kname}", orig, info, after)
            self._wrappers[id(orig)] = w
            setattr(owner, attr, w)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                w = self._wrappers.get(id(obj))
                if w is not None:
                    setattr(mod, name, w)

    def unwrapped(self):
        """Bindings of public magstark functions or kernels left unpatched."""
        missed = []
        for mod in package_modules():
            for name, obj in vars(mod).items():
                if getattr(obj, "perfbench_span", None):
                    continue
                if id(obj) in self._wrappers or (
                        inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__.startswith("magstark")):
                    missed.append(f"{mod.__name__}.{name}")
        for owner_name, attr, _, _ in KERNELS:
            owner = importlib.import_module(owner_name)
            if not getattr(getattr(owner, attr), "perfbench_span", None):
                missed.append(f"{owner_name}.{attr}")
        return missed


def main(argv=None):
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--window", default=None)
    args, cli_argv = parser.parse_known_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import magstark.cli
    record = {"setup_end": time.monotonic()}
    tracer = None
    if args.trace:
        window = (tuple(float(v) for v in args.window.split(","))
                  if args.window else None)
        tracer = Tracer(window)
        tracer.install()
    try:
        return magstark.cli.main(cli_argv)
    finally:
        if tracer is not None:
            record["spans"] = tracer.spans
        Path(args.record).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
