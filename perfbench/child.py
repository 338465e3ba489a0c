"""One workload process: runs ``fedgames.cli.main`` once and records it.

    python3 perfbench/child.py --record REC.json [--trace] -- <fedgames CLI args>

The record holds the CLI's exit code, the wall time of ``main`` alone
(interpreter start and imports excluded), the host factor of
``calib.py`` measured right before and after ``main``, this process's
peak RSS, the fingerprint of the outputs, the environment, and
with ``--trace`` the per-layer totals and spans of ``tracer.Tracer``. The
package is imported from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None if not found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def outputs_fingerprint(cli, out: Path):
    """``results_fingerprint`` of a `run`'s results.csv, or a sha256 of a
    `convergence`'s two tables; None when the command wrote neither."""
    if (out / "results.csv").exists():
        return cli.results_fingerprint(out / "results.csv")
    tables = [out / "convergence.csv", out / "gap_report.csv"]
    if all(p.exists() for p in tables):
        return hashlib.sha256(b"".join(p.read_bytes() for p in tables)).hexdigest()
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--record", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(SRC))
    import numpy

    from fedgames import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"fedgames imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    from calib import REFERENCE_S, kernel_seconds

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calib_before = kernel_seconds()
    start = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is recorded as a failed run, not lost
        traceback.print_exc()
        rc = 1
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    record = {
        "rc": rc,
        "wall_s": wall_s,
        "host_factor": (calib_before + kernel_seconds()) / 2 / REFERENCE_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": blas_threads(),
        },
    }
    if "--out" in cli_args:
        record["fingerprint"] = outputs_fingerprint(cli, Path(cli_args[cli_args.index("--out") + 1]))
    if tracer is not None:
        record["layers"] = tracer.layer_totals()
        record["missing_targets"] = tracer.missing
        record["spans"] = tracer.span_records()
    Path(args.record).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
