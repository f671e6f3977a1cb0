"""One measured ``repro assemble`` call in a fresh interpreter.

Usage::

    python3 perfbench/sample.py --result R.json [--trace] -- <assemble args>
    python3 perfbench/sample.py --import-only

``--import-only`` imports ``repro`` and the stage modules and exits; the
parent times it as the set-up every invocation pays.  Otherwise the
script times ``repro.cli.main(["assemble", ...])`` and writes a JSON
result: wall seconds, process CPU (self plus waited children, so rank
processes count), peak RSS and the exit code.  With ``--trace`` it first
installs the span wrappers of :mod:`spans` and adds the per-layer
metrics, the program's stage times and the spans themselves.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def import_stage_modules() -> None:
    import repro.cli
    import repro.core.driver  # noqa: F401
    import repro.core.local_assembler  # noqa: F401
    import repro.distributed.procrank  # noqa: F401
    import repro.pipeline  # noqa: F401

    repro.cli.build_parser()  # imports gpusim, sanitize and service


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("assemble", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    import_stage_modules()
    if args.import_only:
        return 0

    from repro.cli import main as repro_main

    assemble_args = args.assemble[1:] if args.assemble[:1] == ["--"] else args.assemble
    rec = None
    if args.trace:
        from spans import SpanRecorder, install

        rec = SpanRecorder()
        install(rec)
    log_path = args.result.with_suffix(".log")
    with open(log_path, "w") as log, contextlib.redirect_stdout(log):
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        code = repro_main(["assemble", *assemble_args])
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {"exit_code": code, "assemble_s": wall, "cpu_s": cpu,
           "peak_rss_mb": rss_kb / 1024.0}
    if rec is not None:
        from spans import layer_metrics

        out["layers"], out["stage_s"] = layer_metrics(rec)
        out["spans"] = [{k: v for k, v in s.items() if k != "note"} for s in rec.spans]
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
