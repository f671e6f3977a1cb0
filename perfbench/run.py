"""End-to-end benchmark of ``repro assemble`` with per-layer attribution.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload arctic-cpu --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The runner writes the workload's read sets and reference FASTA from
``--seed`` (see :mod:`workloads`), then times ``repro assemble`` in a
closed loop: one client, one assembly at a time, each in a fresh
interpreter that starts only after the previous one has exited, cycling
through the read sets.  It keeps starting assemblies until ``--seconds``
are used (at least one per read set).  A timing is the median per read
set, averaged over the read sets.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced assemblies of read set 0
(the traced ones run with span wrappers installed, see :mod:`spans`) and
prints every per-layer metric, the stage shares, the unattributed
residuals and the tracing overhead.

Every assembly's output is checked: its contig and scaffold digests must
repeat across the run, match the digests recorded in ``expected.json``
for the seed (``{workload: {seed: {"reads"|"contigs"|"scaffolds": [one
sha256 per read set]}}}``) and, for ``arctic-gpu``, equal the
``arctic-cpu`` contigs byte for byte; count metrics must repeat exactly,
also against earlier runs in the same checkout.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any check failed.
Inputs, outputs and caches live under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

MIN_TRACED = 2
SETUP_REPEATS = 5
#: a single assembly is killed (and counted as failed) after this long
SAMPLE_TIMEOUT_S = 60
#: nothing new starts once a run has used this long
RUN_CAP_S = 100


def percentile_with_tail(values: list[float]) -> tuple[str, float | None]:
    """The highest of p99.9/p99/p90/p75/p50 with at least ten samples
    beyond it, or ``("-", None)`` when there are fewer than 20 samples."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{p:g}", cuts[int(round(p * 10)) - 1]
    return "-", None


def mean_of_medians(per_set: list[list[float]]) -> float:
    return statistics.fmean(statistics.median(v) for v in per_set)


class Runner:
    def __init__(self, workload, seed: int, seconds: float, trace: bool) -> None:
        from workloads import generate_inputs, sha256_file

        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / f"{workload.name}-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        (WORK / "tmp").mkdir(parents=True, exist_ok=True)
        self.cache = WORK / "cache"
        self.cache.mkdir(parents=True, exist_ok=True)
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                    "TMPDIR": str(WORK / "tmp")}
        input_dir = WORK / "inputs" / "-".join(map(str, (*workload.input_key, seed)))
        self.reads, self.refs = generate_inputs(workload, seed, input_dir)
        self.read_shas = [sha256_file(p) for p in self.reads]
        self.input_sha = hashlib.sha256("".join(self.read_shas).encode()).hexdigest()
        self.refs_sha = sha256_file(self.refs)
        self.failures: list[str] = []
        self.n_samples = 0
        self.failed_samples = 0
        self.run_failed = False

    # -- processes -------------------------------------------------------

    def _child(self, args: list[str]) -> subprocess.CompletedProcess:
        """Run ``sample.py`` in its own process group, so that on a
        timeout the rank processes it forked are killed along with it."""
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "sample.py"), *args],
            env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return subprocess.CompletedProcess(proc.args, proc.returncode, None, err)

    def setup_seconds(self) -> list[float]:
        """Fresh interpreter to ``repro`` and its stage modules imported."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            proc = self._child(["--import-only"])
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"import failed:\n{proc.stderr[-2000:]}")
        return times

    def assemble(self, tag: str, read_set: int, trace: bool = False,
                 args: tuple[str, ...] | None = None) -> dict:
        """Run one assembly; returns its measurements plus digests, or a
        dict with ``error`` set.  *args* replaces the workload's flags
        (the cross-check against another workload, not counted as a run)."""
        from quality import output_digests

        if args is None:
            self.n_samples += 1
        out = self.dir / f"out-{tag}"
        for f in ("contigs.fasta", "scaffolds.fasta"):
            (out / f).unlink(missing_ok=True)
        result = self.dir / f"sample-{tag}.json"
        result.unlink(missing_ok=True)
        cmd = ["--result", str(result)] + (["--trace"] if trace else [])
        cmd += ["--", str(self.reads[read_set]), "--out", str(out),
                *(args or self.w.assemble_args)]
        if trace:
            cmd.append("--profile-host")
        try:
            proc = self._child(cmd)
        except subprocess.TimeoutExpired:
            return {"error": f"killed after {SAMPLE_TIMEOUT_S} s"}
        if proc.returncode != 0 or not result.exists():
            return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
        sample = json.loads(result.read_text())
        if sample["exit_code"] != 0:
            return {"error": f"repro assemble returned {sample['exit_code']}"}
        sample["digests"] = output_digests(out)
        sample["out"] = str(out)
        sample["read_set"] = read_set
        return sample

    # -- checks ----------------------------------------------------------

    def fail_run(self, message: str) -> None:
        """A failure of the run as a whole (cross-check, quality,
        nondeterminism), which fails every assembly in it."""
        self.failures.append(message)
        self.run_failed = True

    def failed(self) -> int:
        return self.n_samples if self.run_failed else self.failed_samples

    def expected(self, workload_name: str) -> dict:
        if not EXPECTED.exists():
            return {}
        return json.loads(EXPECTED.read_text()).get(workload_name, {}).get(str(self.seed), {})

    def _contigs_cache(self, workload_name: str, read_set: int) -> Path:
        return self.cache / f"contigs-{workload_name}-{self.read_shas[read_set][:24]}.txt"

    def reference_contigs(self) -> list[str | None]:
        """Per read set, the contigs digest this workload must reproduce
        (``None``: no cross-check for that read set)."""
        other = self.w.same_contigs_as
        refs: list[str | None] = [None] * len(self.reads)
        if other is None:
            return refs
        recorded = self.expected(other).get("contigs", [])
        for i in range(len(self.reads)):
            cached = self._contigs_cache(other, i)
            if i < len(recorded):
                refs[i] = recorded[i]
            elif cached.exists():
                refs[i] = cached.read_text().strip()
        if refs[0] is None:
            from workloads import WORKLOADS

            ref = self.assemble("reference", 0, args=WORKLOADS[other].assemble_args)
            if "error" in ref:
                self.fail_run(f"reference {other} run failed: {ref['error']}")
            else:
                refs[0] = ref["digests"]["contigs"]
        return refs

    def check(self, sample: dict, first: dict | None, reference: str | None) -> list[str]:
        if "error" in sample:
            return [sample["error"]]
        problems = []
        got = sample["digests"]
        i = sample["read_set"]
        if "contigs" not in got or (Path(sample["out"]) / "contigs.fasta").stat().st_size == 0:
            problems.append("no contigs written")
        if first is not None and got != first["digests"]:
            problems.append(f"output digest differs between runs: {got} vs {first['digests']}")
        exp = self.expected(self.w.name)
        for key in ("contigs", "scaffolds"):
            if i < len(exp.get(key, [])) and got.get(key) != exp[key][i]:
                problems.append(f"{key} digest {got.get(key)} != recorded {exp[key][i]}")
        if i < len(exp.get("reads", [])) and exp["reads"][i] != self.read_shas[i]:
            problems.append(f"reads sha256 {self.read_shas[i]} != recorded {exp['reads'][i]}")
        if reference is not None and got.get("contigs") != reference:
            problems.append(f"contigs differ from {self.w.same_contigs_as}'s ({reference})")
        return problems

    # -- measurement -----------------------------------------------------

    def measure(self) -> tuple[list[list[dict]], list[dict]]:
        """Closed loop of assemblies for ``--seconds``.  Returns the
        untraced samples per read set and the traced samples (read set 0
        only), keeping those that passed every check."""
        references = self.reference_contigs()
        n_sets = 1 if self.trace else len(self.reads)
        untraced: list[list[dict]] = [[] for _ in range(n_sets)]
        traced: list[dict] = []
        first: list[dict | None] = [None] * n_sets
        durations: list[float] = []
        t0 = time.perf_counter()
        i = 0
        while True:
            trace = self.trace and i % 2 == 1
            read_set = i % n_sets
            tag = "trace" if trace else f"set{read_set}"
            s0 = time.perf_counter()
            sample = self.assemble(tag, read_set, trace)
            durations.append(time.perf_counter() - s0)
            problems = self.check(sample, first[read_set], references[read_set])
            if problems:
                self.failed_samples += 1
                self.failures.extend(f"run {i} (read set {read_set}): {p}" for p in problems)
            else:
                first[read_set] = first[read_set] or sample
                (traced if trace else untraced[read_set]).append(sample)
            i += 1
            elapsed = time.perf_counter() - t0
            next_s = statistics.median(durations[-2:])
            enough = len(traced) >= MIN_TRACED if self.trace else all(untraced)
            if elapsed + next_s > RUN_CAP_S:
                break
            if (enough or i >= 4 * n_sets + 2) and elapsed + next_s > self.seconds:
                break
        if self.w.same_contigs_as is None:
            for j, f in enumerate(first):
                if f is not None:
                    self._contigs_cache(self.w.name, j).write_text(f["digests"]["contigs"])
        else:
            checked = sum(ref is not None for ref in references[:n_sets])
            print(f"   contigs of {checked} of {n_sets} read sets cross-checked "
                  f"against {self.w.same_contigs_as}")
        return untraced, traced


def _environment() -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        numba_state = "present"
    except ImportError:
        numba_state = "absent (the _fastops pure-NumPy lane is the one measured)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_state,
    }


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def run_end_to_end(r: Runner, spec: dict) -> tuple[dict, dict]:
    from quality import quality_metrics

    setup = r.setup_seconds()
    untraced, _ = r.measure()
    series: dict[str, list[list[float]]] = {"setup_s": [setup]}
    quality: list[dict] = []
    if all(untraced):
        for key in ("assemble_s", "cpu_s", "peak_rss_mb"):
            series[key] = [[s[key] for s in per_set] for per_set in untraced]
        quality = [quality_metrics(Path(per_set[0]["out"]) / "contigs.fasta", r.refs, r.cache)
                   for per_set in untraced]
        for key in ("contig_n50_bp", "genome_recovery", "chimeric_contigs"):
            series[key] = [[q[key]] for q in quality]
        recovery = statistics.fmean(q["genome_recovery"] for q in quality)
        if recovery < r.w.min_recovery:
            r.fail_run(f"genome recovery {recovery:.3f} < {r.w.min_recovery}")
    print(f"   value = mean over {len(r.reads)} read sets of the per-set median")
    print(f"{'metric':<18}{'unit':<10}{'value':>14}{'upper pct':>22}{'n':>6}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    # printed for the reader, not a BENCHMARK.json metric: it reads 0
    units.setdefault("chimeric_contigs", "count")
    metrics = {}
    for name, unit in units.items():
        if name not in series:
            continue
        value = mean_of_medians(series[name])
        pooled = [v for per_set in series[name] for v in per_set]
        label, upper = percentile_with_tail(pooled)
        upper_s = f"{label}={_fmt(upper)}" if upper is not None else "- (n<20)"
        print(f"{name:<18}{unit:<10}{_fmt(value):>14}{upper_s:>22}{len(pooled):>6}")
        if any(m["name"] == name for m in spec["end_to_end"]):
            metrics[name] = {"value": value, "unit": unit}
    attempted = r.n_samples
    print(f"{'fail_rate':<18}{'fraction':<10}{_fmt(r.failed() / max(attempted, 1)):>14}"
          f"{'':>22}{attempted:>6}")
    digests = [per_set[0]["digests"] for per_set in untraced if per_set]
    return metrics, {"series": series, "quality": quality, "digests": digests}


def _report_trace(r: Runner, untraced: list[dict], traced: list[dict], layers: dict) -> dict:
    from spans import STAGES

    asm = statistics.median(s["assemble_s"] for s in traced)
    base = statistics.median(s["assemble_s"] for s in untraced)
    stage_s = {k: statistics.median(s["stage_s"].get(k, 0.0) for s in traced)
               for k in STAGES}
    print(f"{'stage':<20}{'time_s':>10}{'share':>9}{'unattributed_s':>16}{'of stage':>10}")
    for stage, (prefix, _) in STAGES.items():
        t = stage_s[stage]
        res = layers[f"{prefix}.unattributed_s"]
        print(f"{stage:<20}{t:>10.4f}{t / asm:>9.1%}{res:>16.6f}"
              f"{(res / t if t else 0.0):>10.2%}")
    outside = asm - sum(stage_s.values())
    print(f"{'outside any stage':<20}{outside:>10.4f}{outside / asm:>9.1%}")
    overhead = asm / base
    print(f"tracing overhead: traced median {asm:.4f} s / untraced median {base:.4f} s "
          f"= {overhead:.3f}")

    findings = []
    la = stage_s["local assembly"]
    if layers["alignment.pass2.core_s"]:  # in-process pass 2 (not ranked)
        core = layers["alignment.pass2.core_s"]
        mat = layers["alignment.pass2.materialise_s"]
        findings.append(("pass-2 materialise_alignment costs more than pass-2 align_core",
                         f"{mat:.4f} s vs {core:.4f} s", mat > core))
    if layers["cpu_local_assembly.build_table_s"]:
        share = layers["cpu_local_assembly.build_table_s"] / la
        findings.append(("build_kmer_table is most of CPU local assembly",
                         f"{share:.1%} of {la:.3f} s", share > 0.5))
    if layers["driver.dispatch_s"]:
        share = layers["driver.dispatch_s"] / la
        findings.append(("driver dispatch is most of GPU local assembly",
                         f"{share:.1%} of {la:.3f} s", share > 0.5))
    if r.w.name == "wa-multik-ranked":
        share = stage_s["contig generation"] / asm
        findings.append(("contig generation is about half of wa-multik-ranked",
                         f"{share:.1%} of assemble_s", 0.4 <= share <= 0.65))
    for claim, measured, holds in findings:
        print(f"finding: {claim}: {measured} -> {'confirmed' if holds else 'refuted'}")
    return {"stage_s": stage_s, "tracing_overhead": overhead, "outside_stages_s": outside,
            "findings": [{"claim": c, "measured": m, "holds": h} for c, m, h in findings]}


def run_traced(r: Runner, spec: dict) -> tuple[dict, dict]:
    from spans import PER_LAYER

    untraced_sets, traced = r.measure()
    untraced = untraced_sets[0]
    if not traced or not untraced:
        return {}, {}
    exact = [k for k, u in PER_LAYER.items() if u != "s" or k == "gpusim.modelled_kernel_s"]
    for s in traced[1:]:
        for k in exact:
            if s["layers"][k] != traced[0]["layers"][k]:
                r.fail_run(f"nondeterminism: {k} = {s['layers'][k]} "
                                  f"vs {traced[0]['layers'][k]}")
    counts = {k: traced[0]["layers"][k] for k in exact}
    counts_path = r.cache / f"counts-{r.w.name}-{r.read_shas[0][:24]}.json"
    if counts_path.exists():
        for k, v in json.loads(counts_path.read_text()).items():
            if counts.get(k) != v:
                r.fail_run(f"nondeterminism: {k} = {counts.get(k)} "
                                  f"vs {v} in an earlier run")
    elif not r.failures:
        counts_path.write_text(json.dumps(counts))
    layers = {k: (counts[k] if k in counts
                  else statistics.median(s["layers"][k] for s in traced))
              for k in PER_LAYER}
    details = _report_trace(r, untraced, traced, layers)
    print(f"{'per-layer metric (read set 0)':<36}{'unit':<8}{'value':>16}")
    metrics = {}
    for m in spec["per_layer"]:
        value = layers[m["name"]]
        print(f"{m['name']:<36}{m['unit']:<8}{_fmt(value):>16}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    spans_path = r.dir / "spans.json"
    spans_path.write_text(json.dumps([{"run": i, "spans": s["spans"]}
                                      for i, s in enumerate(traced)]))
    print(f"spans of {len(traced)} traced runs -> {spans_path}")
    details["digests"] = [traced[0]["digests"]]
    return metrics, details


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    from workloads import WORKLOADS

    r = Runner(WORKLOADS[name], seed, seconds, trace)
    print(f"== {name}  seed {seed}  reads sha256 {' '.join(s[:16] for s in r.read_shas)}  "
          f"refs sha256 {r.refs_sha[:16]}")
    print(f"   repro assemble {' '.join(r.w.assemble_args)}  "
          "(closed loop: one client, a fresh interpreter per assembly)")
    metrics, details = (run_traced if trace else run_end_to_end)(r, spec)
    for f in r.failures:
        print(f"CHECK FAILED: {f}")
    env = _environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "reads_sha256": r.read_shas, "input_sha256": r.input_sha,
              "refs_sha256": r.refs_sha, "environment": env, "failures": r.failures,
              "metrics": metrics, **details}
    results = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1))
    print(f"results -> {results}")
    return {"correct": not r.failures and bool(metrics),
            "attempted": max(r.n_samples, 1), "failed": r.failed(), "metrics": metrics}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").exists():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from spans import PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["per_layer"]] != list(PER_LAYER):
        print("error: BENCHMARK.json per_layer does not match spans.PER_LAYER",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL)

    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec)
               for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(v["correct"] for v in results.values()),
            "attempted": sum(v["attempted"] for v in results.values()),
            "failed": sum(v["failed"] for v in results.values()),
            "metrics": {f"{n}/{k}": v for n, res in results.items()
                        for k, v in res["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
