#!/usr/bin/env python3
"""symfact benchmark: one closed-loop client per workload, in one process.

    python3 benchmarks/run.py --workload dense --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py): ``dense`` (factor_symmetric, pure CaseI at
n=10), ``isotropic`` (the criterion-03 isotropic stress mix, n=2..10) and
``cli`` (in-process ``symfact.cli.main`` over matrix files).  The package is
imported from ``src/`` beside this directory; BLAS/OpenMP pools are capped
at one thread before numpy loads.

``--trace 0`` measures the end-to-end metrics with nothing wrapped (see
end_to_end for how each is taken from the closed loop's samples).
``--trace 1`` alternates untraced and traced passes over the workload's
input pool and reports per-layer metrics per pass: call counts, self times
from spans, branch counts, and the tracing overhead.

Every operation's output is checked outside the timed span with plain
numpy; the last stdout line is the JSON result, and the full record (env
stamp, failures by input seed, tail percentile) goes to .bench_out/.
Metric names and units come from BENCHMARK.json at the root of the tree.

The run also checks that the workload's inputs at the reference seed still
have the digest recorded in inputs.json.  A deliberate change of traffic
edits that file, with the value of ``compute_digest``.
"""

import os

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SYMFACT_SEED", None)  # the CLI's default seed must not leak in

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
DIGEST_FILE = HERE / "inputs.json"
SPEC_FILE = ROOT / "BENCHMARK.json"

#: set-ups per untraced run, spread over it; setup_s is the fastest
SETUP_REPS = 25
#: percentile of latency_tail_ms; it is lowered until at least TAIL_BEYOND
#: samples lie beyond it.  The highest percentile with ten samples beyond
#: (about p99.5 here) is set by stalls of a shared host: over ten runs it
#: spread 0.26 of its median on dense, p95 spread 0.05.
TAIL_PERCENTILE = 95.0
TAIL_BEYOND = 10

ISOTROPIC_BRANCHES = ("CaseII_LambdaZero", "CaseII_General", "CaseII_Degenerate")
EIGENPAIR_BRANCHES = ("CaseI",) + ISOTROPIC_BRANCHES


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


def metric_units(kind: str) -> dict:
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------- set-up

def require_source() -> None:
    if not (SRC / "symfact" / "__init__.py").is_file():
        raise SetupError(f"no symfact package under {SRC}")


def import_symfact():
    """Fresh import of symfact from src/, compiling from source every time.

    Bytecode is neither read nor written (the cache prefix points at a
    directory that never exists), so import cost does not depend on what
    earlier runs left behind.
    """
    require_source()
    for name in [m for m in sys.modules if m == "symfact" or m.startswith("symfact.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    saved = sys.dont_write_bytecode, sys.pycache_prefix
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(WORK_DIR / "no-bytecode")
    try:
        importlib.invalidate_caches()
        package = importlib.import_module("symfact")
        mods = {s: importlib.import_module(f"symfact.{s}") for s in tracing.TRACED_MODULES}
    finally:
        sys.dont_write_bytecode, sys.pycache_prefix = saved
    if Path(package.__file__).resolve().parent != (SRC / "symfact").resolve():
        raise SetupError(f"symfact imported from {package.__file__}, not from {SRC}")
    return package, mods


def setup(name: str, seed: int, size: dict, workdir: str, reports: dict | None = None):
    """Import, generate inputs, write files, one warm-up op.

    Returns (package, modules, workload, seconds, warm-up record).
    """
    t0 = time.perf_counter()
    package, mods = import_symfact()
    wl = workloads.build(name, mods, seed, size, workdir, reports)
    record = run_op(wl.ops[0])
    return package, mods, wl, time.perf_counter() - t0, record


# ------------------------------------------------------------- measuring

def run_op(op):
    """(op, output or None, error or None, seconds): the timed call."""
    t0 = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # a typed error from symfact is a failed op, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    return op, out, err, time.perf_counter() - t0


def check_records(records) -> list:
    """Check every (op, output, error, seconds) outside the timed span."""
    checked = []
    for op, out, err, dt in records:
        if err is not None:
            check = workloads.Check(False, float("inf"), err)
        else:
            try:
                check = op.check(out)
            except Exception as exc:  # a malformed output fails its check
                check = workloads.Check(False, float("inf"), f"check raised {type(exc).__name__}: {exc}")
        checked.append((op, check, dt))
    return checked


def run_for(wl, seconds: float, start: int = 0) -> tuple:
    """Closed loop over the pool from op ``start`` until ``seconds`` pass
    (tested between units).

    Each output is checked as soon as its op returns, outside the timed
    span, so no output outlives its check.  Returns (op indices, op seconds,
    verified flags, [failed (op, check, seconds)], worst residual of a
    passing op, wall seconds); the samples are flat arrays, in run order.
    """
    indices, latencies, oks, failed, worst = array("q"), array("d"), array("b"), [], 0.0
    i = start
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        for _ in range(wl.unit):
            k = i % len(wl.ops)
            (op, check, dt), = check_records([run_op(wl.ops[k])])
            indices.append(k)
            latencies.append(dt)
            oks.append(check.ok)
            if check.ok:
                worst = max(worst, check.residual)
            else:
                failed.append((op, check, dt))
            i += 1
    return indices, latencies, oks, failed, worst, time.perf_counter() - t_start


def run_pass(wl, tracer=None) -> tuple:
    """One pass over the whole pool; spans are tagged with the op index."""
    records = []
    t_start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op_id = i
        records.append(run_op(op))
    return records, time.perf_counter() - t_start


def tail(latencies: list) -> tuple:
    """(value, percentile, samples): the TAIL_PERCENTILE sample (nearest rank),
    or the highest percentile with TAIL_BEYOND samples beyond it if that is lower.

    With too few samples for that, the maximum is reported (percentile 100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = min(math.ceil(n * TAIL_PERCENTILE / 100.0) - 1, n - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / n, n


def failure_list(failed) -> list:
    """Failed (op, check, seconds) records grouped by input, with the input seed."""
    seen: dict = {}
    for op, check, _ in failed:
        entry = seen.setdefault(op.label, {"op": op.label, "seed": op.seed,
                                           "reason": check.reason, "count": 0})
        entry["count"] += 1
    return list(seen.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name: str, seed: int, size: dict, workdir: str, seconds: float) -> tuple:
    """End-to-end metrics of one closed-loop run.

    The run is SETUP_REPS segments, each a fresh set-up followed by a closed
    loop over the pool, so set-up is timed at several moments of the run and
    every input runs many times.  Every timed op counts:

    - ``ops_per_s``: throughput at each input's fastest run, the verified
      share of the timed ops times the pool size over the sum of the
      inputs' best latencies.  Co-tenants of a shared host slow most
      calls, by half or more, for minutes at a time; over runs of the
      same code that moved the run's mean rate, the median rate of its
      passes and each input's median latency by up to 30%, more than
      each input's fastest run.  The mean rate of the timed calls is
      kept as ``mean_ops_per_s`` and the wall-clock rate with the checks
      as ``wall_ops_per_s``; slow calls show in ``latency_tail_ms``.
    - ``latency_tail_ms``: the raw sample at TAIL_PERCENTILE, with at least
      TAIL_BEYOND samples beyond it (percentile and count in the record).
    - ``latency_p50_ms``: the median over inputs of each input's fastest
      run, for the same reason; the raw median is kept as
      ``raw_latency_p50_ms``.
    - ``setup_s``: the fastest of the SETUP_REPS set-ups, as the latencies
      take each input's fastest run: over ten runs the median of a run's
      set-ups spread 0.19-0.26 of their median, the fastest 0.03-0.12.
      All set-up times are kept as ``setup_times_s``.
    """
    setup_times, indices, latencies, oks, failed, worst, elapsed = [], array("q"), array("d"), array("b"), [], 0.0, 0.0
    reports: dict = {}  # CLI reports must repeat byte for byte across set-ups too
    for _ in range(SETUP_REPS):
        package, mods, wl, setup_s, warm = setup(name, seed, size, workdir, reports)
        setup_times.append(setup_s)
        failed += [c for c in check_records([warm]) if not c[1].ok]
        tracing.assert_untraced(package, mods)
        seg_indices, seg_latencies, seg_oks, seg_failed, seg_worst, seg_elapsed = run_for(
            wl, seconds / SETUP_REPS, len(latencies))
        tracing.assert_untraced(package, mods)
        indices += seg_indices
        latencies += seg_latencies
        oks += seg_oks
        failed += seg_failed
        worst = max(worst, seg_worst)
        elapsed += seg_elapsed
    verified = sum(oks)
    best: dict = {}
    for k, dt in zip(indices, latencies):
        best[k] = min(dt, best.get(k, dt))
    tail_s, tail_pct, n = tail(latencies)
    values = {
        "ops_per_s": verified / len(latencies) * len(best) / sum(best.values()),
        "latency_p50_ms": 1e3 * statistics.median(best.values()),
        "latency_tail_ms": 1e3 * tail_s,
        "accuracy_digits": float(-np.log10(max(worst, 1e-300))),
        "setup_s": min(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    units = metric_units("end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    runs = Counter(indices)
    extra = {"latency_tail_percentile": tail_pct, "latency_samples": n,
             "raw_latency_p50_ms": 1e3 * statistics.median(latencies),
             "runs_per_input": [min(runs.values()), max(runs.values())],
             "mean_ops_per_s": verified / sum(latencies),
             "wall_ops_per_s": verified / elapsed, "elapsed_s": elapsed,
             "setup_times_s": setup_times, "samples": list(zip(indices, latencies))}
    return metrics, len(latencies) + SETUP_REPS, failed, wl, extra


# --------------------------------------------------------------- tracing

def _hooks() -> dict:
    def count_dims(counters, result):
        counters["eigen.eigenvalues.dim_sum"] += len(result)

    def count_breakdowns(counters, result):
        counters["oracle.breakdowns"] += type(result).__name__ == "Breakdown"

    return {"eigen.eigenvalues": count_dims, "oracle.factor_via_ldlt": count_breakdowns}


def pass_layers(tracer, first: int, counters_before: Counter, checked, names) -> dict:
    """Per-layer counts and self times of one traced pass.

    ``names`` are the per-layer metric names; ``<function>.calls`` and
    ``<function>.self_s`` come from the spans, ``factor.branch.<branch>``
    from the returned traces.
    """
    stats = tracer.self_times(first)
    out = {}
    for key in names:
        function, _, field = key.rpartition(".")
        if field in ("calls", "self_s"):
            calls, self_ns = stats.get(function, (0, 0))
            out[key] = calls if field == "calls" else self_ns * 1e-9
    for key in ("eigen.eigenvalues.dim_sum", "oracle.breakdowns", "cli.bytes_read", "cli.bytes_written"):
        out[key] = tracer.counters[key] - counters_before[key]
    branches = Counter(b for _, c, _ in checked for b in c.branches)
    for key in names:
        if key.startswith("factor.branch."):
            out[key] = branches[key.removeprefix("factor.branch.")]
    out["factor.levels"] = sum(branches.values())
    used = sum(branches[b] for b in EIGENPAIR_BRANCHES)
    dim_sum = out["eigen.eigenvalues.dim_sum"]
    out["eigen.pairs_used_ratio"] = used / dim_sum if dim_sum else 0.0
    iso = sum(branches[b] for b in ISOTROPIC_BRANCHES)
    out["factor.reduce_case_ii.per_iso_level"] = out["factor.reduce_case_ii.calls"] / iso if iso else 0.0
    return out


def traced(wl, seconds: float, package, mods, spans_path: str) -> tuple:
    """Alternate untraced and traced passes; at least one pair, then more
    pairs while the next is expected to finish within ``seconds``.

    Returns ({per-layer metric: value}, attempted, failed, record extras).
    """
    names = metric_units("per_layer")
    tracer = tracing.Tracer()
    hooks = _hooks()
    walls = {"untraced": [], "traced": []}
    per_pass = []
    all_checked = []
    t_start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        tracing.assert_untraced(package, mods)
        records, wall = run_pass(wl)
        walls["untraced"].append(wall)
        all_checked += check_records(records)
        first, before = tracer.span_count(), Counter(tracer.counters)
        tracer.install(package, mods, hooks)
        try:
            records, wall = run_pass(wl, tracer)
        finally:
            tracer.remove()
        tracing.assert_untraced(package, mods)
        walls["traced"].append(wall)
        checked = check_records(records)
        all_checked += checked
        per_pass.append(pass_layers(tracer, first, before, checked, names))
        now = time.perf_counter()
        if now - t_start + (now - t_pair) > seconds:
            break
    tracer.write_spans(spans_path)
    # self times take the fastest pass, as the end-to-end latencies do; every
    # other per-layer value is a count that must repeat exactly
    counts_repeat = all(
        p[k] == per_pass[0][k] for p in per_pass for k in p if not k.endswith(".self_s"))
    layers = {k: (min(p[k] for p in per_pass) if k.endswith(".self_s") else per_pass[0][k])
              for k in per_pass[0]}
    layers["trace.overhead_ratio"] = min(walls["traced"]) / min(walls["untraced"]) - 1.0
    metrics = {k: {"value": layers[k], "unit": u} for k, u in names.items()}
    extra = {"passes": len(per_pass), "counts_repeat": counts_repeat, "pass_walls_s": walls,
             "spans": tracer.span_count(), "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, len(all_checked), [c for c in all_checked if not c[1].ok], extra


# ----------------------------------------------------------- environment

def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD commit read from .git without running git; None outside a repo."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "symfact").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def env_stamp() -> dict:
    cpu = next((ln.split(":", 1)[1].strip() for ln in (_read("/proc/cpuinfo") or "").splitlines()
                if ln.startswith("model name")), platform.processor() or None)
    llc = None
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    if caches:
        top = max(caches, key=lambda p: int(_read(p / "level") or 0))
        llc = f"L{_read(top / 'level')} {_read(top / 'size')}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_cap": {v: os.environ.get(v) for v in _THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_model": cpu,
        "llc": llc,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# --------------------------------------------------------------- digests

def compute_digest(name: str, seed: int, size: dict) -> str:
    """Input digest of workload ``name`` at ``seed``."""
    _, mods = import_symfact()
    workdir = WORK_DIR / f"digest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return workloads.matrix_digest(workloads.build(name, mods, seed, size, str(workdir)).inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ------------------------------------------------------------------ main

def run(name: str, seed: int, seconds: float, trace: bool, size_name: str = "full") -> dict:
    """One benchmark run; returns the full record (result line under "result")."""
    require_source()
    size = workloads.SIZES[size_name]
    workdir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        digest_ok, reference = True, None
        if size_name == "full":
            reference = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
            reference["computed"] = compute_digest(name, reference["reference_seed"], size)
            digest_ok = reference["digests"].get(name) == reference["computed"]
        tag = f"{name}_seed{seed}_trace{int(trace)}"
        if trace:
            package, mods, wl, _, warm = setup(name, seed, size, str(workdir))
            metrics, attempted, failed, extra = traced(wl, seconds, package, mods,
                                                       str(OUT_DIR / f"spans_{tag}.csv"))
            attempted += 1
            failed += [c for c in check_records([warm]) if not c[1].ok]
            counts_ok = extra["counts_repeat"]
        else:
            metrics, attempted, failed, wl, extra = end_to_end(name, seed, size, str(workdir), seconds)
            counts_ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = failure_list(failed)
    n_failed = sum(f["count"] for f in failures)
    result = {"correct": n_failed == 0 and digest_ok and counts_ok, "attempted": attempted,
              "failed": n_failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
              "size": size_name, "env": env_stamp(), "fail_ratio": n_failed / attempted,
              "failures": failures, "input_digest": workloads.matrix_digest(wl.inputs),
              "reference_digests": reference, "digest_ok": digest_ok, **extra, "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"{record['workload']} seed {record['seed']}: fail_ratio {record['fail_ratio']:.6g}"
          f" failures {json.dumps(record['failures'])} digest_ok {record['digest_ok']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
