"""The soar benchmark: one workload per run, every metric printed with its
unit, every answer checked against the exact oracle.

    python3 perfbench/run.py --workload shell-p32 --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout against the unmodified package
under src/. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. RATIONALE.md explains the
workloads and what each metric should move.
"""

import os

# Pinned before numpy loads, here and in the serving processes that inherit
# the environment: on a 2-core box at OpenBLAS's default thread count the
# qps of fine-p4-none spread +-15% over repeats, at one thread +-2.5%.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"
SERVE_TIMEOUT_S = 150
SERVE_PARTS = 4
# ground-truth computations, besides the first, whose median is eval_s on
# the serving workloads
EXTRA_TRUTH = 2
LOAD_ONCE = ("import sys, time, soar.index; t0 = time.perf_counter(); "
             "soar.index.load(sys.argv[1]); print(time.perf_counter() - t0)")
CLI_ONCE = ("import sys, time, soar.cli; t0 = time.perf_counter(); "
            "code = soar.cli.main(sys.argv[1:]); print(time.perf_counter() - t0); sys.exit(code)")

if not (SRC / "soar" / "__init__.py").is_file():
    sys.exit(f"error: no soar package under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402  (after the BLAS pin and the path)

import data  # noqa: E402
import soar.cli  # noqa: E402
import soar.core  # noqa: E402
import soar.evaluation  # noqa: E402
import soar.index  # noqa: E402
import soar.vecio  # noqa: E402
import spans  # noqa: E402


FRESH_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def fresh_python(code: str, *args) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports soar from src/."""
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=FRESH_ENV, cwd=ROOT,
                          capture_output=True, text=True, timeout=SERVE_TIMEOUT_S)


class Run:
    """One benchmark run: its arguments, scratch directory, operation
    counts and, with --trace 1, the span recorder of this process."""

    def __init__(self, args, workdir: Path):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.workload = args.workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.recorder = spans.Recorder() if self.trace else None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def traced(self):
        return self.recorder if self.trace else contextlib.nullcontext()

    def build_and_save(self, X, path: Path, **build_args) -> tuple[float, float]:
        """index.build then index.save; returns (build_s, save_s)."""
        t0 = time.perf_counter()
        idx = soar.index.build(soar.core.Dataset(X), **build_args)
        t1 = time.perf_counter()
        soar.index.save(idx, path)
        return t1 - t0, time.perf_counter() - t1

    def ground_truth(self, Q, X, k: int) -> tuple[np.ndarray, float]:
        """Exact top-k ids and the seconds they took."""
        t0 = time.perf_counter()
        truth = soar.evaluation.ground_truth_ids(soar.core.Dataset(Q), soar.core.Dataset(X), k)
        return truth, time.perf_counter() - t0

    def timed_ground_truth(self, Q, X, k: int) -> tuple[np.ndarray, list, list]:
        """Exact top-k ids, the list of eval_s samples, and the work that
        adds EXTRA_TRUTH samples to that list, to be spread over the run by
        Run.serve. A traced run computes once, so that its span counts
        mirror the program's."""
        with self.traced():
            truth, elapsed = self.ground_truth(Q, X, k)
        samples = [elapsed]

        def sample():
            samples.append(self.ground_truth(Q, X, k)[1])

        return truth, samples, [] if self.trace else [sample] * EXTRA_TRUTH

    def serve(self, index_path: Path, Q, truth, k: int, probes: int, between=()) -> dict:
        """Load and serve in fresh interpreters; fold their checks into ours.

        The queries are split over SERVE_PARTS serving processes (one in a
        traced run). Each loads the index afresh and answers its share for
        seconds / SERVE_PARTS. Load-only processes run before, between and
        after them. `between` is the workload's other timed work, in
        pieces dealt out in turn after each serving process but the last.
        So the timed queries, and the other timings, sample the host's
        drifting speed across most of the run, not one stretch of it.

        A load in a fresh process faults in a cold heap, and later loads in
        the same process reuse freed memory and run 20-30% faster. So load_s
        is the median of first loads: those of the serving and the load-only
        processes.
        """
        def cold_load() -> float:
            proc = fresh_python(LOAD_ONCE, index_path)
            proc.check_returncode()
            return float(proc.stdout)

        np.save(self.workdir / "queries.npy", Q)
        np.save(self.workdir / "truth.npy", truth)
        parts = 1 if self.trace else SERVE_PARTS
        cmd = [sys.executable, str(HERE / "serve.py"), "--index", str(index_path),
               "--queries", str(self.workdir / "queries.npy"),
               "--truth", str(self.workdir / "truth.npy"), "--k", str(k), "--probes", str(probes),
               "--seconds", str(self.seconds / parts), "--parts", str(parts),
               "--trace", str(int(self.trace))]
        if self.trace:
            cmd += ["--spans-out", str(self.spans_path("serve"))]
        loads, outs = [], []
        gaps = max(parts - 1, 1)
        for part in range(parts):
            loads.append(cold_load())
            proc = subprocess.run(cmd + ["--part", str(part)], env=FRESH_ENV, cwd=ROOT,
                                  capture_output=True, text=True, timeout=SERVE_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"serving process exited {proc.returncode}:\n{proc.stderr}")
            outs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            for work in between[part::gaps] if part < gaps else ():
                work()
        loads.append(cold_load())
        for out in outs:
            self.attempted += out["attempted"]
            self.failed += out["failed"]
            self.errors += out["errors"]
        lat_ms = np.concatenate([out["latencies_ms"] for out in outs])
        served = dict(outs[0])  # a traced run's span totals come from its one part
        served.update(
            load_s=statistics.median(loads + [out["load_s"] for out in outs]),
            latency_p50_ms=float(np.percentile(lat_ms, 50)),
            latency_p99_ms=float(np.percentile(lat_ms, 99)),
            samples=len(lat_ms),
            qps=1e3 * len(lat_ms) / float(lat_ms.sum()),
            recall_at_k=sum(out["hits"] for out in outs) / (k * Q.shape[0]),
            datapoints_scanned=sum(out["datapoints_scanned"] for out in outs) / Q.shape[0],
            serve_rss_mb=max(out["serve_rss_mb"] for out in outs),
        )
        return served

    def spans_path(self, side: str) -> Path:
        traces = STATE / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        return traces / f"{self.workload}-seed{self.seed}-{side}.jsonl"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "soar").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def end_to_end(setup_s, build_s, eval_s, served: dict) -> dict:
    return {
        "setup_s": setup_s,
        "build_s": build_s,
        "load_s": served["load_s"],
        "qps": served["qps"],
        "latency_p50_ms": served["latency_p50_ms"],
        "latency_p99_ms": served["latency_p99_ms"],
        "recall_at_k": served["recall_at_k"],
        "bytes_per_vector": served["bytes_per_vector"],
        "serve_rss_mb": served["serve_rss_mb"],
        "eval_s": eval_s,
    }


# ---------------------------------------------------------------------------
# workloads


SHELL_N, SHELL_NQ, SHELL_C, SHELL_BUILD_SEED = 100_000, 1_000, 250, 11
SHELL_SAMPLE = 25_000


def shell_index(X) -> Path:
    """The 100k ROADMAP index, built once per checkout and source version:
    its 68 s build (2 cores, one BLAS thread) does not fit in every run."""
    path = STATE / "cache" / f"shell-{source_digest()}.soar"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        idx = soar.index.build(soar.core.Dataset(X), c=SHELL_C, policy="soar", s=2,
                               seed=SHELL_BUILD_SEED, lam=1.0)
        tmp = path.with_suffix(".tmp")
        soar.index.save(idx, tmp)
        os.replace(tmp, path)
        print(f"built the cached 100k shell index in {time.perf_counter() - t0:.1f} s")
    return path


def shell_p32(run: Run) -> tuple[dict, dict]:
    X, Q = data.fixed_shell_instance(SHELL_N, SHELL_NQ, run.seed)
    served_path = shell_index(X)
    truth, eval_times, truth_samples = run.timed_ground_truth(Q, X, 10)
    built = {}

    def build_sample():
        # rows are i.i.d. draws, so the first SHELL_SAMPLE are a fixed sample
        with run.traced():
            built["build_s"], built["save_s"] = run.build_and_save(
                X[:SHELL_SAMPLE], run.workdir / "sample.soar", c=round(SHELL_SAMPLE / 400),
                policy="soar", s=2, seed=SHELL_BUILD_SEED, lam=1.0)

    served = run.serve(served_path, Q, truth, k=10, probes=32,
                       between=truth_samples + [build_sample])
    build_s = built["build_s"]
    return end_to_end(build_s + built["save_s"] + served["load_s"], build_s,
                      statistics.median(eval_times), served), served


# Data seed of fine-p4-none (soar synth's default). Its partition sizes,
# and with them the per-query scan, vary widely between data seeds, so
# the data stays fixed and --seed draws the queries.
FINE_DATA_SEED = 42
# Recall at k=100, probes=4 varies widely between queries; 4000 of them
# keep its run-to-run spread near 0.5%.
FINE_NQ = 4_000


def fine_p4_none(run: Run) -> tuple[dict, dict]:
    X, Q = data.gaussian_mixture(40_000, FINE_NQ, d=32, clusters=64, sigma=0.25,
                                 data_seed=FINE_DATA_SEED, query_seed=run.seed)
    path = run.workdir / "fine.soar"
    with run.traced():
        build_s, save_s = run.build_and_save(X, path, c=400, policy="none", s=2, seed=42)
    truth, eval_times, truth_samples = run.timed_ground_truth(Q, X, 100)
    served = run.serve(path, Q, truth, k=100, probes=4, between=truth_samples)
    return end_to_end(build_s + save_s + served["load_s"], build_s,
                      statistics.median(eval_times), served), served


def csv_rows(path: Path) -> list[list[str]]:
    """Data rows of a CLI CSV: '#' config lines and the header row dropped.
    A missing file has no rows, which the row-count checks then fail."""
    if not path.exists():
        return []
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


POLICY_N, POLICY_NQ, POLICY_K, POLICY_PROBES = 20_000, 300, 100, (1, 2, 4, 8)
POLICIES = ("none", "naive", "soar")


def policy_eval(run: Run) -> tuple[dict, dict]:
    X, Q = data.fixed_shell_instance(POLICY_N, POLICY_NQ, run.seed)
    d = run.workdir
    soar.vecio.write_fvecs(d / "x.fvecs", X)
    soar.vecio.write_fvecs(d / "q.fvecs", Q)
    truth, _ = run.ground_truth(Q, X, POLICY_K)  # for the serving checks

    def cli(*argv) -> tuple[float, str]:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = soar.cli.main([str(a) for a in argv])
        elapsed = time.perf_counter() - t0
        run.check(code == 0, f"soar {argv[0]} exited {code}: {out.getvalue()[-300:]}")
        return elapsed, out.getvalue()

    bench = ["bench", "--index", *(d / f"{p}.soar" for p in POLICIES), "--queries", d / "q.fvecs",
             "--dataset", d / "x.fvecs", "--k", POLICY_K,
             "--probes", ",".join(map(str, POLICY_PROBES))]
    diagnose = ["diagnose", d / "soar.soar", d / "q.fvecs", "--k", POLICY_K]
    setup_s = build_s = 0.0
    with run.traced():
        for policy in POLICIES:
            wall, text = cli("build", d / "x.fvecs", "--out", d / f"{policy}.soar",
                             "--policy", policy)
            setup_s += wall
            build_s += sum(float(line.split("=", 1)[1]) for line in text.splitlines()
                           if line.startswith("build_seconds="))
        eval_times = [cli(*bench, "--out", d / "bench.csv")[0]
                      + cli(*diagnose, "--out", d / "diag.csv")[0]]

    def eval_again():
        # Fresh processes, from a cold ground-truth cache: the speed of this
        # step varies from process to process as well as over time.
        for cache in d.glob("x.gt_*.ivecs"):
            cache.unlink()
        elapsed = 0.0
        for argv in (bench + ["--out", d / "bench-again.csv"],
                     diagnose + ["--out", d / "diag-again.csv"]):
            proc = fresh_python(CLI_ONCE, *argv)
            run.check(proc.returncode == 0, f"soar {argv[0]} exited {proc.returncode}: "
                      f"{proc.stderr[-300:]}")
            elapsed += float(proc.stdout.strip().splitlines()[-1])
        eval_times.append(elapsed)

    sweep = csv_rows(d / "bench.csv")
    run.check(len(sweep) == len(POLICIES) * len(POLICY_PROBES), f"bench rows: {len(sweep)}")
    targets = csv_rows(d / "bench.targets.csv")
    run.check(len(targets) == len(POLICIES) * 4, f"targets rows: {len(targets)}")
    diag = csv_rows(d / "diag.csv")
    run.check(len(diag) == POLICY_NQ * POLICY_K, f"diagnose rows: {len(diag)}")
    run.check(len(csv_rows(d / "diag.summary.csv")) >= 1, "diagnose summary is empty")
    recall = {(row[0], int(row[2])): float(row[4]) for row in sweep}
    for policy in POLICIES:
        curve = [recall.get((policy, p), -1.0) for p in POLICY_PROBES]
        run.check(curve == sorted(curve) and curve[0] >= 0,
                  f"{policy} recall not monotone in probes: {curve}")
    served = run.serve(d / "soar.soar", Q, truth, k=POLICY_K, probes=POLICY_PROBES[-1],
                       between=[] if run.trace else [eval_again])
    swept = recall.get(("soar", POLICY_PROBES[-1]), -1.0)
    run.check(f"{served['recall_at_k']:.6f}" == f"{swept:.6f}",
              f"served recall {served['recall_at_k']:.6f} differs from the sweep's {swept:.6f}")
    return end_to_end(setup_s, build_s, statistics.median(eval_times), served), served


WORKLOADS = {"shell-p32": shell_p32, "fine-p4-none": fine_p4_none, "policy-eval": policy_eval}

UNITS = {"setup_s": "s", "build_s": "s", "load_s": "s", "qps": "1/s", "latency_p50_ms": "ms",
         "latency_p99_ms": "ms", "recall_at_k": "ratio", "bytes_per_vector": "B",
         "serve_rss_mb": "MB", "eval_s": "s"}


def per_layer(run: Run, served: dict) -> dict:
    main_spans = run.recorder.spans
    run.recorder.write(run.spans_path("main"))
    serve_totals = spans.from_dict(served["totals"])
    totals = spans.merge([spans.Totals(main_spans, run.recorder.wrapped), serve_totals])
    metrics, absent = spans.layer_metrics(totals, serve_totals, served["traced_queries"])
    if totals.has("cli.command") and totals.has("index.search"):
        calls = spans.nested_calls(main_spans, "index.search", "cli.command")
        metrics["cli.search_calls"] = {"value": float(calls), "unit": "count"}
    else:
        absent.append("cli.search_calls")
    metrics["index.datapoints_scanned"] = {"value": served["datapoints_scanned"], "unit": "count"}
    metrics["index.posting_max_over_mean"] = {"value": served["posting_max_over_mean"],
                                              "unit": "ratio"}
    metrics["trace.search_overhead_ms"] = {"value": served["overhead_ms"], "unit": "ms"}
    missing = sorted(set(run.recorder.missing) | set(served["missing"]))
    if missing:
        print(f"absent layers (names not found): {', '.join(missing)}")
    if absent:
        print(f"absent metrics: {', '.join(sorted(absent))}")
    return metrics


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(f"env: {json.dumps(environment())}")
    workdir = STATE / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, workdir)
        metrics, served = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in run.errors:
        print(f"FAILED: {line}")
    print(f"{args.workload} seed={args.seed}: {served['samples']} timed queries, "
          f"{run.failed} of {run.attempted} operations failed "
          f"(failed_frac={run.failed / run.attempted:.6f})")
    if args.trace:
        result = per_layer(run, served)
    else:
        result = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    for name, metric in result.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
