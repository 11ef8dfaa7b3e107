"""dualgrasp benchmark: one workload of CLI subcommands, timed and checked.

    python3 dgbench/run.py --workload fallback-clearing --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory. Scratch files go to .bench_work/ and are removed at the end.
With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, taken
from span-instrumented repetitions that follow one untraced repetition.
See NOTES.md for the workloads and what each metric should respond to.
"""

import os
import sys
import time

T0 = time.perf_counter()

# One BLAS/OpenMP thread, before numpy loads: threaded OpenBLAS changes the
# bytes of checkpoint.json and train_log.csv and lets CPU time exceed wall time.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fallback-clearing", "learned-chain", "dataset-build")


class MissingPackage(RuntimeError):
    pass


def load_package(root: Path):
    """Import every dualgrasp module from root/src, and nothing installed elsewhere."""
    src = (root / "src").resolve()
    if not (src / "dualgrasp" / "cli.py").is_file():
        raise MissingPackage(f"no dualgrasp sources under {src}")
    sys.path.insert(0, str(src))
    import dualgrasp

    if Path(dualgrasp.__file__).resolve().parent != src / "dualgrasp":
        raise MissingPackage(f"dualgrasp imported from {dualgrasp.__file__}, not from {src}")
    for info in pkgutil.iter_modules(dualgrasp.__path__):
        if info.name != "__main__":
            importlib.import_module(f"dualgrasp.{info.name}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in PINNED_THREADS},
    }


# Untraced repetitions a run makes at least, so that its median covers
# several batches of scenes.
MIN_REPS = 2


def measure(run, seconds: float, trace: bool):
    """Repeat the chain while another repetition fits in `seconds`.

    Without trace, at least MIN_REPS repetitions run, each on the next batch
    of scenes if the workload is batched. With trace, every repetition runs on
    the first batch: the first one untraced and the rest traced, with always
    one traced repetition.
    Returns (untraced reps, [(rep, tracer)]).
    """
    from spans import Tracer

    start = time.perf_counter()
    untraced, traced = [], []
    while True:
        began = time.perf_counter()
        if trace and untraced:
            tracer = Tracer()
            traced.append((run.repeat(tracer), tracer))
        else:
            untraced.append(run.repeat(batch=len(untraced) if run.w.batched and not trace else 0))
        last = time.perf_counter() - began
        if (trace and not traced) or (not trace and len(untraced) < MIN_REPS):
            continue
        if time.perf_counter() - start + last > seconds:
            return untraced, traced


def reference_digest(workload: str, seed: int):
    refs = json.loads((HERE / "reference_digests.json").read_text())
    return refs.get(workload, {}).get(str(seed))


def run_workload(name: str, seed: int, seconds: float, trace: bool, size=None, work_root: Path = None):
    """Set up, measure and check one workload; returns the result document and report lines."""
    import workloads
    from report import END_TO_END, PER_LAYER, per_layer

    import_s = time.perf_counter() - T0  # reported; setup_s times imports in fresh interpreters
    workload = workloads.WORKLOADS[name]
    if size is not None:
        workload = dataclasses.replace(workload, size=size)
    base = work_root or ROOT / ".bench_work"
    work = base / f"{name}-{seed}-{os.getpid()}"
    try:
        run = workloads.Run(workload, seed, work)
        setup_times, setup_rep = run.set_up()
        untraced, traced = measure(run, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root is None:
            with contextlib.suppress(OSError):  # still in use by another run
                base.rmdir()

    reps = untraced + [rep for rep, _ in traced]
    digests = sorted({rep.digest for rep in reps if rep.batch == 0})
    problems = setup_rep.problems + [p for rep in reps for p in rep.problems]
    if len(digests) > 1:
        problems.append(f"repetitions of the same batch wrote different outputs: {digests}")
    attempted = setup_rep.attempted + sum(rep.attempted for rep in reps)
    failed = setup_rep.failed + sum(rep.failed for rep in reps)
    quality = reps[0].quality

    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}",
             f"env {json.dumps(environment(), sort_keys=True)}",
             f"setup: imports in this process {import_s:.3f} s; "
             f"fresh imports and inputs per repeat {[round(t, 3) for t in setup_times]} s"]
    for i, rep in enumerate(reps):
        steps = ", ".join(f"{step} {s:.3f} s" for step, s in rep.step_s.items())
        kind = "traced" if i >= len(untraced) else "untraced"
        lines.append(f"rep {i + 1} ({kind}, batch {rep.batch}): {steps}; "
                     f"total {rep.total_s:.3f} s, cpu {rep.cpu_s:.3f} s")
    ref = reference_digest(name, seed) if size is None else None
    verdict = "none stored" if ref is None else ("match" if ref == digests[0] else "differs")
    lines.append(f"output digest of batch 0 {digests[0]} (reference: {verdict})")
    lines.append("quality " + " ".join(f"{k}={v:.6g}" for k, v in sorted(quality.items())))
    lines += [f"problem: {p}" for p in problems[:20]]

    if trace:
        overhead = (statistics.median(rep.total_s for rep, _ in traced)
                    - statistics.median(rep.total_s for rep in untraced))
        rows = [per_layer(tr.totals(), tr.counters, quality, untraced[0].step_s, overhead) for _, tr in traced]
        metrics = {n: {"value": statistics.median(r[n] for r in rows), "unit": u} for n, u, _ in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "total_s": statistics.median(rep.total_s for rep in untraced),
            "cpu_s": statistics.median(rep.cpu_s for rep in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ap_vacuum": quality.get("ap_vacuum", 0.0),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
    lines += [f"{n} = {m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
    doc = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return doc, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        load_package(ROOT)
    except MissingPackage as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    doc, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
