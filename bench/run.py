"""sns2d benchmark: time the experiment harness on one workload, check outputs.

From the root of a checkout:

    python3 bench/run.py --workload paths_h16 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics of traced runs and the layer sweep.  Every
execution of the workload is checked by ``gate.check_run``.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  NOTES.md describes the
workloads and metrics.
"""

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import gate
import workloads
from workloads import BENCH_DIR, OUT_DIR, REFERENCE_DIR, REFERENCE_SEED, ROOT, WORKLOADS

SETUP_SAMPLES = 5
# a median of fewer timed executions follows the host's drift too closely
MIN_RUNS = 3


def load_reference(workload):
    with open(REFERENCE_DIR / f"{workload.name}.json") as fh:
        ref = json.load(fh)
    if ref["seed"] != REFERENCE_SEED:
        raise ValueError(f"reference for {workload.name} was recorded at seed {ref['seed']}")
    return ref["runs"]


class Runs:
    """Executions of one workload at one seed, each checked by the gate."""

    def __init__(self, workload, seed, workdir, reference):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.raws = workloads.raw_configs(workload, seed)
        self.attempted = 0
        self.failed = 0

    def once(self, tracer=None):
        """Parse and run every config once.

        Returns (wall s, cpu s, summaries) of the ``experiments.run`` calls,
        or None when a run raised.  Gate failures are counted in ``failed``.
        """
        import sns2d.experiments as experiments

        self.attempted += 1
        outdir = tempfile.mkdtemp(dir=self.workdir)
        try:
            with tracer or contextlib.nullcontext():
                configs = workloads.parse_configs(self.raws)
                wall0, cpu0 = time.perf_counter(), time.process_time()
                # looked up here, so that a tracer's wrapper is the one called
                records = [experiments.run(cfg, outdir) for cfg in configs]
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            problems = self.check([r.run_dir for r in records])
            summaries = [gate.read_outputs(r.run_dir)[2] for r in records]
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            self.fail([traceback.format_exc()])
            return None
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            self.fail(problems)
        return wall, cpu, summaries

    def check(self, run_dirs):
        at_reference = self.seed == REFERENCE_SEED
        require_passed = at_reference or not self.workload.statistical_verdict
        problems = []
        for run_dir, ref in zip(run_dirs, self.reference):
            problems += gate.check_run(run_dir, ref, at_reference, require_passed)
        return problems

    def fail(self, problems):
        self.failed += 1
        if self.failed == 1:  # the first failure is reported in full
            for p in problems:
                print(f"bench: {self.workload.name}: {p}", file=sys.stderr)


def repeat_until(seconds, step, at_least=1):
    """Call step() ``at_least`` times, then again while another fits in ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        durations.append(now - t0)
        if len(durations) >= at_least and now + statistics.median(durations) > start + seconds:
            return


def setup_sample(workload, seed):
    """Seconds of one cold set-up in a fresh process (bench/setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def end_to_end(workload, seed, seconds, workdir):
    """setup_s, run_s, cpu_s and peak_rss_mb; medians over a run's executions.

    Times are scaled to the reference host speed (hostspeed.py): executions
    by calibrations around them, set-ups by a plain import of their
    dependencies.  The raw medians are printed too.
    """
    from hostspeed import REFERENCE_IMPORT_S, REFERENCE_S, calibrate, calibration_repeats, import_baseline
    from setup_probe import set_up

    # (seconds, baseline seconds): each set-up next to a plain import of its dependencies
    setups = [(setup_sample(workload, seed), import_baseline()) for _ in range(SETUP_SAMPLES)]
    set_up(workload, seed)  # this process pays its set-up outside the timed runs
    runs = Runs(workload, seed, workdir, load_reference(workload))
    timed = []  # (wall s, cpu s, calibration s)
    before = calibrate()

    def step():
        nonlocal before
        result = runs.once()
        # long executions get longer calibrations, which read steadier
        after = calibrate(calibration_repeats(result[0] if result else 0.0))
        if result is not None:
            timed.append((result[0], result[1], (before + after) / 2))
        before = after

    repeat_until(seconds, step, MIN_RUNS)
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def scaled(samples, i, reference, what):
        if not samples:
            return 0.0, "s", f"no {what} completed"
        raw = statistics.median(s[i] for s in samples)
        speed = reference / statistics.median(s[-1] for s in samples)
        value = statistics.median(s[i] * reference / s[-1] for s in samples)
        return value, "s", f"median of {len(samples)} {what} at reference speed (raw {raw:.4g} s, host speed {speed:.3f})"

    metrics = {
        "setup_s": scaled(setups, 0, REFERENCE_IMPORT_S, "fresh processes"),
        "run_s": scaled(timed, 0, REFERENCE_S, "runs"),
        "cpu_s": scaled(timed, 1, REFERENCE_S, "runs"),
        "peak_rss_mb": (peak, "MiB", "peak resident set of the benchmark process"),
    }
    return metrics, runs


COUNT_UNITS = ("count", "flop", "B")


def per_layer(workload, seed, seconds, workdir):
    """Per-layer metrics: traced executions paired with untraced ones, and the layer sweep."""
    import layers
    from setup_probe import set_up
    from tracer import Tracer, layer_metrics

    set_up(workload, seed)
    kernels = layers.kernel_sweep(seed)
    runs = Runs(workload, seed, workdir, load_reference(workload))
    start = time.perf_counter()
    # The first execution in a process also pays the program's lazy imports
    # (scipy.stats in ou_checks); it is checked but left out of the pairs.
    runs.once()
    plain, traced, samples, tracers = [], [], [], []

    def step():
        untraced = runs.once()
        tr = Tracer()
        result = runs.once(tr)
        if untraced is None or result is None:
            return
        m = layer_metrics(tr)
        iterations = sum(s.get("iterations", 0) for s in result[2] if s.get("kind") == "instanton")
        m["ldp.iterations"] = (iterations, "count")
        plain.append(untraced[0])
        traced.append(result[0])
        samples.append(m)
        tracers.append(tr)

    repeat_until(seconds - (time.perf_counter() - start), step)
    if not samples:
        return {}, runs, kernels, None
    counts = [{k: v for k, (v, u) in m.items() if u in COUNT_UNITS} for m in samples]
    if any(c != counts[0] for c in counts[1:]):
        runs.fail(["trace counters differ between executions at one seed"])
    metrics = {}
    for name, (value, unit) in samples[0].items():
        if unit not in COUNT_UNITS:
            value = statistics.median(m[name][0] for m in samples)
        metrics[name] = (value, unit, f"{len(samples)} traced runs")
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s", "traced minus untraced run_s")
    for name, (med, lo, hi) in kernels.items():
        metrics[name] = (med, "us", f"min {lo:.4g} max {hi:.4g}")
    return metrics, runs, kernels, tracers[-1]


def write_trace(path, workload, seed, tr, kernels, machine):
    """Spans of the last traced execution, FFT counts by size, layer sweep."""
    _, fft_by_size = tr.fft_summary()
    doc = {
        "workload": workload.name,
        "seed": seed,
        "machine": machine,
        "missing_targets": tr.missing,
        "fft_by_size": fft_by_size,
        "kernels_us": {k: {"median": m, "min": lo, "max": hi} for k, (m, lo, hi) in kernels.items()},
        "span_names": tr.names,
        "spans": [list(s) for s in tr.spans],  # [name index, start s, end s, parent index]
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def measure(workload, seed, seconds, trace):
    import layers

    workloads.use_program_source()
    import sns2d  # noqa: F401 - the tracer rebinds names in the loaded modules

    machine = layers.machine()
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        if trace:
            metrics, runs, kernels, tr = per_layer(workload, seed, seconds, workdir)
            if tr is not None:
                path = OUT_DIR / f"trace-{workload.name}.json"
                write_trace(path, workload, seed, tr, kernels, machine)
                print(f"spans: {path.relative_to(ROOT)} ({len(tr.spans)} spans)")
                if tr.missing:
                    print(f"bench: not traced (absent): {tr.missing}", file=sys.stderr)
        else:
            metrics, runs = end_to_end(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit, note) in metrics.items():
        print(f"{workload.name:<14} {name:<34} {value:>16.6g} {unit:<6} {note}")
    print(
        f"{workload.name:<14} {'fail_frac':<34} {runs.failed / max(runs.attempted, 1):>16.6g} "
        f"{'1':<6} {runs.failed} of {runs.attempted} runs failed"
    )
    return {
        "correct": runs.failed == 0 and bool(metrics),
        "attempted": max(runs.attempted, 1),
        "failed": runs.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def measure_all(args):
    """Every workload in turn, each in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, val in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not workloads.program_present():
        print(f"bench: no sns2d source under {workloads.SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = measure_all(args)
    else:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
