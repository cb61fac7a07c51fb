"""The measured process: one workload's passes, their checks and their spans.

Usage: ``python worker.py INPUTS_JSON WORKDIR SECONDS TRACE``; ``run.py``
starts it with single-threaded BLAS.  After one untimed warm-up pass it runs
whole passes over the job list until SECONDS have passed (at least three
untimed ones).  With TRACE=1 every second pass is traced.  Each pass's
results must reproduce the warm-up pass exactly; the warm-up results are
checked against the independent references after the peak resident set has
been read, so the checks neither count as pass time nor as program memory.
Prints one JSON object as its last line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import jobs as workload_jobs
from tracing import LAYERS, Tracer, layer_stats

CLI_SUBCOMMANDS = ("spectrum", "fixedpoint", "partition", "entropy", "project", "eigen",
                   "order", "demo")
# fields that differ between equal results (where the traced run left its spans)
UNSTABLE_FIELDS = {"spans_file", "stderr"}


@dataclasses.dataclass
class Failure:
    message: str


@dataclasses.dataclass
class Pass:
    elapsed: float
    results: list
    times: list[tuple[float, float]]


def calibrate() -> float:
    """A fixed pure-Python and numpy kernel; its time tracks the host's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    x = np.random.default_rng(0).random(200_000)
    for _ in range(5):
        np.sort(x)
    return time.perf_counter() - start


def _feed(obj, h) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            _feed(x, h)
        h.update(b"]")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(obj[key], h)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.name not in UNSTABLE_FIELDS:
                _feed(getattr(obj, f.name), h)
    elif isinstance(obj, (int, float, str, bool, type(None), np.generic, Fraction)):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def fingerprint(obj) -> str:
    h = hashlib.blake2b(digest_size=16)
    _feed(obj, h)
    return h.hexdigest()


def run_pass(job_list) -> Pass:
    results, times = [], []
    start = time.perf_counter()
    for job in job_list:
        t0 = time.perf_counter()
        try:
            results.append(job.call())
        except Exception as exc:  # a failing operation is counted, not fatal
            results.append(Failure(f"{type(exc).__name__}: {exc}"))
        times.append((t0, time.perf_counter()))
    return Pass(time.perf_counter() - start, results, times)


def cli_spans(job_list, run: Pass, base: int = 0) -> list[list]:
    """Spans of the CLI jobs of one traced pass, to be appended to a list of
    ``base`` spans: each subprocess as a ``cli.<name>`` span, with the spans
    its shim recorded as children."""
    spans: list[list] = []
    for job, res, (t0, t1) in zip(job_list, run.results, run.times):
        if not isinstance(res, workload_jobs.CliResult):
            continue
        root = base + len(spans)
        spans.append([job.name, "cli." + job.name.rsplit("/", 1)[-1], t0, t1, -1, 0])
        if res.spans_file is None or not Path(res.spans_file).exists():
            continue
        child = json.loads(Path(res.spans_file).read_text(encoding="utf-8"))
        Path(res.spans_file).unlink()
        first = base + len(spans)
        for name, layer, start, end, parent, units in child:
            spans.append([name, layer, start, end, root if parent < 0 else first + parent, units])
    return spans


def check_results(job_list, results) -> tuple[set[int], set[int], list[str]]:
    """Indices of operations that raised or exited non-zero, indices of
    operations whose output failed its check, and the problems found."""
    by_name = {job.name: res for job, res in zip(job_list, results)}
    raised, wrong, problems = set(), set(), []
    for k, (job, res) in enumerate(zip(job_list, results)):
        if isinstance(res, Failure):
            found = [res.message]
        else:
            try:
                found = job.check(res, by_name)
            except Exception as exc:
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            if isinstance(res, Failure) or getattr(res, "returncode", 0) != 0:
                raised.add(k)
            else:
                wrong.add(k)
            problems += [f"{job.name}: {msg}" for msg in found]
    return raised, wrong, problems


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(per_pass: list[dict], probe: dict) -> dict[str, float]:
    """Per-layer metrics: times are medians over traced passes, rates are
    total work over total time.  A layer no pass reached takes its figures
    from the probe."""

    def source(layer):
        return per_pass if any(layer in ps for ps in per_pass) else [probe]

    def med(layer, field):
        return statistics.median(ps.get(layer, {}).get(field, 0.0) for ps in source(layer))

    def rate(layer, field):
        src = source(layer)
        return _ratio(sum(ps.get(layer, {}).get("units", 0) for ps in src),
                      sum(ps.get(layer, {}).get(field, 0.0) for ps in src))

    out = {
        "measures.busy_s": med("measures", "busy"),
        "measures.cubes_per_s": rate("measures", "busy"),
        "measures.sweeps": med("measures", "calls"),
        "spectrum.self_s": med("spectrum", "self"),
        "spectrum.roots_per_s": rate("spectrum", "self"),
        "partition.adaptive_s": med("adaptive", "busy"),
        "partition.adaptive_cubes_per_s": rate("adaptive", "busy"),
        "partition.oracle_s": med("oracle", "busy"),
        "partition.oracle_budget_per_s": rate("oracle", "busy"),
        "polyapprox.project_s": med("project", "busy"),
        "polyapprox.error_s": med("error", "busy"),
        "polyapprox.samples_per_s": rate("error", "busy"),
        "kreinfeller.discretize_s": med("discretize", "busy"),
        "kreinfeller.eigen_s": med("eigen", "busy"),
        "kreinfeller.eigen_atoms_per_s": rate("eigen", "busy"),
        "kreinfeller.fit_self_s": med("fit", "self"),
    }
    for name in CLI_SUBCOMMANDS:
        out[f"cli.{name}_s"] = med(f"cli.{name}", "busy")
    return out


def shares(per_pass: list[dict], pass_times: list[float]) -> dict[str, float]:
    """Self time of each layer as a share of traced pass time."""
    total = sum(pass_times)
    layers = sorted({layer for ps in per_pass for layer in ps})
    out = {layer: sum(ps.get(layer, {}).get("self", 0.0) for ps in per_pass) / total
           for layer in layers}
    out["untraced"] = 1.0 - sum(out.values())
    return out


def main() -> int:
    inputs = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    workdir = Path(sys.argv[2])
    seconds = float(sys.argv[3])
    trace = sys.argv[4] == "1"
    is_cli = inputs["workload"] == "cli"
    calib = [calibrate()]
    runner = workload_jobs.CliRunner(workdir)
    job_list = workload_jobs.build(inputs, runner)

    warm = run_pass(job_list)
    expected = [fingerprint(r) for r in warm.results]
    mismatches = [0] * len(job_list)
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    n_timed = 0
    while True:
        use_trace = trace and n_timed % 2 == 1
        tracer = Tracer()
        if use_trace:
            runner.traced = True
            if not is_cli:
                tracer.install()
        try:
            run = run_pass(job_list)
        finally:
            runner.traced = False
            tracer.uninstall()
        n_timed += 1
        if use_trace:
            traced.append(run.elapsed)
            per_pass.append(layer_stats(cli_spans(job_list, run) if is_cli else tracer.spans))
        else:
            untraced.append(run.elapsed)
        for k, res in enumerate(run.results):
            if fingerprint(res) != expected[k]:
                mismatches[k] += 1
        del run  # the next pass starts with only the warm-up results held
        enough = len(untraced) >= 3 and (not trace or len(traced) >= 2)
        if enough and time.perf_counter() - start >= seconds:
            break
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    raised, wrong, problems = check_results(job_list, warm.results)
    n_passes = 1 + n_timed
    attempted = len(job_list) * n_passes
    failed = sum(n_passes if k in raised | wrong else mismatches[k] for k in range(len(job_list)))
    for k, count in enumerate(mismatches):
        if count and k not in raised | wrong:
            wrong.add(k)
            problems.append(f"{job_list[k].name}: {count} passes differ from the checked warm-up")

    out = {"attempted": attempted, "failed": failed, "wrong": len(wrong),
           "problems": problems[:20], "pass_s": untraced, "peak_rss_mb": peak_rss_mb}
    if trace:
        present = {layer for ps in per_pass for layer in ps}
        wanted = set(LAYERS) | {f"cli.{name}" for name in CLI_SUBCOMMANDS}
        probes = [job for layers, job in workload_jobs.probe_jobs(runner)
                  if not set(layers) <= present]
        tracer = Tracer()
        tracer.install()
        runner.traced = True
        try:
            run = run_pass(probes)
        finally:
            runner.traced = False
            tracer.uninstall()
        probe_spans = tracer.spans + cli_spans(probes, run, len(tracer.spans))
        probe_raised, _, probe_problems = check_results(probes, run.results)
        attempted += len(probes)
        failed += len(probe_raised)
        problems += probe_problems
        missing = wanted - present - set(layer_stats(probe_spans))
        if missing:
            out["wrong"] += 1
            problems.append(f"no spans for layers {sorted(missing)}")
        out.update({
            "attempted": attempted, "failed": failed, "problems": problems[:20],
            "traced_pass_s": traced,
            "layers": layer_metrics(per_pass, layer_stats(probe_spans)),
            "shares": shares(per_pass, traced),
            "probed": sorted(wanted - present),
        })
    calib.append(calibrate())
    out["calib_s"] = calib
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
