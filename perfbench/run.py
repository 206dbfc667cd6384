"""coxring benchmark: closed-loop CLI invocations on seeded inputs.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/coxring``.  One client
runs one fresh ``python3 -m coxring.cli`` child at a time and starts the
next only when the last has exited (a closed loop), so every invocation
pays interpreter start-up, imports and cold caches, as a user does.  A pass
is one run of every invocation of the workload; passes repeat until the
next one would end past ``--seconds`` (at least two are made).

Every invocation is checked: exit code, no traceback on stderr, and the
seed-independent signature of its report.  A wrong exit code, a traceback,
a signature mismatch or a timeout is a failure; failures are counted in
``failed`` and never dropped.

With ``--trace 0`` the end-to-end metrics are reported; ``setup_s`` comes
from separate set-up probes (perfbench/probe.py).  The times are scaled to a
reference machine speed, because the speed of a CPU of a shared host swings
by tens of percent within a second: the benchmark and its children keep to
one CPU, a sampler thread times a short fixed loop on it every
SAMPLE_INTERVAL_S while the children run, and each child's times are
multiplied by SAMPLE_REF_S over the mean loop time sampled during that
child.  The unscaled times are printed and kept in the result record.

With ``--trace 1`` each pass runs every invocation untraced and then traced
(perfbench/traced.py): the traced runs give the per-layer metrics, the
paired differences give the tracing overhead, and the exact counts of every
traced pass must repeat.

Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Inputs, child output, spans and a full result record are written under
``perfbench/.work/``.

``--workload all`` runs every workload in turn with the same seed; its
JSON line sums the counts and prefixes each metric with its workload.
"""

import argparse
import collections
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

PROBES_PER_PASS = 3  # set-up probes run before every untraced pass
MIN_PASSES = 2
INVOCATION_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # no invocation starts later; a run may take 180 s

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}

# The speed sampler's loop, its period, and the loop's CPU time when the CPU
# runs at the reference speed (typical of the 2-vCPU machine the benchmark
# was built on).  The loop takes about 4% of the CPU.
SAMPLE_ITERATIONS = 10000
SAMPLE_INTERVAL_S = 0.02
SAMPLE_REF_S = 0.0009


class ProbeFailed(Exception):
    """A set-up probe did not start the program and parse its input."""


# ---------------------------------------------------------------------------
# machine speed


def pin_to_one_cpu():
    """Keep this process and every child on one CPU, so the speed sampler
    measures the CPU the program runs on (the CPUs of a shared host slow
    down independently).  Returns the CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSampler:
    """A thread that times a fixed loop every SAMPLE_INTERVAL_S.

    It shares the CPU with the running child: woken from its sleep, it runs
    the loop at once and measures it in thread CPU time, so each sample is
    the speed of that CPU at that moment.  Use it as a context manager; the
    thread has ended when the block exits.
    """

    def __init__(self):
        self.samples = []  # (time.monotonic() at the end, loop CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            start = time.thread_time()
            x = 0
            for i in range(SAMPLE_ITERATIONS):
                x += i * i % 7
            self.samples.append((time.monotonic(),
                                 time.thread_time() - start))

    def scale(self, start, end):
        """Factor that takes a time measured from `start` to `end`
        (time.monotonic()) to the reference speed."""
        inside = [d for t, d in self.samples if start <= t <= end]
        return SAMPLE_REF_S / statistics.fmean(
            inside or [d for _, d in self.samples])


# ---------------------------------------------------------------------------
# child processes


def child_env():
    """The caller's environment with src first on the module path.  Bytecode
    caching is allowed, as for an installed package: the untimed first
    start-up writes it into the checkout (__pycache__ is git-ignored)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def invoke(cmd, out_prefix, env, timeout):
    """Run one child to completion; return (start, end, rusage, exit code,
    timed out, stdout bytes, stderr bytes), where start and end are
    time.monotonic().  Output goes to files, so a large report cannot block
    the child on a full pipe."""
    killed = []

    with open(out_prefix + ".out", "wb") as out, \
            open(out_prefix + ".err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ROOT)

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_prefix + ".out", "rb") as out, \
            open(out_prefix + ".err", "rb") as err:
        return start, end, usage, proc.returncode, bool(killed), \
            out.read(), err.read()


def probe_setup(mode, path, env, out_prefix):
    """(launch time, seconds from launching a child until it has parsed its
    input); the launch time is time.monotonic()."""
    launched = time.monotonic_ns()
    _, _, _, code, timed_out, out, err = invoke(
        [sys.executable, os.path.join(HERE, "probe.py"), mode, path],
        out_prefix, env, INVOCATION_TIMEOUT_S)
    try:
        if code == 0 and not timed_out:
            return launched / 1e9, (int(out.split()[-1]) - launched) / 1e9
    except (IndexError, ValueError):
        pass
    raise ProbeFailed("set-up probe exited with %d: %s"
                      % (code, err.decode(errors="replace")[-500:]))


def check(label, code, timed_out, out, err):
    """None when the invocation is correct, else the reason it failed."""
    if timed_out:
        return "timeout after %.0f s" % INVOCATION_TIMEOUT_S
    if code != 0:
        return "exit code %d, expected 0" % code
    if b"Traceback" in err:
        return "traceback on stderr"
    try:
        got = workloads.signature(json.loads(out))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return "report unreadable: %r" % (exc,)
    if got != workloads.SIGNATURES[label]:
        return "signature mismatch: %s" % json.dumps(got, sort_keys=True)
    return None


def run_pass(invocations, env, run_dir, deadline, traced):
    """One pass over the invocations; a list of per-invocation records.
    A traced pass runs each invocation untraced and then traced, so the
    two see the same machine and their difference is the overhead."""
    records = []
    variants = (False, True) if traced else (False,)
    for index, (label, args) in enumerate(invocations):
        for with_tracer in variants:
            records.append(run_one(index, label, args, env, run_dir,
                                   deadline, with_tracer))
    return records


def run_one(index, label, args, env, run_dir, deadline, traced):
    record = {"label": label, "traced": traced}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        record["failure"] = "run time limit reached before it started"
        return record
    prefix = os.path.join(run_dir, "out", "%d-%d" % (index, traced))
    spans = os.path.join(run_dir, "spans", "%d.bin" % index)
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "traced.py"), spans]
    else:
        cmd = [sys.executable, "-m", "coxring.cli"]
    start, end, usage, code, timed_out, out, err = invoke(
        cmd + args, prefix, env, min(INVOCATION_TIMEOUT_S, remaining))
    record.update({
        "start": start, "end": end,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "failure": check(label, code, timed_out, out, err),
    })
    if traced and record["failure"] is None:
        record["trace"] = tracer.load(spans)
    return record


def run_passes(invocations, env, run_dir, seconds, deadline, traced,
               before_pass=None):
    """Passes until the next would end past `seconds`; at least MIN_PASSES
    unless the hard deadline comes first."""
    passes = []
    start = time.monotonic()
    while True:
        if before_pass is not None:
            before_pass()
        passes.append(run_pass(invocations, env, run_dir, deadline, traced))
        typical = statistics.median(
            sum(r.get("wall_s", 0.0) for r in p) for p in passes)
        now = time.monotonic()
        if now + typical > deadline:
            break
        if len(passes) >= MIN_PASSES and now - start + typical > seconds:
            break
    return passes


def pass_total(records, key, traced=False):
    return sum(r.get(key, 0.0) for r in records if r["traced"] == traced)


# ---------------------------------------------------------------------------
# reporting


def describe(values, unit):
    """Median and the highest percentile with ten samples beyond it."""
    n = len(values)
    text = "median %.4f %s (n=%d" % (statistics.median(values), unit, n)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        cut = statistics.quantiles(values, n=100, method="inclusive")
        text += ", p%d %.4f %s" % (pct, cut[pct - 1], unit)
    else:
        text += ", max %.4f %s; too few samples for a tail percentile" % (
            max(values), unit)
    return text + ")"


def run_metadata(workload, args, machine):
    loc = 0
    for path in sorted(glob.glob(os.path.join(SRC, "coxring", "*.py"))):
        with open(path, "rb") as handle:
            loc += handle.read().count(b"\n")
    return {
        "workload": workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        **machine, "git_sha": git_sha(), "src_lines": loc,
    }


def git_sha():
    """HEAD of the checkout, read from .git; 'unknown' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(invocations, env, run_dir, args, deadline, lines):
    mode, path = invocations[0][1][0], invocations[0][1][-1]
    probes = []

    def probe_pass():
        # spread over the run, so set-up sees the same machine as the passes
        for _ in range(PROBES_PER_PASS):
            probes.append(probe_setup(
                mode, path, env,
                os.path.join(run_dir, "out", "probe%d" % len(probes))))

    with SpeedSampler() as sampler:
        passes = run_passes(invocations, env, run_dir, args.seconds,
                            deadline, traced=False, before_pass=probe_pass)
    samples = {"raw": {}, "scaled": {}}
    for key in ("wall_s", "cpu_s"):
        samples["raw"][key] = [pass_total(p, key) for p in passes]
        samples["scaled"][key] = [
            sum(r[key] * sampler.scale(r["start"], r["end"])
                for r in p if key in r)
            for p in passes]
    samples["raw"]["setup_s"] = [v for _, v in probes]
    samples["scaled"]["setup_s"] = [v * sampler.scale(t, t + v)
                                    for t, v in probes]
    samples["raw"]["peak_rss_mb"] = samples["scaled"]["peak_rss_mb"] = [
        max(r.get("rss_mb", 0.0) for r in p) for p in passes]
    loop = [d for _, d in sampler.samples]
    samples["speed_sample_s"] = loop
    lines.append("# speed sampler: loop %s, reference %.3f ms"
                 % (describe([d * 1e3 for d in loop], "ms"),
                    SAMPLE_REF_S * 1e3))
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        values = samples["scaled"][name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        per = "probe" if name == "setup_s" else "pass"
        lines.append("%-12s %s, one sample per %s"
                     % (name, describe(values, unit), per))
        if name != "peak_rss_mb":
            lines.append("%-12s unscaled: %s"
                         % ("", describe(samples["raw"][name], unit)))
    return passes, metrics, samples, True


def traced_run(invocations, env, run_dir, args, deadline, lines):
    passes = run_passes(invocations, env, run_dir, args.seconds, deadline,
                        traced=True)
    complete = [p for p in passes
                if all(r["failure"] is None for r in p)]
    per_pass = []
    for records in complete:
        totals, counters = {}, collections.Counter()
        for r in records:
            if r["traced"]:
                header, spans = r["trace"]
                tracer.aggregate(header, spans, totals)
                counters.update(header["counters"])
        per_pass.append((totals, dict(counters)))
    exact = [tracer.counts(t, c) for t, c in per_pass]
    repeat = len(exact) >= 2 and all(e == exact[0] for e in exact)
    if len(exact) < 2:
        lines.append("counts check FAILED: fewer than two complete passes")
    elif not repeat:
        diff = sorted(k for k in set(exact[0]) | set(exact[1])
                      if exact[0].get(k) != exact[1].get(k))
        lines.append("counts check FAILED: differ on %s" % ", ".join(diff))
    else:
        lines.append("counts check: %d traced passes, identical counts"
                     % len(exact))
    if not per_pass:
        return passes, {}, {}, False
    metrics = {}
    runs = [tracer.layer_metrics(t, c) for t, c in per_pass]
    for name, (_, unit) in runs[0].items():
        values = [m[name][0] for m in runs]
        value = values[0] if unit in ("count", "ratio") \
            else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    plain = [pass_total(p, "wall_s") for p in complete]
    traced = [pass_total(p, "wall_s", traced=True) for p in complete]
    metrics["trace.overhead_s"] = {
        "value": statistics.median(t - u for t, u in zip(traced, plain)),
        "unit": "s"}
    lines.append("untraced wall_s %s" % describe(plain, "s"))
    lines.append("traced wall_s   %s" % describe(traced, "s"))
    lines.append("tracing overhead: median of paired differences %.4f s"
                 % metrics["trace.overhead_s"]["value"])
    lines.append("%-44s %9s %10s %10s" % ("span (first pass)", "calls", "s",
                                          "self_s"))
    totals = per_pass[0][0]
    for name in sorted(totals, key=lambda k: -totals[k]["self_s"]):
        e = totals[name]
        lines.append("%-44s %9d %10.4f %10.4f"
                     % (name, e["calls"], e["s"], e["self_s"]))
    for name in sorted(metrics):
        lines.append("%-48s %.6g %s" % (name, metrics[name]["value"],
                                        metrics[name]["unit"]))
    return passes, metrics, {"wall_s": plain, "traced_wall_s": traced}, \
        repeat


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, args, machine):
    """One run of one workload: (human-readable lines, result object)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = os.path.join(WORK, "%s-seed%d-trace%d"
                           % (workload, args.seed, args.trace))
    for sub in ("out", "spans"):
        os.makedirs(os.path.join(run_dir, sub), exist_ok=True)
    invocations = workloads.write_inputs(workload, args.seed,
                                         os.path.join(run_dir, "inputs"))
    env = child_env()
    meta = run_metadata(workload, args, machine)
    lines = ["# coxring benchmark " + " ".join(
        "%s=%s" % kv for kv in meta.items())]
    # untimed: the first start-up in a checkout compiles bytecode
    mode, path = invocations[0][1][0], invocations[0][1][-1]
    probe_setup(mode, path, env, os.path.join(run_dir, "out", "warm"))
    kind = traced_run if args.trace else untraced_run
    passes, metrics, samples, counts_ok = kind(
        invocations, env, run_dir, args, deadline, lines)
    records = [r for p in passes for r in p]
    failures = [r for r in records if r["failure"] is not None]
    attempted = len(records)
    lines.insert(1, "# closed loop, 1 client: %d passes x %d invocations; "
                 "attempted %d, failed %d, failed_frac %.4f" % (
                     len(passes), len(invocations), attempted,
                     len(failures), len(failures) / attempted))
    for r in failures:
        lines.append("FAILED %s: %s" % (r["label"], r["failure"]))
    result = {"correct": not failures and counts_ok, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"meta": meta, "result": result, "samples": samples,
                   "failed_frac": len(failures) / attempted,
                   "failures": [(r["label"], r["failure"])
                                for r in failures],
                   "lines": lines}, handle, indent=1, sort_keys=True)
    return lines, result


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coxring", "cli.py")):
        print("error: no coxring sources at %s; run from the root of a "
              "coxring checkout" % SRC, file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    machine = {"nproc": len(os.sched_getaffinity(0))}
    machine["cpu"] = pin_to_one_cpu()
    results = {}
    for name in names:
        try:
            lines, results[name] = run_workload(name, args, machine)
        except ProbeFailed as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        print("\n".join(lines))
    if len(names) == 1:
        result = results[names[0]]
    else:
        # every workload in turn; metric names are prefixed by the workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (name, metric): value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
