"""End-to-end and per-layer benchmark of the hmmentropy CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chain-long --seed 1 --seconds 20 --trace 0

One process runs one workload with a closed loop: a single caller runs the
workload's command mix through ``hmmentropy.cli.main(argv)`` in-process,
each command starting after the previous one returns, output going to a file
via ``--out`` and stderr captured.  BLAS threads are capped at 1 and no
worker threads or processes are used.  Inputs are generated from ``--seed``
(see ``workloads.py``); repetitions of the mix run for ``--seconds``.

Every command's output is checked (``checks.py``) without being timed: exit
code, row counts, finite values, the paper's identities, the second routes
once per run, a small instance against the enumeration oracle, a medium
tree whose Viterbi profiles do not underflow, and byte-identical output in
every repetition.  A command that exits non-zero,
raises or fails a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics, each a median over the run's
repetitions.  The host's speed drifts by tens of percent over minutes, so
command times are reported in units of a calibration loop (``calibrate``)
timed before and after every command: a ``*_cal`` value is a command's wall
time divided by the mean of those two loop times, summed over the commands
the metric covers.
``setup_s`` is the median time of fresh interpreters importing
``hmmentropy.cli``, launched after each repetition with the calibration loop
timed before and after each launch; it is reported in seconds at a fixed
host speed, the launch time in calibration loops times ``CALIB_REFERENCE_S``.
``peak_rss_mb`` is the process's peak resident memory, and
``command_rss_mb`` the peak reached during the first measured repetition
minus the resident memory just before it (after the imports, the input
generation and the warm-up), so that it shows what the commands themselves
hold; later repetitions only add the allocator's fragmentation to the peak.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.py`` in seconds, medians over the traced
repetitions and summed over the command mix; its span trace is written to
``.perfbench_work/``.  The last line of stdout is the JSON result.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads its thread count when numpy is first imported.
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PER_REP = 1
SETUP_LAUNCHES = 10
MIN_REPS = 3
# calibrate()'s median time on the 2-core host the bounds were set on
CALIB_REFERENCE_S = 0.12

END_TO_END = {
    "setup_s": "s",
    "entropy_cal": "calib",
    "viterbi_cal": "calib",
    "summary_cal": "calib",
    "positions_per_cal": "1/calib",
    "peak_rss_mb": "MB",
    "command_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "fileio.parse_s": "s",
    "fileio.parse_calls": "count",
    "fileio.parse_useful_ratio": "ratio",
    "fileio.format_s": "s",
    "fileio.format_cells_per_s": "1/s",
    "model.emission_s": "s",
    "model.emission_calls": "count",
    "model.topology_s": "s",
    "model.topology_calls": "count",
    "chain.forward_s": "s",
    "chain.backward_s": "s",
    "chain.viterbi_s": "s",
    "chain.calls": "count",
    "chain_entropy.past_s": "s",
    "chain_entropy.future_s": "s",
    "tree.upward_s": "s",
    "tree.downward_s": "s",
    "tree.viterbi_s": "s",
    "tree.viterbi_profiles_s": "s",
    "tree.upward_calls": "count",
    "tree_entropy.parent_cond_s": "s",
    "tree_entropy.parent_cond_calls": "count",
    "tree_entropy.approach1_s": "s",
    "tree_entropy.approach2_s": "s",
    "tree_entropy.children_cond_s": "s",
    "tree_entropy.children_terms": "count",
    "numutil.kernel_calls_per_pos": "calls/pos",
    "trace.overhead_ratio": "ratio",
    "machine.calib_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibrate():
    """Seconds for a fixed loop of pure Python and J x J numpy work, the
    kinds of work the commands do; tells host speed drift apart from
    changes in the code."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.full((4, 4), 0.25)
    v = np.full(4, 0.25)
    for _ in range(20_000):
        v = a @ v
        v = v / v.sum()
    return time.perf_counter() - start


def rss_mb():
    """The process's resident memory now, in MiB."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_time():
    """Wall seconds for a fresh interpreter to import hmmentropy.cli."""
    code = "import sys; sys.path.insert(0, 'src'); import hmmentropy.cli"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"import failed: {done.stderr.decode()[-500:]}")
    return elapsed


class Outcome:
    """One CLI command's exit code, outputs and wall time."""

    def __init__(self, code, text, err, wall, root=None):
        self.code, self.text, self.err, self.wall, self.root = code, text, err, wall, root
        self.same = None  # output identical to the first repetition's
        self.cal = None   # wall time in calibration loops

    def output(self):
        return self.code, self.text, self.err


def run_mix(cli_main, commands, model_path, data_path, out_dir, tracer=None,
            calibs=None):
    """Run the command mix once, closed loop; returns {label: Outcome}.

    With a ``calibs`` list, the calibration loop is timed before and after
    each command and appended to it."""
    outcomes = {}
    if calibs is not None and not calibs:
        calibs.append(calibrate())
    for label, args in commands:
        out = out_dir / f"{label}.out"
        argv = [*args, "--model", str(model_path), "--data", str(data_path),
                "--out", str(out)]
        err = io.StringIO()
        close = tracer.root() if tracer is not None else None
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except Exception:  # a crash is counted as a failed command
                code = "raised: " + traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        root = close() if close is not None else None
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        out.unlink(missing_ok=True)
        outcomes[label] = Outcome(code, text, err.getvalue(), wall, root)
        if calibs is not None:
            calibs.append(calibrate())
            outcomes[label].cal = wall / ((calibs[-2] + calibs[-1]) / 2)
    return outcomes


class Run:
    """State of one benchmark run: inputs, repetitions and problems found."""

    def __init__(self, args, hmm, cli_main):
        self.args, self.hmm, self.cli_main = args, hmm, cli_main
        self.dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.inputs = workloads.generate(args.workload, args.seed, self.dir)
        self.workload = self.inputs.workload
        self.model_text = self.inputs.model_path.read_text(encoding="utf-8")
        self.expect = checks.Expect(self.inputs.main, self.workload)
        self.attempted = 0
        self.failed = 0
        self.problems = []      # run-level problems, not tied to one command
        self.reference = None   # outputs of the first repetition
        self.reps = []          # untraced repetitions: {label: Outcome}
        self.calibs = []        # calibration times, around every untraced command
        self.setup = []         # setup_time() samples in calibration loops
        self.rss_before = None  # rss_mb() before the first measured command
        self.peak_first = None  # peak_rss_mb() after the first measured repetition
        self.traced = []        # traced repetitions: (outcomes, tracer data)

    def mix(self, tracer=None):
        return run_mix(self.cli_main, self.workload.commands, self.inputs.model_path,
                       self.inputs.main.data_path, self.dir, tracer,
                       None if tracer else self.calibs)

    def small_mix(self, commands, instance=None):
        instance = instance or self.inputs.small
        return run_mix(self.cli_main, commands, self.inputs.model_path,
                       instance.data_path, self.dir)

    def launch(self):
        """One set-up sample, in calibration loops timed around it."""
        before = calibrate()
        elapsed = setup_time()
        self.setup.append(elapsed / ((before + calibrate()) / 2))

    def check_small(self, outcomes):
        """Check the small instance's outputs against each other and against
        the enumeration oracle."""
        oracle = self.small_mix((("oracle", ("oracle",)),))["oracle"]
        expect = checks.Expect(self.inputs.small, self.workload)
        report = checks.check_repetition(
            {k: o.output() for k, o in outcomes.items()}, expect)
        if oracle.code != 0:
            report.check("oracle", False, f"exit code {oracle.code}")
        elif not any(report.problems.values()):
            try:
                checks.oracle_checks(report, expect, self.model_text, oracle.text,
                                     self.hmm)
            except (ValueError, KeyError, IndexError) as exc:
                report.check("oracle", False, f"unreadable output: {exc!r}")
        self.count_checked(outcomes, report, "small instance", extra=1)

    def check_medium(self, outcomes):
        """Check the medium instance's outputs against each other and the
        second routes."""
        expect = checks.Expect(self.inputs.medium, self.workload)
        report = checks.check_repetition(
            {k: o.output() for k, o in outcomes.items()}, expect)
        if not any(report.problems.values()):
            self.second_routes(report, expect)
        self.count_checked(outcomes, report, "medium instance")

    def second_routes(self, report, expect):
        try:
            checks.second_routes(report, expect, self.model_text, self.hmm)
        except Exception:  # the library failing on its own route is a finding
            report.check(self.workload.commands[0][0], False,
                         "second route raised: " + traceback.format_exc(limit=3))

    def count_checked(self, outcomes, report, what, extra=0):
        self.attempted += len(outcomes) + extra
        for label, found in report.problems.items():
            if found:
                self.failed += 1
                self.problems += [f"{what}, {label}: {p}" for p in found]

    def record(self, outcomes):
        """Count one repetition's commands, comparing with the first one; the
        outputs are dropped, so memory does not grow with the repetitions."""
        if self.reference is None:
            self.reference = {k: o.output() for k, o in outcomes.items()}
        for label, o in outcomes.items():
            self.attempted += 1
            o.same = o.output() == self.reference[label]
            if o.code != 0 or not o.same:
                self.failed += 1
                if not o.same:
                    self.problems.append(f"{label}: output differs from the first "
                                         f"repetition (exit code {o.code})")
            o.text = o.err = None

    def check_reference(self):
        """Check the first repetition's outputs and the second routes; a
        problem found fails that command in every repetition."""
        report = checks.check_repetition(self.reference, self.expect)
        if not any(report.problems.values()):
            self.second_routes(report, self.expect)
        for label, found in report.problems.items():
            if not found:
                continue
            self.problems += [f"{label}: {p}" for p in found]
            # the first repetition was counted before its problems were known
            self.failed += sum(1 for o in self.all_outcomes()
                               if o[label].code == 0 and o[label].same)

    def all_outcomes(self):
        return self.reps + [outcomes for outcomes, _ in self.traced]


def end_to_end(run):
    metrics = {"setup_s": statistics.median(run.setup) * CALIB_REFERENCE_S}
    for slot in ("entropy_cal", "viterbi_cal", "summary_cal"):
        metrics[slot] = statistics.median([sum(o.cal for k, o in rep.items()
                                     if run.workload.slots.get(k) == slot)
                                 for rep in run.reps])
    positions = run.inputs.main.num_positions * len(run.workload.commands)
    metrics["positions_per_cal"] = statistics.median([positions / sum(o.cal for o in rep.values())
                                            for rep in run.reps])
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["command_rss_mb"] = run.peak_first - run.rss_before
    return metrics


def per_layer(run):
    totals = [data["stages"] for _, data in run.traced]
    counts = [data["counts"] for _, data in run.traced]
    if any(c != counts[0] for c in counts):
        run.problems.append("call counts differ between traced repetitions")
    count = counts[0]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if unit == "s" and name in tracing.STAGES.values():
            metrics[name] = statistics.median([t.get(name, 0.0) for t in totals])
        elif unit == "count":
            metrics[name] = count.get(name, 0)
    commands = len(run.workload.commands)
    metrics["fileio.parse_useful_ratio"] = commands / max(1, count["fileio.parse_calls"])
    metrics["fileio.format_cells_per_s"] = statistics.median(
        [count["fileio.format_cells"] / t["fileio.format_s"] for t in totals])
    positions = run.inputs.main.num_positions * commands
    metrics["numutil.kernel_calls_per_pos"] = count["numutil.kernel_calls"] / positions
    untraced = statistics.median([sum(o.wall for o in rep.values()) for rep in run.reps])
    traced = statistics.median([sum(o.wall for o in rep.values()) for rep, _ in run.traced])
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0
    metrics["machine.calib_s"] = statistics.median(run.calibs)
    return {name: metrics[name] for name in PER_LAYER}


def traced_mix(run, tracer):
    """One traced repetition; checks that each command's span self times
    account for its wall time."""
    tracer.reset()
    tracer.install()
    try:
        outcomes = run.mix(tracer)
    finally:
        tracer.uninstall()
    for label, o in outcomes.items():
        wall, selfs, nested = tracing.command_accounting(tracer.spans, o.root)
        if not nested or abs(selfs - wall) > 1e-6 * wall + 1e-9 \
                or abs(wall - o.wall) > 0.01 * o.wall + 1e-3:
            run.problems.append(f"{label}: spans do not account for the wall time "
                                f"({selfs:.6f} s of self time, span {wall:.6f} s, "
                                f"command {o.wall:.6f} s)")
    stages, inclusive = tracing.stage_totals(tracer.spans)
    data = {"stages": dict(stages), "inclusive": dict(inclusive),
            "counts": dict(tracer.counts)}
    if not run.traced:
        data["spans"] = [list(s) for s in tracer.spans]
    return outcomes, data


def measure(run):
    """Repetitions for --seconds: untraced only, each followed by set-up
    samples so that those spread over the run too, or alternating untraced
    and traced ones with --trace 1."""
    tracer = tracing.Tracer() if run.args.trace else None
    run.rss_before = rss_mb()
    start = time.perf_counter()
    while True:
        outcomes = run.mix()
        run.peak_first = run.peak_first or peak_rss_mb()
        run.reps.append(outcomes)
        run.record(outcomes)
        if tracer is not None:
            outcomes, data = traced_mix(run, tracer)
            run.traced.append((outcomes, data))
            run.record(outcomes)
        else:
            for _ in range(SETUP_PER_REP):
                run.launch()
        if (time.perf_counter() - start >= run.args.seconds
                and len(run.reps) >= MIN_REPS):
            break
    while tracer is None and len(run.setup) < SETUP_LAUNCHES:
        run.launch()


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hmmentropy" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'hmmentropy'} not found; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hmmentropy
    import hmmentropy.cli
    if Path(hmmentropy.__file__).resolve().parent != SRC / "hmmentropy":
        print(f"perfbench: imported {hmmentropy.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    run = Run(args, hmmentropy, hmmentropy.cli.main)
    try:
        print("inputs " + json.dumps(run.inputs.manifest, sort_keys=True), flush=True)
        if not args.trace:
            setup_time()  # untimed: writes the bytecode caches
        small = run.small_mix(run.workload.commands)  # also warms up
        measure(run)
        if not args.trace:
            metrics = end_to_end(run)
        if run.inputs.medium is not None:
            run.check_medium(run.small_mix(run.workload.commands, run.inputs.medium))
        run.check_small(small)
        run.check_reference()
        units = END_TO_END
        if args.trace:
            metrics = per_layer(run)
            units = PER_LAYER
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(
                {"manifest": run.inputs.manifest,
                 "commands": [label for label, _ in run.workload.commands],
                 "repetitions": [data for _, data in run.traced]}) + "\n",
                encoding="utf-8")
        for problem in run.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        result = {"correct": not run.problems and run.failed == 0,
                  "attempted": run.attempted, "failed": run.failed,
                  "metrics": {name: {"value": metrics[name], "unit": unit}
                              for name, unit in units.items()}}
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
