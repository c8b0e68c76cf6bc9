"""Self-tests of the benchmark; run from the root of a checkout with

    python3 perfbench/selftest.py

They check that inputs depend only on the seed, that a single perturbed
output cell counts as a failed command, that traced and untraced runs write
identical outputs, that the metric names match BENCHMARK.json, and that the
benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
import unittest

import run  # sets the BLAS thread limits before numpy is imported
import checks
import numpy as np
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
import hmmentropy  # noqa: E402
import hmmentropy.cli  # noqa: E402

SCRATCH = run.WORK / "selftest"


def setUpModule():
    SCRATCH.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _run(workload):
    args = run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0"])
    return run.Run(args, hmmentropy, hmmentropy.cli.main)


def _perturbed(text, column, row):
    """The TSV with one cell of ``column`` changed by a small relative step;
    an index or state column gets another integer."""
    lines = text.splitlines()
    cells = lines[row + 1].split("\t")
    value = float(cells[column])
    if value.is_integer() and "." not in cells[column] and "e" not in cells[column]:
        cells[column] = str(int(value) + 1 if value < 1 else int(value) - 1)
    else:
        cells[column] = format(value + max(1e-4, 1e-4 * abs(value)), ".12g")
    lines[row + 1] = "\t".join(cells)
    return "\n".join(lines) + "\n"


class Inputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name in workloads.WORKLOADS:
            manifests = []
            for copy in ("a", "b"):
                directory = SCRATCH / f"inputs-{name}-{copy}"
                directory.mkdir(parents=True, exist_ok=True)
                manifests.append(workloads.generate(name, 3, directory).manifest)
            self.assertEqual(manifests[0], manifests[1])
            other = SCRATCH / f"inputs-{name}-c"
            other.mkdir(parents=True, exist_ok=True)
            self.assertNotEqual(manifests[0]["files"],
                                workloads.generate(name, 4, other).manifest["files"])


class Checks(unittest.TestCase):
    def _check_small(self, r, outputs):
        """Problems the run finds in the small instance's outputs."""
        outcomes = {k: run.Outcome(*v, wall=0.0) for k, v in outputs.items()}
        before = len(r.problems), r.failed
        r.check_small(outcomes)
        found = r.problems[before[0]:]
        del r.problems[before[0]:]
        failed, r.failed = r.failed - before[1], before[1]
        return found, failed

    def test_clean_outputs_pass(self):
        for name in workloads.WORKLOADS:
            r = _run(name)
            small = r.small_mix(r.workload.commands)
            found, failed = self._check_small(r, {k: o.output() for k, o in small.items()})
            self.assertEqual((found, failed), ([], 0), name)
            shutil.rmtree(r.dir)

    def test_single_perturbed_cell_fails(self):
        """Every column of every table, and every scalar, on the small
        instance, where the enumeration oracle is also compared."""
        for name in workloads.WORKLOADS:
            r = _run(name)
            clean = {k: o.output() for k, o in r.small_mix(r.workload.commands).items()}
            for label, (code, text, err) in clean.items():
                lines = text.splitlines()
                width = len(lines[0].split("\t"))
                cases = []
                if label in ("summary", "criteria"):
                    for row in range(len(lines)):
                        key, value = lines[row].split("\t")
                        changed = lines.copy()
                        changed[row] = f"{key}\t{float(value) * 1.0001 + 1e-4:.12g}"
                        cases.append((key, "\n".join(changed) + "\n", err))
                else:
                    row = (len(lines) - 1) // 2
                    cases += [(f"column {c}", _perturbed(text, c, row), err)
                              for c in range(width)]
                if err:
                    key, value = err.splitlines()[0].split("\t")
                    cases.append(("stderr", text, f"{key}\t{float(value) - 1e-4:.12g}\n"
                                  + "".join(err.splitlines(True)[1:])))
                for what, new_text, new_err in cases:
                    outputs = dict(clean, **{label: (code, new_text, new_err)})
                    found, failed = self._check_small(r, outputs)
                    self.assertGreaterEqual(failed, 1, f"{name} {label} {what}")
            shutil.rmtree(r.dir)

    def test_suboptimal_viterbi_fails_without_oracle(self):
        """On the main instances, with no oracle to compare with, a Viterbi
        configuration one position away from the optimum fails, even with a
        log joint printed to match it."""
        for name in workloads.WORKLOADS:
            r = _run(name)
            outputs = {k: o.output() for k, o in r.mix().items()}
            self.assertEqual(dict(checks.check_repetition(outputs, r.expect).problems),
                             {}, name)
            label = "viterbi" if r.workload.kind == "chain" else "viterbi_profiles"
            code, text, err = outputs[label]
            column = text.splitlines()[0].split("\t").index("viterbi_state")
            for row in (0, r.expect.num_positions // 2, r.expect.num_positions - 1):
                new_text = _perturbed(text, column, row)
                new_err = err
                if err:
                    s = int(np.searchsorted(r.expect.starts, row, side="right")) - 1
                    lo = r.expect.starts[s]
                    states = checks.Table(new_text)["viterbi_state"].astype(int)
                    value, _ = r.expect.log_joint(
                        states[lo:lo + r.expect.values[s].shape[0]], r.expect.values[s])
                    lines = err.splitlines()
                    lines[s] = f"log_joint[{s}]\t{value:.12g}"
                    new_err = "\n".join(lines) + "\n"
                report = checks.check_repetition(
                    dict(outputs, **{label: (code, new_text, new_err)}), r.expect)
                self.assertTrue(report.problems[label], f"{name} row {row}")
            shutil.rmtree(r.dir)

    def test_medium_tree_checks_viterbi_profiles(self):
        """The medium tree's Viterbi profiles do not underflow, so a single
        perturbed cell of them fails without the oracle."""
        for seed in (1, 2, 3):
            args = run.parse_args(["--workload", "tree-binary", "--seed", str(seed),
                                   "--seconds", "0"])
            r = run.Run(args, hmmentropy, hmmentropy.cli.main)
            expect = checks.Expect(r.inputs.medium, r.workload)
            outputs = {k: o.output() for k, o in
                       r.small_mix(r.workload.commands, r.inputs.medium).items()}
            self.assertEqual(dict(checks.check_repetition(outputs, expect).problems), {})
            code, text, err = outputs["viterbi_profiles"]
            table = checks.Table(text)
            self.assertGreater(min(table[f"vprofile_{j}"].max() for j in range(expect.j)),
                               1e-200)
            for column in range(table.header.index("vprofile_0"), len(table.header)):
                new = (code, _perturbed(text, column, 10), err)
                report = checks.check_repetition(dict(outputs, viterbi_profiles=new),
                                                 expect)
                self.assertTrue(report.problems["viterbi_profiles"], f"column {column}")
            shutil.rmtree(r.dir)

    def test_perturbed_repetition_counts_as_failed(self):
        r = _run("chain-long")
        first = r.small_mix(r.workload.commands)
        r.record(first)
        again = r.small_mix(r.workload.commands)
        o = again["entropy_past"]
        again["entropy_past"] = run.Outcome(o.code, _perturbed(o.text, 8, 3), o.err, o.wall)
        r.record(again)
        self.assertEqual((r.attempted, r.failed), (8, 1))
        shutil.rmtree(r.dir)


class Tracing(unittest.TestCase):
    def test_traced_and_untraced_outputs_identical(self):
        for name in workloads.WORKLOADS:
            r = _run(name)
            r.record(r.mix())
            outcomes, data = run.traced_mix(r, tracing.Tracer())
            r.record(outcomes)
            self.assertEqual((r.failed, r.problems), (0, []), name)
            self.assertGreater(data["counts"]["numutil.kernel_calls"], 0)
            self.assertIn("tree.upward_s", data["stages"])
            shutil.rmtree(r.dir)
        # uninstall restored every replaced name
        self.assertIs(hmmentropy.cli.smooth_chain, hmmentropy.chain.smooth_chain)
        self.assertFalse(hasattr(hmmentropy.chain.forward_pass, "__wrapped__"))
        self.assertFalse(hasattr(hmmentropy.model.TreeTopology.__init__, "__wrapped__"))


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_refuses_to_run_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "chain-long", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=120)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
