"""clonerestore benchmark: CLI wall time, set-up and memory, with a per-layer trace.

    python3 perfbench/run.py --workload sweep-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from that
checkout's ``src``. Workloads are described in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics. Until ``--seconds`` have
passed it alternates the set-up probe (``probe.py``) and the workload's
CLI command, each in a fresh interpreter, one process at a time.
``setup_s`` is the median probe time. ``wall_s`` and ``peak_rss_mb`` are
the medians over the ``python -m clonerestore`` invocations, the peak
resident set taken from each child's own ``wait4`` rusage.

``--trace 1`` measures the per-layer metrics. It runs pairs of fresh
in-process runs (``inproc.py``), one untraced and one with every public
function of each layer wrapped, until ``--seconds`` have passed, and
reports the median of each metric over the pairs. ``trace.overhead_frac``
is traced wall over untraced wall, minus one.

Every invocation's exit code and output pass the workload's correctness
gate, and every output of one seed, traced or not, has the same sha256.
Earlier lines of standard output describe the run (environment, sample
counts, output digest); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The metric names
and units are those of ``BENCHMARK.json``. Spans of the last traced run
are written to ``.bench_build/perfbench/spans-<workload>.json``.
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

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUP_PROBES = 7
# A run ends well inside the 180 s a caller may allow it.
DEADLINE_S = 170


def _on_deadline(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")


def run_child(cmd: list[str], env: dict, stdout: Path, stderr: Path) -> tuple[int, float, float]:
    """Run one child to completion; return (exit code, wall s, peak RSS MB).

    The child is reaped with ``os.wait4`` so its rusage is its own, not
    the running maximum over all children. It is killed if the benchmark
    is interrupted.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_package_file(path: str) -> None:
    """The package a child imported must be the checkout's own."""
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"clonerestore was imported from {path}, not from {ROOT / 'src'}")


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": git_commit(), "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "loadavg": list(os.getloadavg())}


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: set[str] = set()
        self.info: dict = {"workload": workload, "seed": seed}

    def _argv(self, tag: str) -> tuple[list[str], Path | None]:
        out = self.work / f"{self.workload}-{tag}.csv"
        argv = workloads.command(self.workload, self.seed, str(out))
        return argv, (out if workloads.writes_csv(self.workload) else None)

    def _gate(self, code: int, stdout: Path, csv: Path | None) -> bytes | None:
        """Check one invocation; return its output, or None if it failed."""
        self.attempted += 1
        try:
            output = (csv or stdout).read_bytes()
            digest = hashlib.sha256(output).hexdigest()
            # The gate is a function of the bytes: output seen before passed.
            if code != 0 or digest not in self.digests:
                workloads.check(self.workload, code, output)
        except (OSError, workloads.GateError) as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if csv is not None:
                csv.unlink(missing_ok=True)
        self.digests.add(digest)
        return output

    def probe(self) -> float:
        """One set-up probe in a fresh interpreter; return its set-up time."""
        p_bit, p_ph = workloads.error_rates(self.seed)
        cmd = [sys.executable, str(HERE / "probe.py"), self.workload,
               repr(p_bit), repr(p_ph), str(self.seed)]
        stdout, stderr = self.work / "probe.out", self.work / "probe.err"
        code, _, _ = run_child(cmd, self.env, stdout, stderr)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {stderr.read_text()[-2000:]}")
        probe = json.loads(stdout.read_text())
        check_package_file(probe["clonerestore"])
        self.info["numpy"] = probe["numpy"]
        return probe["setup_s"]

    def invoke(self) -> tuple[float, float]:
        """One CLI invocation in a fresh subprocess; return (wall s, peak RSS MB)."""
        argv, csv = self._argv("cli")
        stdout, stderr = self.work / "cli.out", self.work / "cli.err"
        code, wall, peak = run_child([sys.executable, "-m", "clonerestore", *argv],
                                     self.env, stdout, stderr)
        self._gate(code, stdout, csv)
        self.info["argv"] = argv
        return wall, peak

    def end_to_end(self, seconds: float) -> dict[str, float]:
        # The first probe compiles the package's bytecode and is not counted.
        # The others alternate with the CLI invocations, so both medians
        # sample the same stretch of time on a machine whose speed drifts.
        self.probe()
        setups, walls, rss = [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            setups.append(self.probe())
            wall, peak = self.invoke()
            walls.append(wall)
            rss.append(peak)
        while len(setups) < MIN_SETUP_PROBES:
            setups.append(self.probe())
        self.info["wall_s_samples"] = walls
        self.info["setup_s_samples"] = setups
        return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(rss)}

    def _inproc(self, traced: bool, pair: int) -> dict:
        tag = "traced" if traced else "plain"
        argv, csv = self._argv(tag)
        stdout, stderr, result = (self.work / f"inproc-{tag}.{ext}" for ext in ("out", "err", "json"))
        cmd = [sys.executable, str(HERE / "inproc.py"), "--stdout", str(stdout)]
        if traced:
            cmd += ["--traced", "--run-id", f"{self.workload}-{self.seed}-{pair}",
                    "--spans", str(self.work / f"spans-{self.workload}.json")]
        code, _, _ = run_child([*cmd, "--", *argv], self.env, result, stderr)
        if code != 0:
            raise RuntimeError(f"in-process run failed: {stderr.read_text()[-2000:]}")
        report = json.loads(result.read_text())
        check_package_file(report["clonerestore"])
        output = self._gate(report["returncode"], stdout, csv)
        if traced and output is not None:
            report["metrics"]["cli.rows_out"] = output.count(b"\n")
            report["metrics"]["cli.bytes_out"] = len(output)
        return report

    def per_layer(self, seconds: float) -> dict[str, float]:
        # One CLI subprocess too, so its output digest is compared with
        # the in-process runs'.
        self.invoke()
        samples: list[dict[str, float]] = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            plain = self._inproc(False, len(samples))
            traced = self._inproc(True, len(samples))
            metrics = traced["metrics"]
            metrics["trace.wall_s"] = traced["wall_s"]
            metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
            samples.append(metrics)
        last = samples[-1]
        self.info["pairs"] = len(samples)
        self.info["uncalled"] = [n for n in workloads.EXPECTED_CALLS[self.workload]
                                 if last.get(f"{n}.calls", 0) == 0]
        layer_sum = sum(last[f"{layer}.self_s"] for layer in spans.LAYERS)
        self.info["layer_self_sum_over_wall"] = layer_sum / last["trace.wall_s"]
        return {k: statistics.median(s.get(k, 0) for s in samples) for k in last}

    def result(self, metrics: dict[str, float], spec: list[dict]) -> dict:
        if len(self.digests) > 1:
            self.errors.append(f"outputs of one seed differ: {sorted(self.digests)}")
        self.info["output_sha256"] = sorted(self.digests)
        self.info["fail_ratio"] = self.failed / self.attempted
        self.info["errors"] = self.errors[:5]
        self.info["missing_metrics"] = [m["name"] for m in spec if m["name"] not in metrics]
        correct = self.failed == 0 and len(self.digests) == 1
        return {"correct": correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                            for m in spec}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "clonerestore" / "__init__.py").is_file():
        print(f"perfbench: no clonerestore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    signal.signal(signal.SIGALRM, _on_deadline)
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        if len(names) == 1:
            signal.alarm(DEADLINE_S)
        run = Run(name, args.seed, work)
        run.info["env"] = environment()
        if args.trace:
            result = run.result(run.per_layer(args.seconds), spec["per_layer"])
        else:
            result = run.result(run.end_to_end(args.seconds), spec["end_to_end"])
        signal.alarm(0)
        print(json.dumps(run.info))
        for metric, value in result["metrics"].items():
            print(f"{name}  {metric} = {value['value']:.6g} {value['unit']}")
        results[name] = result
    if len(names) > 1:
        # All workloads: one summary line, metrics keyed <workload>/<metric>.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
