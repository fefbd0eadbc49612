"""End-to-end and per-layer benchmark of the slicerank command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process runs a closed loop:
each pass of the workload's commands goes through `slicerank.cli.main`,
one command after the other.  A run makes a fixed number of passes,
sized to take about --seconds at the reference speed, so one seed always
attempts the same commands.  Every answer is checked by `oracles`.
Times are scaled to the reference speed by a probe of the machine's
speed that runs every 0.1 s of CPU time (see `SpeedProbe`).  With
--trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 every pass runs twice, untraced and then traced,
and the JSON holds the per-layer metrics.  A run record with every
command is written under .perfbench/.  Exits 1 when an answer is wrong,
2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# One BLAS thread: the matrices here are small, and with two threads a
# process competing for the other core made a laser command three times
# slower on a 2-core container.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 15  # spread over the run, so they see the same machine load
MIN_PASSES = 2         # untraced; a traced run needs one untraced + traced pair
PROBE_INTERVAL_S = 0.1
# Time of one `SpeedProbe` probe at the reference speed: about its mean on
# the 2-core x86-64 container the benchmark was written on.  It only sets
# the scale of the scaled times.
PROBE_REF_S = 0.0005


class CommandTimeout(BaseException):
    """Raised by the interval timer when a command overruns its timeout."""


def metric_units(trace: int) -> dict:
    """{metric: unit} of the end-to-end or per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


# -- machine speed -----------------------------------------------------------------


class SpeedProbe:
    """Samples the machine's speed while the benchmark runs.

    The container switches between a fast and a slow state every few
    seconds, as other tenants load the host, and its speed drifts by up
    to 1.9x over minutes; a command's time follows it.  Every
    PROBE_INTERVAL_S of this process's CPU time a signal handler times a
    fixed loop of dict and Fraction work, the kinds the program does, so
    the probes sample the speed uniformly in time and inside the
    commands themselves.  Over a run, `factor` turns raw seconds into
    seconds at the reference speed.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0   # seconds spent in probes, taken out of command times
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        # The interpreter puts back the default action of SIGPROF, which
        # kills the process, when it shuts down; stop the timer first on
        # every way out.
        atexit.register(self.stop)

    def _probe(self, signum, frame):
        start = time.perf_counter()
        counts = {}
        for i in range(1500):
            key = (i * 7919) % 613
            counts[key] = counts.get(key, 0) + i
        acc = Fraction(0)
        for i in range(1, 40):
            acc += Fraction(i % 17 + 1, i)
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def factor(self) -> float:
        """Reference over measured speed.  Speed is 1 / probe time, and the
        work done in a run is its mean speed times its time, hence the
        harmonic mean; it also discounts a probe stretched by a context
        switch."""
        return PROBE_REF_S / statistics.harmonic_mean(self.samples)


# -- set-up time -----------------------------------------------------------------


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: THREADS for var in THREAD_VARS})
    return env


def time_launch(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_sample() -> float:
    """One fresh interpreter that imports slicerank.cli, as every invocation does."""
    return time_launch("import slicerank.cli")


# -- environment record ------------------------------------------------------------


def environment() -> dict:
    import numpy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except OSError:   # no git on this machine
        git_rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# -- running commands -------------------------------------------------------------


class Runner:
    """Runs commands through cli.main with a timeout and checks their answers."""

    def __init__(self, cli, probe: SpeedProbe):
        self.cli = cli
        self.armed = False
        self.probe = probe
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:
            raise CommandTimeout()

    def run(self, cmd) -> dict:
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, cmd.timeout_s)
        probed = self.probe.spent
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(cmd.argv))
        except CommandTimeout:
            error = "timeout"
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash of the program under test is a failed command
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start - (self.probe.spent - probed)
        stdout = out.getvalue()
        wrong = None
        if error is None and rc == 0:
            try:
                wrong = cmd.check(stdout)
            except Exception as exc:  # output the oracle cannot read is a wrong answer
                wrong = f"unreadable output ({type(exc).__name__}: {exc})"
        elif error is None:
            error = f"exit {rc}: {err.getvalue().strip()[:200]}"
            if rc == 1:  # the program's own code for a golden mismatch or failed check
                wrong = error
        failed = error is not None or wrong is not None
        return {"kind": cmd.kind, "argv": " ".join(Path(a).name for a in cmd.argv),
                "note": cmd.note, "rc": rc, "error": error, "wrong": wrong,
                "failed": failed, "wall_s": elapsed, "limit_s": cmd.limit_s,
                "output": stdout.splitlines()[0][:200] if stdout else "",
                "_stdout": stdout}

    def run_pass(self, cmds) -> list:
        return [self.run(cmd) for cmd in cmds]


def same_output(a: list, b: list) -> bool:
    """Equal exit status, error and output, command by command.

    A command stopped at its timeout in either run is left out: whether
    it reaches the timeout depends on the machine's speed, not on its
    answer.  It still counts as failed.
    """
    return all((x["rc"], x["error"], x["_stdout"]) == (y["rc"], y["error"], y["_stdout"])
               for x, y in zip(a, b) if "timeout" not in (x["error"], y["error"]))


# -- the tracer's own check ----------------------------------------------------------


def self_check(runner, workdir: Path, tracer_mod, workloads) -> dict:
    """Traced calls equal the interpreter's own call counts, and output is unchanged.

    Runs `table cw --qmax 1`, one `bound --mode laser` command on CW_1 and
    `t112 2` (which reaches maximize_1d and symmetric_cube through names
    bound_engines imported) untraced, then traced under the interpreter's
    profile hook.  The seed makes 2 maximize_symmetric calls for the first
    and 2 laser_readiness calls for the second.
    """
    entries, shape = workloads.cw_tensor(1)
    tensor, partition = workdir / "cw1.tensor", workdir / "cw1.partition"
    workloads.write_tensor(tensor, entries, shape)
    workloads.write_parts(partition, workloads.cw_parts(1))
    cmds = [workloads.Command("self-check", ["table", "cw", "--qmax", "1"], lambda out: None),
            workloads.Command("self-check", ["bound", "--mode", "laser", str(tensor),
                                             str(partition)], lambda out: None),
            workloads.Command("self-check", ["t112", "2"], lambda out: None)]
    report = {"ok": True, "commands": []}
    for cmd in cmds:
        plain = runner.run_pass([cmd])
        traced = []
        tracer = tracer_mod.Tracer()
        with tracer:
            reference = tracer_mod.reference_counts(
                tracer, lambda: traced.extend(runner.run_pass([cmd])))
        traced_counts = {}
        for span in tracer.spans:
            traced_counts[span[0]] = traced_counts.get(span[0], 0) + 1
        identical = same_output(plain, traced)
        ok = identical and traced_counts == reference and not plain[0]["failed"]
        report["ok"] = report["ok"] and ok
        report["commands"].append({
            "argv": " ".join(cmd.argv[:3]), "identical": identical,
            "traced_counts": traced_counts, "reference_counts": reference})
    return report


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "slicerank" / "cli.py").is_file():
        print(f"perfbench: no slicerank sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: THREADS for var in THREAD_VARS})
    probe = SpeedProbe()
    setup_sample()   # writes the bytecode cache
    setup_samples = [setup_sample() for _ in range(3)]
    bare = statistics.median(time_launch("pass") for _ in range(3))

    sys.path.insert(0, str(SRC))
    import slicerank.cli as cli

    import tracer as tracer_mod
    import workloads

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: slicerank imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (OUT / "records").mkdir(parents=True, exist_ok=True)

    rng = random.Random(args.seed)
    workload = workloads.WORKLOADS[args.workload]()
    runner = Runner(cli, probe)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "load": "closed loop, one command at a time",
              "environment": environment()}
    tracer = tracer_mod.Tracer() if args.trace else None
    if tracer:
        record["self_check"] = self_check(runner, workdir, tracer_mod, workloads)

    passes = []
    n_passes = max(1 if tracer else MIN_PASSES,
                   round(args.seconds / (workload.pass_s * (2 if tracer else 1))))
    for _ in range(n_passes):
        cmds = workload.make_pass(rng, workdir)
        results = runner.run_pass(cmds)
        entry = {"pass": len(passes), "commands": results}
        if tracer:
            tracer.pass_id = len(passes)
            with tracer:
                traced_results = runner.run_pass(cmds)
            entry["traced_commands"] = traced_results
            entry["identical"] = same_output(results, traced_results)
        passes.append(entry)
        setup_samples += [setup_sample() for _ in range(2)]
    shutil.rmtree(workdir, ignore_errors=True)
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_sample())
    probe.stop()
    factor = probe.factor()
    record["speed"] = {"factor": factor, "probe_ref_s": PROBE_REF_S,
                       "probes": len(probe.samples), "probe_s": probe.samples}
    record["setup"] = {"median_s": statistics.median(setup_samples) * factor,
                       "raw_median_s": statistics.median(setup_samples),
                       "raw_samples_s": setup_samples, "bare_interpreter_median_s": bare}

    runs = [r for p in passes for key in ("commands", "traced_commands") for r in p.get(key, [])]
    attempted = len(runs)
    failed = sum(r["failed"] for r in runs)
    wrong = [r for r in runs if r["wrong"]]
    correct = not wrong and all(p.get("identical", True) for p in passes) \
        and record.get("self_check", {}).get("ok", True)
    for r in runs:
        r["scaled_s"] = r["wall_s"] * factor
        r["charged_s"] = max(r["scaled_s"], r["limit_s"]) if r["failed"] else r["scaled_s"]
    walls = [sum(r["charged_s"] for r in p["commands"]) for p in passes]
    q1, q3 = quartiles(walls)
    record["wall_s"] = {"mean": statistics.fmean(walls), "median": statistics.median(walls),
                        "q1": q1, "q3": q3, "n": len(walls), "per_pass": walls,
                        "raw_mean": statistics.fmean(sum(r["wall_s"] for r in p["commands"])
                                                     for p in passes)}
    record["error_rate"] = failed / attempted

    if tracer:
        plain = [sum(r["wall_s"] for r in p["commands"]) for p in passes]
        traced_walls = [sum(r["wall_s"] for r in p["traced_commands"]) for p in passes]
        metrics = tracer.summary(len(passes))
        metrics["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_walls, plain))
        tracer.dump(OUT / "records" / f"{tag}.spans.json")
    else:
        metrics = {
            "wall_s": record["wall_s"]["mean"],
            "setup_s": record["setup"]["median_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
    units = metric_units(args.trace)
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are measured or "
              f"listed in BENCHMARK.json, not both", file=sys.stderr)
        return 2
    record["metrics"] = metrics
    for p in passes:
        for key in ("commands", "traced_commands"):
            for r in p.get(key, []):
                r.pop("_stdout")
    record["passes"] = passes
    (OUT / "records" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"commands {attempted}  failed {failed}  error_rate {record['error_rate']:.4f}")
    print(f"wall_s per pass: mean {record['wall_s']['mean']:.4f}  median "
          f"{record['wall_s']['median']:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n {len(walls)}  "
          f"(raw mean {record['wall_s']['raw_mean']:.4f}, speed factor {factor:.4f})")
    for r in runs:
        if r["failed"]:
            print(f"failed: {r['argv']}: {r['error'] or r['wrong']}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
