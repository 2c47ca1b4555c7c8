"""Benchmark of the mteq solve, price-sweep and Monte Carlo paths.

    python3 perfbench/run.py --workload grid6_solve --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One process sets up the workload's inputs several times (reporting the
median), then runs ops, each one ``mteq`` CLI command through
``mteq.cli.run``, until ``--seconds`` have passed (at least one op).  Every
op is checked outside the timed region; an op that fails its check or
exits nonzero counts as failed and its time is not used.

``--trace 0`` prints the end-to-end metrics: medians over the run's ops and
set-ups of times taken at reference host speed (see ``hostspeed``).
``--trace 1`` prints the per-layer metrics: it first runs one op untraced,
then traced ops, and also reports the tracing overhead between the two.
The last line of stdout is one JSON object; a readable table goes to
stderr.  Answer records go to ``perfbench/out/answers/`` and spans to
``perfbench/out/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set up at least SETUPS times and, for quick set-ups, until SETUP_MIN_S have
# passed (at most SETUPS_MAX times), so that the median is not one file write.
SETUPS, SETUPS_MAX, SETUP_MIN_S = 3, 25, 1.0
_STARTED = time.monotonic()
# Do not start another op that could end past this many seconds of process time.
OP_BUDGET_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "cpu_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_program() -> None:
    """Put the checkout's ``src/`` first on the import path and pin numeric
    libraries to one thread, before anything imports numpy."""
    src = ROOT / "src"
    if not (src / "mteq" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mteq package under {src}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import mteq
    if Path(mteq.__file__).resolve().parent != (src / "mteq").resolve():
        raise ImportError(f"mteq was imported from {mteq.__file__}, not from {src}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One benchmark run of one workload in one process."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, out_root: Path = OUT):
        from tracing import Tracer

        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tracer = Tracer() if trace else None
        self.out_root = out_root
        self.work = out_root / "work" / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.setup_times: list[float] = []  # at reference speed when untraced
        self.setup_scopes: list[int] = []
        self.ops: list[dict] = []
        self.state: dict = {}

    def _recording(self, label: str):
        return self.tracer.recording(label) if self.tracer else nullcontext()

    def _sampling(self):
        """Host speed is sampled in untraced runs only: a sample would add
        its time to the self time of whichever traced span it lands in."""
        from hostspeed import Sampler

        return nullcontext() if self.tracer else Sampler()

    def setup(self) -> None:
        k = 0
        while k < SETUPS or (sum(self.setup_times) < SETUP_MIN_S and k < SETUPS_MAX):
            work = self.work / f"setup{k}"
            work.mkdir(parents=True)
            with self._recording(f"setup{k}") as sid, self._sampling() as sampler:
                t0 = time.perf_counter()
                self.state = self.workload.setup(work, self.seed)
                elapsed = time.perf_counter() - t0
            self.setup_scopes.append(sid)
            self.setup_times.append(sampler.at_reference(elapsed) if sampler else elapsed)
            k += 1

    def op(self, traced: bool) -> dict:
        from workloads import cli_run

        out = self.work / f"op{len(self.ops)}"
        if out.exists():
            raise RuntimeError(f"op output directory {out} is not fresh")
        argv = self.workload.argv(self.state, out)
        rec = {"traced": traced, "errors": []}
        with self._recording(out.name) if traced else nullcontext() as sid, \
                self._sampling() as sampler:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = cli_run(argv)
            except Exception as exc:  # a crashing op is a failed op, not a failed run
                code = None
                rec["errors"].append(f"{type(exc).__name__}: {exc}")
            rec["wall"] = time.perf_counter() - t0
            rec["cpu"] = time.process_time() - c0
        rec["scope"] = sid
        if sampler:
            rec["slowdown"] = sampler.slowdown
            rec["wall_ref"] = sampler.at_reference(rec["wall"])
            rec["cpu_ref"] = sampler.at_reference(rec["cpu"], cpu=True)
        if code is not None and code != 0:
            rec["errors"].append(f"exit code {code}")
        if not rec["errors"]:
            try:
                rec["errors"] = self.workload.check(self.state, out)
                rec["items"] = self.workload.items(self.state, out)
                rec["answers"] = self.workload.answers(self.state, out)
                rec["sha256"] = {f: _sha256(out / f) for f in self.workload.outputs}
            except (OSError, KeyError, ValueError, IndexError) as exc:
                rec["errors"].append(f"unreadable outputs: {type(exc).__name__}: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        self.ops.append(rec)
        return rec

    def measure(self) -> None:
        """Ops until ``seconds`` have passed; a traced run starts with one
        untraced op and then runs at least one traced op."""
        t_start = time.perf_counter()
        if self.tracer:
            self.op(traced=False)
        while True:
            rec = self.op(traced=self.tracer is not None)
            elapsed = time.perf_counter() - t_start
            if elapsed >= self.seconds or _process_age() + 1.5 * rec["wall"] > OP_BUDGET_S:
                break

    def cross_check(self) -> None:
        """Outputs must be byte-identical across the ops of a run, traced or
        not, and traced ops must repeat every count exactly."""
        passed = [r for r in self.ops if not r["errors"]]
        for rec in passed[1:]:
            if rec["sha256"] != passed[0]["sha256"]:
                rec["errors"].append("outputs differ from the run's first op")
        if not self.tracer:
            return
        totals = self.tracer.totals()
        traced = [r for r in self.ops if r["traced"]]
        for rec in traced:
            rec["totals"] = totals[rec["scope"]]
            rec["errors"] += self.workload.check_trace(rec["totals"])
        counts = lambda t: {k: v for k, v in t.items() if not k.endswith(".s")}
        for rec in traced[1:]:
            if counts(rec["totals"]) != counts(traced[0]["totals"]):
                rec["errors"].append("traced counts differ from the run's first traced op")
        self.setup_totals = [totals[sid] for sid in self.setup_scopes]

    def metrics(self) -> dict:
        from tracing import PER_LAYER, layer_metrics

        good = [r for r in self.ops if not r["errors"]]
        if self.tracer is None:
            timed = good or self.ops  # with no passing op the run reports correct=false
            values = {
                "setup_s": statistics.median(self.setup_times),
                "op_s": statistics.median(r["wall_ref"] for r in timed),
                "cpu_s": statistics.median(r["cpu_ref"] for r in timed),
                "throughput_per_s": statistics.median(
                    r.get("items", 0) / r["wall_ref"] for r in timed),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
        else:
            traced = [r for r in self.ops if r["traced"]]
            values = layer_metrics([r["totals"] for r in traced], self.setup_totals)
            values["trace.op_s"] = statistics.median(r["wall"] for r in traced)
            untraced = [r["wall"] for r in self.ops if not r["traced"]]
            values["trace.overhead_frac"] = values["trace.op_s"] / untraced[0] - 1.0
            units = PER_LAYER
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in units.items()}

    def execute(self) -> dict:
        """Set up, measure, check; returns the result object."""
        from answers import write_record

        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.setup()
            self.measure()
            self.cross_check()
            result = {
                "correct": all(not r["errors"] for r in self.ops),
                "attempted": len(self.ops),
                "failed": sum(1 for r in self.ops if r["errors"]),
                "metrics": self.metrics(),
            }
            first = next((r for r in self.ops if not r["errors"]), None)
            if first is not None:
                write_record(self.out_root / "answers"
                             / f"{self.workload.name}_seed{self.seed}_trace{int(bool(self.tracer))}.json",
                             self.workload.name, self.seed, first["answers"], first["sha256"])
            if self.tracer:
                self.tracer.save(self.out_root / "spans" / f"{self.workload.name}_seed{self.seed}.npz")
            return result
        finally:
            shutil.rmtree(self.work, ignore_errors=True)


def _process_age() -> float:
    return time.monotonic() - _STARTED


def _report(name: str, result: dict, ops: list[dict], setup_times: list[float]) -> None:
    print(f"{name}: {result['attempted']} ops, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:g})", file=sys.stderr)
    print(f"  {len(setup_times)} set-ups, s: " + " ".join(f"{t:.4f}" for t in setup_times),
          file=sys.stderr)
    print("  op wall s: " + " ".join(f"{r['wall']:.3f}{'t' if r['traced'] else ''}" for r in ops),
          file=sys.stderr)
    sampled = [r for r in ops if "slowdown" in r]
    if sampled:
        print("  op s at reference speed: " + " ".join(f"{r['wall_ref']:.3f}" for r in sampled),
              file=sys.stderr)
        print("  host slowdown: " + " ".join(f"{r['slowdown']:.2f}" for r in sampled),
              file=sys.stderr)
    for rec in ops:
        for err in rec["errors"]:
            print(f"  FAILED: {err}", file=sys.stderr)
    for key, m in result["metrics"].items():
        print(f"  {key:42s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result = run.execute()
    _report(args.workload, result, run.ops, run.setup_times)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
