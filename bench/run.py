"""diffcomm benchmark: one workload per run, end to end or traced by layer.

    python3 bench/run.py --workload sim-awgn --seed 0 --seconds 35 --trace 0

Workloads are defined in ``workloads.py``; each runs in this one process
against the package under ``src/`` through its public entry points
(``parse_config``, ``run_simulate``, ``run_train``), repeating a full
driver call (config text to ``results.csv`` on disk) for ``--seconds``
seconds.  Every call's CSV is read back and checked; a call that raises
or fails a check is a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics of one traced call (see ``tracer.py``), the tracing
overhead against untraced calls, and the 1-thread over 2-thread wall
time of sim-mimo.  Human-readable lines come first; the last line of
standard output is the JSON result.  ``--tiny`` shrinks the workload
for the smoke test.

Times are medians over the calls of a run.  A small shared host's speed
swings by a third over seconds to tens of seconds, which moves a run's
median as much.  The simulate workloads are chain-bound, and their calls
track a small chain-like reference kernel (part of this file, not of
the program): right after every call the kernel runs for
``REFERENCE_SHARE`` of the call's time, and the call's wall time is
scaled by ``REFERENCE_S`` over the median kernel time just before and
just after it.  On a host of steady speed that is a constant factor.
The BLAS-bound train workload moves about a quarter as much as the
kernel when the host's speed swings, so its times, and set-up times,
stay raw.  Raw call times are printed for every workload.

Every workload runs its driver calls at ``threads=1``, with BLAS and
OpenMP pools pinned to one thread here and in the set-up probes.  Two
threads on a two-core host add GIL hand-off jitter to every run, so the
thread pool is timed only in the traced run, for ``cli.threads.speedup``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import math  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from workloads import TINY, WORKLOADS, Workload, check, psnr_db, read_csv, recon_mse  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
# Nominal time of one reference kernel run: the unit of scaled times.
REFERENCE_S = 0.015
REFERENCE_STEPS = 400
REFERENCE_SHARE = 0.15
# Bytes one reverse step moves per latent element: read y_t and the
# injected noise, write y_{t-1}, all float64.
CHAIN_BYTES_PER_ELEMENT = 3 * 8


@dataclass
class Call:
    """One driver call: wall time, CSV digest and rows, and what went wrong."""

    wall: float = 0.0
    scaled: float = 0.0  # wall in reference seconds, when a SpeedReference is used
    sha256: str = ""
    rows: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def environment() -> dict:
    def read(path: str) -> str:
        try:
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = read(f"{base}/level"), read(f"{base}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{base}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@dataclass(frozen=True)
class _Vector:
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 1 or not np.all(np.isfinite(data)):
            raise ValueError("reference vector must be finite and one-dimensional")
        data.flags.writeable = False


def reference_kernel() -> float:
    """Seconds taken by a fixed reverse-chain-like loop over a validated
    frozen dataclass, then a few small matrix products."""
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    alphas = 1.0 - np.linspace(1e-4, 0.02, REFERENCE_STEPS)
    alpha_bars = np.cumprod(alphas)
    y = _Vector(rng.standard_normal(256))
    for t in range(REFERENCE_STEPS - 1, 0, -1):
        a, ab = float(alphas[t]), float(alpha_bars[t])
        eps = _Vector(math.sqrt(1.0 - ab) * y.data)
        mu = (y.data - (1.0 - a) / math.sqrt(1.0 - ab) * eps.data) / math.sqrt(a)
        y = _Vector(mu + math.sqrt(1.0 - a) * 0.1 * rng.standard_normal(256))
    w = rng.standard_normal((256, 64)) * 0.01
    for _ in range(REFERENCE_STEPS // 4):
        h = np.maximum(0.0, rng.standard_normal((4, 256)) @ w)
        h = h.T @ h
    return time.perf_counter() - start


class SpeedReference:
    """Times the reference kernel around measured calls."""

    def __init__(self):
        self._last = [reference_kernel()]

    def scale(self, seconds: float) -> float:
        """Reference seconds for a call of ``seconds`` that just ended."""
        before = self._last
        until = time.perf_counter() + REFERENCE_SHARE * seconds
        self._last = [reference_kernel()]
        while time.perf_counter() < until:
            self._last.append(reference_kernel())
        return seconds * REFERENCE_S / statistics.median(before + self._last)


def driver_call(cli, workload: Workload, cfg_text: str, out_dir: str, threads: int) -> Call:
    """Config text to results.csv on disk, then read back and checked."""
    start = time.perf_counter()
    try:
        cfg = cli.parse_config(cfg_text)
        if workload.kind == "train":
            cli.run_train(cfg, out_dir=out_dir)
        else:
            cli.run_simulate(cfg, out_dir=out_dir, threads=threads)
    except Exception as exc:  # the program failed this operation; record and go on
        return Call(wall=time.perf_counter() - start, problems=[f"{type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - start
    path = os.path.join(out_dir, "results.csv")
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    rows = read_csv(path)
    return Call(wall=wall, sha256=digest, rows=rows, problems=check(workload, rows))


def repeat(cli, workload, cfg_text, out_dir, threads, until, reference, speed=None):
    """Driver calls until the clock passes ``until`` (at least one).  Each
    CSV must match ``reference`` (the first call's, if None) byte for byte."""
    calls = []
    while not calls or time.perf_counter() < until:
        call = driver_call(cli, workload, cfg_text, out_dir, threads)
        call.scaled = speed.scale(call.wall) if speed else call.wall
        if not call.problems:
            reference = reference or call
            if call.sha256 != reference.sha256:
                call.problems.append(
                    f"results.csv {call.sha256[:12]} differs from {reference.sha256[:12]}")
        calls.append(call)
    return calls


def good(calls: list[Call]) -> list[Call]:
    return [c for c in calls if not c.problems]


def setup_seconds(cfg_text: str) -> list[float]:
    """Set-up times of fresh probe processes."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), cfg_text],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def spread_text(values: list[float]) -> str:
    return (f"{statistics.median(values):.4f}   median of {len(values)} "
            f"(min {min(values):.4f}, max {max(values):.4f})")


def end_to_end(cli, workload, seed, seconds, out_dir):
    cfg_text = json.dumps(workload.config(seed))
    setup = setup_seconds(cfg_text)
    speed = SpeedReference() if workload.kind == "simulate" else None
    calls = repeat(cli, workload, cfg_text, out_dir, 1, time.perf_counter() + seconds, None, speed)
    ok = good(calls)
    walls = [c.wall for c in (ok or calls)]
    wall = statistics.median(c.scaled for c in (ok or calls))
    psnr = psnr_db(workload, ok[0].rows) if ok else float("nan")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (workload.items_per_call / wall if ok else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "recon_mse": (recon_mse(workload, ok[0].rows) if ok else 0.0, "1"),
    }
    item = "train_steps_per_s" if workload.kind == "train" else "trials_per_s"
    failed = len(calls) - len(ok)
    lines = [
        f"setup_s            {spread_text(setup)} fresh processes, s",
        f"wall_s             {wall:.4f} s   " + ("reference-scaled" if speed else "raw")
        + f"; raw {spread_text(walls)} driver calls",
        f"{item:<18} {metrics['items_per_s'][0]:.4f} 1/s   "
        f"{workload.items_per_call} per call / wall_s",
        f"peak_rss_mb        {metrics['peak_rss_mb'][0]:.1f} MB",
        f"psnr_db            {psnr:.4f} dB    "
        + ("final holdout eval_psnr" if workload.kind == "train" else "mean of the cells' psnr_db"),
        f"recon_mse          {metrics['recon_mse'][0]:.6f} 1     "
        + ("10^(-psnr_db/10)" if workload.kind == "train" else "mean of the cells' mse"),
        f"error_rate         {failed / len(calls):.4f}       {failed} of {len(calls)} calls failed",
        f"results_sha256     {ok[0].sha256 if ok else 'n/a'}",
    ]
    return metrics, calls, lines


def traced(cli, workload, seed, seconds, out_dir, size):
    cfg_text = json.dumps(workload.config(seed))
    start = time.perf_counter()
    plain = repeat(cli, workload, cfg_text, out_dir, 1, start + seconds / 3.0, None)
    reference = (good(plain) or [None])[0]

    tr = tracer.Tracer()
    with tracer.patched(tr):
        call = driver_call(cli, workload, cfg_text, out_dir, 1)
    if reference is not None and not call.problems and call.sha256 != reference.sha256:
        call.problems.append("traced results.csv differs from the untraced one")
    layers = tracer.layer_metrics(tr.spans())

    steps = layers["diffusion.reverse_step"]["calls"]
    if workload.name == "sim-awgn" and call.rows:
        expected = sum(int(r["trials"]) * int(r["step_u"]) for r in call.rows)
        if steps != expected:
            call.problems.append(f"reverse_step calls {steps} != trials x sum(step_u) = {expected}")
        print(f"count check: reverse_step calls {steps}, trials x sum(step_u) {expected}")

    # 1-thread over 2-thread wall time of sim-mimo, untraced, alternating.
    mimo = replace(WORKLOADS["sim-mimo"], **size.get("sim-mimo", {}))
    mimo_text = json.dumps(mimo.config(seed))
    mimo_dir = os.path.join(out_dir, "threads")
    by_threads = {1: [], 2: []}
    until = start + seconds
    while not by_threads[2] or time.perf_counter() < until:
        for threads in (1, 2):
            ref = (good(by_threads[1]) or [None])[0]
            by_threads[threads] += repeat(cli, mimo, mimo_text, mimo_dir, threads, 0.0, ref)

    plain_wall = statistics.median(c.wall for c in plain)
    speedup = (statistics.median(c.wall for c in by_threads[1])
               / statistics.median(c.wall for c in by_threads[2]))
    trials = workload.items_per_call if workload.kind == "simulate" else 0
    chain_busy = layers["diffusion.denoise_from_step"]["busy_s"]
    chain_bytes = CHAIN_BYTES_PER_ELEMENT * (workload.latent_n // max(workload.streams, 1)) * steps

    metrics = {}
    for name, layer in layers.items():
        metrics[f"{name}.calls"] = (layer["calls"], "count")
        metrics[f"{name}.self_s"] = (layer["self_s"], "s")
        metrics[f"{name}.errors"] = (layer["errors"], "count")
    metrics["diffusion.steps_per_trial"] = (steps / trials if trials else 0.0, "count")
    metrics["diffusion.chain.computed_GBps"] = (
        chain_bytes / chain_busy / 1e9 if chain_busy > 0 else 0.0, "GB/s")
    metrics["cli.threads.speedup"] = (speedup, "ratio")
    metrics["trace.overhead_frac"] = (call.wall / plain_wall - 1.0, "ratio")
    calls = plain + [call] + by_threads[1] + by_threads[2]
    lines = [f"{name:<40} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"traced call {call.wall:.4f} s, untraced {spread_text([c.wall for c in plain])}; "
                 f"sim-mimo {len(by_threads[1])}+{len(by_threads[2])} calls at 1 and 2 threads "
                 "(raw seconds)")
    lines.append(f"results_sha256     {call.sha256 or 'n/a'}")
    return metrics, calls, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "diffcomm" / "__init__.py").is_file():
        print(f"no diffcomm package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import diffcomm.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"diffcomm imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    size = TINY if args.tiny else {}
    workload = replace(WORKLOADS[args.workload], **size.get(args.workload, {}))
    out_dir = ROOT / ".bench_run" / (workload.name + ("-tiny" if args.tiny else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    env = environment()
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
          f"{workload.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, calls, lines = traced(cli, workload, args.seed, args.seconds, str(out_dir), size)
    else:
        metrics, calls, lines = end_to_end(cli, workload, args.seed, args.seconds, str(out_dir))
    for line in lines:
        print(line)
    for i, call in enumerate(calls):
        for problem in call.problems:
            print(f"call {i} failed: {problem}")
    failed = len(calls) - len(good(calls))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
