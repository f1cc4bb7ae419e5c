"""speclab benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload decode_desk --seed 1 --seconds 30 --trace 0

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, measured with nothing wrapped. With `--trace 1`, every
other pass runs with spans recorded around the calls into each layer
(see spans.py), and the line carries the per-layer metrics instead. The
line before it records the environment and the sample count behind every
figure. See README.md for why each workload exists.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the machine has two cores and
# a single closed-loop client.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from speclab.latency import build_latency_profile  # noqa: E402
from speclab.metrics import (DecodeStats, acceptance_rate, block_efficiency,  # noqa: E402
                             expected_speedup, mbsu)

from spans import Tracer, block_phases, pct, with_children  # noqa: E402
from workloads import MODES, WORKLOADS, Checks  # noqa: E402

MIN_PASSES = 3          # every piece is repeated at least this often
TRACED_MIN_PASSES = 4   # two untraced and two traced passes
LATENCY_REPS = 20


def exact_alpha(blocks) -> float:
    """Mean over non-empty blocks of accepted / proposed, the paper's AR."""
    ratios = [b.accepted / b.proposed for b in blocks if b.proposed]
    return sum(ratios) / len(ratios)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: {f: deps.get(k, {}).get(f)
                     for f in ("name", "version", "openblas configuration")}
                 for k in ("blas", "lapack")},
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def fastest(passes, prefix: str = "") -> float:
    """Sum, over the pieces whose key starts with `prefix`, of each piece's
    fastest repetition in seconds."""
    keys = [k for k in passes[0].times if k.startswith(prefix)]
    return sum(min(p.times[k] for p in passes) for k in keys)


def new_tokens(res, prefix: str) -> int:
    return sum(len(out) for k, out in res.outputs.items() if k.startswith(prefix))


def end_to_end(passes, setup_s: list[float]) -> dict:
    first, n = passes[0], len(passes)
    values = {
        "setup_s": (min(setup_s), "s", len(setup_s)),
        "pass_s": (fastest(passes), "s", n),
        "ar_us_per_token": (1e6 * fastest(passes, "ar/") / new_tokens(first, "ar/"), "us", n),
    }
    for mode in MODES:
        values[f"sd_{mode}_tokens_per_s"] = (
            new_tokens(first, f"sd/{mode}/") / fastest(passes, f"sd/{mode}/"), "tok/s", n)
    for mode in MODES:
        blocks = first.blocks[mode]
        values[f"alpha_{mode}"] = (exact_alpha(blocks), "ratio", len(blocks))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["peak_rss_mb"] = (rss, "MB", 1)
    return values


def per_layer(tr: Tracer, passes, traced, ds) -> dict:
    ms, us = 1e3, 1e6
    on = [p for p, t in zip(passes, traced) if t]
    off = [p for p, t in zip(passes, traced) if not t]
    sd_tokens = len(on) * new_tokens(passes[0], "sd/")
    fwd = tr.select("specdec.forward")
    draft_steps = [s.dur * us for s in fwd if s.info[0] == "draft" and s.info[1] == 1]
    verify = [s.dur * us for s in fwd if s.info[0] == "target"]
    ar_steps = [s.dur * us for s in tr.select("sampling.forward") if s.info[1] == 1]
    kv = [s.info[2] for s in fwd + tr.select("sampling.forward")]
    dist = [s.dur * us for s in tr.select("specdec.distribution")]
    draws = [s.dur * us for s in tr.select("specdec.sample_from_dist")]
    propose, verify_phase, accept = block_phases(tr)

    def per(x, n):
        return x / n if n else 0.0

    def dur(name, scale=ms, phase="pass"):
        return [s.dur * scale for s in tr.select(name, phase)]

    v: dict[str, tuple[float, str, int]] = {
        "model.draft_step_us_p50": (pct(draft_steps, 50), "us", len(draft_steps)),
        "model.draft_step_us_p95": (pct(draft_steps, 95), "us", len(draft_steps)),
        "model.target_step_us_p50": (pct(ar_steps, 50), "us", len(ar_steps)),
        "model.target_step_us_p95": (pct(ar_steps, 95), "us", len(ar_steps)),
        "model.target_verify_us": (pct(verify, 50), "us", len(verify)),
        "model.forward_calls_per_token": (per(len(fwd), sd_tokens), "count", sd_tokens),
        "model.kv_len_mean": (float(np.mean(kv)) if kv else 0.0, "count", len(kv)),
        "model.forward_train_ms": (pct(dur("training.forward_train"), 50), "ms",
                                   len(dur("training.forward_train"))),
        "model.backward_ms": (pct(dur("training.backward"), 50), "ms",
                              len(dur("training.backward"))),
        "sampling.distribution_us": (pct(dist, 50), "us", len(dist)),
        "sampling.sample_us": (pct(draws, 50), "us", len(draws)),
        "sampling.calls_per_token": (per(len(dist) + len(draws), sd_tokens), "count",
                                     sd_tokens),
        "specdec.propose_us": (pct(propose, 50) * us, "us", len(propose)),
        "specdec.verify_us": (pct(verify_phase, 50) * us, "us", len(verify_phase)),
        "specdec.accept_us": (pct(accept, 50) * us, "us", len(accept)),
    }
    all_blocks = passes[0].blocks["greedy"] + passes[0].blocks["sample"]
    proposed = sum(b.proposed for b in all_blocks)
    v["specdec.tokens_per_block"] = (
        per(sum(b.emitted for b in all_blocks), len(all_blocks)), "count", len(all_blocks))
    v["specdec.draft_waste_share"] = (
        per(proposed - sum(b.accepted for b in all_blocks), proposed), "ratio", proposed)

    n = LATENCY_REPS
    profile, runs = build_latency_profile(ds.draft, ds.target, ds.gamma, warmup=3, reps=n)
    v["latency.l_draft_us"] = (profile.l_draft * us, "us", n)
    v["latency.l_target_1_us"] = (profile.l_target_1 * us, "us", n)
    v["latency.l_target_gamma_us"] = (profile.l_target_gamma * us, "us", n)
    v["latency.flagged"] = (sum(r.flagged for r in runs.values()), "count", len(runs))
    v["metrics.c"] = (profile.l_draft / profile.l_target_1, "ratio", n)
    v["metrics.c_hat"] = (ds.c_hat, "ratio", 1)
    for mode in MODES:
        blocks = passes[0].blocks[mode]
        alpha = acceptance_rate(DecodeStats(gamma=ds.gamma,
                                            blocks=[b.accepted for b in blocks]))
        tau = block_efficiency(alpha, ds.gamma)
        v[f"metrics.mbsu_{mode}"] = (mbsu(tau, ds.c_hat, ds.gamma), "ratio", len(blocks))
        v[f"metrics.predicted_speedup_{mode}"] = (
            expected_speedup(profile, ds.gamma, tau), "ratio", len(blocks))
        v[f"metrics.measured_speedup_{mode}"] = (
            fastest(off, f"ar/{mode}/") / fastest(off, f"sd/{mode}/"), "ratio", len(off))
        v[f"metrics.alpha_reported_{mode}"] = (alpha, "ratio", len(blocks))

    fwd_train, adam = tr.select("training.forward_train"), tr.select("training.adamw")
    steps = [(a.t1 - f.t0) * ms for f, a in zip(fwd_train, adam)]
    batch_tokens = sum(s.info for s in tr.select("data.batch") if s.info is not None)
    train_s = sum(p.times.get("train", 0.0) for p in on)
    writes = with_children(tr, "distill.write")  # children are the extract spans
    v.update({
        "training.step_ms": (pct(steps, 50), "ms", len(steps)),
        "training.adamw_ms": (pct(dur("training.adamw"), 50), "ms", len(adam)),
        "training.tokens_per_s": (per(batch_tokens, train_s), "tok/s", len(on)),
        "losses.combined_loss_ms": (pct(dur("training.combined_loss"), 50), "ms",
                                    len(dur("training.combined_loss"))),
        "data.batch_ms": (pct(dur("data.batch"), 50), "ms", len(dur("data.batch"))),
        "distill.extract_ms": (pct([c * ms for _, c in writes], 50), "ms", len(writes)),
        "distill.write_ms": (pct([(d - c) * ms for d, c in writes], 50), "ms", len(writes)),
        "distill.read_ms": (pct(dur("distill.read"), 50), "ms", len(dur("distill.read"))),
        "distill.sfkd_bytes": (max((p.sfkd_bytes for p in passes), default=0), "bytes",
                               len(passes)),
        "checkpoint.load_ms": (pct(dur("checkpoint.load", phase=None), 50), "ms",
                               len(dur("checkpoint.load", phase=None))),
        "checkpoint.save_ms": (pct(dur("checkpoint.save"), 50), "ms",
                               len(dur("checkpoint.save"))),
    })
    v["trace.overhead_pct"] = (100.0 * (fastest(on) / fastest(off) - 1.0), "%", len(passes))
    return v


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    wl = WORKLOADS[workload]()
    checks = Checks()
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    tracer = Tracer() if trace else None
    setup_s, passes, traced = [], [], []
    try:
        # Each pass starts from its own set-up, so set-ups are spread over
        # the run like the passes are.
        start = time.perf_counter()
        min_passes = TRACED_MIN_PASSES if trace else MIN_PASSES
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            on = tracer is not None and len(passes) % 2 == 1
            if on:
                tracer.install()
                tracer.phase = "setup"
            try:
                t0 = time.perf_counter()
                ctx = wl.setup(work, seed, checks)
                setup_s.append(time.perf_counter() - t0)
                if on:
                    tracer.target, tracer.phase = wl.decode_set(ctx).target, "pass"
                res = wl.run_pass(ctx, seed, len(passes), checks)
            finally:
                if on:
                    tracer.uninstall()
            if passes:
                checks.check(res.outputs == passes[0].outputs,
                             f"pass {len(passes)} decoded differently from pass 0")
            passes.append(res)
            traced.append(on)

        if tracer:
            values = per_layer(tracer, passes, traced, wl.decode_set(ctx))
        else:
            values = end_to_end(passes, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": val, "unit": unit} for k, (val, unit, _) in values.items()},
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(passes), "samples": {k: n for k, (_, _, n) in values.items()},
        "pieces": len(passes[0].times), "failures": checks.notes,
        "environment": environment(),
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
