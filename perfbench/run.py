"""Benchmark of the setdet detector: one workload per run.

    python3 perfbench/run.py --workload {train,val,predict} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; setdet is imported from its
``src`` directory.  With ``--trace 0`` the run sets up several times,
measures the workload for S seconds with nothing wrapped, sets up several
times more, and reports the end-to-end metrics.  With ``--trace 1`` it sets up once untraced and once
traced, then for S seconds alternates untraced blocks with traced blocks
(the tracer installed for each traced block and removed after it), and
reports the per-layer metrics.  Every operation's output is checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it report the host
and the metrics under their workload-specific names.  A copy of the result
(and, when traced, the spans) is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5    # set-ups before and again after the measured window
MIN_OPS = 2
P90_BLOCK = 100      # consecutive operations per block of a .p90 metric
BLAS_THREADS = "1"
TRACE_PAIRS = 4      # untraced+traced block pairs a traced run aims for

END_TO_END = (
    ("op_ms", "ms"), ("op_ms.p90", "ms"), ("images_per_s", "img/s"),
    ("part_a_ms", "ms"), ("part_a_ms.p90", "ms"),
    ("part_b_ms", "ms"), ("part_b_ms.p90", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "fraction"),
)

# Ten tape ops with the most forward+backward time on train: the top nine,
# and take, which joins conv2d because its backward uses np.add.at.
TOP_OPS = ("add", "conv2d", "dropout", "layer_norm", "matmul", "mul",
           "relu", "reshape", "softmax_lastdim", "take")

SPAN_SECONDS = (
    "detector.forward", "detector.backbone", "detector.input_proj",
    "detector.heads", "detector.postprocess", "posenc.rebuild",
    "transformer.encoder.layers.0", "transformer.encoder.layers.1",
    "transformer.decoder.layers.0", "transformer.decoder.layers.1",
    "layers.attention.self", "layers.attention.cross", "layers.ffn",
    "tensor.backward", "matching.total_loss", "matching.match",
    "matching.hungarian_assign", "matching.batch_hungarian_loss",
    "training.clip_grad_norm", "training.adamw_step", "training.predict_batch",
    "evaluation.evaluate_detections", "evaluation.average_precision",
    "boxes.iou_matrix",
)
SPAN_CALLS = ("posenc.rebuild", "matching.match", "boxes.giou_matrix",
              "evaluation.average_precision", "boxes.iou_matrix")
MODULES = ("bench", "data", "tensor", "layers", "transformer", "posenc",
           "detector", "matching", "boxes", "training", "evaluation")

# The end-to-end metrics under their workload-specific names: (name, unit,
# value from the metrics and the workload).  Printed for reading; the JSON
# line carries the generic names.
NAMED = {
    "train": (("train_step_s", "s", lambda m, w: m["op_ms"] / 1e3),
              ("train_step_s.p90", "s", lambda m, w: m["op_ms.p90"] / 1e3),
              ("train_samples_per_s", "1/s", lambda m, w: m["images_per_s"]),
              ("forward_loss_s", "s", lambda m, w: m["part_a_ms"] / 1e3),
              ("backward_update_s", "s", lambda m, w: m["part_b_ms"] / 1e3)),
    "val": (("val_s", "s", lambda m, w: m["op_ms"] / 1e3),
            ("infer_images_per_s", "1/s", lambda m, w: w.images_per_op * 1e3 / m["part_a_ms"]),
            ("score_s", "s", lambda m, w: m["part_b_ms"] / 1e3)),
    "predict": (("predict64_ms", "ms", lambda m, w: m["part_a_ms"]),
                ("predict64_ms.p90", "ms", lambda m, w: m["part_a_ms.p90"]),
                ("predict120_ms", "ms", lambda m, w: m["part_b_ms"]),
                ("predict120_ms.p90", "ms", lambda m, w: m["part_b_ms.p90"])),
}


def per_layer_units():
    units = {"data.generate_scene.calls": "count/setup",
             "data.generate_scene.s": "s/setup"}
    units.update({f"{name}.s": "s/op" for name in SPAN_SECONDS})
    units.update({f"{name}.calls": "count/op" for name in SPAN_CALLS})
    units.update({"tensor.ops.fwd.calls": "count/op", "tensor.ops.bwd.calls": "count/op"})
    for op in TOP_OPS:
        for direction in ("fwd", "bwd"):
            units[f"tensor.{op}.{direction}.calls"] = "count/op"
            units[f"tensor.{op}.{direction}.s"] = "s/op"
    units.update({"tensor.matmul.gmul": "Gmul/op", "tensor.conv2d.gmul": "Gmul/op",
                  "tensor.gflops_per_op": "GFLOP/op",
                  "tensor.gflops_per_image": "GFLOP/image"})
    units.update({f"self.{m}.s": "s/op" for m in MODULES})
    units["trace.overhead"] = "ratio"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "val", "predict"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(workload, state, reference, seconds, tracer=None, min_ops=MIN_OPS):
    """Run operations from a reset state for ``seconds`` (at least ``min_ops``).

    Returns the seconds of each passing operation, the numbers of attempted
    and failed operations, and the first operation's outputs.
    """
    workload.reset(state)
    times, attempted, failed, first = [], 0, 0, None
    start = perf_counter()
    while attempted < min_ops or perf_counter() - start < seconds:
        k, attempted = attempted, attempted + 1
        try:
            if tracer is not None:
                tracer.begin("op")
            try:
                seconds_k, outputs = workload.op(state, k)
            finally:
                if tracer is not None:
                    tracer.end()
            if k == 0:
                first = outputs
            ok = workload.check(state, reference, k, outputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if ok:
            times.append(seconds_k)
        else:
            failed += 1
            print(f"# {workload.__class__.__name__.lower()} operation {k} failed",
                  file=sys.stderr)
    return times, attempted, failed, first


def interleaved(workload, state, traced_state, reference, tracer, seconds):
    """Alternate an untraced block on ``state`` with a traced block on
    ``traced_state``, each of seconds / (2 * TRACE_PAIRS) and at least one
    operation, until ``seconds`` have passed.  Both blocks of a pair run
    under the same host conditions, so their ratio shows the tracer's cost
    rather than the host's drift.

    Returns the traced-over-untraced ratio of mean operation time of each
    pair, the numbers of attempted and failed operations, the first
    untraced and first traced outputs, and whether every untraced block
    ran with nothing wrapped.
    """
    block = seconds / (2 * TRACE_PAIRS)
    ratios, attempted, failed, firsts, unwrapped = [], 0, 0, [], True
    start = perf_counter()
    while not ratios or perf_counter() - start < seconds:
        means = []
        for traced in (False, True):
            if traced:
                tracer.install()
            else:
                unwrapped = unwrapped and not tracing.wrapped_names()
            try:
                times, n, bad, first = measure(
                    workload, traced_state if traced else state, reference,
                    block, tracer if traced else None, min_ops=1)
            finally:
                if traced:
                    tracer.uninstall()
            attempted, failed = attempted + n, failed + bad
            if len(firsts) < 2:
                firsts.append(first)
            means.append(statistics.fmean(t[0] for t in times) if times else None)
        if None not in means:
            ratios.append(means[1] / means[0])
        elif not ratios and perf_counter() - start >= seconds:
            break
    return ratios, attempted, failed, firsts, unwrapped


def p90(values):
    """The run cut into as many blocks of consecutive operations as give
    each at least P90_BLOCK (so ten lie beyond its 90th percentile), or one
    block when the run is shorter; the median over the blocks of their 90th
    percentiles.  A host slowdown that covers a few blocks moves this much
    less than it moves the whole run's percentile."""
    def percentile(block):
        if len(block) == 1:
            return block[0]
        return statistics.quantiles(block, n=10, method="inclusive")[-1]
    n = max(1, len(values) // P90_BLOCK)
    cuts = [round(i * len(values) / n) for i in range(n + 1)]
    return statistics.median(percentile(values[a:b]) for a, b in zip(cuts, cuts[1:]))


def end_to_end(workload, times, setup_times, attempted, failed):
    metrics = dict.fromkeys(name for name, _ in END_TO_END)
    metrics.update({
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    })
    if times:
        op, part_a, part_b = ([t[i] for t in times] for i in range(3))
        metrics.update({
            "op_ms": 1e3 * statistics.median(op), "op_ms.p90": 1e3 * p90(op),
            "images_per_s": workload.images_per_op / statistics.median(op),
            "part_a_ms": 1e3 * statistics.median(part_a),
            "part_a_ms.p90": 1e3 * p90(part_a),
            "part_b_ms": 1e3 * statistics.median(part_b),
            "part_b_ms.p90": 1e3 * p90(part_b),
        })
    return metrics


def per_layer(tracer, workload, n_ops, ratios):
    def total(kind, name, field):
        return tracer.totals.get((kind, name), (0, 0.0, 0.0))[field]

    def gmul(op, *directions):
        return sum(tracer.multiplies.get(("op", op, d), 0) for d in directions)

    setups = max(1, tracer.roots.get("setup", 0))
    metrics = {"data.generate_scene.calls": total("setup", "data.generate_scene", 0) / setups,
               "data.generate_scene.s": total("setup", "data.generate_scene", 1) / setups}
    for name in SPAN_SECONDS:
        metrics[f"{name}.s"] = total("op", name, 1) / n_ops
    for name in SPAN_CALLS:
        metrics[f"{name}.calls"] = total("op", name, 0) / n_ops
    for direction in ("fwd", "bwd"):
        metrics[f"tensor.ops.{direction}.calls"] = sum(
            rec[0] for (kind, name), rec in tracer.totals.items()
            if kind == "op" and name.startswith("tensor.")
            and name.endswith(f".{direction}")) / n_ops
    for op in TOP_OPS:
        for direction in ("fwd", "bwd"):
            name = f"tensor.{op}.{direction}"
            metrics[f"{name}.calls"] = total("op", name, 0) / n_ops
            metrics[f"{name}.s"] = total("op", name, 1) / n_ops
    metrics["tensor.matmul.gmul"] = gmul("matmul", "fwd", "bwd") / 1e9 / n_ops
    metrics["tensor.conv2d.gmul"] = gmul("conv2d", "fwd", "bwd") / 1e9 / n_ops
    metrics["tensor.gflops_per_op"] = (metrics["tensor.matmul.gmul"]
                                       + metrics["tensor.conv2d.gmul"])
    metrics["tensor.gflops_per_image"] = (
        (gmul("matmul", "fwd") + gmul("conv2d", "fwd"))
        / 1e9 / (n_ops * workload.images_per_op))
    self_time = dict.fromkeys(MODULES, 0.0)
    for (kind, name), rec in tracer.totals.items():
        if kind == "op":
            module = "bench" if name == "op" else name.split(".")[0]
            self_time[module] = self_time.get(module, 0.0) + rec[2]
    for module in MODULES:
        metrics[f"self.{module}.s"] = self_time[module] / n_ops
    metrics["trace.overhead"] = statistics.median(ratios) if ratios else None
    return metrics


def host(args, numpy_version):
    return {"nproc": len(os.sched_getaffinity(0)),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": numpy_version, "python": platform.python_version(),
            "machine": platform.machine(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    args = parse_args(argv)
    # OpenBLAS reads its thread count once, when numpy is first imported.
    # One thread: a second one spin-waits between calls and keeps every core
    # of a 2-core host busy, so whatever else wakes on the host stalls the
    # benchmark; the matrices here are too small for it to gain much.
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    try:
        import setdet
    except ImportError as exc:
        print(f"perfbench: cannot import setdet from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(setdet.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: setdet was imported from {setdet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    checks = {}
    if args.trace == 0:
        # Set-ups on both sides of the measured window, so that their median
        # samples the host's speed over the whole run, as the operations do.
        setup_times = []

        def set_up_repeatedly():
            for _ in range(SETUP_REPEATS):
                t0 = perf_counter()
                state = workload.setup()
                setup_times.append(perf_counter() - t0)
            return state

        state = set_up_repeatedly()
        reference = workload.reference(state)
        checks.update(workload.setup_checks(state, reference))
        times, attempted, failed, _ = measure(workload, state, reference, args.seconds)
        checks["nothing was wrapped"] = not tracing.wrapped_names()
        del state    # so the later set-ups start with no state held, as the first did
        set_up_repeatedly()
        metrics = end_to_end(workload, times, setup_times, attempted, failed)
        units = dict(END_TO_END)
    else:
        state = workload.setup()
        reference = workload.reference(state)
        checks.update(workload.setup_checks(state, reference))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.begin("setup")
            try:
                traced_state = workload.setup()
            finally:
                tracer.end()
        finally:
            tracer.uninstall()
        checks.update({f"traced {name}": ok for name, ok in
                       workload.setup_checks(traced_state, reference).items()
                       if ok is not None})
        ratios, attempted, failed, (plain_first, traced_first), unwrapped = \
            interleaved(workload, state, traced_state, reference, tracer, args.seconds)
        checks["nothing was wrapped in the untraced blocks"] = unwrapped
        checks["tracer removed every wrapper"] = not tracing.wrapped_names()
        checks["first traced operation equals the untraced one bitwise"] = (
            plain_first is not None
            and workloads.fingerprint(plain_first) == workloads.fingerprint(traced_first))
        n_ops = tracer.roots.get("op", 0)
        metrics = per_layer(tracer, workload, max(1, n_ops), ratios)
        units = per_layer_units()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz")

    # a check with nothing to compare with (None) is reported as skipped
    correct = failed == 0 and all(ok is not False for ok in checks.values())
    info = host(args, np.__version__)
    print("# host " + json.dumps(info))
    for name, ok in checks.items():
        status = "skipped" if ok is None else "ok" if ok else "FAILED"
        print(f"# check {status}: {name}")
    if args.trace == 0:
        for name, unit, value in NAMED[args.workload]:
            shown = None if metrics["op_ms"] is None else value(metrics, workload)
            print(f"# {name} = {shown} {unit}")
        for name in ("setup_s", "peak_rss_mb"):
            print(f"# {name} = {metrics[name]} {units[name]}")
        print(f"# failed_frac = {failed / attempted} (n={attempted} operations)")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"host": info, "checks": checks, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
