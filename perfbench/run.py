"""capsnet benchmark: closed-loop training, evaluation and gradient-check runs.

Run from the repository root, one process per run:

    python3 perfbench/run.py --workload blobs_train --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
is the separate traced run that gives the per-layer metrics and writes every
span to ``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every correctness check passed, 1 when one failed and 2 when the
package sources are missing.  ``--smoke`` runs each phase once or twice.
``--workload all`` runs every workload, each in its own process, and exits
non-zero if any of them does.

The package is imported from ``src/`` of the checkout the script sits in,
never from an installed copy.  BLAS is pinned to one thread before numpy is
imported.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Workload names and the metric tables: name -> unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Workload:
    """One closed loop: a single caller that waits for each operation.

    Every workload sets up, trains, evaluates and runs the gradient-check
    ladder, so every one reports every end-to-end metric.  The shares split
    ``--seconds`` between the phases, whose operations interleave; the
    ladder phase gets the rest.  Each phase also runs at least its minimum
    count, whatever the time.
    ``train_loss_end`` averages the second half of the first ``min_steps``
    steps, which every run makes, so it depends on the seed alone.
    """

    model: dict          # ModelConfig keyword arguments
    train_batch: int
    eval_batch: int
    n_train: int
    n_test: int
    tape_records: int    # GradientTape records per training step
    layer_calls: dict    # calls per training step of each op the trace counts
    setup_share: float
    train_share: float
    eval_share: float
    min_steps: int
    min_eval: int
    min_ladders: int


BLOBS_MODEL = dict(input_shape=(16, 16, 1), num_classes=4,
                   stem_widths=(8, 16, 16, 32), stage_depths=(1, 1, 1))
# The float64 model that gradcheck.model_check verifies (toy_model_config()).
LADDER_MODEL = dict(input_shape=(8, 8, 3), num_classes=3, stem_widths=(2, 4, 8, 16),
                    stage_depths=(1, 1, 1), dtype="float64")
TOY_CALLS = {"ops.conv2d_1x1": 9, "ops.conv2d_3x3": 8, "ops.batch_norm": 13}

WORKLOADS = {
    # Acceptance-test / --toy config: small activations, so per-op Python
    # work, tape bookkeeping and the composite batch norm dominate.
    "blobs_train": Workload(model=BLOBS_MODEL, train_batch=64, eval_batch=256,
                            n_train=2048, n_test=1024, tape_records=266,
                            layer_calls=TOY_CALLS, setup_share=0.15, train_share=0.45,
                            eval_share=0.3, min_steps=40, min_eval=4, min_ladders=2),
    # Default ModelConfig(): conv2d (col2im backward) and batch norm dominate.
    "paper_train": Workload(model={}, train_batch=8, eval_batch=64,
                            n_train=512, n_test=512, tape_records=1111,
                            layer_calls={"ops.conv2d_1x1": 48, "ops.conv2d_3x3": 21,
                                         "ops.batch_norm": 65},
                            setup_share=0.15, train_share=0.45, eval_share=0.3,
                            min_steps=8, min_eval=3, min_ladders=2),
    # The traffic of `capsnet gradcheck`: thousands of tiny float64 forward
    # passes.  The short float64 training of the model the ladder checks is
    # there to give the train and eval metrics every workload must report.
    "verify_f64": Workload(model=LADDER_MODEL, train_batch=32, eval_batch=256,
                           n_train=1024, n_test=1024, tape_records=266,
                           layer_calls=TOY_CALLS, setup_share=0.15, train_share=0.08,
                           eval_share=0.04, min_steps=30, min_eval=3, min_ladders=1),
}


@dataclass(frozen=True)
class Budget:
    """How long each phase runs: at least the minimum count, and at least
    its share of ``seconds``."""

    seconds: float
    setup_reps: int = 8
    warmup_steps: int = 2
    min_traced_pairs: int = 2
    smoke: bool = False


SMOKE = Budget(seconds=0.0, setup_reps=1, warmup_steps=1, min_traced_pairs=1, smoke=True)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True, help="workload seed: data and batch order")
    p.add_argument("--seconds", type=float, default=35.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run with per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="run each phase once or twice (self-tests)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def run_all(args) -> int:
    flags = ["--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    codes = [subprocess.run([sys.executable, __file__, "--workload", w, *flags]).returncode
             for w in WORKLOADS]
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "capsnet" / "__init__.py").is_file():
        print(f"perfbench: no capsnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import capsnet
    if Path(capsnet.__file__).resolve().parent != (SRC / "capsnet").resolve():
        print(f"perfbench: imported capsnet from {capsnet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness  # imports numpy, after the BLAS pin

    wl = WORKLOADS[args.workload]
    budget = SMOKE if args.smoke else Budget(seconds=args.seconds)
    env = harness.environment(BLAS_THREAD_VARS)
    if args.trace:
        import tracing
        result = tracing.traced_run(wl, args.seed, budget)
        declared = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       "metrics": result.metrics, "spans": result.spans}, fh)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        result = harness.untraced_run(wl, args.seed, budget, SRC)
        declared = END_TO_END

    ledger = result.ledger
    missing = sorted(n for n in declared if result.metrics.get(n) is None)
    extra = sorted(set(result.metrics) - set(declared))
    ledger.record(not missing and not extra,
                  f"metrics missing {missing} or undeclared {extra}")
    for message in ledger.errors:
        print(f"FAILED {message}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print("diag " + json.dumps(result.diagnostics, sort_keys=True))
    for name, unit in declared.items():
        print(f"{name:32s} {result.metrics.get(name)!r:>24} {unit}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": result.metrics.get(name), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
