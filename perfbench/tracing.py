"""The traced run: per-layer metrics from spans around calls into capsnet.

Spans are opened by wrappers that this module installs over the layers'
public entry points for the length of one traced step, and removes again;
nothing in the package changes.  Each span records its name, start, end,
parent span and step id, and all spans stay in memory until the run ends.

Forward time per layer is span time.  Backward time per layer comes from
replaying each captured call on its own inputs under a fresh tape and
timing ``tape.gradient`` against a fixed cotangent.  The replay's loss is
``sum(output * cotangent)``, so its time includes the backward of that one
multiply and sum.  Replayed outputs must equal the traced step's outputs
bit for bit, so the replay measures the same program.
"""

from __future__ import annotations

import copy
import dataclasses
import statistics
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

import harness
from capsnet import GradientTape, Tensor, backbone, ops
from capsnet import model as model_module
from capsnet.gradcheck import model_check
from capsnet.ops import RunningStats

# Layers with fwd_ms and bwd_ms per-layer metrics; the ops in a workload's
# layer_calls also report calls.
LAYERS = ("ops.conv2d_1x1", "ops.conv2d_3x3", "ops.batch_norm",
          "backbone.stem", "backbone.stage1", "backbone.stage2", "backbone.stage3",
          "model.primary", "routing.squash", "routing.predictions", "routing.route",
          "attention.se_block", "attention.capsules")
# Spans the benchmark's own step opens around calls it makes itself.
STEP_PARTS = {"training.forward_ms": "training.forward", "training.loss_ms": "training.loss",
              "training.sgd_step_ms": "training.sgd_step",
              "tensor.backward_ms": "tensor.backward", "data.batch_ms": "data.batch"}


class Tracer:
    """Spans kept in memory, plus the calls captured for replay."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.step = None
        self.capture = False
        self.calls: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "step": self.step,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def export(self) -> list[dict]:
        """Spans with times in ms from the tracer's creation."""
        out = []
        for sp in self.spans:
            row = {"name": sp["name"], "step": sp["step"], "parent": sp["parent"],
                   "start_ms": (sp["start"] - self.t0) * 1e3,
                   "end_ms": (sp["end"] - self.t0) * 1e3}
            if "bwd" in sp:
                row["bwd_ms"] = sp["bwd"] * 1e3
            out.append(row)
        return out


def _conv_name(args, kwargs) -> str:
    w = kwargs["w"] if "w" in kwargs else args[1]
    return "ops.conv2d_{}x{}".format(*w.shape[:2])


def _layer_name(args, kwargs) -> str:
    return "backbone." + args[0].prefix  # backbone.stem, backbone.stage2.block3


# (owner, attribute, span name or a function of the call's arguments).  The
# owner is the namespace the caller looks the name up in.
HOOKS = (
    (ops, "conv2d", _conv_name),
    (ops, "batch_norm", "ops.batch_norm"),
    (backbone, "se_block", "attention.se_block"),
    (backbone.Stem, "__call__", _layer_name),
    (backbone.Bottleneck, "__call__", _layer_name),
    (model_module, "squash", "routing.squash"),
    (model_module, "capsule_predictions", "routing.predictions"),
    (model_module, "route", "routing.route"),
    (model_module, "attention_capsules", "attention.capsules"),
)


def _wrap(tracer: Tracer, fn, name):
    def traced(*args, **kwargs):
        label = name if isinstance(name, str) else name(args, kwargs)
        with tracer.span(label) as record:
            out = fn(*args, **kwargs)
        if tracer.capture:
            # sgd_step later swaps new tensors into the params dict: keep
            # the entries this call read.
            args = tuple(dict(a) if isinstance(a, dict) else a for a in args)
            tracer.calls.append((record, fn, args, kwargs, out))
        return out
    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Install the span wrappers; restore the originals on exit."""
    originals = []
    try:
        for owner, attr, name in HOOKS:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def _tensors(out) -> list:
    if isinstance(out, Tensor):
        return [out]
    return [v for v in (getattr(out, f.name) for f in dataclasses.fields(out))
            if isinstance(v, Tensor)]


def replay(fn, args, kwargs, out) -> tuple[float, bool]:
    """Backward seconds of one captured call, and whether the replayed
    outputs equal the captured ones bit for bit."""
    prefix = getattr(args[0], "prefix", None) if args else None
    leaves = []

    def fresh(v):
        if isinstance(v, Tensor):
            t = Tensor(v.data, requires_grad=v.requires_grad)
            if t.requires_grad:
                leaves.append(t)
            return t
        if isinstance(v, RunningStats):
            return copy.deepcopy(v)  # a training-mode replay updates its stats
        if isinstance(v, dict):  # a layer's params or stats: keep its own entries
            return {k: fresh(x) for k, x in v.items()
                    if prefix is None or k.startswith(prefix + ".")}
        return v

    args2 = [fresh(a) for a in args]
    kwargs2 = {k: fresh(v) for k, v in kwargs.items()}
    rng = np.random.default_rng(0)
    with GradientTape() as tape:
        new = _tensors(fn(*args2, **kwargs2))
        terms = [ops.reduce_sum(ops.multiply(t, Tensor(
                     rng.standard_normal(t.shape).astype(t.dtype))))
                 for t in new if t.requires_grad]
        loss = terms[0]
        for term in terms[1:]:
            loss = ops.add(loss, term)
    t0 = time.perf_counter()
    tape.gradient(loss, leaves)
    seconds = time.perf_counter() - t0
    same = all(a.dtype == b.dtype and np.array_equal(a.data, b.data)
               for a, b in zip(_tensors(out), new))
    return seconds, same


def replay_captured(tracer: Tracer) -> tuple[bool, None]:
    same = True
    for record, fn, args, kwargs, out in tracer.calls:
        record["bwd"], ok = replay(fn, args, kwargs, out)
        same = same and ok
    tracer.calls = []
    return same, None


def _duration(sp) -> float:
    return sp["end"] - sp["start"]


def _group(name: str) -> str:
    return name.split(".block")[0] if name.startswith("backbone.stage") else name


def step_layers(spans: list[dict], step) -> dict:
    """Forward seconds, replayed backward seconds and call counts per layer
    for one traced step, plus its coverage and wall time.  A layer with no
    span in the step has no entry, so its metrics read as missing."""
    fwd, bwd, calls = {}, {}, {}
    index = {i: sp for i, sp in enumerate(spans) if sp["step"] == step}
    root = forward = None
    for i, sp in index.items():
        if sp["name"] == "step":
            root = i
            continue
        if sp["name"] == "training.forward":
            forward = i
        g = _group(sp["name"])
        fwd[g] = fwd.get(g, 0.0) + _duration(sp)
        bwd[g] = bwd.get(g, 0.0) + sp.get("bwd", 0.0)
        calls[g] = calls.get(g, 0) + 1
    # The primary capsule layer is model.forward's own work outside the
    # named layers: the primary conv and batch norm, reshape and input cast.
    children = [sp for sp in index.values() if sp["parent"] == forward]
    forward_self = _duration(spans[forward]) - sum(_duration(c) for c in children)
    fwd["model.primary"] = forward_self + sum(
        _duration(c) for c in children if c["name"].startswith("ops."))
    bwd["model.primary"] = sum(c.get("bwd", 0.0) for c in children
                               if c["name"].startswith("ops."))
    # Coverage counts the step's own parts and the layers inside the
    # forward pass, but not the forward pass's self time: a layer that
    # loses its span (say, after a rename) lowers it.
    wall = _duration(spans[root])
    parts = sum(_duration(sp) for sp in index.values() if sp["parent"] == root)
    return {"fwd": fwd, "bwd": bwd, "calls": calls, "wall": wall,
            "coverage": (parts - forward_self) / wall}


def check_layers(wl, layers: dict) -> tuple[bool, None]:
    """Every layer ran under its span, each counted op as often as the
    workload's step calls it."""
    calls = layers["calls"]
    return (all(layer in layers["fwd"] for layer in LAYERS)
            and all(calls.get(op) == n for op, n in wl.layer_calls.items())), None


def traced_peak_mb(op) -> float:
    """tracemalloc peak of the allocations ``op`` makes."""
    tracemalloc.start()
    try:
        op()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def traced_run(wl, seed: int, budget) -> harness.RunResult:
    ledger = harness.Ledger()
    probe = harness.HostProbe()
    probe.sample()
    session, generate_times, warm_losses = harness.warm_up(wl, seed, budget, ledger)
    train_s, eval_s = wl.train_share * budget.seconds, wl.eval_share * budget.seconds
    tracer = Tracer()

    # Untraced and traced steps alternate on one train state; after each
    # traced step its captured calls are replayed for backward times.
    untraced, losses, records, traced_steps = [], [], [], []
    pairs = 0
    start = time.perf_counter()
    while pairs < budget.min_traced_pairs or time.perf_counter() - start < train_s:
        t0 = time.perf_counter()
        out = ledger.attempt("train step", lambda: harness.train_step(session))
        if out is not None:
            untraced.append(time.perf_counter() - t0)
            losses.append(out[0])
        tracer.step = pairs
        tracer.capture = True
        with instrumented(tracer), tracer.span("step"):
            out = ledger.attempt("traced train step",
                                 lambda: harness.train_step(session, tracer.span))
        tracer.capture = False
        if out is not None:
            losses.append(out[0])
            records.append(out[1])
            traced_steps.append(pairs)
        ledger.attempt("replayed layer outputs equal the traced step's",
                       lambda: replay_captured(tracer))
        probe.sample()
        pairs += 1
    # Untraced and traced steps share one loss sequence, which must repeat
    # the warm-up's: tracing does not change what the step computes.
    harness.check_repeat(ledger, warm_losses, losses)
    ledger.attempt("traced forward equals untraced forward",
                   lambda: check_traced_forward(session))

    step_peak = traced_peak_mb(
        lambda: ledger.attempt("train step", lambda: harness.train_step(session)))
    eval_peak = traced_peak_mb(
        lambda: ledger.attempt("eval batch", lambda: harness.eval_batch(session)))

    eval_steps = []
    start = time.perf_counter()
    min_eval = 1 if budget.smoke else wl.min_eval
    while len(eval_steps) < min_eval or time.perf_counter() - start < eval_s:
        tracer.step = f"eval{len(eval_steps)}"
        with instrumented(tracer):
            ledger.attempt("traced eval batch",
                           lambda: harness.eval_batch(session, tracer.span))
        eval_steps.append(tracer.step)

    t0 = time.perf_counter()
    rungs = harness.ladder(ledger, include_model=False) or []
    standard_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    model_rung = ledger.attempt("gradcheck model rung", _model_rung)
    model_s = time.perf_counter() - t0
    checked = rungs + ([model_rung] if model_rung else [])
    probe.sample()

    per_step = [step_layers(tracer.spans, s) for s in traced_steps]
    for layers in per_step:
        ledger.attempt("layer spans and call counts of a traced step",
                       lambda: check_layers(wl, layers))

    def med(values):
        return statistics.median(values) if values else None

    def count(values):  # counts repeat exactly; median_low keeps them whole
        return statistics.median_low(values) if values else None

    def spans_ms(step, name):
        return sum(_duration(sp) for sp in tracer.spans
                   if sp["step"] == step and sp["name"] == name) * 1e3

    def per_layer(key, layer, scale=1e3):
        return [p[key][layer] * scale for p in per_step if layer in p[key]]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.fwd_ms"] = med(per_layer("fwd", layer))
        metrics[f"{layer}.bwd_ms"] = med(per_layer("bwd", layer))
    for layer in wl.layer_calls:
        metrics[f"{layer}.calls"] = count(per_layer("calls", layer, 1))
    for metric, span in STEP_PARTS.items():
        metrics[metric] = med(per_layer("fwd", span))
    metrics.update({
        "tensor.tape_records": count(records),
        "ops.batch_norm.eval_fwd_ms": med([spans_ms(s, "ops.batch_norm") for s in eval_steps]),
        "training.eval_forward_ms": med([spans_ms(s, "training.eval_forward")
                                         for s in eval_steps]),
        "data.generate_s": med(generate_times),
        "gradcheck.standard_s": standard_s,
        "gradcheck.model_s": model_s,
        "gradcheck.loss_evals": sum(1 + 2 * r.coords for r in checked),
        "gradcheck.max_rel_err": max((float(r.max_rel_err) for r in checked), default=None),
        "mem.step_peak_mb": step_peak,
        "mem.eval_peak_mb": eval_peak,
        "trace.coverage": med([p["coverage"] for p in per_step]),
        "trace.overhead_frac": (med([p["wall"] for p in per_step]) / med(untraced) - 1.0
                                if untraced else None),
        "host.calib_ms": statistics.fmean(probe.samples),
    })
    diagnostics = {"samples": {"traced_steps": len(per_step), "untraced_steps": len(untraced),
                               "eval_batches": len(eval_steps)},
                   "untraced_step_ms": [t * 1e3 for t in untraced],
                   "host.calib_ms": probe.samples}
    return harness.RunResult(metrics=metrics, ledger=ledger, diagnostics=diagnostics,
                             spans=tracer.export())


def _model_rung():
    result = model_check()
    return result.passed, result


def check_traced_forward(s: harness.Session) -> tuple[bool, None]:
    """The instrumented model.forward gives the untraced outputs and batch
    statistics bit for bit."""
    xb = s.x_train[next(s.train_batches)]
    stats_a, stats_b = copy.deepcopy(s.state.stats), copy.deepcopy(s.state.stats)
    probs_a = s.model.forward(s.state.params, stats_a, xb, training=True).probs.data
    with instrumented(Tracer()):
        probs_b = s.model.forward(s.state.params, stats_b, xb, training=True).probs.data
    same_stats = all(np.array_equal(stats_a[k].mean, stats_b[k].mean)
                     and np.array_equal(stats_a[k].var, stats_b[k].var) for k in stats_a)
    return bool(np.array_equal(probs_a, probs_b) and same_stats), None
