"""Set-up, the kinds of operation, and the untraced measurement.

An operation is one set-up, one training step, one eval batch or one ladder
rung.  It fails if it raises, gives a non-finite loss or fails a check;
failures are counted, never retried, and a failed operation's time is not
used.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
import scipy

from capsnet import (CapsuleClassifier, GradientTape, ModelConfig, TrainConfig, TrainState,
                     cross_entropy_loss, init_train_state, make_blobs, sgd_step,
                     standard_checks)
from capsnet.training import iter_batches, one_hot

PROB_SUM_TOL = {np.dtype(np.float32): 1e-4, np.dtype(np.float64): 1e-10}


class Ledger:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def attempt(self, what: str, op: Callable[[], tuple[bool, object]]):
        """Run one operation that returns ``(ok, value)``; give back the
        value, or None when the operation raised or its check failed."""
        try:
            ok, value = op()
        except Exception:  # any raise is a counted failure; the run goes on
            self.record(False, f"{what} raised:\n{traceback.format_exc(limit=4)}")
            return None
        return value if self.record(ok, f"{what}: check failed") else None


@dataclass
class RunResult:
    metrics: dict
    ledger: Ledger
    diagnostics: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def environment(thread_vars) -> dict:
    """Interpreter, library and BLAS versions, thread pins and core count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy builds without the dicts mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in thread_vars},
    }


class HostProbe:
    """``host.calib_ms``: a fixed piece of work that does nothing of the
    program's, sampled at the start, between operations and at the end of
    a run, so its time moves only with the host's speed.

    One sample is a pass over 8 MB (memory-bound), five 96x96 matmul+tanh
    rounds (BLAS) and a 5,000-step pure-Python loop: the three kinds of
    work a capsnet step does.  It takes 3 to 4 ms.  It is a diagnostic and
    no metric is scaled by it.
    """

    INTERVAL_S = 0.5  # least time between two samples inside a run

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((96, 96))
        self.big = rng.standard_normal(2_000_000).astype(np.float32)
        self.out = np.empty_like(self.big)
        self.samples: list[float] = []
        self.last = -float("inf")
        self._work()  # touch every page before the first timed sample

    def _work(self) -> None:
        np.multiply(self.big, 1.5, out=self.out)
        np.add(self.out, 0.5, out=self.out)
        m = self.a
        for _ in range(5):
            m = np.tanh(m @ self.a * 0.01)
        acc = 0
        for i in range(5000):
            acc += i * i

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._work()
        self.last = time.perf_counter()
        self.samples.append((self.last - t0) * 1e3)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.sample()


def percentile_ms(times: list[float], q: float):
    return float(np.percentile(np.asarray(times), q)) * 1e3 if times else None


@dataclass
class Session:
    """Data, model and train state for one workload at one seed."""

    model: CapsuleClassifier
    state: TrainState
    names: list
    x_train: np.ndarray
    t_train: np.ndarray
    x_test: np.ndarray
    train_batches: Iterator[np.ndarray]
    eval_batches: Iterator[np.ndarray]
    tape_records: int
    generate_s: float


def _cycle(n: int, size: int, seed=None) -> Iterator[np.ndarray]:
    """Full batches forever: shuffled per epoch when ``seed`` is given."""
    epoch = 0
    while True:
        rng = None if seed is None else np.random.default_rng([seed, epoch])
        yield from iter_batches(n, size, rng, min_size=size)
        epoch += 1


def build(wl, seed: int) -> Session:
    """Generate the inputs from ``seed``, build the model and init params.

    The params come from TrainConfig's fixed default seed: the model gets
    only the generated arrays from the workload seed.
    """
    cfg = ModelConfig(**wl.model)
    h, w, c = cfg.input_shape
    t0 = time.perf_counter()
    x_train, y_train = make_blobs(wl.n_train, num_classes=cfg.num_classes, image_size=h,
                                  channels=c, seed=2 * seed)
    x_test, _ = make_blobs(wl.n_test, num_classes=cfg.num_classes, image_size=h,
                           channels=c, seed=2 * seed + 1)
    generate_s = time.perf_counter() - t0
    model = CapsuleClassifier(cfg)
    state = init_train_state(model, TrainConfig(batch_size=wl.train_batch))
    return Session(
        model=model, state=state, names=list(state.params),
        x_train=x_train, t_train=one_hot(y_train, cfg.num_classes, dtype=model.np_dtype),
        x_test=x_test,
        train_batches=_cycle(wl.n_train, wl.train_batch, seed),
        eval_batches=_cycle(wl.n_test, wl.eval_batch),
        tape_records=wl.tape_records, generate_s=generate_s)


# What a fresh process does before it can build a model: start the
# interpreter and import the package, which imports numpy.
IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import capsnet"


def set_up(wl, seed: int, src) -> tuple[bool, float]:
    """One timed set-up, as a user's process does it: a fresh interpreter
    that imports capsnet (a child process, waited for), then data
    generation, model construction and ``init_params`` here."""
    t0 = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(src)],
                           stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
    build(wl, seed)
    seconds = time.perf_counter() - t0
    return child.returncode == 0, seconds


def _no_span(name):
    return nullcontext()


def train_step(s: Session, span=_no_span) -> tuple[bool, tuple[float, int]]:
    """Forward, loss, backward and sgd_step on the next batch, as
    ``training.train_epoch`` runs them.  ``span(name)`` brackets each part."""
    with span("data.batch"):
        batch = next(s.train_batches)
        xb, tb = s.x_train[batch], s.t_train[batch]
    with GradientTape() as tape:
        with span("training.forward"):
            out = s.model.forward(s.state.params, s.state.stats, xb, training=True)
        with span("training.loss"):
            loss = cross_entropy_loss(out.probs, tb)
    with span("tensor.backward"):
        grads = tape.gradient(loss, [s.state.params[n] for n in s.names])
    with span("training.sgd_step"):
        sgd_step(s.state, dict(zip(s.names, grads)), s.state.config.base_lr)
    value = loss.item()
    return bool(np.isfinite(value)) and len(tape) == s.tape_records, (value, len(tape))


def eval_batch(s: Session, span=_no_span) -> tuple[bool, int]:
    """Eval-mode forward with no tape; each probability row must sum to 1."""
    xb = s.x_test[next(s.eval_batches)]
    with span("training.eval_forward"):
        probs = s.model.forward(s.state.params, s.state.stats, xb, training=False).probs.data
    row_err = np.abs(probs.sum(axis=-1) - 1.0)
    ok = bool(np.all(np.isfinite(probs)) and np.all(row_err <= PROB_SUM_TOL[probs.dtype]))
    return ok, probs.shape[0]


def ladder(ledger: Ledger, **kwargs) -> list:
    """One run of the finite-difference ladder, each rung a counted operation.

    The ladder runs at its own default seed, as ``capsnet gradcheck`` and
    acceptance criterion 3 run it: the model rung misses its tolerance at
    many other seeds (see README.md).
    """
    results = ledger.attempt("gradcheck ladder", lambda: (True, standard_checks(**kwargs)))
    passed = [ledger.record(r.passed, r.line()) for r in results or ()]
    return results if results and all(passed) else None


def interleave(phases: dict, seconds: float, probe: HostProbe) -> dict:
    """Run one operation at a time from the phase furthest behind its share
    of the time, until ``seconds`` have passed and every phase has run its
    minimum count.  Spreading each phase over the whole run lets all of them,
    and the host probe sampled between operations, see the same drift in
    host speed.

    ``phases`` maps a name to ``(share, min_count, op)``; ``op`` returns
    None when the operation failed.  Gives back, per phase, the times and
    values of the operations that succeeded.
    """
    spent = dict.fromkeys(phases, 0.0)
    runs = dict.fromkeys(phases, 0)
    results = {name: ([], []) for name in phases}
    start = time.perf_counter()
    while True:
        in_time = time.perf_counter() - start < seconds
        pending = [name for name, (share, min_count, _) in phases.items()
                   if runs[name] < min_count or in_time]
        if not pending:
            return results
        name = min(pending, key=lambda n: spent[n] / phases[n][0])
        t0 = time.perf_counter()
        value = phases[name][2]()
        dt = time.perf_counter() - t0
        spent[name] += dt
        runs[name] += 1
        if value is not None:
            results[name][0].append(dt)
            results[name][1].append(value)
        probe.maybe_sample()


def warm_up(wl, seed: int, budget, ledger: Ledger):
    """Build a first session and run the warm-up steps on it, then free it
    and build the session to measure.

    Returns the measured session, the data generation times of both
    builds, and the warm-up losses, which the measured session must repeat
    exactly.
    """
    warm = build(wl, seed)
    warm_losses = []
    for i in range(budget.warmup_steps):
        out = ledger.attempt(f"warm-up step {i}", lambda: train_step(warm))
        warm_losses.append(None if out is None else out[0])
    generate_times = [warm.generate_s]
    warm = None
    session = build(wl, seed)
    generate_times.append(session.generate_s)
    return session, generate_times, warm_losses


def check_repeat(ledger: Ledger, warm_losses: list, losses: list) -> None:
    """Criterion 9: the same seed gives the same loss sequence, bit for bit."""
    k = len(warm_losses)
    ledger.record(warm_losses == losses[:k],
                  f"loss sequence did not repeat: {warm_losses} vs {losses[:k]}")


def untraced_run(wl, seed: int, budget, src) -> RunResult:
    ledger = Ledger()
    probe = HostProbe()
    probe.sample()
    session, generate_times, warm_losses = warm_up(wl, seed, budget, ledger)

    smoke = budget.smoke
    min_steps = max(2 if smoke else wl.min_steps, len(warm_losses))
    done = interleave({
        "setup": (wl.setup_share, budget.setup_reps,
                  lambda: ledger.attempt("set-up", lambda: set_up(wl, seed, src))),
        "train": (wl.train_share, min_steps,
                  lambda: ledger.attempt("train step", lambda: train_step(session))),
        "eval": (wl.eval_share, 1 if smoke else wl.min_eval,
                 lambda: ledger.attempt("eval batch", lambda: eval_batch(session))),
        "ladder": (1.0 - wl.setup_share - wl.train_share - wl.eval_share,
                   1 if smoke else wl.min_ladders, lambda: ladder(ledger)),
    }, budget.seconds, probe)
    setup_times = done["setup"][1]
    (step_times, steps), (eval_times, _), (ladder_times, _) = (
        done["train"], done["eval"], done["ladder"])
    losses = [loss for loss, _ in steps]
    check_repeat(ledger, warm_losses, losses)
    window = losses[min_steps // 2:min_steps]
    probe.sample()

    def rate(batch, times):
        return batch * len(times) / sum(times) if times else None

    metrics = {
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "train_img_per_s": rate(wl.train_batch, step_times),
        "train_step_ms.p50": percentile_ms(step_times, 50),
        "train_step_ms.p90": percentile_ms(step_times, 90),
        "eval_img_per_s": rate(wl.eval_batch, eval_times),
        "eval_batch_ms.p50": percentile_ms(eval_times, 50),
        "eval_batch_ms.p90": percentile_ms(eval_times, 90),
        "verify_ladder_s.p50": statistics.median(ladder_times) if ladder_times else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_loss_end": statistics.fmean(window) if len(losses) >= min_steps else None,
        "ok_frac": 1.0 - ledger.failed / max(ledger.attempted, 1),
    }
    diagnostics = {
        "host.calib_ms": {"mean": statistics.fmean(probe.samples), "start": probe.samples[0],
                          "end": probe.samples[-1], "samples": len(probe.samples)},
        "samples": {"setups": len(setup_times), "train_steps": len(step_times),
                    "eval_batches": len(eval_times), "ladders": len(ladder_times)},
        "setup_s": setup_times,
        "data.generate_s": statistics.median(generate_times),
        "loss_sequence": losses[:min_steps],
    }
    return RunResult(metrics=metrics, ledger=ledger, diagnostics=diagnostics)
