"""Self-tests for the benchmark itself (not the package).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They check the names, units and bounds in ``BENCHMARK.json``, check that
the traced run notices a layer without its span, run every
workload in smoke mode, traced and untraced, and check that a copy of the
benchmark without the package sources fails cleanly.  About a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (tables only; importing run starts nothing)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = run.SPEC


def smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, list[str]]:
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--trace", str(trace), "--smoke"],
                       cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert p.returncode == 0, p.stderr[-2000:]
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def test_metric_names_units_and_bounds():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for table in (run.END_TO_END, run.PER_LAYER):
        assert table
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["paths"] == [HERE.name]


def test_verify_workload_trains_the_ladder_model():
    sys.path.insert(0, str(run.SRC))
    from capsnet import ModelConfig
    from capsnet.gradcheck import toy_model_config
    assert ModelConfig(**run.LADDER_MODEL) == toy_model_config()


def test_trace_check_notices_a_missing_layer_or_call():
    sys.path.insert(0, str(run.SRC))
    import tracing
    wl = run.WORKLOADS["paper_train"]
    layers = {"fwd": dict.fromkeys(tracing.LAYERS, 1.0), "calls": dict(wl.layer_calls)}
    assert tracing.check_layers(wl, layers)[0]
    missing = {**layers, "fwd": {k: v for k, v in layers["fwd"].items()
                                 if k != "backbone.stage2"}}
    assert not tracing.check_layers(wl, missing)[0]
    fewer = {**layers, "calls": {**wl.layer_calls, "ops.conv2d_1x1": 47}}
    assert not tracing.check_layers(wl, fewer)[0]


def test_every_workload_emits_what_it_declares():
    for workload in run.WORKLOADS:
        for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            result, _ = smoke(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace)
            assert result["attempted"] >= 1
            assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, trace, name)


def test_loss_sequence_repeats_across_processes():
    def losses():
        _, lines = smoke("verify_f64", 0, seed=7)
        diag = next(line for line in lines if line.startswith("diag "))
        return json.loads(diag[len("diag "):])["loss_sequence"]
    assert losses() == losses()


def test_fails_without_package_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        p = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "verify_f64",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=tmp, capture_output=True, text=True, timeout=180)
        assert p.returncode != 0
        assert '"correct"' not in p.stdout


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)
