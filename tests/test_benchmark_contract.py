"""The names perfbench/ reads from the library, exercised through perfbench itself.

The benchmark's tracer and workloads are imported unchanged from the
checkout, so deleting or reshaping something they use (a traced function,
``scatter._LOCATION_FNS``, ``l1_median(mode=)``, ``VARIANTS``, positional
``ScenarioSpec``) fails here and not only in a benchmark run. The
``boxplot_table`` check runs on one boxplot command, so the depth order,
fences and counts meet the benchmark's own reference on every test run.
The ``simulate_grid`` check runs on the first replicate of every grid
cell, so every variant's distances and intensities meet it too. The
``detect_wide`` check runs on its six detections at p = 100, n = 2000,
where a change to the distance computation moves d2 the most.
"""

import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import rmdshrink as rm
from rmdshrink import depth, primitives, scatter

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench_module("tracing")
workloads = load_perfbench_module("workloads")


def run_or_refusal(op):
    """The output of one operation; a refusal is an output, as in perfbench/run.py."""
    try:
        return op.run()
    except ValueError as exc:
        return exc


def planted_sample(seed=5, n=80, p=4, k=6):
    X = np.random.default_rng(seed).standard_normal((n, p))
    X[:k] += 12.0
    return X


def test_tracer_wraps_the_targets_and_restores_them():
    location_fns = dict(scatter._LOCATION_FNS)
    detect = rm.detect
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rm.detect is not detect
        rm.detect(planted_sample(), "v6", workloads.QUANTILE)
    finally:
        tracer.uninstall()
    assert rm.detect is detect
    assert scatter._LOCATION_FNS.keys() == location_fns.keys()
    assert all(scatter._LOCATION_FNS[k] is fn for k, fn in location_fns.items())
    assert tracer.calls["detector.detect"] == 1
    assert tracer.calls["location.l1_median"] >= 1
    assert tracer.calls["primitives.comedian"] >= 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=1, workdir=str(tmp_path))
    workload.build()
    assert workload.ops


@pytest.mark.parametrize("variant", workloads.VARIANT_IDS)
def test_detection_passes_the_benchmark_check(variant):
    X = planted_sample()
    det = rm.detect(X, variant, workloads.QUANTILE)
    workloads.check_detection(X, variant, det.threshold, det.d2, det.flags,
                              det.eta_location, det.eta_scatter, variant)


def test_detect_wide_passes_the_benchmark_check(tmp_path):
    workload = workloads.DetectWide(seed=1, workdir=str(tmp_path))
    workload.build()
    workload.check({op.key: run_or_refusal(op) for op in workload.ops})


def test_boxplot_passes_the_benchmark_check(tmp_path):
    workload = workloads.BoxplotTable(seed=1, workdir=str(tmp_path))
    workload.build()
    (op,) = workload.ops
    workload.check({op.key: op.run()})


def test_boxplot_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    workload = workloads.BoxplotTable(seed=1, workdir=str(tmp_path))
    workload.build()
    (op,) = workload.ops
    fill = depth._fill
    threads = set()

    def recorded_fill(*args):
        threads.add(threading.current_thread())
        fill(*args)

    monkeypatch.setattr(depth, "_fill", recorded_fill)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(primitives, "_WORKERS", workers)
        threads.clear()
        op.run()
        assert len(threads) == workers
        outputs.append(Path(workload.out).read_bytes())
    assert outputs[0] == outputs[1]


def test_simulate_grid_passes_the_benchmark_check(tmp_path):
    workload = workloads.SimulateGrid(seed=1, workdir=str(tmp_path))
    workload.build()
    first = {}
    for op, spec in zip(workload.ops, workload.specs):
        cell = (spec.family, spec.p, spec.n, spec.alpha, spec.delta, spec.lam, spec.variant)
        first.setdefault(cell, (op, spec))
    workload.ops = [op for op, _ in first.values()]
    workload.specs = [spec for _, spec in first.values()]
    workload.check({i: run_or_refusal(op) for i, op in enumerate(workload.ops)})
