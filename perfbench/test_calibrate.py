"""Tests of the reference kernel and the segment-local calibration.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_calibrate.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import pytest

from calibrate import Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))


class FakeHost:
    """A clock that only moves when the kernel or the timed work runs."""

    def __init__(self, kernel_seconds: float, work_seconds: float) -> None:
        self.now = 0.0
        self.kernel_seconds = kernel_seconds
        self.work_seconds = work_seconds

    def clock(self) -> float:
        return self.now

    def kernel(self) -> None:
        self.now += self.kernel_seconds

    def work(self) -> None:
        self.now += self.work_seconds


def calibrated_work(host: FakeHost, nominal_ms: float = 5.0, segments: int = 3):
    calibrator = Calibrator(nominal_ms, kernel=host.kernel, clock=host.clock)
    calibrator.quiesce()
    for _ in range(segments):
        for _ in range(4):
            calibrator.timed("work", host.work)
        calibrator.quiesce()
    return calibrator.calibrated["work"]


def test_kernel_imports_nothing_from_the_program():
    with open(os.path.join(HERE, "calibrate.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "repro" for name in imported)
    probe = (
        "import sys; import calibrate; calibrate.reference_kernel(); "
        "print(any(m == 'repro' or m.startswith('repro.') for m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=HERE, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_nominal_kernel_speed_reads_as_raw_time():
    assert calibrated_work(FakeHost(0.005, 0.002)) == pytest.approx([0.002] * 12)


def test_slowing_kernel_and_work_alike_leaves_calibrated_time_unchanged():
    base = calibrated_work(FakeHost(0.004, 0.003))
    slow = calibrated_work(FakeHost(0.008, 0.006))
    assert slow == pytest.approx(base)


def test_slowing_only_the_work_doubles_calibrated_time():
    base = calibrated_work(FakeHost(0.004, 0.003))
    slow = calibrated_work(FakeHost(0.004, 0.006))
    assert slow == pytest.approx([2 * value for value in base])


def test_each_segment_is_scaled_by_the_kernels_around_it():
    host = FakeHost(0.005, 0.001)
    calibrator = Calibrator(5.0, kernel=host.kernel, repeats=1, clock=host.clock)
    calibrator.quiesce()
    calibrator.timed("work", host.work)
    host.kernel_seconds = 0.015  # the host slows down between the segments
    calibrator.quiesce()
    calibrator.timed("work", host.work)
    calibrator.quiesce()
    assert calibrator.calibrated["work"] == pytest.approx([0.0005, 0.001 / 3])


def test_samples_need_a_kernel_run_before_them():
    with pytest.raises(RuntimeError):
        Calibrator(5.0).record("work", 0.001)
