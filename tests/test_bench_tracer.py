"""The benchmark's tracer check, run on the package these tests import.

`perfbench/selftest.py` stops at its first failed check, and its filter-cap
check fails by design, so this runs `check_tracer` on its own: traced and
untraced passes give the same answers, every layer is exercised and the
span chains nest.  `run._import_kernel` is not used: it drops `fuzztop`
from `sys.modules`, so later tests would see a second copy of every class.
"""

import sys
from pathlib import Path

import fuzztop
import fuzztop.cli  # noqa: F401  the cli workload calls fuzztop.cli.main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_check(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    selftest.check_tracer(fuzztop)
    out = capsys.readouterr().out
    for workload in ("census", "batteries", "cli"):
        assert f"ok tracer on {workload}" in out
    assert sys.modules["fuzztop"] is fuzztop
