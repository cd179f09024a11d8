"""The benchmark's own answer checks, run once on its seed-101 plans, so a
change that would make `perfbench/run.py` report wrong answers fails here
first."""

import importlib.util

import pytest

from childproc import REPO
from cubemorse.cli import run

WORKLOADS = REPO / "perfbench" / "workloads.py"
SEED = 101


def _workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["boundary_sweep", "escape_ladder"])
def test_inprocess_answers_pass_their_checks(name):
    workload = _workloads_module().INPROCESS[name](REPO, SEED)
    for qid, q in enumerate(workload.plan):
        res = workload.run(q)
        workload.answer(q, res)
        assert workload.check(qid, q, res) == [], (qid, q)


def test_cli_answers_pass_their_checks(monkeypatch, capsys):
    wl = _workloads_module()
    goldens = {n: (REPO / "tests/golden" / f"{n}.json").read_text() for n in wl.GOLDEN_CASES}
    monkeypatch.chdir(REPO)
    for name, argv in wl.cli_plan(SEED):
        code = run(argv)
        out, err = capsys.readouterr()
        assert wl.check_cli(name, argv, code, out, goldens.get(name)) == []
        assert err == "", name
