"""The result line of a run: rounds, failed operations and checks."""

import json
import time

import checks
import run
import workloads
from phasefront.errors import QuadratureFailure


class _Failing(workloads.Workload):
    name = "failing"
    ops_per_round = 2

    def __init__(self, seed):
        pass

    def run_round(self):
        raise QuadratureFailure("every round fails")


class _Counting(workloads.Workload):
    name = "counting"

    def __init__(self, seed):
        self.rounds = self.checked = 0

    def run_round(self):
        self.rounds += 1
        time.sleep(0.002)
        return self.rounds

    def check(self, outputs):
        self.checked += 1
        return [checks.Check("round", outputs == self.rounds, f"round {outputs}")]


def _result(capsys, workload, seconds):
    assert run.main(["--workload", workload, "--seed", "0",
                     "--seconds", str(seconds)]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_run_with_no_checked_round_is_not_correct(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "failing", _Failing)
    result = _result(capsys, "failing", 0)
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 2


def test_each_round_is_checked_before_the_next_runs(monkeypatch, capsys):
    made = []

    def counting(seed):
        made.append(_Counting(seed))
        return made[-1]

    monkeypatch.setitem(workloads.WORKLOADS, "counting", counting)
    result = _result(capsys, "counting", 0.01)
    work = made[0]
    assert result["correct"] is True
    assert result["attempted"] == work.rounds == work.checked > 1
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
