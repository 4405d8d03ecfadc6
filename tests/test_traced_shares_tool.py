"""tools/traced_shares.py on canned perfbench output; perfbench itself is not run."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load("traced_shares", "tools", "traced_shares.py")


def _stdout(correct, share):
    """The tail of a traced perfbench run: the detail line, a metric line
    and the result object."""
    result = {"correct": correct, "attempted": 80, "failed": 0,
              "metrics": {"trace.accounted_share": {"value": share, "unit": "ratio"}}}
    return "\n".join(["detail {}", "%-44s %14.6g %s" % ("trace.accounted_share", share, "ratio"),
                      json.dumps(result)]) + "\n"


def test_summary_of_canned_runs():
    outputs = [_stdout(True, 0.9561), _stdout(True, 0.9499), _stdout(False, 0.9602),
               _stdout(True, 0.9544), "pass exited with 1\n", ""]
    runs = []
    for out in outputs:
        correct, share = tool.parse_result(out)
        runs.append({"correct": correct, "accounted_share": share})
    assert [run["accounted_share"] for run in runs] == [0.9561, 0.9499, 0.9602, 0.9544,
                                                        None, None]
    assert [run["correct"] for run in runs] == [True, True, False, True, False, False]
    line = tool.summary("parent", "cli", runs, 0.95)
    assert line == {"root": "parent", "workload": "cli", "runs": 6, "floor": 0.95,
                    "min": 0.9499, "median": (0.9544 + 0.9561) / 2, "under_floor": 1,
                    "incorrect": 3}
    assert tool.summary(".", "gauss", runs[4:], 0.95)["median"] is None


def test_floor_is_read_from_perfbench(tmp_path):
    run = _load("perfbench_run", "perfbench", "run.py")
    assert tool.read_floor(os.path.join(ROOT, "perfbench", "run.py")) == run.MIN_ACCOUNTED_SHARE
    # read, not copied: another value in another run.py is what comes back
    other = tmp_path / "run.py"
    other.write_text("import sys\nMIN_ACCOUNTED_SHARE = 0.875\n", encoding="utf-8")
    assert tool.read_floor(str(other)) == 0.875
