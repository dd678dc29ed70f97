"""Checked-in benchmark results and the benches that write them match.

Every ``benchmarks/results/<name>.txt`` must be written by exactly one
``save_result("<name>", ...)`` call in ``benchmarks/bench_*.py``, and
every such call must have its file checked in — so retiring a bench
cannot leave an orphaned figure behind, and a new bench cannot forget
its figure.
"""

import collections
import pathlib
import re

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
SAVE_RESULT = re.compile(r"""save_result\(\s*["']([^"']+)["']""")


def test_results_and_save_result_names_match_one_to_one():
    saved = collections.Counter(
        name for bench in BENCHMARKS.glob("bench_*.py")
        for name in SAVE_RESULT.findall(bench.read_text()))
    assert [name for name, count in saved.items() if count > 1] == []
    files = {path.stem for path in (BENCHMARKS / "results").glob("*.txt")}
    assert sorted(files - set(saved)) == [], "results no bench writes"
    assert sorted(set(saved) - files) == [], "bench results not checked in"
