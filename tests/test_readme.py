"""The README's library quick start runs as written."""
import os
import re

import numpy as np

from wimpvar import TimeSeriesData, make_dgp, simulate_path
from wimpvar.cli import emit_csv_matrix

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _quick_start() -> str:
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    # macro.csv: T=200 levels of the strong-cointegration design, with a
    # constant and a trend for the quick start's detrending to remove
    levels = simulate_path(make_dgp("dgp2", 200), np.random.default_rng(2017))
    levels = levels + 5.0 + 0.01 * np.arange(200)[:, None]
    emit_csv_matrix(str(tmp_path / "macro.csv"), TimeSeriesData(levels))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_quick_start(), "README.md", "exec"), namespace)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 21 + 2  # one line per horizon, the weights, the selected rank
    interval = namespace["interval"]
    assert interval.method == "wimp"
    assert np.all(interval.lower <= interval.upper)
