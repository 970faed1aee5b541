"""The README's library quick start runs as written, the names its tables
list as removed are gone, and its options table is the command line's."""
import importlib
import os
import pkgutil
import re

import numpy as np

import wimpvar
from wimpvar import TimeSeriesData, make_dgp, simulate_path
from wimpvar import cli
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


NAME = r"`[A-Za-z_]\w*(?:\.\w+)*`"


def _removed_names() -> list:
    """The names in the first column of every "Removed" table whose cell is
    a list of bare backticked names or dotted paths, a remark in
    parentheses aside; cells with a signature or prose are skipped."""
    with open(README, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    names, in_table = [], False
    for line in lines:
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells[:1] == ["Removed"]:
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and not set(cells[0]) <= set("-: "):
            cell = re.sub(r"\s*\([^`]*\)$", "", cells[0])
            if re.fullmatch(rf"{NAME}(?:(?:, | and ){NAME})*", cell):
                names += re.findall(r"`([^`]*)`", cell)
    return names


def _resolves(path: str, owner) -> bool:
    for attr in path.split("."):
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_readme_removed_names_are_gone():
    submodules = pkgutil.iter_modules(wimpvar.__path__)
    modules = [wimpvar] + [importlib.import_module(f"wimpvar.{info.name}") for info in submodules]
    names = _removed_names()
    assert {"VecmRegressors", "build_vecm_regressors", "wimpvar._batch.regressors_batch"} <= set(
        names
    )
    for name in names:
        path = name.removeprefix("wimpvar.")
        found = [module.__name__ for module in modules if _resolves(path, module)]
        assert not found, f"{name}, listed as removed, resolves in {found}"


COMMANDS = ("analyze", "simulate", "report")


def _default_cell(option, command) -> str:
    """A command's default as the options table shows it: "—" where the
    command does not read the option, "none" for no value."""
    if command not in option.commands:
        return "—"
    if option.required:
        return "required"
    value = option.default_for(command)
    if value is None or value == ():
        return "none"
    if isinstance(value, bool):
        return f"`{str(value).lower()}`"
    return f"`{','.join(value) if isinstance(value, tuple) else value}`"


def _options_table() -> list:
    """The rows of the README's options table, cells stripped."""
    with open(README, encoding="utf-8") as handle:
        lines = handle.read().split("\n| Flag |", 1)[1].splitlines()
    rows = [["Flag"] + [cell.strip() for cell in lines[0].strip().strip("|").split("|")]]
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def test_readme_options_table_is_the_command_lines():
    expected = [["Flag", "Config key", *(f"`{c}`" for c in COMMANDS), "Meaning"]]
    for option in cli._OPTIONS.values():
        key = f"`{option.key}`" if option.key else "—"
        cells = [_default_cell(option, command) for command in COMMANDS]
        expected.append([f"`{option.flag}`", key, *cells, option.help])
    assert _options_table() == expected
