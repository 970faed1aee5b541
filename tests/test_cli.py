import argparse
import json
import os
import re
import shutil
import warnings

import numpy as np
import pytest

from wimpvar import DataError, TimeSeriesData, make_dgp, simulate_path
from wimpvar import cli
from wimpvar.cli import emit_csv_matrix, ingest_csv, main


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- CSV ingestion -----------------------------------------------------------


def test_ingest_well_formed(tmp_path):
    path = _write(tmp_path, "ok.csv", "a,b,c\n1,2,3\n4,5,6\n7,8,9\n1,1,1\n2,2,2\n")
    data = ingest_csv(path)
    assert data.values.shape == (5, 3)
    assert data.names == ("a", "b", "c")
    assert data.values[1, 2] == 6.0


def test_ingest_non_numeric_cell_names_coordinates(tmp_path):
    path = _write(tmp_path, "bad.csv", "x,y\n1,2\n3,oops\n")
    with pytest.raises(DataError, match=r"row 2.*'y'"):
        ingest_csv(path)


def test_ingest_ragged_row(tmp_path):
    path = _write(tmp_path, "ragged.csv", "x,y\n1,2\n3\n")
    with pytest.raises(DataError, match="row 2"):
        ingest_csv(path)


def test_ingest_duplicate_names(tmp_path):
    path = _write(tmp_path, "dup.csv", "x,x\n1,2\n")
    with pytest.raises(DataError, match="duplicate"):
        ingest_csv(path)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        ingest_csv(str(tmp_path / "nope.csv"))


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    data = TimeSeriesData(rng.standard_normal((40, 3)) * np.pi, ("u", "v", "w"))
    path = str(tmp_path / "rt.csv")
    emit_csv_matrix(path, data)
    back = ingest_csv(path)
    assert np.array_equal(back.values, data.values)
    assert back.names == data.names


def test_unencodable_name_is_a_data_error_and_leaves_no_file(tmp_path):
    data = TimeSeriesData(np.ones((3, 2)), ("\ud800", "v"))
    with pytest.raises(DataError, match="cannot write '\\\\ud800' as UTF-8"):
        emit_csv_matrix(str(tmp_path / "m.csv"), data)
    assert list(tmp_path.iterdir()) == []


# --- analyze ------------------------------------------------------------------


def _toy_csv(tmp_path, seed=1, K=1, T=60):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.standard_normal((T, K)), axis=0)
    data = TimeSeriesData(values)
    path = str(tmp_path / "toy.csv")
    emit_csv_matrix(path, data)
    return path


def test_analyze_toy_bundle(tmp_path, capsys):
    csv_path = _toy_csv(tmp_path)
    out = str(tmp_path / "bundle")
    code = main([
        "analyze", "--input", csv_path, "--out", out, "--p", "1",
        "--B", "49", "--gamma", "0.1", "--h-max", "4", "--seed", "3",
    ])
    assert code == 0
    assert "config hash" in capsys.readouterr().out
    meta = json.loads((tmp_path / "bundle" / "metadata.json").read_text())
    assert meta["command"] == "analyze"
    assert meta["schema_version"] == 1

    with open(os.path.join(out, "intervals.csv")) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    col = {name: i for i, name in enumerate(header)}
    methods = {(row[col["method"]], row[col["rank"]]) for row in rows}
    assert ("fixed_rank", "0") in methods and ("fixed_rank", "1") in methods
    assert any(m == "wimp" for m, _ in methods)
    # K = 1 grid with h_max=4: 5 horizons per (a,b); 2 ranks + wimp
    assert len(rows) == 3 * 5

    # combined interval contains the reference-rank interval
    ref_rank = str(meta["reference_rank"])
    fan = {}
    for row in rows:
        if row[col["method"]] == "fixed_rank":
            fan[(row[col["rank"]], row[col["horizon"]])] = (
                float(row[col["lower"]]),
                float(row[col["upper"]]),
            )
        if row[col["method"]] == "wimp":
            fan[("wimp", row[col["horizon"]])] = (
                float(row[col["lower"]]),
                float(row[col["upper"]]),
            )
    for h in ("0", "1", "2", "3", "4"):
        lo_w, up_w = fan[("wimp", h)]
        lo_r, up_r = fan[(ref_rank, h)]
        assert lo_w <= lo_r and up_w >= up_r


def test_analyze_rerun_byte_identical(tmp_path):
    csv_path = _toy_csv(tmp_path, seed=4)
    out1, out2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    args = ["analyze", "--input", csv_path, "--p", "1", "--B", "49",
            "--h-max", "3", "--seed", "9"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    for name in ("intervals.csv", "weights.csv", "metadata.json"):
        a = (tmp_path / "b1" / name).read_bytes()
        b = (tmp_path / "b2" / name).read_bytes()
        if name == "metadata.json":  # only the output path may differ
            a = a.replace(json.dumps(out1).encode(), b'"XX"')
            b = b.replace(json.dumps(out2).encode(), b'"XX"')
        assert a == b, name


def test_analyze_weights_concentrate_on_true_rank(tmp_path):
    data = simulate_path(make_dgp("dgp2", 200), np.random.default_rng(11))
    csv_path = str(tmp_path / "dgp2.csv")
    emit_csv_matrix(csv_path, TimeSeriesData(data))
    out = str(tmp_path / "bundle")
    code = main([
        "analyze", "--input", csv_path, "--out", out, "--p", "1", "--B", "59",
        "--h-max", "3", "--detrend", "none", "--kind", "reduced_form", "--seed", "2",
    ])
    assert code == 0
    with open(os.path.join(out, "weights.csv")) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    col = {name: i for i, name in enumerate(header)}
    weights = {int(r[col["rank"]]): float(r[col["weight"]]) for r in rows}
    assert max(weights, key=weights.get) == 2
    ref = [int(r[col["rank"]]) for r in rows if r[col["is_reference"]] == "1"]
    assert ref == [2]


def test_analyze_extra_methods_and_queries(tmp_path):
    csv_path = _toy_csv(tmp_path, seed=5, K=2, T=80)
    out = str(tmp_path / "bundle")
    code = main([
        "analyze", "--input", csv_path, "--out", out, "--p", "1", "--B", "49",
        "--seed", "1", "--methods", "ols,ma,lavar,bers_bic,fdbb_aic",
        "--queries", "element:1,1,4;max:2,1", "--kind", "reduced_form",
    ])
    assert code == 0
    with open(os.path.join(out, "intervals.csv")) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    col = {name: i for i, name in enumerate(header)}
    methods = sorted({row[col["method"]] for row in rows})
    assert methods == ["bers_bic", "fdbb_aic", "fixed_rank", "lavar", "ma", "ols", "wimp"]
    functionals = {row[col["functional"]] for row in rows}
    assert functionals == {"element", "max_over_horizons"}
    # (3 ranks + wimp + 5 extras) x 2 queries
    assert len(rows) == 9 * 2


def test_analyze_missing_input_exit_code(tmp_path):
    code = main(["analyze", "--input", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o")])
    assert code == 3


def test_analyze_bad_method_exit_code(tmp_path):
    csv_path = _toy_csv(tmp_path, seed=6)
    code = main([
        "analyze", "--input", csv_path, "--out", str(tmp_path / "o"),
        "--methods", "quantum",
    ])
    assert code == 2


def test_analyze_estimation_failure_exit_code(tmp_path):
    path = _write(
        tmp_path, "const.csv", "x\n" + "\n".join(["1.0"] * 40) + "\n"
    )
    code = main(["analyze", "--input", path, "--out", str(tmp_path / "o"), "--detrend", "none"])
    assert code == 4


@pytest.mark.parametrize("command, setting", [
    ("analyze", ["--c1", "-1"]),
    ("analyze", ["--c2", "1.5"]),
    ("simulate", "c1 = 0"),
    ("simulate", "c2 = 1.5"),
    ("simulate", ["--c1", "0"]),
    ("simulate", ["--c2", "1.5"]),
])
def test_weight_constants_exit_code(tmp_path, capsys, command, setting):
    # A list is flags, a string a config-file line.
    out = str(tmp_path / "o")
    if command == "analyze":
        argv = ["analyze", "--input", _toy_csv(tmp_path, seed=8), "--B", "39", "--h-max", "1"]
    else:
        argv = ["simulate", "--T", "40", "--n-mc", "1", "--B", "39", "--h-max", "1",
                "--methods", "wimp", "--workers", "1"]
    if isinstance(setting, list):
        argv += setting
    else:
        argv += ["--config", _write(tmp_path, "run.cfg", setting + "\n")]
    assert main(argv + ["--out", out]) == 2
    assert "weight constants" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_config_file_with_flag_override(tmp_path):
    csv_path = _toy_csv(tmp_path, seed=7)
    config = _write(
        tmp_path,
        "run.cfg",
        f"input = {csv_path}\nB = 49\ngamma = 0.2\nh_max = 3\nseed = 5\n# comment\n",
    )
    out = str(tmp_path / "bundle")
    code = main(["analyze", "--config", config, "--input", csv_path,
                 "--out", out, "--gamma", "0.1"])
    assert code == 0
    meta = json.loads((tmp_path / "bundle" / "metadata.json").read_text())
    assert meta["config"]["gamma"] == 0.1  # flag wins
    assert meta["config"]["n_boot"] == 49  # file value kept


def test_config_file_unknown_key(tmp_path):
    csv_path = _toy_csv(tmp_path, seed=8)
    config = _write(tmp_path, "run.cfg", "banana = 1\n")
    code = main(["analyze", "--config", config, "--input", csv_path, "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize(
    "line",
    [
        "p = abc",
        "detrend = bogus",
        "paper_sample_convention = ture",
        "paper_sample_convention = 2",
        "paper_sample_convention = ",
    ],
)
def test_config_file_bad_value_exit_code(tmp_path, capsys, line):
    csv_path = _toy_csv(tmp_path, seed=8)
    config = _write(tmp_path, "run.cfg", line + "\n")
    code = main(["analyze", "--config", config, "--input", csv_path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert line.split(" = ")[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line",
    [
        ("simulate", "input = data.csv"),
        ("simulate", "p = 3"),
        ("simulate", "detrend = constant_and_trend"),
        ("simulate", "kind = structural_cholesky"),
        ("simulate", "queries = element:1,1,1"),
        ("simulate", "paper_sample_convention = yes"),
        ("analyze", "dgp = dgp2"),
        ("analyze", "T = 80"),
        ("analyze", "n_mc = 5"),
        ("analyze", "workers = 2"),
    ],
)
def test_config_file_key_the_command_ignores_exit_code(tmp_path, capsys, command, line):
    # A key the command would not read must not reach the bundle's metadata
    # and config hash as if it had been used.
    config = _write(tmp_path, "run.cfg", line + "\n")
    out = str(tmp_path / "o")
    if command == "analyze":
        argv = ["analyze", "--input", _toy_csv(tmp_path, seed=8), "--B", "39",
                "--h-max", "1"]
    else:
        argv = ["simulate", "--T", "40", "--n-mc", "1", "--B", "39", "--h-max", "1",
                "--methods", "ols", "--workers", "1"]
    code = main(argv + ["--config", config, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert repr(line.split(" = ")[0]) in err and command in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "value, expected",
    [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
     ("0", False), ("false", False), ("NO", False), ("Off", False)],
)
def test_config_file_flag_spellings(tmp_path, value, expected):
    config = _write(tmp_path, "run.cfg", f"paper_sample_convention = {value}\n")
    args = cli._build_parser().parse_args(
        ["analyze", "--config", config, "--input", "x.csv", "--out", str(tmp_path / "o")]
    )
    assert cli._merge_config(args).paper_sample_convention is expected


def _run_config(argv):
    return cli._merge_config(cli._build_parser().parse_args(argv))


def test_simulate_c1_flag_and_key_give_one_config_hash(tmp_path):
    config = _write(tmp_path, "run.cfg", "c1 = 0.5\n")
    by_flag = _run_config(["simulate", "--out", "o", "--c1", "0.5"])
    by_key = _run_config(["simulate", "--out", "o", "--config", config])
    assert by_flag.c1 == by_key.c1 == 0.5
    assert by_flag.hash() == by_key.hash() != _run_config(["simulate", "--out", "o"]).hash()


# The hashes of these configurations as released; every bundle carries one.
@pytest.mark.parametrize("argv, expected", [
    (["analyze", "--input", "data.csv", "--out", "o"], "c197966e12bd4309"),
    (["analyze", "--input", "data.csv", "--out", "o", "--p", "2", "--B", "399", "--methods",
      "ols,bers_aic,bers_bic,ma,ma_fixed,fdbb_aic,fdbb_bic,lavar", "--paper-sample-convention"],
     "c0d6e41db945e0be"),
    (["simulate", "--out", "o"], "aeb0c4374ab4d6cd"),
    (["simulate", "--out", "o", "--paper-scale"], "2d46ac1bd95a5a59"),
    (["simulate", "--out", "o", "--dgp", "dgp2", "--T", "200", "--workers", "2"], "a659b6ab892b2dc3"),
])
def test_config_hash_is_pinned(argv, expected):
    assert _run_config(argv).hash() == expected


def test_input_and_out_from_the_config_file_write_the_flags_bundle(tmp_path):
    csv_path = _toy_csv(tmp_path, seed=7)
    out = str(tmp_path / "bundle")
    settings = ["--B", "39", "--h-max", "2", "--seed", "3"]
    names = ("intervals.csv", "weights.csv", "metadata.json")
    assert main(["analyze", "--input", csv_path, "--out", out, *settings]) == 0
    by_flags = {name: (tmp_path / "bundle" / name).read_bytes() for name in names}
    shutil.rmtree(out)
    config = _write(tmp_path, "run.cfg", f"input = {csv_path}\nout = {out}\n")
    assert main(["analyze", "--config", config, *settings]) == 0
    assert {name: (tmp_path / "bundle" / name).read_bytes() for name in names} == by_flags


@pytest.mark.parametrize("argv, missing", [
    (["analyze", "--out", "o"], "--input or config key 'input'"),
    (["analyze", "--input", "x.csv"], "--out or config key 'out'"),
    (["simulate"], "--out or config key 'out'"),
    (["report", "--out", "o"], "--bundle"),
    (["report", "--bundle", "b"], "--out"),
])
def test_missing_required_option_exit_code(tmp_path, capsys, monkeypatch, argv, missing):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: the {argv[0]} command needs {missing}\n"
    assert list(tmp_path.iterdir()) == []


# A valid value for every option, unlike every command's default.
_SAMPLE_TEXT = {
    "input": "x.csv", "out": "elsewhere", "p": "3", "gamma": "0.1", "n_boot": "49",
    "methods": "ols, wimp,ols", "detrend": "constant", "kind": "reduced_form", "h_max": "7",
    "queries": "max:1,2", "c1": "2.5", "c2": "0.25", "seed": "11", "dgp": "dgp2", "T": "80",
    "n_mc": "5", "workers": "2", "paper_sample_convention": "yes", "bundle": "b",
}
_COMMANDS = ("analyze", "simulate", "report")


def _flag_argv(name):
    option = cli._OPTIONS[name]
    return [option.flag] if option.parse is cli._parse_flag else [option.flag, _SAMPLE_TEXT[name]]


def _required_argv(command, but):
    argv = [command]
    for name, option in cli._OPTIONS.items():
        if option.required and command in option.commands and name != but:
            argv += _flag_argv(name)
    return argv


def test_every_option_has_a_sample_value():
    assert set(cli._OPTIONS) == set(_SAMPLE_TEXT)


@pytest.mark.parametrize("name", list(cli._OPTIONS))
def test_option_flag_and_key_agree_and_commands_that_do_not_read_it_refuse_both(
    tmp_path, capsys, monkeypatch, name
):
    monkeypatch.chdir(tmp_path)
    option = cli._OPTIONS[name]
    for command in _COMMANDS:
        flag_argv = _required_argv(command, name) + _flag_argv(name)
        has_config = command != "report"
        if has_config and option.key:
            config = _write(tmp_path, "run.cfg", f"{option.key} = {_SAMPLE_TEXT[name]}\n")
            key_argv = _required_argv(command, name) + ["--config", config]
        if command in option.commands:
            by_flag = _run_config(flag_argv)
            assert getattr(by_flag, name) == option.parse(_SAMPLE_TEXT[name]), command
            assert getattr(by_flag, name) != option.default_for(command), command
            if has_config and option.key:
                assert _run_config(key_argv) == by_flag, command
            continue
        with pytest.raises(SystemExit) as raised:
            cli._build_parser().parse_args(flag_argv)
        assert raised.value.code == 2
        assert f"unrecognized arguments: {option.flag}" in capsys.readouterr().err
        if has_config and option.key:
            assert main(key_argv) == 2
            assert f"config key {option.key!r} does not apply to the {command}" in capsys.readouterr().err
    assert not (tmp_path / _SAMPLE_TEXT["out"]).exists()


def test_every_help_text_formats():
    parser = cli._build_parser()
    assert "{analyze,simulate,report}" in parser.format_help()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(subparsers.choices) == _COMMANDS
    for command, subparser in subparsers.choices.items():
        text = subparser.format_help()
        assert text.startswith(f"usage: wimpvar {command}")
        flags = set(re.findall(r"--[\w-]+", text))
        for option in cli._OPTIONS.values():
            assert (option.flag in flags) == (command in option.commands), (command, option.flag)
    assert "68%-band" in subparsers.choices["analyze"].format_help()


def test_bad_worker_environment_variable_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WIMPVAR_WORKERS", "abc")
    code = main(["simulate", "--dgp", "dgp1", "--T", "80", "--n-mc", "2",
                 "--h-max", "2", "--methods", "ols", "--out", str(tmp_path / "s")])
    assert code == 2
    assert "WIMPVAR_WORKERS" in capsys.readouterr().err


# --- methods share one prepared sample --------------------------------------------


_ALL_EXTRAS = ("ols", "bers_aic", "bers_bic", "ma", "ma_fixed", "fdbb_aic", "fdbb_bic", "lavar", "wimp")


def _analyze_rows(csv_path, out, methods):
    args = ["analyze", "--input", csv_path, "--out", out, "--p", "1", "--B", "49",
            "--h-max", "3", "--seed", "4"]
    assert main(args + ["--methods", ",".join(methods)]) == 0
    with open(os.path.join(out, "intervals.csv")) as handle:
        lines = handle.read().splitlines()[1:]
    return [line.rsplit(",", 1)[0] for line in lines]  # drop the config hash


def test_analyze_builds_each_level1_batch_once_in_rank_order(tmp_path, monkeypatch):
    from wimpvar import bootstrap

    built = []
    original = bootstrap._level1_batch

    def counting(prep, dgp_rank, paths):
        built.append(dgp_rank)
        return original(prep, dgp_rank, paths)

    monkeypatch.setattr(bootstrap, "_level1_batch", counting)
    csv_path = _toy_csv(tmp_path, seed=5, K=2, T=80)
    _analyze_rows(csv_path, str(tmp_path / "all"), _ALL_EXTRAS)
    # Every rank 0..K feeds the fan: each is built once, in ascending
    # order, so no two batches are held together.
    assert built == [0, 1, 2]


def test_analyze_extra_rows_match_a_run_of_that_extra_alone(tmp_path):
    csv_path = _toy_csv(tmp_path, seed=5, K=2, T=80)
    joint = _analyze_rows(csv_path, str(tmp_path / "all"), _ALL_EXTRAS)
    for extra in _ALL_EXTRAS:
        alone = _analyze_rows(csv_path, str(tmp_path / extra), [extra])
        expected = [row for row in joint if row.split(",", 1)[0] in ("fixed_rank", "wimp", extra)]
        assert alone == expected, extra


# --- simulate and report ---------------------------------------------------------


def test_simulate_and_report_round_trip(tmp_path):
    out = str(tmp_path / "sim")
    code = main([
        "simulate", "--dgp", "dgp2", "--T", "80", "--n-mc", "6", "--B", "49",
        "--h-max", "5", "--methods", "ols,true_rank,wimp", "--seed", "21",
        "--out", out,
    ])
    assert code == 0
    assert os.path.exists(os.path.join(out, "coverage.csv"))
    assert os.path.exists(os.path.join(out, "summary.csv"))

    tables = str(tmp_path / "tables")
    assert main(["report", "--bundle", out, "--out", tables]) == 0

    # report copies the bundle's tables byte for byte
    for source, target in (("coverage.csv", "coverage_table.csv"), ("summary.csv", "summary_table.csv")):
        with open(os.path.join(out, source), "rb") as a, open(os.path.join(tables, target), "rb") as b:
            assert a.read() == b.read(), target

    # recount oracle: the per-horizon summary recomputed from the per-cell
    # coverage table must equal the summary the harness wrote
    def read(path):
        with open(path) as handle:
            header = handle.readline().strip().split(",")
            rows = [line.strip().split(",") for line in handle if line.strip()]
        return {name: i for i, name in enumerate(header)}, rows

    col, cells = read(os.path.join(out, "coverage.csv"))
    by_key: dict = {}
    for row in cells:
        key = (row[col["method"]], row[col["horizon"]])
        by_key.setdefault(key, []).append((float(row[col["coverage"]]), float(row[col["mean_width"]])))
    recount = {
        key: [float(np.median([c for c, _ in pairs])), min(c for c, _ in pairs),
              float(np.mean([w for _, w in pairs]))]
        for key, pairs in by_key.items()
    }
    _, emitted = read(os.path.join(out, "summary.csv"))
    emit = {(r[0], r[1]): [float(x) for x in r[2:5]] for r in emitted}
    assert emit.keys() == recount.keys()
    for key in emit:
        assert emit[key] == pytest.approx(recount[key], abs=1e-12)


def test_simulate_full_method_list(tmp_path):
    out = str(tmp_path / "sim")
    code = main([
        "simulate", "--dgp", "dgp1", "--T", "80", "--n-mc", "2", "--B", "49",
        "--h-max", "3", "--seed", "1", "--out", out, "--methods",
        "ols,true_rank,aic,bic,bers_aic,bers_bic,ma,fdbb_aic,fdbb_bic,wimp,lavar",
    ])
    assert code == 0
    with open(os.path.join(out, "coverage.csv")) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    methods = {row[0] for row in rows}
    assert len(methods) == 11
    assert len(rows) == 11 * 9 * 3


def test_simulate_deterministic_rerun(tmp_path):
    args = ["simulate", "--dgp", "dgp1", "--T", "80", "--n-mc", "4", "--B", "49",
            "--h-max", "4", "--methods", "ols,wimp", "--seed", "33"]
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert (tmp_path / "s1" / "coverage.csv").read_bytes() == (tmp_path / "s2" / "coverage.csv").read_bytes()
    assert (tmp_path / "s1" / "summary.csv").read_bytes() == (tmp_path / "s2" / "summary.csv").read_bytes()


def test_report_rejects_non_bundle(tmp_path):
    code = main(["report", "--bundle", str(tmp_path), "--out", str(tmp_path / "t")])
    assert code == 3


def test_report_rejects_bundle_missing_a_table(tmp_path):
    bundle = tmp_path / "b"
    bundle.mkdir()
    (bundle / "metadata.json").write_text(json.dumps({"schema_version": 1, "command": "simulate", "config_hash": "x"}))
    (bundle / "coverage.csv").write_text("method\n")
    code = main(["report", "--bundle", str(bundle), "--out", str(tmp_path / "t")])
    assert code == 3  # summary.csv is missing


def test_report_rejects_schema_mismatch(tmp_path):
    bundle = tmp_path / "b"
    bundle.mkdir()
    (bundle / "metadata.json").write_text(json.dumps({"schema_version": 99, "command": "analyze", "config_hash": "x"}))
    code = main(["report", "--bundle", str(bundle), "--out", str(tmp_path / "t")])
    assert code == 3


def test_simulate_scale_defaults(tmp_path):
    out = str(tmp_path / "s")
    code = main(["simulate", "--dgp", "dgp2", "--T", "80", "--n-mc", "2",
                 "--h-max", "2", "--methods", "ols", "--out", out])
    assert code == 0
    meta = json.loads((tmp_path / "s" / "metadata.json").read_text())
    assert meta["config"]["n_boot"] == 199  # reduced-scale default
    assert meta["config"]["n_mc"] == 2  # explicit flag wins


def test_simulate_empty_methods_header_only(tmp_path):
    out = str(tmp_path / "s")
    code = main(["simulate", "--dgp", "dgp1", "--T", "80", "--n-mc", "2",
                 "--h-max", "2", "--methods", "", "--out", out])
    assert code == 0
    coverage = (tmp_path / "s" / "coverage.csv").read_text().strip().splitlines()
    assert len(coverage) == 1  # header only
    tables = str(tmp_path / "t")
    assert main(["report", "--bundle", out, "--out", tables]) == 0
    summary = (tmp_path / "t" / "summary_table.csv").read_text().strip().splitlines()
    assert len(summary) == 1


def test_analyze_grid_row_count_three_variables(tmp_path):
    data = simulate_path(make_dgp("dgp2", 120), np.random.default_rng(13))
    csv_path = str(tmp_path / "k3.csv")
    emit_csv_matrix(csv_path, TimeSeriesData(data))
    out = str(tmp_path / "bundle")
    code = main([
        "analyze", "--input", csv_path, "--out", out, "--p", "1", "--B", "49",
        "--h-max", "3", "--detrend", "none", "--kind", "reduced_form",
        "--seed", "2", "--methods", "ols",
    ])
    assert code == 0
    rows = (tmp_path / "bundle" / "intervals.csv").read_text().strip().splitlines()
    # header + (4 ranks + wimp + ols) x 9 pairs x 4 horizons
    assert len(rows) == 1 + 6 * 9 * 4


def test_metadata_replay_reconstructs_run(tmp_path):
    from wimpvar.cli import RunConfig, analyze

    csv_path = _toy_csv(tmp_path, seed=14, K=2, T=70)
    out1 = str(tmp_path / "b1")
    assert main(["analyze", "--input", csv_path, "--out", out1, "--B", "49",
                 "--h-max", "3", "--seed", "6"]) == 0
    meta = json.loads((tmp_path / "b1" / "metadata.json").read_text())
    replay = dict(meta["config"])
    replay["methods"] = tuple(replay["methods"])
    replay["out"] = str(tmp_path / "b2")
    analyze(RunConfig(**replay))
    a = (tmp_path / "b1" / "intervals.csv").read_bytes()
    b = (tmp_path / "b2" / "intervals.csv").read_bytes()
    assert a == b


def test_report_on_analyze_bundle(tmp_path):
    csv_path = _toy_csv(tmp_path, seed=9)
    out = str(tmp_path / "bundle")
    assert main(["analyze", "--input", csv_path, "--out", out, "--B", "49",
                 "--h-max", "3", "--seed", "4"]) == 0
    tables = str(tmp_path / "tables")
    assert main(["report", "--bundle", out, "--out", tables]) == 0
    assert os.path.exists(os.path.join(tables, "interval_table.csv"))
    assert os.path.exists(os.path.join(tables, "weight_bars.csv"))


# --- results that do not depend on the units of the variables ----------------


def _benchmark_input(seed, index):
    """(levels (200, 4), --seed) of an ``analyze_k4`` benchmark operation:
    two random walks and two stationary AR(2) parts, mixed, plus a constant
    and a trend (the recipe of ``perfbench/workloads.py``)."""
    rng = np.random.default_rng([1, seed, index])
    op_seed = int(rng.integers(0, 2**31))
    shocks = rng.standard_normal((250, 4))
    parts = np.empty((250, 4))
    parts[:, :2] = np.cumsum(shocks[:, :2], axis=0)
    stationary = np.zeros((250, 2))
    for t in range(2, 250):
        stationary[t] = 0.5 * stationary[t - 1] - 0.2 * stationary[t - 2] + shocks[t, 2:]
    parts[:, 2:] = stationary
    while True:
        mix = rng.uniform(-1.0, 1.0, (4, 4)) + 2.0 * np.eye(4)
        if np.linalg.cond(mix) <= 10.0:
            break
    return parts[50:] @ mix.T + 10.0 + 0.02 * np.arange(200.0)[:, None], op_seed


def _weights_of_analyze(tmp_path, name, values, op_seed):
    path = str(tmp_path / f"{name}.csv")
    emit_csv_matrix(path, TimeSeriesData(values, ("y1", "y2", "y3", "y4")))
    out = tmp_path / name
    argv = ["analyze", "--input", path, "--out", str(out), "--seed", str(op_seed)]
    assert main(argv + ["--p", "2", "--B", "199"]) == 0
    rows = (tmp_path / name / "weights.csv").read_text(encoding="utf-8").splitlines()[1:]
    return np.array([[float(cell) for cell in row.split(",")[1:5]] for row in rows])


UNITS = {
    "y4_1e5": (1.0, 1.0, 1.0, 1e5),
    "y4_1e6": (1.0, 1.0, 1.0, 1e6),
    "y1_1e-4_y4_1e2": (1e-4, 1.0, 1.0, 1e2),
}


@pytest.mark.parametrize("seed, index", [(7, 1), (7, 2), (7, 3), (11, 1)])
def test_analyze_does_not_depend_on_the_units(tmp_path, seed, index):
    # The rescaled inputs were refused as singular lagged-difference moment
    # matrices (all but three of y4_1e5) while the moment check compared
    # eigenvalues across variables.
    values, op_seed = _benchmark_input(seed, index)
    expected = _weights_of_analyze(tmp_path, "unscaled", values, op_seed)
    for name, scales in UNITS.items():
        weights = _weights_of_analyze(tmp_path, name, values * np.array(scales), op_seed)
        # raw weight, weight and trace statistic per rank; the reference rank
        assert np.allclose(weights[:, :3], expected[:, :3], rtol=1e-10, atol=0), name
        assert np.array_equal(weights[:, 3], expected[:, 3]), name


def test_analyze_of_an_explosive_recoding_ends_in_exit_4_or_0(tmp_path):
    # A recoding with condition number 1e7 makes the fitted levels models
    # explosive, and the rank-0 bootstrap paths reach about 1e44.  Their
    # canonical matrices overflow, which stopped the eigensolver for the
    # whole batch with an uncaught numpy error (exit 1).  Each such sample
    # is now a failed replication: all 199 of the rank-0 bootstrap fail, so
    # the run ends in a typed estimation error (exit 4).  Those samples are
    # flagged, so no numpy warning about them reaches the user's stderr.
    values, _ = _benchmark_input(7, 2)
    g = np.random.default_rng(7).standard_normal((2, 4, 4))
    mix = np.linalg.qr(g[0]).Q @ np.diag(np.logspace(0, 7, 4)) @ np.linalg.qr(g[1]).Q
    path = str(tmp_path / "mixed.csv")
    emit_csv_matrix(path, TimeSeriesData(values @ mix.T, ("y1", "y2", "y3", "y4")))
    argv = ["analyze", "--input", path, "--out", str(tmp_path / "out"), "--seed", "5"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--p", "2", "--B", "199"]) in (0, 4)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
