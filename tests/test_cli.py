import json
import os

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
])
def test_weight_constants_exit_code(tmp_path, capsys, command, setting):
    out = str(tmp_path / "o")
    if command == "analyze":
        argv = ["analyze", "--input", _toy_csv(tmp_path, seed=8), "--B", "39", "--h-max", "1"]
        argv += setting
    else:
        argv = ["simulate", "--T", "40", "--n-mc", "1", "--B", "39", "--h-max", "1",
                "--methods", "wimp", "--workers", "1",
                "--config", _write(tmp_path, "run.cfg", setting + "\n")]
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

    def counting(prep, dgp_rank):
        built.append(dgp_rank)
        return original(prep, dgp_rank)

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
