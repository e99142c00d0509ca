"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ratfunc_oracle import interlacing_signs, normalized_tower
from zetatower.cli import UsageError, main, parse_curve_arg
from zetatower import curves
from zetatower.curves import CATALOG, CurveSpec, artin_zeta, catalog_curve, load_curves
from zetatower.derived_engine import derive_tower
from zetatower.exact_arith import as_rat, rat_str


def run_cli(args):
    return main(args)


def test_derive_writes_levels(tmp_path, capsys):
    out = tmp_path / "levels.json"
    code = run_cli(["derive", "--curve", "elliptic:q=2,a=0", "--tuple", "2,3", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    tuples = [lvl["tuple"] for lvl in payload["levels"]]
    assert tuples == [[], [2], [2, 3]]
    qs = [lvl["Q"] for lvl in payload["levels"]]
    assert qs == ["2", "4", "64"]
    assert payload["levels"][1]["numerator"] == ["3", "3", "12"]
    summary = capsys.readouterr().err
    assert summary.count("level") == 3


def test_derive_tuple_one_is_identity(tmp_path):
    out = tmp_path / "one.json"
    assert run_cli(["derive", "--curve", "elliptic:q=3,a=1", "--tuple", "1", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["levels"][0]["numerator"] == payload["levels"][1]["numerator"]
    assert payload["levels"][0]["Q"] == payload["levels"][1]["Q"]


def test_derive_over_a_61_bit_prime(tmp_path):
    out = tmp_path / "big_q.json"
    assert run_cli(["derive", "--curve", "elliptic:q=2305843009213693951,a=0", "--tuple", "1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["levels"][1]["Q"] == "2305843009213693951"


def test_derive_over_an_undecided_prime_is_usage_error(capsys):
    # 2^89 - 1 is prime but lies above the bound of the exact Miller-Rabin test
    start = time.perf_counter()
    assert run_cli(["derive", "--curve", "elliptic:q=618970019642690137449562111,a=0", "--tuple", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "MILLER_RABIN_BOUND" in capsys.readouterr().err


def test_derive_byte_identical_outputs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["derive", "--curve", "elliptic:q=2,a=-1", "--tuple", "2,2"]
    assert run_cli(args + ["--output", str(a)]) == 0
    assert run_cli(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_curve_file_is_usage_error(capsys):
    assert run_cli(["derive", "--curve", "no_such_file.json", "--tuple", "2"]) == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_tuple_is_usage_error(capsys):
    assert run_cli(["invariants", "--curve", "elliptic:q=2,a=0", "--tuple", "0"]) == 2


def test_tuple_cap_default(capsys):
    args = ["derive", "--curve", "elliptic:q=2,a=0", "--tuple", "65"]
    assert run_cli(args) == 2  # product 65 > default cap 64


def test_tuple_cap_env_and_override(tmp_path, monkeypatch):
    # DEFAULT_PRODUCT_CAP is the cap and --allow-large lifts it; the old variable changes neither
    monkeypatch.setenv("ZETATOWER_PRODUCT_CAP", "2")
    args = ["derive", "--curve", "elliptic:q=2,a=0", "--output", str(tmp_path / "x.json")]
    assert run_cli(args + ["--tuple", "3"]) == 0
    assert run_cli(args + ["--tuple", "65"]) == 2
    assert run_cli(args + ["--tuple", "65", "--allow-large"]) == 0
    assert run_cli(["sweep", "--q", "2", "--tuples", "3", "--checks", "rh", "--output", str(tmp_path / "s.json")]) == 0


def test_rh_check_exact(tmp_path):
    out = tmp_path / "rh.json"
    code = run_cli(["rh-check", "--curve", "elliptic:q=2,a=0", "--tuple", "2", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert [v["method"] for v in payload["verdicts"]] == ["exact_g1", "exact_g1"]
    assert all(v["holds"] for v in payload["verdicts"])


def test_rh_check_genus2_numeric(tmp_path):
    out = tmp_path / "rh2.json"
    code = run_cli(
        ["rh-check", "--curve", "catalog:X2g2", "--tuple", "2", "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdicts"][-1]["method"] == "numeric"
    assert payload["verdicts"][-1]["holds"] is True


def test_invariants_json_and_exit_code(tmp_path):
    out = tmp_path / "inv.json"
    code = run_cli(
        ["invariants", "--curve", "elliptic:q=2,a=0", "--tuple", "2", "--output", str(out)]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert [rep["tuple"] for rep in reports] == [[], [2]]
    assert reports[1]["Q"] == "4"
    assert reports[1]["alphas"] == ["3"]
    assert reports[1]["beta"] == "6"
    assert reports[1]["positivity"] is True
    assert reports[1]["gamma_signs"] == {"2": [1, -1]}


def test_invariants_csv(tmp_path):
    out = tmp_path / "inv.csv"
    code = run_cli(
        [
            "invariants",
            "--curve",
            "counts:q=2,g=2,N=3;5",
            "--tuple",
            "2",
            "--format",
            "csv",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "curve,tuple,Q,alphas,beta,positivity"
    assert len(lines) == 3


# (exit code, sha256 of stdout, sha256 of stderr), recorded when InvariantSet
# still carried its own copies of P, A, Q and the genus
OUTPUT_DIGESTS = {
    "rh-check --curve elliptic:q=3,a=1 --tuple 2,3": (
        0,
        "4f61cbff4fcb771fa9e1e7072a953958e1f393e560787c4c8734d3ae875dddb2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rh-check --curve catalog:X2g2 --tuple 2": (
        0,
        "0890a2b3b0bf6cb45a92ff7a86cc6fdf34b55e0f26d118b1d7755852599c4def",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "invariants --curve elliptic:q=3,a=1 --tuple 2,3 --format json": (
        0,
        "fb0675dfba14ae7feb3ea9036f86aeab7b2a9c75f98b42aceec926076c4338c3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "invariants --curve elliptic:q=3,a=1 --tuple 2,3 --format csv": (
        0,
        "c02a076ee1947da48c7863a3fb8f850afb9ba2e1718985b9fe64dd9b37f28ffd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "invariants --curve catalog:X2g2 --tuple 2,2 --format json": (
        0,
        "ccf02b843bbb5fcf1effef3918dfc1d4757d37f3931a1ce4ac1d379cbca527d1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "invariants --curve catalog:X2g2 --tuple 2,2 --format csv": (
        0,
        "51f1c420903228af3ea1eba78dbf07c285abf216da9c8a158cccad89cf6bc650",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "derive --curve elliptic:q=3,a=1 --tuple 2,3": (
        0,
        "4d1879ff046117f5a21515775d4999f3b71127dd6ddc1d86310461033ecc669c",
        "208c1091479824dc1f1d0254091efed2a3269657f301b137e9ea8cfb6a223be6",
    ),
    "derive --curve catalog:X2g2 --tuple 2,2": (
        0,
        "7ad9c82cb890f8b6c8f72ba62991509b45c9343a2ece458b4680880c17ab0023",
        "23b84c03978617fe1ed3d821d44b75c2c6f33797b54f8a3863bdf486e77a6403",
    ),
    "derive --curve elliptic:q=2,a=-1 --tuple 2,2 --normalize": (
        0,
        "0f0dfdc8c9c2dbf8ec65398a36aa9c9e71e31e8a2e057186c52d27b2c4b508fa",
        "94a6315431be4c25e39a9017dbe46abdd5678d3496288ca4c1ac16c09329833a",
    ),
    # recorded while derive, invariants and rh-check still derived through derive_tower
    "derive --curve catalog:X2g2 --tuple 2,3,1 --normalize": (
        0,
        "aa90a79a7b1f38a76694a2a1f1f91fa85b98f15de3f799fc4a1ba483bd25f316",
        "6dc24ea37050f2aaa6ee9924d116ff5cfa59d2da9737024197c8d980a68b7297",
    ),
    "invariants --curve catalog:X2g2 --tuple 2,3 --normalize --format json": (
        0,
        "04255ccbc74a76a401845f3c55461301b36e37fafdda52d778ee054455f6d30c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "invariants --curve elliptic:q=5,a=-3 --tuple 3,1,2 --normalize --format csv": (
        0,
        "20299e881079df69e9360eecc76cbb265c77e447fc9733c3ea2e458b283a5e26",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rh-check --curve catalog:X2g2 --tuple 2,1,2": (
        0,
        "cb31401e36fd12f92bfadce38cac49149398a741d59e6f27585c6a4711a2598f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    # g3.json is G3_CURVE, a genus-3 numerator over F_2: every verdict is the exact Sturm count
    "rh-check --curve g3.json --tuple 2,3": (
        0,
        "17a8047c41991951e0ac81eb5fffb0bc451d322a0cb4dcb743e1e96757bc40c1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    # recorded while the catalog command still counted the points itself
    "catalog": (
        0,
        "90763f794f493177ac731b2a87fe534cc5d53da3316b354ece6178ac2fc7e6ba",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


G3_CURVE = {"label": "g3", "q": 2, "genus": 3, "numerator": [1, 1, 2, 3, 4, 4, 8]}


@pytest.mark.parametrize("command", sorted(OUTPUT_DIGESTS))
def test_command_output_bytes_are_unchanged(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where the curve files that a command names are written
    (tmp_path / "g3.json").write_text(json.dumps(G3_CURVE), encoding="utf-8")
    code = run_cli(command.split())
    out, err = capsys.readouterr()
    assert (code, _sha256(out), _sha256(err)) == OUTPUT_DIGESTS[command]


def test_beta_table_script_bytes_are_unchanged(tmp_path):
    # sha256 of the CSV written by the export script; re-recorded when upper_ok came to
    # report the upper bound alone, which turned it from 0 to 1 on the three n = 1 rows
    # with a ratio of at most 1 (q=2 a=2, q=3 a=2, q=3 a=3) and changed no other byte
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "table.csv"
    script = root / "scripts" / "export_beta_table.py"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    args = [sys.executable, str(script), "--q", "2,3", "--nmax", "6", "--out", str(out)]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote {out} (72 rows)\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d0403495214e7af879121c46719865af14a57e7169cb190081228a5da473b4b5"
    )


def test_sweep_builtin_grid(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        [
            "sweep",
            "--grid",
            "builtin-elliptic",
            "--q",
            "2",
            "--tuples",
            "2;2,2",
            "--checks",
            "all",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["cells"] == 10
    assert report["summary"]["failed"] is False
    assert "config_hash" in report


def test_sweep_byte_identical(tmp_path):
    a, b = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["sweep", "--grid", "builtin-elliptic", "--q", "2", "--tuples", "2", "--checks", "positivity,rh"]
    assert run_cli(args + ["--output", str(a)]) == 0
    assert run_cli(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rejects_a_huge_non_prime_power_q_at_once(capsys):
    # the grid checks q before it lists the traces, whose number grows like sqrt(q)
    start = time.perf_counter()
    assert run_cli(["sweep", "--q", "100000000000000", "--tuples", "1", "--checks", "rh"]) == 2
    assert time.perf_counter() - start < 1
    assert "q must be a prime power" in capsys.readouterr().err


def test_sweep_q_that_is_not_an_integer_is_usage_error_naming_the_flag(capsys):
    assert run_cli(["sweep", "--tuples", "1", "--q", "2,x"]) == 2
    assert capsys.readouterr().err == "error: --q='x' in '2,x' is not an integer\n"


def test_sweep_over_the_catalog(capsys):
    assert run_cli(["sweep", "--grid", "catalog", "--tuples", "1", "--checks", "rh,beta_routes"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert [c["curve"] for c in cells] == sorted(CATALOG)
    assert len(cells) == 7
    for cell in cells:
        assert cell["checks"] == {"rh": "pass", "beta_routes": "pass"}


def test_sweep_exits_1_on_an_unknown_verdict(monkeypatch, capsys):
    from zetatower import rh_lab

    unknown = rh_lab.RHVerdict(method="numeric", holds=None, detail="planted")
    monkeypatch.setattr(rh_lab, "rh_verdict_for_level", lambda level: unknown)
    assert run_cli(["sweep", "--q", "2", "--tuples", "1", "--checks", "rh"]) == 1  # as rh-check does
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["per_check"]["rh"] == {"pass": 0, "fail": 0, "unknown": 5, "skipped": 0}
    assert summary["failed"] is False and summary["errors"] == 0


def test_a_deeply_nested_curves_file_is_usage_error(tmp_path, capsys):
    # json.loads gives up on the nesting with a RecursionError, which once read as an internal error
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    for args in (["rh-check", "--curve", str(path), "--tuple", "1"], ["sweep", "--curves", str(path), "--tuples", "1"]):
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert f"curves file {path} nests its JSON too deeply" in err and "internal error" not in err


@pytest.mark.parametrize(
    "content, reason",
    [(b'[{"label": ', "Expecting value: line 1 column 12"), (b'{"label": "\xff"}', "can't decode byte 0xff")],
)
def test_a_curves_file_that_is_not_utf8_json_is_named(content, reason, tmp_path, capsys):
    # the decoder's message alone named neither the file nor that it was the curves file
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for args in (["rh-check", "--curve", str(path), "--tuple", "1"], ["sweep", "--curves", str(path), "--tuples", "1"]):
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: curves file {path} does not parse as UTF-8 JSON: ") and reason in err, err


def test_a_csv_label_with_a_comma_a_quote_and_a_newline_reads_back(tmp_path, capsys):
    label = 'a,b "c"\nd'
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"label": label, "q": 2, "genus": 1, "trace": 1}), encoding="utf-8")
    assert run_cli(["invariants", "--curve", str(path), "--tuple", "2,1", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["curve", "tuple", "Q", "alphas", "beta", "positivity"]
    assert [row[:2] for row in rows[1:]] == [[label, ""], [label, "2"], [label, "2;1"]]
    assert all(len(row) == 6 for row in rows)


def test_a_repeated_curve_label_is_usage_error(monkeypatch, tmp_path, capsys):
    # each (curve, tuple) cell of a repeated label was derived and reported twice
    _refuse_derivation(monkeypatch)
    path, out = tmp_path / "curves.json", tmp_path / "out.json"
    spec = {"label": "twice", "q": 2, "genus": 1, "trace": 0}
    path.write_text(json.dumps([{**spec, "label": "once"}, spec, {**spec, "trace": 1}]))
    for source, label in ((["--q", "3,2,2"], "elliptic_q2_a-2"), (["--curves", str(path)], "twice")):
        assert run_cli(["sweep", *source, "--tuples", "1", "--checks", "rh", "--output", str(out)]) == 2
        assert f"error: curve label {label!r} is repeated" in capsys.readouterr().err
        assert not out.exists()


def test_a_repeated_tuple_is_usage_error(monkeypatch, tmp_path, capsys):
    # each cell of a repeated tuple was derived and reported twice, and counted twice in the summary
    _refuse_derivation(monkeypatch)
    out = tmp_path / "out.json"
    for tuples, named in (("2;2;1,2", "(2,)"), ("1,2;3;1,2", "(1, 2)")):
        assert run_cli(["sweep", "--q", "2", "--tuples", tuples, "--output", str(out)]) == 2
        assert f"error: tuple {named} is repeated" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("top", ["3", "null", "true", '"x"'])
def test_curves_file_of_neither_object_nor_list_is_usage_error(top, tmp_path, capsys):
    path = tmp_path / "curves.json"
    path.write_text(top)
    kind = {"3": "a number", "null": "null", "true": "a boolean", '"x"': "a string"}[top]
    for args in (["derive", "--curve", str(path), "--tuple", "1"], ["sweep", "--curves", str(path), "--tuples", "1"]):
        assert run_cli(args + ["--output", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert f"a JSON object or a list of them, got {kind}" in err and "internal error" not in err
    assert not (tmp_path / "out.json").exists()


def test_sweep_unknown_check_is_usage_error():
    assert (
        run_cli(["sweep", "--grid", "builtin-elliptic", "--tuples", "2", "--checks", "nope"]) == 2
    )


def test_catalog_listing(capsys):
    assert run_cli(["catalog"]) == 0
    entries = json.loads(capsys.readouterr().out)
    labels = {e["label"] for e in entries}
    assert {"E2a0", "X2g2"} <= labels


def test_curve_file_input(tmp_path):
    curve = {"label": "file_curve", "q": 2, "genus": 1, "trace": -2}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve))
    out = tmp_path / "out.json"
    assert run_cli(["derive", "--curve", str(path), "--tuple", "2", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["curve"]["label"] == "file_curve"


@pytest.mark.parametrize(
    "curve",
    [
        "elliptic:q=2",
        "elliptic:a=0",
        "elliptic:q=2,a=x",
        "elliptic:q=2.5,a=0",
        "elliptic:q",
        "counts:q=2,g=2",
        "counts:q=2,g=2,N=3;x",
        "counts:q=two,g=2,N=3;5",
        "elliptic:q=2,a=0,g=5",
        "elliptic:q=2,a=0,a=2",
        "counts:q=2,g=2,N=3;5,a=1",
    ],
)
def test_malformed_curve_spec_is_usage_error(curve, capsys):
    with pytest.raises(UsageError):
        parse_curve_arg(curve)
    assert run_cli(["derive", "--curve", curve, "--tuple", "2"]) == 2
    assert "internal error" not in capsys.readouterr().err


def test_curve_file_without_required_keys_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"q": 2}')
    assert run_cli(["derive", "--curve", str(bad), "--tuple", "1"]) == 2
    assert "lacks label, genus" in capsys.readouterr().err


_ELLIPTIC = {"label": "e", "q": 2, "genus": 1, "trace": 0}


@pytest.mark.parametrize(
    "command, curves, message",
    [
        (["derive", "--curve"], [_ELLIPTIC, {**_ELLIPTIC, "label": "f"}], "expected exactly one curve in {path}, found 2"),
        (["sweep", "--grid", "nosuch"], None, "unknown grid 'nosuch' and no --curves file given"),
        (["sweep", "--curves"], [{**_ELLIPTIC, "genus": 2}], "a trace only describes a genus-1 curve"),
        (["sweep", "--curves"], [1], "a curve entry must be a JSON object, got 1"),
    ],
    ids=["two-curves-for-one", "unknown-grid", "trace-of-genus-2", "entry-not-an-object"],
)
def test_a_refused_curve_source_exits_2_naming_why(command, curves, message, tmp_path, capsys):
    path = tmp_path / "curves.json"
    if curves is not None:
        path.write_text(json.dumps(curves))
        command = command + [str(path)]
    tuple_flag = "--tuple" if command[0] == "derive" else "--tuples"
    assert run_cli(command + [tuple_flag, "1", "--output", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "fields",
    [
        {"trace": "a"},
        {"trace": 1.5},
        {"point_counts": 5},
        {"numerator": [1.0, 0, 2]},
        {"trace": None, "numerator": None, "point_counts": None},
        {"numerator": ["1/0", 0, 2]},
    ],
)
def test_curve_file_with_mistyped_fields_is_usage_error(fields, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x", "q": 2, "genus": 1, **fields}))
    assert run_cli(["derive", "--curve", str(bad), "--tuple", "1"]) == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"label": 5, "trace": 0}, "label must be a string, got 5"),
        ({"point_counts": 5}, "point_counts must be a list of integers, got 5"),
        ({"point_counts": "35"}, "point_counts must be a list of integers, got '35'"),
        ({"numerator": (1.0, 0, 2)}, 'numerator coefficient A_0 must be an int, "p/q" string or Fraction, got 1.0'),
        ({"numerator": (True, 0, 2)}, 'numerator coefficient A_0 must be an int, "p/q" string or Fraction, got True'),
    ],
)
def test_a_malformed_field_is_refused_alike_from_every_source(fields, message, tmp_path, capsys):
    # CurveSpec accepted the label 5 and the coefficient True, and raised TypeError on 5 and 1.0,
    # where a curves file refused all four by a ValueError of its own; "35" passed as counts 3 and 5
    entry = {"label": "x", "q": 2, "genus": 1, **fields}
    with pytest.raises(ValueError) as direct:
        CurveSpec(**entry)
    path, out = tmp_path / "curves.json", tmp_path / "out.json"
    path.write_text(json.dumps(entry))
    with pytest.raises(ValueError) as from_file:
        load_curves(path)
    assert str(direct.value) == str(from_file.value) == message
    assert run_cli(["sweep", "--curves", str(path), "--tuples", "1", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err
    assert not out.exists()


# Fraction and int() read more than the documented forms: decimals, exponents, surrounding space, "_" and non-ASCII
# digits; "1e10000000" is 12 bytes that Fraction expands to a ten-million-digit int
_OFF_GRAMMAR = ["0.5", "1e3", " 1", "1_0", "\u0663", "1e10000000"]


@pytest.mark.parametrize("coefficient", _OFF_GRAMMAR)
def test_a_numerator_string_off_the_grammar_exits_2(coefficient, tmp_path, capsys):
    path, out = tmp_path / "curve.json", tmp_path / "out.json"
    path.write_text(json.dumps({"label": "x", "q": 3, "genus": 1, "numerator": ["1", coefficient, "3"]}))
    message = f'numerator coefficient A_1 must be an int, "p/q" string or Fraction, got {coefficient!r}'
    for command in (["rh-check", "--curve", str(path), "--tuple", "2"], ["derive", "--curve", str(path), "--tuple", "2"],
                    ["sweep", "--curves", str(path), "--tuples", "2"]):
        start = time.perf_counter()
        assert run_cli(command + ["--output", str(out)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["1", "-1", "+1", "1/2", "-3/4", "+5/6", "007/010"])
def test_every_numerator_string_in_the_grammar_is_read(text):
    assert CurveSpec(label="x", q=5, genus=1, numerator=["1", text, "5"]).numerator[1] == Fraction(text)


@pytest.mark.parametrize("step", ["1_0", " 2", "2 ", "\u0663", "+2", "-1", "2.0", ""])
def test_a_tuple_entry_off_the_digit_rule_exits_2(step, tmp_path, capsys):
    out = tmp_path / "out.json"
    for command in (["rh-check", "--curve", "elliptic:q=2,a=0", "--tuple", f"1,{step}"],
                    ["derive", "--curve", "elliptic:q=2,a=0", "--tuple", f"1,{step}"],
                    ["sweep", "--q", "2", "--tuples", f"1;1,{step}"]):
        assert run_cli(command + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "malformed tuple" in err and "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("curve", ["elliptic:q=\u0662,a=0", "elliptic:q= 2,a=0", "counts:q=2,g=1,N=\u0663", "counts:q=2,g=1,N=0_3"])
def test_a_curve_field_off_the_digit_rule_is_usage_error(curve, capsys):
    # int() read each of them as a valid curve over F_2
    with pytest.raises(UsageError, match="is not an integer"):
        parse_curve_arg(curve)
    assert run_cli(["derive", "--curve", curve, "--tuple", "1"]) == 2


def test_each_curve_builds_its_base_level_once(monkeypatch, tmp_path, capsys):
    # the spec built and validated its base level, dropped it, and the tower built it again
    built, real = [], curves.artin_zeta

    def spy(spec):
        built.append(spec.label)
        return real(spec)

    for module in [m for name, m in sys.modules.items() if name.startswith("zetatower")]:
        if getattr(module, "artin_zeta", None) is real:  # every namespace a caller may look it up in
            monkeypatch.setattr(module, "artin_zeta", spy)
    path = tmp_path / "curves.json"
    entries = [
        {"label": "e", "q": 2, "genus": 1, "trace": 1},
        {"label": "c", "q": 2, "genus": 2, "point_counts": [3, 5]},
        {"label": "n", "q": 3, "genus": 1, "numerator": ["1", "1/2", "3"]},
    ]
    path.write_text(json.dumps(entries))
    assert run_cli(["sweep", "--curves", str(path), "--tuples", "1;2,1", "--output", str(tmp_path / "out.json")]) == 0
    assert built == ["e", "c", "n"]
    for command in ("derive", "rh-check"):
        built.clear()
        assert run_cli([command, "--curve", "counts:q=2,g=2,N=3;5", "--tuple", "2,1"]) == 0
        assert built == ["counts_q2_g2"]
    capsys.readouterr()


def test_point_counts_with_zero_class_number_are_usage_error(capsys):
    # N_1 = 0 over F_2 gives P(1) = 0; P(1) is the class number, at least 1
    assert run_cli(["derive", "--curve", "counts:q=2,g=1,N=0", "--tuple", "1"]) == 2
    assert "class number" in capsys.readouterr().err


@pytest.mark.parametrize("numerator", [[1, -3, 2], [-1, 3, -2], [1, -5, 2]])
def test_a_numerator_with_no_class_number_is_refused_before_the_sweep(numerator, monkeypatch, tmp_path, capsys):
    # P(1) = 0, also after dividing by A_0 = -1, and P(1) = -2: the spec is refused where it is built, with
    # the message rh-check gives, and the sweep writes no report of errored cells
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "bad", "q": 2, "genus": 1, "numerator": numerator}))
    _refuse_derivation(monkeypatch)
    out = tmp_path / "out.json"
    assert run_cli(["sweep", "--curves", str(bad), "--tuples", "1;2", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "P(1) = " in err and "class number" in err and "internal error" not in err
    assert not out.exists()
    assert run_cli(["rh-check", "--curve", str(bad), "--tuple", "1"]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "curve, message",
    [
        # the trace q + 1 - N_1 = -6 is the one elliptic:q=2,a=-6 refuses by the Hasse bound
        ("counts:q=2,g=1,N=9", "point count N_1 = 9 violates Weil's bound"),
        ("counts:q=2,g=2,N=-100;5", "point count N_1 = -100 is negative"),
        ("counts:q=2,g=2,N=3;-1", "point count N_2 = -1 is negative"),
        # N_1 = 3 is fine; N_2 = 30 is 25 past q^2 + 1 = 5, and 2g q = 8
        ("counts:q=2,g=2,N=3;30", "point count N_2 = 30 violates Weil's bound"),
    ],
)
def test_point_counts_no_curve_has_are_usage_error(curve, message, capsys):
    assert run_cli(["rh-check", "--curve", curve, "--tuple", "1"]) == 2
    assert message in capsys.readouterr().err


def test_point_counts_with_a_non_integer_coefficient_are_usage_error(tmp_path, capsys):
    # N = 3;4 over F_2 at genus 2 give P = 1 - T^2/2 + 4T^4: inside Weil's bound and P(1) = 9/2 > 0,
    # but a curve's P has integer coefficients
    message = "A_2 = -1/2 is not an integer"
    for command in ("derive", "invariants", "rh-check"):
        assert run_cli([command, "--curve", "counts:q=2,g=2,N=3;4", "--tuple", "1"]) == 2
        assert message in capsys.readouterr().err
    path, out = tmp_path / "curves.json", tmp_path / "out.json"
    path.write_text(json.dumps([{"label": "half", "q": 2, "genus": 2, "point_counts": [3, 4]}]))
    assert run_cli(["sweep", "--curves", str(path), "--tuples", "1;2", "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_point_counts_on_weils_bound_are_accepted():
    # N_1 = q + 1 +- 2g sqrt(q) at q = 4, g = 1 (traces -+4) sits on the bound
    for n1 in (1, 9):
        assert run_cli(["rh-check", "--curve", f"counts:q=4,g=1,N={n1}", "--tuple", "1"]) == 0


def test_curve_file_with_an_unknown_key_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x", "q": 2, "genus": 2, "numerater": [1, 0, 0, 0, 4], "point_counts": [3, 5]}))
    assert run_cli(["derive", "--curve", str(bad), "--tuple", "1"]) == 2
    assert "unknown key 'numerater'" in capsys.readouterr().err
    assert run_cli(["sweep", "--curves", str(bad), "--tuples", "1"]) == 2
    assert "unknown key 'numerater'" in capsys.readouterr().err


def test_jobs_zero_is_usage_error(capsys):
    assert run_cli(["sweep", "--grid", "builtin-elliptic", "--q", "2", "--tuples", "2", "--jobs", "0"]) == 2
    assert capsys.readouterr().err == "error: --jobs must be at least 1, got 0\n"
    assert run_cli(["sweep", "--q", "2", "--tuples", "2", "--jobs", "-1"]) == 2
    assert capsys.readouterr().err == "error: --jobs must be at least 1, got -1\n"


@pytest.mark.parametrize("jobs", ["0_1", " 2", "2 ", "\u0662", "1.0", "", "x"])
def test_jobs_that_is_not_ascii_digits_is_usage_error(jobs, monkeypatch, tmp_path, capsys):
    # int() reads "_", spaces and non-ASCII digits; --jobs follows the rule of every other integer the CLI reads
    _refuse_derivation(monkeypatch)
    out = tmp_path / "out.json"
    args = ["sweep", "--q", "2", "--tuples", "1", "--checks", "rh", "--jobs", jobs, "--output", str(out)]
    assert run_cli(args) == 2
    assert capsys.readouterr().err == f"error: --jobs {jobs!r} is not an integer\n"
    assert not out.exists()


def test_jobs_with_a_sign_reads_as_before(tmp_path, capsys):
    outs = [tmp_path / "one.json", tmp_path / "plus.json"]
    for jobs, out in zip(("1", "+1"), outs):
        assert run_cli(["sweep", "--q", "2", "--tuples", "1", "--checks", "rh", "--jobs", jobs, "--output", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_a_repeated_check_is_usage_error(monkeypatch, tmp_path, capsys):
    # the work of --checks rh,rh is that of --checks rh, but its config_hash was not
    _refuse_derivation(monkeypatch)
    out = tmp_path / "out.json"
    for checks in ("rh,rh", "rh,miracle,rh"):
        assert run_cli(["sweep", "--q", "2", "--tuples", "1", "--checks", checks, "--output", str(out)]) == 2
        assert "error: check 'rh' is repeated" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["rh-check", "--curve", "catalog:X2g2", "--tuple", "1", "--precision-bits", "512"],
        ["rh-check", "--curve", "elliptic:q=2,a=0", "--tuple", "1", "--precision-bits", "31"],
        ["sweep", "--grid", "builtin-elliptic", "--q", "2", "--tuples", "1", "--precision-bits", "512"],
        ["rh-check", "--curve", "catalog:X2g2", "--tuple", "1", "--precision-bits", "256"],
        ["rh-check", "--curve", "elliptic:q=2,a=0", "--tuple", "1", "--precision-bits", "0"],
        ["sweep", "--grid", "catalog", "--tuples", "1", "--checks", "rh", "--precision-bits", "256"],
        ["sweep", "--grid", "builtin-elliptic", "--q", "2", "--tuples", "1", "--precision-bits", "-1"],
    ],
)
def test_bad_numeric_settings_are_usage_errors(args, tmp_path, capsys):
    # the numeric verdict has no precision setting, so no value, the default 256 included, can loosen its tolerance
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--output", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision-bits" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def _off_circle_g2(tmp_path):
    # self-inversive, so the curve schema accepts it, yet sqrt(2) |T| is 1 +- 0.414 at its roots
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"label": "g2", "q": 2, "genus": 2, "numerator": [1, 0, 5, 0, 4]}))
    return ["rh-check", "--curve", str(path), "--tuple", "1"]


def test_no_precision_passes_a_root_off_the_circle(tmp_path, capsys):
    assert run_cli(_off_circle_g2(tmp_path)) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [(v["holds"], v["precision_bits"]) for v in verdicts] == [(False, 256)] * 2
    assert all(0.41 < float(v["max_deviation"]) < 0.42 for v in verdicts)


def test_the_tolerance_is_no_option(tmp_path, capsys):
    # the tolerance is fixed with the precision; a looser one passed the roots above
    with pytest.raises(SystemExit) as exc:
        run_cli(_off_circle_g2(tmp_path) + ["--tolerance", "0.5"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["128", "abc", "0"])
def test_the_precision_is_no_environment_setting(value, monkeypatch, capsys):
    monkeypatch.setenv("ZETATOWER_PRECISION_BITS", value)
    assert run_cli(["rh-check", "--curve", "catalog:X2g2", "--tuple", "2"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [v["precision_bits"] for v in verdicts] == [256, 256]


@pytest.mark.parametrize("value", ["128", "abc", "0"])
def test_the_precision_variable_leaves_a_sweep_unchanged(value, monkeypatch, capsys):
    # the config hash covers the fixed precision, so the whole report pins it
    args = ["sweep", "--grid", "catalog", "--tuples", "1", "--checks", "rh"]
    assert run_cli(args) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("ZETATOWER_PRECISION_BITS", value)
    assert run_cli(args) == 0
    assert capsys.readouterr().out == unset


def test_rh_check_decides_each_numerator_once(monkeypatch, capsys):
    from zetatower import rh_lab

    calls = []
    real = rh_lab.rh_numeric

    def counting(P, Q, **kwargs):
        calls.append(P)
        return real(P, Q, **kwargs)

    monkeypatch.setattr(rh_lab, "rh_numeric", counting)
    assert run_cli(["rh-check", "--curve", "catalog:X2g2", "--tuple", "1,2"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [v["tuple"] for v in verdicts] == [[], [1], [1, 2]]
    assert {**verdicts[0], "tuple": [1]} == verdicts[1]
    assert len(calls) == 2  # (1,) has the base's numerator


def _invariant_records(label, levels):
    """The invariants records of ``levels``, a tower's levels in prefix order, from first principles."""
    from zetatower.derived_engine import special_values
    from zetatower.invariants import extract_invariants, interlacing_poly, invariant_values

    records = []
    for prev, z in zip([None] + levels, levels):
        inv = extract_invariants(z)
        alphas, beta = invariant_values(inv, z.Q)
        signs = {}
        if prev is not None:
            n = z.steps[-1]
            signs[str(n)] = interlacing_signs(interlacing_poly(special_values(prev), n), prev.Q, n)
        records.append(
            {
                "curve": label,
                "tuple": list(z.steps),
                "Q": rat_str(z.Q),
                "alphas": [rat_str(a) for a in alphas],
                "beta": rat_str(beta),
                "positivity": inv.positivity(),
                "gamma_signs": signs,
            }
        )
    return records


def test_invariants_extracts_each_numerator_once(monkeypatch, capsys):
    from zetatower import rh_lab

    calls = []
    real = rh_lab.extract_invariants

    def counting(z):
        calls.append(z.steps)
        return real(z)

    monkeypatch.setattr(rh_lab, "extract_invariants", counting)
    assert run_cli(["invariants", "--curve", "catalog:X2g2", "--tuple", "1,1,2"]) == 0
    assert calls == [(), (1, 1, 2)]  # (1,) and (1, 1) have the base's numerator
    reports = json.loads(capsys.readouterr().out)
    # the same records as one extraction per level, the sign vector of each step included
    spec = catalog_curve("X2g2").spec()
    assert reports == _invariant_records("X2g2", [artin_zeta(spec)] + derive_tower(spec, (1, 1, 2)))


def test_invariants_builds_no_interlacing_polynomial(interlacing_poly_calls, capsys):
    # each step's sign vector is read off one row of the positive table
    for extra in ([], ["--normalize"]):
        assert run_cli(["invariants", "--curve", "elliptic:q=3,a=1", "--tuple", "2,3", *extra]) == 0
        assert json.loads(capsys.readouterr().out)[-1]["gamma_signs"] == {"3": [1, -1, 1]}
    assert interlacing_poly_calls == []
    from zetatower import invariants, special_values

    invariants.interlacing_poly(special_values(CurveSpec(label="e", q=3, genus=1, trace=1).level), 1)
    assert len(interlacing_poly_calls) == 1  # the fixture sees a call the package makes


def test_invariants_normalize_matches_a_tower_of_normalized_levels(tmp_path, capsys):
    # level (2, 3) of this numerator has A_0 < 0: over its normalized prefix the odd step's
    # polynomial changes sign, and so does its sign vector
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"label": "neg", "q": 2, "genus": 3, "numerator": [1, -7, 8, 11, 16, -28, 8]}))
    assert run_cli(["invariants", "--curve", str(path), "--tuple", "2,3,1", "--normalize"]) == 1
    reports = json.loads(capsys.readouterr().out)
    base = artin_zeta(load_curves(path)[0])
    levels = [base] + normalized_tower(base, (2, 3, 1))
    assert derive_tower(base, (2, 3))[-1].P[0] < 0
    assert reports == _invariant_records("neg", levels)


def test_rh_check_has_no_normalize_option(capsys):
    # scaling P changes no verdict, so the option would only suggest that it could
    with pytest.raises(SystemExit) as exc:
        run_cli(["rh-check", "--curve", "elliptic:q=2,a=0", "--tuple", "2", "--normalize"])
    assert exc.value.code == 2
    assert "--normalize" in capsys.readouterr().err


def _refuse_derivation(monkeypatch):
    from zetatower import derived_engine

    def fail(*args):
        raise AssertionError("derived a level of refused input")

    # every route to a step, the tower's SpecialValues.step among them, looks it up here
    monkeypatch.setattr(derived_engine, "derive_step", fail)


def test_rh_check_checks_the_precision_before_deriving(monkeypatch, capsys):
    _refuse_derivation(monkeypatch)
    args = ["rh-check", "--curve", "catalog:X2g2", "--tuple", "10,10,10", "--allow-large", "--precision-bits", "512"]
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    assert "--precision-bits" in capsys.readouterr().err


def test_sweep_checks_the_precision_before_deriving(monkeypatch, capsys):
    _refuse_derivation(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--grid", "catalog", "--tuples", "1;2", "--precision-bits", "512"])
    assert exc.value.code == 2
    assert "--precision-bits" in capsys.readouterr().err


def test_derive_a_thousand_steps_of_index_one(tmp_path):
    # the tower derives a path step by step, so its length costs no recursion
    out = tmp_path / "ones.json"
    assert run_cli(["derive", "--curve", "elliptic:q=2,a=0", "--tuple", ",".join(["1"] * 1000), "--output", str(out)]) == 0
    levels = json.loads(out.read_text())["levels"]
    assert len(levels) == 1001
    assert levels[-1]["numerator"] == levels[0]["numerator"] == ["1", "0", "2"]


def test_math_layer_bug_exits_3(monkeypatch, capsys):
    import zetatower.invariants as invariants

    monkeypatch.setattr(invariants, "reconstruct_numerator", lambda *args: [7])
    assert run_cli(["invariants", "--curve", "elliptic:q=2,a=0", "--tuple", "2"]) == 3
    assert "ReconstructionError" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_derive_past_the_int_str_digit_limit(tmp_path):
    # beta at (10, 10) and the numerator at (10, 10, 5) have more than 4300 decimal digits
    out = tmp_path / "big.json"
    limit = sys.get_int_max_str_digits()
    args = ["derive", "--curve", "catalog:X2g2", "--tuple", "10,10,5", "--allow-large", "--output", str(out)]
    assert run_cli(args) == 0
    assert sys.get_int_max_str_digits() == limit
    levels = derive_tower(artin_zeta(catalog_curve("X2g2").spec()), (10, 10, 5))
    sys.set_int_max_str_digits(0)
    try:
        emitted = [[as_rat(c) for c in lvl["numerator"]] for lvl in json.loads(out.read_text())["levels"]]
        assert max(len(str(c)) for c in emitted[-1]) > 4300
    finally:
        sys.set_int_max_str_digits(limit)
    assert emitted[1:] == [[z.P[i] for i in range(5)] for z in levels]


# -- input contract: malformed input exits 2, never 3 ----------------------------------

_FIELD_VALUES = st.one_of(st.integers(min_value=-64, max_value=64).map(str), st.text(max_size=4))
_SPEC_FIELDS = st.lists(
    st.tuples(st.sampled_from(["q", "a", "g", "N", "x", ""]), _FIELD_VALUES), max_size=4
).map(lambda kv: ",".join(f"{k}={v}" for k, v in kv))
_CURVE_STRINGS = st.one_of(
    st.builds(lambda p, f: p + f, st.sampled_from(["elliptic:", "counts:"]), _SPEC_FIELDS),
    st.builds(
        lambda q, g, counts: f"counts:q={q},g={g},N={';'.join(map(str, counts))}",
        st.integers(min_value=-2, max_value=64),
        st.integers(min_value=0, max_value=3),
        st.lists(st.integers(min_value=-5, max_value=80), min_size=1, max_size=4),
    ),
    st.builds(lambda label: "catalog:" + label, st.sampled_from(["E2a0", "X2g2", "E5a2", "nope", ""])),
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-64, max_value=64),
    st.floats(min_value=-64, max_value=64),
    st.text(max_size=4),
)
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=5))
_SOURCES = st.one_of(
    st.fixed_dictionaries({"trace": st.one_of(st.integers(min_value=-16, max_value=16), _JSON_VALUES)}),
    st.fixed_dictionaries(
        {"point_counts": st.one_of(st.lists(st.integers(min_value=-5, max_value=80), max_size=4), _JSON_VALUES)}
    ),
    st.fixed_dictionaries(
        {
            "numerator": st.one_of(
                st.lists(st.one_of(st.integers(min_value=-8, max_value=8), st.sampled_from(["1/2", "1/0", "x"])), max_size=5),
                _JSON_VALUES,
            )
        }
    ),
)
_CURVE_OBJECTS = st.one_of(
    st.dictionaries(st.sampled_from(["label", "q", "genus", "trace", "point_counts", "numerator", "numerater"]), _JSON_VALUES),
    st.builds(
        lambda head, source: {**head, **source},
        st.fixed_dictionaries(
            {
                "label": st.just("x"),
                "q": st.one_of(st.sampled_from([2, 3, 4, 5]), st.integers(min_value=-2, max_value=64)),
                "genus": st.one_of(st.just(1), st.integers(min_value=-1, max_value=3)),
            }
        ),
        _SOURCES,
    ),
)
# the step product stays at most 8: the tower cost grows with the steps
_TUPLES = st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3).filter(lambda t: prod(t) <= 8)


def _derive_exit_code(curve: str, steps: list) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out.json")
        return main(["derive", "--curve", curve, "--tuple", ",".join(map(str, steps)), "--output", out])


@given(_CURVE_STRINGS, _TUPLES)
def test_fuzzed_curve_strings_never_exit_3(curve, steps):
    assert _derive_exit_code(curve, steps) in (0, 1, 2)


@given(_CURVE_OBJECTS, _TUPLES)
def test_fuzzed_curve_json_never_exits_3(obj, steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.json"
        path.write_text(json.dumps(obj))
        assert _derive_exit_code(str(path), steps) in (0, 1, 2)
