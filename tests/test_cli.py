import json
import time

import pytest

from permci.cli import main, read_subject_file
from permci.core import ObservedCounts
from permci.missing import MaskedCounts
from permci import montecarlo, unbalanced
from permci.montecarlo import McConfig
from permci.unbalanced import unbalanced_interval


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_reference_row(capsys):
    code, out, _ = run_cli(capsys, "exact", "--counts", "2,6,8,0", "--alpha", "0.05")
    assert code == 0
    assert "interval_scaled: [-14, -5]" in out


def test_exact_interval_contains_estimate(capsys):
    code, out, _ = run_cli(capsys, "exact", "--counts", "1,0,0,1", "--alpha", "0.5")
    assert code == 0
    assert "estimate: 1" in out
    data = dict(line.split(": ", 1) for line in out.strip().splitlines())
    lo, hi = json.loads(data["interval_scaled"])
    assert lo <= 2 <= hi  # scaled estimate n*T = 2


def test_exact_json_schema(capsys):
    code, out, _ = run_cli(capsys, "exact", "--counts", "8,4,5,7", "--format", "json")
    assert code == 0
    report = json.loads(out)
    for field in ("interval_scaled", "interval", "estimate", "alpha", "method", "tests", "k", "seed", "wall_ms"):
        assert field in report
    assert report["interval_scaled"] == [-3, 13]


def test_unbalanced_auto(capsys):
    code, out, _ = run_cli(capsys, "exact", "--counts", "1,0,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["method"] == "general-exact"


def assert_usage_exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_malformed_counts_usage_error(capsys):
    assert_usage_exit(["exact", "--counts", "0,0,0,0"], capsys)
    assert_usage_exit(["exact", "--counts", "1,2,3"], capsys)
    assert_usage_exit(["exact"], capsys)  # missing required argument


def test_bad_alpha_usage_error(capsys):
    assert_usage_exit(["exact", "--counts", "1,1,1,1", "--alpha", "1.5"], capsys)


def test_mc_eps_must_be_below_alpha(capsys):
    code = main(["mc", "--counts", "1,1,1,1", "--alpha", "0.05", "--eps", "0.05", "--seed", "1"])
    assert code == 2
    capsys.readouterr()


def test_mc_deterministic_output(capsys):
    args = ["mc", "--counts", "6,4,4,6", "--alpha", "0.05", "--eps", "0.02", "--k", "2000", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # text output carries no timing


def test_mc_json_wall_ms_is_only_unstable_field(capsys):
    args = [
        "mc", "--counts", "6,4,4,6", "--alpha", "0.05", "--eps", "0.02",
        "--k", "2000", "--seed", "0x10", "--format", "json",
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_ms"), r2.pop("wall_ms")
    assert r1 == r2
    assert r1["seed"] == 16  # hex token accepted


def test_mc_threads_do_not_change_result(capsys):
    base = ["mc", "--counts", "5,3,2,6", "--alpha", "0.05", "--eps", "0.02", "--k", "3000", "--seed", "5", "--format", "json"]
    _, out1, _ = run_cli(capsys, *base, "--threads", "1")
    _, out2, _ = run_cli(capsys, *base, "--threads", "2")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_ms"), r2.pop("wall_ms")
    assert r1 == r2


def test_mc_auto_k_widens_around_exact(capsys):
    # auto-K run at coverage target 0.05 with eps=0.005: the result must
    # contain the exact 95% interval [-4, 10] with the union-bound failure
    # probability; the seed is fixed so the assertion is deterministic.
    code, out, _ = run_cli(
        capsys, "mc", "--counts", "6,4,4,6", "--alpha", "0.05", "--eps", "0.005",
        "--seed", "7", "--format", "json", "--threads", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["k"] == report["k_recommended"]
    lo, hi = report["interval_scaled"]
    assert lo <= -4 and hi >= 10


def test_mc_low_k_flagged(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--counts", "6,4,4,6", "--alpha", "0.05", "--eps", "0.005",
        "--k", "1", "--seed", "3",
    )
    assert code == 0
    assert "below the recommended" in out


def test_enum_alias_rh(capsys):
    code, out, _ = run_cli(capsys, "rh", "--counts", "8,4,5,7", "--alpha", "0.05", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["tests"] == 2160
    assert report["interval_scaled"] == [-3, 13]


def test_enum_over_the_tuple_cap_is_an_analysis_error(capsys):
    # 101^4 imputation tuples would need 0.8 GiB of keys; refused at once.
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "enum", "--counts", "100,100,100,100")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (1, "")
    assert err.startswith("analysis error: the enumeration of 104060401 imputation tuples")
    assert "permci exact" in err


def test_exact_over_the_general_design_limit_is_an_analysis_error(capsys):
    # The general-design exact search would run for days at n = 2000; refused at once.
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "exact", "--counts", "300,300,500,900")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (1, "")
    assert err.startswith("analysis error: the general-design exact search is limited to n <= 300")
    assert "got n=2000" in err
    assert "mc" not in err  # Monte Carlo is slower still on unequal groups


def test_missing_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("z,y\n1,1\n1,0\n0,1\n0,0\n")
    code, out, _ = run_cli(capsys, "missing", "--file", str(path), "--alpha", "0.2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["plus_counts"] == report["minus_counts"] == [1, 1, 1, 1]
    # no missing cells: identical to the complete-data run
    code, out, _ = run_cli(capsys, "exact", "--counts", "1,1,1,1", "--alpha", "0.2", "--format", "json")
    assert json.loads(out)["interval_scaled"] == report["interval_scaled"]


def test_missing_file_errors(tmp_path, capsys):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("treat,outcome\n1,1\n")
    assert main(["missing", "--file", str(bad_header)]) == 2
    capsys.readouterr()
    bad_row = tmp_path / "r.csv"
    bad_row.write_text("z,y\n1,maybe\n0,1\n")
    assert main(["missing", "--file", str(bad_row)]) == 2
    capsys.readouterr()
    missing_file = tmp_path / "nope.csv"
    assert main(["missing", "--file", str(missing_file)]) == 1
    capsys.readouterr()


def test_missing_pad_odd(tmp_path, capsys):
    path = tmp_path / "odd.csv"
    path.write_text("z,y\n1,1\n1,0\n0,1\n")
    code, out, _ = run_cli(capsys, "missing", "--file", str(path), "--pad-odd", "--format", "json")
    assert code == 0
    assert json.loads(out)["method"] == "bracketed-balanced"


def test_read_subject_file_na(tmp_path):
    path = tmp_path / "d.csv"
    # Spreadsheet "CSV UTF-8" exports start with a byte-order mark.
    for encoding in ("utf-8", "utf-8-sig"):
        path.write_text("z,y\n1,NA\n0,1\n", encoding=encoding)
        data = read_subject_file(str(path))
        assert data == MaskedCounts(0, 0, 1, 1, 0, 0)


def test_read_subject_file_returns_the_tally(tmp_path):
    path = tmp_path / "d.csv"
    body = "z,y\n1,1\n1,0\n1,NA\n1,1\n\n0,1\n0,0\n0,na\n0,NA\n0,0\n0,0\n"
    for encoding in ("utf-8", "utf-8-sig"):
        path.write_text(body, encoding=encoding)
        assert read_subject_file(str(path)) == MaskedCounts(2, 1, 1, 1, 3, 2)


def test_one_subject_file_is_a_usage_error_with_or_without_padding(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("z,y\n1,1\n")
    for extra in ([], ["--pad-odd"]):
        code, out, err = run_cli(capsys, "missing", "--file", str(path), *extra)
        assert (code, out) == (2, "")
        assert err == "usage error: need at least two subjects\n"


def test_subject_file_value_errors_name_the_line(tmp_path, capsys):
    path = tmp_path / "d.csv"
    for body, line in (("z,y\n1,1\n0,2\n", 3), ("z,y\n1,1\n2,0\n0,1\n", 3)):
        path.write_text(body)
        code, _, err = run_cli(capsys, "missing", "--file", str(path))
        assert code == 2
        assert err.startswith(f"usage error: line {line}: ")


def test_mc_eps_without_a_finite_k_is_a_usage_error(capsys):
    # eps**2 underflows to 0: no finite number of samples meets the rules.
    for counts in ("5,5,5,5", "3,2,6,9"):
        code, out, err = run_cli(capsys, "mc", "--counts", counts, "--eps", "1e-200", "--seed", "1")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: eps=1e-200 ")


def test_mc_k_over_the_sample_cap_is_an_analysis_error(capsys, monkeypatch):
    # The rule picks K = 1,574,921,581, whose split arrays would take 47 GiB;
    # the cap refuses it before anything is sampled.
    def no_sampling(*args):
        raise AssertionError("sampled past the cap")

    monkeypatch.setattr(montecarlo, "sample_splits", no_sampling)
    monkeypatch.setattr(unbalanced, "sample_splits", no_sampling)
    code, out, err = run_cli(capsys, "mc", "--counts", "5,5,5,5", "--eps", "1e-4", "--seed", "1")
    assert (code, out) == (1, "")
    assert err.startswith("analysis error: k=1574921581 samples per test need 46.9 GiB")
    assert "use eps >= 0.0014 or a smaller k" in err


def test_validate_is_not_a_subcommand(capsys):
    for command in ("validate", "bench"):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_bad_k_usage_error(capsys):
    base = ["mc", "--counts", "3,2,6,9", "--eps", "0.02", "--seed", "7"]
    assert_usage_exit(base + ["--k", "abc"], capsys)
    assert_usage_exit(base + ["--k", "0"], capsys)


def test_mc_eps_must_be_below_the_effective_level(capsys):
    # eps = 0.03 < alpha = 0.05, but the tests would run at alpha - eps = 0.02 < eps.
    code, _, err = run_cli(
        capsys, "mc", "--counts", "3,2,6,9", "--alpha", "0.05", "--eps", "0.03", "--seed", "7"
    )
    assert code == 2
    assert "--alpha 0.05" in err and "alpha - eps = 0.02)" in err


def test_mc_unequal_groups_counts_line_points(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--counts", "3,2,6,9", "--eps", "0.02", "--k", "500", "--seed", "7",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    cfg = McConfig(alpha=report["alpha_effective"], eps=0.02, k=500, seed=7)
    direct = unbalanced_interval(ObservedCounts(3, 2, 6, 9), mode="mc", cfg=cfg)
    assert direct.line_points > 0
    assert report["tests"] == direct.base_tests + direct.line_points


def test_bench_and_mc_option_types(capsys):
    base = ["mc", "--counts", "6,4,4,6", "--eps", "0.02", "--seed", "7"]
    assert_usage_exit(base + ["--threads", "0"], capsys)
    assert_usage_exit(base + ["--threads", "-3"], capsys)
    assert_usage_exit(base + ["--threads", "two"], capsys)


def test_bad_thread_count_from_environment_usage_error(capsys, monkeypatch):
    base = ["mc", "--counts", "6,4,4,6", "--eps", "0.02", "--k", "200", "--seed", "7"]
    for value in ("0", "-4", "abc"):
        monkeypatch.setenv("PERMCI_THREADS", value)
        assert_usage_exit(base, capsys)
    monkeypatch.setenv("PERMCI_THREADS", "2")
    assert main(base) == 0
    capsys.readouterr()
