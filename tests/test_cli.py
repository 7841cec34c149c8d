import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qpaths.cli import main
from qpaths.partition import ZCache, z_closed

DATA = Path(__file__).parent / "data"
# A ``python -m qpaths`` child does not inherit pytest's ``pythonpath``.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])
)}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestPartition:
    def test_closed_form_output(self, capsys):
        code, out = run_cli(["partition", "--n", "2", "--m", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["polynomial"] == [[6, "1"], [8, "1"], [10, "1"]]
        assert payload["command"] == "partition"
        assert payload["library_version"]
        assert payload["config"]["method"] == "closed"

    def test_methods_agree(self, capsys):
        outputs = []
        for flags in ([], ["--recursive"], ["--oracle"]):
            code, out = run_cli(["partition", "--n", "3", "--m", "2", *flags], capsys)
            assert code == 0
            outputs.append(json.loads(out)["result"]["polynomial"])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_exact_evaluation(self, capsys):
        code, out = run_cli(["partition", "--n", "1", "--m", "1", "--eval", "1/2"], capsys)
        payload = json.loads(out)
        assert payload["result"]["value"] == "5/16"
        assert payload["q_mode"] == "exact"

    def test_float_evaluation(self, capsys):
        code, out = run_cli(
            ["partition", "--n", "1", "--m", "1", "--eval", "0.5", "--float"], capsys
        )
        payload = json.loads(out)
        assert payload["result"]["value"] == 0.3125
        assert payload["q_mode"] == "float"

    def test_float_mode_reads_rationals(self, capsys):
        outs = []
        for q in ("1/2", "0.5"):
            code, out = run_cli(["partition", "--n", "2", "--m", "1", "--eval", q, "--float"], capsys)
            assert code == 0
            outs.append(out.replace(f'"eval": "{q}"', '"eval": Q'))  # config echoes the text
        assert outs[0] == outs[1]

    def test_exact_mode_keeps_a_q_that_rounds_to_zero_as_a_float(self, capsys):
        code, out = run_cli(["partition", "--n", "1", "--m", "1", "--eval", "1e-400"], capsys)
        assert code == 0
        value = z_closed(1, 1).evaluate(Fraction(1, 10**400))
        assert json.loads(out)["result"]["value"] == str(value)

    def test_csv_table(self, capsys):
        code, out = run_cli(["partition", "--n", "2", "--m", "1", "--format", "csv"], capsys)
        assert code == 0
        assert out == "exponent,coefficient\n6,1\n8,1\n10,1\n"

    def test_oracle_cap(self, capsys):
        code, _ = run_cli(
            ["partition", "--n", "12", "--m", "12", "--oracle", "--cap", "100"], capsys
        )
        assert code == 2

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["partition", "--n", "2"])
        assert err.value.code == 2

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    def test_exact_value_past_the_int_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out = run_cli(["partition", "--n", "80", "--m", "80", "--eval", "1/2"], capsys)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        value = json.loads(out)["result"]["value"]
        sys.set_int_max_str_digits(0)
        try:
            assert len(value) > 4300
            assert Fraction(value) == z_closed(80, 80).evaluate(Fraction(1, 2))
        finally:
            sys.set_int_max_str_digits(limit)

    def test_bad_q_is_a_diagnostic(self, capsys):
        code = main(["partition", "--n", "1", "--m", "1", "--eval", "3/2"])
        assert code == 2
        assert "q must lie strictly in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "--n", "1", "--m", "1", "--eval", "1/0"],
        ["correlate", "--n", "1", "--m", "1", "--sites", "2:down", "--eval", "1/0"],
        ["fluctuations", "--N", "4", "--L", "2", "--q", "1/0"],
        ["sample", "--n", "1", "--m", "1", "--q", "1/0", "--seed", "0"],
        ["verify", "identities", "--q-grid", "1/2,1/0"],
        ["partition", "--n", "1", "--m", "1", "--sweep", "no-such-sweep-file.cfg"],
        ["verify", "bounds", "--q-grid", "0"],
        ["verify", "bounds", "--q-grid", "1/2,1"],
        ["verify", "bounds", "--q-grid", "2"],
        ["verify", "identities", "--max-nm", "-1"],
        ["verify", "identities", "--enum-limit", "-1"],
        ["verify", "identities", "--count", "-1"],
        ["verify", "all", "--max-chain", "-1"],
        ["verify", "fluctuations", "--max-chain", "-1"],
        ["sample", "--n", "1", "--m", "1", "--q", "1/2", "--seed", "0", "--count", "-1"],
    ],
)
def test_bad_rational_or_sweep_file_is_a_diagnostic(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "bounds", "--q-grid", "1/2,1"], "q must lie strictly in (0, 1)"),
        (["verify", "identities", "--enum-limit", "-1"], "--enum-limit must be >= 0"),
        (["verify", "fluctuations", "--max-chain", "-1"], "--max-chain must be >= 0"),
        (["sample", "--n", "1", "--m", "1", "--q", "1/2", "--seed", "0", "--count", "-1"],
         "--count must be >= 0"),
        (["correlate", "--n", "2", "--m", "2", "--sites", "x:down"], "--sites entry 'x:down'"),
        (["partition", "--n", "1", "--m", "1", "--eval", "abc"],
         "q must be a rational such as 1/2 or 0.5, got 'abc'"),
        (["verify", "bounds", "--q-grid", "1/2,,4/5"],
         "q must be a rational such as 1/2 or 0.5, got ''"),
        (["partition", "--n", "1", "--m", "1", "--eval", "1e-400", "--float"],
         "q must lie strictly in (0, 1) as a float; 1e-400 rounds to 0.0"),
        (["partition", "--n", "1", "--m", "1", "--eval", "0.99999999999999999", "--float"],
         "q must lie strictly in (0, 1) as a float; 0.99999999999999999 rounds to 1.0"),
        (["partition", "--n", "2", "--m", "2", "--oracle", "--cap", "-1"], "--cap must be >= 0"),
        (["partition", "--n", "2", "--m", "2", "--cap", "-1"], "--cap must be >= 0"),
    ],
)
def test_diagnostic_names_the_precondition(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "--n", "1", "--m", "1", "--eval", "1e-1000000", "--float"],
        ["partition", "--n", "1", "--m", "1", "--eval", "1e-1000000"],
        ["partition", "--n", "1", "--m", "1", "--eval", "1/" + "7" * 4301],
        ["fluctuations", "--N", "4", "--L", "2", "--q", "0.5e-1000000"],
        ["sample", "--n", "1", "--m", "1", "--q", "1e-1000000", "--seed", "0"],
        ["verify", "bounds", "--q-grid", "1/2,1e-" + "9" * 5000],
    ],
)
def test_oversized_q_is_refused_before_expansion(argv, capsys):
    limit = sys.get_int_max_str_digits()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: q must have at most {limit} digits in numerator and denominator\n"


def test_zero_sizes_are_allowed(capsys):
    argv = ["sample", "--n", "1", "--m", "1", "--q", "1/2", "--seed", "0", "--count", "0"]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""


class TestCorrelate:
    def test_eval_mode(self, capsys):
        code, out = run_cli(
            ["correlate", "--n", "1", "--m", "1", "--sites", "2:down", "--eval", "1/2"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        check = payload["result"]["checks"][0]
        assert check["probability"] == "1/5"
        assert check["bound"] == "1/4"
        assert payload["result"]["bound_holds"] is True
        assert payload["result"]["in_regime"] is True

    def test_exact_mode_uses_default_grid(self, capsys):
        code, out = run_cli(
            ["correlate", "--n", "2", "--m", "2", "--sites", "3:down,4:down", "--exact"], capsys
        )
        payload = json.loads(out)
        assert payload["result"]["probability"]["num"] == [[14, "1"]]
        assert [c["q"] for c in payload["result"]["checks"]] == ["1/5", "1/2", "4/5"]
        assert payload["result"]["bound_exponent"] == 8

    def test_bad_sites_spec(self, capsys):
        code, _ = run_cli(["correlate", "--n", "1", "--m", "1", "--sites", "2:diag"], capsys)
        assert code == 2

    def test_inconsistent_query_is_exit_2(self, capsys):
        code, _ = run_cli(
            ["correlate", "--n", "1", "--m", "1", "--sites", "1:down,2:down"], capsys
        )
        assert code == 2


class TestFluctuations:
    def test_distribution_table(self, capsys):
        code, out = run_cli(["fluctuations", "--N", "4", "--L", "2", "--q", "1/2"], capsys)
        assert code == 0
        payload = json.loads(out)
        rows = {r["l"]: r for r in payload["result"]["distribution"]}
        assert set(rows) == {-1, 0, 1}
        assert rows[1]["probability"] == rows[-1]["probability"]
        assert rows[0]["tail_bound"] is None
        assert rows[1]["tail_bound"] > rows[1]["probability_float"]
        assert payload["result"]["window"] == [2, 3]

    def test_csv(self, capsys):
        code, out = run_cli(
            ["fluctuations", "--N", "4", "--L", "2", "--q", "1/2", "--format", "csv"], capsys
        )
        lines = out.splitlines()
        assert lines[0] == "l,probability,probability_float,tail_bound"
        assert len(lines) == 4

    def test_odd_window_rejected(self, capsys):
        code, _ = run_cli(["fluctuations", "--N", "4", "--L", "3", "--q", "1/2"], capsys)
        assert code == 2


class TestSample:
    def test_text_lines(self, capsys):
        code, out = run_cli(
            ["sample", "--n", "2", "--m", "2", "--q", "1/2", "--count", "3", "--seed", "7"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(line.startswith("(0,0):") for line in lines)
        assert all(sorted(line.split(":")[1]) == ["H", "H", "V", "V"] for line in lines)

    def test_deterministic(self, capsys):
        argv = ["sample", "--n", "3", "--m", "3", "--q", "1/3", "--count", "5", "--seed", "11"]
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second

    def test_json_envelope(self, capsys):
        code, out = run_cli(
            [
                "sample", "--n", "1", "--m", "1", "--q", "1/2",
                "--count", "2", "--seed", "0", "--format", "json",
            ],
            capsys,
        )
        payload = json.loads(out)
        assert len(payload["result"]["paths"]) == 2


class TestReduce2d:
    def test_check_passes(self, capsys):
        code, out = run_cli(["reduce2d", "--N", "3", "--M", "3", "--k", "3", "--check"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["check_passed"] is True
        term = payload["result"]["terms"][0]
        assert term["compositions"] == [[2, 0, 0, 1], [1, 1, 1, 0], [0, 3, 0, 0]]
        assert term["polynomial"][0] == [18, "1"]

    def test_all_k(self, capsys):
        code, out = run_cli(["reduce2d", "--N", "2", "--M", "2", "--all", "--check"], capsys)
        payload = json.loads(out)
        assert len(payload["result"]["terms"]) == 5
        assert payload["result"]["check_passed"] is True

    def test_requires_k_or_all(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["reduce2d", "--N", "2", "--M", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("k", ["-1", "5"])
    def test_k_out_of_range_is_a_diagnostic(self, k, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("built the polynomials before checking --k")

        monkeypatch.setattr("qpaths.cli.z2d_oracle", refuse)
        assert main(["reduce2d", "--N", "2", "--M", "2", "--k", k]) == 2
        assert capsys.readouterr().err == f"error: --k must lie in [0, 4], got {k}\n"

    def test_only_check_runs_the_reduction(self, monkeypatch, capsys):
        argv = ["reduce2d", "--N", "3", "--M", "4", "--all"]
        with monkeypatch.context() as patch:
            def refuse(*args):
                raise AssertionError("z2d_reduction called without --check")

            patch.setattr("qpaths.cli.z2d_reduction", refuse)
            code, out = run_cli(argv, capsys)
        assert code == 0
        assert "check_passed" not in json.loads(out)["result"]
        code, out = run_cli([*argv, "--check"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["check_passed"] is True


class TestVerify:
    def test_identities_pass(self, capsys):
        code, out = run_cli(
            ["verify", "identities", "--max-nm", "5", "--enum-limit", "5", "--count", "20"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["passed"] is True
        names = [r["name"] for r in payload["result"]["records"]]
        assert "pascal-upper-corner" in names and "markov-cut-factorization" in names

    def test_csv_report(self, capsys):
        code, out = run_cli(
            [
                "verify", "identities", "--max-nm", "4", "--enum-limit", "4",
                "--count", "10", "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "name,instances,failure_count,informational,passed"


class TestSweep:
    def test_grid_over_sectors(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("n = 1, 2\nm = 1, 2  # endpoint\n", encoding="utf-8")
        argv = ["partition", "--n", "0", "--m", "0", "--sweep", str(grid)]
        code, out = run_cli(argv, capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        configs = [json.loads(line)["config"] for line in lines]
        assert [(c["n"], c["m"]) for c in configs] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_swept_flag_needs_no_placeholder(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("n = 1, 2\n", encoding="utf-8")
        code, out = run_cli(["partition", "--m", "1", "--sweep", str(grid)], capsys)
        assert code == 0
        configs = [json.loads(line)["config"] for line in out.splitlines()]
        assert [(c["n"], c["m"]) for c in configs] == [(1, 1), (2, 1)]

    def test_verify_takes_no_sweep(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("seed = 1, 2\n", encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            main(["verify", "identities", "--sweep", str(grid)])
        assert err.value.code == 2

    def test_sweep_deterministic(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("L = 2, 4\n", encoding="utf-8")
        argv = ["fluctuations", "--N", "8", "--L", "2", "--q", "1/2", "--sweep", str(grid)]
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second

    def test_empty_grid_rejected(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("# nothing here\n", encoding="utf-8")
        code, _ = run_cli(["partition", "--n", "1", "--m", "1", "--sweep", str(grid)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n =\n", "sweep flag --n has no values in "),
            ("n = 1\nm = 2\nn = 2\n", "sweep flag --n is listed twice in "),
        ],
        ids=["no-values", "listed-twice"],
    )
    def test_malformed_flag_line_is_a_diagnostic(self, text, message, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text(text, encoding="utf-8")
        assert main(["partition", "--m", "1", "--sweep", str(grid)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}{grid}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["partition", "--m", "1"],
            ["fluctuations", "--N", "4", "--L", "2", "--q", "1/2"],
        ],
        ids=["partition", "fluctuations"],
    )
    def test_flag_the_subcommand_lacks_is_a_diagnostic(self, argv, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("bogus = 1, 2\n", encoding="utf-8")
        assert main([*argv, "--sweep", str(grid)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sweep flag --bogus is not an option of {argv[0]}\n"

    def test_every_point_is_parsed_before_any_runs(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("n = 1, x\n", encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            main(["partition", "--m", "1", "--sweep", str(grid)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --n: invalid int value: 'x'" in captured.err


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("partition_n2_m1.json", ["partition", "--n", "2", "--m", "1"]),
            ("fluctuations_N4_L2.json", ["fluctuations", "--N", "4", "--L", "2", "--q", "1/2"]),
            (
                "correlate_n2_m2_34down.json",
                ["correlate", "--n", "2", "--m", "2", "--sites", "3:down,4:down"],
            ),
            ("reduce2d_N2_M2.json", ["reduce2d", "--N", "2", "--M", "2", "--all", "--check"]),
            (
                "sample_n3_m3.txt",
                ["sample", "--n", "3", "--m", "3", "--q", "1/2", "--count", "4", "--seed", "5"],
            ),
            ("partition_n2_m1.csv", ["partition", "--n", "2", "--m", "1", "--format", "csv"]),
            ("reduce2d_N3_M4.json", ["reduce2d", "--N", "3", "--M", "4", "--all", "--check"]),
        ],
    )
    def test_byte_identical(self, name, argv, capsys):
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert out == (DATA / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, caches",
    [
        (["partition", "--n", "3", "--m", "2", "--oracle"], 0),
        (["partition", "--n", "3", "--m", "2", "--recursive"], 0),
        (["partition", "--n", "3", "--m", "2"], 1),
        (["correlate", "--n", "2", "--m", "2", "--sites", "3:down"], 1),
        (["fluctuations", "--N", "4", "--L", "2", "--q", "1/2"], 1),
        (["reduce2d", "--N", "2", "--M", "2", "--all", "--check"], 1),
        (["verify", "identities", "--max-nm", "3", "--count", "2"], 1),
    ],
)
def test_which_runs_make_a_cache(argv, caches, monkeypatch, capsys):
    made = []

    def counting_cache():
        made.append(ZCache())
        return made[-1]

    monkeypatch.setattr("qpaths.cli.ZCache", counting_cache)
    code, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(made) == caches


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qpaths", "partition", "--n", "1", "--m", "1"],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["polynomial"] == [[2, "1"], [4, "1"]]


def test_stdout_closed_by_its_reader_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qpaths", "fluctuations", "--N", "8", "--L", "4",
             "--q", "1e-200", "--float"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""  # in particular, no Traceback
    assert proc.returncode == 1
