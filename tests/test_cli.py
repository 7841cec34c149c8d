import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpaths import cli
from qpaths.cli import main
from qpaths.partition import ZCache, z_closed
from qpaths.qpoly import QPoly, QRational
from qpaths.verify import run_suites

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"
# A ``python -m qpaths`` child does not inherit pytest's ``pythonpath``.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])
)}

#: SHA-256 of ``qpaths sample`` stdout, recorded before the sampler's draw
#: loop was inlined; CI checks the first one through the installed script.
SAMPLE_SHA256 = {
    "--n 26 --m 26 --q 3/4 --count 200 --seed 7":
        "02b3eeb4039c04ab2c0ab88174afabe90a3afb0a51e473b7db6d4d03e67db6c6",
    "--n 40 --m 30 --q 999/1000 --count 50 --seed 3":
        "dcc3ba343292f12a38ebe4dbe570f3f1b92a321fe615ea8c73e97f6ed6df011a",
    "--n 20 --m 24 --q 1/3 --count 20 --seed 11 --format json":
        "c3282f98e286ef55d9bd7540311ebec0eeafc098907b62aeb264c6e86f584512",
}


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
        (["fluctuations", "--N", "4", "--L", "6", "--q", "1/2"],
         "need even 0 < L <= N, got N=4, L=6"),
        (["partition", "--n", "1", "--m", "1", "--float"], "--float needs --eval"),
        (["correlate", "--n", "2", "--m", "2", "--sites", "3:down", "--float"],
         "--float needs --eval"),
        # each of these fails at once with an OverflowError, before allocating anything
        *((argv, "the request is too large for this machine") for argv in (
            ["partition", "--n", "2", "--m", str(10**20)],
            ["correlate", "--n", "1", "--m", str(10**20), "--sites", "1:down"],
            ["fluctuations", "--N", str(10**20), "--L", "2", "--q", "1/2"],
            ["reduce2d", "--N", str(10**20), "--M", "1", "--k", "0"],
            ["reduce2d", "--N", "1", "--M", str(10**20), "--all"],
        )),
    ],
)
def test_diagnostic_names_the_precondition(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fluctuations", "--N", "4", "--L", "2", "--q", "0.99999999999999999999"],
        ["fluctuations", "--N", "54", "--L", "54", "--q", "0.999999999999"],
        ["fluctuations", "--N", "54", "--L", "54", "--q", "0.999999999999", "--float"],
    ],
    ids=["N4-exact", "N54-exact", "N54-float"],
)
def test_a_tail_bound_past_the_float_range_prints_as_null(argv, capsys):
    # There the bound is above 1 and bounds nothing; the probabilities still print.
    code, out = run_cli(argv, capsys)
    assert code == 0
    rows = json.loads(out)["result"]["distribution"]
    assert [row["tail_bound"] for row in rows] == [None] * len(rows)
    assert sum(Fraction(row["probability"]) for row in rows) == 1


@pytest.mark.parametrize("n, m", [(10**20, 0), (100_000, 100_000)])
def test_sample_refuses_tables_too_large_for_this_machine(n, m, capsys):
    # the sampler's power tables would need ~L^2 bits; refused before any is built
    argv = ["sample", "--n", str(n), "--m", str(m), "--q", "1/2", "--seed", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the request is too large for this machine\n"


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


def test_enumeration_cap_is_refused_before_any_work(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("enumerated before refusing the cap")

    monkeypatch.setattr("qpaths.verify.enumerate_paths", fail)
    monkeypatch.setattr("qpaths.verify.oracle_partition", fail)
    argv = ["verify", "identities", "--enum-limit", "23", "--max-nm", "2", "--count", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: box has 1144066 paths, above the cap of 1000000\n"


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

    @pytest.mark.parametrize("args", sorted(SAMPLE_SHA256))
    def test_seeded_output_is_pinned(self, args, capsys):
        # The paths depend on the seed and on nothing else; the JSON form
        # also carries the library version.
        code, out = run_cli(["sample", *args.split()], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_SHA256[args]


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

    def test_swept_eval_satisfies_float(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("eval = 1/2\n", encoding="utf-8")
        argv = ["partition", "--n", "1", "--m", "1", "--float", "--sweep", str(grid)]
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["result"]["value"] == 0.3125

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


@pytest.mark.parametrize(
    "argv, grid",
    [
        (["partition", "--m", "2"], {"n": ["0", "3"], "eval": ["1/3", "0.5"]}),
        (["correlate", "--n", "3", "--m", "3"], {"sites": ["3:down", "4:up"]}),
        (["correlate", "--n", "3", "--m", "3", "--eval", "1/3", "--float"], {"sites": ["3:down"]}),
        (["fluctuations", "--N", "6", "--q", "1/2"], {"L": ["2", "4"]}),
        (["sample", "--n", "3", "--m", "2", "--q", "1/2", "--count", "2"], {"seed": ["0", "1"]}),
        (["reduce2d", "--N", "2", "--M", "2", "--check"], {"k": ["0", "2"]}),
    ],
    ids=["partition", "correlate", "correlate-float", "fluctuations", "sample", "reduce2d"],
)
def test_each_sweep_line_equals_its_point_run_alone(argv, grid, tmp_path, capsys):
    # The compact and the indented form are one writer's; they hold the same values.
    path = tmp_path / "grid.cfg"
    path.write_text("".join(f"{name} = {', '.join(values)}\n" for name, values in grid.items()))
    code, out = run_cli([*argv, "--sweep", str(path)], capsys)
    assert code == 0
    lines = out.splitlines()
    points = list(itertools.product(*grid.values()))
    assert len(lines) == len(points)
    for line, values in zip(lines, points):
        swept = [tok for name, value in zip(grid, values) for tok in (f"--{name}", value)]
        code, alone = run_cli([*argv, *swept, "--format", "json"], capsys)
        assert code == 0
        assert json.loads(line) == json.loads(alone)


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
            ("verify_bounds_chain5.json", ["verify", "bounds", "--max-chain", "5"]),
            (
                "verify_all_small.csv",
                ["verify", "all", "--max-nm", "5", "--enum-limit", "5", "--count", "20",
                 "--max-chain", "4", "--format", "csv"],
            ),
        ],
    )
    def test_byte_identical(self, name, argv, capsys):
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert out == (DATA / name).read_text(encoding="utf-8")


def _memo_count_id(value):
    """Name a memo-traffic case by its number of memos (argv gets pytest's default id)."""
    return None if value and isinstance(value[0], str) else str(len(value))


@pytest.mark.parametrize(
    "argv, traffic",
    [
        (["partition", "--n", "3", "--m", "2", "--oracle"], []),
        (["partition", "--n", "3", "--m", "2", "--recursive"], []),
        (["correlate", "--n", "2", "--m", "2", "--sites", "3:down"], [(0, 3)]),
        (["fluctuations", "--N", "4", "--L", "2", "--q", "1/2"], [(0, 6)]),
        (["reduce2d", "--N", "2", "--M", "2", "--all", "--check"], [(0, 3)]),
        (["verify", "identities", "--max-nm", "3", "--count", "2"], [(92, 45)]),
        (["verify", "bounds", "--max-chain", "3"], [(413, 10)]),
        (["partition", "--n", "3", "--m", "2"], []),
        (["reduce2d", "--N", "2", "--M", "2", "--all"], []),
        (
            ["verify", "all", "--max-nm", "3", "--count", "2", "--max-chain", "3"],
            [(92, 45), (413, 10), (28, 11)],
        ),
        # at L = N the window's row is the chain's row, read from the same memo
        (["fluctuations", "--N", "6", "--L", "6", "--q", "1/2"], [(4, 4)]),
    ],
    ids=_memo_count_id,
)
def test_which_runs_make_a_cache(argv, traffic, monkeypatch, capsys):
    """The CLI opens no memo: one is made only by a verify suite or
    `fluctuation_distribution`, or by a `z_row` called with none open; each
    memo's (hits, misses) is pinned."""
    made = []
    init = ZCache.__init__

    def counting_init(cache):
        init(cache)
        made.append(cache)

    monkeypatch.setattr(ZCache, "__init__", counting_init)
    code, _ = run_cli(argv, capsys)
    assert code == 0
    assert [(cache.hits, cache.misses) for cache in made] == traffic


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


def test_reader_that_closes_the_pipe_partway_ends_the_run_quietly():
    # The writer streams, so it meets the closed pipe partway through the output.
    with subprocess.Popen(
        [sys.executable, "-m", "qpaths", "reduce2d", "--N", "8", "--M", "8", "--all", "--check"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()  # 2.4 MB of output remain unread
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == b"{\n"
    assert stderr == b""  # in particular, no Traceback
    assert code == 1


class CharCount:
    """A stdout that keeps nothing but the number of characters written to it."""

    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_the_json_writer_holds_no_copy_of_the_output():
    """The traced peak stays near the output's size: a writer that gathered
    its pieces, or joined them, before writing would hold several times more."""
    sink = CharCount()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["reduce2d", "--N", "8", "--M", "8", "--all", "--check"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 2_000_000
    assert peak <= 2 * sink.chars


def call(argv):
    """stdout, stderr and exit code of one in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors, --version
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def test_verify_defaults_are_the_librarys():
    out, err, code = call(["verify", "identities"])
    assert (err, code) == ("", 0)
    assert json.loads(out)["result"] == run_suites(["identities"]).to_json_obj()


def test_a_reused_parser_answers_as_a_fresh_one(tmp_path):
    grid = tmp_path / "grid.cfg"
    grid.write_text("n = 1, 2\nm = 0, 1\n")
    argvs = [
        ["partition", "--n", "3", "--m", "2", "--eval", "1/2"],
        ["partition", "--n", "2", "--m", "1", "--format", "csv"],
        ["correlate", "--n", "2", "--m", "2", "--sites", "3:down,4:up", "--eval", "1/3", "--float"],
        ["correlate", "--n", "2", "--m", "2", "--sites", "3:down", "--eval", "1/2", "--exact"],
        ["fluctuations", "--N", "6", "--L", "2", "--q", "1/2"],
        ["sample", "--n", "3", "--m", "3", "--q", "1/3", "--count", "4", "--seed", "5"],
        ["reduce2d", "--N", "2", "--M", "2", "--all", "--check"],
        ["verify", "fluctuations", "--max-chain", "2", "--format", "csv"],
        ["fluctuations", "--N", "4", "--L", "3", "--q", "1/2"],
        ["partition", "--sweep", str(grid)],
        ["--version"],
    ]
    argvs.append(argvs[0])
    cli._parsers.cache_clear()
    reused = [call(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._parsers.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    codes = [code for _, _, code in reused]
    assert codes == [0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0]
    assert "not allowed with argument" in reused[3][1]  # argparse's usage error
    assert reused[8][1].startswith("error: ")  # a precondition


def test_main_builds_its_parser_once_per_process(monkeypatch):
    # A tracer that wraps ``parse_args`` on each parser ``build_parser``
    # returns would nest its wrappers if that were one shared instance.
    assert cli.build_parser() is not cli.build_parser()
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parsers.cache_clear()
    try:
        for argv in (["partition", "--n", "1", "--m", "1"], ["partition", "--n", "2"], ["--version"]):
            call(argv)
    finally:
        cli._parsers.cache_clear()
    assert len(builds) == 1


#: The writer's arguments for each form, and the json.dumps arguments it matches.
FORMS = [(("\n", "  "), {"indent": 2}), (("", ""), {"separators": (",", ":")})]


def json_text(value, nl, step):
    out = []
    cli._write_json(value, out.append, nl, step)
    return "".join(out)


def stdlib_default(value):
    """What json.dumps is to encode for a value of no json type, as the writer does."""
    if isinstance(value, QPoly):
        return [[e, str(c)] for e, c in value.terms()]
    if isinstance(value, QRational):
        return {"den": value.den, "num": value.num}
    return str(value)


POLYS = st.one_of(
    st.just(QPoly.zero()),
    st.dictionaries(st.integers(0, 40), st.integers(-(10**6), 10**6), max_size=4).map(QPoly),
    st.integers(4300, 4400).map(lambda digits: QPoly({3: -(10**digits) + 7, 5: 1})),
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(4300, 4400).map(lambda digits: -(10**digits) + 7),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.2e-308, 1e16]),
    st.fractions(),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2603", "\ud800", "\U0001f600", "\"\\/\b\f\n\r\t"]),
    POLYS,
    st.builds(QRational, POLYS, POLYS.filter(bool)),
)
ENVELOPES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=250, deadline=None)
@given(ENVELOPES)
def test_json_writer_equals_the_stdlib_encoder(value):
    with cli._any_length_ints():
        for form, stdlib in FORMS:
            want = json.dumps(value, sort_keys=True, default=stdlib_default, **stdlib)
            assert json_text(value, *form) == want


@pytest.mark.parametrize("value", [{1: "a"}, {"a": [{None: 1}]}, {"a": 1, 2.5: 1}])
def test_json_writer_refuses_keys_that_are_not_str(value):
    # Envelopes have str keys only; json.dumps would convert these.
    for form, _ in FORMS:
        with pytest.raises(TypeError):
            json_text(value, *form)


def mostly(good, bad):
    """Values of ``good`` nine times in ten, else of ``bad``."""
    return st.integers(0, 9).flatmap(lambda i: good if i else bad)


#: Sizes of 6 or less, now and then negative or not an integer at all.
SIZES = mostly(st.integers(0, 6).map(str), st.sampled_from(["-1", "-2", "1.5", "x", "", "+3"]))
Q_TEXTS = mostly(
    st.sampled_from(["1/2", "0.3", "2/7", "9/10", "1e-3"]),
    st.sampled_from(["0", "1", "3/2", "-1/2", "1/0", "abc", "", "1e-400", "0.99999999999999999"]),
)
SITES = mostly(
    st.lists(st.tuples(st.integers(1, 6), st.sampled_from(["down", "up"])),
             min_size=1, max_size=3, unique_by=lambda pair: pair[0])
    .map(lambda pairs: ",".join(f"{x}:{spin}" for x, spin in pairs)),
    st.sampled_from(["", "0:down", "x:down", "3:left", "3", "1:down,,2:up"]),
)
FLAG = st.none()
FORMATS = st.sampled_from(["json", "csv", "text", "xml"])
EVEN_SIZES = mostly(st.sampled_from(["2", "4", "6"]), SIZES)

#: Per subcommand: the flags it always gets, the flags it needs (each left
#: out now and then) and the flags mixed in at random.  verify always gets
#: small sizes: its defaults take a tenth of a second or more.
COMMANDS = {
    "partition": (
        {},
        {"--n": SIZES, "--m": SIZES},
        {"--recursive": FLAG, "--oracle": FLAG, "--eval": Q_TEXTS, "--float": FLAG,
         "--cap": SIZES, "--format": FORMATS},
    ),
    "correlate": (
        {},
        {"--n": SIZES, "--m": SIZES, "--sites": SITES},
        {"--eval": Q_TEXTS, "--exact": FLAG, "--float": FLAG, "--format": FORMATS},
    ),
    "fluctuations": (
        {},
        {"--N": EVEN_SIZES, "--L": EVEN_SIZES, "--q": Q_TEXTS},
        {"--float": FLAG, "--format": FORMATS},
    ),
    "sample": (
        {},
        {"--n": SIZES, "--m": SIZES, "--q": Q_TEXTS, "--seed": SIZES},
        {"--count": SIZES, "--format": FORMATS},
    ),
    "reduce2d": (
        {},
        {"--N": SIZES, "--M": SIZES, "--k": SIZES},
        {"--all": FLAG, "--check": FLAG, "--format": FORMATS},
    ),
    "verify": (
        {"--max-nm": SIZES, "--enum-limit": SIZES, "--count": SIZES, "--max-chain": SIZES},
        {},
        {"--q-grid": st.sampled_from(["1/2", "1/5,4/5", "1/2,1", "", "1/2,,4/5"]), "--seed": SIZES,
         "--format": FORMATS},
    ),
}
SUITES = st.sampled_from(["identities", "bounds", "fluctuations", "all", "none"])


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    always, needed, mixed = COMMANDS[command]
    flags = [*always, *(flag for flag in needed if draw(st.integers(0, 9)))]  # needed: 9 in 10
    flags += draw(st.lists(st.sampled_from(sorted(mixed)), unique=True))
    argv = [command, draw(SUITES)] if command == "verify" else [command]
    for flag in draw(st.permutations(flags)):
        value = draw({**always, **needed, **mixed}[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
def test_fuzzed_argv_exits_0_1_or_2(argv):
    """Only argparse's SystemExit leaves main, and every exit 2 says why on stderr."""
    _, err, code = call(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err


def readme_block(heading, language):
    """The first ``language`` code block after ``heading`` in the README."""
    section = README.read_text(encoding="utf-8").split(heading + "\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_command_line_examples_run(capsys):
    commands = [shlex.split(line, comments=True)
                for line in readme_block("## Command line", "sh").splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "qpaths" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_readme_library_example_values():
    namespace = {}
    exec(readme_block("## Library example", "python"), namespace)
    assert namespace["value"] == Fraction(21, 1024)
    assert namespace["prob"].evaluate(Fraction(1, 2)) == Fraction(1, 357)
