import json
import subprocess
import sys

import pytest

from misere import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_prints_named_brace_and_interchange(capsys):
    code, out, _ = run(capsys, "parse", "{0,*|0}")
    assert code == 0
    named, brace, doc = out.strip().splitlines()
    assert named == "{0,*|0}"
    assert brace == "{{|},{{|}|{|}}|{|}}"
    assert json.loads(doc) == {
        "L": [{"L": [], "R": []},
              {"L": [{"L": [], "R": []}], "R": [{"L": [], "R": []}]}],
        "R": [{"L": [], "R": []}]}


def test_outcome_text_and_normal(capsys):
    assert run(capsys, "outcome", "*") == (0, "P\n", "")
    assert run(capsys, "outcome", "M(2)") == (0, "L\n", "")
    assert run(capsys, "outcome", "M(2)", "--normal") == (0, "R\n", "")


def test_strong_outcome_text(capsys):
    code, out, _ = run(capsys, "strong-outcome", "{*|0}")
    assert code == 0
    assert out == "P (left R, right L)\n"


def test_sum_and_conj(capsys):
    assert run(capsys, "sum", "1", "1")[1] == "2\n"
    assert run(capsys, "sum", "1", "-1", "0")[1] == "{-1|1}\n"
    assert run(capsys, "conj", "{0|*}")[1] == "{*|0}\n"


def test_compare_verdicts(capsys):
    assert run(capsys, "compare", "M(1)", "M(2)", "--universe", "dead-ending")[1] == ">=\n"
    assert run(capsys, "compare", "M(2)", "M(1)", "--universe", "dead-ending")[1] == "<=\n"
    assert run(capsys, "compare", "{*|*}", "0", "--universe", "dicot")[1] == "=\n"
    assert run(capsys, "compare", "0", "1", "--universe", "dead-ending")[1] == "incomparable\n"
    assert run(capsys, "compare", "1", "0", "--universe", "normal")[1] == ">=\n"
    assert run(capsys, "compare", "*", "0", "--universe", "normal")[1] == "incomparable\n"


def test_reduce_with_trace(capsys):
    code, out, _ = run(capsys, "reduce", "{-1|0,*}",
                       "--universe", "dead-ending", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "{-1|0,1}"
    assert "substitute-murder [R]: {-1|0,*} -> {-1|0,1}" in lines[1:]


def test_reduce_structured_trace(capsys):
    code, out, _ = run(capsys, "reduce", "3+-7", "--universe", "dead-ending",
                       "--trace", "--format", "structured")
    doc = json.loads(out)
    assert doc["named"] == "-4"
    assert {"rule", "side", "before", "after"} == set(doc["trace"][0])


def test_distinguish_text(capsys):
    code, out, _ = run(capsys, "distinguish", "M(0)", "M(1)",
                       "--universe", "dead-ending")
    assert code == 0
    assert out == "fails-with-witness: 0\n"
    code, out, _ = run(capsys, "distinguish", "0", "{-1|-1,1}",
                       "--universe", "dead-ending",
                       "--max-rank", "1", "--max-options", "2")
    assert out == "inconclusive\n"


def test_enumerate_listing_and_census(capsys):
    code, out, _ = run(capsys, "enumerate", "--universe", "dicot",
                       "--max-rank", "2", "--max-options", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 10
    code, out, _ = run(capsys, "enumerate", "--universe", "dicot",
                       "--max-rank", "2", "--max-options", "4",
                       "--census", "--format", "structured")
    doc = json.loads(out)
    assert doc["total"] == 10
    assert doc["class_count"] == 9


def test_verify_subcommands_exit_zero(capsys):
    for args in (("verify", "murders"),
                 ("verify", "ends"),
                 ("verify", "conjugate", "--universe", "dicot"),
                 ("verify", "uniqueness", "--universe", "dicot"),
                 ("verify", "embedding", "--universe", "dicot")):
        code, out, _ = run(capsys, *args)
        assert code == 0, args
        assert "0 violations" in out or "violations: 0" in out


def test_structured_mode_emits_single_document(capsys):
    code, out, _ = run(capsys, "verify", "murders", "--format", "structured")
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["violations"] == []


def test_exit_code_for_parse_errors(capsys):
    code, _, err = run(capsys, "outcome", "{0|")
    assert code == 3
    assert "byte 3" in err


def test_exit_code_for_domain_errors(capsys):
    code, _, err = run(capsys, "compare", "1", "0", "--universe", "dicot")
    assert code == 4
    assert "not dicot" in err
    code, _, err = run(capsys, "strong-outcome", "{{|1}|0}")
    assert code == 4


def test_exit_code_for_resource_caps(capsys):
    code, _, err = run(capsys, "enumerate", "--universe", "dead-ending",
                       "--max-rank", "3", "--max-options", "4")
    assert code == 5
    assert "cap" in err
    code, _, err = run(capsys, "enumerate", "--universe", "dead-ending",
                       "--max-rank", "9")
    assert code == 4


def test_exit_code_for_usage_errors():
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-command"])
    assert err.value.code == 2


def test_budget_env_vars_feed_defaults(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_MAX_RANK, "1")
    monkeypatch.setenv(cli.ENV_MAX_OPTIONS, "2")
    code, out, _ = run(capsys, "enumerate", "--universe", "dicot")
    assert out.strip().splitlines() == ["0", "*"]
    # explicit flags beat the environment
    code, out, _ = run(capsys, "enumerate", "--universe", "dicot",
                       "--max-rank", "2", "--max-options", "2")
    assert len(out.strip().splitlines()) == 10


def test_installed_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "misere.cli", "outcome", "*"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "P\n"


@pytest.mark.parametrize("target", ["conjugate", "embedding"])
def test_verify_scans_honour_budget_flags(capsys, target):
    code, out, _ = run(capsys, "verify", target, "--max-rank", "1",
                       "--max-options", "1", "--format", "structured")
    assert code == 0
    # 0, {0|}, {|0} and {0|0}, not the 232 games of the default slice
    assert json.loads(out)["counts"]["games"] == 4


@pytest.mark.parametrize("target", ["murders", "ends"])
@pytest.mark.parametrize("flag", ["--max-rank", "--max-options"])
def test_fixed_budget_scans_refuse_budget_flags(capsys, target, flag):
    code, out, err = run(capsys, "verify", target, flag, "1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "fixed budget" in err


def test_out_of_range_budgets_are_usage_errors(capsys, monkeypatch):
    code, out, err = run(capsys, "enumerate", "--universe", "dicot",
                         "--max-options", "0")
    assert (code, out) == (2, "") and "--max-options" in err
    code, out, err = run(capsys, "distinguish", "0", "1",
                         "--universe", "dead-ending", "--max-rank", "-1")
    assert (code, out) == (2, "") and "--max-rank" in err
    monkeypatch.setenv(cli.ENV_MAX_RANK, "-3")
    code, out, err = run(capsys, "verify", "uniqueness")
    assert (code, out) == (2, "") and cli.ENV_MAX_RANK in err
    assert "Traceback" not in err


@pytest.mark.parametrize("target", ["murders", "ends"])
@pytest.mark.parametrize("universe", ["dicot", "dead-ending"])
def test_fixed_universe_scans_refuse_universe_flag(capsys, target, universe):
    code, out, err = run(capsys, "verify", target, "--universe", universe)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "--universe" in err


def test_verify_universe_defaults_to_dead_ending(capsys):
    code, out, _ = run(capsys, "verify", "conjugate", "--max-rank", "1",
                       "--max-options", "1", "--format", "structured")
    assert code == 0
    assert json.loads(out)["universe"] == "dead-ending"
    code, out, _ = run(capsys, "verify", "ends")
    assert code == 0
    assert out.startswith("scan ends [dead-ending]")


@pytest.mark.parametrize("name", [cli.ENV_MAX_RANK, cli.ENV_MAX_OPTIONS])
def test_non_integer_budget_env_var_is_usage_error(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    code, out, err = run(capsys, "enumerate", "--universe", "dicot")
    assert (code, out) == (2, "")
    assert name in err and "integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["parse", "5000"],
                                  ["reduce", "--universe", "dead-ending", "5000"]])
def test_games_deeper_than_the_recursion_limit_exit_5(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (5, "")
    assert len(err.splitlines()) == 1 and "recursion" in err
    assert "Traceback" not in err


def test_reduction_pass_cap_exits_5(capsys, monkeypatch):
    from misere import canonical

    monkeypatch.setattr(canonical, "_PASS_CAP", 0)
    monkeypatch.setattr(canonical, "_CANON", {})
    code, out, err = run(capsys, "reduce", "--universe", "dicot", "{*|0}")
    assert (code, out) == (5, "")
    assert len(err.splitlines()) == 1 and "fixpoint" in err


@pytest.mark.parametrize("game", ["-300", "M(300)"])
def test_strong_outcome_of_deep_chains(capsys, game):
    assert run(capsys, "strong-outcome", game) == (0, "L (left L, right L)\n", "")


@pytest.mark.parametrize("target", ["murders", "ends", "conjugate", "embedding"])
def test_scans_without_a_sample_refuse_seed(capsys, target):
    code, out, err = run(capsys, "verify", target, "--seed", "99")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "--seed" in err


def test_uniqueness_scan_reports_the_seed_it_used(capsys):
    budget = ("--universe", "dicot", "--max-rank", "1", "--format", "structured")
    code, out, _ = run(capsys, "verify", "uniqueness", *budget)
    assert code == 0 and json.loads(out)["seed"] == 1729
    code, out, _ = run(capsys, "verify", "uniqueness", "--seed", "99", *budget)
    assert code == 0 and json.loads(out)["seed"] == 99


def test_embedding_scan_reports_no_seed(capsys):
    code, out, _ = run(capsys, "verify", "embedding", "--universe", "dicot",
                       "--max-rank", "1", "--format", "structured")
    assert code == 0
    assert json.loads(out)["seed"] is None


def test_enumerate_listing_refuses_seed(capsys):
    code, out, err = run(capsys, "enumerate", "--universe", "dicot",
                         "--max-rank", "1", "--seed", "5")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "--seed" in err


def test_enumerate_census_reports_the_seed_it_used(capsys):
    budget = ("--universe", "dicot", "--max-rank", "1", "--census",
              "--format", "structured")
    code, out, _ = run(capsys, "enumerate", *budget)
    assert code == 0 and json.loads(out)["seed"] == 1729
    code, out, _ = run(capsys, "enumerate", "--seed", "5", *budget)
    assert code == 0 and json.loads(out)["seed"] == 5


@pytest.mark.parametrize("game", ["²", "１", "M(٣)"])
def test_non_ascii_digits_are_notation_errors(capsys, game):
    code, out, err = run(capsys, "parse", game)
    assert (code, out) == (3, "")
    assert err.startswith("notation error: ") and "Traceback" not in err


def test_parse_error_offset_counts_utf8_bytes(capsys):
    code, _, err = run(capsys, "outcome", "{0|\u3000")
    assert (code, err) == (3, "notation error: expected a game at byte 6\n")


def _help(parser, argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        parser.parse_args(argv)
    assert exit_.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_one_subparser_parses_and_prints_as_all_of_them(capsys, name):
    lean, full = cli.build_parser(name), cli.build_parser()
    assert lean.format_usage() == full.format_usage()
    assert _help(lean, [name, "-h"], capsys) == _help(full, [name, "-h"], capsys)


def test_usage_errors_print_the_full_usage(capsys):
    usage = cli.build_parser().format_usage()
    assert "{parse,outcome," in usage
    for argv, message in (
            (["compare", "1", "2", "--universe", "dicot", "--bogus"],
             "misere: error: unrecognized arguments: --bogus\n"),
            (["nope"], "misere: error: argument command: invalid choice: 'nope'"),
            ([], "misere: error: the following arguments are required: command\n")):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert err.startswith(usage) and message in err, argv
