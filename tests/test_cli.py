import json
import os

import pytest

from cli_manifest import GOLDEN_COMMANDS
from veq import cli
from veq.errors import InvariantError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")


@pytest.fixture(autouse=True)
def _at_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("VEQ_BUDGET", raising=False)


@pytest.mark.parametrize(
    "name,argv,want_exit",
    GOLDEN_COMMANDS,
    ids=[name for name, _, _ in GOLDEN_COMMANDS],
)
def test_golden(name, argv, want_exit, capsys):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN_DIR, name + ".txt")) as fh:
        want = fh.read()
    assert out == want
    assert code == want_exit


def test_unknown_verb(capsys):
    code = cli.main(["frobnicate", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown verb" in captured.err


def test_undefined_name(capsys):
    code = cli.main(["solve", "Nope", "--json", "-f", "corpus/finset.veq"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "undefined system 'Nope'" in captured.err


def test_missing_workspace(capsys):
    code = cli.main(["solve", "E", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "undefined system 'E'" in captured.err


def test_parse_error_in_file(tmp_path, capsys):
    bad = tmp_path / "bad.veq"
    bad.write_text("set A = {\n")
    code = cli.main(["solve", "E", "--json", "-f", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("veq: ")


def test_load_invariant_error_in_file(tmp_path, capsys):
    bad = tmp_path / "bad.veq"
    bad.write_text(
        "set A = {a}\n"
        "set B = {x}\n"
        "fun p : A -> B = {a -> x}\n"
        "fun q : B -> A = {x -> a}\n"
        "system E on A { p ~ q }\n"
    )
    code = cli.main(["solve", "E", "--json", "-f", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "system E" in captured.err


def test_usage_error(capsys):
    code = cli.main(["recurrence", "fib", "2", "--json",
                     "-f", "corpus/series.veq"])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage:" in captured.err


def test_negative_order_is_usage_error(capsys):
    code = cli.main(["recurrence", "fib", "order", "-1", "--json",
                     "-f", "corpus/series.veq"])
    captured = capsys.readouterr()
    assert code == 2
    assert "non-negative" in captured.err


def test_precision_exhausted_is_argument_error(capsys):
    code = cli.main(["recurrence", "fib", "order", "2", "--prec", "3",
                     "--json", "-f", "corpus/series.veq"])
    captured = capsys.readouterr()
    assert code == 2
    assert "PrecisionExhausted" in captured.err


def test_internal_violation_exits_3(monkeypatch, capsys):
    def boom(ws, args, opts):
        raise InvariantError("synthetic breakage")

    monkeypatch.setitem(cli.HANDLERS, "solve", boom)
    code = cli.main(["solve", "E", "--json", "-f", "corpus/finset.veq"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "internal invariant violated" in captured.err


def test_budget_env_default(monkeypatch, capsys):
    monkeypatch.setenv("VEQ_BUDGET", "5")
    code = cli.main(["decide", "Mon", "m(x,y)", "m(y,x)", "--json",
                     "-f", "corpus/theories.veq"])
    out = capsys.readouterr().out
    assert code == 1
    assert '"expansions": 5' in out


def test_budget_flag_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("VEQ_BUDGET", "5")
    code = cli.main(["decide", "Mon", "m(x,y)", "m(y,x)", "--budget", "7",
                     "--json", "-f", "corpus/theories.veq"])
    out = capsys.readouterr().out
    assert code == 1
    assert '"expansions": 7' in out


def test_json_record_is_single_line(capsys):
    cli.main(["solve", "E", "--json", "-f", "corpus/finset.veq"])
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.endswith("\n")


def test_multiple_workspace_files(capsys):
    code = cli.main(["recurrence", "fib", "order", "2", "--json",
                     "-f", "corpus/finset.veq", "-f", "corpus/series.veq"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"status": "zero-within-precision"' in out


def test_unify_deep_term(capsys):
    deep = "x"
    for _ in range(400):
        deep = f"f({deep})"
    code = cli.main(["unify", deep, "y", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["payload"]["substitution"] == {"y": deep}


def test_unify_thousand_deep_term(capsys):
    # deeper than Python's default recursion limit, in the parser as well
    deep = "x"
    for _ in range(1000):
        deep = f"g({deep},c)"
    code = cli.main(["unify", deep, "g(y, z)", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    subst = json.loads(captured.out)["payload"]["substitution"]
    assert subst == {"y": deep[len("g("):-len(",c)")], "z": "c"}


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_budget_env_is_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("VEQ_BUDGET", value)
    code = cli.main(["decide", "Mon", "m(x,y)", "m(y,x)", "--json",
                     "-f", "corpus/theories.veq"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"veq: usage: VEQ_BUDGET must be a positive integer, not {value!r}\n"


def test_nonpositive_budget_flag_is_usage_error(capsys):
    code = cli.main(["decide", "Mon", "m(x,y)", "m(y,x)", "--budget", "0",
                     "-f", "corpus/theories.veq"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.count("\n") == 1 and "--budget" in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["hsp", "Chain3", "Meet2", "--kmax", "0", "-f", "corpus/algebras.veq"], "--kmax"),
    (["recurrence", "fib", "order", "2", "--prec", "0", "-f", "corpus/series.veq"], "--prec"),
    (["identities", "Meet2", "--vars", "-1", "-f", "corpus/algebras.veq"], "--vars"),
    (["identities", "Meet2", "--depth", "-1", "-f", "corpus/algebras.veq"], "--depth"),
], ids=["kmax", "prec", "vars", "depth"])
def test_numeric_bound_out_of_range_is_usage_error(argv, flag, capsys):
    code = cli.main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"veq: usage: {flag} ")


def test_smallest_numeric_bounds_are_accepted(capsys):
    assert cli.main(["hsp", "Meet2", "Meet2", "--kmax", "1", "--json",
                     "-f", "corpus/algebras.veq"]) == 0
    assert cli.main(["identities", "Meet2", "--vars", "0", "--depth", "0", "--json",
                     "-f", "corpus/algebras.veq"]) == 0
    capsys.readouterr()


def test_unreadable_workspace_is_usage_error(tmp_path, capsys):
    code = cli.main(["solve", "E", "-f", str(tmp_path / "missing.veq")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("veq: cannot read workspace:")


def test_crash_in_handler_is_internal_error(monkeypatch, capsys):
    def crash(ws, args, opts):
        raise ZeroDivisionError("division by zero\nin a handler")

    monkeypatch.setitem(cli.HANDLERS, "solve", crash)
    code = cli.main(["solve", "E", "--json", "-f", "corpus/finset.veq"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "veq: internal error: ZeroDivisionError: division by zero in a handler\n"


def test_free_algebra_past_the_table_cap_is_bounds_error(capsys):
    # the free meet-semilattice on 10 generators has 1023 elements, so its
    # table would hold 1023^2 > 10^6 entries
    code = cli.main(["freealg", "Meet2", "--vars", "10", "-f", "corpus/algebras.veq"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "veq: BoundsTooLarge: free algebra tables exceed 1000000 entries\n"
