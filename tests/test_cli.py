import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from linkform import arith, cli
from linkform.cli import main

NIL = {"genus": 0, "pairs": [[2, 1], [2, 1], [2, 1], [2, -1]]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_compute_nil(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "compute", write(tmp_path, "nil.json", NIL))
    assert code == 0
    report = json.loads(out)
    assert report["euler"] == "-1"
    assert report["standard_form"] == {"atoms": [{"cyc": [2, 2, 3]}, {"E0": 1}]}
    assert report["structure"]["ok"]


def test_compute_flat_example(tmp_path, capsys):
    data = {"genus": 0, "pairs": [[3, 1], [3, 1], [3, -2]]}
    code, out, _ = run_cli(capsys, "compute", write(tmp_path, "s.json", data))
    assert code == 0
    report = json.loads(out)
    assert report["euler"] == "0"
    assert report["h1_free_rank"] == 1
    atoms = report["standard_form"]["atoms"]
    assert len(atoms) == 1 and atoms[0]["cyc"][:2] == [3, 1]


def test_compute_decomposes_each_prime_once(tmp_path, capsys, monkeypatch):
    # welldefined_check and classify share one block_diagonalize per (S, p)
    import linkform.linking as linking

    calls = []
    inner = linking.block_diagonalize
    monkeypatch.setattr(linking, "block_diagonalize", lambda G: calls.append(G) or inner(G))
    data = {"genus": 0, "pairs": [[4, 1], [6, 1], [9, 2], [10, -3]]}
    code, out, _ = run_cli(capsys, "compute", write(tmp_path, "s.json", data))
    assert code == 0
    report = json.loads(out)
    assert all(entry["welldefined"] == [] for entry in report["local"])
    # primes 2, 3, 5 (trivial: no generators) and 61, from the Euler numerator
    assert [entry["prime"] for entry in report["local"]] == [2, 3, 5, 61]
    assert sorted(G.prime for G in calls) == [2, 3, 5, 61]


def test_compute_single_prime(tmp_path, capsys):
    data = {"genus": 0, "pairs": [[4, 1], [6, 1], [9, 2], [8, 3], [5, -4]]}
    code, out, _ = run_cli(
        capsys, "compute", write(tmp_path, "s.json", data), "--prime", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert [e["prime"] for e in report["local"]] == [3]


def test_prime_option_accepts_large_primes(tmp_path, capsys, time_budget):
    # 2^61 - 1: trial division used to take more than 15 s
    nil = write(tmp_path, "nil.json", NIL)
    with time_budget(5):
        code, out, _ = run_cli(capsys, "compute", nil, "--prime", str(2**61 - 1))
    assert code == 0
    [local] = json.loads(out)["local"]
    assert local["prime"] == 2**61 - 1 and local["orders"] == []


def test_prime_option_refuses_unprovable_primes(tmp_path, capsys, time_budget, monkeypatch):
    # a 31-digit prime is beyond deterministic Miller-Rabin; 10^30 + 57 has a
    # Pocklington certificate, and 10^31 + 33 none once rho cannot factor
    # 10^31 + 32 = 2^5 3 7^2 569 743 55807 90103763225619307: a loud refusal
    nil = write(tmp_path, "nil.json", NIL)
    with time_budget(5):
        code, out, _ = run_cli(capsys, "compute", nil, "--prime", str(10**30 + 57))
    assert code == 0 and json.loads(out)["local"][0]["orders"] == []
    monkeypatch.setattr(arith, "_RHO_STEPS", 16)
    with time_budget(5):
        code, out, err = run_cli(capsys, "compute", nil, "--prime", str(10**31 + 33))
    assert code == 2
    assert out == "" and "cannot prove" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, why",
    [
        (["compute", "{nil}", "--prime", "10000000000000000000000000000033"], "cannot prove"),
        (["classify", "{r1}"], "needs r >= 2"),
        (["classify", "{r1}", "--prime", "3"], "needs r >= 2"),
    ],
)
def test_unsupported_input_has_its_own_prefix(tmp_path, capsys, monkeypatch, argv, why):
    monkeypatch.setattr(arith, "_RHO_STEPS", 16)  # 10^31 + 33 then has no certificate
    files = {
        "{nil}": write(tmp_path, "nil.json", NIL),
        "{r1}": write(tmp_path, "lens.json", {"genus": 0, "pairs": [[5, 2]]}),
    }
    code, out, err = run_cli(capsys, *(files.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("unsupported: ") and why in err
    assert "invalid data" not in err


def test_compute_invalid_data_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "compute", write(tmp_path, "bad.json", {"pairs": [[4, 2]]}))
    assert code == 2
    assert "gcd" in err


@pytest.mark.parametrize("command", ["compute", "classify"])
@pytest.mark.parametrize("prime", ["0", "1", "4", "-2"])
def test_prime_option_rejects_non_primes(tmp_path, capsys, command, prime):
    # 1 used to hang, 0 meant "all primes", 4 and -2 gave a bad-atom error
    code, out, err = run_cli(
        capsys, command, write(tmp_path, "nil.json", NIL), "--prime", prime
    )
    assert code == 1 and out == ""
    assert "not a prime" in err


def test_classify_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "classify", write(tmp_path, "nil.json", NIL), "--prime", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["per_prime"]["2"]["standard_form"]["atoms"]


def test_realize_flat_e0(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "realize",
        write(tmp_path, "t.json", {"atoms": [{"E0": 2}]}),
        "--mode",
        "flat",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    assert report["seifert"]["pairs"] == [[4, -1], [4, 1], [4, -1], [4, 1]]


def test_realize_unrealizable_exits_3(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "realize", write(tmp_path, "t.json", {"atoms": [{"E0": 2}, {"E0": 1}]})
    )
    assert code == 3
    assert "even component" in err


def test_realize_sphere_lens(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "realize",
        write(tmp_path, "t.json", {"atoms": [{"cyc": [3, 1, 1]}]}),
        "--mode",
        "sphere",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verified"] and len(report["seifert"]["pairs"]) == 2


def test_witt_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "witt", write(tmp_path, "nil.json", NIL))
    assert code == 0
    assert json.loads(out)["witt"] == {}


def test_verify_subcommand_deterministic(tmp_path, capsys):
    args = ["verify", "structure", "--trials", "25", "--seed", "11"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports for identical configs


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "nonsense")
    assert code == 1


@pytest.mark.parametrize(
    "suite, flag, value",
    [
        ("witt", "--trials", "0"),  # used to run the suite's default count
        ("structure", "--max-r", "0"),  # used to escape as a ValueError
        ("structure", "--max-alpha", "1"),  # used to escape as a ValueError
        ("structure", "--max-beta", "0"),  # used to hang in rand_seifert
        ("thm7", "--oracle-bound", "0"),
    ],
)
def test_verify_rejects_out_of_range_bounds(capsys, time_budget, suite, flag, value):
    with time_budget(10):
        code, out, err = run_cli(capsys, "verify", suite, flag, value)
    assert code == 1
    assert out == "" and "usage error" in err


def test_an_oracle_bound_the_user_chose_is_unsupported(capsys):
    # a group of order 256 is past the bound 1: a refusal, not a failed check
    code, out, err = run_cli(capsys, "verify", "thm7", "--oracle-bound", "1", "--trials", "3")
    assert code == 2 and out == ""
    assert err.startswith("unsupported: ") and "exceeds the brute-force bound 1" in err


def test_search_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        write(tmp_path, "t.json", {"atoms": []}),
        "--max-r",
        "2",
        "--max-alpha",
        "3",
        "--max-beta",
        "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["count"] >= 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-r", "0"),  # these used to exit 0 with "count": 0
        ("--max-r", "-3"),
        ("--max-alpha", "1"),
        ("--max-beta", "0"),
        ("--max-beta", "-2"),
    ],
)
def test_search_rejects_out_of_range_bounds(tmp_path, capsys, time_budget, flag, value):
    target = write(tmp_path, "t.json", {"atoms": []})
    with time_budget(10):
        code, out, err = run_cli(capsys, "search", target, flag, value)
    assert code == 1
    assert out == "" and "usage error" in err


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LINKFORM_SEED", "99")
    code, out, _ = run_cli(capsys, "verify", "structure", "--trials", "10")
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_a_seed_env_that_is_not_an_integer_is_invalid_data(capsys, monkeypatch):
    monkeypatch.setenv("LINKFORM_SEED", "abc")
    code, out, err = run_cli(capsys, "verify", "thm3")
    assert code == 2 and out == ""
    assert err.startswith("invalid data: ") and "LINKFORM_SEED" in err


def test_json_out_flag(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "compute", write(tmp_path, "nil.json", NIL), "--json-out", str(out_path)
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["euler"] == "-1"


@pytest.mark.parametrize(
    "argv",
    [["compute", "NIL"], ["verify", "structure", "--trials", "1"]],
    ids=["compute", "verify"],
)
def test_an_unwritable_json_out_is_a_usage_error(tmp_path, capsys, argv):
    # the report is built, then its path cannot be opened: one line, exit 1
    argv = [write(tmp_path, "nil.json", NIL) if a == "NIL" else a for a in argv]
    out_path = tmp_path / "no-such-dir" / "out.json"
    code, out, err = run_cli(capsys, *argv, "--json-out", str(out_path))
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"usage error: cannot write {out_path}: ")
    assert not out_path.parent.exists()


# ---------------------------------------------------------------------------
# one parser per process


def _reuse_calls(tmp_path):
    nil = write(tmp_path, "nil.json", NIL)
    target = write(tmp_path, "t.json", {"atoms": [{"E0": 2}]})
    empty = write(tmp_path, "empty.json", {"atoms": []})
    bad = write(tmp_path, "bad.json", {"pairs": [[4, 2]]})
    commands = [
        ["compute", nil],
        ["classify", nil, "--prime", "2"],
        ["realize", target, "--mode", "flat"],
        ["witt", nil],
        ["verify", "structure", "--trials", "5", "--seed", "3"],
        ["search", empty, "--max-r", "2", "--max-alpha", "3", "--max-beta", "2"],
    ]
    calls = []
    for argv in commands:
        calls += [(argv, 0), (["compute", nil, "--prime", "4"], 1), (["witt", bad], 2)]
    return calls


def test_main_is_reentrant_across_subcommands(tmp_path, capsys):
    calls = _reuse_calls(tmp_path)
    first = [run_cli(capsys, *argv) for argv, _ in calls]
    again = [run_cli(capsys, *argv) for argv, _ in calls]
    for (argv, want), (code1, out1, _), (code2, out2, _) in zip(calls, first, again):
        assert code1 == code2 == want, argv
        assert out1 == out2, argv
        assert (out1 != "") == (want == 0), argv


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    nil = write(tmp_path, "nil.json", NIL)
    assert run_cli(capsys, "witt", nil)[0] == 0
    assert len(built) == 7  # the root parser and one per subcommand
    for argv in (["witt", nil], ["compute", nil], ["compute", nil, "--prime", "4"]):
        run_cli(capsys, *argv)
    assert len(built) == 7


# ---------------------------------------------------------------------------
# the report writer


def _stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u00e9\u2028\ud800\udfff\U0001f600'),
        st.characters(exclude_categories=()),  # every code point, lone surrogates too
    ),
    max_size=8,
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),  # well beyond +-2^64
    _TEXT,
)
_JSONISH = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_TEXT, kids, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSONISH)
def test_dumps_matches_the_stdlib_writer(obj):
    assert cli._dumps(obj) == _stdlib(obj)


@pytest.mark.parametrize(
    "obj", [1.5, {"a": [0.0]}, {1, 2}, [{"a": {1, 2}}], {1: "a"}, {"a": {2: 3}}]
)
def test_emit_refuses_what_no_report_holds(tmp_path, capsys, obj):
    # a float, a set, a non-str key: TypeError before anything is written
    with pytest.raises(TypeError):
        cli._dumps(obj)
    with pytest.raises(TypeError):
        cli._emit(obj, argparse.Namespace(json_out=None))
    assert capsys.readouterr().out == ""
    out_path = tmp_path / "report.json"
    with pytest.raises(TypeError):
        cli._emit(obj, argparse.Namespace(json_out=str(out_path)))
    assert not out_path.exists()


def test_every_command_writes_the_stdlib_bytes(tmp_path, capsys):
    calls = [argv for argv, want in _reuse_calls(tmp_path) if want == 0]
    assert [argv[0] for argv in calls] == [
        "compute", "classify", "realize", "witt", "verify", "search"
    ]
    for argv in calls:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == _stdlib(json.loads(out)) + "\n", argv
        out_path = tmp_path / f"{argv[0]}.json"
        code, out, _ = run_cli(capsys, *argv, "--json-out", str(out_path))
        text = out_path.read_text()
        assert code == 0 and out == "" and text == _stdlib(json.loads(text)) + "\n", argv


# ---------------------------------------------------------------------------
# usage errors: a named subcommand parses with its own parser, the root
# parser takes the rest, and both give the messages argparse always gave

_COMMANDS = "'compute', 'classify', 'realize', 'witt', 'verify', 'search'"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["bogus"], f"argument command: invalid choice: 'bogus' (choose from {_COMMANDS})"),
        (["--json-out", "x", "compute"], f"argument command: invalid choice: 'x' (choose from {_COMMANDS})"),
        (["realize"], "the following arguments are required: input"),
        (["compute", "--prime", "3"], "the following arguments are required: input"),
        (
            ["realize", "{t}", "--mode", "bogus"],
            "argument --mode: invalid choice: 'bogus' (choose from 'auto', 'flat', 'sphere')",
        ),
        (["realize", "{t}", "extra"], "unrecognized arguments: extra"),
        (["search", "{t}", "extra", "--max-r", "2"], "unrecognized arguments: extra"),
        (["compute", "{nil}", "--prime", "4"], "argument --prime: 4 is not a prime"),
        (["compute", "{nil}", "--prime"], "argument --prime: expected one argument"),
    ],
)
def test_usage_errors_keep_their_messages(tmp_path, capsys, argv, message):
    files = {
        "{t}": write(tmp_path, "t.json", {"atoms": [{"cyc": [3, 1, 1]}]}),
        "{nil}": write(tmp_path, "nil.json", NIL),
    }
    code, out, err = run_cli(capsys, *(files.get(a, a) for a in argv))
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


def test_a_named_subcommand_skips_the_root_parser(tmp_path, capsys, monkeypatch):
    progs = []
    inner = cli._Parser.parse_known_args

    def recording(self, *args, **kwargs):
        progs.append(self.prog)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", recording)
    assert run_cli(capsys, "witt", write(tmp_path, "nil.json", NIL))[0] == 0
    assert progs == ["linkform witt"]
    progs.clear()
    assert run_cli(capsys, "nonsense")[0] == 1
    assert progs == ["linkform"]


def test_help_is_unchanged(capsys):
    for argv, usage in (
        (["-h"], "usage: linkform [-h] {compute,classify,realize,witt,verify,search} ..."),
        (["realize", "-h"], "usage: linkform realize [-h] [--json-out JSON_OUT]"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(usage)


# ---------------------------------------------------------------------------
# Python's limit on the digits of an int: refused with a named message

# Python added the limit in 3.11 and 3.10.7; before that no int is refused
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int digit limit"
)


def test_realize_runs_on_a_python_without_a_digit_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    target = write(tmp_path, "t.json", {"atoms": [{"cyc": [3, 1, 1]}]})
    code, out, _ = run_cli(capsys, "realize", target)
    assert code == 0 and json.loads(out)["verified"] is True


@needs_digit_limit
def test_a_json_number_past_the_digit_limit_is_invalid_data(capsys, monkeypatch):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"genus": 0, "pairs": [[2, %s]]}' % digits))
    code, out, err = run_cli(capsys, "compute", "-")
    assert code == 2 and out == ""
    assert err.startswith("invalid data: cannot read JSON from -: ") and "digits" in err


@pytest.mark.parametrize("command", ["compute", "realize"])
def test_json_nested_too_deep_is_invalid_data(capsys, monkeypatch, command):
    # json.load raises RecursionError on arrays nested past the stack limit
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100000 + "]" * 100000))
    code, out, err = run_cli(capsys, command, "-")
    assert code == 2 and out == ""
    assert err.startswith("invalid data: cannot read JSON from -: ") and "recursion" in err


@needs_digit_limit
def test_a_report_past_the_digit_limit_is_unsupported(tmp_path, capsys):
    # the realization exists, but its cone orders 2^20000 and up have more
    # digits than int.__repr__ writes
    target = write(tmp_path, "t.json", {"atoms": [{"cyc": [2, 20000, 1]}]})
    out_path = tmp_path / "report.json"
    for extra in ([], ["--json-out", str(out_path)]):
        code, out, err = run_cli(capsys, "realize", target, *extra)
        assert code == 2 and out == ""
        assert err.startswith("unsupported: cannot write the report: ") and "digits" in err
    assert not out_path.exists()


@needs_digit_limit
def test_a_balancing_order_past_the_digit_limit_is_unsupported(tmp_path, capsys):
    # each atom passes realize's digit check, but the sphere-mode balancing
    # order 3^5001 * 5^3001 (and so eps) has more digits than int.__repr__
    # writes; flat mode has no balancing order and writes its report
    target = write(tmp_path, "t.json", {"atoms": [{"cyc": [3, 5000, 1]}, {"cyc": [5, 3000, 1]}]})
    code, out, err = run_cli(capsys, "realize", target, "--mode", "sphere")
    assert code == 2 and out == ""
    assert err.startswith("unsupported: cannot write the report: ") and "digits" in err
    code, out, _ = run_cli(capsys, "realize", target, "--mode", "flat")
    assert code == 0 and json.loads(out)["verified"] is True


@pytest.mark.parametrize(
    "command, doc",
    [
        ("compute", {"genus": float("inf"), "pairs": [[2, 1], [2, 1]]}),
        ("compute", {"genus": 0, "pairs": [[2, 1], [float("-inf"), 1]]}),
        ("realize", {"atoms": [{"cyc": [3, float("inf"), 1]}]}),
    ],
)
def test_an_infinite_json_number_is_invalid_data(tmp_path, capsys, command, doc):
    code, out, err = run_cli(capsys, command, write(tmp_path, "doc.json", doc))
    assert code == 2 and out == "" and err.startswith("invalid data: ")


@needs_digit_limit
def test_an_unwritable_realize_target_is_refused_at_once(tmp_path, capsys, time_budget):
    # cone orders 3^50000 have more digits than int.__repr__ writes; the
    # realization used to be computed (about 15 s) before the refusal
    target = write(tmp_path, "t.json", {"atoms": [{"cyc": [3, 50000, 1]}]})
    with time_budget(1):
        code, out, err = run_cli(capsys, "realize", target)
    assert code == 2 and out == ""
    assert err.startswith("unsupported: cannot write the report: ") and "digits" in err


@pytest.mark.parametrize("command", ["realize", "search"])
@pytest.mark.parametrize(
    "doc",
    [
        {"atoms": [{"E1": 2, "E0": 2}]},  # was read as E0(2)
        {"atoms": [{"cyc": [3, 1, 1], "x": 1}]},  # x was dropped unread
        {"atoms": [{}]},
        {"atoms": [{"cyc": [3, 1, 1]}], "atom": [{"E0": 1}]},  # atom was dropped unread
    ],
)
def test_an_atom_needs_exactly_one_key(tmp_path, capsys, command, doc):
    argv = [command, write(tmp_path, "t.json", doc)]
    if command == "search":
        argv += ["--max-r", "2", "--max-alpha", "3", "--max-beta", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("invalid data: ")


@pytest.mark.parametrize("command", ["compute", "classify", "witt"])
def test_an_unknown_seifert_key_is_refused_by_name(tmp_path, capsys, command):
    # "gnus" was dropped unread, and the data run as genus 0
    doc = {"gnus": 2, "pairs": [[2, 1], [2, 1], [2, 1], [2, -1]]}
    code, out, err = run_cli(capsys, command, write(tmp_path, "s.json", doc))
    assert code == 2 and out == ""
    assert err.startswith("invalid data: unknown key 'gnus'")


@pytest.mark.parametrize(
    "command, text, key",
    [
        # genus 2 was read as genus 0, and <1/3> dropped for <1/5>
        ("compute", '{"genus": 2, "genus": 0, "pairs": [[2, 1], [2, 1], [2, 1]]}', "genus"),
        ("witt", '{"pairs": [[2, 1], [2, 1]], "pairs": [[3, 1], [3, 1]]}', "pairs"),
        ("realize", '{"atoms": [{"cyc": [3, 1, 1], "cyc": [5, 1, 1]}]}', "cyc"),
        ("search", '{"atoms": [{"E0": 1}], "atoms": [{"cyc": [3, 1, 1]}]}', "atoms"),
    ],
)
def test_a_duplicate_json_key_is_refused_by_name(tmp_path, capsys, command, text, key):
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = [command, str(path)]
    if command == "search":
        argv += ["--max-r", "2", "--max-alpha", "3", "--max-beta", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"invalid data: duplicate key '{key}'")


def test_a_duplicate_json_key_on_stdin_is_refused(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"genus": 1, "genus": 1, "pairs": [[5, 2]]}'))
    code, out, err = run_cli(capsys, "classify", "-")
    assert code == 2 and out == "" and err.startswith("invalid data: duplicate key 'genus'")


def test_a_duplicate_key_among_many_is_found_in_one_pass(tmp_path, capsys, time_budget):
    # the scan once rebuilt a dict of every earlier pair for each key, which
    # took 12.5 s on 20,000 keys; the budget turns a regression into a failure
    keys = [f"k{i}" for i in range(50_000)] + ["k7", "k3"]
    path = tmp_path / "doc.json"
    path.write_text("{" + ", ".join(f'"{k}": 0' for k in keys) + "}")
    with time_budget(5):
        code, out, err = run_cli(capsys, "compute", str(path))
    assert code == 2 and out == ""
    assert err.startswith("invalid data: duplicate key 'k7'")


# ---------------------------------------------------------------------------
# JSON numbers that are not integers: refused, never truncated

_NOT_INTEGERS = [2.7, 2.0, True, "2"]


@pytest.mark.parametrize("value", _NOT_INTEGERS)
@pytest.mark.parametrize(
    "doc",
    [
        lambda v: {"atoms": [{"E0": v}]},
        lambda v: {"atoms": [{"E1": v}]},
        lambda v: {"atoms": [{"cyc": [3, v, 1]}]},
        lambda v: {"atoms": [{"cyc": [v, 1, 1]}]},
    ],
)
def test_realize_refuses_a_json_number_that_is_not_an_integer(tmp_path, capsys, doc, value):
    code, out, err = run_cli(capsys, "realize", write(tmp_path, "t.json", doc(value)))
    assert code == 2 and out == "" and err.startswith("invalid data: ")


@pytest.mark.parametrize("value", _NOT_INTEGERS)
@pytest.mark.parametrize("command", ["compute", "classify", "witt"])
@pytest.mark.parametrize(
    "doc",
    [
        lambda v: {"genus": v, "pairs": [[2, 1], [2, 1], [2, 1], [2, -1]]},
        lambda v: {"genus": 0, "pairs": [[3, v], [2, 1], [2, 1]]},
        lambda v: {"genus": 0, "pairs": [[2, 1], [v, 1], [2, 1]]},
    ],
)
def test_seifert_input_refuses_a_json_number_that_is_not_an_integer(
    tmp_path, capsys, command, doc, value
):
    code, out, err = run_cli(capsys, command, write(tmp_path, "s.json", doc(value)))
    assert code == 2 and out == "" and err.startswith("invalid data: ")


# ---------------------------------------------------------------------------
# realize and search on arbitrary JSON: an answer or a named refusal

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-50, 50), st.floats(), st.text(max_size=3)
)
_ANY_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
# JSON's Infinity and NaN are floats; int(inf) raises OverflowError
_EXPONENT = st.integers(-1, 40) | st.sampled_from([float("inf"), float("-inf"), float("nan"), 2.5])
_ATOM = st.one_of(
    st.builds(
        lambda p, k, a: {"cyc": [p, k, a]},
        st.sampled_from([2, 3, 5, 7, 11, 13, 0, 1, 4, -3]),
        _EXPONENT,
        st.integers(-40, 40),
    ),
    st.builds(lambda k: {"E0": k}, _EXPONENT),
    st.builds(lambda k: {"E1": k}, _EXPONENT),
    st.dictionaries(st.sampled_from(["cyc", "E0", "E1", "x"]), _ANY_JSON, max_size=2),
)
_DOCUMENTS = st.one_of(
    st.lists(_ATOM, max_size=5).map(lambda atoms: {"atoms": atoms}),
    _ANY_JSON,
    st.builds(lambda atoms: {"atoms": atoms}, _ANY_JSON),
)


def _run_on_stdin(argv, doc):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))):
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=3000)
@given(_DOCUMENTS, st.sampled_from(["auto", "flat", "sphere"]))
@example({"atoms": [{"E0": float("inf")}]}, "auto")  # used to escape as OverflowError
def test_realize_answers_or_refuses_any_json(doc, mode):
    code, out, err = _run_on_stdin(["realize", "-", "--mode", mode], doc)
    assert code in (0, 2, 3, 4), err
    if code:
        assert out == "" and "Traceback" not in err
    else:
        assert json.loads(out)["verified"] is True


@settings(max_examples=100, deadline=3000)
@given(_DOCUMENTS)
def test_search_answers_or_refuses_any_json(doc):
    argv = ["search", "-", "--max-r", "2", "--max-alpha", "3", "--max-beta", "2"]
    code, out, err = _run_on_stdin(argv, doc)
    assert code in (0, 2, 3, 4), err
    if code:
        assert out == "" and "Traceback" not in err
    else:
        assert json.loads(out)["count"] >= 0


# ---------------------------------------------------------------------------
# compute, classify and witt on JSON objects: an answer or a named refusal.
# A top-level non-object still escapes from SeifertData.from_json as an
# AttributeError, which the benchmark catalogue records, so it is left out.

_ODD_VALUES = st.sampled_from([2.5, 3.0, True, False, "3", None, float("inf"), float("nan")])
_VALID_PAIR = st.integers(2, 64).flatmap(
    lambda a: st.integers(-128, 128).filter(lambda b: gcd(a, b) == 1).map(lambda b: [a, b])
)
_ANY_PAIR = st.tuples(st.integers(-64, 64) | _ODD_VALUES, st.integers(-128, 128) | _ODD_VALUES)
_PAIR = _VALID_PAIR | _ANY_PAIR.map(list) | st.lists(_SCALARS, max_size=3)  # also wrong lengths
_SEIFERT = st.fixed_dictionaries(
    {"pairs": st.lists(_VALID_PAIR, min_size=1, max_size=6) | st.lists(_PAIR, max_size=6)},
    optional={"genus": st.integers(-1, 3) | _ODD_VALUES},
)
_OBJECTS = _SEIFERT | st.dictionaries(st.sampled_from(["genus", "pairs", "x"]), _ANY_JSON, max_size=3)


@settings(max_examples=200, deadline=3000)
@given(_OBJECTS, st.sampled_from(["compute", "classify", "witt"]))
@example({"genus": 0, "pairs": [[2, 1], [2, 1], [2, 1], [2, -1]]}, "compute")
@example({"genus": 1, "pairs": [[4, 1.0]]}, "witt")
def test_seifert_commands_answer_or_refuse_any_object(doc, command):
    code, out, err = _run_on_stdin([command, "-"], doc)
    assert code in (0, 2), err
    if code:
        assert out == "" and "Traceback" not in err
        return
    report = json.loads(out)
    if command == "compute":
        assert report["structure"]["ok"] is True
        assert all(entry.get("welldefined", []) == [] for entry in report["local"])
