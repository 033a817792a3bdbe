import json

import pytest

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


def test_prime_option_refuses_unprovable_primes(tmp_path, capsys, time_budget):
    # a 31-digit prime is beyond deterministic Miller-Rabin: a loud refusal
    nil = write(tmp_path, "nil.json", NIL)
    with time_budget(5):
        code, out, err = run_cli(capsys, "compute", nil, "--prime", str(10**30 + 57))
    assert code == 2
    assert out == "" and "cannot prove" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, why",
    [
        (["compute", "{nil}", "--prime", "1000000000000000000000000000057"], "cannot prove"),
        (["classify", "{r1}"], "needs r >= 2"),
    ],
)
def test_unsupported_input_has_its_own_prefix(tmp_path, capsys, argv, why):
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


def test_json_out_flag(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "compute", write(tmp_path, "nil.json", NIL), "--json-out", str(out_path)
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["euler"] == "-1"
