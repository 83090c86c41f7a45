import json
import os
import subprocess
import sys

import pytest

from trivertex import cli, fock, lattice, verify
from trivertex.verify import CheckReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_anchor(capsys):
    code, out, _ = run(capsys, "compute", "--n", "4", "--labels", "3,3,1")
    assert code == 0
    assert out.strip() == "z1^3 z2^3 z3 + z1^3 z2^2 z3^2 + z1^2 z2^3 z3^2"


def test_compute_trivial_and_at_one(capsys):
    code, out, _ = run(capsys, "compute", "--n", "3", "--labels", "0")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "compute", "--n", "4",
                       "--labels", "4,2,1", "--at-one")
    assert (code, out.strip()) == (0, "3")


def test_compute_blocks_equals_labels(capsys):
    _, via_blocks, _ = run(capsys, "compute", "--n", "4",
                           "--blocks", "3:2,1:1")
    _, via_labels, _ = run(capsys, "compute", "--n", "4",
                           "--labels", "3,3,1")
    assert via_blocks == via_labels


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "--n", "4",
                       "--labels", "3,3,1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4
    assert obj["labels"] == [3, 3, 1]
    assert len(obj["terms"]) == 3
    assert all(t["coeff"] == 1 for t in obj["terms"])
    # byte-determinism: same invocation, same bytes
    _, again, _ = run(capsys, "compute", "--n", "4",
                      "--labels", "3,3,1", "--format", "json")
    assert again == out


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--n", "2",
                       "--labels", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["monomial,coeff", "z1^2,1"]


def test_compute_derivative(capsys):
    code, out, _ = run(capsys, "compute", "--n", "3",
                       "--labels", "2,1", "--deriv", "1,0")
    assert (code, out.strip()) == (0, "2 z1 z2")


def test_usage_errors(capsys):
    cases = [
        ("compute", "--labels", "1"),                      # missing --n
        ("compute", "--n", "3"),                           # no labels
        ("compute", "--n", "2", "--labels", "5"),          # label > n
        ("compute", "--n", "2", "--labels", "x"),          # not integers
        ("compute", "--n", "2", "--labels", "1", "--blocks", "1:1"),
        ("compute", "--n", "3", "--labels", "2,1", "--deriv", "1"),
        ("enumerate", "--n", "3", "--labels", "1", "--blocks", "0:0"),
        ("compute", "--n", "1", "--labels", "1"),          # n < 2
        ("compute", "--n", "0", "--labels", "0"),
        ("compute", "--n", "-3", "--labels", "0"),
        ("compute", "--n", "4", "--labels", ","),
        ("enumerate", "--n", "4", "--labels=", "--format", "csv"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    _, _, err = run(capsys, "compute", "--n", "-3", "--labels", "0")
    assert "n >= 2" in err
    for sub in ("compute", "enumerate"):
        _, out, err = run(capsys, sub, "--n", "4", "--labels=")
        assert (out, err) == ("", "error: no labels given\n"), sub
    # the boundary reading is pinned: no option steers it
    for flags in (["--no-cache"], ["--cache-path", "x"]):
        code, out, err = run(capsys, "compute", "--n", "4", "--labels", "3,3,1", *flags)
        assert (code, out) == (1, ""), flags
        assert "unrecognized arguments: " + " ".join(flags) in err, (flags, err)


def test_verify_cutoff_handling(capsys):
    # a cutoff below 3 is an error, 0 included, never a silent default
    for value in ("0", "1", "-3"):
        code, out, err = run(capsys, "verify", "tetrahedron", "--cutoff", value)
        assert (code, out) == (1, ""), value
        assert err == "error: tetrahedron check needs cutoff >= 3\n", value
    # only the tetrahedron group takes a cutoff
    for group in ("hat", "zf", "all"):
        code, out, err = run(capsys, "verify", group, "--cutoff", "9")
        assert (code, out) == (1, ""), group
        assert err == "error: --cutoff applies to the tetrahedron group only\n", group
    code, out, _ = run(capsys, "verify", "tetrahedron", "--cutoff", "3")
    assert code == 0
    assert out.splitlines() == ['PASS tetrahedron              {"cutoff": 3}',
                                "1 checks, 0 failed"]


def test_verify_unknown_group(capsys):
    code, out, err = run(capsys, "verify", "nosuch")
    assert (code, out) == (1, "")
    assert err.startswith("error: unknown group 'nosuch'") and err.count("\n") == 1
    assert cli.main(["verify", "--help"]) == 0


def test_argparse_remap_exit_codes(capsys):
    code, _, _ = run(capsys, "compute", "--n", "2",
                     "--labels", "1", "--format", "bogus")
    assert code == 1
    assert cli.main([]) == 1
    assert cli.main(["--help"]) == 0


def test_enumerate_plain(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4",
                       "--labels", "3,3,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "total 3"
    assert lines[0] == "2,3,2  z1^2 z2^3 z3^2"


def test_enumerate_json_and_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4",
                       "--labels", "1,2,3,3,4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 1
    assert obj["rows"][0]["exponents"] == [1, 2, 3, 3, 4]
    code, out, _ = run(capsys, "enumerate", "--n", "2",
                       "--labels", "2", "--format", "csv")
    assert out.splitlines() == ["alpha1,weight", "2,z1^2"]


def test_vars_file_rename_and_eval(capsys, tmp_path):
    table = tmp_path / "vars.txt"
    table.write_text("# rename, then numbers\n"
                     "z1_k2l1 = w7\n"
                     "z2_k2l1 = 3\n")
    code, out, _ = run(capsys, "compute", "--n", "3",
                       "--labels", "2,0", "--vars-file", str(table))
    # renamed poly still has w7 unbound next to a number: usage error
    assert code == 1

    table.write_text("z1_k2l1 = 2\nz2_k2l1 = 1/2\n")
    code, out, _ = run(capsys, "compute", "--n", "3",
                       "--labels", "2,0", "--vars-file", str(table))
    # value is 1 + z2_k2l1/z1_k2l1 = 1 + (1/2)/2
    assert (code, out.strip()) == (0, "5/4")

    table.write_text("z1_k2l1 = w7\n")
    code, out, _ = run(capsys, "compute", "--n", "3",
                       "--labels", "2,0", "--vars-file", str(table))
    assert code == 0
    assert out.strip() == "z2_k2l1 w7^-1 + 1"

    table.write_text("nonsense\n")
    code, _, err = run(capsys, "compute", "--n", "3",
                       "--labels", "2,0", "--vars-file", str(table))
    assert code == 1 and "name = value" in err

    # a second line for one variable is an error, not a silent override
    table.write_text("z1_k2l1 = w1\n# w2 wins?\nz1_k2l1 = w2\n")
    code, out, err = run(capsys, "compute", "--n", "3",
                         "--labels", "2,0", "--vars-file", str(table))
    assert (code, out) == (1, "")
    assert err == "error: %s:3: z1_k2l1 is already bound on line 1\n" % table


def test_commands_write_no_files(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    for argv in (("compute", "--n", "4", "--labels", "3,3,1"),
                 ("enumerate", "--n", "4", "--labels", "3,3,1"),
                 ("verify", "convention")):
        assert run(capsys, *argv)[0] == 0, argv
    assert list(tmp_path.iterdir()) == []


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "convention")
    assert code == 0
    assert out.splitlines()[-1] == "1 checks, 0 failed"

    bad = CheckReport("fake", {}, False, {"why": "forced"}, 0.0)
    monkeypatch.setattr(verify, "run_battery", lambda sel: [bad])
    code, out, _ = run(capsys, "verify", "zf")
    assert code == 2
    assert out.splitlines()[0].startswith("FAIL fake")
    code, out, _ = run(capsys, "verify", "zf", "--format", "json")
    assert code == 2
    assert json.loads(out)[0]["passed"] is False


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "tetrahedron",
                       "--cutoff", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,passed,seconds,params"
    assert lines[1].startswith("tetrahedron,pass,")


def test_verify_all_json_matches_fixture(capsys):
    """`verify all --format json` equals tests/data/verify_all.json apart
    from each report's `seconds`: the battery's output is a regression gate.
    A change meant to alter that output rewrites the file as this test
    renders it (indent 2, sorted keys, `seconds` removed)."""
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    for report in reports:
        del report["seconds"]
    path = os.path.join(os.path.dirname(__file__), "data", "verify_all.json")
    with open(path) as fh:
        assert json.dumps(reports, indent=2, sort_keys=True) + "\n" == fh.read()


@pytest.mark.parametrize("args", [
    ("-c", "import trivertex; trivertex.vev(trivertex.scalar_spec(4, (3, 3, 1)))"),
    ("-m", "trivertex.cli", "compute", "--n", "4", "--labels", "3,3,1"),
    ("-m", "trivertex.cli", "enumerate", "--n", "4", "--labels", "3,3,1"),
    ("-m", "trivertex.cli", "verify", "hat"),
])
def test_engine_loads_no_verifier(args):
    """A vev, a cold `compute` and a cold `enumerate` import neither the
    algebra's verifiers (`trivertex.lattice`) nor the battery or its
    oracles, nor `dataclasses` (which pulls in `inspect`), nor `json`,
    `fractions` or `heapq`, which only JSON output, numeric evaluation and
    exact division use, nor `hashlib`; `verify` does import the battery.
    `-X importtime` lists every module a fresh interpreter imports, on
    standard error; `-S` keeps site-packages start-up hooks out of it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.decode().splitlines()
              if line.startswith("import time:")}
    assert "trivertex.network" in loaded and "trivertex.fock" in loaded
    if "verify" in args:
        assert "trivertex.verify" in loaded
    else:
        assert not loaded & {"trivertex.lattice", "trivertex.verify", "trivertex.symfunc",
                             "dataclasses", "fractions", "hashlib", "heapq", "json"}


def test_lattice_keeps_the_tensor_names():
    """The tensors live in `fock`; `lattice`, which checks them, holds the
    same objects under the names it always had."""
    assert lattice.local_tensor is fock.local_tensor
    assert lattice.TensorKind is fock.TensorKind
    assert callable(lattice.tetrahedron_check)
