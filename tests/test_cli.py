import ast
import dataclasses
import json
import re
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from polyxform import bigmul, claims, cli, extension, oracles, ptransform
from polyxform.cli import EXIT_MISMATCH, EXIT_OK, EXIT_PLAN, EXIT_USAGE, main
from polyxform.errors import UsageError
from polyxform.modcore import PrimeModulus

LEDGER_SRC = Path(__file__).resolve().parents[1] / "claims_ledger.json"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def strip_timing(text):
    doc = json.loads(text)
    doc.pop("timing")
    return doc


def test_sieve_report(capsys):
    code, out = run(capsys, "sieve", "--limit", "100")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "sieve"
    assert doc["results"]["count"] == 25
    assert doc["results"]["agreement"] is True
    assert doc["results"]["first"][:4] == [2, 3, 5, 7]
    assert set(doc) == {"schema_version", "command", "config", "results", "timing"}


def test_sieve_usage_error(capsys, monkeypatch):
    # argparse refuses the limit before the command runs
    monkeypatch.setattr(cli, "cmd_sieve", lambda args: pytest.fail("cmd_sieve ran"))
    code, out = run(capsys, "sieve", "--limit", "1")
    assert (code, out) == (EXIT_USAGE, "")


@pytest.mark.parametrize("argv", [("sieve", "--limit", "100"), ("plan", "--p", "7")])
def test_csv_without_rows_is_usage_error(capsys, argv):
    # --format exists on bench alone, so argparse refuses it before anything runs
    code = main([*argv, "--format", "csv"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == "" and "unrecognized arguments: --format csv" in captured.err
    assert argv[0] in captured.err and "Traceback" not in captured.err


def test_unknown_subcommand(capsys):
    assert main(["definitely-not-a-command"]) == EXIT_USAGE


def test_plan_report_and_file(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    code, out = run(
        capsys, "plan", "--p", "7", "--plan-out", str(plan_path)
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    res = doc["results"]
    assert res["p"] == 7
    assert res["n"] == 342
    assert res["alpha"] == len(res["primes"]) >= 1
    assert res["exceeds_nine_p6"] is True
    assert json.loads(plan_path.read_text()) == res["plan"]


def test_plan_rejects_bad_p(capsys):
    code, _ = run(capsys, "plan", "--p", "11")
    assert code == EXIT_USAGE


def test_plan_refuses_a_strong_pseudoprime_at_once(capsys):
    # psi_12 is composite, 1 mod 3, and a strong pseudoprime to every base below 41
    start = time.perf_counter()
    code, out = run(capsys, "plan", "--p", "318665857834031151167461")
    assert (code, out) == (EXIT_USAGE, "")
    assert time.perf_counter() - start < 1.0


def test_plan_rejects_negative_coeff_bound(capsys, tmp_path):
    # 0 too: verify would draw an all-zero input and confirm it; and 2^63,
    # past the int64 every plan's input is held in
    plan_path = tmp_path / "plan.json"
    for coeff_bound in ("-1", "0", str(2**63)):
        code, out = run(
            capsys, "plan", "--p", "13", "--coeff-bound", coeff_bound, "--plan-out", str(plan_path)
        )
        assert code == EXIT_USAGE
        assert out == "" and not plan_path.exists()


def test_plan_determinism_modulo_timing(capsys):
    _, a = run(capsys, "plan", "--p", "7", "--seed", "3")
    _, b = run(capsys, "plan", "--p", "7", "--seed", "3")
    assert strip_timing(a) == strip_timing(b)


@pytest.fixture(scope="module")
def plan7_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("plans") / "plan7.json"
    assert main(["plan", "--p", "7", "--plan-out", str(path), "--out", "/dev/null"]) == EXIT_OK
    return str(path)


def test_verify_deterministic(capsys, plan7_file):
    args = ("verify", "--plan", plan7_file, "--input", "random", "--sample", "5", "--seed", "2")
    code, a = run(capsys, *args)
    assert code == EXIT_OK
    _, b = run(capsys, *args)
    assert strip_timing(a) == strip_timing(b)
    doc = strip_timing(a)
    agg = doc["results"]["aggregate"]
    assert agg["verdict"] in ("confirmed", "refuted")
    assert agg["matches"] + agg["mismatches"] == 5


def test_verify_delta_input(capsys, plan7_file):
    code, out = run(capsys, "verify", "--plan", plan7_file, "--input", "delta", "--sample", "4")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["aggregate"]["verdict"] == "confirmed"


def test_verify_refuses_random_input_beyond_int64(capsys, plan7_file, tmp_path):
    # a plan file whose coeff_bound is past int64 is refused whatever the input
    doc = json.loads(Path(plan7_file).read_text())
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({**doc, "coeff_bound": 2**63}))
    for mode in ("random", "delta"):
        code = main(["verify", "--plan", str(huge), "--sample", "2", "--input", mode])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), mode
        assert "coeff_bound" in captured.err and "Traceback" not in captured.err


def test_verify_updates_ledger_only_on_request(capsys, plan7_file, tmp_path):
    ledger = tmp_path / "ledger.json"
    shutil.copy(LEDGER_SRC, ledger)
    before = ledger.read_text()
    code, out = run(
        capsys, "verify", "--plan", plan7_file, "--sample", "4",
        "--ledger", str(ledger),
    )
    assert code == EXIT_OK
    assert ledger.read_text() == before  # no flag, no rewrite
    code, out = run(
        capsys, "verify", "--plan", plan7_file, "--sample", "4",
        "--update-ledger", "--ledger", str(ledger),
    )
    assert code == EXIT_OK
    entry = claims.get_entry("s2-pipeline-correctness", path=ledger)
    assert entry.verdict in ("confirmed", "refuted")
    assert "sample 4" in entry.evidence.replace("--sample\n", "")
    assert json.loads(out)["results"]["ledger_entry"]["verdict"] == entry.verdict


def test_verify_ledger_refused_for_delta_input(capsys, plan7_file, tmp_path, monkeypatch):
    # the delta input is a control with a provable answer, not a measurement
    ledger = tmp_path / "ledger.json"
    shutil.copy(LEDGER_SRC, ledger)
    monkeypatch.setattr(ptransform, "spot_check", lambda *a, **k: pytest.fail("transform ran"))
    code = main([
        "verify", "--plan", plan7_file, "--input", "delta", "--sample", "4",
        "--update-ledger", "--ledger", str(ledger),
    ])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err.startswith("usage error:")
    assert ledger.read_bytes() == LEDGER_SRC.read_bytes()


def test_verify_rejects_corrupted_plan(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    # not UTF-8, not JSON, or not an object
    for data in (b"\xff\xfe{}", b"{not json", b"[]", b"3", b'"x"'):
        bad.write_bytes(data)
        assert main(["verify", "--plan", str(bad)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
    missing = tmp_path / "missing.json"
    code, _ = run(capsys, "verify", "--plan", str(missing))
    assert code == EXIT_USAGE


def test_verify_rejects_tampered_plan(capsys, plan7_file, tmp_path):
    doc = json.loads(Path(plan7_file).read_text())
    bad = tmp_path / "tampered.json"

    def tampered(**fields):
        bad.write_text(json.dumps({**doc, **fields}))
        return str(bad)

    repeated = doc["primes"][:-1] + doc["primes"][:1]  # the product falls short and repeats
    assert run(capsys, "verify", "--plan", tampered(primes=repeated))[0] == EXIT_USAGE
    # fields preprocess could not have written: integers that are not JSON
    # integers, residues outside [0, p), an omega without three coefficients
    edits = [
        {"coeff_bound": 12.5}, {"coeff_bound": 1.0}, {"coeff_bound": True},
        {"p": 7.0}, {"format_version": 3.0}, {"primes": [float(q) for q in doc["primes"]]},
        {"y": doc["y"] + 7}, {"omega": [doc["omega"][0] + 7] + doc["omega"][1:]},
        {"omega": doc["omega"][:2]}, {"omega": doc["omega"] + [0]}, {"omega": [True, 0, 1]},
    ]
    for fields in edits:
        code = main(["verify", "--plan", tampered(**fields), "--sample", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), fields
        assert captured.err.startswith("usage error:"), fields
    path = tampered(coeff_bound=12.5)
    code = main(
        ["mul", "--a", "0x3", "--b", "0x5", "--backend", "polynomial-transform", "--plan", path]
    )
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert "Traceback" not in captured.err and "coeff_bound" in captured.err


def test_mul_schoolbook_golden(capsys):
    code, out = run(capsys, "mul", "--a", "0x3039", "--b", "0x1a85")
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["product"] == hex(12345 * 6789)
    assert res["verdict"] == "match"


def test_mul_zero(capsys):
    code, out = run(capsys, "mul", "--a", "0xff", "--b", "0x0", "--backend", "karatsuba")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["product"] == "0x0"


def test_mul_mismatch_emits_report_and_exits_4(capsys, monkeypatch):
    real = bigmul.transform_mul

    def off_by_one(a, b, backend):
        report = real(a, b, backend)
        wrong = bigmul.BigNat.from_int(report.product.to_int() + 1)
        return dataclasses.replace(report, product=wrong)

    monkeypatch.setattr(bigmul, "transform_mul", off_by_one)
    code, out = run(capsys, "mul", "--a", "0x3039", "--b", "0x1a85", "--backend", "karatsuba")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["results"]["verdict"] == "mismatch"


@pytest.mark.parametrize("argv", [("sieve", "--limit", "100"), ("mul", "--a", "0x2", "--b", "0x3")])
def test_seed_refused_where_unread(capsys, argv):
    assert run(capsys, *argv, "--seed", "3")[0] == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("plan", "--p", "7"),
    ("verify", "--plan", "unread.json"),
    ("bench", "--sizes", "64"),
    ("experiments", "--which", "singularity", "--trials", "10"),
])
def test_negative_seed_is_a_usage_error(capsys, argv):
    assert main([*argv, "--seed", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "seed must be an integer >= 0" in captured.err


def test_mul_usage_errors(capsys, monkeypatch):
    with monkeypatch.context() as m:  # argparse refuses the operand before the command runs
        m.setattr(cli, "cmd_mul", lambda args: pytest.fail("cmd_mul ran"))
        code, out = run(capsys, "mul", "--a", "zz", "--b", "0x1")
        assert (code, out) == (EXIT_USAGE, "")
    code, _ = run(capsys, "mul", "--a", "0x2", "--b", "0x3", "--backend", "polynomial-transform")
    assert code == EXIT_USAGE



@pytest.mark.parametrize("argv", [
    ("mul", "--a", "0x" + "f" * 25_000, "--b", "0x" + "f" * 25_000, "--backend", "oracle-ntt"),
    ("bench", "--sizes", "300000", "--backends", "oracle-ntt", "--repetitions", "1"),
])
def test_refused_operand_pair_is_a_usage_error(capsys, argv):
    # _ntt_mul's OverflowRisk refuses the pair before anything is packed or
    # compared, so it is the caller's error (exit 2), not an oracle mismatch (exit 4)
    assert main(list(argv)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "usage error: worst convolution coefficient" in captured.err

@pytest.fixture(scope="module")
def plan13_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("plans13") / "plan13.json"
    code = main(["plan", "--p", "13", "--plan-out", str(path), "--out", "/dev/null"])
    assert code == EXIT_OK
    return str(path)


def test_mul_pt_backend_records_mismatch_without_failing(capsys, plan13_file):
    code, out = run(
        capsys, "mul", "--a", "0x3039", "--b", "0x1a85",
        "--backend", "polynomial-transform", "--plan", plan13_file,
    )
    # experimental backend: the verdict is reported, exit stays 0
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["verdict"] in ("match", "mismatch")
    assert res["oracle"] == hex(83810205)


def test_mul_updates_the_multiplication_claim_only_on_request(capsys, plan13_file, tmp_path):
    ledger = tmp_path / "ledger.json"
    shutil.copy(LEDGER_SRC, ledger)
    claims.save_ledger(claims.set_verdict("s5-multiplication", "pending", "stale", path=ledger), ledger)
    stale = ledger.read_text()
    argv = (
        "mul", "--a", "0x3039", "--b", "0x1a85", "--backend", "polynomial-transform",
        "--plan", plan13_file, "--ledger", str(ledger),
    )
    code, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert ledger.read_text() == stale  # no flag, no rewrite
    code, out = run(capsys, *argv, "--update-ledger")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["ledger_entry"] == {
        "claim_id": "s5-multiplication", "verdict": "refuted"}
    # every other claim untouched, and the committed evidence is what the run gives
    assert claims.load_ledger(ledger) == claims.load_ledger(LEDGER_SRC)
    code, _ = run(
        capsys, "mul", "--a", "0x2", "--b", "0x3", "--backend", "karatsuba",
        "--update-ledger", "--ledger", str(ledger),
    )
    assert code == EXIT_USAGE


def test_save_ledger_failing_part_way_leaves_the_ledger_whole(tmp_path, monkeypatch):
    ledger = tmp_path / "ledger.json"
    shutil.copy(LEDGER_SRC, ledger)
    before = ledger.read_bytes()
    write_text = Path.write_text

    def half_then_fail(path, text, *args, **kwargs):
        write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", half_then_fail)
    entries = claims.set_verdict("s5-multiplication", "pending", "stale", path=ledger)
    with pytest.raises(OSError):
        claims.save_ledger(entries, ledger)
    assert ledger.read_bytes() == before
    assert list(tmp_path.iterdir()) == [ledger]  # no temporary file left
    monkeypatch.undo()
    ledger.chmod(0o640)
    claims.save_ledger(entries, ledger)
    assert claims.load_ledger(ledger) == entries
    assert ledger.stat().st_mode & 0o777 == 0o640
    assert list(tmp_path.iterdir()) == [ledger]


def test_ledger_experiments_parse():
    # each `polyxform ...` experiment must be a command the CLI accepts, so a
    # removed flag, or a value its argument's type refuses, cannot linger there;
    # a trailing "(...)" note is cut and a "{a,b,c}" choice reads as its first item
    parser = cli.build_parser()
    commands = [
        (entry.claim_id, entry.experiment)
        for entry in claims.load_ledger(LEDGER_SRC)
        if entry.experiment.startswith("polyxform ")
    ]
    assert len(commands) == 8
    for claim_id, experiment in commands:
        text = re.sub(r"\s*\([^()]*\)$", "", experiment)
        text = re.sub(r"\{([^,}]*)[^}]*\}", r"\1", text)
        try:
            parser.parse_args(text.split()[1:])
        except SystemExit:
            pytest.fail(f"{claim_id}: {experiment!r} does not parse")


def test_readme_commands_parse():
    # each `polyxform ...` line of the README's sh blocks must be a command
    # the CLI accepts, so an option a change removes cannot linger there
    parser = cli.build_parser()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [
        line for block in blocks for line in block.splitlines()
        if line.startswith("polyxform ")
    ]
    assert len(commands) == 7
    for command in commands:
        try:
            parser.parse_args(command.split()[1:])
        except SystemExit:
            pytest.fail(f"{command!r} does not parse")



def test_readme_layout_has_one_row_per_module():
    # the Layout table names each module of the package once and nothing else,
    # so a module added or deleted cannot leave the table stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    table = re.search(r"^\|.*?(?=\n[^|])", section, flags=re.M | re.S).group(0)
    rows = table.splitlines()[2:]  # below the header and its rule
    named = [re.fullmatch(r"\| `polyxform\.(\w+)` \|.*", row) for row in rows]
    assert None not in named, rows
    modules = {path.stem for path in Path(cli.__file__).parent.glob("*.py")} - {"__init__"}
    assert sorted(m.group(1) for m in named) == sorted(modules)


def library_trees():
    """(module name, parsed source) for every module of the package."""
    paths = sorted(Path(cli.__file__).parent.glob("*.py"))
    return [(path.stem, ast.parse(path.read_text())) for path in paths]


def test_the_library_raises_only_its_own_errors():
    # a caller catches PolyxformError (UsageError for a bad argument); a bare
    # ValueError or TypeError from the package would escape that handler
    raised = []
    for module, tree in library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    raised.append(f"{module}:{node.lineno} {exc.id}")
    assert raised == []


# The classes a library raise may name: the library's own four, AssertionError
# for what cannot happen, and argparse's error, the one an argparse type raises
# for argparse to exit 2 with it.
RAISABLE = {"PolyxformError", "UsageError", "OverflowRisk", "PrimeSupplyExhausted",
            "AssertionError", "argparse.ArgumentTypeError"}


def test_every_raise_names_a_library_error():
    # a bad argument is a UsageError, so no other class says "the caller erred"
    raised = {
        f"{module}:{node.lineno} {ast.unparse(node.exc)}"
        for module, tree in library_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and ast.unparse(getattr(node.exc, "func", node.exc)) not in RAISABLE
    }
    assert raised == set()


def test_only_as_int_checks_for_an_int():
    # one function decides what counts as an integer argument: any other
    # type(v) is int, type(v) is not int or isinstance(v, int) is a copy of it
    def checks_int(node):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            return (any(isinstance(s, ast.Name) and s.id == "int" for s in sides)
                    and any(isinstance(s, ast.Call) and ast.unparse(s.func) == "type"
                            for s in sides))
        return (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                and "int" in ast.unparse(node.args[1]))

    owners = []
    for module, tree in library_trees():
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in filter(checks_int, ast.walk(tree)):
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            owner = max(around, key=lambda f: f.lineno).name if around else "<module>"
            owners.append(f"{module}.{owner}")
    assert owners == ["modcore._as_int"]


@pytest.mark.parametrize("call, message", [
    (lambda plan: ptransform.preprocess(p=13, seed=1.5), "a seed is a Python int, not float"),
    (lambda plan: ptransform.preprocess(p=13, seed=True), "a seed is a Python int, not bool"),
    (lambda plan: ptransform.preprocess(p=13, seed="x"), "a seed is a Python int, not str"),
    (lambda plan: ptransform.preprocess(p=13, seed=-1), "a seed must be >= 0, not -1"),
    (lambda plan: ptransform.spot_check([1] * plan.n, plan, 4, seed=1.5),
     "a seed is a Python int, not float"),
    (lambda plan: ptransform.spot_check([1] * plan.n, plan, 4, seed="x"),
     "a seed is a Python int, not str"),
    (lambda plan: ptransform.spot_check([1] * plan.n, plan, np.int64(4), seed=1),
     "sample is a Python int, not int64"),
    (lambda plan: cli.singularity_experiment(PrimeModulus(103), 1.5, 4),
     "trials is a Python int, not float"),
    (lambda plan: cli.singularity_experiment(PrimeModulus(103), 0, 4), "trials must be >= 1, not 0"),
    (lambda plan: cli.singularity_experiment(PrimeModulus(103), 10, 1.5),
     "a seed is a Python int, not float"),
    (lambda plan: bigmul.pack(bigmul.BigNat(12345), 8.0, 4), "limb_bits is a Python int, not float"),
    (lambda plan: bigmul.pack(bigmul.BigNat(12345), 65, 4), "limb_bits must be in [1, 65), not 65"),
    (lambda plan: bigmul.pack(bigmul.BigNat(12345), 8, 2.5), "a length is a Python int, not float"),
    (lambda plan: bigmul.carry_propagate([1, 2], 8.0), "limb_bits is a Python int, not float"),
    (lambda plan: bigmul.carry_propagate([1, 2], True), "limb_bits is a Python int, not bool"),
    (lambda plan: bigmul.BigNat(-1), "a BigNat must be >= 0, not -1"),
    (lambda plan: extension.ext_powers(plan.omega, 2.0), "a power count is a Python int, not float"),
    (lambda plan: extension.ext_powers(plan.omega, -1), "a power count must be >= 0, not -1"),
    (lambda plan: extension.ext_pow(plan.omega, 1.5), "an exponent is a Python int, not float"),
    (lambda plan: plan.omega ** "2", "an exponent is a Python int, not str"),
    (lambda plan: plan.context.element(1, 2.5), "a coefficient is a Python int, not float"),
    (lambda plan: plan.p.residue(3) ** "2", "an exponent is a Python int, not str"),
    (lambda plan: extension.find_extension_root_of_order(0, plan.context),
     "an order must be >= 1, not 0"),
    (lambda plan: oracles.find_root_of_order(1.5, plan.p), "an order is a Python int, not float"),
], ids=["preprocess-float-seed", "preprocess-bool-seed", "preprocess-str-seed",
        "preprocess-negative-seed", "spot-check-float-seed", "spot-check-str-seed",
        "spot-check-numpy-sample", "singularity-float-trials", "singularity-zero-trials",
        "singularity-float-seed", "pack-float-limb-bits", "pack-wide-limb-bits",
        "pack-float-length", "carry-float-limb-bits", "carry-bool-limb-bits",
        "negative-bignat", "ext-powers-float-count", "ext-powers-negative-count",
        "ext-pow-float-exponent", "element-str-exponent", "element-float-coefficient",
        "residue-str-exponent", "extension-root-of-order-zero", "root-of-float-order"])
def test_scalar_arguments_are_refused_with_a_usage_error(plan7, call, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        call(plan7)


def test_mul_pt_backend_runs_on_the_p7_plan(capsys, plan7_file):
    # every helper prime of a plan serves omega^-1 too, so the p = 7 plan
    # has an inverse plan and the multiply reaches its verdict
    code, out = run(
        capsys, "mul", "--a", "0x3039", "--b", "0x1a85",
        "--backend", "polynomial-transform", "--plan", plan7_file,
    )
    assert code == EXIT_OK
    assert json.loads(out)["results"]["verdict"] in ("match", "mismatch")


def test_verify_refuses_plan_with_prime_unusable_for_the_inverse(capsys, tmp_path):
    # the p = 7 plan with the primes a rule checking omega alone would take:
    # omega^-1 reduces to zero at the root 4 of prime 31
    old = tmp_path / "plan7_forward_only.json"
    old.write_text(json.dumps({
        "format_version": 3, "p": 7, "y": 2, "omega": [1, 1, 0],
        "coeff_bound": 6, "primes": [31, 43, 109, 127],
    }))
    code = main(["verify", "--plan", str(old), "--sample", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert "helper prime 31 is unusable for this plan" in captured.err


def test_verify_refuses_a_helper_prime_past_the_scan_before_searching_its_roots(capsys, tmp_path):
    # 64 * 13 = 832: _try_slot's root search would take seconds at 10,000,141
    doc = json.loads(ptransform.plan_to_json(ptransform.preprocess(p=13)))
    path = tmp_path / "plan13.json"
    path.write_text(json.dumps(dict(doc, primes=doc["primes"] + [10_000_141])))
    start = time.perf_counter()
    code = main(["verify", "--plan", str(path), "--sample", "2"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert "helper prime 10000141 is above 64*p = 832" in captured.err
    assert elapsed < 0.5
    path.write_text(json.dumps(dict(doc, primes=doc["primes"] + [811])))
    assert main(["verify", "--plan", str(path), "--sample", "2"]) == EXIT_OK


def test_plan_exits_3_when_the_prime_scan_runs_out(capsys, monkeypatch):
    # preprocess's prime scan is the one place a plan can fail
    monkeypatch.setattr(ptransform, "MAX_SCAN_FACTOR", 1)
    code = main(["plan", "--p", "7", "--out", "/dev/null"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_PLAN, "")
    assert captured.err.startswith("plan error: prod(q)")


def test_bench_csv(capsys):
    code, out = run(
        capsys, "bench", "--sizes", "256,512", "--format", "csv",
        "--repetitions", "1",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "bits,backend,limb_ops,best_wall_seconds"
    assert len(lines) == 1 + 2 * 2  # two sizes x two default backends


def test_bench_limb_ops_deterministic(capsys):
    def rows(text):
        return [l.rsplit(",", 1)[0] for l in text.strip().splitlines()]

    _, a = run(capsys, "bench", "--sizes", "1024", "--format", "csv", "--seed", "5")
    _, b = run(capsys, "bench", "--sizes", "1024", "--format", "csv", "--seed", "5")
    assert rows(a) == rows(b)  # identical modulo the wall-time column


def test_bench_empty_sizes(capsys, monkeypatch):
    code, _ = run(capsys, "bench", "--sizes", "")
    assert code == EXIT_USAGE
    code, _ = run(capsys, "bench", "--sizes", "64", "--repetitions", "0")
    assert code == EXIT_USAGE
    # an empty or unknown backend list is refused before any backend is timed
    timed = []
    monkeypatch.setattr(bigmul, "transform_mul", lambda *a: timed.append(a))
    for backends in ("", ",", "karatsuba,foo", "polynomial-transform"):
        code, out = run(capsys, "bench", "--sizes", "64", "--backends", backends)
        assert (code, out, timed) == (EXIT_USAGE, "", [])


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--sizes", "0"),
        ("bench", "--sizes", "-3"),
        ("bench", "--sizes", "x"),
        ("bench", "--sizes", "64,x"),
        ("experiments", "--which", "cost-model", "--bounds", "1"),
        ("experiments", "--which", "cost-model", "--bounds", "x,5"),
        ("experiments", "--which", "cost-model", "--bounds", ","),
        ("experiments", "--which", "cost-model", "--bounds", "2,100"),
        # one bound, or the same first and last, leaves the ratios nothing to compare
        ("experiments", "--which", "cost-model", "--bounds", "1000"),
        ("experiments", "--which", "cost-model", "--bounds", "1000,1000"),
    ],
)
def test_integer_lists_reject_bad_items(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == "" and f"error: argument {argv[-2]}: " in captured.err


def test_experiments_density(capsys):
    code, out = run(capsys, "experiments", "--which", "density", "--p", "13")
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["noncubes"] == 8
    assert res["exact_two_thirds"] is True


def test_experiments_density_needs_one_mod_three(capsys):
    code, _ = run(capsys, "experiments", "--which", "density", "--p", "11")
    assert code == EXIT_USAGE


def test_experiments_singularity_deterministic(capsys):
    args = ("experiments", "--which", "singularity", "--q", "103", "--trials", "20000", "--seed", "4")
    code, a = run(capsys, *args)
    assert code == EXIT_OK
    _, b = run(capsys, *args)
    assert strip_timing(a) == strip_timing(b)
    res = json.loads(a)["results"]
    assert res["trials"] == 20000
    assert "within_statistical_tolerance" in res


def test_experiments_cost_model(capsys):
    code, out = run(capsys, "experiments", "--which", "cost-model", "--bounds", "1000,10000")
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["scaling_within_factor_two"] is True
    assert len(res["bounds"]) == 2


def test_experiments_cost_model_refutes_outside_its_band(capsys, tmp_path):
    # from 1,000 to 100,000 the measured ratios leave the factor-two band of the predicted ones
    argv = ("experiments", "--which", "cost-model", "--bounds", "1000,100000")
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["results"]["scaling_within_factor_two"] is False
    ledger = tmp_path / "ledger.json"
    shutil.copy(LEDGER_SRC, ledger)
    code, out = run(capsys, *argv, "--update-ledger", "--ledger", str(ledger))
    assert code == EXIT_OK
    assert json.loads(out)["results"]["ledger_entry"]["verdict"] == "refuted"
    assert claims.get_entry("s3-prime-sum-scaling", path=ledger).verdict == "refuted"


def test_config_is_the_parsed_arguments(capsys, plan7_file, tmp_path):
    ledger = tmp_path / "ledger.json"
    shutil.copy(LEDGER_SRC, ledger)
    cases = [
        (("sieve", "--limit", "100"), {"limit": 100}),
        (
            ("plan", "--p", "7", "--plan-out", str(tmp_path / "p.json")),
            {"n_target": None, "p": 7, "coeff_bound": None, "seed": 0},
        ),
        (
            ("verify", "--plan", plan7_file, "--sample", "2", "--update-ledger", "--ledger", str(ledger)),
            {"plan": plan7_file, "input": "random", "sample": 2, "seed": 0},
        ),
        (
            ("mul", "--a", "0x2", "--b", "0x3", "--backend", "karatsuba"),
            {"a": "0x2", "b": "0x3", "backend": "karatsuba", "plan": ""},
        ),
        (
            ("bench", "--sizes", "64,,128", "--backends", "schoolbook,", "--repetitions", "1"),
            {"sizes": [64, 128], "backends": ["schoolbook"], "repetitions": 1, "seed": 0},
        ),
        (
            ("experiments", "--which", "density", "--p", "13"),
            {"which": "density", "seed": 0, "trials": 100_000, "p": 13, "q": None, "bounds": None},
        ),
    ]
    for argv, config in cases:
        code, out = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)["config"] == config, argv[0]


@pytest.mark.parametrize(
    "argv, claim_id",
    [
        (("--which", "density", "--p", "13"), "s3-noncube-density"),
        (("--which", "singularity", "--q", "13", "--trials", "500"), "s3-circulant-singularity"),
        (("--which", "cost-model", "--bounds", "100,1000"), "s3-prime-sum-scaling"),
    ],
)
def test_experiments_update_only_their_own_claim(capsys, tmp_path, argv, claim_id):
    ledger = tmp_path / "ledger.json"
    shutil.copy(LEDGER_SRC, ledger)
    code, out = run(capsys, "experiments", *argv, "--update-ledger", "--ledger", str(ledger))
    assert code == EXIT_OK
    entry = claims.get_entry(claim_id, path=ledger)
    assert json.loads(out)["results"]["ledger_entry"] == {
        "claim_id": claim_id, "verdict": entry.verdict}
    assert entry.evidence.startswith(f"experiments {argv[1]} ")
    others = [e for e in claims.load_ledger(ledger) if e.claim_id != claim_id]
    assert others == [e for e in claims.load_ledger(LEDGER_SRC) if e.claim_id != claim_id]


def test_mul_ledger_refused_before_any_multiply(capsys, tmp_path, monkeypatch):
    ledger = tmp_path / "ledger.json"
    shutil.copy(LEDGER_SRC, ledger)
    calls = []
    monkeypatch.setattr(bigmul, "transform_mul", lambda *a: calls.append(a))
    code = main([
        "mul", "--a", "0x2", "--b", "0x3", "--backend", "karatsuba",
        "--update-ledger", "--ledger", str(ledger),
    ])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.err.startswith("usage error:")
    assert calls == [] and captured.out == ""
    assert ledger.read_text() == LEDGER_SRC.read_text()


@pytest.mark.parametrize("backend", ["schoolbook", "karatsuba", "oracle-ntt"])
@pytest.mark.parametrize("plan", ["missing", "real"])
def test_mul_plan_refused_with_an_exact_backend_before_it_is_read(
    capsys, monkeypatch, plan13_file, tmp_path, backend, plan
):
    # an exact backend uses no plan, so --plan is refused before any file is read
    path = plan13_file if plan == "real" else str(tmp_path / "missing.json")
    monkeypatch.setattr(cli, "_load_plan", lambda _: pytest.fail("plan read"))
    monkeypatch.setattr(bigmul, "transform_mul", lambda *a: pytest.fail("multiplied"))
    code = main(["mul", "--a", "0x2", "--b", "0x3", "--backend", backend, "--plan", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert "usage error: --plan is taken by the polynomial-transform backend only" in captured.err


@pytest.mark.parametrize(
    "argv, err",
    [
        (("--which", "density", "--p", "0"), "usage error:"),
        (("--which", "singularity", "--q", "0", "--trials", "10"), "usage error:"),
        (("--which", "cost-model", "--bounds", ""), "error: argument --bounds: "),
    ],
)
def test_experiments_take_zero_and_empty_as_given(capsys, argv, err):
    code = main(["experiments", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == "" and err in captured.err


@pytest.mark.parametrize("flag", ["--out", "--plan-out", "--ledger"])
def test_unusable_path_is_a_usage_error(capsys, plan7_file, tmp_path, flag):
    path = str(tmp_path / "no-such-dir" / "x.json")
    argv = {
        "--out": ("sieve", "--limit", "10", "--out", path),
        "--plan-out": ("plan", "--p", "7", "--plan-out", path),
        "--ledger": ("verify", "--plan", plan7_file, "--sample", "2", "--update-ledger", "--ledger", path),
    }[flag]
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == "" and captured.err.startswith("usage error:")
    assert path in captured.err and "Traceback" not in captured.err


def test_unwritable_out_leaves_the_ledger_as_it_was(capsys, tmp_path):
    ledger = tmp_path / "ledger.json"
    shutil.copy(LEDGER_SRC, ledger)
    claims.save_ledger(claims.set_verdict("s3-noncube-density", "pending", "stale", path=ledger), ledger)
    before = ledger.read_bytes()
    code = main([
        "experiments", "--which", "density", "--p", "13", "--update-ledger",
        "--ledger", str(ledger), "--out", str(tmp_path / "missing-dir" / "x.json"),
    ])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.err.startswith("usage error:")
    assert ledger.read_bytes() == before


def test_refused_format_leaves_the_ledger_as_it_was(capsys, tmp_path):
    ledger = tmp_path / "ledger.json"
    shutil.copy(LEDGER_SRC, ledger)
    claims.save_ledger(claims.set_verdict("s3-noncube-density", "pending", "stale", path=ledger), ledger)
    stale = ledger.read_bytes()
    code = main([
        "experiments", "--which", "density", "--p", "13", "--format", "csv",
        "--update-ledger", "--ledger", str(ledger),
    ])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "unrecognized arguments: --format csv" in captured.err
    assert "Traceback" not in captured.err
    assert ledger.read_bytes() == stale


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({"ledger_version": 2, "claims": []}),  # a version this code cannot read
        json.dumps({"ledger_version": 1}),  # no claims
        json.dumps({"ledger_version": 1, "claims": [{"claim_id": "x"}]}),  # missing fields
        json.dumps({"ledger_version": 1, "claims": [
            {**dataclasses.asdict(claims.load_ledger(LEDGER_SRC)[0]), "colour": "red"}
        ]}),  # unknown field
        json.dumps({"ledger_version": 1, "claims": [
            {**dataclasses.asdict(claims.load_ledger(LEDGER_SRC)[0]), "verdict": "yes"}
        ]}),  # a verdict not in VERDICTS
        json.dumps({"ledger_version": 1, "claims": [
            {**dataclasses.asdict(claims.load_ledger(LEDGER_SRC)[1]), "evidence": 7}
        ]}),  # a field that is not a string
    ],
    ids=["invalid-json", "version-2", "no-claims", "missing-fields", "unknown-field",
         "unknown-verdict", "non-string-field"],
)
def test_malformed_ledger_is_a_usage_error(capsys, tmp_path, text):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(text)
    with pytest.raises(UsageError):
        claims.load_ledger(ledger)
    code = main([
        "experiments", "--which", "density", "--p", "13",
        "--update-ledger", "--ledger", str(ledger),
    ])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("usage error:") and "Traceback" not in captured.err
    assert ledger.read_text() == text


def test_ledger_refuses_an_unknown_verdict_or_claim(tmp_path):
    ledger = tmp_path / "ledger.json"
    shutil.copy(LEDGER_SRC, ledger)
    with pytest.raises(UsageError, match="verdict must be one of"):
        claims.set_verdict("s5-multiplication", "proven", "", path=ledger)
    for refused in (lambda: claims.set_verdict("no-such-claim", "pending", "", path=ledger),
                    lambda: claims.get_entry("no-such-claim", path=ledger)):
        with pytest.raises(UsageError, match="no ledger entry with id 'no-such-claim'"):
            refused()
    assert ledger.read_bytes() == LEDGER_SRC.read_bytes()


def test_backend_mismatch_in_bench_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(bigmul, "schoolbook_mul", lambda a, b: bigmul.BigNat(0))
    code = main(["bench", "--sizes", "64", "--backends", "schoolbook", "--repetitions", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_MISMATCH, "")
    assert "error: backend schoolbook mismatched at 64 bits" in captured.err
    assert "Traceback" not in captured.err
