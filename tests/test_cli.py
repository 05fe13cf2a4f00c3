import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kq.cli
from kq.cli import main
from kq.errors import InternalInvariantError
from kq.documents import algebra_to_dict, parse_algebra, parse_sequence
from kq.toda import toda_bracket

from test_closed_form import universal
from test_golden_stdout import window_cut
from test_validate_reference import _unit_hit_algebra

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_massey_fixture(capsys):
    code, out, err = run_cli(
        capsys, "validate", "--algebra", str(FIXTURES / "massey_algebra.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["violations"] == []


def test_validate_broken_fixture_reports_witness(capsys):
    code, out, err = run_cli(
        capsys, "validate", "--algebra", str(FIXTURES / "broken_d_squared.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is False
    assert any(v["axiom"] == "d_squared" and v["witness"] == ["w"] for v in doc["violations"])


def test_unit_algebra_homology(capsys):
    code, out, _ = run_cli(
        capsys, "homology", "--algebra", str(FIXTURES / "unit_algebra.json"), "--k", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["modules"] == [
        {"r": 0, "order_exponents": [1], "representatives": [[{"gen": "1", "coeff": 1}]]}
    ]


def test_toda_command_matches_expected_class(capsys):
    code, out, _ = run_cli(
        capsys,
        "toda",
        "--algebra",
        str(FIXTURES / "massey_algebra.json"),
        "--sequence",
        str(FIXTURES / "massey_sequence_abc.json"),
        "--n",
        "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "defined"
    ent = doc["representative"]["entries"]
    assert len(ent) == 1
    assert ent[0]["value"]["cycle"] == [
        {"coeff": 1, "gen": "ay"},
        {"coeff": 1, "gen": "xc"},
    ]
    assert doc["indeterminacy_generators"] == []


def test_massey_is_alias_of_toda(capsys):
    args = [
        "--algebra",
        str(FIXTURES / "massey_algebra.json"),
        "--sequence",
        str(FIXTURES / "massey_sequence_abc.json"),
        "--n",
        "1",
    ]
    c1, out1, _ = run_cli(capsys, "toda", *args)
    c2, out2, _ = run_cli(capsys, "massey", *args)
    assert c1 == c2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("command")
    d2.pop("command")
    assert d1 == d2


def test_oracle_command_singleton(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "--algebra",
        str(FIXTURES / "massey_algebra.json"),
        "--sequence",
        str(FIXTURES / "massey_sequence_abc.json"),
        "--n",
        "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["set_size"] == 1


def test_adams_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "adams-d",
        "--algebra",
        str(FIXTURES / "massey_algebra.json"),
        "--sequence",
        str(FIXTURES / "massey_sequence_abc.json"),
        "--n",
        "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "defined"
    assert doc["representative"]["zero"] is False


def test_chain_complex_command_fails_with_certificate(capsys):
    code, out, _ = run_cli(
        capsys,
        "chain-complex",
        "--algebra",
        str(FIXTURES / "massey_algebra.json"),
        "--sequence",
        str(FIXTURES / "massey_sequence_abc.json"),
        "--n",
        "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "not_constructible"
    assert doc["failed_step"] == 2


def test_truncate_roundtrip_idempotent(capsys):
    code, out, _ = run_cli(
        capsys,
        "truncate",
        "--algebra",
        str(FIXTURES / "massey_algebra.json"),
        "--n",
        "0",
    )
    assert code == 0
    doc = json.loads(out)["algebra"]
    algebra, violations = parse_algebra(doc)
    assert violations == []
    assert algebra_to_dict(algebra) == doc


def test_serialize_parse_canonical_idempotence():
    src = json.loads((FIXTURES / "massey_algebra.json").read_text())
    algebra, _ = parse_algebra(src)
    once = algebra_to_dict(algebra)
    again = algebra_to_dict(parse_algebra(once)[0])
    assert once == again


def test_missing_file_is_user_error(capsys):
    code, out, err = run_cli(capsys, "validate", "--algebra", "no-such-file.json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert "error" in doc


def test_invalid_algebra_rejected_for_computation(capsys):
    code, out, err = run_cli(
        capsys,
        "homology",
        "--algebra",
        str(FIXTURES / "broken_d_squared.json"),
        "--k",
        "0",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["kind"] == "user"
    assert doc["detail"]["violations"]


def test_engine_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("ENGINE_BUDGET", "1")
    code, out, err = run_cli(
        capsys,
        "oracle",
        "--algebra",
        str(FIXTURES / "massey_algebra.json"),
        "--sequence",
        str(FIXTURES / "massey_sequence_abc.json"),
        "--n",
        "1",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["kind"] == "budget"


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys,
        "validate",
        "--algebra",
        str(FIXTURES / "massey_algebra.json"),
        "--out",
        str(target),
    )
    assert code == 0
    assert target.read_text() == out


def test_cli_byte_identical_member_process():
    cmd = [
        sys.executable,
        "-m",
        "kq",
        "toda",
        "--algebra",
        str(FIXTURES / "massey_algebra.json"),
        "--sequence",
        str(FIXTURES / "massey_sequence_abc.json"),
        "--n",
        "1",
    ]
    root = Path(__file__).resolve().parent.parent
    r1 = subprocess.run(cmd, capture_output=True, cwd=root)
    r2 = subprocess.run(cmd, capture_output=True, cwd=root)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


_IMPORT_CHECK = """
import json, sys
before = set(sys.modules)
import kq.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_dataclasses_inspect_or_traceback():
    # each command is a fresh process that pays for every module it loads, and no command needs these;
    # traceback is imported on the exit-2 path only.  Every engine module still loads, so the
    # benchmark tracer, which wraps the kq modules right after importing kq.cli, sees them all.
    r = subprocess.run([sys.executable, "-c", _IMPORT_CHECK], capture_output=True, cwd=Path(__file__).resolve().parent.parent)
    assert r.returncode == 0, r.stderr
    loaded = set(json.loads(r.stdout))
    assert loaded & {"dataclasses", "inspect", "traceback"} == set()
    assert {"kq.cubical", "kq.toda", "kq.track"} <= loaded


def _oracle_args():
    return [
        "oracle",
        "--algebra",
        str(FIXTURES / "massey_algebra.json"),
        "--sequence",
        str(FIXTURES / "massey_sequence_abc.json"),
        "--n",
        "1",
    ]


def _assert_user_error(code, out, mentions):
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["kind"] == "user"
    assert mentions in doc["error"]


def _assert_exact_user_error(code, out, message):
    assert code == 1
    doc = json.loads(out)
    assert (doc["status"], doc["kind"], doc["error"]) == ("error", "user", message)


def test_homology_negative_level_rejected(capsys):
    code, out, _ = run_cli(
        capsys, "homology", "--algebra", str(FIXTURES / "massey_algebra.json"), "--k", "-3"
    )
    _assert_user_error(code, out, "level -3")


def test_truncate_negative_level_rejected(capsys):
    code, out, _ = run_cli(
        capsys, "truncate", "--algebra", str(FIXTURES / "massey_algebra.json"), "--n", "-1"
    )
    _assert_user_error(code, out, "level -1")


def test_truncate_of_a_boundary_unit_is_the_zero_algebra(capsys, tmp_path):
    # d(b) = 1: the unit's class vanishes at level 0, so the truncation there is the zero algebra
    path = tmp_path / "unit_hit.json"
    path.write_text(json.dumps(algebra_to_dict(_unit_hit_algebra())))
    assert json.loads(run_cli(capsys, "validate", "--algebra", str(path))[1])["valid"] is True
    code, out, _ = run_cli(capsys, "truncate", "--algebra", str(path), "--n", "0")
    _assert_exact_user_error(code, out, "the level-0 truncation is the zero algebra: the class of the unit vanishes")


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_flag_below_one_rejected(budget, capsys):
    code, out, _ = run_cli(capsys, *_oracle_args(), "--budget", budget)
    _assert_user_error(code, out, "budget")


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_env_below_one_rejected(budget, monkeypatch, capsys):
    monkeypatch.setenv("ENGINE_BUDGET", budget)
    code, out, _ = run_cli(capsys, *_oracle_args())
    _assert_user_error(code, out, "budget")


@pytest.mark.parametrize("exc", [InternalInvariantError("broken invariant"), RuntimeError("boom")])
def test_internal_error_is_json_exit_2(exc, monkeypatch, capsys):
    def fail(args):
        raise exc

    monkeypatch.setattr(kq.cli, "run", fail)
    code, out, err = run_cli(capsys, *_oracle_args())
    assert code == 2
    doc = json.loads(out)
    assert set(doc) == {"command", "status", "kind", "error"}
    assert doc["command"] == "oracle"
    assert doc["status"] == "error"
    assert doc["kind"] == "internal"
    assert str(exc) in doc["error"]
    # the traceback goes to stderr, from the traceback module imported on this path only
    assert "Traceback (most recent call last)" in err
    assert f"{type(exc).__name__}: {exc}" in err


@pytest.mark.parametrize(
    "argv, mentions",
    [
        (["validate", "--algebra", str(FIXTURES / "massey_algebra.json"), "--k", "foo"], "invalid int value"),
        (["validate"], "--algebra"),
        (["bogus", "--algebra", str(FIXTURES / "massey_algebra.json")], "invalid choice"),
    ],
    ids=["bad-int", "missing-algebra", "unknown-command"],
)
def test_malformed_command_line_is_user_error(argv, mentions, capsys):
    code, out, err = run_cli(capsys, *argv)
    _assert_user_error(code, out, mentions)
    assert json.loads(out)["command"] is None
    assert "usage:" in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def _window_cut_algebra(tmp_path):
    """Z/2, truncation 1, rMax 1: a, b, c in bidegree (1,0), no products, no differential."""
    doc = {
        "modulus": 2,
        "truncation": 1,
        "rMax": 1,
        "unit": "1",
        "basis": [{"name": "1", "r": 0, "s": 0}] + [{"name": x, "r": 1, "s": 0} for x in "abc"],
        "differential": [],
        "products": [],
    }
    path = tmp_path / "window_cut.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_window_cut_bracket_is_unsound(capsys, tmp_path):
    # a*b and b*c escape rMax, so the zero bracket rests on the cutoff
    code, out, _ = run_cli(
        capsys,
        "toda",
        "--algebra",
        _window_cut_algebra(tmp_path),
        "--sequence",
        str(FIXTURES / "massey_sequence_abc.json"),
    )
    assert code == 0
    assert json.loads(out)["status"] == "degree_window_unsound"


def test_window_cut_oracle_is_a_user_error(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "--algebra",
        _window_cut_algebra(tmp_path),
        "--sequence",
        str(FIXTURES / "massey_sequence_abc.json"),
    )
    _assert_user_error(code, out, "crossed the degree window")


def test_order_one_toda_on_window_cut_universal_algebra(capsys, tmp_path):
    # the order-1 universal algebra with the free cycle over Z/2, rMax lowered
    # from 3 to 2: the window cuts off the products of the bracket and of its
    # indeterminacy, so the bracket is reported unsound without indeterminacy
    rng = random.Random(3)
    algebra_doc = window_cut(universal.algebra_doc(1, 2, rng, free_cycle=True), 2)
    sequence_doc = universal.sequence_doc(1, universal.draw_units(1, 2, rng))
    paths = []
    for name, doc in (("algebra", algebra_doc), ("sequence", sequence_doc)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "toda", "--algebra", str(paths[0]), "--sequence", str(paths[1]), "--n", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "degree_window_unsound"
    assert "representative" in doc
    assert [entry["stage"] for entry in doc["choice_log"]] == ["level 1 index 1", "level 1 index 2"]
    assert "indeterminacy_generators" not in doc


def test_window_cut_indeterminacy_makes_bracket_unsound(capsys, tmp_path):
    # rMax 2 with a free cycle z in bidegree (2,1) and no products: the zero
    # bracket multiplies nothing, but its indeterminacy needs z*c, which the
    # window cuts off
    doc = {
        "modulus": 2,
        "truncation": 1,
        "rMax": 2,
        "unit": "1",
        "basis": [{"name": "1", "r": 0, "s": 0}]
        + [{"name": x, "r": 1, "s": 0} for x in "abc"]
        + [{"name": "z", "r": 2, "s": 1}],
        "differential": [],
        "products": [],
    }
    sequence = FIXTURES / "massey_sequence_abc.json"
    algebra, _ = parse_algebra(doc)
    seq = parse_sequence(json.loads(sequence.read_text()), algebra)
    assert toda_bracket(algebra, seq, 1).status == "defined"
    path = tmp_path / "cut_indeterminacy.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "toda", "--algebra", str(path), "--sequence", str(sequence))
    assert code == 0
    result = json.loads(out)
    assert result["status"] == "degree_window_unsound"
    assert "indeterminacy_generators" not in result


@pytest.mark.parametrize("command", ["toda", "massey", "oracle", "chain-complex", "adams-d"])
@pytest.mark.parametrize("n", ["2", "-1"])
def test_order_outside_truncation_rejected(command, n, capsys):
    code, out, _ = run_cli(
        capsys,
        command,
        "--algebra",
        str(FIXTURES / "massey_algebra.json"),
        "--sequence",
        str(FIXTURES / "massey_sequence_abc.json"),
        "--n",
        n,
    )
    _assert_user_error(code, out, f"the algebra is 1-truncated but order {n} was requested")


def test_duplicate_map_entry_rejected(capsys, tmp_path):
    doc = json.loads((FIXTURES / "massey_sequence_abc.json").read_text())
    doc["maps"][0]["entries"].append({"row": 0, "col": 0, "value": [{"gen": "b", "coeff": 1}]})
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "toda", "--algebra", str(FIXTURES / "massey_algebra.json"), "--sequence", str(path)
    )
    u = len(doc["maps"][0]["entries"]) - 1
    _assert_user_error(code, out, f"duplicate map entry at maps[0].entries[{u}]")


def _replace(doc, path, value):
    """doc with the value at path (keys and indices) replaced; the empty path replaces doc."""
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "which, path, value, mentions",
    [
        ("algebra", (), "modulus", "expected an object at document"),
        ("algebra", ("basis",), [5], "expected an object at basis[0]"),
        ("algebra", ("differential",), [3], "expected an object at differential[0]"),
        ("algebra", ("differential",), 5, "field 'differential' at document has the wrong type"),
        ("algebra", ("products",), None, "field 'products' at document has the wrong type"),
        ("algebra", ("products", 0, "to"), [7], "expected an object at products[0].to[0]"),
        ("sequence", ("modules",), [3], "expected an object at modules[0]"),
        ("sequence", ("maps", 0, "entries"), [0], "expected an object at maps[0].entries[0]"),
        # JSON true and false are not integers, although Python's bool is an int
        ("algebra", ("truncation",), True, "field 'truncation' at document has the wrong type"),
        ("algebra", ("basis", 1, "r"), True, "field 'r' at basis[1] has the wrong type"),
        ("algebra", ("differential", 0, "to", 0, "coeff"), True, "field 'coeff' at differential[0].to[0] has the wrong type"),
        ("sequence", ("modules", 1, "generators", 0, "r"), False, "field 'r' at modules[1].generators[0] has the wrong type"),
        ("sequence", ("maps", 0, "entries", 0, "row"), True, "field 'row' at maps[0].entries[0] has the wrong type"),
        ("algebra", ("differential", 0, "to"), 5, "field 'to' at differential[0] has the wrong type"),
        ("algebra", ("differential", 1, "from"), "x", "duplicate differential entry at differential[1]"),
        ("algebra", ("products", 1, "right"), "b", "duplicate product entry at products[1]"),
        ("algebra", ("basis", 1, "name"), "1", "duplicate basis names"),
        ("algebra", ("unit",), "nope", "unit 'nope' is not a basis element"),
        ("algebra", ("differential", 0, "from"), "nope", "differential on unknown element 'nope'"),
        ("algebra", ("differential", 0, "to", 0, "gen"), "nope", "differential of 'x' hits unknown 'nope'"),
        ("algebra", ("products", 0, "left"), "nope", "product on unknown pair ('nope','b')"),
        ("algebra", ("products", 0, "to", 0, "gen"), "nope", "product ('a','b') hits unknown 'nope'"),
        ("sequence", ("modules", 1, "name"), "X0", "duplicate module name 'X0'"),
        ("sequence", ("maps", 0, "from"), "X2", "maps[0] must go from modules[1] to modules[0] in order"),
        ("sequence", ("maps", 0, "entries", 0, "row"), 1, "entry indices out of range at maps[0].entries[0]"),
        # degree (1,0) is needed from X1 (r = 1) to X0 (r = 0), and ab sits in (2,0)
        ("sequence", ("maps", 0, "entries", 0, "value", 0, "gen"), "ab", "entry value at maps[0].entries[0] must be a degree (1,0) cycle"),
    ],
    ids=[
        "document",
        "basis",
        "differential-item",
        "differential",
        "products",
        "product-target",
        "modules",
        "entries",
        "bool-truncation",
        "bool-basis-r",
        "bool-coeff",
        "bool-generator-r",
        "bool-entry-row",
        "differential-target",
        "duplicate-differential",
        "duplicate-product",
        "duplicate-basis-name",
        "unknown-unit",
        "differential-on-unknown",
        "differential-hits-unknown",
        "product-on-unknown",
        "product-hits-unknown",
        "duplicate-module",
        "map-out-of-order",
        "entry-out-of-range",
        "entry-wrong-degree",
    ],
)
def test_malformed_document_is_user_error(which, path, value, mentions, capsys, tmp_path):
    paths = {
        "algebra": FIXTURES / "massey_algebra.json",
        "sequence": FIXTURES / "massey_sequence_abc.json",
    }
    bad = tmp_path / f"{which}.json"
    bad.write_text(json.dumps(_replace(json.loads(paths[which].read_text()), path, value)))
    paths[which] = bad
    argv = ["validate", "--algebra", str(paths["algebra"])]
    if which == "sequence":
        argv = ["toda", "--algebra", str(paths["algebra"]), "--sequence", str(paths["sequence"])]
    code, out, _ = run_cli(capsys, *argv)
    _assert_exact_user_error(code, out, mentions)


def _sequence_file(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _abc():
    return json.loads((FIXTURES / "massey_sequence_abc.json").read_text())


def _five_modules():
    doc = _abc()
    doc["modules"].append({"name": "X4", "generators": [{"name": "z4", "r": 4}]})
    return doc


@pytest.mark.parametrize(
    "command, doc",
    [("toda", _five_modules()), ("chain-complex", {"modules": [], "maps": []})],
    ids=["a-module-too-many", "no-modules"],
)
def test_a_sequence_must_list_one_more_module_than_maps(command, doc, capsys, tmp_path):
    seq = _sequence_file(tmp_path, "sequence", doc)
    code, out, _ = run_cli(capsys, command, "--algebra", str(FIXTURES / "massey_algebra.json"), "--sequence", seq)
    _assert_exact_user_error(code, out, "a sequence must list one more module than maps")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["toda"], "this command needs --sequence"),
        (["truncate"], "truncate needs --n"),
        (["homology"], "homology needs --k"),
        (["toda", "--sequence", "two-maps"], "order-1 brackets need 3 maps, got 2"),
        (["oracle", "--sequence", "two-maps"], "order-1 brackets need 3 maps, got 2"),
        (["adams-d", "--sequence", "two-maps"], "adams-d needs 3 maps: the resolution window then the class lift"),
    ],
    ids=["toda-no-sequence", "truncate-no-n", "homology-no-k", "toda-two-maps", "oracle-two-maps", "adams-d-two-maps"],
)
def test_a_run_missing_what_its_command_needs_is_user_error(argv, message, capsys, tmp_path):
    doc = _abc()
    two_maps = {"modules": doc["modules"][:3], "maps": doc["maps"][:2]}
    argv = [_sequence_file(tmp_path, "two-maps", two_maps) if a == "two-maps" else a for a in argv]
    code, out, _ = run_cli(capsys, *argv, "--algebra", str(FIXTURES / "massey_algebra.json"))
    _assert_exact_user_error(code, out, message)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--algebra", str(FIXTURES / "massey_algebra.json")],
        ["homology", "--algebra", str(FIXTURES / "broken_d_squared.json"), "--k", "0"],
    ],
    ids=["succeeding", "failing"],
)
def test_unwritable_out_file_is_one_user_error(argv, capsys, tmp_path):
    target = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    _assert_user_error(code, out, f"cannot write the --out file: {target}")
    assert json.loads(out)["command"] == argv[0]
    assert "Traceback" not in err
    assert not target.exists()


def test_input_that_is_not_a_readable_text_file_is_user_error(capsys, tmp_path):
    folder = tmp_path / "folder"
    folder.mkdir()
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{\x00}")
    for path in (folder, binary):
        code, out, err = run_cli(capsys, "validate", "--algebra", str(path))
        _assert_user_error(code, out, f"algebra file cannot be read as UTF-8 text: {path}")
        assert "Traceback" not in err


def test_each_input_file_is_opened_once(monkeypatch, capsys):
    # the inputs hash and the parse come from one read of the same bytes
    opened = []
    real_open = open

    def spy(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    algebra = str(FIXTURES / "massey_algebra.json")
    sequence = str(FIXTURES / "massey_sequence_abc.json")
    code, out, _ = run_cli(capsys, "toda", "--algebra", algebra, "--sequence", sequence, "--n", "1")
    assert code == 0
    assert sorted(opened) == sorted([algebra, sequence])
    assert set(json.loads(out)["inputs"]) == {"algebra_sha256", "sequence_sha256"}


def test_crlf_syntax_error_reports_the_text_mode_position(capsys, tmp_path):
    # newlines are translated before parsing, so CRLF line ends do not shift the position
    path = tmp_path / "crlf.json"
    path.write_bytes(b'{\r\n  "modulus": 2,\r\n  "truncation": 1 2\r\n}\r\n')
    code, out, _ = run_cli(capsys, "validate", "--algebra", str(path))
    _assert_user_error(
        code, out, "algebra file is not valid JSON: Expecting ',' delimiter: line 3 column 19 (char 36)"
    )


def test_engine_budget_env_not_an_integer_rejected(monkeypatch, capsys):
    monkeypatch.setenv("ENGINE_BUDGET", "abc")
    code, out, _ = run_cli(capsys, *_oracle_args())
    _assert_user_error(code, out, "ENGINE_BUDGET is not an integer: 'abc'")


def test_budget_flag_wins_over_engine_budget(monkeypatch, capsys):
    code, expected, _ = run_cli(capsys, *_oracle_args())
    assert code == 0
    monkeypatch.setenv("ENGINE_BUDGET", "1")
    code, out, _ = run_cli(capsys, *_oracle_args(), "--budget", "1000")
    assert code == 0
    assert out == expected
    assert json.loads(out)["set_size"] == 1
