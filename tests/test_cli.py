"""Command line behavior: exit codes, golden output, corpus harness."""
from __future__ import annotations

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, run_cli

GOLDEN = CORPUS_DIR / "golden"


def golden_text(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text()


# -------------------------------------------------------------- exit codes


def test_usage_errors_exit_2():
    for argv in ((), ("formal",), ("derive", "sideways", "x")):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "" and err.startswith("usage:"), argv


def test_domain_errors_exit_1():
    code, out, err = run_cli("formal", "parse", "forall x. (")
    assert code == 1 and out == "" and err.startswith("error:")
    code, _, err = run_cli("derive", "p", str(CORPUS_DIR / "missing.frep"))
    assert code == 1 and "error:" in err


def test_deep_nesting_exits_1_with_one_error_line():
    for verb in ("parse", "sheffer"):
        code, out, err = run_cli("formal", verb, "!" * 3000 + "p")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "nested deeper" in err
        assert len(err.splitlines()) == 1


def test_malformed_model_json_exits_1(tmp_path):
    bad = tmp_path / "model.json"
    bad.write_text("{not json")
    code, _, err = run_cli("formal", "eval", "--model", str(bad), "p")
    assert code == 1 and "invalid JSON" in err


@pytest.mark.parametrize(
    "argv,file,content",
    [
        (["frep", "validate"], "top.frep", "[]"),
        (["scope"], "top.frep", "[]"),
        (["formal", "eval", "p", "--model"], "model.json", '"x"'),
        (["formal", "eval", "p", "--model"], "model.json", '{"domain": ["e"], "predicates": []}'),
    ],
    ids=["frep-validate-list", "scope-list", "eval-model-string", "eval-model-list-predicates"],
)
def test_json_of_the_wrong_shape_exits_1_with_one_error_line(tmp_path, argv, file, content):
    (tmp_path / file).write_text(content)
    code, out, err = run_cli(*argv, str(tmp_path / file))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "object" in err


def test_frep_validate_refuses_a_vacuous_binder(tmp_path):
    data = json.loads((CORPUS_DIR / "jones-saw-everyone.frep").read_text())
    data["string"] = "forall x. J S J"
    (tmp_path / "vacuous.frep").write_text(json.dumps(data))
    code, out, err = run_cli("frep", "validate", str(tmp_path / "vacuous.frep"))
    assert (code, out) == (1, "")
    assert err == "error: VacuousBinder(variable='x')\n"


# ----------------------------------------------------------------- goldens


@pytest.mark.parametrize(
    "name,argv",
    [
        ("formal-parse-forall", ["formal", "parse", "forall x. (x in H -> J S x)"]),
        ("formal-sheffer-implies", ["formal", "sheffer", "(p -> q)"]),
        ("frep-validate-jones", ["frep", "validate", str(CORPUS_DIR / "jones-saw-everyone.frep")]),
        ("frep-bindings-jones", ["frep", "bindings", str(CORPUS_DIR / "jones-saw-everyone.frep")]),
        ("derive-p-jones-saw-everyone", ["derive", "p", str(CORPUS_DIR / "jones-saw-everyone.frep")]),
        ("derive-t-jones-saw-everyone", ["derive", "t", "y_1 Jones saw everyone_1", "--force", "declarative"]),
        ("scope-ambiguous", ["scope", str(CORPUS_DIR / "everyone-saw-someone.frep")]),
        (
            "recognize-jones",
            ["recognize", "--lexicon", str(CORPUS_DIR / "lexicon.tsv"), "Jon#s s#w ever#one"],
        ),
        (
            "gardenpath-gp",
            [
                "gardenpath",
                "--grammar",
                str(CORPUS_DIR / "grammar.cfg"),
                "--oracle",
                "the woman knows the man left",
            ],
        ),
    ],
)
def test_output_matches_golden(name, argv):
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert out == golden_text(name)


def test_eval_prints_truth():
    code, out, _ = run_cli(
        "formal", "eval", "--model", str(CORPUS_DIR / "snow-model.json"), "prob(snow) = 4/5"
    )
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli(
        "formal", "eval", "--model", str(CORPUS_DIR / "snow-model.json"), "prob(snow) = 1/5"
    )
    assert code == 0 and out == "false\n"


def test_derive_json_format():
    code, out, _ = run_cli("derive", "p", str(CORPUS_DIR / "jones-saw-everyone.frep"), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["model"] == "P"
    assert data["steps"][1]["stripped"] == "Jones saw everyone"


def test_derive_dot_format():
    code, out, _ = run_cli("derive", "t", "Jones saw everyone", "--force", "declarative", "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_derive_reading_selection():
    frep = str(CORPUS_DIR / "everyone-saw-someone.frep")
    code, out, err = run_cli("derive", "p", frep)
    assert code == 0 and "warning: scope-ambiguous" in err
    code2, out2, err2 = run_cli("derive", "p", frep, "--reading", "2")
    assert code2 == 0 and err2 == ""
    assert out != out2
    assert run_cli("derive", "p", frep, "--reading", "3")[0] == 1


def test_derive_emphasis_flag():
    code, out, _ = run_cli("derive", "p", str(CORPUS_DIR / "jones-saw-everyone.frep"), "--emphasis", "everyone")
    assert code == 0 and out.rstrip().endswith("Everyone Jones saw")
    for word in ("nobody", "saw"):
        code, out, err = run_cli("derive", "p", str(CORPUS_DIR / "jones-saw-everyone.frep"), "--emphasis", word)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_recognize_failure_marks_slot():
    lex = str(CORPUS_DIR / "lexicon.tsv")
    code, out, err = run_cli("recognize", "--lexicon", lex, "Jones #### everyone")
    assert code == 1
    assert out.splitlines()[0] == "Jones ? everyone"
    assert "no candidate at slot 1" in err


@pytest.mark.parametrize(
    "options,sentence,named",
    [
        (["--expect", "v"], "s#w", "'v'"),
        (["--expect", "Z"], "s#w", "'Z'"),
        (["--expect", "N,Z"], "Jon#s s#w", "'Z'"),
        (["--threshold", "-1"], "s#w", "-1"),
    ],
)
def test_recognize_bad_arguments_exit_1_with_one_error_line(options, sentence, named):
    lex = str(CORPUS_DIR / "lexicon.tsv")
    code, out, err = run_cli("recognize", "--lexicon", lex, *options, sentence)
    assert code == 1 and out == ""
    assert err.startswith("error:") and named in err and "no candidate" not in err
    assert len(err.splitlines()) == 1


def test_gardenpath_without_oracle_fails_on_gp_sentence():
    g = str(CORPUS_DIR / "grammar.cfg")
    code, _, err = run_cli("gardenpath", "--grammar", g, "the woman knows the man left")
    assert code == 1 and "no attachment" in err.lower()
    assert run_cli("gardenpath", "--grammar", g, "the man left")[0] == 0


# ------------------------------------------------------------------ corpus


def test_corpus_run_passes(corpus_dir):
    code, out, err = run_cli("corpus", "run", "--dir", str(corpus_dir))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 33
    assert all(line.startswith("ok ") for line in lines)


def test_corpus_dir_env_var(corpus_dir, monkeypatch):
    monkeypatch.setenv("PMODEL_CORPUS_DIR", str(corpus_dir))
    code, out, _ = run_cli("corpus", "run")
    assert code == 0 and len(out.splitlines()) == 33


def test_corpus_diff_and_missing(tmp_path, corpus_dir):
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    (work / "golden" / "formal-parse-forall.txt").write_text("tampered\n")
    (work / "golden" / "scope-fixed.txt").unlink()
    code, out, _ = run_cli("corpus", "run", "--dir", str(work))
    assert code == 1
    assert any(line.startswith("DIFF formal-parse-forall") for line in out.splitlines())
    assert any(line.startswith("MISSING scope-fixed") for line in out.splitlines())
    # --update heals both, after which the run is clean again
    assert run_cli("corpus", "run", "--dir", str(work), "--update")[0] == 0
    assert run_cli("corpus", "run", "--dir", str(work))[0] == 0


def test_corpus_run_reports_a_malformed_case_and_runs_the_rest(tmp_path, corpus_dir):
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    frep = json.loads((work / "jones-saw-everyone.frep").read_text())
    frep["lexical"] = 5
    (work / "bad-lexical.frep").write_text(json.dumps(frep))
    with open(work / "cases.tsv", "a", encoding="utf-8") as fh:
        fh.write("frep-validate-bad-lexical\tfrep\tvalidate\t$DIR/bad-lexical.frep\n")
    code, out, err = run_cli("corpus", "run", "--dir", str(work))
    assert code == 1
    lines = out.splitlines()
    assert "FAIL frep-validate-bad-lexical (exit 1)" in lines
    assert sum(line.startswith("ok ") for line in lines) == 33
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: malformed input: TypeError")


# ------------------------------------------------------------ loader fuzz

# Every command that reads a file, with the arguments it gets in the golden
# corpus; "{}" is the file.
FREP_COMMANDS = (
    ["frep", "validate", "{}"],
    ["derive", "p", "{}"],
    ["scope", "{}"],
    ["frep", "bindings", "{}"],
)
JSON_COMMANDS = {
    **{path.name: FREP_COMMANDS for path in sorted(CORPUS_DIR.glob("*.frep"))},
    "jones-model.json": (["formal", "eval", "--model", "{}", "forall x. (x in H -> J S x)"],),
    "snow-model.json": (["formal", "eval", "--model", "{}", "prob(snow) = 4/5"],),
}
TEXT_COMMANDS = {
    "grammar.cfg": ["gardenpath", "--grammar", "{}", "--oracle", "the woman knows the man left"],
    "lexicon.tsv": ["recognize", "--lexicon", "{}", "Jon#s s#w ever#one"],
}
WORDS = st.sampled_from(["x", "y", "H", "J", "S", "N", "Q", "WH", "predicate", "local", "4/5"])
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.text() | WORDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text() | WORDS, inner, max_size=3),
    max_leaves=8,
)


def key_paths(value, path=()):
    """Every path of keys and indices into a JSON value, the root first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from key_paths(child, path + (key,))


def replaced(value, path, new):
    if not path:
        return new
    value = json.loads(json.dumps(value))
    *parents, last = path
    node = value
    for key in parents:
        node = node[key]
    node[last] = new
    return value


@st.composite
def json_mutation(draw):
    name = draw(st.sampled_from(sorted(JSON_COMMANDS)))
    data = json.loads((CORPUS_DIR / name).read_text())
    path = draw(st.sampled_from(list(key_paths(data))))
    return name, json.dumps(replaced(data, path, draw(JSON_VALUES))), JSON_COMMANDS[name]


@st.composite
def text_mutation(draw):
    name = draw(st.sampled_from(sorted(TEXT_COMMANDS)))
    lines = (CORPUS_DIR / name).read_text().splitlines()
    tokens = st.sampled_from(sorted({t for line in lines for t in line.split()}))
    line = draw(st.text() | st.lists(tokens | st.text(max_size=4), max_size=6).map(" ".join))
    lines[draw(st.integers(0, len(lines) - 1))] = line
    return name, "\n".join(lines) + "\n", (TEXT_COMMANDS[name],)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(json_mutation() | text_mutation())
def test_a_mutated_input_file_succeeds_or_exits_1_with_an_error_line(fuzz_dir, mutation):
    name, content, commands = mutation
    path = fuzz_dir / name
    path.write_text(content, encoding="utf-8")
    for command in commands:
        code, _, err = run_cli(*(str(path) if a == "{}" else a for a in command))
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        no_candidate = command[0] == "recognize" and "no candidate at slot" in err
        assert code == 0 or (code == 1 and (len(errors) == 1 or no_candidate)), (command, content, err)


@pytest.mark.parametrize(
    "path,value,named",
    [
        (("string",), [None], "list"),
        (("lexical", 3, "word"), True, "symbol and a word"),
    ],
    ids=["string-list", "word-bool"],
)
def test_frep_values_of_the_wrong_type_exit_1_with_one_error_line(tmp_path, path, value, named):
    data = json.loads((CORPUS_DIR / "jones-saw-everyone.frep").read_text())
    (tmp_path / "typed.frep").write_text(json.dumps(replaced(data, path, value)))
    for command in FREP_COMMANDS:
        code, out, err = run_cli(*(str(tmp_path / "typed.frep") if a == "{}" else a for a in command))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and named in err and len(err.splitlines()) == 1
