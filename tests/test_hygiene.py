"""Source hygiene of the package, read with the stdlib `ast` module, and the
shape of the formula node classes.

Every name a `src/pmodel` module imports must be used in that module: the
package exports through its table of names, not by importing them, so an
unused import is dead weight that a rewrite can leave behind unnoticed. For
the same reason, every module-level `_private` function or class must be
referenced somewhere in the package outside its own definition, and every
public one must be referenced so or be exported in `pmodel.__all__`; an
export that nothing references is listed with the reason it stays.
The quantifier and Wh words are written out in errors.py alone, and no
function takes a `config` parameter.
Every formula node type must be a slotted value on the shared node base,
every other value class a slotted `Frozen` value, and importing the package
must not load the modules that dataclasses would. `import pmodel` loads no
submodule; each loader and command loads only the layers it runs, and every
exported name still resolves.
"""
from __future__ import annotations

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
import typing
from collections import Counter
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import pmodel
from pmodel import formal, frep, gardenpath, lexicon, movement, pipeline, sstring
from pmodel.errors import QUANTIFIER_WORDS, WH_WORDS
from pmodel.frozen import Frozen

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pmodel"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in _imported(tree).items() if name not in used]


def _references(tree: ast.AST) -> Counter[str]:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _unreferenced_definitions(paths, wanted) -> list[str]:
    """Module-level functions and classes for which wanted(name) holds that
    nothing in the package references outside their own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            # references inside the definition itself (recursion) do not count
            if wanted(name) and everywhere[name] - _references(node)[name] == 0:
                dead.append(f"{path.name}:{node.lineno}: {name}")
    return dead


def unreferenced_private_definitions(paths) -> list[str]:
    return _unreferenced_definitions(paths, lambda name: name.startswith("_") and not name.startswith("__"))


def unexported_public_definitions(paths) -> list[str]:
    exported = set(pmodel.__all__)
    return _unreferenced_definitions(
        paths, lambda name: not name.startswith("_") and name not in exported
    )


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "formal.py", "frep.py", "pipeline.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_no_unreferenced_private_definitions():
    assert unreferenced_private_definitions(MODULES) == []


def test_public_definitions_are_referenced_or_exported():
    assert unexported_public_definitions(MODULES) == []


# Exported functions and classes that no module of the package references
# outside their own definition, each with the reason it stays. A listed name
# that gains a caller leaves the table; an export that loses its last caller
# joins it with a reason, or is deleted.
UNCALLED_EXPORTS = {
    "compare": "the check that the two pipelines agree; no command runs it yet",
    "edit_distance": "the tests' oracle for recognize",
    "enumerate_parses": "perfbench's parse workload times it until a chart viability query replaces it",
    "equivalent_mod_indices": "s-string equality up to index renaming, for a check of the raising route's DS",
    "is_garden_path": "perfbench's parse workload calls it",
    "report_to_json": "the JSON form of compare's report, for the command that will run compare",
}


def test_exports_that_nothing_calls_are_listed():
    exported = set(pmodel.__all__)
    dead = _unreferenced_definitions(MODULES, exported.__contains__)
    assert {line.rsplit(": ", 1)[1] for line in dead} == set(UNCALLED_EXPORTS)


def test_word_classes_are_one_table():
    """The quantifier and Wh words are spelled out once, in errors.py, and no
    function takes a `config` that could swap them for other words."""
    words = QUANTIFIER_WORDS | WH_WORDS
    literals: dict[str, set[str]] = {}
    knobs = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.lower() in words:
                literals.setdefault(path.name, set()).add(node.value.lower())
            elif isinstance(node, ast.arg) and node.arg == "config":
                knobs.append(f"{path.name}:{node.lineno}")
    assert literals == {"errors.py": words}
    assert knobs == []


def test_formula_nodes_are_slotted_values():
    """A node type without slots would carry a __dict__, and one without the
    shared node base would compare and hash by walking its formula as a tree,
    which is exponential on the shared DAGs to_sheffer returns."""
    sample = formal.parse_formula(
        "wh x. (x in H , forall y. exists z. (!p & ((q v r) -> (J S y |/ (z in H & prob(e) = 1/2)))))"
    )
    nodes = {type(g): g for g, _ in formal.preorder(sample)}
    assert set(nodes) == set(typing.get_args(formal.Formula))
    for cls, g in nodes.items():
        assert "__slots__" in vars(cls) and not hasattr(g, "__dict__"), cls.__name__
        assert (cls.__eq__, cls.__hash__) == (formal._Node.__eq__, formal._Node.__hash__)
        assert formal.rebuild(g, formal.children(g)) == g


def test_no_module_uses_dataclasses():
    """Value classes are `Frozen` subclasses: building a dataclass and
    importing `dataclasses` (and `inspect` with it) was most of the cost of
    `import pmodel`. frozen.py imports it only to raise FrozenInstanceError."""
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert "dataclass" not in _imported(tree), path.name
        assert "dataclass" not in _references(tree), path.name
        for node in tree.body:
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            module = node.module if isinstance(node, ast.ImportFrom) else None
            assert "dataclasses" not in names and module != "dataclasses", path.name


def _run_fresh(probe: str, *flags: str) -> str:
    """The stdout of PROBE run in a fresh interpreter that imports pmodel from src."""
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *flags, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout


def _fresh_modules(code: str, *flags: str) -> set[str]:
    """sys.modules of a fresh interpreter that imports pmodel and
    pmodel.cli, then runs CODE."""
    out = _run_fresh(f"import sys, pmodel, pmodel.cli\n{code}\nprint(' '.join(sorted(sys.modules)))", *flags)
    return set(out.splitlines()[-1].split())


def _pmodel_modules(loaded: set[str]) -> set[str]:
    return {name.removeprefix("pmodel.") for name in loaded if name.split(".")[0] == "pmodel"}


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_import_loads_no_rarely_used_module(flags):
    """A fresh interpreter imports the package and its command line without
    dataclasses or inspect; without site (which may load importlib.resources
    through an installed package's .pth file) not importlib.resources either.
    No submodule but errors is loaded: each is imported on first use."""
    loaded = _fresh_modules("", *flags)
    assert _pmodel_modules(loaded) == {"pmodel", "cli", "errors"}
    unwanted = {"dataclasses", "inspect", "difflib"} | ({"importlib.resources"} if flags else set())
    assert unwanted.isdisjoint(loaded)


CORPUS = PACKAGE / "corpus"
SHELL = {"pmodel", "cli", "errors"}


@pytest.mark.parametrize(
    "code,allowed,unwanted",
    [
        (f"pmodel.load_grammar({str(CORPUS / 'grammar.cfg')!r})", SHELL | {"frozen", "gardenpath"}, {"fractions"}),
        (f"pmodel.load_lexicon({str(CORPUS / 'lexicon.tsv')!r})", None, {"pmodel.formal", "pmodel.frep"}),
        (
            f"pmodel.load_frep({str(CORPUS / 'jones-saw-everyone.frep')!r})",
            None,
            {f"pmodel.{m}" for m in ("pipeline", "movement", "sstring", "lexicon", "gardenpath")},
        ),
        (
            "pmodel.cli.main(['gardenpath', '--grammar', "
            f"{str(CORPUS / 'grammar.cfg')!r}, '--oracle', 'the woman knows the man left'])",
            None,
            {"pmodel.formal", "pmodel.frep"},
        ),
        (
            "pmodel.cli.main(['recognize', '--lexicon', "
            f"{str(CORPUS / 'lexicon.tsv')!r}, '--expect', 'N,V,Q', 'Jon#s s#w ever#one'])",
            None,
            {"pmodel.formal", "pmodel.frep"},
        ),
    ],
    ids=["load_grammar", "load_lexicon", "load_frep", "cli-gardenpath", "cli-recognize"],
)
def test_each_loader_and_command_loads_only_its_layers(code, allowed, unwanted):
    """A process pays only for the layers it runs: the grammar needs no
    formula kernel (nor the `fractions` it imports), the lexicon no
    F-representations, an F-representation no derivation layer."""
    loaded = _fresh_modules(code)
    if allowed is not None:
        assert _pmodel_modules(loaded) == allowed
    assert unwanted.isdisjoint(loaded), sorted(unwanted & loaded)


SUBMODULES = ("errors", "formal", "frep", "frozen", "gardenpath", "lexicon", "movement", "pipeline", "sstring")

# the public names, the ones the package exported when it imported every module
# eagerly less the two word-class config names that errors' tables replaced,
# the parse-count record that an int replaced, the unused tree_to_dot, the
# second stroke connective, and the frep and model JSON writers that only
# tests called
PUBLIC_NAMES = set(
    """And Atom BoundExceeded CloseBracket Cohort CompareReport Derivation
    DerivationError DerivationStep Exists Forall Force FormalDeclarants Formula FormulaSyntaxError
    FRepresentation FRepValidationError Grammar Implies IncompleteParse Indexed
    InvalidSString LexEntry LexicalReferent Lexicon Membership Model MovementError MovementRecord
    NoAttachment NoCandidate Not NotCanonicalizable OpenBracket Or ParseTree
    PmodelError ProbAssertion SString Sheffer Term Trace WhQuery Word access apply_emphasis
    binding_referents build_frep canonicalize compare count_parses delexicalize derive_p derive_t
    edit_distance enumerate_parses equivalent_mod_indices evaluate free_vars frep_from_json
    integrate is_garden_path load_frep load_grammar load_lexicon model_from_json
    parse_formula parse_incremental parse_sstring quantifier_lower quantifier_raise
    recognize render render_formula render_tree report_to_json resolve_scope select step strip
    to_sheffer well_formed wh_lower wh_raise""".split()
)


def test_exports_are_the_public_names():
    assert len(pmodel.__all__) == len(PUBLIC_NAMES) == 84
    assert set(pmodel.__all__) == PUBLIC_NAMES


def test_each_export_is_its_modules_object():
    for name in pmodel.__all__:
        module = importlib.import_module(f"pmodel.{pmodel._OWNER[name]}")
        assert getattr(pmodel, name) is getattr(module, name), name
        assert vars(pmodel)[name] is getattr(module, name), name  # kept as a plain global


def test_bare_import_resolves_every_submodule():
    probe = f"import sys, pmodel\nprint([getattr(pmodel, m) is sys.modules['pmodel.' + m] for m in {SUBMODULES!r}])"
    assert _run_fresh(probe) == f"{[True] * len(SUBMODULES)}\n"


def test_star_import_dir_and_unknown_names():
    namespace: dict = {}
    exec("from pmodel import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pmodel.__all__)
    assert set(pmodel.__all__) | set(SUBMODULES) <= set(dir(pmodel))
    with pytest.raises(AttributeError, match="no_such_name"):
        pmodel.no_such_name
    assert not hasattr(pmodel, "no_such_name")


def _value_samples() -> list:
    """One instance of every value class outside the formula nodes."""
    f = frep.load_frep(Path(pmodel.__file__).parent / "corpus" / "everyone-saw-someone.frep")
    report = pipeline.compare(f)
    rule, leaf = gardenpath.Rule("VP", "V", "NP"), gardenpath.ParseTree("V", word="saw")
    entry = lexicon.LexEntry("Jones", "N", 40, "J")
    return [
        formal.Model(frozenset({"e"}), {"H": frozenset({"e"})}),
        formal.var("x"),
        f,
        f.lexical[0],
        f.declarants,
        f.force,
        frep.MissingLexicalReferent("S"),
        frep.DanglingExternalReferent("Jones"),
        frep.DuplicateSymbol("S"),
        frep.DuplicateWord("Jones"),
        frep.IllFormedString(("UndeclaredVariable: z",)),
        frep.EmphasisWithoutReferent("S"),
        frep.EmphasisNotATerm("S"),
        frep.VacuousBinder("x"),
        frep.ScopeOrderUnknownVariable("z"),
        rule,
        gardenpath.LexRule("V", "saw"),
        gardenpath.Grammar("VP", (rule,), (gardenpath.LexRule("V", "saw"), gardenpath.LexRule("NP", "J"))),
        leaf,
        gardenpath.Frame(rule, leaf),
        gardenpath.ParserState((gardenpath.Frame(rule, leaf),)),
        gardenpath.StepInfo("V", 1, 0),
        entry,
        lexicon.Lexicon((entry,)),
        lexicon.Cohort((entry,)),
        movement.MovementRecord("quantifier_raise", 1, 3, 0),
        report,
        report.p,
        report.p.steps[0],
        sstring.Word("Jones"),
        sstring.Indexed("Everyone", 1),
        sstring.Trace("t", 1),
        sstring.OpenBracket("CP"),
        sstring.CloseBracket(),
        report.p.steps[0].sstring,
    ]


def _frozen_classes() -> set[type]:
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return found


def test_value_samples_cover_every_value_class():
    formula_nodes = {cls for cls in _frozen_classes() if issubclass(cls, formal._Node)}
    assert {type(v) for v in _value_samples()} == _frozen_classes() - formula_nodes


@pytest.mark.parametrize("value", _value_samples(), ids=lambda v: type(v).__name__)
def test_value_class_contract(value):
    cls = type(value)
    assert "__slots__" in vars(cls) and not hasattr(value, "__dict__")
    for name in cls.__match_args__ + ("anything",):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value
    assert cls(*value._astuple()) == value  # the constructor takes the fields in order


def test_value_reprs_are_the_dataclass_ones():
    # command-line errors print these, e.g. "error: EmphasisNotATerm(symbol='S')"
    assert repr(frep.EmphasisNotATerm("S")) == "EmphasisNotATerm(symbol='S')"
    assert repr(sstring.Word("Jones")) == "Word(text='Jones')"
    assert repr(sstring.CloseBracket()) == "CloseBracket()"
    assert repr(frep.Force("declarative")) == "Force(mood='declarative', emphasis=None)"
    assert repr(frep.IllFormedString(("a",))) == "IllFormedString(diagnostics=('a',))"
    assert repr(lexicon.LexEntry("saw", "V")) == (
        "LexEntry(form='saw', category='V', frequency=1, symbol=None)"
    )
