"""Command-line front end.

One binary, verb subcommands:

  formal parse|eval|sheffer   work with formula strings
  frep validate|bindings      inspect F-representation files
  derive p|t                  run a pipeline and print its steps
  scope                       list the readings of an F-representation
  recognize                   recover corrupted tokens against a lexicon
  gardenpath                  incremental parse report, optional oracle
  corpus run                  execute the golden corpus and diff

Exit codes: 0 success, 1 domain error, 2 usage error. Output ordering is
deterministic everywhere; warnings go to stderr so golden files capture
stdout alone. `PMODEL_CORPUS_DIR` overrides the packaged corpus location.

Importing this module loads no pmodel module but `errors`. Each command
imports the modules it runs inside its handler, so `gardenpath` never loads
the formula kernel and `recognize` never loads the F-representation layer.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from typing import Optional, TextIO

from .errors import CATEGORIES, MOODS, PmodelError

# The exceptions a command raises on bad input; each exits 1 with one line.
_INPUT_ERRORS = (PmodelError, OSError, KeyError, ValueError, TypeError)


def _report(exc: Exception) -> int:
    """Print the one `error:` line for an _INPUT_ERRORS exception; exit code 1."""
    if isinstance(exc, (PmodelError, OSError)):
        detail = str(exc)
    elif isinstance(exc, json.JSONDecodeError):
        detail = f"invalid JSON: {exc}"
    else:
        detail = f"malformed input: {exc!r}"
    print(f"error: {detail}", file=sys.stderr)
    return 1


# ------------------------------------------------------------------ formal


def _cmd_formal_parse(args, out: TextIO) -> int:
    from . import formal

    out.write(formal.render_formula(formal.parse_formula(args.formula)) + "\n")
    return 0


def _cmd_formal_eval(args, out: TextIO) -> int:
    from . import formal

    f = formal.parse_formula(args.formula)
    with open(args.model, encoding="utf-8") as fh:
        model = formal.model_from_json(json.load(fh))
    out.write(("true" if formal.evaluate(f, model) else "false") + "\n")
    return 0


def _cmd_formal_sheffer(args, out: TextIO) -> int:
    from . import formal

    f = formal.parse_formula(args.formula)
    out.write(formal.render_formula(formal.to_sheffer(f)) + "\n")
    return 0


# -------------------------------------------------------------------- frep


def _cmd_frep_validate(args, out: TextIO) -> int:
    from . import formal, frep

    f = frep.load_frep(args.path)
    out.write("valid\n")
    out.write(f"string: {formal.render_formula(f.string)}\n")
    out.write(f"mood: {f.force.mood}\n")
    out.write(f"readings: {len(frep.resolve_scope(f))}\n")
    return 0


def _cmd_frep_bindings(args, out: TextIO) -> int:
    from . import frep

    f = frep.load_frep(args.path)
    for word, entity in sorted(frep.binding_referents(f)):
        out.write(f"{word} -> {entity}\n")
    return 0


# ------------------------------------------------------------------ derive


def _print_derivation(d, fmt: str, out: TextIO) -> None:
    from . import pipeline, sstring

    if fmt == "json":
        out.write(json.dumps(pipeline.derivation_to_json(d), indent=2, sort_keys=True) + "\n")
        return
    if fmt == "dot":
        out.write(sstring.to_dot(d.steps[-1].sstring))
        return
    for step in d.steps:
        level = step.sstring.level
        out.write(f"{level}: {sstring.render(step.sstring)}\n")
        out.write(f"{level} stripped: {sstring.strip(step.sstring)}\n")
        for r in step.movements:
            out.write(
                f"{level} movement: {r.operation} index={r.index} "
                f"source={r.source} target={r.target}\n"
            )
    out.write(sstring.strip(d.steps[-1].sstring) + "\n")


def _cmd_derive_p(args, out: TextIO) -> int:
    from . import frep, pipeline

    f = frep.load_frep(args.path)
    if args.emphasis:
        symbol = f.symbol_of(args.emphasis)
        if symbol is None:
            raise pipeline.DerivationError(f"no lexical referent for emphasis word {args.emphasis!r}")
        force = frep.Force(f.force.mood, symbol)
        f = frep.build_frep(f.external, f.lexical, f.declarants, f.string, force)
    reading = None
    if args.reading is not None:
        readings = frep.resolve_scope(f)
        if not 1 <= args.reading <= len(readings):
            raise pipeline.DerivationError(
                f"reading {args.reading} out of range 1..{len(readings)}"
            )
        reading = readings[args.reading - 1]
    d = pipeline.derive_p(f, reading)
    for w in d.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _print_derivation(d, args.format, out)
    return 0


def _cmd_derive_t(args, out: TextIO) -> int:
    from . import frep, pipeline, sstring

    ds = sstring.parse_sstring(args.ds, "DS")
    force = frep.Force(args.force, args.emphasis)
    d = pipeline.derive_t(ds, force)
    _print_derivation(d, args.format, out)
    return 0


def _cmd_scope(args, out: TextIO) -> int:
    from . import formal, frep

    f = frep.load_frep(args.path)
    for n, reading in enumerate(frep.resolve_scope(f), start=1):
        out.write(f"{n}. {formal.render_formula(reading)}\n")
    return 0


# --------------------------------------------------------------- recognize


def _parse_expect(raw: Optional[str], n_slots: int):
    if raw is None:
        return None
    from .lexicon import LexiconError

    fields = raw.split(",")
    if len(fields) != n_slots:
        raise LexiconError(
            f"--expect lists {len(fields)} categories for {n_slots} tokens"
        )
    for f in fields:
        if f != "-" and f not in CATEGORIES:
            raise LexiconError(f"unknown category {f!r} in --expect")
    return [None if f == "-" else {f} for f in fields]


def _cmd_recognize(args, out: TextIO) -> int:
    from . import lexicon

    lex = lexicon.load_lexicon(args.lexicon)
    tokens = args.sentence.split()
    if not tokens:
        raise lexicon.LexiconError("empty sentence")
    expected = _parse_expect(args.expect, len(tokens))
    recovered: list[str] = []
    failures: list[tuple[int, str]] = []
    for slot, token in enumerate(tokens):
        per_slot = [expected[slot]] if expected is not None else None
        try:
            (entry,) = lexicon.recognize(lex, [token], per_slot, args.threshold)
            recovered.append(entry.form)
        except lexicon.NoCandidate:
            recovered.append("?")
            failures.append((slot, token))
    out.write(" ".join(recovered) + "\n")
    for slot, token in failures:
        print(f"no candidate at slot {slot}: {token!r}", file=sys.stderr)
    return 1 if failures else 0


# -------------------------------------------------------------- gardenpath


def _cmd_gardenpath(args, out: TextIO) -> int:
    from . import gardenpath

    grammar = gardenpath.load_grammar(args.grammar)
    words = args.sentence.split()
    failure: Optional[PmodelError] = None
    try:
        tree, steps = gardenpath.parse_incremental(grammar, words)
        out.write(f"tree: {gardenpath.render_tree(tree)}\n")
        out.write("nodes per step: " + " ".join(str(s.nodes) for s in steps) + "\n")
        out.write(f"total nodes: {sum(s.nodes for s in steps)}\n")
    except (gardenpath.NoAttachment, gardenpath.IncompleteParse) as exc:
        failure = exc
        out.write(f"incremental failure: {exc}\n")
    if not args.oracle:
        if failure is not None:
            print(f"error: {failure}", file=sys.stderr)
            return 1
        return 0
    count = gardenpath.count_parses(grammar, words)
    out.write(f"parses: {count.parses}\n")
    if count.parses:
        out.write(f"minimal nodes: {count.min_nodes}\n")
    verdict = count.parses > 0 and failure is not None
    out.write(f"garden path: {'yes' if verdict else 'no'}\n")
    return 0


# ------------------------------------------------------------------ corpus


def _corpus_dir(args) -> str:
    if args.dir:
        return args.dir
    env = os.environ.get("PMODEL_CORPUS_DIR")
    if env:
        return env
    from importlib import resources  # 27-42 ms to import; only corpus run needs it

    return str(resources.files("pmodel") / "corpus")


def _load_cases(path: str) -> list[tuple[str, list[str]]]:
    cases = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            name, *argv = line.split("\t")
            if not argv:
                raise PmodelError(f"corpus case {name!r} has no command")
            if argv[0] == "corpus":
                raise PmodelError(f"corpus case {name!r} may not nest corpus commands")
            cases.append((name, argv))
    return cases


def _run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _cmd_corpus_run(args, out: TextIO) -> int:
    directory = _corpus_dir(args)
    cases = _load_cases(os.path.join(directory, "cases.tsv"))
    golden_dir = os.path.join(directory, "golden")

    failures = 0
    os.makedirs(golden_dir, exist_ok=True)
    for name, argv in cases:
        code, text = _run_case([a.replace("$DIR", directory) for a in argv])
        golden_path = os.path.join(golden_dir, name + ".txt")
        if code != 0:
            failures += 1
            out.write(f"FAIL {name} (exit {code})\n")
            continue
        if args.update:
            with open(golden_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out.write(f"wrote {name}\n")
            continue
        if not os.path.exists(golden_path):
            failures += 1
            out.write(f"MISSING {name}\n")
            continue
        with open(golden_path, encoding="utf-8") as fh:
            want = fh.read()
        if text == want:
            out.write(f"ok {name}\n")
        else:
            failures += 1
            out.write(f"DIFF {name}\n")
            import difflib  # only a failing case needs it

            diff = difflib.unified_diff(
                want.splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=f"golden/{name}.txt",
                tofile="actual",
            )
            out.writelines(diff)
    return 1 if failures else 0


# ------------------------------------------------------------------ parser


@functools.cache  # parsing leaves the parser as it was; corpus run calls main per case
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pmodel")
    sub = parser.add_subparsers(dest="command", required=True)

    p_formal = sub.add_parser("formal", help="parse, evaluate, rewrite formulas")
    formal_sub = p_formal.add_subparsers(dest="subcommand", required=True)
    p = formal_sub.add_parser("parse", help="echo the canonical rendering")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_formal_parse)
    p = formal_sub.add_parser("eval", help="evaluate against a finite model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_formal_eval)
    p = formal_sub.add_parser("sheffer", help="rewrite with the Sheffer stroke only")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_formal_sheffer)

    p_frep = sub.add_parser("frep", help="inspect F-representation files")
    frep_sub = p_frep.add_subparsers(dest="subcommand", required=True)
    p = frep_sub.add_parser("validate", help="check a file and summarize it")
    p.add_argument("path")
    p.set_defaults(func=_cmd_frep_validate)
    p = frep_sub.add_parser("bindings", help="list binding referents")
    p.add_argument("path")
    p.set_defaults(func=_cmd_frep_bindings)

    p_derive = sub.add_parser("derive", help="run a derivation pipeline")
    derive_sub = p_derive.add_subparsers(dest="subcommand", required=True)
    p = derive_sub.add_parser("p", help="F-representation -> DS -> SS")
    p.add_argument("path", help="F-representation JSON file")
    p.add_argument("--emphasis", help="word to front for emphasis")
    p.add_argument("--reading", type=int, help="1-based scope reading to derive")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(func=_cmd_derive_p)
    p = derive_sub.add_parser("t", help="DS -> SS -> LF")
    p.add_argument("ds", help="bracketed deep-structure string")
    p.add_argument("--force", required=True, choices=MOODS)
    p.add_argument("--emphasis", help="word to front for emphasis")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(func=_cmd_derive_t)

    p = sub.add_parser("scope", help="list readings, one per line")
    p.add_argument("path", help="F-representation JSON file")
    p.set_defaults(func=_cmd_scope)

    p = sub.add_parser("recognize", help="recover corrupted tokens")
    p.add_argument("--lexicon", required=True, help="lexicon TSV file")
    p.add_argument("--expect", help="comma-separated category per slot, - for any")
    p.add_argument("--threshold", type=int, help="fixed edit-distance budget")
    p.add_argument("sentence", help="tokens with # for unheard graphemes")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("gardenpath", help="incremental parse report")
    p.add_argument("--grammar", required=True, help="grammar file")
    p.add_argument("--oracle", action="store_true", help="add exhaustive-parse report")
    p.add_argument("sentence")
    p.set_defaults(func=_cmd_gardenpath)

    p_corpus = sub.add_parser("corpus", help="golden corpus operations")
    corpus_sub = p_corpus.add_subparsers(dest="subcommand", required=True)
    p = corpus_sub.add_parser("run", help="execute every case and diff")
    p.add_argument("--dir", help="corpus directory (default: packaged)")
    p.add_argument("--update", action="store_true", help="rewrite golden files")
    p.set_defaults(func=_cmd_corpus_run)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except _INPUT_ERRORS as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
