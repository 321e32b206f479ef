"""Two derivation pipelines over one grammar toolkit.

The T pipeline runs deep structure through movement to surface structure
and on to logical form; the P pipeline starts from an F-representation
(formal string, referents, declarants, force) and generates deep then
surface structure. Around the pipelines: a first-order formula language with
finite-model evaluation, scope-reading enumeration, an incremental
garden-path parser, and cohort-style word recognition.

`import pmodel` loads no submodule. Each one is imported the first time one
of its names is used, as `pmodel.parse_formula` or `pmodel.formal`, so a
process pays only for the layers it runs.
"""

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": ("PmodelError",),
    "formal": (
        "And", "Atom", "Exists", "Forall", "Formula", "FormulaSyntaxError", "Implies",
        "Membership", "Model", "Not", "NotCanonicalizable", "Or", "Pierce", "ProbAssertion",
        "Sheffer", "Term", "WhQuery", "canonicalize", "evaluate", "free_vars",
        "model_from_json", "model_to_json", "parse_formula", "render_formula", "to_sheffer",
        "well_formed",
    ),
    "frep": (
        "Force", "FormalDeclarants", "FRepresentation", "FRepValidationError",
        "LexicalReferent", "binding_referents", "build_frep", "frep_from_json",
        "frep_to_json", "load_frep", "resolve_scope",
    ),
    "frozen": (),
    "gardenpath": (
        "BoundExceeded", "Grammar", "IncompleteParse", "NoAttachment", "ParseCount",
        "ParseTree", "count_parses", "enumerate_parses", "is_garden_path", "load_grammar",
        "parse_incremental", "render_tree", "step", "tree_to_dot",
    ),
    "lexicon": (
        "Cohort", "LexEntry", "Lexicon", "NoCandidate", "access", "edit_distance",
        "integrate", "load_lexicon", "recognize", "select",
    ),
    "movement": (
        "DEFAULT_CONFIG", "GrammarConfig", "MovementError", "MovementRecord",
        "apply_emphasis", "quantifier_lower", "quantifier_raise", "wh_lower", "wh_raise",
    ),
    "pipeline": (
        "CompareReport", "Derivation", "DerivationError", "DerivationStep", "compare",
        "delexicalize", "derive_p", "derive_t", "report_to_json",
    ),
    "sstring": (
        "CloseBracket", "Indexed", "InvalidSString", "OpenBracket", "SString", "Trace",
        "Word", "equivalent_mod_indices", "parse_sstring", "render", "strip",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    """Import the submodule NAME, or the one that exports NAME, and keep the
    value as a package global so the next lookup does not come here."""
    if name in _OWNER:
        module = _OWNER[name]
    elif name in _EXPORTS:
        module = name
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    value = loaded if module == name else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
