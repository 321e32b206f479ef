"""Pieces shared by run.py and selfcheck.py: loading the program from the
checkout, the call table the workloads use, set-up samples and the per-layer
metric list."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import tracer
import w_derive
import w_logic
import w_parse
import w_recognize

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {w.Workload.name: w.Workload for w in (w_derive, w_logic, w_recognize, w_parse)}


def import_program(root):
    """Import pmodel from ROOT/src, and only from there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pmodel", "__init__.py")):
        raise SystemExit(f"error: no pmodel sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import pmodel
    from pmodel import formal, frep, gardenpath, lexicon, movement, pipeline, sstring

    if not os.path.abspath(pmodel.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported pmodel from {pmodel.__file__}, not from {src}")
    return {
        "pmodel": pmodel,
        "formal": formal,
        "frep": frep,
        "gardenpath": gardenpath,
        "lexicon": lexicon,
        "movement": movement,
        "pipeline": pipeline,
        "sstring": sstring,
    }


def call_table(m):
    """Every program function a workload calls itself."""
    return {
        "compare": m["pipeline"].compare,
        "frep_from_json": m["frep"].frep_from_json,
        "render": m["sstring"].render,
        "strip": m["sstring"].strip,
        "to_sheffer": m["formal"].to_sheffer,
        "parse_formula": m["formal"].parse_formula,
        "canonicalize": m["formal"].canonicalize,
        "evaluate": m["formal"].evaluate,
        "recognize": m["lexicon"].recognize,
        "parse_incremental": m["gardenpath"].parse_incremental,
        "enumerate_parses": m["gardenpath"].enumerate_parses,
        "is_garden_path": m["gardenpath"].is_garden_path,
    }


def make_api(m, recorder=None, counters=None):
    """The call table as attributes; with a recorder, every entry is traced
    and `counters` (default COUNTERS) supplies the per-function counts."""
    calls = call_table(m)
    if recorder is not None:
        counters = COUNTERS if counters is None else counters
        names = {key: tracer.span_name(fn) for key, fn in calls.items()}
        calls = {key: recorder.wrap(names[key], fn, counters.get(names[key])) for key, fn in calls.items()}
    api = types.SimpleNamespace(**calls)
    api.serial_failures = (m["gardenpath"].NoAttachment, m["gardenpath"].IncompleteParse)
    return api


def loaders(m):
    def load_model(path):
        with open(path, encoding="utf-8") as fh:
            return m["formal"].model_from_json(json.load(fh))

    return {
        "frep": m["frep"].load_frep,
        "model": load_model,
        "lexicon": m["lexicon"].load_lexicon,
        "grammar": m["gardenpath"].load_grammar,
    }


def load_inputs(m, workload, recorder=None):
    """Load the workload's input files in this process through the public
    loaders, traced when a recorder is given."""
    load = loaders(m)[workload.loader]
    if recorder is not None:
        target = m["formal"].model_from_json if workload.loader == "model" else load
        name = tracer.span_name(target)
        inner = recorder.wrap(name, target)
        if workload.loader == "model":
            def load(path, inner=inner):
                with open(path, encoding="utf-8") as fh:
                    return inner(json.load(fh))
        else:
            load = inner
    workload.load([load(path) for path in workload.input_files])


def setup_sample(root, workload):
    """One fresh interpreter: {"import_s", "cli_import_s", "setup_s"}."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload.loader, *workload.input_files],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ per-layer data


def _tree_visits(f, n):
    """Nodes `evaluate` visits on a domain of n without short-circuiting."""
    kids = [getattr(f, a) for a in ("restrictor", "body", "left", "right") if hasattr(f, a)]
    inner = sum(_tree_visits(k, n) for k in kids)
    return 1 + (n * inner if hasattr(f, "variable") else inner)


COUNTERS = {
    "formal.to_sheffer": lambda args, r: {"out_nodes": w_logic.tree_size(r)},
    "formal.parse_formula": lambda args, r: {"chars": len(args[0])},
    "formal.evaluate": lambda args, r: {"node_visits": _tree_visits(args[0], len(args[1].domain))},
    "frep.resolve_scope": lambda args, r: {"readings": len(r)},
    "lexicon.recognize": lambda args, r: {"recognized": len(r)},
    "lexicon.access": lambda args, r: {"cohort_size": len(r.members)},
    "lexicon.select": lambda args, r: {"distances": len(args[0].members)},
    "gardenpath.step": lambda args, r: {"options": len(r)},
    "gardenpath.enumerate_parses": lambda args, r: {"trees": len(r)},
}

# (span name, extra fields beyond calls and self_s)
LAYERS = (
    ("formal.to_sheffer", ("out_nodes",)),
    ("formal.canonicalize", ("failed",)),
    ("formal.parse_formula", ("chars",)),
    ("formal.evaluate", ("node_visits",)),
    ("formal.model_from_json", ()),
    ("frep.frep_from_json", ()),
    ("frep.resolve_scope", ("readings",)),
    ("frep.load_frep", ()),
    ("pipeline.compare", ()),
    ("pipeline.derive_p", ()),
    ("pipeline.derive_t", ()),
    ("pipeline.delexicalize", ("failed",)),
    ("movement.apply_emphasis", ()),
    ("movement.quantifier_lower", ()),
    ("movement.wh_lower", ()),
    ("movement.quantifier_raise", ()),
    ("movement.wh_raise", ()),
    ("sstring.render", ()),
    ("sstring.strip", ()),
    ("lexicon.recognize", ()),
    ("lexicon.access", ("cohort_size",)),
    ("lexicon.select", ("distances", "useful_ratio")),
    ("lexicon.integrate", ()),
    ("lexicon.load_lexicon", ()),
    ("gardenpath.step", ("options",)),
    ("gardenpath.parse_incremental", ()),
    ("gardenpath.enumerate_parses", ("trees",)),
    ("gardenpath.is_garden_path", ()),
    ("gardenpath.load_grammar", ()),
)

# name -> (unit, better) for every per-layer metric, in print order
PER_LAYER = {}
for _name, _extra in LAYERS:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
    for _field in _extra:
        PER_LAYER[f"{_name}.{_field}"] = ("ratio", "higher") if _field == "useful_ratio" else ("count", "lower")
PER_LAYER.update({
    "import.pmodel_s": ("s", "lower"),
    "import.pmodel_cli_s": ("s", "lower"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.traced_ops_per_s": ("1/s", "higher"),
    "trace.slowdown": ("ratio", "lower"),
})


def layer_metrics(totals):
    """Per-layer values from SpanRecorder.totals(); zero for layers the
    workload never called."""
    out = {}
    for name, extra in LAYERS:
        row = totals.get(name, {})
        out[f"{name}.calls"] = row.get("calls", 0)
        out[f"{name}.self_s"] = row.get("self_s", 0.0)
        for field in extra:
            if field == "useful_ratio":
                distances = row.get("distances", 0)
                recognized = totals.get("lexicon.recognize", {}).get("recognized", 0)
                out[f"{name}.{field}"] = recognized / distances if distances else 0.0
            else:
                out[f"{name}.{field}"] = row.get(field, 0)
    return out
