"""Tiny-size self-check of the benchmark, with no timing gate.

Usage, from the repository root:

    python3 perfbench/selfcheck.py

For every workload it draws a few inputs, runs them untraced and traced,
and checks that: each output passes its oracle (or fails in a recorded
class); each oracle rejects a wrong output; the traced run recorded the
functions the workload is meant to exercise, with self time within total
time; patching left the recursive formula functions alone and was undone;
and a fresh-interpreter set-up sample works. Exits 1 on the first failure.
"""

from __future__ import annotations

import os
import shutil
import sys

import harness
import tracer
import w_parse

EXPECTED_SPANS = {
    "derive": (
        "frep.frep_from_json", "formal.parse_formula", "pipeline.compare", "pipeline.derive_p",
        "pipeline.derive_t", "pipeline.delexicalize", "formal.canonicalize", "frep.resolve_scope",
        "movement.apply_emphasis", "movement.quantifier_lower", "movement.quantifier_raise",
        "sstring.render", "sstring.strip", "frep.load_frep",
    ),
    "logic": (
        "formal.to_sheffer", "formal.parse_formula", "formal.canonicalize", "formal.evaluate",
        "formal.model_from_json",
    ),
    "recognize": (
        "lexicon.recognize", "lexicon.access", "lexicon.select", "lexicon.integrate",
        "lexicon.load_lexicon",
    ),
    "parse": (
        "gardenpath.parse_incremental", "gardenpath.step", "gardenpath.enumerate_parses",
        "gardenpath.is_garden_path", "gardenpath.load_grammar",
    ),
}


def fail(message):
    print(f"selfcheck: FAIL: {message}")
    sys.exit(1)


def sample_items(workload, stream):
    """A few inputs from the first block; for logic, from both halves."""
    block = next(workload.blocks(stream))
    if workload.name == "logic":
        return [i for i in block if i[0] == "check"][:3] + [i for i in block if i[0] == "rewrite"][:6]
    return block[: 40 if workload.name == "derive" else 6]


def wrong_output(workload, item, out, m):
    """An output the oracle must reject."""
    if workload.name == "derive":
        report, lines = out
        return report, lines[:3] + ["nobody said this"] + lines[4:]
    if workload.name == "logic":
        if item[0] == "rewrite":
            return m["formal"].Not(out)
        return not out
    if workload.name == "recognize":
        (entry,) = out
        return (m["pmodel"].LexEntry("xyzzy", entry.category),)
    tree, parses, verdict = out
    return tree, parses + 1, verdict


def main():
    root = os.getcwd()
    m = harness.import_program(root)
    originals = {name: getattr(m["formal"], name) for name in ("evaluate", "to_sheffer", "canonicalize")}
    rules, lexical, start = w_parse.read_grammar(os.path.join(root, "src", "pmodel", "corpus", "grammar.cfg"))
    for sentence, count in (("the man saw the dog in the park", 2), ("the woman knows the man left", 1)):
        if w_parse.cky_count(rules, lexical, sentence.split()).get(start, 0) != count:
            fail(f"CKY count for {sentence!r} is not {count} (golden corpus)")

    workdir = os.path.join(root, ".perfbench", f"selfcheck-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name, cls in harness.WORKLOADS.items():
            workload = cls(7, workdir, os.path.join(root, "src", "pmodel", "corpus"))
            items = sample_items(workload, "selfcheck")

            harness.load_inputs(m, workload)
            api = harness.make_api(m)
            passed = 0
            for item in items:
                out = workload.op(api, item)
                known = workload.failure_class(item) if hasattr(workload, "failure_class") else None
                ok = workload.check(item, out)
                if not ok and known is None:
                    fail(f"{name}: oracle rejected {item!r:.200}")
                if ok:
                    passed += 1
                    if workload.check(item, wrong_output(workload, item, out, m)):
                        fail(f"{name}: oracle accepted a wrong output for {item!r:.200}")
            if not passed:
                fail(f"{name}: no operation passed")

            recorder = tracer.SpanRecorder()
            harness.load_inputs(m, workload, recorder)
            traced_api = harness.make_api(m, recorder)
            undo = tracer.patch(m, workload.patches, recorder, harness.COUNTERS)
            try:
                for item in items:
                    try:
                        workload.op(traced_api, item)
                    except Exception:
                        if name != "derive":
                            raise
                    recorder.flush()
            finally:
                tracer.unpatch(undo)
            totals = recorder.totals()
            for span in EXPECTED_SPANS[name]:
                row = totals.get(span)
                if not row or not row["calls"]:
                    fail(f"{name}: traced run recorded no call of {span}")
                if not 0 <= row["self_s"] <= row["total_s"] + 1e-9:
                    fail(f"{name}: {span} self time {row['self_s']} outside [0, {row['total_s']}]")
            metrics = harness.layer_metrics(totals)
            if set(metrics) | set(harness.PER_LAYER) != set(harness.PER_LAYER):
                fail(f"{name}: per-layer metric outside the declared list")
            for module, attr in workload.patches:
                if hasattr(getattr(m[module], attr), "__wrapped__"):
                    fail(f"{name}: {module}.{attr} still patched")
            for fn_name, fn in originals.items():
                if getattr(m["formal"], fn_name) is not fn:
                    fail(f"{name}: formal.{fn_name} was replaced")

            sample = harness.setup_sample(root, workload)
            if not all(sample[k] > 0 for k in ("import_s", "cli_import_s", "setup_s")):
                fail(f"{name}: set-up sample {sample}")
            print(f"selfcheck: {name}: {len(items)} inputs, {passed} passed, {len(totals)} traced functions")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
