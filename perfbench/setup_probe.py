"""One set-up sample, run in a fresh interpreter by run.py.

Usage: python3 perfbench/setup_probe.py LOADER FILE...

Times `import pmodel`, `import pmodel.cli` and loading FILE... through the
public loader for LOADER (frep, model, lexicon or grammar, as in
harness.loaders), and prints the three times as one JSON line. Nothing else
is imported before the timing starts, so the interpreter is as fresh as a
user's. `pmodel` must be importable (run.py puts the checkout's `src` on
PYTHONPATH).
"""

import sys
import time

t0 = time.perf_counter()
import pmodel  # noqa: E402

t1 = time.perf_counter()
import pmodel.cli  # noqa: E402,F401

t2 = time.perf_counter()
loader, paths = sys.argv[1], sys.argv[2:]
for path in paths:
    if loader == "frep":
        pmodel.load_frep(path)
    elif loader == "model":
        import json  # already loaded by pmodel

        with open(path, encoding="utf-8") as fh:
            pmodel.model_from_json(json.load(fh))
    elif loader == "lexicon":
        pmodel.load_lexicon(path)
    elif loader == "grammar":
        pmodel.load_grammar(path)
    else:
        sys.exit(f"unknown loader {loader!r}")
t3 = time.perf_counter()
import json  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "cli_import_s": t2 - t1, "setup_s": t3 - t0}))
