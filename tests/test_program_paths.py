"""Dead-code gate: every function in src/eeg2vol runs on some program path."""

import ast
import os
import sys
from pathlib import Path

import eeg2vol
from eeg2vol import cli

from program_paths import run_paths

# qualified name -> the ROADMAP item that removes or uses the function
ALLOWED_UNCALLED = {
    "autodiff._scan_blocked": "item 2 (perfbench's side table calls it)",
    "data.synth_raw_session": "item 12 (perfbench's infer workload and the path driver "
                              "call it, so a benchmark change moves it)",
    "optim.AdamW.state_arrays": "item 6",
    "presets.preset_config": "item 12 (perfbench imports it, so a benchmark change decides)",
}


def defined_functions():
    """Qualified name -> (file, first line with decorators, name) for every
    def and lambda in src/eeg2vol; the key matches a code object's
    (co_filename, co_firstlineno, co_name), which also holds on Python 3.10,
    where co_qualname does not exist. Comprehensions are left out: Python
    3.12 inlines them."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = f"{prefix}.{child.name}"
                found[qualname] = (str(path), first, child.name)
            elif isinstance(child, ast.Lambda):
                qualname = f"{prefix}.<lambda>:{child.lineno}"
                found[qualname] = (str(path), child.lineno, "<lambda>")
            elif isinstance(child, ast.ClassDef):
                qualname = f"{prefix}.{child.name}"
            else:
                qualname = prefix
            walk(child, path, qualname)

    for path in sorted(Path(eeg2vol.__file__).resolve().parent.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem)
    return found


def test_every_function_runs_on_a_program_path(tmp_path):
    """Counts only the calls made while a command runs, inside cli.main, and
    not those the path driver makes itself."""
    called = set()
    depth = 0  # cli.main frames live

    def profile(frame, event, arg):
        nonlocal depth
        code = frame.f_code
        if code is cli.main.__code__ and event in ("call", "return"):
            depth += 1 if event == "call" else -1
        if event == "call" and depth:
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        run_paths(tmp_path)
    finally:
        sys.setprofile(None)
    # a module imported through a relative sys.path entry has a relative
    # co_filename on Python 3.10
    called = {(os.path.realpath(file), line, name) for file, line, name in called}
    uncalled = {q for q, key in defined_functions().items() if key not in called}
    missing = sorted(uncalled - set(ALLOWED_UNCALLED))
    assert not missing, f"functions no program path runs: {missing}"
    stale = sorted(set(ALLOWED_UNCALLED) - uncalled)
    assert not stale, f"allowlisted functions that now run or no longer exist: {stale}"
