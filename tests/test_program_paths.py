"""Dead-code gate: every function in src/eeg2vol runs on some program path;
and the import guard: running the program loads no scipy."""

import ast
import os
import subprocess
import sys
import textwrap
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


SCIPY_PROBE = textwrap.dedent("""
    import importlib, pkgutil, sys, tempfile
    import numpy as np
    import eeg2vol
    for info in pkgutil.iter_modules(eeg2vol.__path__):
        importlib.import_module(f"eeg2vol.{info.name}")
    from eeg2vol.data import synth_dataset, synth_raw_session
    from eeg2vol.dsp import dct_downsample
    from eeg2vol.model import Model, ModelConfig
    geometry = (4, 5, 6, 3, 8, 8)
    with tempfile.TemporaryDirectory() as out:
        synth_dataset(geometry, 1, 2, seed=0, out_dir=out)
    eeg, vols = synth_raw_session(4, 2500, 250.0, 2, (6, 8, 10), seed=0)
    dct_downsample(vols[0], (3, 4, 5))
    mcfg = ModelConfig(geometry=geometry, embed=4, heads=2, vss_blocks=1, state_dim=2)
    Model(mcfg, seed=0).predict(np.zeros(geometry[:3]))
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
""")


def test_the_program_imports_no_scipy():
    """scipy is a test oracle only: a fresh interpreter that imports every
    eeg2vol module and runs the data generators, the DCT resize and a
    predict has loaded no scipy module."""
    src = str(Path(eeg2vol.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]", done.stdout
