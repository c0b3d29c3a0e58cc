"""Every file reader fuzzed: S2VT headers and truncations through `predict`;
a checkpoint file's index and metadata lines, payload bytes and length
through `predict`; and dataset manifest lines through `eval`, each mutated
from one micro `synth-data` + `train` tree.

Each mutated input must give exit 0, 2 or 3; a non-zero exit prints one
`error:` line, no traceback, and leaves no output directory; a checkpoint
mutation exits 0 only if the parameters it loads equal the intact ones.

The test runs this file as a script in one subprocess, with one BLAS thread
and an address-space limit, so that a read sized from a corrupt header fails
as a traceback instead of allocating:

    python tests/test_fuzz_readers.py WORKDIR
"""

import contextlib
import io
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

# far above the micro model's needs, far below a read sized from a corrupt
# header
ADDRESS_SPACE = 1 << 30
EXAMPLES = 400

MICRO_GEOMETRY = ["channels=4", "t_bins=5", "f_bins=6", "depth=3", "height=8", "width=8"]
MICRO_MODEL = ["embed=4", "heads=2", "vss_blocks=1", "state_dim=2", "epochs=1"]
SPEC = "data/sub00/pair0000_spec.s2vt"
CKPT = "run/best.ckpt"
MANIFEST = "data/manifest.txt"
# what a line mutation may put in place of one whitespace-separated token
HUGE = "1" + "0" * 19
TOKENS = ["-1", "0", "nan", "inf", "1e300", HUGE, "", "x"]


def test_every_reader_survives_mutation(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(p) for p in sys.path if p and os.path.isdir(p))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", __file__, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


# ---------------------------------------------------------------------------
# the subprocess
# ---------------------------------------------------------------------------

def run_cli(args):
    """(exit code, stderr) of cli.main(args); an exception escaping it fails
    the example as the traceback a user would see."""
    from eeg2vol import cli

    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
    except Exception:
        raise AssertionError(f"eeg2vol {args}: traceback\n{traceback.format_exc()}") from None
    return code, err.getvalue()


def mutate_line(text, at, change):
    """text with line `at` (modulo the line count) changed: ("drop",),
    ("duplicate",) or ("token", j, value), which puts value in place of
    whitespace-separated token j (modulo the token count)."""
    lines = text.splitlines()
    at %= len(lines)
    if change[0] == "drop":
        del lines[at]
    elif change[0] == "duplicate":
        lines.insert(at, lines[at])
    else:
        tokens = lines[at].split()
        tokens[change[1] % len(tokens)] = change[2]
        lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


line_changes = st.one_of(
    st.just(("drop",)),
    st.just(("duplicate",)),
    st.tuples(st.just("token"), st.integers(0, 15), st.sampled_from(TOKENS)),
)

mutations = st.one_of(
    st.tuples(st.just("header"), st.lists(
        st.tuples(st.integers(0, 27), st.integers(0, 255)), min_size=1, max_size=3)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    # metadata (`#`) lines and parameter lines, drawn apart: there are few
    # metadata lines
    st.tuples(st.just("metadata"), st.integers(0, 10**6), line_changes),
    st.tuples(st.just("index"), st.integers(0, 10**6), line_changes),
    # one payload byte, header included, changed by a nonzero XOR, or the
    # whole file cut at any offset
    st.tuples(st.just("payload"), st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
        st.tuples(st.just("cut"), st.integers(0, 10**6)))),
    st.tuples(st.just("manifest"), st.integers(0, 10**6), line_changes),
)


def check_case(case, intact, mutation):
    """Apply mutation to a copy of the inputs in the empty directory case,
    run the command that reads them, and check its outcome."""
    from conftest import checkpoint_parts, join_checkpoint
    from eeg2vol.model import Model

    kind = mutation[0]
    out = case / "out"
    spec, ckpt = Path(SPEC), Path(CKPT)
    if kind in ("header", "truncate"):
        data = bytearray(spec.read_bytes())
        if kind == "header":
            for at, value in mutation[1]:
                data[at] = value
        else:
            del data[mutation[1] % len(data):]
        spec = case / "x_spec.s2vt"
        spec.write_bytes(bytes(data))
    elif kind in ("metadata", "index"):
        index, payload = checkpoint_parts(ckpt)
        lines = index.splitlines()
        chosen = [i for i, line in enumerate(lines) if line.startswith("#") == (kind == "metadata")]
        at = chosen[mutation[1] % len(chosen)]
        ckpt = case / "ckpt"
        join_checkpoint(ckpt, mutate_line(index, at, mutation[2]), payload)
    elif kind == "payload" and mutation[1][0] == "flip":
        index, payload = checkpoint_parts(ckpt)
        payload = bytearray(payload)
        payload[mutation[1][1] % len(payload)] ^= mutation[1][2]
        ckpt = case / "ckpt"
        join_checkpoint(ckpt, index, bytes(payload))
    elif kind == "payload":
        data = ckpt.read_bytes()
        ckpt = case / "ckpt"
        ckpt.write_bytes(data[:mutation[1][1] % len(data)])
    if kind == "manifest":
        shutil.copytree("data", case / "data")
        manifest = case / "data/manifest.txt"
        manifest.write_text(mutate_line(manifest.read_text(), mutation[1], mutation[2]))
        args = ["eval", "--manifest", str(manifest), "--checkpoint", CKPT, "--out", str(out)]
    else:
        args = ["predict", "--checkpoint", str(ckpt), "--out", str(out), str(spec)]

    code, err = run_cli(args)
    assert code in (0, 2, 3), f"exit {code}\n{err}"
    if code:
        assert "Traceback" not in err, err
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1, err
        assert not out.exists(), f"exit {code} left {out}"
    elif kind in ("metadata", "index", "payload"):
        loaded = Model.from_checkpoint(ckpt).store.named_arrays()
        assert loaded.keys() == intact.keys()
        changed = [n for n in intact if not np.array_equal(loaded[n], intact[n])]
        assert not changed, f"exit 0 with parameters {changed} changed"
    return code


def main(workdir):
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    os.chdir(workdir)
    from eeg2vol.model import Model

    sets = lambda keys: [arg for key in keys for arg in ("--set", key)]
    assert run_cli(["synth-data", "--subjects", "2", "--pairs", "2", "--out", "data"]
                   + sets(MICRO_GEOMETRY))[0] == 0
    assert run_cli(["train", "--manifest", MANIFEST, "--out", "run"] + sets(MICRO_MODEL))[0] == 0
    intact = Model.from_checkpoint(CKPT).store.named_arrays()
    seen = {}

    # no explain phase: its line tracer's records outgrow the address-space
    # limit
    @settings(max_examples=EXAMPLES, deadline=None, database=None, derandomize=True,
              phases=[Phase.explicit, Phase.generate, Phase.shrink],
              suppress_health_check=list(HealthCheck))
    @given(mutations)
    # cases that once got through: a payload cut after the header (exit 3
    # left the output directory), and metadata claiming a plane height, an
    # embedding width, VSS block count or state size of 10**19 (tracebacks
    # from allocating it)
    @example(("truncate", 28))
    @example(("metadata", 0, ("token", 6, HUGE)))
    @example(("metadata", 1, ("token", 2, HUGE)))
    @example(("metadata", 4, ("token", 2, HUGE)))
    @example(("metadata", 5, ("token", 2, HUGE)))
    def fuzz(mutation):
        case = Path(tempfile.mkdtemp(dir="."))
        try:
            code = check_case(case, intact, mutation)
        finally:
            shutil.rmtree(case)
        seen[mutation[0], code] = seen.get((mutation[0], code), 0) + 1

    fuzz()
    print("examples by (input, exit code):", dict(sorted(seen.items())))


if __name__ == "__main__":
    main(sys.argv[1])
