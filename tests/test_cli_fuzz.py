"""Fuzz the command line in-process: whatever argv it gets, `main` answers
with a documented exit code and never with a traceback."""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from permpat.cli import main

# generous: with n <= 6 and --n-max <= 4, each drawn run takes well under
# a second
TIME_BOUND_S = 10

# inside a directory that does not exist, so a report is never written
_UNWRITABLE_REPORT = str(Path(__file__).parent / "no-such-directory"
                         / "report.json")

_digits = st.text("0123456789", min_size=1, max_size=10)


def _mostly(lo, hi, bad_lo, bad_hi):
    """Integer text, in lo..hi half the time and in bad_lo..bad_hi else."""
    return st.one_of(st.integers(lo, hi), st.integers(bad_lo, bad_hi)).map(str)


_small = _mostly(1, 5, -1, 11)
_pattern = st.one_of(
    st.integers(1, 5).flatmap(lambda k: st.permutations(range(1, k + 1)))
    .map(lambda p: "".join(map(str, p))),
    _digits)


@st.composite
def _set_expressions(draw):
    k, m = draw(_small), draw(_small)
    ms = ",".join(draw(st.one_of(
        st.sets(st.integers(1, 5), min_size=1).map(sorted).map(
            lambda ms: [str(m) for m in ms]),
        st.lists(_small, max_size=4))))
    tau = draw(_pattern)
    brace = ",".join(draw(st.lists(_pattern, max_size=3)))
    return draw(st.sampled_from([
        f"Tkm({k},{m})", f"M({k},{m};{tau})", f"U({k};{ms})", f"{{{brace}}}",
        f"Tkm({k},{m}", f"M({k};{tau})", f"U({k},{ms})", f"{{{brace}",
    ]))


_permutation_text = st.one_of(
    st.permutations(range(1, 8)).flatmap(
        lambda p: st.integers(1, 7).map(lambda j: ",".join(map(str, p[:j])))),
    st.lists(st.integers(-1, 9).map(str), max_size=7).map(" ".join),
    _digits,
)

_noise = st.sampled_from([
    "", "-", "--", "--bogus", "x", "--force", "-n", "--set", "--limit",
    "--claims", "--format", "csv", "all", "1", "-1", "١", "Tkm(3,1)",
])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["count", "enumerate", "occurrences", "verify", "map"]))
    # a required option is left out now and then, an optional one often
    opt = lambda name, values, p=0.5: (
        [name, draw(values)] if draw(st.floats(0, 1)) < p else [])
    need = lambda name, values: opt(name, values, 0.9)
    n = _mostly(1, 6, -1, 6)
    if command in ("count", "enumerate"):
        argv = [command, *need("--set", _set_expressions()), *need("-n", n)]
        if command == "enumerate":
            argv += opt("--limit", _mostly(1, 5, -1, 5))
    elif command == "occurrences":
        argv = [command, *need("--host", _permutation_text),
                *need("--pattern", _permutation_text),
                *opt("--limit", _mostly(1, 5, -1, 5))]
    elif command == "verify":
        argv = [command,
                *opt("--claims", st.sampled_from(
                    ["all", "catalan", "catalan,catalan", "theorem1,bogus",
                     "", ","])),
                # always given: the default, 9, runs the full grid
                "--n-max", draw(_mostly(1, 4, -1, 4)),
                *opt("--format", st.sampled_from(["json", "csv", "xml"])),
                *opt("--out", st.just(_UNWRITABLE_REPORT), 0.3)]
    else:
        argv = [command, draw(st.sampled_from(
                    ["prepend", "insertbottom", "removebottom", "other"])),
                *opt("--beta", _permutation_text),
                *opt("--alpha", _permutation_text),
                *opt("--h", _mostly(1, 4, -1, 9))]
    for token in draw(st.one_of(st.just([]), st.lists(_noise, max_size=2))):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=300)
@given(_argv())
def test_every_argv_gets_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert out == "", argv
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    assert "Traceback" not in out + err, argv
    assert elapsed < TIME_BOUND_S, (argv, elapsed)
