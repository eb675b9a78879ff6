"""Property test of the CLI exit contract: on any argv and file contents,
`main` returns 0, 1 or 2 and never lets a traceback escape.

Sizes are bounded so that every example finishes quickly: `--n` and
`--n-max` are drawn up to 6 (emission only up to 4), `--jobs` up to 2,
and `audit --deep` (a fixed n = 9 census) is never drawn.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from distmon.cli import main

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

small_int = st.integers(min_value=-3, max_value=6)
jobs = st.sampled_from(["-1", "0", "1", "2"])
token = st.text(alphabet="0123456789-/.,e abx", max_size=8)
number = st.one_of(
    st.integers(-2, 9).map(str),
    st.tuples(st.integers(-2, 9), st.integers(-2, 9)).map(lambda p: f"{p[0]}/{p[1]}"),
    token,
)

json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(allow_nan=False) | token,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(token, inner, max_size=4),
    max_leaves=30,
)


@st.composite
def table_text(draw):
    """File contents: free text, any JSON, or a table-shaped object."""
    kind = draw(st.sampled_from(["text", "json", "table"]))
    if kind == "text":
        return draw(st.text(max_size=60))
    if kind == "json":
        return json.dumps(draw(json_value))
    n = draw(st.integers(-1, 4))
    size = max(n, 0) + 1
    rows = draw(
        st.lists(
            st.lists(st.integers(-1, 5), min_size=size - 1, max_size=size + 1),
            min_size=size - 1,
            max_size=size + 1,
        )
    )
    return json.dumps({"n": n, "table": rows})


def run_main(argv):
    """Run the CLI; return (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    return code, err.getvalue()


def assert_contract(argv):
    code, err = run_main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)


def flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def switch(name):
    return st.sampled_from([[], [name]])


@FUZZ
@given(
    command=st.sampled_from(["verify", "analyze"]),
    text=table_text(),
    expect=switch("--expect-monoid"),
)
def test_table_commands(command, text, expect):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        extra = expect if command == "verify" else []
        assert_contract([command, path, *extra])


@FUZZ
@given(
    n=small_int,
    opts=st.tuples(
        switch("--magmas"),
        flag("--arch", small_int),
        switch("--count-only"),
        flag("--jobs", jobs),
        flag("--prefix-depth", st.integers(-1, 22)),
        switch("--dm-table"),
        switch("--emit"),
        switch("--csv"),
    ),
)
def test_census(n, opts):
    magmas, arch, count_only, job, depth, dm_table, emit, csv = opts
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["census", "--n", str(n), *magmas, *arch, *count_only, *job, *depth, *dm_table]
        if emit and n <= 4:
            argv += ["--emit", os.path.join(tmp, "out")]
        if csv:
            argv += ["--csv", os.path.join(tmp, "rows.csv")]
        assert_contract(argv)


@FUZZ
@given(
    kind=st.sampled_from(["dm2", "bell", "stirling2", "near-top", "lower-bound", "a-chains"]),
    n=st.one_of(st.integers(-5, 40), st.sampled_from([1000, 1001, 10**5])),
    k=flag("--k", st.integers(-3, 12)),
)
def test_formula(kind, n, k):
    assert_contract(["formula", kind, "--n", str(n), *k])


@FUZZ
@given(
    family=st.sampled_from(["sup", "complexity2", "lower-bound", "counterexample"]),
    values=flag("--values", st.lists(number, max_size=5).map(",".join)),
    spec=st.one_of(st.none(), json_value.map(json.dumps), st.text(max_size=30)),
    n=flag("--n", small_int),
    k=flag("--k", small_int),
    indices=flag("--indices", st.lists(number, max_size=3).map(",".join)),
    m=flag("--m", st.integers(-2, 8)),
    out=switch("--out"),
)
@example(  # a zero denominator once escaped as ZeroDivisionError
    family="sup", values=["--values", "1/0"], spec=None, n=[], k=[], indices=[], m=[], out=[]
)
def test_build(family, values, spec, n, k, indices, m, out):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["build", family, *values, *n, *k, *indices, *m]
        if spec is not None:
            path = os.path.join(tmp, "spec.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(spec)
            argv += ["--spec", path]
        if out:
            argv += ["--out", os.path.join(tmp, "out")]
        assert_contract(argv)


@settings(max_examples=15, deadline=None)
@given(n_max=small_int, job=flag("--jobs", jobs))
def test_audit(n_max, job):
    assert_contract(["audit", "--n-max", str(n_max), *job])


@FUZZ
@given(
    argv=st.lists(
        st.one_of(
            st.sampled_from(
                ["verify", "analyze", "census", "formula", "build", "audit",
                 "--n", "--k", "--m", "--jobs", "--help", "dm2", "sup", "-x"]
            ),
            token,
        ),
        max_size=6,
    )
)
def test_arbitrary_argv(argv):
    # no --n or --n-max value above 6 can reach a census here
    if any(a in ("census", "audit") for a in argv) and any(
        t.lstrip("-").isdigit() and int(t) > 6 for t in argv
    ):
        argv = [a for a in argv if a not in ("census", "audit")]
    assert_contract(argv)
