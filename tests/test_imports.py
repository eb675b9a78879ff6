"""What each entry point imports, and the pool under every start method.

Each case runs in a fresh interpreter with `-S`, so that no site hook
loads a module before distmon does.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# the layers a census never runs, and the stdlib modules it loads only to
# fork (multiprocessing) or to keep monoids (tempfile)
NOT_IN_A_CENSUS = {
    "distmon.analysis",
    "distmon.audit",
    "distmon.builders",
    "distmon.formulas",
    "distmon.robbins",
    "fractions",
    "multiprocessing",
    "tempfile",
}
needs_two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="the pool starts only with 2 or more cores"
)


def _run(args: list[str], timeout: float = 120) -> str:
    proc = subprocess.run(
        [sys.executable, "-S", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(code: str) -> set[str]:
    """sys.modules after `code` runs in a fresh interpreter."""
    out = _run(["-c", code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"])
    return set(json.loads(out.splitlines()[-1]))


def _cli(*argv: str) -> str:
    return f"from distmon.cli import main\nmain({list(argv)!r})"


class TestFootprint:
    def test_census_module_loads_table_and_errors(self):
        loaded = _loaded("import distmon.census")
        assert {m for m in loaded if m.startswith("distmon")} == {
            "distmon",
            "distmon.census",
            "distmon.errors",
            "distmon.table",
        }
        assert not loaded & NOT_IN_A_CENSUS

    def test_counting_census_loads_no_other_layer(self):
        assert not _loaded(_cli("census", "--n", "6")) & NOT_IN_A_CENSUS

    @needs_two_cores
    def test_forking_census_loads_multiprocessing(self):
        loaded = _loaded(_cli("census", "--n", "8", "--jobs", "2"))
        assert "multiprocessing" in loaded
        assert not loaded & (NOT_IN_A_CENSUS - {"multiprocessing", "tempfile"})


class TestLazyExports:
    def test_star_import_binds_every_name_from_its_submodule(self):
        code = """
import importlib
import distmon
names = {}
exec("from distmon import *", names)
del names["__builtins__"]
assert list(names) == distmon.__all__, sorted(set(distmon.__all__) ^ set(names))
for name, module in distmon._EXPORTS.items():
    source = importlib.import_module(f"distmon.{module}")
    assert names[name] is getattr(source, name), name
print(len(names))
"""
        assert _run(["-c", code]).split() == ["51"]

    def test_all_is_unchanged(self):
        import distmon

        assert len(distmon.__all__) == len(set(distmon.__all__)) == 51
        assert distmon.__all__ == sorted(distmon.__all__)

    def test_dir_lists_every_export(self):
        out = _run(["-c", "import distmon, json\nprint(json.dumps(dir(distmon)))"])
        import distmon

        listed = set(json.loads(out))
        assert "__all__" in listed
        assert set(distmon.__all__) <= listed

    def test_unknown_name_raises_attribute_error(self):
        code = """
import distmon
try:
    distmon.no_such_name
except AttributeError as exc:
    print(exc)
print(hasattr(distmon, "no_such_name"))
"""
        assert _run(["-c", code]).splitlines() == [
            "module 'distmon' has no attribute 'no_such_name'",
            "False",
        ]

    def test_submodule_resolves_after_bare_import(self):
        out = _run(["-c", "import distmon\nprint(distmon.audit.run_audit.__module__)"])
        assert out == "distmon.audit\n"


# census --n 8 --jobs 2 and the n = 8 stream on two jobs, under the start
# method given on the command line, set under the __main__ guard that a
# spawn or forkserver pool needs
_START_METHOD_SCRIPT = """
import contextlib, hashlib, io, json, multiprocessing, sys
from distmon.census import SearchConfig, stream_tables
from distmon.cli import main

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["census", "--n", "8", "--jobs", "2"])
    stream = hashlib.sha256()
    count = 0
    for t, arch in stream_tables(SearchConfig(n=8, emit=True, job_count=2))[1]:
        stream.update(bytes(v for row in t.entries for v in row) + bytes((arch,)))
        count += 1
    print(json.dumps([code, out.getvalue(), count, stream.hexdigest()]))
"""


@needs_two_cores
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_under_start_method_matches_fork(tmp_path, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} on this platform")
    script = tmp_path / "census_script.py"
    script.write_text(_START_METHOD_SCRIPT, encoding="utf-8")
    forked = json.loads(_run([str(script), "fork"]))
    assert forked[0] == 0 and forked[2] == 13775
    assert json.loads(forked[1])["monoid_count"] == "13775"
    assert json.loads(_run([str(script), method])) == forked
