"""Which functions in ``src/repro`` does a surface call?

``python -m benchmarks.census [--check] [--tests]`` lists every function
and method under ``src/repro`` from the AST, runs the repository's
surfaces under a call hook, and compares the functions no surface called
with ``benchmarks/census_unreached.txt``.  Run it from the repository
root; nothing from ``src/repro`` is imported here.

The surfaces, each in its own process (a ``sitecustomize.py`` put first on
``PYTHONPATH`` installs the hook, so the ``repro serve`` child of the e2e
harness is covered too):

* ``python -m benchmarks.e2e --smoke`` (all four workloads);
* the five ``examples/`` and ``python -m repro demo``;
* a smoke run of every ``repro`` subcommand: an archive built with
  ``put``/``update``/``delete`` and read back with ``query``, ``explain``,
  ``trace``, ``history``, ``ls`` and ``stats``; a directory written
  through ``repro serve`` over the wire, then ``recover``, ``stats -d``,
  ``replica`` and ``upgrade`` (which finds nothing older to convert);
* the E-series benchmarks at their CI smoke sizes.

Everything runs in a scratch copy of the checkout under ``tempfile``'s
directory, so the bench reports those scripts rewrite never touch the
tree.  The hook is ``sys.monitoring`` (Python 3.12+: each function is
reported once, then the hook switches itself off for it) or
``sys.setprofile`` before that; both see the same calls.

A function is keyed ``path:qualname`` (``src/repro/cli.py:_cmd_ls``); its
first line, the first decorator's when it is decorated, is what maps a
code object back to it and is printed, but is not part of the key, so the
list survives edits above a function.  Nested functions are
``outer.<locals>.inner`` as in Python; a property's setter and deleter are
``C.x.setter`` / ``C.x.deleter``; any other name defined twice in one
scope gets ``#2``, ``#3``.

``benchmarks/census_unreached.txt`` holds one unreached function per line,
``key  reason``; the reason is ``paper surface``, ``error path``,
``CLI/API surface`` or ``reference kept: tests/<file>.py`` (that file must
exist and name the function), optionally followed by `` - note``.
``--check`` fails (exit 1) when a surface fails, when an unreached function
is not listed, when a listed function no longer exists or when a reason is
malformed.  A listed function that a surface now reaches is reported and
does not fail the check: an error path that a timing-dependent run happens
to take must not make it flap.  Without ``--check`` the report ends with
the list as it should read, reasons kept and new entries marked ``?``.

``--tests`` also runs each tier-1 test file in its own process under the
hook and names, for every unreached function, the test files that call it;
a function no surface and no test reaches is printed as ``dead``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = ROOT / "benchmarks" / "census_unreached.txt"
REASONS = ("paper surface", "error path", "CLI/API surface", "reference kept")
#: Seconds any one surface process may take before it counts as failed.
TIMEOUT = 900

# The hook every surface process loads: it appends ``file<TAB>first
# line<TAB>name`` to ``$REPRO_CENSUS_OUT/<tag>.<pid>.txt`` the first time a
# code object under ``$REPRO_CENSUS_SRC`` runs, flushed at once, so a
# process that is killed still leaves what it called.
HOOK = '''\
import os
import sys
import threading

_src = os.environ["REPRO_CENSUS_SRC"]
_path = os.path.join(os.environ["REPRO_CENSUS_OUT"],
                     "%s.%d.txt" % (os.environ["REPRO_CENSUS_TAG"], os.getpid()))
_seen = set()
_out = None


def _record(code):
    global _out
    _seen.add(code)
    if code.co_filename.startswith(_src):
        if _out is None:
            _out = open(_path, "a")
        _out.write("%s\\t%d\\t%s\\n" % (code.co_filename, code.co_firstlineno,
                                      code.co_name))
        _out.flush()


if hasattr(sys, "monitoring"):
    _mon = sys.monitoring

    def _start(code, offset):
        _record(code)
        return _mon.DISABLE

    _mon.use_tool_id(_mon.PROFILER_ID, "census")
    _mon.register_callback(_mon.PROFILER_ID, _mon.events.PY_START, _start)
    _mon.set_events(_mon.PROFILER_ID, _mon.events.PY_START)
else:
    def _profile(frame, event, arg):
        if event == "call" and frame.f_code not in _seen:
            _record(frame.f_code)

    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''


@dataclass(frozen=True)
class Function:
    path: str  # relative to the root, with "/" separators
    line: int  # the first decorator's line, else the ``def``'s
    qualname: str
    name: str
    lines: int  # first line through last line of the body

    @property
    def key(self):
        return f"{self.path}:{self.qualname}"


def _accessor(node):
    """``"setter"`` / ``"deleter"`` when ``node`` is decorated
    ``@<its own name>.setter`` / ``.deleter``, else ``None``."""
    for deco in node.decorator_list:
        if (isinstance(deco, ast.Attribute)
                and deco.attr in ("setter", "deleter")
                and isinstance(deco.value, ast.Name)
                and deco.value.id == node.name):
            return deco.attr
    return None


def functions_in(source, path):
    """Every function and method ``source`` defines, in source order."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                accessor = _accessor(child)
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append(Function(
                    path, first,
                    f"{qualname}.{accessor}" if accessor else qualname,
                    child.name, child.end_lineno - first + 1,
                ))
                visit(child, f"{qualname}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    counts, unique = {}, []
    for function in found:
        n = counts[function.qualname] = counts.get(function.qualname, 0) + 1
        if n > 1:
            function = Function(function.path, function.line,
                                f"{function.qualname}#{n}", function.name,
                                function.lines)
        unique.append(function)
    return unique


def enumerate_functions(root, package="src/repro"):
    """``{key: Function}`` for every ``*.py`` under ``root/package``."""
    functions = {}
    for file in sorted((Path(root) / package).rglob("*.py")):
        path = file.relative_to(root).as_posix()
        for function in functions_in(file.read_text(), path):
            functions[function.key] = function
    return functions


def reached_keys(records, functions, root):
    """The keys of ``functions`` that ``records`` (``(filename, first
    line, name)`` triples a hook wrote) name; ``filename`` is absolute,
    under ``root``."""
    at = {(f.path, f.line, f.name): f.key for f in functions.values()}
    root = os.path.realpath(root)
    keys = set()
    for filename, line, name in records:
        path = os.path.relpath(os.path.realpath(filename), root)
        key = at.get((Path(path).as_posix(), line, name))
        if key is not None:
            keys.add(key)
    return keys


def tally(records_by_tag, functions, root):
    """``(reached, by_test)`` from :func:`read_records`' output: the keys a
    surface reached, and ``{key: [tests/<file>.py, ...]}`` for the keys a
    tier-1 test file reached (``--tests`` tags those runs ``test_<stem>``)."""
    reached, by_test = set(), {}
    for tag, records in sorted(records_by_tag.items()):
        keys = reached_keys(records, functions, root)
        if tag.startswith("test_"):
            for key in keys:
                by_test.setdefault(key, []).append(f"tests/{tag[5:]}.py")
        else:
            reached |= keys
    return reached, by_test


def read_records(out_dir):
    """``{tag: {(filename, line, name)}}`` from a hook output directory."""
    by_tag = {}
    for file in sorted(Path(out_dir).glob("*.txt")):
        tag = file.name.rsplit(".", 2)[0]
        records = by_tag.setdefault(tag, set())
        for row in file.read_text().splitlines():
            filename, line, name = row.split("\t")
            records.add((filename, int(line), name))
    return by_tag


# -- the committed list --------------------------------------------------------


def parse_list(text):
    """``({key: reason}, [problem, ...])`` from the list's text."""
    listed, problems = {}, []
    for number, row in enumerate(text.splitlines(), 1):
        row = row.strip()
        if not row or row.startswith("#"):
            continue
        key, _, reason = row.partition(" ")
        reason = reason.strip()
        if key in listed:
            problems.append(f"line {number}: {key} listed twice")
        elif not reason.startswith(REASONS):
            problems.append(f"line {number}: {key}: reason {reason!r} is "
                            f"not one of {', '.join(REASONS)}")
        listed[key] = reason
    return listed, problems


def _reference_problem(function, reason, root):
    """Why ``reference kept: <test>`` does not hold for ``function``, or
    ``None``: the test file must exist and name the function."""
    test = reason[len("reference kept"):].lstrip(":").split(" - ")[0].strip()
    if not test.startswith("tests/") or not test.endswith(".py"):
        return f"reference kept names no tests/*.py file: {reason!r}"
    file = Path(root) / test
    if not file.is_file():
        return f"reference kept names a missing file: {test}"
    if function.name not in file.read_text():
        return f"{test} never mentions {function.name}"
    return None


@dataclass
class Verdict:
    unlisted: list  # unreached functions the list does not name
    gone: list  # listed keys that name no function
    now_reached: list  # listed keys a surface reached
    problems: list  # malformed lines and reasons

    @property
    def ok(self):
        return not (self.unlisted or self.gone or self.problems)


def check(functions, reached, list_text, root):
    """Compare what no surface reached with the list's text."""
    listed, problems = parse_list(list_text)
    unreached = set(functions) - set(reached)
    for key, reason in sorted(listed.items()):
        if key in functions and reason.startswith("reference kept"):
            problem = _reference_problem(functions[key], reason, root)
            if problem:
                problems.append(f"{key}: {problem}")
    return Verdict(
        unlisted=sorted(unreached - set(listed), key=_order(functions)),
        gone=sorted(set(listed) - set(functions)),
        now_reached=sorted(set(listed) & set(reached), key=_order(functions)),
        problems=problems,
    )


def _order(functions):
    return lambda key: (functions[key].path, functions[key].line)


def render_list(functions, reached, listed):
    """The list as it should read: every unreached function, its reason
    kept, ``?`` for a new one."""
    header = [row for row in LIST.read_text().splitlines()
              if row.startswith("#")] if LIST.exists() else []
    unreached = sorted(set(functions) - set(reached), key=_order(functions))
    width = max((len(key) for key in unreached), default=0)
    return "\n".join(
        header + [f"{key:<{width}}  {listed.get(key, '?')}" for key in unreached]
    ) + "\n"


# -- the surfaces --------------------------------------------------------------

_DOC_V1 = ("<guide><restaurant><name>Napoli</name><price>15</price>"
           "</restaurant></guide>")
_DOC_V2 = ("<guide><restaurant><name>Napoli</name><price>15</price>"
           "</restaurant><restaurant><name>Akropolis</name><price>13</price>"
           "</restaurant></guide>")
_DOC_V3 = ("<guide><restaurant><name>Napoli</name><price>18</price>"
           "</restaurant></guide>")
_EVERY = 'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R'
_SNAPSHOT = ('SELECT R/name FROM doc("guide.com")[26/01/2001]/restaurant R '
             'WHERE R/price < 20')

_TRACE_ROUND_TRIP = """
import json
from repro.obs import ExplainAnalyzeReport
with open("trace.json") as handle:
    payload = json.load(handle)
assert ExplainAnalyzeReport.trace_from_json(payload).to_dict() == payload["trace"]
"""

#: The E-series at the sizes CI runs them (``.github/workflows/ci.yml``),
#: and the bench files CI does not run, whole.  ``bench_observability.py``
#: is left out: it asserts the tracer's overhead, which a call hook breaks.
_PYTEST_BENCH = (
    ("E3 E6 E7 E8 E9", ["bench_reconstruct.py", "bench_fti_alternatives.py",
                        "bench_storage_schemes.py",
                        "bench_stratum_vs_native.py", "bench_clustering.py"],
     []),
    ("E1b E2b", ["bench_tpatternscan.py", "bench_tpatternscanall.py"],
     ["-k", "join_engines"]),
    ("durability storage", ["bench_durability.py", "bench_storage_cas.py"], []),
    ("F1 and the rest", ["bench_figure1_queries.py", "bench_history.py",
                         "bench_lifetime.py", "bench_equality.py",
                         "bench_microbenchmarks.py", "bench_rewriting.py"],
     []),
)
_SMOKE_SCRIPTS = ("bench_scale.py", "bench_planner.py", "bench_temporal.py")


class Runner:
    """Runs commands in the scratch copy under the hook, one process each,
    and keeps the ones that failed."""

    def __init__(self, copy, out_dir, hook_dir):
        self.copy = copy
        self.src = os.path.realpath(copy / "src")
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=os.pathsep.join([str(hook_dir), self.src]),
            REPRO_CENSUS_SRC=self.src, REPRO_CENSUS_OUT=str(out_dir),
        )
        self.failed = []

    def _env(self, tag):
        env = dict(self.env)
        env["REPRO_CENSUS_TAG"] = tag.replace(" ", "_")
        return env

    def run(self, tag, argv, cwd=None, expect=0):
        try:
            done = subprocess.run(
                [sys.executable, *argv], cwd=cwd or self.copy,
                env=self._env(tag), stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            self.failed.append((tag, f"no exit within {TIMEOUT} s"))
            return ""
        if done.returncode != expect:
            tail = "\n".join(done.stdout.splitlines()[-15:])
            self.failed.append((tag, f"exit {done.returncode}\n{tail}"))
        return done.stdout

    def serve(self, tag, argv, cwd, requests):
        """Start ``repro serve``, send ``requests`` as JSON lines, stop it
        with ^C."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], cwd=cwd,
            env=self._env(tag), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            line = proc.stdout.readline()
            host, port = line.rsplit(" on ", 1)[1].strip().rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=60) as s:
                stream = s.makefile("rw")
                for request in requests:
                    stream.write(json.dumps(request) + "\n")
                    stream.flush()
                    answer = json.loads(stream.readline())
                    if not answer.get("ok"):
                        self.failed.append((tag, f"{request}: {answer}"))
        except (OSError, ValueError, IndexError) as exc:
            self.failed.append((tag, f"{type(exc).__name__}: {exc}"))
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            self.failed.append((tag, f"exit {proc.returncode}"))


def _cli_smoke(runner, work):
    """Every ``repro`` subcommand once, each in its own process."""
    for name, text in (("v1.xml", _DOC_V1), ("v2.xml", _DOC_V2),
                       ("v3.xml", _DOC_V3)):
        (work / name).write_text(text)
    repro = ["-m", "repro"]
    archive = ["-a", "db.xml"]
    steps = [
        ("put", [*archive, "guide.com", "v1.xml", "--ts", "01/01/2001"]),
        ("update", [*archive, "guide.com", "v2.xml", "--ts", "15/01/2001"]),
        ("update", [*archive, "guide.com", "v3.xml", "--ts", "31/01/2001"]),
        ("put", [*archive, "other.com", "v1.xml", "--ts", "01/02/2001"]),
        ("delete", [*archive, "other.com", "--ts", "05/02/2001"]),
        ("query", [*archive, _EVERY]),
        ("query", [*archive, "--xml", _SNAPSHOT]),
        ("query", [*archive, f"EXPLAIN {_SNAPSHOT}"]),
        ("query", [*archive, f"EXPLAIN ANALYZE {_EVERY}"]),
        ("explain", [*archive, _SNAPSHOT]),
        ("explain", [*archive, "--json", _EVERY]),
        ("trace", [*archive, "-o", "trace.json", _EVERY]),
        ("trace", [*archive, "--json", _SNAPSHOT]),
        ("history", [*archive, "guide.com"]),
        ("ls", archive),
        ("stats", [*archive, "--exercise", "guide.com"]),
        ("stats", [*archive, "--json"]),
    ]
    for command, args in steps:
        runner.run(f"cli {command}", [*repro, command, *args], cwd=work)
    # CI reads the exported trace back through the library.
    runner.run("cli trace", ["-c", _TRACE_ROUND_TRIP], cwd=work)
    requests = [
        {"op": "ping"},
        {"op": "put", "name": "guide.com", "xml": _DOC_V1, "ts": "01/01/2001"},
        {"op": "update", "name": "guide.com", "xml": _DOC_V2,
         "ts": "15/01/2001"},
        {"op": "update", "name": "guide.com", "xml": _DOC_V3,
         "ts": "31/01/2001"},
        {"op": "put", "name": "other.com", "xml": _DOC_V1, "ts": "01/02/2001"},
        {"op": "delete", "name": "other.com", "ts": "05/02/2001"},
        {"op": "query", "text": _EVERY, "xml": True, "stats": True},
        {"op": "trace", "text": _SNAPSHOT},
        {"op": "refresh"},
        {"op": "pinned"},
        {"op": "stats"},
        {"op": "close"},
    ]
    runner.serve("cli serve", ["serve", "-d", "dir", "--durability", "fsync",
                               "--snapshot-interval", "2", "--json"],
                 work, requests)
    for tag, args in (
        ("cli recover", ["recover", "-d", "dir", "--no-checkpoint"]),
        ("cli replica", ["replica", "-d", "dir", "--query", _EVERY, "--xml"]),
        ("cli replica", ["replica", "-d", "dir", "--json"]),
        ("cli replica", ["replica", "-d", "dir", "--follow", "0.05",
                         "--follow-for", "0.2"]),
        ("cli recover", ["recover", "-d", "dir"]),
        ("cli stats", ["stats", "-d", "dir", "--exercise", "guide.com"]),
        ("cli stats", ["stats", "-d", "dir", "--json"]),
        ("cli upgrade", ["upgrade", "-d", "dir"]),
    ):
        runner.run(tag, [*repro, *args], cwd=work)
    runner.serve("cli serve", ["serve", "-a", "db.xml", "--serve-for", "60"],
                 work, [{"op": "query", "text": _SNAPSHOT}, {"op": "close"}])


def run_surfaces(runner, work):
    copy = runner.copy
    runner.run("e2e", ["-m", "benchmarks.e2e", "--smoke"])
    for example in sorted((copy / "examples").glob("*.py")):
        runner.run(f"example {example.stem}", [str(example)], cwd=work)
    runner.run("demo", ["-m", "repro", "demo"], cwd=work)
    cli = work / "cli"
    cli.mkdir()
    _cli_smoke(runner, cli)
    bench = copy / "benchmarks"
    for tag, files, extra in _PYTEST_BENCH:
        runner.run(f"bench {tag}", [
            "-m", "pytest", *[str(bench / f) for f in files], *extra, "-q",
            "--benchmark-disable", "-p", "no:cacheprovider",
        ])
    for script in _SMOKE_SCRIPTS:
        runner.run(f"bench {script}", [
            str(bench / script), "--smoke",
            "--out", str(work / f"{script}.json"),
        ], cwd=work)
    runner.run("memprobe", ["-m", "benchmarks.memprobe", "--smoke", "--sites"])


def run_tests(runner):
    for test in sorted((runner.copy / "tests").glob("test_*.py")):
        runner.run(f"test {test.stem}", [
            "-m", "pytest", str(test), "-q", "-x", "-p", "no:cacheprovider",
        ])


def _copy_checkout(dest):
    skip = shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks",
        "out", ".claude",
    )
    for name in ("src", "benchmarks", "examples", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for file in ROOT.iterdir():
        if file.is_file():
            shutil.copy2(file, dest / file.name)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.census")
    parser.add_argument("--check", action="store_true",
                        help="fail unless every unreached function is "
                             "listed in benchmarks/census_unreached.txt "
                             "with a reason, and every listed one exists")
    parser.add_argument("--tests", action="store_true",
                        help="also run each tier-1 test file under the "
                             "hook and name the tests that reach each "
                             "unreached function")
    args = parser.parse_args(argv)

    functions = enumerate_functions(ROOT)
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        scratch = Path(scratch)
        copy, out_dir, hook_dir, work = (scratch / d for d in
                                         ("repo", "out", "hook", "work"))
        for directory in (copy, out_dir, hook_dir, work):
            directory.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        _copy_checkout(copy)
        runner = Runner(copy, out_dir, hook_dir)
        run_surfaces(runner, work)
        surface_failures = list(runner.failed)
        if args.tests:
            run_tests(runner)
        reached, by_test = tally(read_records(out_dir), functions, copy)

    text = LIST.read_text() if LIST.exists() else ""
    verdict = check(functions, reached, text, ROOT)
    listed, _ = parse_list(text)
    unreached = set(functions) - reached
    lines = sum(functions[key].lines for key in unreached)
    print(f"census: {len(functions)} functions in src/repro, "
          f"{len(reached)} reached by a surface, {len(unreached)} unreached "
          f"({lines} lines), {len(listed)} listed")
    for tag, detail in surface_failures:
        print(f"FAILED surface {tag}: {detail}")
    for tag, detail in runner.failed[len(surface_failures):]:
        print(f"failed test file {tag}: {detail}")
    for key in verdict.unlisted:
        f = functions[key]
        print(f"UNLISTED {f.path}:{f.line} {f.qualname} ({f.lines} lines)")
    for key in verdict.gone:
        print(f"GONE {key} is listed but no longer exists")
    for problem in verdict.problems:
        print(f"BAD {problem}")
    for key in verdict.now_reached:
        print(f"reached now (may leave the list): {key}")
    if args.tests:
        dead = sorted(unreached - set(by_test), key=_order(functions))
        for key in sorted(unreached & set(by_test), key=_order(functions)):
            print(f"test-only {key}: {' '.join(sorted(by_test[key]))}")
        for key in dead:
            print(f"dead {key} ({functions[key].lines} lines)")
        print(f"{len(dead)} function(s) reached by no surface and no test "
              f"({sum(functions[k].lines for k in dead)} lines)")
    if not args.check:
        print("\n# the list as it should read:")
        print(render_list(functions, reached, listed), end="")
        return 0
    ok = verdict.ok and not surface_failures
    print("census check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
