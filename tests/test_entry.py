"""The process entry ``cli.run``: a command launched through it prints, writes
and exits exactly as ``sys.exit(main())`` does, and the ``arrowlab`` script
and ``python -m arrowlab.cli`` are the same entry."""

import ast
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from arrowlab.rules import dictator, save_rule

ROOT = Path(__file__).resolve().parents[1]
CLI = ROOT / "src" / "arrowlab" / "cli.py"

# The reference entry: the interpreter's own exit, after its teardown.
REFERENCE = "import sys\nfrom arrowlab.cli import main\nsys.exit(main())\n"

# Each command, the status both entries exit with, and whether it takes --out.
ENTRY_CASES = {
    "verify-arrow": (["verify-arrow", "--voters", "2", "--candidates", "3"], 0, True),
    "refused-scale": (["check", "--suite", "metric", "--voters", "5", "--candidates", "4"], 2, True),
    "usage-error": (["verify-arrow", "--voters", "2"], 2, False),
    "help": (["--help"], 0, False),
    "step-limit": (["iterate", "--rule", "RULE", "--max-steps", "0"], 3, True),
    "welldef-failure": (["check", "--suite", "welldef", "--voters", "3"], 4, True),
}


def _env() -> dict:
    """The test's environment with ``src`` on the path, and stdout block
    buffered (no ``PYTHONUNBUFFERED``), so output that an entry failed to
    flush would be lost."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _launch(prefix: list[str], argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *prefix, *argv], capture_output=True, env=_env(), **kwargs)


def _untimed(err: bytes) -> bytes:
    """Stderr with its timings (``in 0.012s``) masked."""
    return re.sub(rb"in \d+\.\d+s", b"in Ts", err)


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", list(ENTRY_CASES))
def test_entry_prints_writes_and_exits_as_sys_exit_main(case, tmp_path):
    argv, status, takes_out = ENTRY_CASES[case]
    rule = tmp_path / "rule.json"
    save_rule(dictator(2, 3, 0), rule)
    argv = [str(rule) if a == "RULE" else a for a in argv]
    runs = []
    for name, prefix in (("entry", ["-m", "arrowlab.cli"]), ("reference", ["-c", REFERENCE])):
        out = tmp_path / name
        proc = _launch(prefix, argv + (["--out", str(out)] if takes_out else []))
        files = _files(out) if out.exists() else {}
        runs.append((proc.returncode, proc.stdout, _untimed(proc.stderr), files))
    assert runs[0] == runs[1]
    code, _, _, files = runs[0]
    assert code == status and bool(files) == (takes_out and status != 2)


def test_entry_under_a_profiler_prints_its_table():
    """A profile hook keeps the interpreter's own exit: cProfile prints its
    table after the command's output."""
    proc = _launch(["-m", "cProfile", "-m", "arrowlab.cli"], ["--help"], text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: arrowlab")
    assert "function calls" in proc.stdout and "Ordered by" in proc.stdout


@pytest.mark.parametrize("argv", (["--help"], ["verify-arrow", "--voters", "1", "--candidates", "3"]))
def test_entry_runs_an_exit_function_once_and_flushes_its_output(argv):
    """An exit function registered before the entry runs once, before the
    last flush, so what it prints reaches stdout after the command's output."""
    script = (
        "import atexit, sys\n"
        "atexit.register(sys.stdout.write, 'exit function\\n')\n"
        "from arrowlab.cli import run\n"
        "run()\n"
    )
    proc = _launch(["-c", script], argv, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("exit function") == 1
    assert proc.stdout.endswith("\nexit function\n")


def _closed_pipe_run(prefix: list[str], argv: list[str], env: dict) -> tuple[int, bytes]:
    """Exit status and stderr of a launch whose stdout is a pipe with no reader."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, *prefix, *argv], stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("buffered", (True, False), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("argv", (["replay", "--voters", "3"], ["--help"]))
def test_entry_reports_a_closed_stdout_as_sys_exit_main(argv, buffered):
    """Buffered, the output meets the closed pipe at the entry's flush, which
    falls back to the interpreter's exit and its report (status 120);
    unbuffered, a report's write fails inside the command (status 2)."""
    env = _env() if buffered else {**_env(), "PYTHONUNBUFFERED": "1"}
    entry = _closed_pipe_run(["-m", "arrowlab.cli"], argv, env)
    assert entry == _closed_pipe_run(["-c", REFERENCE], argv, env)
    assert entry[0] == (120 if buffered else 2 if argv[0] == "replay" else 0)


def test_entry_with_stdout_closed_at_start_up_exits_as_sys_exit_main():
    """With descriptor 1 closed, ``sys.stdout`` is None and argparse prints
    the help to stderr; the entry skips the missing stream."""
    runs = [
        _launch(prefix, ["--help"], preexec_fn=functools.partial(os.close, 1))
        for prefix in (["-m", "arrowlab.cli"], ["-c", REFERENCE])
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stderr == runs[1].stderr and runs[0].stderr.startswith(b"usage: arrowlab")


def test_script_and_module_entries_are_one_function():
    """``pyproject.toml``'s ``arrowlab`` script names the function that the
    ``__main__`` guard of ``arrowlab.cli`` calls, ``run``; and only ``run``
    ends the process or runs the exit functions, so ``main()`` stays safe to
    call in-process."""
    target = re.search(r'^arrowlab = "(.+)"$', (ROOT / "pyproject.toml").read_text(), re.M)[1]
    assert target == "arrowlab.cli:run"
    tree = ast.parse(CLI.read_text())
    (guard,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(statement) for statement in guard.body] == [target.split(":")[1] + "()"]
    enders = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and ast.unparse(node) in ("os._exit", "atexit._run_exitfuncs")
    }
    assert enders == {"run"}
    assert "atexit.register" not in CLI.read_text()
