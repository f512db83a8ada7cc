"""What a CLI process pays for outside its command: the modules it loads, the
exit status of a closed stdout, and the GC freeze at exit; and that no source
of the package, its tests or its scripts imports numpy."""

import ast
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricext

# the package's modules, as the files of src/toricext/ name them
_MODULES = sorted(
    path.stem for path in Path(toricext.__file__).parent.glob("*.py")
    if path.stem != "__init__"
)


# the directory the package is imported from: under -S the child reads no
# .pth file, so an installed checkout is put on its path explicitly
_PACKAGE_ROOT = str(Path(toricext.__file__).resolve().parents[1])


def _python_no_site(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -S -c code *args``: no site hook loads modules first."""
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True, text=True, timeout=240,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert r.returncode == 0, r.stderr
    return r


# runs ``python -m toricext *argv`` (a bare ``import toricext`` if sys.argv[1]
# is "import", argv after "run" otherwise), then prints the loaded modules on
# stderr's last line; it loads nothing itself, json included
_FOOTPRINT = """
import runpy, sys
if sys.argv[1] == "import":
    import toricext
else:
    sys.argv = ["toricext", *sys.argv[2:]]
    try:
        runpy.run_module("toricext", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, exc.code
print("\\n" + " ".join(sorted(sys.modules)), file=sys.stderr)
"""

# derive and example run on the exact layer alone, profile on it, numdiff
# and table
_EXACT_ONLY = {
    "toricext.abreu", "toricext.bridge", "toricext.calabi", "toricext.polytope",
    "toricext.radial",
}
# every module runs on the standard library: no command loads numpy, nor
# dataclasses and the inspect it imports, nor the OpenSSL-backed hashing, nor
# typing (annotations are evaluated and name nothing from it; the footprint
# runs under -S, since a site hook may import typing before the package
# does), nor __future__, nor argparse and the
# gettext and locale it imports, nor json, nor fractions and the decimal it
# imports (the exact layer runs on integers), nor numbers (abreu reads a
# coordinate as float(v + 0.0))
_NEVER = {
    "numpy", "inspect", "dataclasses", "secrets", "hashlib", "_hashlib", "typing",
    "__future__", "argparse", "gettext", "locale", "json", "fractions", "decimal",
    "numbers",
}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (None, {"scipy", *(f"toricext.{m}" for m in _MODULES)}),
        (["derive"], _EXACT_ONLY | {"toricext.numdiff", "toricext.table"}),
        (["example"], _EXACT_ONLY | {"toricext.numdiff", "toricext.table"}),
        (["profile"], _EXACT_ONLY),
        (["profile", "--format", "json"], _EXACT_ONLY),
        (
            ["bridge-check", "--samples", "3"],
            {"toricext.calabi", "toricext.abreu", "toricext.polytope",
             "toricext.exact", "toricext.table"},
        ),
        (["verify", "--points", "10"], {"toricext.bridge"}),
    ],
    ids=["import toricext", "derive", "example", "profile", "profile json",
         "bridge-check", "verify"],
)
def test_import_footprint(argv, absent):
    r = _python_no_site(_FOOTPRINT, *(["import"] if argv is None else ["run", *argv]))
    loaded = set(r.stderr.splitlines()[-1].split())
    assert "toricext" in loaded
    assert not (absent | _NEVER) & loaded
    if argv is not None:
        assert "toricext.cli" in loaded


def test_cli_defines_no_command_run_function():
    # each command's run_<command> lives in the module the command loads
    # anyway, so a call loads no module that only another command needs
    from toricext import cli

    for command, (_, module, _) in cli._COMMANDS.items():
        run = "run_" + command.replace("-", "_")
        assert not hasattr(cli, run)
        assert callable(getattr(importlib.import_module(f"toricext.{module}"), run))
    assert not [name for name in vars(cli) if name.startswith("run_")]
    assert not hasattr(cli, "_verify_battery")


def test_only_cli_renders_and_checks_flags():
    # a command returns its document; cli alone renders it and checks the
    # flag values, so no other module reads cli's renderer or flag check,
    # and exact and calabi, whose documents hold no table, import nothing
    # from cli
    package = Path(toricext.__file__).parent
    private = {"_render_json", "_fill", "_FLOAT"}
    found = []
    for module in sorted(set(_MODULES) - {"cli"}):
        for node in ast.walk(ast.parse((package / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if module in ("exact", "calabi") and (
                    node.module in ("cli", "toricext.cli") or "cli" in names
                ):
                    found.append(f"{module}:{node.lineno} imports from cli")
            else:
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if names & private:
                found.append(f"{module}:{node.lineno} {sorted(names & private)}")
    assert found == []


def test_no_source_imports_numpy():
    # the package and its scripts run on the standard library, and the tests
    # on it, pytest, hypothesis and sympy.  perfbench/ is not read: its
    # tracing imports numpy until the program times its own stages
    # (ROADMAP item 20)
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted(p for d in ("src", "tests", "scripts") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


def test_the_package_binds_no_name_but_its_version():
    # the modules are the API: each name is read from the module defining
    # it, and the package holds only the submodules an import has bound
    assert toricext.__version__ == "0.1.0"
    assert not hasattr(toricext, "solve_coefficients")
    for module in _MODULES:
        mod = importlib.import_module(f"toricext.{module}")
        for name in vars(mod):
            if not name.startswith("_") and name not in _MODULES:
                assert not hasattr(toricext, name), f"{module}.{name}"
    public = {name for name in vars(toricext) if not name.startswith("_")}
    assert public <= set(_MODULES)
    with pytest.raises(AttributeError):
        toricext.nonexistent


def _entry_point(argv: list, **streams) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "toricext", *argv], **streams)


def test_reader_closing_stdout_early_ends_the_call_with_141():
    # a multi-MB report: the reader takes a few bytes and closes the pipe
    # while the call is still writing
    proc = _entry_point(["bridge-check", "--samples", "5000"],
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "schem'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=240), err) == (141, b"")


def test_stdout_without_a_reader_ends_a_small_call_with_141():
    # a short report sits in stdout's buffer until the entry point flushes it
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _entry_point(["derive"], stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=240)
    assert (proc.returncode, err) == (141, b"")


def test_entry_point_freezes_the_heap_after_the_command(capsys):
    from toricext import __main__ as entry

    try:
        assert entry.main(["derive"]) == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert json.loads(capsys.readouterr().out)["n"] == 2
