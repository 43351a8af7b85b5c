"""The package loads its submodules on first use: each check runs in a
fresh interpreter, so no earlier import hides a load."""

import os
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

FIG2 = FsPath(__file__).parent / "data" / "fig2.json"
SUBMODULES = (
    "galois", "kernels", "codec", "graph", "connectivity", "feasibility", "construction", "simulator",
)


def _python(*args, stdin=None):
    env = dict(os.environ)
    env.pop("NPC_FIELD_POLY", None)
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=120
    )


def _check(code: str) -> None:
    res = _python("-c", code)
    assert res.returncode == 0, res.stderr


def test_import_registers_every_submodule_without_numpy():
    _check(
        "import sys, npcode\n"
        "assert 'numpy' not in sys.modules\n"
        f"missing = [m for m in {SUBMODULES!r} if f'npcode.{{m}}' not in sys.modules]\n"
        "assert not missing, missing\n"
        f"assert all(getattr(npcode, m) is sys.modules[f'npcode.{{m}}'] for m in {SUBMODULES!r})\n"
    )


def test_every_export_is_its_home_module_object():
    _check(
        "import sys, npcode\n"
        "assert len(npcode.__all__) == len(set(npcode.__all__)) == 48\n"
        "for name, home in npcode._EXPORTS.items():\n"
        "    assert getattr(npcode, name) is getattr(sys.modules[f'npcode.{home}'], name), name\n"
        "    assert name in sys.modules[f'npcode.{home}'].__all__, name\n"
        "assert set(npcode.__all__) <= set(dir(npcode))\n"
    )


def test_every_submodule_export_resolves():
    # a stale name in a submodule's __all__ breaks only `from npcode.<module> import *`
    _check(
        "import importlib\n"
        f"for m in {SUBMODULES + ('cli',)!r}:\n"
        "    module = importlib.import_module(f'npcode.{m}')\n"
        "    assert len(module.__all__) == len(set(module.__all__)), m\n"
        "    missing = [name for name in module.__all__ if not hasattr(module, name)]\n"
        "    assert not missing, (m, missing)\n"
    )


def test_star_import_and_unknown_attribute():
    _check(
        "from npcode import *\n"
        "import npcode\n"
        "assert build_code is npcode.codec.build_code and Graph is npcode.graph.Graph\n"
        "try:\n"
        "    npcode.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    )


def _imports_numpy(res) -> bool:
    """Whether a `-X importtime` run imported numpy, read from its stderr."""
    names = (line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()
             if line.startswith("import time:"))
    return any(name.split(".")[0] == "numpy" for name in names)


@pytest.mark.parametrize(
    "argv, status",
    [
        (("generate", "--harary", "10", "3"), 0),
        (("connectivity", "--graph", "-"), 0),
        (("bounds", "--n", "6", "--k", "2"), 0),
        (("feasibility", "--graph", str(FIG2)), 1),
        (("connectivity", "--graph", "/nonexistent"), 2),
    ],
    ids=["generate", "connectivity", "bounds", "feasibility-infeasible", "connectivity-no-file"],
)
def test_graph_verbs_never_import_numpy(argv, status):
    stdin = _python("-m", "npcode", "generate", "--harary", "10", "3").stdout
    res = _python("-X", "importtime", "-m", "npcode", *argv, stdin=stdin)
    assert res.returncode == status
    assert not _imports_numpy(res)
    # the probe sees an import that does happen
    assert any(line.endswith("| npcode.cli") for line in res.stderr.splitlines())


def test_codec_verbs_import_numpy():
    res = _python("-X", "importtime", "-m", "npcode", "encode", "--k", "4", "--t", "1",
                  "--data", "010203")
    assert res.returncode == 0
    assert _imports_numpy(res)
