"""Code bytes pinned from the FieldElement-based codec.

`tests/data/code_pins.json` records, for several fields and (k, t), the
parity matrix that `build_code` returned before the codec moved to
integer arrays, and the sha256 of the stdout of `npcode encode`,
`recover` and `simulate` on seeded inputs shaped like the `cli`
benchmark workload's.  Any change to the systematic code, the symbol
formatting or the simulate report shows up here.
"""

import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from npcode import cli
from npcode.codec import build_code
from npcode.galois import FieldContext

PINS = json.loads((Path(__file__).parent / "data" / "code_pins.json").read_text())

CODE_CASES = [
    (1, 0x3, 2, 1),
    (2, 0x7, 4, 1),
    (4, 0x13, 5, 2),
    (4, 0x13, 16, 4),
    (8, 0x11B, 2, 1),
    (8, 0x11B, 4, 2),
    (8, 0x11B, 6, 2),
    (8, 0x11B, 10, 3),
    (8, 0x11B, 12, 4),
    (8, 0x11B, 16, 4),
    (8, 0x11B, 16, 15),
    (8, 0x11D, 9, 5),
    (8, 0x11D, 12, 4),
    (12, 0x1053, 5, 2),
    (16, 0x1100B, 6, 2),
    (16, 0x1100B, 12, 4),
]

CODEC = (6, 2)
CODEC_BLOCKS = 1024
PIPELINES = ((10, 3, 1), (12, 4, 2))
SIM_BLOCKS = 1024
GF16_POLY = 0x1100B


def _hex(values, m):
    width = 2 * ((m + 7) // 8)
    return "".join(f"{v:0{width}x}" for v in values)


def _run(monkeypatch, capsys, argv, stdin="", poly=None):
    if poly is None:
        monkeypatch.delenv("NPC_FIELD_POLY", raising=False)
    else:
        monkeypatch.setenv("NPC_FIELD_POLY", f"0x{poly:X}")
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _codec_outputs(monkeypatch, capsys, seed, m, poly):
    """encode, then recover with a seeded erasure set, as (exit, stdout) pairs."""
    k, t = CODEC
    rng = random.Random(f"codec-{seed}-{m}")
    order = 1 << m
    data = [rng.randrange(order) for _ in range(CODEC_BLOCKS * (k - t))]
    enc = _run(monkeypatch, capsys,
               ["encode", "--k", str(k), "--t", str(t), "--data", _hex(data, m)], poly=poly)
    width = 2 * ((m + 7) // 8)
    words = json.loads(enc[1])["symbols"]
    values = [int(words[i : i + width], 16) for i in range(0, len(words), width)]
    erased = sorted(rng.sample(range(k), rng.randint(1, t)))
    received = [0 if i % k in erased else v for i, v in enumerate(values)]
    positions = ",".join(str(p + 1) for p in erased)
    rec = _run(monkeypatch, capsys,
               ["recover", "--k", str(k), "--t", str(t), "--symbols", _hex(received, m),
                "--erased", positions], poly=poly)
    return {"encode": enc, "recover": rec}


def _pipeline_outputs(monkeypatch, capsys, seed, variant):
    """generate | feasibility | simulate on a Harary graph, as (exit, stdout) pairs."""
    n, k, t = PIPELINES[variant]
    rng = random.Random(f"pipeline-{seed}-{variant}")
    receivers = ",".join(f"v{i}" for i in sorted(rng.sample(range(1, n), k)))
    failed = [f"L{i}" for i in sorted(rng.sample(range(1, k + 1), rng.randint(1, t)))]
    _, graph = _run(monkeypatch, capsys, ["generate", "--harary", str(n), str(k)])
    _, report = _run(monkeypatch, capsys,
                     ["feasibility", "--sources", "v0", "--receivers", receivers, "--verify"],
                     stdin=graph)
    sim = _run(monkeypatch, capsys,
               ["simulate", "--k", str(k), "--t", str(t), "--failures", ",".join(failed),
                "--blocks", str(SIM_BLOCKS), "--seed", str(rng.randrange(1 << 16))],
               stdin=report)
    return {"simulate": sim}


def _digest(result):
    code, out = result
    return [code, hashlib.sha256(out.encode()).hexdigest()]


def cli_outputs(monkeypatch, capsys, name):
    """Digests of every stdout of one named CLI case."""
    kind, seed, arg = name.split("-")
    if kind == "codec":
        m = int(arg)
        outs = _codec_outputs(monkeypatch, capsys, int(seed), m, None if m == 8 else GF16_POLY)
    else:
        outs = _pipeline_outputs(monkeypatch, capsys, int(seed), int(arg))
    return {verb: _digest(res) for verb, res in outs.items()}


CLI_CASES = [f"codec-{s}-{m}" for s in (1, 2) for m in (8, 16)] + [
    f"pipeline-{s}-{v}" for s in (1, 2, 3) for v in (0, 1)
]


@pytest.mark.parametrize("m, poly, k, t", CODE_CASES)
def test_parity_matrix_pinned(m, poly, k, t):
    code = build_code(k, t, FieldContext(m, poly))
    got = [[e.value for e in row] for row in code.parity]
    assert got == PINS["parity"][f"{m}-{poly:X}-{k}-{t}"]


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_stdout_pinned(monkeypatch, capsys, name):
    assert cli_outputs(monkeypatch, capsys, name) == PINS["cli"][name]
