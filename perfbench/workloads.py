"""The four closed-loop workloads: seeded set-up, one op, and its check.

Each workload has ``setup(prog, rng, tmp)``, which builds the inputs
from the seeded ``rng`` and returns them as a list, ``op(prog, inputs,
i)``, the timed call into the program for op ``i``, and ``check(inputs,
i, result)``, which applies the workload's oracle outside the timed
region.  Op ``i`` uses ``inputs[i % len(inputs)]``, and every list
covers each Chern number or orientation once in a seeded order, so runs
with different seeds do the same mix of work.

``prog`` is the namespace ``load_program`` returns; the workloads reach
the library only through it, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import importlib
import io
import json
import os
import sys
from types import SimpleNamespace

from perfbench import oracles
from perfbench.torus import grid_torus

LAYERS = ("cli", "_json", "simplicial", "homology", "bundle", "spindle", "surface", "cyclic")
CHERN_RANGE = range(-6, 7)
SEED_SPACE = 2**31

_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
if _malloc_trim is not None:
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int


def fresh_heap() -> None:
    """Collect garbage and give freed heap pages back to the system, as
    the end of a CLI process would.  Without this, memory that one command
    freed but the allocator kept can add to the next command's peak RSS,
    by an amount that depends on incidental heap layout."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def load_program() -> SimpleNamespace:
    """Import ``scbundles`` afresh, dropping any earlier import, and
    return its layer modules by name."""
    for name in [m for m in sys.modules if m == "scbundles" or m.startswith("scbundles.")]:
        del sys.modules[name]
    importlib.import_module("scbundles")
    return SimpleNamespace(
        **{layer: importlib.import_module(f"scbundles.{layer}") for layer in LAYERS}
    )


def call_cli(prog, argv) -> tuple[int, str]:
    """Run one CLI command in-process; returns its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = prog.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def parse_report(out: str) -> dict:
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return {"unparsed": out[:200]}
    return report if isinstance(report, dict) else {"unparsed": out[:200]}


def write_torus(tmp, n: int) -> str:
    """Write the n x n grid torus as a complex file; returns its path."""
    doc, _ = grid_torus(n)
    path = os.path.join(tmp, f"torus{n}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def seeded_cherns(rng) -> list[int]:
    cs = list(CHERN_RANGE)
    rng.shuffle(cs)
    return cs


class VerifyTorus:
    """`verify --bundle F --json` on Chern-c bundles over the 6 x 6 torus."""

    n = 6

    def setup(self, prog, rng, tmp):
        base = write_torus(tmp, self.n)
        inputs = []
        for k, c in enumerate(seeded_cherns(rng)):
            path = os.path.join(tmp, f"verify{k}.json")
            argv = ["gen-surface", "--base", base, "--chern", c,
                    "--place-seed", rng.randrange(SEED_SPACE), "--out", path]
            rc, _ = call_cli(prog, argv)
            if rc != 0:
                raise RuntimeError(f"gen-surface exited {rc} while making inputs")
            inputs.append((path, c))
        return inputs

    def op(self, prog, inputs, i):
        path, _ = inputs[i % len(inputs)]
        return call_cli(prog, ["verify", "--bundle", path, "--json"])

    def check(self, inputs, i, result):
        _, c = inputs[i % len(inputs)]
        rc, out = result
        return oracles.check_verify(rc, parse_report(out), c, self.n)


class AssembleLarge:
    """`gen-surface` then `assemble` over the 32 x 32 torus: no homology."""

    n = 32

    def setup(self, prog, rng, tmp):
        self.base = write_torus(tmp, self.n)
        self.bundle = os.path.join(tmp, "large-bundle.json")
        self.total = os.path.join(tmp, "large-total.json")
        return [(c, rng.randrange(SEED_SPACE)) for c in seeded_cherns(rng)]

    def op(self, prog, inputs, i):
        c, place_seed = inputs[i % len(inputs)]
        gen = call_cli(prog, ["gen-surface", "--base", self.base, "--chern", c,
                              "--place-seed", place_seed, "--out", self.bundle, "--json"])
        if gen[0] != 0:
            return gen, (None, "")
        # Two commands, so two processes in real use; see fresh_heap.
        fresh_heap()
        return gen, call_cli(prog, ["assemble", "--bundle", self.bundle,
                                    "--out", self.total, "--json"])

    def check(self, inputs, i, result):
        c, _ = inputs[i % len(inputs)]
        (gen_rc, gen_out), (asm_rc, asm_out) = result
        total_doc = None
        if os.path.exists(self.total):
            with open(self.total) as fh:
                total_doc = json.load(fh)
        # The next op must not find this op's files.
        for path in (self.bundle, self.total):
            if os.path.exists(path):
                os.remove(path)
        return oracles.check_assemble(
            (gen_rc, parse_report(gen_out)), (asm_rc, parse_report(asm_out)),
            total_doc, c, self.n,
        )


class SpindleReduce:
    """200 random `subdivide` moves, `assemble`, then `minimize` with the
    default and with a random selection, through the library API."""

    n = 6
    moves = 200

    def setup(self, prog, rng, tmp):
        doc, self.signs = grid_torus(self.n)
        base = prog.simplicial.SemiSimplicialSet.from_json_dict(doc)
        fm = prog.homology.fundamental_class(base)
        vertices = self.n * self.n
        inputs = []
        for c in seeded_cherns(rng):
            bundle = prog.surface.build_surface_bundle(
                base, fm, c, seed=rng.randrange(SEED_SPACE)
            )
            moves = [(rng.randrange(vertices), rng.randrange(SEED_SPACE))
                     for _ in range(self.moves)]
            keep = [rng.randrange(SEED_SPACE) for _ in range(vertices)]
            inputs.append((bundle, moves, keep, c))
        return inputs

    def op(self, prog, inputs, i):
        bundle, moves, keep, _ = inputs[i % len(inputs)]
        system = bundle.as_local_system()
        for v, pick in moves:
            ids = system.stalk(0, v).ids
            # No per-move validation, so the op stays on the spindle layer.
            system = prog.spindle.subdivide(system, v, ids[pick % len(ids)], check=False)
        total = prog.bundle.assemble(system).total
        default_min = prog.spindle.minimize(system)
        selection = {}
        for v, pick in enumerate(keep):
            ids = system.stalk(0, v).ids
            selection[v] = ids[pick % len(ids)]
        random_min = prog.spindle.minimize(system, selection)
        return total.counts, (default_min, random_min)

    def check(self, inputs, i, result):
        c = inputs[i % len(inputs)][3]
        counts, minima = result
        words = [[m.stalks[(2, t)].word for t in range(len(self.signs))] for m in minima]
        return oracles.check_spindle(counts, words, self.signs, c)


class KanCensus:
    """`kan-check 4 --json`, then `hexagram --json` at a seeded orientation."""

    def setup(self, prog, rng, tmp):
        inputs = [(t, s) for t in range(4) for s in (1, -1)]
        rng.shuffle(inputs)
        return inputs

    def op(self, prog, inputs, i):
        seed, sign = inputs[i % len(inputs)]
        kan = call_cli(prog, ["kan-check", 4, "--json"])
        hexagram = call_cli(prog, ["hexagram", "--json", "--seed-triangle", seed,
                                   f"--seed-sign={sign}"])
        return kan, hexagram

    def check(self, inputs, i, result):
        (kan_rc, kan_out), (hex_rc, hex_out) = result
        return oracles.check_kan(
            (kan_rc, parse_report(kan_out)), (hex_rc, parse_report(hex_out)),
            inputs[i % len(inputs)],
        )


WORKLOADS = {
    "verify-torus": VerifyTorus,
    "assemble-large": AssembleLarge,
    "spindle-reduce": SpindleReduce,
    "kan-census": KanCensus,
}
