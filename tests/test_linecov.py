"""tools/linecov.py: a traced relgen subprocess, and the statements it never ran."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_a_one_line_command_lists_the_raise_it_never_reached(tmp_path):
    proc = subprocess.run(
        [sys.executable, "tools/linecov.py", "--", sys.executable, "-m", "relgen.cli",
         "gen", "dg15", "--n-per-class", "2", "--out", str(tmp_path / "d")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rng = [line for line in lines if line.startswith("src/relgen/rng.py:")]
    # substream ran on every draw, but never with a negative seed; its docstring is no statement.
    # gen draws no sweep, so none of substreams and its batch key derivation ran
    assert rng == [
        'src/relgen/rng.py:43: raise ConfigError(f"seed must be non-negative, got {seed}")',
        'src/relgen/rng.py:60: out = [start]',
        'src/relgen/rng.py:61: for _ in range(n):',
        'src/relgen/rng.py:62: out.append(out[-1] * mult & _MASK32)',
        'src/relgen/rng.py:63: return out',
        'src/relgen/rng.py:68: xor, mult = consts',
        'src/relgen/rng.py:69: value = value ^ xor',
        'src/relgen/rng.py:70: value *= mult',
        'src/relgen/rng.py:71: value ^= value >> 16',
        'src/relgen/rng.py:72: return value',
        'src/relgen/rng.py:76: result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)',
        'src/relgen/rng.py:77: result ^= result >> 16',
        'src/relgen/rng.py:78: return result',
        'src/relgen/rng.py:83: lo = np.array([s & 0xFFFF_FFFF_FFFF_FFFF for s in seeds], dtype=np.uint64)',
        'src/relgen/rng.py:84: hi = np.array([s >> 64 for s in seeds], dtype=np.uint64)',
        'src/relgen/rng.py:85: return np.stack([lo & _MASK32, lo >> 32, hi & _MASK32, hi >> 32]).astype(np.uint32)',
        'src/relgen/rng.py:95: hashes = len(spawn_words) * _POOL',
        'src/relgen/rng.py:97: a = np.array(_chain(_INIT_A, _MULT_A, _POOL * _POOL + hashes), dtype=np.uint32)',
        'src/relgen/rng.py:98: pairs = np.stack([a[:-1], a[1:]])[:, :, None]  # hash k xors a[k], multiplies by a[k + 1]',
        'src/relgen/rng.py:99: pool = _hash(_seed_words(seeds), pairs[:, :_POOL])',
        'src/relgen/rng.py:101: k = _POOL',
        'src/relgen/rng.py:102: for src in range(_POOL):',
        'src/relgen/rng.py:103: dst = [d for d in range(_POOL) if d != src]',
        'src/relgen/rng.py:104: pool[dst] = _mix(pool[dst], _hash(pool[src], pairs[:, k:k + len(dst)]))',
        'src/relgen/rng.py:105: k += len(dst)',
        'src/relgen/rng.py:107: spawn = np.repeat(np.array(spawn_words, dtype=np.uint32), _POOL)[:, None]',
        'src/relgen/rng.py:108: spawn_hashes = _hash(spawn, pairs[:, k:k + hashes])',
        'src/relgen/rng.py:109: for i in range(0, hashes, _POOL):',
        'src/relgen/rng.py:110: pool = _mix(pool, spawn_hashes[i:i + _POOL])',
        'src/relgen/rng.py:111: b = np.array(_chain(_INIT_B, _MULT_B, _POOL), dtype=np.uint32)',
        'src/relgen/rng.py:112: words = _hash(pool, np.stack([b[:-1], b[1:]])[:, :, None]).astype(np.uint64)',
        'src/relgen/rng.py:113: return (words[0::2] | words[1::2] << np.uint64(32)).T',
        'src/relgen/rng.py:128: spawn_words = []',
        'src/relgen/rng.py:129: for label in labels:',
        'src/relgen/rng.py:130: key = _label_key(label)',
        'src/relgen/rng.py:131: spawn_words += [key & _MASK32, key >> 32] if key >> 32 else [key]',
        'src/relgen/rng.py:132: bit_gen = np.random.Philox(0)',
        'src/relgen/rng.py:133: gen = np.random.Generator(bit_gen)',
        "src/relgen/rng.py:134: state = bit_gen.state  # a fresh Philox's: counter 0, empty buffer, has_uint32 0",
        'src/relgen/rng.py:135: seeds = iter(seeds)',
        'src/relgen/rng.py:136: while block := [int(s) for s in islice(seeds, KEY_BLOCK)]:',
        'src/relgen/rng.py:137: if (low := min(block)) < 0:',
        'src/relgen/rng.py:138: raise ConfigError(f"seed must be non-negative, got {low}")',
        'src/relgen/rng.py:139: keys = iter(_philox_keys([s for s in block if s >> 128 == 0], spawn_words))',
        'src/relgen/rng.py:140: for seed in block:',
        'src/relgen/rng.py:141: if seed >> 128:',
        'src/relgen/rng.py:142: yield substream(seed, *labels)',
        'src/relgen/rng.py:144: state["state"]["key"] = next(keys)',
        'src/relgen/rng.py:145: bit_gen.state = state',
        'src/relgen/rng.py:146: yield gen',
    ]
    assert lines[-1].endswith("statements never executed")


@pytest.mark.parametrize("command", [
    ["env", "PYTHONPATH=src", sys.executable, "-m", "relgen.cli", "--version"],
    [sys.executable, "-c", "pass"],
], ids=["own-pythonpath", "no-relgen"])
def test_a_command_that_runs_no_traced_relgen_line_exits_2(command):
    """A command that drops the tracer from PYTHONPATH, or never imports relgen, would
    list every statement as never executed; the tool says so and exits 2 instead."""
    proc = subprocess.run([sys.executable, "tools/linecov.py", "--", *command],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "never executed" not in proc.stdout
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("linecov: no traced process ran a line of src/relgen")
