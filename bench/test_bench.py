"""Tests of the benchmark itself:  python3 -m pytest -q bench/test_bench.py"""

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import pragrate.cli  # noqa: E402,F401  (every traced module is loaded before the snapshot)
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, _namespaces  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_op_list(workload):
    first = workloads.op_list_hash(workload, 7)
    assert workloads.op_list_hash(workload, 7) == first
    assert workloads.op_list_hash(workload, 8) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_pass_is_whole_blocks_of_a_fixed_count(workload):
    # a seed then fixes attempted and failed; tilted_sweep fails exactly 1 op in 10
    assert run.timed_blocks(workload, 22) >= 10
    k = workloads.block_size(workload)
    timed = workloads.ops(workload, 4, "timed", 3 * k)
    for i in range(3):
        block = timed[i * k:(i + 1) * k]
        assert sorted(op.cell for op in block) == sorted(op.cell for op in timed[:k])
        assert sum(op.deep for op in block) == (workload == "tilted_sweep")


def _bindings():
    return {(space.__name__, attr): value
            for space in _namespaces() for attr, value in vars(space).items()}


def test_tracer_restores_every_wrapped_attribute():
    before = _bindings()
    with Tracer():
        during = _bindings()
        for mod, fn, _ in LAYERS:
            assert during[(f"pragrate.{mod}", fn)] is not before[(f"pragrate.{mod}", fn)]
        # names imported into other modules are wrapped too
        assert during[("pragrate.coding", "moment_envelope")] is during[("pragrate.exponents", "moment_envelope")]
        assert during[("pragrate.approximations", "solve_alpha_star")] is not before[("pragrate.approximations", "solve_alpha_star")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_equal_untraced(workload):
    ops = workloads.ops(workload, 3, "trace", workloads.block_size(workload))
    _, _, plain, traced, tracer = run.paired_passes(ops)
    assert [(ok, repr(out)) for _, ok, out, _ in plain] == [(ok, repr(out)) for _, ok, out, _ in traced]
    assert tracer.stats["cli.main"][0] + sum(op.kind == "lib" for op in ops) >= len(ops)
    tally = run.Tally()
    tally.add(plain)
    assert tally.incorrect == []


def test_deep_regime_op_is_a_known_failure():
    op = next(op for op in workloads.ops("tilted_sweep", 1, "timed", 10) if op.deep)
    ok, _, error = run.run_op(op)
    tally = run.Tally()
    tally.add([(op, ok, None, error)])
    assert tally.failed == (0 if ok else 1)
    assert tally.incorrect == []


def _first(workload, cell):
    return next(op for op in workloads.ops(workload, 5, "timed", 4 * workloads.block_size(workload))
                if op.cell == cell)


def test_checker_catches_wrong_outputs():
    golden = _first("exact_sweep", "golden")
    ok, out, _ = run.run_op(golden)
    assert ok and checks.check(golden, out) is None
    assert checks.check(golden, out.replace("0.94,", "0.96,", 1)) is not None

    census = _first("census_sweep", "bits_m3")
    ok, out, _ = run.run_op(census)
    assert ok and checks.check(census, out) is None
    header, row, *rest = out.splitlines()
    n, h, log2c, theta = row.split(",")
    bad = "\n".join([header, ",".join([n, h, repr(float(log2c) + 1e-9), theta]), *rest])
    assert checks.check(census, bad) is not None

    codec = _first("codec_roundtrip", "known_m3_n150")
    ok, (encoded, decoded), _ = run.run_op(codec)
    assert ok and checks.check(codec, (encoded, decoded)) is None
    swapped = decoded.replace("a", "b", 1) if "a" in decoded else decoded.replace("b", "a", 1)
    assert checks.check(codec, (encoded, swapped)) is not None

    constants = _first("tilted_sweep", "constants_m3")
    ok, out, _ = run.run_op(constants)
    assert ok and checks.check(constants, out) is None
    other = dataclasses.replace(constants, info=dict(constants.info, delta=constants.info["delta"] * 1.01))
    assert checks.check(other, out) is not None


def test_census_oracle_matches_brute_force():
    import itertools
    import math

    for m, n, h in ((2, 9, 0.7), (3, 6, 1.2), (4, 5, 1.5)):
        brute = 0
        for s in itertools.product(range(m), repeat=n):
            counts = [s.count(a) for a in range(m)]
            ent = -sum(c / n * math.log2(c / n) for c in counts if c)
            brute += ent <= h + checks.ENTROPY_TOL
        assert checks.census_count(n, m, h) == brute
