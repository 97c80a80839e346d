import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

import pragrate
from pragrate import approximations, cli, coding, exact_limits
from pragrate.cli import main
from pragrate.distributions import SourcePmf
from pragrate.errors import InvariantViolation
from pragrate.exponents import solve_alpha_star


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv, python_flags=(), stdin=None):
    """Run ``python -m pragrate`` in a child process, with ``stdin`` (text)
    as its input, so an uncaught exception shows up as a traceback on
    stderr and exit code 1."""
    proc = subprocess.run(
        [sys.executable, *python_flags, "-m", "pragrate", *argv],
        input=stdin, capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _child_env():
    """The environment of a child ``python -m pragrate``: this one, with
    the package's source directory first on PYTHONPATH."""
    src = str(pathlib.Path(pragrate.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


GOLDEN_EPS = "0.00003,0.0001,0.00032,0.00093,0.00251,0.00626,0.01444"


class TestLadderCommand:
    def test_markdown_reproduces_exact_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "ladder", "--source", "0.2,0.8", "--n", "50",
            "--eps", GOLDEN_EPS, "--format", "markdown",
        )
        assert code == 0
        exact_cells = [line.split("|")[4].strip() for line in out.splitlines()[2:]]
        assert exact_cells == ["0.940", "0.940", "0.920", "0.900", "0.900", "0.880", "0.840"]

    def test_deterministic_output(self, capsys):
        args = ("ladder", "--source", "0.2,0.8", "--n", "50", "--eps", "0.01444")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "ladder", "--source", "0.2,0.8", "--n", "50",
            "--eps", "0.01444", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["exact"] == 0.84
        assert 0.868 < rows[0]["pragmatic"] < 0.871

    def test_uniform_source_marks_cells_but_succeeds(self, capsys):
        code, out, err = run_cli(
            capsys, "ladder", "--source", "0.5,0.5", "--n", "50", "--eps", "0.1"
        )
        assert code == 0
        row = out.splitlines()[1]
        cells = row.split(",")
        assert cells[6] == "-" and cells[7] == "-"  # blahut, pragmatic
        assert "unavailable" in err

    def test_delta_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "ladder", "--source", "0.2,0.8", "--n", "50",
            "--delta", "0.122276", "--no-exact",
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[3] == "-"  # exact skipped

    def test_requires_exactly_one_of_eps_delta(self, capsys):
        code, _, err = run_cli(capsys, "ladder", "--source", "0.2,0.8", "--n", "50")
        assert code == 2
        assert "exactly one" in err

    def test_prefix_mode_shifts_exact(self, capsys):
        _, out1, _ = run_cli(
            capsys, "ladder", "--source", "0.2,0.8", "--n", "50", "--eps", "0.01444",
            "--format", "json",
        )
        _, out2, _ = run_cli(
            capsys, "ladder", "--source", "0.2,0.8", "--n", "50", "--eps", "0.01444",
            "--format", "json", "--mode", "prefix",
        )
        r1, r2 = json.loads(out1)[0], json.loads(out2)[0]
        assert r2["exact"] == pytest.approx(r1["exact"] + 1 / 50, abs=1e-12)
        assert r2["blahut"] == r1["blahut"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestLadderBytes:
    """Every byte the ladder emits, pinned as sha256 of stdout plus stderr:
    the golden table, a sweep whose out-of-range delta writes ``note:`` lines,
    the deep regime, where epsilon prints 0.0 and strassen prints '-', and
    the benchmark's 40-blocklength sweep (its CSV digest is also checked in
    CI under ``python -S``).  The digests were recorded with CPython on
    x86-64 Linux."""

    GOLDEN = ("ladder", "--source", "0.2,0.8", "--n", "50", "--eps", GOLDEN_EPS)
    SWEEP = ("ladder", "--source", "0.1,0.2,0.4,0.3", "--n", "50:300:50",
             "--delta", "0.05,0.2", "--no-exact")  # 0.2 > D(U||P) = 0.1757
    DEEP = ("ladder", "--source", "0.2,0.8", "--n", "20000", "--delta", "0.07", "--no-exact")
    # the tilted_sweep benchmark's ladder shape: 40 blocklengths, one delta
    BENCH = ("ladder", "--source", "0.1,0.2,0.3,0.4", "--n", "50:2000:50", "--delta", "0.05", "--no-exact")

    @pytest.mark.parametrize("argv, digest", [
        (GOLDEN + ("--format", "csv"),
         "d87ee7e48e3b4c1973d843ac660891b65e3a01726074ab8e50524eb9201a146f"),
        (GOLDEN + ("--format", "markdown"),
         "fbc8cd842aba37f25e94aa88289eb6cc17ac47d0470ab2c036868412e0ffe035"),
        (GOLDEN + ("--format", "json"),
         "6f15a334237d94e6c2ab2af459c8945dfa01ae094bd7f341466511fd74aa078b"),
        (GOLDEN + ("--mode", "prefix", "--format", "csv"),
         "dbc5f3a01f32c96925722ae9f2ea25ef59bdf5e0a428755bf59987f5aa05c5d3"),
        (GOLDEN + ("--mode", "prefix", "--format", "markdown"),
         "cec1b1d5f4e37ebf65b9a1c9b1053cf78282d91bc7cffab87592a8f94c0677b6"),
        (GOLDEN + ("--mode", "prefix", "--format", "json"),
         "062949e74a96e1a16adccb77e419b5e7a36478a6ebe48a6df86b2c6435b8bd4f"),
        (SWEEP + ("--format", "csv"),
         "00669eb067c582ceae27ee895916ee28772efe6bce3b076d9b48ae1825cd1489"),
        (SWEEP + ("--format", "markdown"),
         "faeed1de00f428bf2b33ca89cc6b92ba95f96b7eb74a0eb0a370b636119d087e"),
        (SWEEP + ("--format", "json"),
         "98f8cee94fcb060d45e864781c29da29fff1e559a831b41752ef7656a0c55ace"),
        (DEEP + ("--format", "csv"),
         "84267e1f26d042894ed8cd7236ea8970838a460d6cba6008a89ed8e2feb5ac97"),
        (DEEP + ("--format", "markdown"),
         "cf3b7c674f9500cca6b33eab3dd8170d1f3143e57d722c7db621cf033b9ff919"),
        (DEEP + ("--format", "json"),
         "77a400d7b835b5002dab29ae68b232c70b5ae5d57c2efb3e09059d2441667457"),
        (BENCH + ("--format", "csv"),
         "4df968a4bf826cf7cbc69e2898eedf7ec30b7c0d6f3cc5ac96a4decdbadd7595"),
        (BENCH + ("--format", "markdown"),
         "f7cc8e737e7d39c3c847615ca2d4de7dd88fccfee497f9c9b777b2450d701462"),
        (BENCH + ("--format", "json"),
         "dc5fcd778f849bea201c517aa19b7e3bc67a1de518ea9e16608fe96279494694"),
    ], ids=[f"{table}-{fmt}" for table in ("golden", "golden_prefix", "sweep_note", "deep", "bench_sweep")
            for fmt in ("csv", "markdown", "json")])
    def test_cli_tables(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert _sha256(out + err) == digest

    @pytest.mark.parametrize("argv", [SWEEP, DEEP], ids=["sweep_note", "deep"])
    def test_every_format_carries_the_csv_columns_and_values(self, capsys, argv):
        # one column tuple for every format: the JSON keys but ``note`` are the
        # CSV and Markdown headers, each JSON value is its CSV cell (null is
        # '-'), and a Markdown cell is '-' just where the JSON value is null
        tables = {}
        for fmt in ("csv", "markdown", "json"):
            code, tables[fmt], _ = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0
        header, *csv_rows = (line.split(",") for line in tables["csv"].splitlines())
        md_header, _, *md_rows = ([c.strip() for c in line.strip("|").split("|")]
                                  for line in tables["markdown"].splitlines())
        objects = json.loads(tables["json"])
        assert len(objects) == len(csv_rows) == len(md_rows) > 0
        for obj, cells, md_cells in zip(objects, csv_rows, md_rows):
            values = [obj[key] for key in obj if key != "note"]
            assert [key for key in obj if key != "note"] == header == md_header
            assert cells == ["-" if v is None else repr(v) for v in values]
            assert [c == "-" for c in md_cells] == [v is None for v in values]


class _Discard(io.TextIOBase):
    """A text sink that keeps nothing of what is written to it."""

    def write(self, text):
        return len(text)


class _Enough(Exception):
    pass


class _FirstLines(io.TextIOBase):
    """A text sink that keeps the lines written to it and stops the writer, by
    raising ``_Enough``, once it holds more than ``limit``."""

    def __init__(self, limit):
        self.limit, self.lines = limit, []

    def write(self, text):
        self.lines += text.splitlines()
        if len(self.lines) > self.limit:
            raise _Enough
        return len(text)


class TestLadderStream:
    """A ladder's rows go to stdout as the sweep computes them, one at a
    time, so the table's memory does not grow with its rows."""

    ARGV = ("ladder", "--source", "0.1,0.2,0.3,0.4", "--delta", "0.005", "--no-exact")

    @staticmethod
    def traced_peak(argv):
        """(tracemalloc peak over what was held before, exit code, stderr) of
        ``main(argv)`` writing its stdout into a sink that keeps nothing."""
        err = io.StringIO()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(err):
                code = main(list(argv))
            return tracemalloc.get_traced_memory()[1] - held, code, err.getvalue()
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", ["csv", "markdown", "json"])
    def test_peak_does_not_grow_with_rows(self, fmt):
        # 2,000 and 20,000 rows, none with a note; at one list of rows and
        # one joined table the peaks differed by megabytes
        small = (*self.ARGV, "--format", fmt, "--n", "10:2009")
        large = (*self.ARGV, "--format", fmt, "--n", "10:20009")
        self.traced_peak(small)  # warm every lazy import and first-use table
        (few, *rest_few), (many, *rest_many) = self.traced_peak(small), self.traced_peak(large)
        assert rest_few == rest_many == [0, ""]
        assert abs(many - few) < 4096, (few, many)

    def test_a_huge_range_starts_writing_at_once(self):
        # 10**12 blocklengths: the range is never listed, and rows come as computed
        sink = _FirstLines(3)
        argv = ("ladder", "--source", "0.2,0.8", "--n", "1:1000000000000", "--delta", "0.05", "--no-exact")
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(_Enough):
                main(list(argv))
        assert sink.lines[0] == ",".join(cli._LADDER_COLUMNS)
        assert [line.split(",")[0] for line in sink.lines[1:]] == ["1", "2", "3"]
        assert cli._parse_n_range("1:1000000000000") == range(1, 10**12 + 1)

    def test_a_closed_pipe_exits_quietly(self):
        # a reader that stops early, as ``| head -2`` does: exit 1, no traceback
        argv = ("ladder", "--source", "0.2,0.8", "--n", "1:1000000000000", "--delta", "0.05", "--no-exact")
        proc = subprocess.Popen([sys.executable, "-m", "pragrate", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=_child_env())
        try:
            lines = [proc.stdout.readline(), proc.stdout.readline()]
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.stderr.close()
        assert lines[0].startswith(b"n,epsilon,delta,") and lines[1].startswith(b"1,")
        assert code == 1
        assert err == b""

    def test_internal_error_mid_table_keeps_the_rows_written(self, capsys, monkeypatch):
        # exit 4 on the second blocklength's row: the first row is already out
        solve, solved = approximations._solve, []

        def solve_once(p, delta):
            if solved:
                raise InvariantViolation("second solve")
            solved.append(delta)
            return solve(p, delta)

        monkeypatch.setattr(approximations, "_solve", solve_once)
        code, out, err = run_cli(capsys, "ladder", "--source", "0.2,0.8", "--n", "50:51", "--eps", "0.01")
        assert code == 4
        assert err == "internal invariant violation: second solve\n"
        header, row = out.splitlines()
        assert header == ",".join(cli._LADDER_COLUMNS) and row.startswith("50,0.01,")


class TestLimitsCommand:
    @pytest.mark.parametrize("argv, digest", [
        (("--source", "0.6,0.3,0.1", "--n", "10:30:10", "--eps", "0.00003,0.01444,0.2"),
         "b173870ee9036d0e8dd864bfbcd6a5a8effe2a277d5955e786c108bef2b2f0ec"),
        (("--source", "0.6,0.3,0.1", "--n", "10:30:10", "--delta", "0.05,0.3"),
         "eba8256f15d813d10d22f4c9387d0d05a669c1351431e224f9ec21c7f0f4661d"),
        # n*delta = 1400; this digest is also checked in CI under ``python -S``
        (("--source", "0.2,0.8", "--n", "20000", "--delta", "0.07"),
         "116ee44eecf0a544ff716092b8184c326acf3415de5c274a75c96d08794902f2"),
    ], ids=["eps_sweep", "delta_sweep", "deep"])
    def test_every_byte_is_pinned(self, capsys, argv, digest):
        # sha256 of stdout plus stderr, recorded with CPython on x86-64 Linux
        code, out, err = run_cli(capsys, "limits", *argv)
        assert code == 0
        assert _sha256(out + err) == digest

    def test_csv_golden_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "limits", "--source", "0.2,0.8", "--n", "50", "--eps", "0.00003"
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "n,epsilon,L_star,rate"
        fields = row.split(",")
        assert fields[0] == "50" and fields[2] == "48"
        assert float(fields[3]) == pytest.approx(0.94, abs=1e-12)

    def test_resource_cap_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "limits", "--source", "0.2,0.8", "--n", "50",
            "--eps", "0.01", "--cap-types", "10",
        )
        assert code == 3
        assert "exceeds" in err

    def test_delta_rows_read_log2_epsilon(self, capsys):
        code, out, _ = run_cli(
            capsys, "limits", "--source", "0.6,0.3,0.1", "--n", "10:30:10", "--delta", "0.05,0.3"
        )
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "n,delta,L_star,rate"
        p = SourcePmf.parse("0.6,0.3,0.1")
        want = []
        for n in (10, 20, 30):
            dist = exact_limits.length_distribution(p, n)
            for delta in (0.05, 0.3):
                rate = dist.optimal_rate(-n * delta)
                want.append(f"{n},{delta!r},{round(rate * n) + 1},{rate!r}")
        assert rows == want

    def test_deep_delta(self, capsys):
        # n*delta = 1400: epsilon = 2**-1400 underflows a double
        code, out, err = run_cli(
            capsys, "limits", "--source", "0.2,0.8", "--n", "20000", "--delta", "0.07"
        )
        assert code == 0 and err == ""
        n, delta, l_star, rate = out.splitlines()[1].split(",")
        assert (n, delta) == ("20000", "0.07")
        assert int(l_star) == round(float(rate) * 20000) + 1
        assert 0.7219 < float(rate) < 1.0  # between H(P) and log2 m

    @pytest.mark.parametrize("flags", [(), ("--eps", "0.1", "--delta", "0.1")], ids=["neither", "both"])
    def test_exactly_one_of_eps_and_delta(self, capsys, flags):
        code, out, err = run_cli(capsys, "limits", "--source", "0.2,0.8", "--n", "50", *flags)
        assert code == 2
        assert out == "" and err == "error: provide exactly one of --eps or --delta\n"


class TestConstantsCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "constants", "--source", "0.2,0.8", "--delta", "0.070304"
        )
        assert code == 0
        payload = json.loads(out)
        for key in ("C", "N0", "p", "q", "r", "N1", "N2", "achievability_c"):
            assert key in payload
        assert payload["p"] > 0 and payload["N0"] >= payload["N1"]

    def test_uniform_source_is_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "constants", "--source", "0.5,0.5", "--delta", "0.01"
        )
        assert code == 2
        assert "uniform" in err

    def test_invalid_source_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "constants", "--source", "0.2,0.9", "--delta", "0.05"
        )
        assert code == 2

    def test_delta_below_the_solver_resolution_exits_2(self, capsys):
        # 1e-20 bits is below D's rounding noise for Bern(0.2): alpha* is not
        # determined there, and C, through 1/(1 - alpha*), came out 4.06e8
        code, out, err = run_cli(capsys, "constants", "--source", "0.2,0.8", "--delta", "1e-20")
        assert code == 2
        assert out == "" and err == (
            "error: delta=1e-20 is below the alpha* solver's resolution of 1.03e-14 bits for this source\n"
        )

    def test_delta_from_a_config_file_is_not_enough(self, tmp_path):
        # --delta is a required flag: argparse refuses before any config is read
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"delta": 0.1}))
        code, out, err = run_cli_process("constants", "--source", "0.2,0.8", "--config", str(cfg))
        assert code == 2
        assert out == "" and err.rstrip().endswith("the following arguments are required: --delta")


class TestCensusCommand:
    def test_threshold_bits_and_source_are_exclusive(self, capsys):
        # the source used to be dropped, and the sweep ran on the bits alone
        code, out, err = run_cli(
            capsys, "census", "--n", "10:20", "--m", "2", "--threshold-bits", "0.5",
            "--threshold-source", "0.2,0.8",
        )
        assert code == 2
        assert out == "" and err == "error: provide exactly one of --threshold-bits or --threshold-source\n"

    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--m", "2", "--threshold-source", "0.2,0.8",
            "--n", "20:100:20",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,threshold_bits,log2_count,theta_ratio"
        assert len(lines) == 6
        ratios = [float(l.split(",")[3]) for l in lines[1:]]
        assert max(ratios) / min(ratios) < 10

    def test_m3_normalization_is_count_over_2nh(self, capsys):
        # at m=3 the polynomial factor n^((m-3)/2) is 1
        import math
        from pragrate import low_entropy_count, entropy

        code, out, _ = run_cli(
            capsys, "census", "--m", "3", "--threshold-source", "0.6,0.3,0.1",
            "--n", "30:30",
        )
        assert code == 0
        ratio = float(out.splitlines()[1].split(",")[3])
        rep = low_entropy_count(30, 3, entropy([0.6, 0.3, 0.1]))
        assert ratio == pytest.approx(rep.count / 2 ** (30 * rep.threshold_bits), rel=1e-9)

    def test_theta_ratio_underflow_is_written_as_a_dash(self, capsys):
        # n^((m-3)/2) 2^(nh) is an n -> inf asymptotic at fixed m: at m=802 the
        # ratio falls below 2^-1022, and it used to print 0.0
        from pragrate import low_entropy_count

        code, out, err = run_cli(capsys, "census", "--m", "802", "--n", "28:30", "--threshold-bits", "1.5")
        assert code == 0
        for n, line in zip((28, 29, 30), out.splitlines()[1:], strict=True):
            rep = low_entropy_count(n, 802, 1.5)
            assert rep.theta_ratio < sys.float_info.min
            assert line == f"{n},1.5,{math.log2(rep.count)!r},-"
            assert f"note: n={n}: theta_ratio is below 2^-1022" in err
        assert err.count("note: ") == 3 and "asymptotic at fixed m" in err
        # a ratio in the normal range is printed, however small
        code, out, err = run_cli(capsys, "census", "--m", "256", "--n", "50", "--threshold-bits", "1.5")
        assert code == 0 and err == ""
        assert out.splitlines()[1].split(",")[3] == repr(low_entropy_count(50, 256, 1.5).theta_ratio)

    # threshold-bits and threshold-source sweeps at m = 2..5, with and
    # without --slab: the README example, the CI slab sweep, exact type
    # entropies (0.25,0.75 at n divisible by 4) and h = log2 3
    SWEEPS = [
        ("--m", "2", "--threshold-source", "0.2,0.8", "--n", "20:2000:20"),
        ("--m", "2", "--threshold-bits", "0.5", "--n", "1:400:3", "--slab"),
        ("--m", "2", "--threshold-source", "0.25,0.75", "--n", "4:400:4", "--slab"),
        ("--m", "3", "--threshold-bits", "1.2", "--n", "100:1000:300", "--slab"),
        ("--m", "3", "--threshold-source", "0.6,0.3,0.1", "--n", "1:150:7"),
        ("--m", "3", "--threshold-bits", repr(math.log2(3)), "--n", "1:60:5", "--slab"),
        ("--m", "4", "--threshold-bits", "1.5", "--n", "1:60:4"),
        ("--m", "4", "--threshold-source", "0.1,0.2,0.4,0.3", "--n", "1:60:4", "--slab"),
        ("--m", "5", "--threshold-bits", "2.0", "--n", "1:30:3"),
        ("--m", "5", "--threshold-source", "0.1,0.15,0.2,0.25,0.3", "--n", "1:30:3", "--slab"),
    ]
    # the sha256 of the sweeps' stdout, concatenated, as computed by a test
    # of every partition
    SWEEP_SHA256 = "961814a52803b224f3a11f6c18cc9a369555502107b6d8a5c4e37db194aaaaf2"

    def test_sweeps_are_pinned(self, capsys):
        """Every census row of a set of sweeps, byte for byte: a change to
        a count, a threshold comparison or the CSV shows here."""
        digest = hashlib.sha256()
        for argv in self.SWEEPS:
            code, out, _ = run_cli(capsys, "census", *argv)
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == self.SWEEP_SHA256

    def test_cap_counts_partitions(self, capsys):
        # 12,507,501 compositions of 5000 into 3 parts exceed the default cap
        # of 10^7, but the census visits 2,085,834 partitions
        code, out, err = run_cli(
            capsys, "census", "--m", "3", "--threshold-bits", "1.2", "--n", "5000", "--slab",
        )
        assert code == 0 and err == ""
        assert out.splitlines() == ["n,threshold_bits,slab_type_count", "5000,1.2,3036"]

    def test_slab_mode(self, capsys):
        # threshold taken from a pmf so it equals the type entropy bit-exactly
        code, out, _ = run_cli(
            capsys, "census", "--m", "2", "--threshold-source", "0.25,0.75",
            "--n", "4:4", "--slab",
        )
        assert code == 0
        assert out.splitlines()[1].endswith(",2")


class TestCodecCommands:
    def test_encode_decode_round_trip(self, capsys, tmp_path):
        strings = ["abab", "bbbb", "aaab", "baba"]
        infile = tmp_path / "strings.txt"
        infile.write_text("\n".join(strings) + "\n")
        code, out, _ = run_cli(
            capsys, "codec", "encode", "--mode", "universal",
            "--alphabet", "ab", "--n", "4", str(infile),
        )
        assert code == 0
        coded = tmp_path / "coded.txt"
        coded.write_text(out)
        code, out2, _ = run_cli(capsys, "codec", "decode", str(coded))
        assert code == 0
        assert out2.splitlines() == strings

    @pytest.mark.parametrize("mode,source", [("universal", []), ("known", ["--source", "0.2,0.8"])],
                             ids=["universal", "known"])
    def test_empty_stream_decodes_to_nothing(self, capsys, tmp_path, mode, source):
        # an empty input encodes to the header alone, which decoded to one
        # blank line; a header and one empty codeword decode to index 1
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, header, _ = run_cli(
            capsys, "codec", "encode", "--mode", mode, *source, "--alphabet", "ab", "--n", "3", str(empty),
        )
        assert code == 0 and header.count("\n") == 1 and header.startswith("# mode=")
        coded = tmp_path / "coded.txt"
        for stream, decoded in ((header, ""), (header + "\n", "bbb\n")):
            coded.write_text(stream)
            assert run_cli(capsys, "codec", "decode", *source, str(coded)) == (0, decoded, "")

    def test_universal_pipe_through_multi_orbit_levels(self, tmp_path):
        # at m=4, n=50 the partitions (3,3,12,32) and (2,14,16,18) share
        # their float entropy with others, so the codec finds their orbits
        # among several of one entropy; everywhere else the entropy alone
        # finds the orbit
        o = pragrate.build_ordering(pragrate.UNIVERSAL, 50, 4)
        parts = [tuple(o.parts[j:j + 4]) for j in range(0, len(o.parts), 4)]  # canonical order, like keys
        for asc in ((3, 3, 12, 32), (2, 14, 16, 18)):
            h = o.keys[parts.index(asc)]
            assert list(o.keys).count(h) >= 2
        rng = random.Random(50)
        strings = ["".join(rng.choice("abcd") for _ in range(50)) for _ in range(10)]
        for asc in ((3, 3, 12, 32), (2, 14, 16, 18)):
            first = "".join(s * c for s, c in zip("abcd", asc[::-1]))
            strings += [first, first[::-1]]
        infile = tmp_path / "strings.txt"
        infile.write_text("\n".join(strings) + "\n")
        code, coded, err = run_cli_process(
            "codec", "encode", "--mode", "universal", "--alphabet", "abcd", "--n", "50", str(infile),
        )
        assert (code, err) == (0, "")
        code, out, err = run_cli_process("codec", "decode", stdin=coded)
        assert (code, err) == (0, "")
        assert out.splitlines() == strings

    def test_universal_cap_counts_partitions(self, capsys, tmp_path):
        # 21,566,576,904,406,820 classes at m=64, n=16 lie in 231 partitions,
        # the units the universal store walks, so the default cap admits it
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
        rng = random.Random(64)
        strings = ["".join(rng.choice(alphabet) for _ in range(16)) for _ in range(5)] + ["A" * 16]
        infile = tmp_path / "strings.txt"
        infile.write_text("\n".join(strings) + "\n")
        code, coded, err = run_cli(
            capsys, "codec", "encode", "--mode", "universal", "--alphabet", alphabet, "--n", "16", str(infile),
        )
        assert (code, err) == (0, "")
        infile.write_text(coded)
        code, out, err = run_cli(capsys, "codec", "decode", str(infile))
        assert (code, err) == (0, "")
        assert out.splitlines() == strings

    def test_universal_output_ignores_source(self, capsys, tmp_path):
        infile = tmp_path / "strings.txt"
        infile.write_text("abbb\naabb\n")
        outs = []
        for src in ("0.2,0.8", "0.9,0.1"):
            code, out, _ = run_cli(
                capsys, "codec", "encode", "--mode", "universal", "--source", src,
                "--alphabet", "ab", "--n", "4", str(infile),
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_known_mode_orders_by_probability(self, capsys, tmp_path):
        infile = tmp_path / "strings.txt"
        infile.write_text("bbbb\naaaa\n")
        code, out, _ = run_cli(
            capsys, "codec", "encode", "--mode", "known", "--source", "0.2,0.8",
            "--alphabet", "ab", "--n", "4", str(infile),
        )
        assert code == 0
        lines = out.splitlines()[1:]
        assert len(lines[0]) < len(lines[1])  # bbbb far more probable than aaaa

    def test_audit_lines(self, capsys, tmp_path):
        infile = tmp_path / "strings.txt"
        infile.write_text("abab\n")
        code, out, _ = run_cli(
            capsys, "codec", "encode", "--alphabet", "ab", "--n", "4",
            "--audit", str(infile),
        )
        assert code == 0
        assert "emp_entropy=1.0" in out.splitlines()[1]

    def test_bad_symbol_is_input_error(self, capsys, tmp_path):
        infile = tmp_path / "strings.txt"
        infile.write_text("abcx\n")
        code, out, err = run_cli(
            capsys, "codec", "encode", "--alphabet", "ab", "--n", "4", str(infile)
        )
        assert code == 2
        assert out == "" and err == "error: symbol 'c' not in alphabet 'ab'\n"

    def test_bad_non_latin1_symbol_is_named(self, capsys, tmp_path):
        # the first character outside the alphabet, as typed, whatever its code point
        infile = tmp_path / "strings.txt"
        infile.write_text("αβжγ\n", encoding="utf-8")
        code, coded, err = run_cli_process("codec", "encode", "--alphabet", "αβγ", "--n", "4", str(infile))
        assert (code, coded) == (2, "")
        assert err == "error: symbol 'ж' not in alphabet 'αβγ'\n"

    def test_non_latin1_round_trip(self):
        strings = ["αβγα", "γγββ", "αααα", "βγαγ"]
        code, coded, err = run_cli_process("codec", "encode", "--alphabet", "αβγ", "--n", "4",
                                           stdin="\n".join(strings) + "\n")
        assert (code, err) == (0, "")
        code, out, err = run_cli_process("codec", "decode", stdin=coded)
        assert (code, out.splitlines(), err) == (0, strings, "")

    def test_wide_alphabet_round_trip(self, capsys, tmp_path):
        # past 256 symbols a string crosses the CLI as an array of two-byte indices
        alphabet = "".join(chr(0x100 + i) for i in range(300))
        rng = random.Random(300)
        strings = ["".join(rng.choices(alphabet, k=2)) for _ in range(20)]
        strings += [alphabet[0] * 2, alphabet[-1] * 2, alphabet[0] + alphabet[-1], alphabet[255:257]]
        infile, coded = tmp_path / "strings.txt", tmp_path / "coded.txt"
        infile.write_text("\n".join(strings) + "\n", encoding="utf-8")
        pmf = ",".join(["0.005"] * 100 + ["0.0025"] * 200)
        for mode, source in (("universal", ()), ("known", ("--source", pmf))):
            code, out, err = run_cli(capsys, "codec", "encode", "--mode", mode, *source,
                                     "--alphabet", alphabet, "--n", "2", str(infile))
            assert (code, err) == (0, "")
            coded.write_text(out, encoding="utf-8")
            assert run_cli(capsys, "codec", "decode", *source, str(coded)) == (0, "\n".join(strings) + "\n", "")

    # the benchmark's six codec cells: alphabet, n and the known mode's source
    STREAM_CELLS = {"m2_n800": ("ab", 800, "0.2,0.8"), "m3_n150": ("abc", 150, "0.2,0.3,0.5"),
                    "m4_n50": ("abcd", 50, "0.1,0.2,0.3,0.4")}
    # sha256 of each cell's encode stdout, as first computed with per-character symbol maps,
    # re-pinned when the header gained fmt=1 (the codeword lines are unchanged)
    STREAM_SHA256 = {
        ("known", "m2_n800"): "de86c7041b45e6d6efba1bcb684ea3854122c885f7bb00e843853e8214670cc4",
        ("known", "m3_n150"): "e28d965000a2ed19644052f6fb7c43e79e7ae3940a351436c940f87941e81a22",
        ("known", "m4_n50"): "a256b5b91f8d7f97bb87370ef34611cf07aa30d5dab71a45bdd009b2dd2ea41c",
        ("universal", "m2_n800"): "b21c3e44905a61181d5f3f8b81f310d68875408da364be1214469db0cfc808ed",
        ("universal", "m3_n150"): "2b58de443e39bc15d4db2325b1dcf92d3c3899aa01e8fa2bb6d8d0f0817c521c",
        ("universal", "m4_n50"): "7238a595dd9b4d963e42e4d6b38439b07cd2ebb8d1bb4805153a3ac44cf182c1",
        ("audit", "m3_n150"): "44977d880ceac7f1550d2e72a4f78d5dc6408a739c4271c5c65bbd504db5393d",
    }

    @pytest.mark.parametrize("mode, cell", STREAM_SHA256, ids="_".join)
    def test_encode_streams_are_pinned(self, capsys, tmp_path, mode, cell):
        """20 strings drawn from the source at each cell: the encoded stream
        byte for byte, and its decode back to the input."""
        alphabet, n, source = self.STREAM_CELLS[cell]
        rng = random.Random(cell)
        weights = list(map(float, source.split(",")))
        text = "".join("".join(rng.choices(alphabet, weights=weights, k=n)) + "\n" for _ in range(20))
        infile, coded = tmp_path / "strings.txt", tmp_path / "coded.txt"
        infile.write_text(text)
        flags = ("--mode", "universal", "--audit") if mode == "audit" else ("--mode", mode)
        code, out, err = run_cli(capsys, "codec", "encode", *flags, "--source", source,
                                 "--alphabet", alphabet, "--n", str(n), str(infile))
        assert (code, err) == (0, "")
        assert _sha256(out) == self.STREAM_SHA256[mode, cell]
        coded.write_text(out)
        assert run_cli(capsys, "codec", "decode", "--source", source, str(coded)) == (0, text, "")

    FOUND_STRINGS = "aabca\ncabba\nccccc\n"

    def _encode_known(self, source="0.2,0.3,0.5"):
        code, coded, err = run_cli_process(
            "codec", "encode", "--mode", "known", "--source", source,
            "--alphabet", "abc", "--n", "5", stdin=self.FOUND_STRINGS,
        )
        assert (code, err) == (0, "")
        return coded

    def test_known_header_carries_source_digest(self, capsys, tmp_path):
        digest = hashlib.sha256(repr((0.2, 0.3, 0.5)).encode()).hexdigest()[:16]
        header = self._encode_known().splitlines()[0]
        assert header == f"# mode=known m=3 n=5 alphabet=abc src={digest} fmt=1"
        infile = tmp_path / "strings.txt"
        infile.write_text(self.FOUND_STRINGS)
        code, out, _ = run_cli(capsys, "codec", "encode", "--mode", "universal", "--source",
                               "0.2,0.3,0.5", "--alphabet", "abc", "--n", "5", str(infile))
        assert code == 0 and out.splitlines()[0] == "# mode=universal m=3 n=5 alphabet=abc fmt=1"

    def test_decode_refuses_another_source(self):
        coded = self._encode_known()
        digest = coded.splitlines()[0].split("src=")[1].split()[0]
        other = hashlib.sha256(repr((0.5, 0.3, 0.2)).encode()).hexdigest()[:16]
        code, out, err = run_cli_process("codec", "decode", "--source", "0.5,0.3,0.2", stdin=coded)
        assert (code, out) == (2, "")
        assert err == (f"error: codeword stream was encoded under source src={digest}, "
                       f"but --source has src={other}\n")

    def test_header_without_digest_decodes_unchecked(self):
        header, *words = self._encode_known().splitlines()
        legacy = "\n".join([" ".join(t for t in header.split() if not t.startswith("src=")), *words]) + "\n"
        code, out, err = run_cli_process("codec", "decode", "--source", "0.2,0.3,0.5", stdin=legacy)
        assert (code, out) == (0, self.FOUND_STRINGS)
        assert err == "warning: codeword header has no src= digest; the --source pmf is unchecked\n"

    def test_known_header_without_format_decodes(self):
        # the known-source order is the same before and after fmt=1
        header, *words = self._encode_known().splitlines()
        legacy = "\n".join([header.removesuffix(" fmt=1"), *words]) + "\n"
        assert "fmt=" not in legacy
        code, out, err = run_cli_process("codec", "decode", "--source", "0.2,0.3,0.5", stdin=legacy)
        assert (code, out, err) == (0, self.FOUND_STRINGS, "")

    @pytest.mark.parametrize("form", ["inline", "json", "file"])
    def test_same_pmf_in_any_form_decodes_cleanly(self, tmp_path, form):
        pmf_file = tmp_path / "pmf.txt"
        pmf_file.write_text("[0.2, 0.3, 0.5]\n")
        source = {"inline": "0.2,0.3,0.5", "json": "[0.2, 0.3, 0.5]", "file": str(pmf_file)}[form]
        coded = self._encode_known()
        code, out, err = run_cli_process("codec", "decode", "--source", source, stdin=coded)
        assert (code, out, err) == (0, self.FOUND_STRINGS, "")

    def test_decode_requires_header(self, capsys, tmp_path):
        badfile = tmp_path / "bad.txt"
        badfile.write_text("0101\n")
        code, _, err = run_cli(capsys, "codec", "decode", str(badfile))
        assert code == 2
        assert "header" in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"source": "0.2,0.8", "eps": "0.01444"}))
        code, out, _ = run_cli(
            capsys, "ladder", "--config", str(cfg), "--n", "50", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)[0]["exact"] == 0.84

    def test_config_mode_beats_default_and_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"source": [0.2, 0.8], "eps": 0.01444, "mode": "prefix"}))
        base = ("ladder", "--config", str(cfg), "--n", "50", "--format", "json")
        code, out, _ = run_cli(capsys, *base)
        assert code == 0
        assert json.loads(out)[0]["exact"] == pytest.approx(0.84 + 1 / 50, abs=1e-12)
        code, out, _ = run_cli(capsys, *base, "--mode", "one-to-one")
        assert code == 0
        assert json.loads(out)[0]["exact"] == 0.84

    def test_config_cap_types_is_applied(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"source": "0.2,0.8", "cap_types": 5}))
        code, _, err = run_cli(
            capsys, "limits", "--config", str(cfg), "--n", "50", "--eps", "0.01444"
        )
        assert code == 3
        assert "exceeds the cap of 5" in err

    def test_config_unknown_key_is_refused(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"source": "0.2,0.8", "eps": "0.01444", "bogus": 1}))
        code, out, err = run_cli(capsys, "ladder", "--config", str(cfg), "--n", "50")
        assert code == 2
        assert out == ""
        assert "unknown config key 'bogus'" in err


class TestOneDistributionPerBlocklength:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = exact_limits.length_distribution

        def counting(p, n, **kwargs):
            calls.append(n)
            return original(p, n, **kwargs)

        monkeypatch.setattr(exact_limits, "length_distribution", counting)
        return calls

    def test_ladder_builds_once_per_n(self, capsys, builds):
        code, out, _ = run_cli(
            capsys, "ladder", "--source", "0.2,0.8", "--n", "20:40:10",
            "--delta", "0.01,0.03,0.05,0.1,0.15,0.2,0.3",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 3 * 7
        assert builds == [20, 30, 40]

    def test_limits_builds_once_per_n(self, capsys, builds):
        code, out, _ = run_cli(
            capsys, "limits", "--source", "0.6,0.3,0.1", "--n", "10:30:10", "--eps", GOLDEN_EPS
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 3 * 7
        assert builds == [10, 20, 30]

    def test_limits_bad_epsilon_exits_before_any_build(self, capsys, builds):
        code, out, err = run_cli(
            capsys, "limits", "--source", "0.2,0.8", "--n", "20:40:10", "--eps", "0.01,0.0,0.1"
        )
        assert code == 2
        assert out == "" and err == (
            "error: --eps entry '0.0' must lie in (0, 1); it is 0.0 as a double, "
            "so give its exponent with --delta\n"
        )
        assert builds == []

    def test_deep_delta_ladder_builds_once_per_n(self, capsys, builds):
        # 2**(-20000 * 0.07) underflows to 0.0: only the strassen cell needs
        # epsilon itself; the exact column reads log2(epsilon) = -n*delta
        code, out, err = run_cli(
            capsys, "ladder", "--source", "0.2,0.8", "--n", "100:20000:19900", "--delta", "0.07"
        )
        assert code == 0
        assert builds == [100, 20000]
        header, *rows = [line.split(",") for line in out.splitlines()]
        shallow, deep = (dict(zip(header, row)) for row in rows)
        assert "-" not in shallow.values()
        assert deep["epsilon"] == "0.0" and deep["strassen"] == "-"
        assert all(deep[c] != "-" for c in ("exact", "blahut", "pragmatic"))
        assert err == "note: strassen column unavailable: epsilon = 2**-1400 underflows a double\n"

    def test_tiny_delta_ladder_leaves_only_strassen_empty(self, capsys):
        # 2**(-5 * 1e-17) rounds to 1.0, an epsilon the normal approximation
        # cannot take; it is a note, not an error.  1e-17 bits is below the
        # alpha* solver's resolution, so the tilted columns are a note too,
        # which must not call the exponent outside (0, D(U||P))
        code, out, err = run_cli(capsys, "ladder", "--source", "0.2,0.8", "--n", "5", "--delta", "1e-17")
        assert code == 0
        header, row = [line.split(",") for line in out.splitlines()]
        cells = dict(zip(header, row))
        assert cells["epsilon"] == "1.0"
        assert cells["strassen"] == cells["blahut"] == cells["pragmatic"] == "-"
        assert all(cells[c] != "-" for c in ("exact", "shannon"))
        assert err == (
            "note: tilted columns unavailable: delta=1e-17 is below the alpha* solver's resolution "
            "of 1.03e-14 bits for this source; "
            "strassen column unavailable: epsilon = 2**-5e-17 rounds to 1 in a double\n"
        )

    def test_negative_rates_print_dash_with_a_note(self, capsys):
        # at n=5, delta=1e-10, epsilon is just below 1: strassen is -1.717
        # and pragmatic -10934.8 bits/symbol, so both print '-'; at 1e-17,
        # below the solver's resolution, blahut prints '-' too
        code, out, err = run_cli(
            capsys, "ladder", "--source", "0.2,0.8", "--n", "5", "--delta", "1e-17,1e-10"
        )
        assert code == 0
        header, *rows = [line.split(",") for line in out.splitlines()]
        for row in rows:
            cells = dict(zip(header, row))
            assert cells["strassen"] == cells["pragmatic"] == "-"
            assert all(cells[c] != "-" for c in ("exact", "shannon"))
        assert [dict(zip(header, row))["blahut"] == "-" for row in rows] == [True, False]
        assert "tilted columns unavailable: delta=1e-17 is below" in err.splitlines()[0]
        assert err.splitlines()[1] == (
            "note: pragmatic column unavailable: -10934.8 bits/symbol is below 0; "
            "strassen column unavailable: -1.71687 bits/symbol is below 0"
        )

    def test_bad_delta_exits_before_any_build(self, capsys, builds):
        for command in ("ladder", "limits"):
            code, out, err = run_cli(
                capsys, command, "--source", "0.2,0.8", "--n", "20:40:10", "--delta", "0.05,0"
            )
            assert code == 2
            assert out == "" and err == (
                "error: --delta entry '0' must be a positive finite exponent; it is 0.0 as a double\n"
            )
        assert builds == []

    @pytest.mark.parametrize("command", ["ladder", "limits"])
    @pytest.mark.parametrize("flag, hint", [
        ("--eps", "must lie in (0, 1); it is 0.0 as a double, so give its exponent with --delta"),
        ("--delta", "must be a positive finite exponent; it is 0.0 as a double"),
    ], ids=["eps", "delta"])
    def test_underflowing_entry_is_named_as_typed(self, capsys, builds, command, flag, hint):
        # 1e-400 is 0.0 as a double; the error names the entry as typed
        code, out, err = run_cli(capsys, command, "--source", "0.2,0.8", "--n", "5", flag, "0.1,1e-400")
        assert code == 2
        assert out == "" and err == f"error: {flag} entry '1e-400' {hint}\n"
        assert builds == []

    def test_limits_delta_builds_once_per_n(self, capsys, builds):
        code, out, _ = run_cli(
            capsys, "limits", "--source", "0.6,0.3,0.1", "--n", "10:30:10", "--delta", "0.01,0.1,0.3"
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 3 * 3
        assert builds == [10, 20, 30]


class TestDeltaLadder:
    """``ladder --delta`` solves alpha* at the given exponent, once per exponent."""

    ARGV = ("ladder", "--source", "0.2,0.8", "--n", "50:2000:50", "--delta", "0.013,0.052", "--no-exact")

    @pytest.fixture
    def solves(self, monkeypatch):
        """The deltas of every solve_alpha_star call the ladder makes."""
        calls = []

        def counting(p, delta):
            calls.append(delta)
            return solve_alpha_star(p, delta)

        monkeypatch.setattr(approximations, "solve_alpha_star", counting)
        return calls

    def test_one_solve_per_delta(self, capsys, solves):
        # one solve per delta for the whole sweep, not one per row
        code, out, _ = run_cli(capsys, *self.ARGV)
        assert code == 0
        assert len(out.splitlines()) == 1 + 40 * 2
        assert solves == [0.013, 0.052]

    def test_out_of_range_delta_refused_once(self, capsys, solves):
        # 0.9 is past D(U||P) = 0.322: one refused solve, and a note
        # phrased for each n
        code, out, err = run_cli(capsys, *self.ARGV[:-2], "0.013,0.052,0.9", "--no-exact")
        assert code == 0
        assert len(out.splitlines()) == 1 + 40 * 3
        assert solves == [0.013, 0.052, 0.9]
        notes = err.splitlines()
        assert len(notes) == 40 and all("tilted columns unavailable: delta=0.9 outside" in x for x in notes)
        assert "at n=50 the" in notes[0] and "at n=2000 the" in notes[-1]

    def test_per_source_terms_once_per_source(self, capsys, monkeypatch):
        # H(P) and sigma(P) do not depend on n: one call each for 40 blocklengths
        calls = []
        for name in ("shannon_rate", "coding_variance_bits"):
            original = getattr(approximations, name)
            counting = lambda p, name=name, original=original: calls.append(name) or original(p)
            monkeypatch.setattr(approximations, name, counting)
        code, out, _ = run_cli(capsys, *self.ARGV)
        assert code == 0 and len(out.splitlines()) == 1 + 40 * 2
        assert sorted(calls) == ["coding_variance_bits", "shannon_rate"]

    def test_cells_are_the_solve_at_the_given_delta(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGV)
        assert code == 0
        header, *rows = [line.split(",") for line in out.splitlines()]
        p = SourcePmf.parse("0.2,0.8")
        for i, row in enumerate(rows):
            cells = dict(zip(header, row))
            n, delta = int(cells["n"]), (0.013, 0.052)[i % 2]
            sol = solve_alpha_star(p, delta)
            assert cells["delta"] == repr(delta)
            assert float(cells["blahut"]) == sol.h_tilted
            assert float(cells["pragmatic"]) == (
                sol.h_tilted - math.log2(n) / (2.0 * n * (1.0 - sol.alpha_star))
            )


class TestSharedParser:
    """One parser serves every ``main`` call; --config never changes it."""

    @pytest.fixture
    def parser_builds(self, monkeypatch):
        builds = []
        original = cli.build_parser

        def counting():
            parser = original()
            builds.append(parser)
            return parser

        monkeypatch.setattr(cli, "build_parser", counting)
        monkeypatch.setattr(cli, "_PARSER", None)
        return builds

    def test_calls_share_one_parser(self, capsys, parser_builds):
        for _ in range(2):
            code, _, _ = run_cli(capsys, "ladder", "--source", "0.2,0.8", "--n", "50", "--eps", "0.01444")
            assert code == 0
        assert len(parser_builds) == 1

    def test_config_values_do_not_leak_into_the_next_call(self, capsys, tmp_path, parser_builds):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"source": "0.2,0.8", "mode": "prefix"}))
        base = ("ladder", "--n", "50", "--eps", "0.01444", "--format", "json")
        code, out, _ = run_cli(capsys, *base, "--config", str(cfg))
        assert code == 0
        assert json.loads(out)[0]["exact"] == pytest.approx(0.84 + 1 / 50, abs=1e-12)
        code, out, _ = run_cli(capsys, *base, "--source", "0.2,0.8")
        assert code == 0
        assert json.loads(out)[0]["exact"] == 0.84
        code, _, err = run_cli(capsys, *base)
        assert code == 2 and err == "error: --source is required for this subcommand\n"
        assert len(parser_builds) == 2  # the shared one, and one for the --config call

    def test_codec_reads_the_stdin_of_each_call(self, capsys, monkeypatch, parser_builds):
        ordering = coding.build_ordering(coding.UNIVERSAL, 4, 2)
        for line, x in (("abab", [0, 1, 0, 1]), ("bbba", [1, 1, 1, 0])):
            stdin = io.StringIO(line + "\n")
            monkeypatch.setattr(sys, "stdin", stdin)
            code, out, _ = run_cli(capsys, "codec", "encode", "--alphabet", "ab", "--n", "4")
            assert code == 0 and not stdin.closed
            assert out.splitlines()[1] == coding.encode(ordering, x).bits
        assert len(parser_builds) == 1


class TestInputErrorsExit2:
    """Malformed input gets an ``error:`` line and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ("ladder", "--source", "0.2,0.8", "--n", "0:2", "--eps", "0.1"),
        ("limits", "--source", "0.2,0.8", "--n", "5x", "--eps", "0.1"),
        ("limits", "--source", "0.2,0.8", "--n", "10:20:0", "--eps", "0.1"),
        # the n range is read before the alphabet cap, as the census always did
        ("census", "--m", "1000", "--threshold-bits", "0.5", "--n", "foo"),
    ], ids=["n_range_with_zero", "non_integer_n", "zero_step", "census_past_the_alphabet_cap"])
    def test_bad_n_range(self, argv):
        code, out, err = run_cli_process(*argv)
        assert code == 2
        assert out == "" and err.startswith("error: bad n range")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("ladder", "--source", "0.2,0.8", "--n", "5:3", "--eps", "0.1"),
        ("limits", "--source", "0.2,0.8", "--n", "5:3", "--eps", "0.1"),
        ("census", "--m", "2", "--threshold-bits", "0.5", "--n", "5:3"),
        ("census", "--m", "2", "--threshold-bits", "0.5", "--n", "5:3", "--slab"),
    ], ids=["ladder", "limits", "census", "census_slab"])
    def test_empty_n_range(self, argv):
        code, out, err = run_cli_process(*argv)
        assert code == 2
        assert out == "" and err == "error: empty n range\n"

    @pytest.mark.parametrize("argv", [
        ("census", "--m", "0", "--threshold-bits", "0.5", "--n", "5"),
        ("census", "--m", "-1", "--threshold-bits", "0.5", "--n", "5"),
        ("census", "--m", "0", "--threshold-bits", "0.5", "--n", "5", "--slab"),
        ("census", "--m", "1", "--threshold-bits", "0.5", "--n", "5"),
        ("census", "--m", "0", "--threshold-source", "0.2,0.8", "--n", "5"),
        ("census", "--m", "1", "--threshold-source", "0.2,0.8", "--n", "5", "--slab"),
    ], ids=["m0", "m_negative", "m0_slab", "m1", "m0_threshold_source", "m1_threshold_source_slab"])
    def test_census_alphabet_below_two(self, argv):
        code, out, err = run_cli_process(*argv)
        assert code == 2
        assert out == "" and err.startswith("error: --m must be >= 2")
        assert "Traceback" not in err

    @pytest.mark.parametrize("delta", ["0", "-0.1", "nan", "inf", "0.05,-inf", "-2000"])
    def test_bad_delta(self, delta):
        code, out, err = run_cli_process(
            "ladder", "--source", "0.2,0.8", "--n", "50", f"--delta={delta}", "--no-exact"
        )
        bad = delta.split(",")[-1]
        hint = "; it is 0.0 as a double" if float(bad) == 0.0 else ""
        assert code == 2
        assert out == "" and err == f"error: --delta entry {bad!r} must be a positive finite exponent{hint}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("ladder", "--source", "0.2,0.8", "--n", "5", "--eps", "abc"),
         "bad numeric list 'abc': could not convert string to float: 'abc'"),
        (("codec", "encode", "--alphabet", "ab", "--n", "0"), "blocklength n must be an integer >= 1, got 0"),
    ], ids=["eps_not_a_number", "codec_zero_blocklength"])
    def test_bad_value(self, argv, message):
        assert run_cli_process(*argv, stdin="") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("header, message", [
        ("# mode=universal m=2 n=abc alphabet=ab", "codeword header: bad m or n"),
        ("# mode=universal m=3 n=4 alphabet=ab", "codeword header: alphabet 'ab' does not have m=3"),
        ("# mode=foo m=2 n=4 alphabet=ab", "codeword header: mode must be 'known' or 'universal'"),
        ("# mode=universal m=2 n=4 alphabet=aa", "alphabet must be >= 2 distinct symbols"),
        ("# mode=known m=2 n=4 alphabet=ab fmt=2", "codeword header: unknown format fmt='2'; this version reads fmt=1"),
        ("# mode=universal m=2 n=4 alphabet=ab", "codeword header: a universal stream with no fmt= field"),
    ], ids=["n_not_integer", "alphabet_shorter_than_m", "unknown_mode", "repeated_symbol", "unknown_format",
            "universal_without_format"])
    def test_bad_codec_header(self, tmp_path, header, message):
        coded = tmp_path / "coded.txt"
        coded.write_text(f"{header}\n100\n")
        code, out, err = run_cli_process("codec", "decode", str(coded))
        assert code == 2
        assert out == "" and err.startswith(f"error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("alphabet", ["a b", "a\tb"], ids=["space", "tab"])
    def test_whitespace_alphabet_refused(self, tmp_path, alphabet):
        strings = tmp_path / "strings.txt"
        strings.write_text("aaa\n")
        code, out, err = run_cli_process(
            "codec", "encode", "--mode", "universal", "--alphabet", alphabet, "--n", "3", str(strings)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: alphabet {alphabet!r} holds whitespace, which the header cannot carry\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["ladder", "limits"])
    @pytest.mark.parametrize("flag", ["--eps", "--delta"])
    def test_list_with_no_values(self, command, flag):
        code, out, err = run_cli_process(command, "--source", "0.2,0.8", "--n", "10", flag, ",")
        assert code == 2
        assert out == "" and err == f"error: {flag} ',' holds no values\n"

    @pytest.mark.parametrize("command", ["ladder", "limits"])
    @pytest.mark.parametrize("flag,text", [("--eps", "0.1,,0.2"), ("--delta", "0.05,"), ("--eps", ",0.1")])
    def test_list_with_an_empty_entry(self, capsys, command, flag, text):
        code, out, err = run_cli(capsys, command, "--source", "0.2,0.8", "--n", "10", flag, text)
        assert code == 2
        assert out == "" and err == f"error: bad numeric list {text!r}: could not convert string to float: ''\n"

    @pytest.mark.parametrize("route", ["source", "threshold_source", "config"])
    @pytest.mark.parametrize("kind", ["directory", "non_utf8", "null_entry", "nested_entries"])
    def test_malformed_source(self, capsys, tmp_path, route, kind):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe0.2,0.8")
        spec, message = {
            "directory": (str(tmp_path), "cannot read source file"),
            "non_utf8": (str(bad), "cannot read source file"),
            "null_entry": ("[null, 1]", "bad pmf entry"),
            "nested_entries": ("[[0.2],[0.8]]", "bad pmf entry"),
        }[kind]
        if route == "source":
            argv = ("ladder", "--source", spec, "--n", "5", "--eps", "0.1")
        elif route == "threshold_source":
            argv = ("census", "--threshold-source", spec, "--n", "5")
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"source": spec}))
            argv = ("limits", "--config", str(cfg), "--n", "5", "--eps", "0.1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith(f"error: {message}")

    @pytest.mark.parametrize("spec,message", [
        ("[1e999, 0]", "bad pmf entry Fraction(1000...0"),
        ("[0.5, -1e999]", "bad pmf entry Fraction(-100...0"),
        # past CPython's 4,300-digit limit on int <-> str, so its wording varies
        ("[1e5000, 0]", "bad pmf entry "),
        ("[0.5, 1" + "0" * 5000 + "]", "bad "),
    ], ids=["1e999", "-1e999", "1e5000", "5001_digits"])
    def test_huge_source_entry_is_shown_short(self, spec, message):
        # a JSON number past the double range reads as an exact integer of
        # up to thousands of digits; the error line names it in brief
        code, out, err = run_cli_process("ladder", "--source", spec, "--n", "5", "--eps", "0.1")
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")
        assert len(err) < 200, err

    @pytest.mark.parametrize("slab", [(), ("--slab",)], ids=["sweep", "slab"])
    def test_census_type_cap(self, slab):
        code, out, err = run_cli_process(
            "census", "--m", "3", "--threshold-bits", "1.0", "--n", "50", *slab, "--cap-types", "5"
        )
        assert code == 0
        assert out.count("\n") == 1  # the header only
        assert err == "warning: n=50 exceeds type cap; sweep truncated\n"

    def test_census_far_past_the_cap_is_refused_without_counting_partitions(self):
        # 10**14 + 1 binary types pass the cap times 2!, so the partitions,
        # an (n+1)-entry table to count, are never counted
        start = time.perf_counter()
        code, out, err = run_cli_process("census", "--n", "100000000000000", "--m", "2", "--threshold-bits", "0.5")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == "n,threshold_bits,log2_count,theta_ratio\n"
        assert err == "warning: n=100000000000000 exceeds type cap; sweep truncated\n"

    @pytest.mark.parametrize("codec", [False, True], ids=["census", "codec"])
    def test_alphabet_past_the_recursion_limit_is_a_resource_limit(self, codec):
        # the alphabet cap sits where the recursive walks stopped at the default recursion limit
        argv = (("codec", "encode", "--mode", "universal", "--alphabet", "".join(map(chr, range(256, 1756))),
                 "--n", "2") if codec else ("census", "--n", "5", "--m", "1000000", "--threshold-bits", "0.5"))
        code, out, err = run_cli_process(*argv, stdin="")
        assert code == 3 and "Traceback" not in err
        assert err.startswith("resource limit: m=1") and "past the alphabet cap of 802" in err

    def test_census_past_the_alphabet_cap_is_refused_where_the_classes_pass_the_orbit_bound(self):
        # C(200999, 999) classes pass the cap times 1000!, so the type cap alone
        # would only truncate the sweep; the alphabet cap refuses the call first
        code, out, err = run_cli_process("census", "--n", "200000", "--m", "1000", "--threshold-bits", "0.5")
        assert code == 3 and out == ""
        assert err == "resource limit: m=1000 symbols: past the alphabet cap of 802\n"

    def test_decode_past_the_ordering_names_the_index_by_its_bits(self):
        # the codeword of 15,000 ones is index 2**15001 - 1 of 2**15000
        # strings, both past the 4,300-digit limit of an int's str
        stream = "# mode=universal m=2 n=15000 alphabet=ab fmt=1\n" + "1" * 15000 + "\n"
        code, out, err = run_cli_process("codec", "decode", stdin=stream)
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: index ")
        if hasattr(sys, "set_int_max_str_digits"):
            assert err == "error: index <int of 15001 bits> exceeds the <int of 15001 bits> strings of this ordering\n"

    @pytest.mark.parametrize("argv,message", [
        (("constants", "--source", "0.2,0.8", "--delta", "0.0703", "--cap-types", "-5"),
         "unrecognized arguments: --cap-types -5"),
        (("codec", "encode", "--mode", "universal", "--alphabet", "ab", "--n", "3", "--cap-types", "-1"),
         "argument --cap-types: must be an integer >= 1, got -1"),
        (("census", "--m", "3", "--threshold-bits", "1.0", "--n", "50", "--cap-types", "-3"),
         "argument --cap-types: must be an integer >= 1, got -3"),
    ], ids=["constants", "codec", "census"])
    def test_bad_cap_types(self, argv, message):
        # constants enumerates no type classes and takes no cap
        code, out, err = run_cli_process(*argv, stdin="aab\n")
        assert code == 2
        assert out == "" and err.rstrip().endswith(message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [-5, 0, 2.5, True], ids=["negative", "zero", "float", "bool"])
    def test_bad_cap_types_in_config(self, tmp_path, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"cap_types": value}))
        code, out, err = run_cli_process(
            "census", "--config", str(cfg), "--m", "3", "--threshold-bits", "1.0", "--n", "50"
        )
        assert code == 2
        assert out == "" and "argument --cap-types: " in err

    def test_config_flag_must_be_a_bool(self, tmp_path):
        # the string "false" is truthy: taken as it was, it skipped the exact column
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"no_exact": "false"}))
        code, out, err = run_cli_process(
            "ladder", "--config", str(cfg), "--source", "0.2,0.8", "--n", "10", "--eps", "0.1"
        )
        assert code == 2
        assert out == "" and err == "error: config key 'no_exact': 'false' is not true or false\n"

    def test_missing_config_file(self, tmp_path):
        missing = tmp_path / "absent.json"
        code, out, err = run_cli_process(
            "limits", "--config", str(missing), "--source", "0.2,0.8", "--n", "5", "--eps", "0.1"
        )
        assert code == 2
        assert out == "" and err.startswith("error: cannot read config file")
        assert "Traceback" not in err

    def test_invalid_json_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        code, out, err = run_cli_process(
            "limits", "--config", str(cfg), "--source", "0.2,0.8", "--n", "5", "--eps", "0.1"
        )
        assert code == 2
        assert out == "" and err.startswith("error: cannot read config file")
        assert "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
    def test_config_integer_past_the_digit_limit(self, tmp_path):
        # the JSON reader raises a plain ValueError for an int past 4,300 digits
        cfg = tmp_path / "run.json"
        cfg.write_text('{"cap_types": 1' + "0" * 5000 + "}")
        code, out, err = run_cli_process(
            "limits", "--config", str(cfg), "--source", "0.2,0.8", "--n", "5", "--eps", "0.1"
        )
        assert code == 2
        assert out == "" and err.startswith("error: cannot read config file")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("codec", "encode", "--alphabet", "ab", "--n", "4"),
        ("codec", "decode"),
    ], ids=["encode", "decode"])
    @pytest.mark.parametrize("name", ["absent.txt", "."], ids=["missing", "directory"])
    def test_unreadable_codec_input(self, tmp_path, argv, name):
        path = tmp_path / name
        code, out, err = run_cli_process(*argv, str(path))
        assert code == 2
        assert out == "" and err.startswith(f"error: cannot read input file {str(path)!r}")
        assert "Traceback" not in err


def test_subnormal_epsilon_ladder_has_finite_strassen_cell():
    # n*delta = 1050: epsilon = 2**-1050 is subnormal but not zero
    code, out, err = run_cli_process(
        "ladder", "--source", "0.2,0.8", "--n", "20000", "--delta", "0.0525", "--no-exact"
    )
    assert code == 0 and err == ""
    header, row = out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert 0.0 < float(cells["epsilon"]) < 2.0 ** -1022
    assert math.isfinite(float(cells["strassen"]))


@pytest.mark.parametrize("argv, code", [
    (("codec", "encode", "--alphabet", "ab", "--n", "4", "{strings}"), 0),
    (("codec", "decode", "{coded}"), 0),
    (("codec", "encode", "--alphabet", "a", "--n", "4", "{strings}"), 2),
    (("codec", "encode", "--config", "{config}", "--alphabet", "ab", "--n", "4", "{strings}"), 0),
], ids=["encode", "decode", "encode_error", "encode_config"])
def test_codec_closes_its_input_file(tmp_path, argv, code):
    files = {
        "strings": ("strings.txt", "abab\nbbba\n"),
        "coded": ("coded.txt", "# mode=universal m=2 n=4 alphabet=ab fmt=1\n100\n"),
        "config": ("run.json", json.dumps({"mode": "known", "source": "0.3,0.7"})),
    }
    paths = {}
    for key, (name, text) in files.items():
        paths[key] = tmp_path / name
        paths[key].write_text(text)
    got, _, err = run_cli_process(
        *(arg.format(**paths) for arg in argv), python_flags=("-W", "error::ResourceWarning")
    )
    assert got == code
    assert "ResourceWarning" not in err and "Traceback" not in err


class TestDeepRangeNote:
    """The tilted columns' range note names the real lower end of the
    admissible epsilon interval, also where 2**(-n*D(U||P)) underflows."""

    @pytest.mark.parametrize("n,interval", [
        ("20000", "(2**-6438.56, 1)"),  # 2**(-20000 * 0.321928) underflows to 0.0
        ("200", "(4.14952e-20, 1)"),
    ])
    def test_lower_end(self, n, interval):
        code, out, err = run_cli_process(
            "ladder", "--source", "0.2,0.8", "--n", n, "--delta", "0.5", "--no-exact"
        )
        assert code == 0 and out.startswith("n,epsilon,delta,")
        assert f"at n={n} the admissible epsilon interval is {interval}" in err
        assert "Traceback" not in err


# sha256 of each --help page at 80 columns, recorded before the handlers imported
# their modules lazily; the same bytes on CPython 3.10, 3.11 and 3.13
HELP_SHA256 = {
    (): "a16cbdd454d7a4739c460b798772ee7f5d7476f1cb58c8fb430e257bb9fcae26",
    ("ladder",): "0a1a738115baa1d9a24c930d8a01820d68d29d3a540dd38d0b4a90cf3eaaab4b",
    ("limits",): "deae944c9fba8decd4c890057f460250ce486c10949690f739fc3367a2792499",
    ("constants",): "9a23beeb033f60aab931c8e176f23376e6ae45fd64b55a4f130cd5c16be61fd7",
    ("census",): "0e8aeb2452d2a46164aa3b66752595e2524cd3ad4251ae1e3e8c5e15f1116960",
    ("codec",): "0d6570e6b7c48d6321b52bef28d371b484463a32351d61e84c0cd50af9c9163b",
    ("codec", "encode"): "30559b820e066328049f69e391e39aef2b6ed6dac1b4a7e7076aac20671947fd",
    ("codec", "decode"): "55b191b297f469258580c69f8e515e4bdae38809c688e4ca023dc2fc31ae51da",
}


@pytest.mark.parametrize("argv", HELP_SHA256, ids=lambda argv: "_".join(argv) or "pragrate")
def test_help_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert _sha256(capsys.readouterr().out) == HELP_SHA256[argv]


class TestStartUp:
    """What each CLI call imports, read from the ``sys.modules`` of a fresh
    ``python -S`` child.  Only what must not load is pinned, so the standard
    library's own imports may differ between CPython versions."""

    CODEC = ("codec", "encode", "--alphabet", "ab", "--n", "4")
    NO_ENGINE = {"pragrate.coding", "pragrate.exact_limits", "pragrate.types_census"}
    NO_LADDER = {"pragrate.approximations", "pragrate.exponents", "statistics"}

    @staticmethod
    def loaded(code, stdin=""):
        """The modules loaded once ``code`` has run in a fresh child, which
        prints them as the last line of its stderr."""
        src = str(pathlib.Path(pragrate.__file__).resolve().parents[1])
        code += "\nprint(*sys.modules, file=sys.stderr)"
        proc = subprocess.run([sys.executable, "-S", "-c", code], input=stdin, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stderr.splitlines()[-1].split())

    def test_parser_alone(self):
        modules = self.loaded("import sys\nimport pragrate.cli as cli\ncli.build_parser()")
        assert {m for m in modules if m.startswith("pragrate")} == {"pragrate", "pragrate.cli", "pragrate.errors"}
        assert not modules & {"dataclasses", "json", "statistics", "typing"}

    @pytest.mark.parametrize("argv, stdin, unloaded", [
        (CODEC, "abab\nbbba\n", {"pragrate.exact_limits", *NO_LADDER}),
        (("codec", "decode"), "# mode=universal m=2 n=4 alphabet=ab fmt=1\n100\n10\n",
         {"pragrate.exact_limits", *NO_LADDER}),
        (("census", "--m", "3", "--threshold-bits", "1.2", "--n", "10:30:10"), "",
         {"pragrate.coding", "pragrate.exact_limits", *NO_LADDER}),
        (("limits", "--source", "0.2,0.8", "--n", "50", "--eps", "0.001"), "", NO_LADDER),
        (("ladder", "--source", "0.2,0.8", "--n", "50", "--eps", "0.001", "--no-exact"), "", NO_ENGINE),
        (("constants", "--source", "0.2,0.8", "--delta", "0.07"), "", NO_ENGINE),
    ], ids=["encode", "decode", "census", "limits", "ladder_no_exact", "constants"])
    def test_subcommand_loads_only_its_path(self, argv, stdin, unloaded):
        code = f"import sys\nimport pragrate.cli as cli\nassert cli.main({list(argv)!r}) == 0"
        modules = self.loaded(code, stdin)
        assert "pragrate.cli" in modules
        assert not modules & {*unloaded, "typing"}
