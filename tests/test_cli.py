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

import pytest

import pragrate
from pragrate import approximations, cli, coding, exact_limits
from pragrate.cli import main
from pragrate.distributions import SourcePmf
from pragrate.exponents import solve_alpha_star


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv, python_flags=(), stdin=None):
    """Run ``python -m pragrate`` in a child process, with ``stdin`` (text)
    as its input, so an uncaught exception shows up as a traceback on
    stderr and exit code 1."""
    src = str(pathlib.Path(pragrate.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, *python_flags, "-m", "pragrate", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


GOLDEN_EPS = "0.00003,0.0001,0.00032,0.00093,0.00251,0.00626,0.01444"


class TestLadderCommand:
    def test_markdown_reproduces_exact_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "ladder", "--source", "0.2,0.8", "--n", "50",
            "--eps", GOLDEN_EPS, "--format", "markdown",
        )
        assert code == 0
        exact_cells = [line.split("|")[2].strip() for line in out.splitlines()[2:]]
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
    and the deep regime, where epsilon prints 0.0 and strassen prints '-'.
    The digests were recorded with CPython on x86-64 Linux."""

    GOLDEN = ("ladder", "--source", "0.2,0.8", "--n", "50", "--eps", GOLDEN_EPS)
    SWEEP = ("ladder", "--source", "0.1,0.2,0.4,0.3", "--n", "50:300:50",
             "--delta", "0.05,0.2", "--no-exact")  # 0.2 > D(U||P) = 0.1757
    DEEP = ("ladder", "--source", "0.2,0.8", "--n", "20000", "--delta", "0.07", "--no-exact")

    @pytest.mark.parametrize("argv, digest", [
        (GOLDEN + ("--format", "csv"),
         "d87ee7e48e3b4c1973d843ac660891b65e3a01726074ab8e50524eb9201a146f"),
        (GOLDEN + ("--format", "markdown"),
         "01efd00abfb2a1e545b42d51a6dcdfb3a1a3beee8df906c012f83f022fea531b"),
        (GOLDEN + ("--format", "json"),
         "6f15a334237d94e6c2ab2af459c8945dfa01ae094bd7f341466511fd74aa078b"),
        (GOLDEN + ("--mode", "prefix", "--format", "csv"),
         "dbc5f3a01f32c96925722ae9f2ea25ef59bdf5e0a428755bf59987f5aa05c5d3"),
        (GOLDEN + ("--mode", "prefix", "--format", "markdown"),
         "74490da5124f6dda76b25414eef4b45c5163fb5ece5bd13b572b0dc85645266b"),
        (GOLDEN + ("--mode", "prefix", "--format", "json"),
         "062949e74a96e1a16adccb77e419b5e7a36478a6ebe48a6df86b2c6435b8bd4f"),
        (SWEEP + ("--format", "csv"),
         "00669eb067c582ceae27ee895916ee28772efe6bce3b076d9b48ae1825cd1489"),
        (SWEEP + ("--format", "markdown"),
         "9fa342f9fa182747d503dfda96fd5b87e92d02e9b3c1a1b3d3d5143e584ca8f9"),
        (SWEEP + ("--format", "json"),
         "98f8cee94fcb060d45e864781c29da29fff1e559a831b41752ef7656a0c55ace"),
        (DEEP + ("--format", "csv"),
         "84267e1f26d042894ed8cd7236ea8970838a460d6cba6008a89ed8e2feb5ac97"),
        (DEEP + ("--format", "markdown"),
         "dea9ffd8e102f463558cba5c6055ec6a8ecc5197d485e5c118da52c06c2da57c"),
        (DEEP + ("--format", "json"),
         "77a400d7b835b5002dab29ae68b232c70b5ae5d57c2efb3e09059d2441667457"),
    ], ids=[f"{table}-{fmt}" for table in ("golden", "golden_prefix", "sweep_note", "deep")
            for fmt in ("csv", "markdown", "json")])
    def test_cli_tables(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert _sha256(out + err) == digest

    def test_csv_at_four_digits(self):
        rows = approximations.compute_rate_ladders(
            SourcePmf.parse("0.2,0.8"), 50, [float(e) for e in GOLDEN_EPS.split(",")]
        )
        assert _sha256(approximations.ladder_to_csv(rows, digits=4)) == (
            "d3e8be900cadae7bf692aa0dfa00b736e62ed4893a8d609ab49026271b85e777"
        )


class TestLimitsCommand:
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
        # their float entropy with others, so the codec lists the classes of
        # their levels; everywhere else it ranks within one orbit
        o = pragrate.build_ordering(pragrate.UNIVERSAL, 50, 4)
        parts = [tuple(o.parts[j:j + 3]) for j in range(0, len(o.parts), 3)]  # the 3 smallest
        levels = [parts[a:b] for a, b in zip(o.starts, o.starts[1:])]
        for asc in ((3, 3, 12, 32), (2, 14, 16, 18)):
            level = next(level for level in levels if asc[:3] in level)
            assert len(level) >= 2
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
        assert header == f"# mode=known m=3 n=5 alphabet=abc src={digest}"
        infile = tmp_path / "strings.txt"
        infile.write_text(self.FOUND_STRINGS)
        code, out, _ = run_cli(capsys, "codec", "encode", "--mode", "universal", "--source",
                               "0.2,0.3,0.5", "--alphabet", "abc", "--n", "5", str(infile))
        assert code == 0 and out.splitlines()[0] == "# mode=universal m=3 n=5 alphabet=abc"

    def test_decode_refuses_another_source(self):
        coded = self._encode_known()
        digest = coded.splitlines()[0].split("src=")[1]
        other = hashlib.sha256(repr((0.5, 0.3, 0.2)).encode()).hexdigest()[:16]
        code, out, err = run_cli_process("codec", "decode", "--source", "0.5,0.3,0.2", stdin=coded)
        assert (code, out) == (2, "")
        assert err == (f"error: codeword stream was encoded under source src={digest}, "
                       f"but --source has src={other}\n")

    def test_header_without_digest_decodes_unchecked(self):
        header, *words = self._encode_known().splitlines()
        legacy = "\n".join([header.split(" src=")[0], *words]) + "\n"
        code, out, err = run_cli_process("codec", "decode", "--source", "0.2,0.3,0.5", stdin=legacy)
        assert (code, out) == (0, self.FOUND_STRINGS)
        assert err == "warning: codeword header has no src= digest; the --source pmf is unchecked\n"

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
        # cannot take; it is a note, not an error.  The pragmatic rate is
        # about -3.8e7 there, so it is a note too
        code, out, err = run_cli(capsys, "ladder", "--source", "0.2,0.8", "--n", "5", "--delta", "1e-17")
        assert code == 0
        header, row = [line.split(",") for line in out.splitlines()]
        cells = dict(zip(header, row))
        assert cells["epsilon"] == "1.0" and cells["strassen"] == "-" and cells["pragmatic"] == "-"
        assert all(cells[c] != "-" for c in ("exact", "shannon", "blahut"))
        assert err == (
            "note: pragmatic column unavailable: -3.78259e+07 bits/symbol is below 0; "
            "strassen column unavailable: epsilon = 2**-5e-17 rounds to 1 in a double\n"
        )

    def test_negative_rates_print_dash_with_a_note(self, capsys):
        # at n=5, delta=1e-10, epsilon is just below 1: strassen is -1.717
        # and pragmatic -10934.8 bits/symbol, so both print '-'
        code, out, err = run_cli(
            capsys, "ladder", "--source", "0.2,0.8", "--n", "5", "--delta", "1e-17,1e-10"
        )
        assert code == 0
        header, *rows = [line.split(",") for line in out.splitlines()]
        for row in rows:
            cells = dict(zip(header, row))
            assert cells["strassen"] == cells["pragmatic"] == "-"
            assert all(cells[c] != "-" for c in ("exact", "shannon", "blahut"))
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

    def test_one_solve_per_delta(self, capsys):
        solve_alpha_star.cache_clear()
        code, out, _ = run_cli(capsys, *self.ARGV)
        assert code == 0
        assert len(out.splitlines()) == 1 + 40 * 2
        assert solve_alpha_star.cache_info().misses == 2

    def test_per_source_terms_once_per_source(self, capsys, monkeypatch):
        # H(P) and sigma(P) do not depend on n: one call each for 40 blocklengths
        calls = []
        for name in ("shannon_rate", "coding_variance_bits"):
            original = getattr(approximations, name)
            counting = lambda p, name=name, original=original: calls.append(name) or original(p)
            monkeypatch.setattr(approximations, name, counting)
        approximations._source_terms.cache_clear()
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
    ], ids=["n_range_with_zero", "non_integer_n", "zero_step"])
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

    @pytest.mark.parametrize("header, message", [
        ("# mode=universal m=2 n=abc alphabet=ab", "codeword header: bad m or n"),
        ("# mode=universal m=3 n=4 alphabet=ab", "codeword header: alphabet 'ab' does not have m=3"),
        ("# mode=foo m=2 n=4 alphabet=ab", "codeword header: mode must be 'known' or 'universal'"),
        ("# mode=universal m=2 n=4 alphabet=aa", "alphabet must be >= 2 distinct symbols"),
    ], ids=["n_not_integer", "alphabet_shorter_than_m", "unknown_mode", "repeated_symbol"])
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
        # the walks nest m - 2 frames: a RecursionError traceback (exit 1) before the refusal
        argv = (("codec", "encode", "--mode", "universal", "--alphabet", "".join(map(chr, range(256, 1756))),
                 "--n", "2") if codec else ("census", "--n", "5", "--m", "1000000", "--threshold-bits", "0.5"))
        code, out, err = run_cli_process(*argv, stdin="")
        assert code == 3 and "Traceback" not in err
        assert err.startswith("resource limit: m=1") and "recursion limit" in err

    def test_decode_past_the_ordering_names_the_index_by_its_bits(self):
        # the codeword of 15,000 ones is index 2**15001 - 1 of 2**15000
        # strings, both past the 4,300-digit limit of an int's str
        stream = "# mode=universal m=2 n=15000 alphabet=ab\n" + "1" * 15000 + "\n"
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
        "coded": ("coded.txt", "# mode=universal m=2 n=4 alphabet=ab\n100\n"),
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
