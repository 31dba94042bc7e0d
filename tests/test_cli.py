import contextlib
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from chainops.cli import (
    LEAST_VALUE,
    MAX_ROUNDTRIP_LENGTH,
    ParseError,
    build_parser,
    builtin_space,
    main,
    parse_inputs,
    parse_ring,
)
from chainops.operads import MAX_ARITY
from chainops.rings import QQ, ZZ


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@contextlib.contextmanager
def deadline(seconds, argv):
    """Fail a request that runs past seconds, naming it (SIGALRM)."""
    def expire(signum, frame):
        raise TimeoutError(f"chainops {' '.join(argv)} ran past "
                           f"{seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestParseRing:
    def test_known_rings(self):
        assert parse_ring("Z") is ZZ
        assert parse_ring("Q") is QQ
        assert parse_ring("Z/5").modulus == 5

    def test_bad_ring(self):
        with pytest.raises(ParseError):
            parse_ring("GF(4)")


class TestBuiltinSpaces:
    def test_names(self):
        assert builtin_space("circle", 0).dims()
        assert builtin_space("sphere2", 0).dims()
        assert max(builtin_space("bz2", 3).dims()) == 3

    def test_unknown(self):
        with pytest.raises(ParseError):
            builtin_space("moebius", 2)

    @pytest.mark.parametrize("name", ["sphere", "spherex", "sphere-1",
                                      "sphere+1", "sphere 2", "sphere1.5"])
    def test_bad_sphere_name_is_a_usage_error(self, capsys, name):
        assert main(["homology", "--space", name, "--ring", "Z"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"chainops: unknown space {name!r}\n"


class TestHomologyCommand:
    def test_circle_over_z(self, capsys):
        code, out = run(capsys, ["homology", "--space", "circle",
                                 "--ring", "Z"])
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["passed"] is True
        groups = {r["degree"]: r["group"] for r in report["results"]}
        assert groups[0] == "Z"
        assert groups[1] == "Z"

    def test_torus_over_z(self, capsys):
        code, out = run(capsys, ["homology", "--space", "torus",
                                 "--ring", "Z"])
        assert code == 0
        groups = {r["degree"]: r["group"]
                  for r in json.loads(out)["results"]}
        assert groups[1] == "Z^2"
        assert groups[2] == "Z"

    def test_tsv_format(self, capsys):
        code, out = run(capsys, ["--format", "tsv", "homology",
                                 "--space", "circle", "--ring", "Z/2"])
        assert code == 0
        assert out.strip().endswith("passed\ttrue")
        assert any(line.startswith("result\t") for line in out.splitlines())

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, ["homology", "--space", "torus",
                                "--ring", "Z"])
        _, second = run(capsys, ["homology", "--space", "torus",
                                 "--ring", "Z"])
        assert first == second


class TestFileInputs:
    def test_simplicial_circle_file(self, tmp_path, capsys):
        path = tmp_path / "circle.txt"
        path.write_text(
            "# a triangle\n"
            "simplex 0 v0 :\n"
            "simplex 0 v1 :\n"
            "simplex 0 v2 :\n"
            "simplex 1 e01 : faces v1 v0\n"
            "simplex 1 e12 : faces v2 v1\n"
            "simplex 1 e02 : faces v2 v0\n")
        code, out = run(capsys, ["homology", "--input", str(path),
                                 "--ring", "Z"])
        assert code == 0
        groups = {r["degree"]: r["group"]
                  for r in json.loads(out)["results"]}
        assert groups[0] == "Z"
        assert groups[1] == "Z"

    def test_simplicial_identities_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(
            "simplex 0 v0 :\n"
            "simplex 0 v1 :\n"
            "simplex 1 e : faces v0 v1\n"
            "simplex 2 t : faces e e e\n")
        code = main(["homology", "--input", str(path), "--ring", "Z"])
        assert code == 2

    def test_complex_file(self, tmp_path, capsys):
        path = tmp_path / "cx.txt"
        path.write_text(
            "ring Z\n"
            "module 0 a\n"
            "module 1 b\n"
            "d 1 a b 2\n")
        code, out = run(capsys, ["homology", "--input", str(path),
                                 "--ring", "Z"])
        assert code == 0
        groups = {r["degree"]: r["group"]
                  for r in json.loads(out)["results"]}
        assert groups[0] == "Z/2"

    def test_z4_complex_answers_in_time(self, tmp_path):
        # the Z/4 kernel of d_1 = A was once read off the Smith form of
        # [A | 4I], which grew without bound; it is now computed mod 4.
        # Run in a child so a stall fails, not hangs
        A = [[0, 0, 0, 0, 0, 3, 0, 2], [0, 3, 0, 2, 3, 3, 0, 0],
             [3, 1, 0, 3, 2, 1, 1, 1], [0, 0, 0, 3, 0, 3, 0, 0],
             [0, 3, 0, 3, 0, 3, 3, 0], [0, 3, 0, 3, 0, 3, 3, 0],
             [0, 0, 0, 0, 0, 0, 0, 0], [2, 0, 0, 2, 3, 0, 2, 3]]
        lines = ["ring Z/4",
                 "module 0 " + " ".join(f"a{i}" for i in range(8)),
                 "module 1 " + " ".join(f"b{j}" for j in range(8))]
        lines += [f"d 1 a{i} b{j} {c}" for i, row in enumerate(A)
                  for j, c in enumerate(row) if c]
        path = tmp_path / "z4.cx"
        path.write_text("\n".join(lines) + "\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "chainops.cli", "homology",
             "--input", str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        groups = {r["degree"]: r["group"]
                  for r in json.loads(proc.stdout)["results"]}
        assert groups == {0: "Z/4 + Z/4", 1: "Z/4 + Z/4"}

    def test_complex_d_squared_rejected(self, tmp_path, capsys):
        path = tmp_path / "cx.txt"
        path.write_text(
            "ring Z\n"
            "module 0 a\n"
            "module 1 b\n"
            "module 2 c\n"
            "d 1 a b 1\n"
            "d 2 b c 1\n")
        code = main(["homology", "--input", str(path), "--ring", "Z"])
        captured = capsys.readouterr()
        assert code == 2
        assert "degree 2" in captured.err

    def test_dga_file(self, tmp_path, capsys):
        path = tmp_path / "dga.txt"
        path.write_text(
            "dga\n"
            "generator 1 0 0\n"
            "generator x 1 1\n"
            "unit 1\n"
            "mul x x :\n")
        code, out = run(capsys, ["bar", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_ill_graded_product_reports_bar_window(self, tmp_path, capsys):
        # x.z lands in degree 3, not 2: the collapse of (x, z) jumps two
        # bar degrees and leaves the window below its top degree
        path = tmp_path / "dga.txt"
        path.write_text(
            "dga\n"
            "generator 1 0 0\n"
            "generator x 1 1\n"
            "generator z 1 1\n"
            "generator w 3 2\n"
            "unit 1\n"
            "mul x z : w 1\n"
            "mul z x : w -1\n")
        code, out = run(capsys, ["bar", "--input", str(path)])
        assert code == 1
        report = json.loads(out)
        checks = {f["check"] for f in report["failures"]}
        assert checks == {"bar-window"}

    def test_dga_leibniz_violation_rejected(self, tmp_path, capsys):
        path = tmp_path / "dga.txt"
        path.write_text(
            "dga\n"
            "generator 1 0 0\n"
            "generator x 1 1\n"
            "generator y 2 1\n"
            "generator z 4 2\n"
            "unit 1\n"
            "d x : y 1\n"
            "mul x x : z 1\n"          # d(x.x) != dx.x - x.dx
            "mul x y :\n"
            "mul y x :\n"
            "mul y y :\n"
            "mul x z :\n"
            "mul z x :\n"
            "mul y z :\n"
            "mul z y :\n"
            "mul z z :\n")
        code = main(["bar", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "x" in captured.err

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        assert main(["homology", "--input", str(path)]) == 2


class TestVerifierCommands:
    def test_w_resolution(self, capsys):
        code, out = run(capsys, ["w-resolution", "--p", "3", "--cap", "10"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_dold_kan_roundtrip(self, capsys):
        code, out = run(capsys, ["dold-kan-roundtrip", "--count", "3",
                                 "--seed", "1", "--length", "4"])
        assert code == 0
        report = json.loads(out)
        assert report["results"][0]["checked"] == 6

    @pytest.mark.parametrize("ring", ["Z/4", "Z/6"])
    def test_einfinity_check_over_composite_modulus(self, capsys, ring):
        # H_0 of each level is Z/m, as for the unit complex
        code, out = run(capsys, ["einfinity-check", "--arity-cap", "3",
                                 "--degree-cap", "2", "--ring", ring])
        assert code == 0
        assert json.loads(out)["failures"] == []

    def test_hopf_check_fixture(self, capsys):
        code, out = run(capsys, ["hopf-check", "--fixture",
                                 "square-generator"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_bar_top_degree_edge_passes(self, capsys):
        # words in the top degree lose their boundary to the window edge;
        # that does not count as a bar-window failure
        code, out = run(capsys, ["bar", "--fixture", "square-generator"])
        assert code == 0
        report = json.loads(out)
        assert report["failures"] == []
        assert report["results"] == [{"h0_rank": 1}]

    def test_bar_unknown_fixture(self):
        assert main(["bar", "--fixture", "nonsense"]) == 2

    def test_steenrod_rejects_odd_p(self):
        assert main(["steenrod", "--p", "3", "--space", "bz2",
                     "--dim", "3"]) == 2

    def test_steenrod_small(self, capsys):
        code, out = run(capsys, ["steenrod", "--p", "2", "--space", "bz2",
                                 "--dim", "3", "--degree-cap", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["results"]

    def test_report_written_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["--out", str(out_path), "w-resolution",
                     "--p", "2", "--cap", "6"])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["command"] == "w-resolution"
        assert report["parameters"]["p"] == 2


class TestBadPrime:
    # a --p that is not a prime is a usage error (exit 2, one line on
    # stderr), reported before any work starts
    @pytest.mark.parametrize("argv", [
        ["w-resolution", "--cap", "4"],
        ["cartan-check", "--space", "bz3", "--dim", "1"],
        ["adem-check", "--space", "bz3", "--dim", "1"],
    ])
    @pytest.mark.parametrize("p", ["4", "9", "1", "0", "-3"])
    def test_non_prime_p_is_a_usage_error(self, capsys, argv, p):
        assert main(argv + ["--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"chainops: --p must be a prime, got {p}\n"

    # the Cartan and Adem checks index the operations by the odd-prime
    # rule, which does not give the squares' relations at p = 2 (the Adem
    # check would read Sq^2 Sq^2 = 0 and pass on BZ/2)
    @pytest.mark.parametrize("command", ["cartan-check", "adem-check"])
    def test_p_2_is_refused_by_the_odd_prime_checks(self, capsys, command):
        assert main([command, "--p", "2", "--space", "bz2", "--dim", "6",
                     "--degree-cap", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"chainops: {command} needs an odd prime --p, got 2\n"


class TestOptionRanges:
    # a count or size option below its least value is a usage error
    # (exit 2, one line on stderr), reported before any work starts
    @pytest.mark.parametrize("argv, option, value", [
        (["operad-check"], "--arity-cap", "0"),
        (["einfinity-check"], "--arity-cap", "0"),
        (["operad-check"], "--degree-cap", "-1"),
        (["cartan-check", "--space", "bz3", "--dim", "1"], "--smax", "-1"),
        (["adem-check", "--space", "bz3", "--dim", "1"], "--amax", "-1"),
        (["w-resolution"], "--cap", "-1"),
        (["bar"], "--length-cap", "-1"),
        (["hopf-check"], "--degree-cap", "-1"),
        (["steenrod", "--space", "bz2", "--dim", "2"], "--degree-cap", "-1"),
        (["homology", "--space", "bz3"], "--dim", "-1"),
        (["dold-kan-roundtrip"], "--count", "-1"),
        (["dold-kan-roundtrip"], "--length", "-1"),
        (["dold-kan-roundtrip"], "--max-rank", "-1"),
    ])
    def test_out_of_range_option_is_a_usage_error(self, capsys, argv, option,
                                                  value):
        assert main(argv + [option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        least = {"--arity-cap": 1, "--amax": 2, "--cap": 1,
                 "--count": 1}.get(option, 0)
        if argv[0] == "steenrod":
            # squares start in degree 1: the same least value as for 0
            least = 1
        assert captured.err == \
            f"chainops: {option} must be at least {least}, got {value}\n"

    # a value that leaves the request nothing to compare is refused too,
    # not reported as a pass with nothing checked
    @pytest.mark.parametrize("argv, option, value, least", [
        (["adem-check", "--space", "bz3", "--dim", "3"], "--amax", "0", 2),
        (["adem-check", "--space", "bz3", "--dim", "3"], "--amax", "1", 2),
        (["w-resolution"], "--cap", "0", 1),
        (["dold-kan-roundtrip"], "--count", "0", 1),
        (["steenrod", "--space", "bz2", "--dim", "2"], "--degree-cap", "0",
         1),
    ])
    def test_request_comparing_nothing_is_a_usage_error(self, capsys, argv,
                                                        option, value, least):
        assert main(argv + [option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"chainops: {option} must be at least {least}, got {value}\n"

    @pytest.mark.parametrize("argv", [
        ["operad-check", "--arity-cap", "1", "--degree-cap", "0"],
        ["steenrod", "--space", "bz2", "--dim", "2", "--degree-cap", "1"],
        ["cartan-check", "--space", "bz3", "--dim", "1", "--smax", "0",
         "--degree-cap", "0"],
        ["adem-check", "--space", "bz3", "--dim", "1", "--amax", "2"],
        ["w-resolution", "--cap", "1"],
        ["dold-kan-roundtrip", "--count", "1", "--length", "0",
         "--max-rank", "0"],
        ["bar", "--length-cap", "0", "--degree-cap", "0"],
        ["homology", "--space", "bz3", "--dim", "0"],
    ])
    def test_least_values_are_accepted(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


class TestSizeBounds:
    # a request past a size bound exits 3 with one line on stderr
    @pytest.mark.parametrize("argv, message", [
        (["homology", "--space", "bz3", "--dim", "11"],
         "dimension cap exceeded (nmax <= 10)"),
        (["operad-check", "--degree-cap", "11"],
         "degree cap too large for exhaustive levels"),
        (["einfinity-check", "--arity-cap", "7", "--degree-cap", "0"],
         "arity cap too large for exhaustive levels (arity <= 4)"),
        (["operad-check", "--arity-cap", "5", "--degree-cap", "0"],
         "arity cap too large for exhaustive levels (arity <= 4)"),
        (["operad-check", "--arity-cap", "4", "--degree-cap", "3"],
         "operad check too large: 27462 composable and associativity "
         "tuples (at most 20000)"),
        (["cartan-check", "--space", "torus", "--p", "5", "--smax", "2",
          "--degree-cap", "2"],
         "Cartan check too large: 7350 relations over 35 classes (at most "
         "2000)"),
        # 1,176 relations, but at p = 7 the left side P^0(x cross y) of
        # weight 2, for x and y of degree one, reads e_12, of 1,323,652
        # words
        (["cartan-check", "--space", "circle", "--p", "7", "--smax", "2",
          "--degree-cap", "1"],
         "lift degree 12 has 1323652 words at p = 7 (at most 10000)"),
        (["einfinity-check", "--arity-cap", "4", "--degree-cap", "5"],
         "degree cap too large for exhaustive levels (105936 words at "
         "arity 4, at most 50000)"),
        (["einfinity-check", "--arity-cap", "4", "--degree-cap", "2",
          "--ring", "Z/4"],
         "E-infinity check too large: the Smith form at arity 4, degree 1 "
         "would be 144 x 744 (at most 100000 entries over Z/4)"),
        (["einfinity-check", "--arity-cap", "4", "--degree-cap", "2",
          "--ring", "Z"],
         "E-infinity check too large: the Smith form at arity 4, degree 2 "
         "would be 600 x 2160 (at most 100000 entries over Z)"),
        (["dold-kan-roundtrip", "--length", "11", "--max-rank", "3",
          "--count", "1"],
         "length cap exceeded for the roundtrip (length <= 8)"),
        # unbounded, building W took 31 s here
        (["w-resolution", "--p", "997", "--cap", "4"],
         "resolution too large: p^2 (cap + 1)^2 = 24850225 (at most "
         "1000000)"),
    ])
    def test_size_bound_exits_3(self, capsys, argv, message):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"chainops: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["einfinity-check", "--arity-cap", str(MAX_ARITY), "--degree-cap",
         "0"],
        ["dold-kan-roundtrip", "--length", str(MAX_ROUNDTRIP_LENGTH),
         "--max-rank", "1", "--count", "1"],
        # 9,034 of at most 20,000 sweep tuples
        ["operad-check", "--arity-cap", "4", "--degree-cap", "2"],
        # Smith forms of at most 90 x 276 entries, and 144 x 600 over Z;
        # over a field there is no Smith form
        ["einfinity-check", "--arity-cap", "3", "--degree-cap", "3",
         "--ring", "Z/4"],
        ["einfinity-check", "--arity-cap", "4", "--degree-cap", "1",
         "--ring", "Z"],
        ["einfinity-check", "--arity-cap", "4", "--degree-cap", "2",
         "--ring", "Z/2"],
        # p^2 (cap + 1)^2 = 984,064 of at most 1,000,000
        ["w-resolution", "--p", "31", "--cap", "31"],
    ])
    def test_the_bound_itself_is_accepted(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_exit_code_follows_the_error_type(self, monkeypatch):
        # a plain ValueError is not a size bound, whatever its wording
        def fail(args):
            raise ValueError("lift failed within the cap")
        monkeypatch.setattr("chainops.cli.cmd_homology", fail)
        with pytest.raises(ValueError, match="within the cap"):
            main(["homology", "--space", "circle"])


class TestOneParserPerProcess:
    """The parser is built once per process; every request after the
    first, an argparse error among them, answers as in a fresh process."""

    def test_interleaved_requests_match_fresh_processes(self, tmp_path,
                                                         capsys):
        report = tmp_path / "report.json"
        requests = [
            ["homology", "--space", "circle", "--ring", "Z/6"],
            ["homology", "--no-such-option"],
            ["--out", str(report), "homology", "--space", "torus"],
            ["--format", "tsv", "dold-kan-roundtrip", "--ring", "Z/4",
             "--count", "1"],
            ["steenrod", "--p", "4"],
            ["homology", "--space", "circle", "--ring", "Z/6"],
        ]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        codes = []
        for argv in requests:
            report.unlink(missing_ok=True)
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            captured = capsys.readouterr()
            here = (code, captured.out, captured.err,
                    report.read_text() if report.exists() else None)
            report.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "chainops.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60)
            fresh = (proc.returncode, proc.stdout, proc.stderr,
                     report.read_text() if report.exists() else None)
            assert here == fresh, argv
            codes.append(code)
        assert codes == [0, 2, 0, 0, 2, 0]


COMPLEX = "ring Z\nmodule 0 a b\nmodule 1 c\nd 1 a c 1\n"
DGA = "dga\ngenerator 1 0 0\nunit 1\ngenerator a 1 1\n"
SSET = "simplex 0 v :\nsimplex 1 e : faces v v\n"


class TestMalformedInputs:
    """A malformed input file exits 2 with one `chainops:` line naming the
    file, and the line when the fault sits on one."""

    @pytest.mark.parametrize("text, line", [
        ("ring\nmodule 0 a\n", 1),
        (COMPLEX + "module\n", 5),
        (COMPLEX + "module x a\n", 5),
        (COMPLEX + "d y a c 1\n", 5),
        (COMPLEX + "d 1 a c x\n", 5),
        ("ring Q\nmodule 0 a\nmodule 1 b\nd 1 a b 1/2\n", 4),
        ("ring Z\nmodule 0 a a\n", None),
        (DGA + "generator x\n", 5),
        (DGA + "generator x a 1\n", 5),
        ("dga\ngenerator 1 0 0\nunit\n", 3),
        ("dga\ngenerator 1 0 0\ngenerator x 1 1\nunit x\n", None),
        (DGA + "mul 1\n", 5),
        (DGA + "generator b 2 1\nd a : b q\n", 6),
        # a d or mul line without its ':' separator
        (DGA + "generator b 2 1\nd a b b 1\n", 6),
        (DGA + "mul 1 a x a 1\n", 5),
        # a bad ring line names the file and the line, as --ring does not
        ("ring GF(4)\nmodule 0 a\n", 1),
        ("module 0 a\nring Z/0\n", 2),
        ("simplex 0 v :\nsimplex 1 e : faces v.x.y v\n", 2),
        ("simplex 0 v :\nsimplex 1 e : faces sx.v v\n", 2),
    ])
    def test_malformed_file_exits_2(self, tmp_path, capsys, text, line):
        path = tmp_path / "in.txt"
        path.write_text(text)
        command = "bar" if text.startswith("dga") else "homology"
        assert main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        where = str(path) if line is None else f"{path}:{line}"
        assert captured.err.startswith(f"chainops: {where}: ")
        assert captured.err.count("\n") == 1

    def test_well_formed_bases_parse(self, tmp_path, capsys):
        for text, command in ((COMPLEX, "homology"), (DGA, "bar"),
                              (SSET, "homology")):
            path = tmp_path / "in.txt"
            path.write_text(text)
            assert main([command, "--input", str(path)]) == 0

    def test_homology_refuses_a_dga(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_text(DGA)
        assert main(["homology", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"chainops: {path}: homology needs a simplicial set or a "
            "complex input\n")


_TOKENS = {
    "complex": (["ring", "direction", "module", "d"],
                ["Z", "Q", "Z/2", "Z/4", "Z/0", "0", "1", "2", "-1", "x",
                 "a", "b", "1/2", "homological", "cohomological"]),
    "dga": (["dga", "generator", "unit", "d", "mul"],
            ["1", "0", "2", "-1", "a", "b", ":", "q", "1/2"]),
    "sset": (["simplex"],
             ["0", "1", "2", ":", "faces", "v", "w", "e", "s0.v", "s1.e",
              "s0s1.v", "v.x.y", "sx.v", "s9.v", "s-1.v"]),
}


@st.composite
def _input_file(draw):
    fmt = draw(st.sampled_from(sorted(_TOKENS)))
    keywords, tokens = _TOKENS[fmt]
    lines = [[keywords[0]] + draw(st.lists(st.sampled_from(tokens),
                                           max_size=5))]
    for _ in range(draw(st.integers(0, 6))):
        lines.append([draw(st.sampled_from(keywords))]
                     + draw(st.lists(st.sampled_from(tokens), max_size=5)))
    return fmt, "\n".join(" ".join(line) for line in lines) + "\n"


class TestMalformedInputsFuzzed:
    @settings(max_examples=300, deadline=None)
    @given(_input_file())
    def test_main_never_raises(self, drawn):
        fmt, text = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.txt")
            with open(path, "w") as fh:
                fh.write(text)
            argv = (["bar", "--input", path, "--length-cap", "2",
                     "--degree-cap", "2"] if fmt == "dga"
                    else ["homology", "--input", path])
            assert main(argv) in (0, 1, 2, 3)


# every integer option of every command, with the largest value drawn:
# dimensions up to 3, caps up to 2, and arity and length one past their
# size bounds (operads.MAX_ARITY, cli.MAX_ROUNDTRIP_LENGTH), so that the
# refusals are drawn; each is drawn from one below its least accepted
# value (cli.LEAST_VALUE; 2 for --p, the least prime) upward.  The
# operad commands draw degree caps up to 3, where their sweep bounds
# refuse (operads.MAX_SWEEP_TUPLES at arity 4, MAX_SMITH_ENTRIES over Z
# and Z/4).
_LARGEST = {"dim": 3, "arity_cap": MAX_ARITY + 1, "degree_cap": 2,
            "length_cap": 2, "smax": 2, "cap": 2, "amax": 3, "count": 2,
            "length": MAX_ROUNDTRIP_LENGTH + 1,
            "max_rank": 2, "p": 5, "seed": 3}
_LARGEST_FOR = {"operad-check": {"degree_cap": 3},
                "einfinity-check": {"degree_cap": 3}}
_SPACES = ["circle", "torus", "sphere2", "bz2", "bz3", "bz5", "sphere"]
_RINGS = ["Z", "Q", "Z/2", "Z/3", "Z/4", "Z/1", "F"]
_FIXTURES = ["trivial", "one-generator", "square-generator", "none"]
_SPACE_OPTIONS = {"space": _SPACES, "dim": int}
_OPTIONS = {
    "homology": dict(_SPACE_OPTIONS, ring=_RINGS),
    "dold-kan-roundtrip": {"count": int, "seed": int, "length": int,
                           "max_rank": int, "ring": ["default"] + _RINGS},
    "operad-check": {"arity_cap": int, "degree_cap": int, "ring": _RINGS},
    "einfinity-check": {"arity_cap": int, "degree_cap": int,
                        "ring": _RINGS},
    "steenrod": dict(_SPACE_OPTIONS, p=int, degree_cap=int),
    "cartan-check": dict(_SPACE_OPTIONS, p=int, smax=int, degree_cap=int),
    "adem-check": dict(_SPACE_OPTIONS, p=int, amax=int, degree_cap=int),
    "w-resolution": {"p": int, "cap": int},
    "bar": {"fixture": _FIXTURES, "length_cap": int, "degree_cap": int},
    "hopf-check": {"fixture": _FIXTURES, "length_cap": int,
                   "degree_cap": int},
}


def _least(command, option):
    if option == "p":
        return 2
    if option == "seed":
        return 0
    return LEAST_VALUE.get(command, {}).get(
        option, LEAST_VALUE[None][option])


@st.composite
def _request(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for option, values in _OPTIONS[command].items():
        if values is int:
            largest = _LARGEST_FOR.get(command, {}).get(option,
                                                        _LARGEST[option])
            value = draw(st.integers(_least(command, option) - 1, largest))
        else:
            value = draw(st.sampled_from(values))
        argv += ["--" + option.replace("_", "-"), str(value)]
    return draw(st.sampled_from(["json", "tsv"])), argv


class TestRequestsFuzzed:
    """Every small request of every command ends in a report or in one
    usage line, never in a traceback."""

    def test_every_option_of_every_command_is_drawn(self):
        assert len(_OPTIONS) == 10
        for command, options in _OPTIONS.items():
            defaults = vars(build_parser().parse_args([command]))
            assert set(options) == set(defaults) - {
                "command", "out", "format", "input"}, command

    # some requests the strategy can draw run for minutes, since the
    # verifiers sweep every class of a degree (cartan-check on the torus
    # at p = 5): each request gets REQUEST_SECONDS and one that runs past
    # them fails the test, named in the message, without shrinking.
    # Derandomized so that every run draws the same examples.
    REQUEST_SECONDS = 10

    @settings(max_examples=200, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.generate])
    @given(_request())
    # the smallest requests past the operad size bounds
    @example(("json", ["operad-check", "--arity-cap", "4", "--degree-cap",
                       "3", "--ring", "Z/2"]))
    @example(("json", ["einfinity-check", "--arity-cap", "4",
                       "--degree-cap", "5", "--ring", "Z/2"]))
    @example(("tsv", ["einfinity-check", "--arity-cap", "4",
                      "--degree-cap", "1", "--ring", "Z/4"]))
    @example(("json", ["einfinity-check", "--arity-cap", "4",
                       "--degree-cap", "2", "--ring", "Z"]))
    def test_main_never_raises(self, drawn):
        fmt, argv = drawn
        with deadline(self.REQUEST_SECONDS, argv), \
                tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "report")
            assert main(["--format", fmt, "--out", out] + argv) \
                in (0, 1, 2, 3)


class TestPowerOperationsOnSpheres:
    """Power operations on the minimal spheres finish well inside a
    request's time: their cost is the interval cuts of long words, which
    are generated, not filtered out of every product of compositions
    (each of the first three ran past 40 s that way).  On sphere12 the
    Adem check decides each side by its degrees first: evaluating P^0 x
    in full, only for a P^2 that leaves the skeleton, grew the lift to
    degree 24 and took about 40 s."""

    REQUEST_SECONDS = 10

    @pytest.mark.parametrize("argv", [
        ["steenrod", "--space", "sphere16", "--degree-cap", "16"],
        ["steenrod", "--space", "sphere32", "--degree-cap", "32"],
        ["adem-check", "--space", "sphere8", "--degree-cap", "8",
         "--amax", "2"],
        ["adem-check", "--space", "sphere12", "--degree-cap", "12",
         "--amax", "2"],
    ], ids=["steenrod-sphere16", "steenrod-sphere32", "adem-sphere8",
            "adem-sphere12"])
    def test_passes_in_time(self, capsys, argv):
        with deadline(self.REQUEST_SECONDS, argv):
            code, out = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestLargePrimes:
    """A verifier at a large p builds no resolution, since the lift is a
    function of p alone; building W to degree 101 at p = 101 took over
    80 s."""

    REQUEST_SECONDS = 10

    @pytest.mark.parametrize("argv, checked", [
        (["adem-check", "--space", "circle", "--p", "101", "--degree-cap",
          "0", "--amax", "2"], 404),
        (["cartan-check", "--space", "circle", "--p", "31", "--smax", "0",
          "--degree-cap", "0"], 1922),
    ], ids=["adem-p101", "cartan-p31"])
    def test_passes_in_time(self, capsys, argv, checked):
        with deadline(self.REQUEST_SECONDS, argv):
            code, out = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["results"] == [{"checked": checked}]
