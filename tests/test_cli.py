import ast
import hashlib
import io
import os
import random
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import cpu_s_and_peak_rss_mb_under_1_gib, random_graph, star
from lcfoliage.cli import main
from lcfoliage.graph import Graph
from lcfoliage.graph6 import decode_graph6, decode_weighted, encode_graph6
from lcfoliage.orbits import graph_for_partition

P4 = "Ch"
C5 = "Dhc"
K5 = "D~{"
S5 = "Ds_"
K23 = "D]o"
P3 = "Bg"
TWO_K2 = "C`"

WEIGHTED_TRIANGLE = "d 3 n 3\n0 1 1\n0 2 2\n1 2 2\n"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_foliage_text(capsys):
    rc, out, _ = run(capsys, "foliage", "--g6", P4)
    assert rc == 0
    assert out == "parts=[{0,1}AL:a1,{2,3}AL:a2] edges=[(0,1)]\n"
    rc, out, _ = run(capsys, "foliage", "--g6", K5)
    assert out == "parts=[{0,1,2,3,4}K] edges=[]\n"
    rc, out, _ = run(capsys, "foliage", "--g6", K23)
    assert out == "parts=[{0,1}D,{2,3,4}D] edges=[(0,1)]\n"


def test_foliage_json(capsys):
    rc, out, _ = run(capsys, "foliage", "--json", "--g6", P4)
    assert rc == 0
    assert out == (
        '{"n":4,"parts":[{"vertices":[0,1],"type":"AL","axil":1},'
        '{"vertices":[2,3],"type":"AL","axil":2}],"edges":[[0,1]]}\n'
    )


def test_foliage_weighted(capsys, tmp_path):
    src = tmp_path / "triangle.txt"
    src.write_text(WEIGHTED_TRIANGLE)
    rc, out, _ = run(capsys, "foliage", "--weighted", str(src))
    assert rc == 0
    assert out == "parts=[{0,1,2}]\n"


def child_env(**extra):
    """The environment of a child process that imports this checkout's package."""
    import lcfoliage

    src = str(Path(lcfoliage.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **extra)


def run_child(argv, stdin, **kwargs):
    """The CLI in a child process that imports this checkout's package."""
    return subprocess.run(
        [sys.executable, "-m", "lcfoliage", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=child_env(),
        **kwargs,
    )


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from Linux's /proc")
def test_foliage_on_a_dense_2000_vertex_graph_stays_small():
    # G(2000, 1/2): its body bits are uniform; the quotient has about 10**6
    # edges, written row by row
    setup = (
        "import random\n"
        "n = 2000\n"
        "bits = format(random.Random(1).getrandbits(n * (n - 1) // 2), f'0{n * (n - 1) // 2}b') + '00'\n"
        "text = '~?^O' + ''.join(chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6))\n"
        "del bits\n"
    )
    code = "from lcfoliage.cli import main\nassert main(['-o', os.devnull, 'foliage', '--g6', text]) == 0\n"
    assert cpu_s_and_peak_rss_mb_under_1_gib(setup, code)[1] < 80


def test_weighted_header_with_an_18_digit_prime_modulus_is_quick():
    # trial division up to the square root needs 5 * 10**8 divisions for this modulus
    proc = run_child(["foliage", "--weighted", "-"], "d 1000000000000000003 n 2\n", timeout=10)
    assert proc.returncode == 0
    assert proc.stdout == "parts=[{0},{1}]\n"


def test_weighted_modulus_from_2_to_the_64_exits_2():
    proc = run_child(["foliage", "--weighted", "-"], f"d {(1 << 64) + 13} n 2\n", timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == "error: modulus 18446744073709551629 is not below 2**64\n"


def cpu_s_of(pid):
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")  # utime + stime


@pytest.mark.skipif(sys.platform != "linux", reason="the child's CPU time is read from Linux's /proc")
def test_interrupt_ends_as_one_line_with_exit_130():
    # the n = 9 census runs for about 20 CPU s; the child is interrupted once
    # it has spent half a second, well past its imports
    with subprocess.Popen(
        [sys.executable, "-m", "lcfoliage", "classes", "--n", "9"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        # a shell that starts the tests in the background ignores SIGINT for them
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    ) as proc:
        try:
            deadline = time.monotonic() + 60
            while proc.poll() is None and cpu_s_of(proc.pid) < 0.5 and time.monotonic() < deadline:
                time.sleep(0.02)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # nothing, once the child has exited
    assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")


def test_lc(capsys):
    rc, out, _ = run(capsys, "lc", "0", "--g6", S5)
    assert (rc, out) == (0, "D~{\n")
    rc, out, _ = run(capsys, "lc", "1", "--g6", S5)
    assert out == "Ds_\n"  # leaf pivot changes nothing


def test_qlc(capsys, tmp_path):
    src = tmp_path / "triangle.txt"
    src.write_text(WEIGHTED_TRIANGLE)
    rc, out, _ = run(capsys, "qlc", "star", "0", "1", str(src))
    assert rc == 0
    assert out == "d 3 n 3\n0 1 1\n0 2 2\n1 2 1\n"
    rc, out, _ = run(capsys, "qlc", "scale", "2", "2", str(src))
    assert out == "d 3 n 3\n0 1 1\n0 2 1\n1 2 1\n"
    round_trip = decode_weighted(out)
    assert round_trip.d == 3 and round_trip.n == 3


# two weighted graphs given by formulas; the d = 7 star move at vertex 2
# adds, changes and cancels weights
WEIGHTED_D5 = "d 5 n 12\n" + "".join(
    f"{u} {v} {(u + 2 * v) % 4 + 1}\n" for u in range(12) for v in range(u + 1, 12) if (u * u + v) % 3 == 1
)
WEIGHTED_D7 = "d 7 n 15\n" + "".join(
    f"{u} {v} {(u * v) % 6 + 1}\n" for u in range(15) for v in range(u + 1, 15) if (u + v) % 4 != 1 and (u ^ v) % 5
)


@pytest.mark.parametrize(
    "text, argv, digest",
    [
        (WEIGHTED_D5, ["star", "2", "3"], "d35b5b6bde0f56e6aabc308c1d0e9287244bab5785226d4a7864e29a27e9fa0d"),
        (WEIGHTED_D5, ["scale", "2", "3"], "2b0d2728b22cac5dcd12d736fec6a1e18409e26e87d073a9998da3c6c2c0ed6e"),
        (WEIGHTED_D7, ["star", "2", "2"], "0b0d5ac57b57a52b5ca2a08525a9ba8b774f07111e7772d22cdf2dd486ad8bc3"),
        (WEIGHTED_D7, ["scale", "5", "6"], "606e95706809431d63adc2a37ec5b138e97cdb04495ec91675d01f4bdbf76d7b"),
    ],
    ids=["d5-star", "d5-scale", "d7-star", "d7-scale"],
)
def test_qlc_output_is_frozen(capsys, tmp_path, text, argv, digest):
    src = tmp_path / "weighted.txt"
    src.write_text(text)
    rc, out, _ = run(capsys, "qlc", *argv, str(src))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_normal_form(capsys):
    rc, out, _ = run(capsys, "normal-form", "--g6", S5)
    assert (rc, out) == (0, "D~{\n")
    rc, out, _ = run(capsys, "normal-form", "--g6", C5)
    assert out == C5 + "\n"


def test_saturation(capsys):
    rc, out, _ = run(capsys, "saturation", "--g6", K5)
    assert (rc, out) == (0, "time=1 size=1 chain=[5,1]\n")
    rc, out, _ = run(capsys, "saturation", "--g6", C5)
    assert out == "time=0 size=5 chain=[5]\n"


def test_saturation_per_component(capsys):
    rc, out, _ = run(capsys, "saturation", "--g6", TWO_K2)
    assert rc == 0
    assert out == (
        "time=1 size=2 chain=[4,2]\n"
        "component={0,1} time=1 size=1 chain=[2,1]\n"
        "component={2,3} time=1 size=1 chain=[2,1]\n"
    )


def test_entropy(capsys):
    rc, out, _ = run(capsys, "entropy", "--subset", "0,1", "--g6", C5)
    assert (rc, out) == (0, "subset={0,1} entropy=2\n")
    rc, out, _ = run(capsys, "entropy", "--mask", "0x3", "--g6", C5)
    assert out == "subset={0,1} entropy=2\n"
    rc, out, _ = run(capsys, "entropy", "--subset", "", "--g6", C5)
    assert out == "subset={} entropy=0\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--subset", "0,x", "bad subset entry 'x'"),
        ("--subset", "0,5", "subset vertex 5 out of range"),
        ("--mask", "0x20", "subset mask has bits outside the vertex range"),
        ("--mask", "-1", "subset mask must be nonnegative"),
    ],
    ids=["entry", "vertex", "mask-above", "mask-negative"],
)
def test_entropy_subset_errors_exit_2(capsys, option, value, message):
    assert run(capsys, "entropy", option, value, "--g6", C5) == (2, "", f"error: {message}\n")


def test_schmidt(capsys):
    rc, out, _ = run(capsys, "schmidt", "--g6", "A_")
    assert rc == 0
    assert out == "mask,size,entropy\n0,0,0\n1,1,1\n2,1,1\n3,2,0\n"


def test_schmidt_csv_digest_on_a_random_14_vertex_graph(capsys):
    # random_graph(14, 0.5, random.Random(14)) from conftest; the digest pins
    # all 16384 rows of the CSV
    rc, out, _ = run(capsys, "schmidt", "--g6", "MhZcxlIigyy`Fmw}_")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c05626393a4de92d93db2663c3b7f589eef1036199df7ed2e514a88dcb71afee"
    )


def test_uniformity(capsys):
    rc, out, _ = run(capsys, "uniformity", "--g6", C5)
    assert (rc, out) == (0, "k_max=2 witness=none\n")
    rc, out, _ = run(capsys, "uniformity", "--g6", K5)
    assert out == "k_max=1 witness={0,1}\n"
    rc, out, _ = run(capsys, "uniformity", "--g6", TWO_K2)
    assert out == "k_max=1 witness={0,1}\n"


def test_orbit(capsys):
    rc, out, _ = run(capsys, "orbit", "--g6", P3)
    assert (rc, out) == (0, "labeled=4 classes=2\n")


def test_orbit_members_stdout(capsys):
    rc, out, _ = run(capsys, "orbit", "--members", "-", "--g6", P3)
    assert rc == 0
    assert out == "Bg\nBW\nBo\nBw\nlabeled=4 classes=2\n"


def test_orbit_members_file(capsys, tmp_path):
    target = tmp_path / "members.g6"
    rc, out, _ = run(capsys, "orbit", "--members", str(target), "--g6", P3)
    assert rc == 0
    assert out == "labeled=4 classes=2\n"
    lines = target.read_text().splitlines()
    assert lines == ["Bg", "BW", "Bo", "Bw"]
    assert all(decode_graph6(s).n == 3 for s in lines)


@pytest.mark.parametrize(
    "argv",
    [["orbit", "--g6", P4, "--members"], ["classes", "--n", "4", "--reps"]],
    ids=["members", "reps"],
)
def test_an_empty_output_path_writes_to_stdout(capsys, argv):
    # as with -o "", an empty --members or --reps path means stdout
    dash = run(capsys, *argv, "-")
    assert dash[0] == 0 and dash[1]
    assert run(capsys, *argv, "") == dash
    assert run(capsys, "-o", "", *argv, "") == dash


def test_aut(capsys):
    rc, out, _ = run(capsys, "aut", "--g6", K5)
    assert rc == 0
    assert out == (
        "order=120 aut_in=120 aut_out_upper=1 L=6 C=2 interplay=40.00\n"
        "generators=[(3 4),(2 3),(1 2),(0 1)]\n"
    )


def test_classes_count(capsys):
    rc, out, _ = run(capsys, "classes", "--n", "4")
    assert (rc, out) == (0, "2\n")
    rc, out, _ = run(capsys, "classes", "--n", "4", "--all")
    assert out == "6\n"


def test_classes_csv(capsys):
    rc, out, _ = run(capsys, "classes", "--n", "4", "--csv")
    assert rc == 0
    assert out == (
        "class_id,n,partition,aut_in,aut_out_upper,aut_order,L,C,I\n"
        "1,4,4,24,1,24,5,2,9.60\n"
        "2,4,2+2,4,2,8,11,4,2.91\n"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--n", "7"), "f92efd7dc0375c2bd56b55d3d6e7567cac2e29449c4704f92d24c4744c0282c9"),
        (("--n", "7", "--all"), "09f6608dc1cc3ad9134e1dea693b045fa573b6fd05407a7b49495ad298098a9b"),
        pytest.param(
            ("--n", "8"),
            "c74e43650cebef44fe31855abf321ac391e0b784ad6e013ca82af7d43af0648c",
            marks=pytest.mark.slow,
        ),
    ],
)
def test_classes_csv_is_frozen(capsys, argv, digest):
    # sha256 of the symmetry tables as they were when each row was read
    # from lc_automorphism_group of the class representative
    rc, out, _ = run(capsys, "classes", *argv, "--csv")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_classes_reps(capsys, tmp_path):
    target = tmp_path / "reps.g6"
    rc, out, _ = run(capsys, "classes", "--n", "4", "--reps", str(target))
    assert rc == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 2
    assert all(decode_graph6(s).n == 4 for s in lines)


def test_classes_csv_with_reps_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "reps.g6"
    with pytest.raises(SystemExit) as exc:
        main(["classes", "--n", "3", "--csv", "--reps", str(target)])
    assert exc.value.code == 2
    assert "argument --reps: not allowed with argument --csv" in capsys.readouterr().err
    assert not target.exists()


def test_foliage_weighted_with_json_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["foliage", "--weighted", "--json", "--g6", "d 3 n 2\n0 1 1\n"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --json: not allowed with argument --weighted" in out.err


def test_stats(capsys):
    rc, out, _ = run(capsys, "stats", "--n", "5")
    assert rc == 0
    assert out == "time=1.25 size=2.00 reducible=0.75 fully_reducible=0.75\n"
    rc, out, _ = run(capsys, "stats", "--n", "6", "--csv")
    assert out == "1.55,2.27,0.82,0.73\n"


def test_bound(capsys):
    rc, out, _ = run(capsys, "bound", "--n", "8")
    assert (rc, out) == (0, "p=22 bound=19\n")
    rc, out, _ = run(capsys, "bound", "--n", "2")
    assert out == "p=2 bound=1\n"


def test_construct(capsys):
    rc, out, _ = run(capsys, "construct", "--partition", "2,3")
    assert rc == 0
    assert decode_graph6(out.strip()) == graph_for_partition([2, 3])
    rc, out, _ = run(capsys, "construct", "--partition", "1,1,1,1,1")
    assert decode_graph6(out.strip()) == graph_for_partition([1, 1, 1, 1, 1])


@pytest.mark.parametrize("partition", ["2000000", "1,1,258046"])
def test_construct_refuses_a_graph6_overflow_before_building(capsys, monkeypatch, partition):
    def unbuilt(sizes):
        raise AssertionError(f"built a graph on {sum(sizes)} vertices")

    monkeypatch.setattr("lcfoliage.orbits.graph_for_partition", unbuilt)
    rc, out, err = run(capsys, "construct", "--partition", partition)
    total = sum(map(int, partition.split(",")))
    assert (rc, out) == (2, "")
    assert err == f"error: part sizes sum to {total}, but graph6 holds at most n = 258047\n"


def test_bound_refuses_n_above_the_partition_limit():
    # in a child with a time limit: an unguarded p(10**7) runs for hours
    proc = run_child(["bound", "--n", "10000000"], "", timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: partition numbers are limited to n <= 240000\n"


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    rc, out, _ = run(capsys, "-o", str(target), "bound", "--n", "8")
    assert rc == 0
    assert out == ""
    assert target.read_text() == "p=22 bound=19\n"


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(K5 + "\n"))
    rc, out, _ = run(capsys, "foliage", "-")
    assert (rc, out) == (0, "parts=[{0,1,2,3,4}K] edges=[]\n")


def test_file_input(capsys, tmp_path):
    src = tmp_path / "g.g6"
    src.write_text(K5 + "\n")
    rc, out, _ = run(capsys, "saturation", str(src))
    assert (rc, out) == (0, "time=1 size=1 chain=[5,1]\n")


def test_bad_input_exits_2(capsys):
    rc, _, err = run(capsys, "foliage", "--g6", "A")
    assert rc == 2
    assert err.startswith("error:")
    rc, _, err = run(capsys, "construct", "--partition", "1,4")
    assert rc == 2
    rc, _, err = run(capsys, "construct", "--partition", "a,b")
    assert rc == 2
    rc, _, err = run(capsys, "entropy", "--subset", "0,9", "--g6", P4)
    assert rc == 2
    rc, _, err = run(capsys, "foliage", "missing-file.g6")
    assert rc == 2
    rc, _, err = run(capsys, "foliage")
    assert rc == 2  # no input at all


@pytest.mark.parametrize(
    "argv",
    [
        ["-o", "BAD", "lc", "0", "--g6", S5],
        ["orbit", "--members", "BAD", "--g6", P3],
        ["classes", "--n", "4", "--reps", "BAD"],
    ],
)
def test_unwritable_path_exits_2(capsys, tmp_path, argv):
    bad = str(tmp_path / "missing" / "x")
    rc, out, err = run(capsys, *[bad if a == "BAD" else a for a in argv])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {bad}: ")
    assert err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_stdout_write_error_is_one_line_with_exit_2(unbuffered):
    # a buffered stdout fails at the flush, an unbuffered one at the write
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "lcfoliage", "classes", "--n", "6", "--reps", "-"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(PYTHONUNBUFFERED=unbuffered),
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_is_not_a_write_error(unbuffered):
    # the reader went away, as under ``| head``: exit 1 with no error line
    # and no traceback, also from the flush at exit
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lcfoliage", "classes", "--n", "6", "--reps", "-"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--n", "0"],
        ["classes", "--n", "-1", "--csv"],
        ["classes", "--n", "0", "--all"],
        ["stats", "--n", "0"],
    ],
)
def test_order_below_one_exits_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", "error: need at least one vertex\n")


# inputs of many vertices and little work: each budget counts the work
# (orbit members, vertex sets read), not n
@pytest.mark.parametrize(
    "argv, out",
    [
        (["orbit", "--g6", encode_graph6(star(40))], "labeled=41 classes=2\n"),
        (["orbit", "--g6", "P" + "?" * 23], "labeled=1 classes=1\n"),  # 17 isolated vertices
        (["uniformity", "--g6", "T" + "?" * 35], "k_max=0 witness={0}\n"),  # 21 isolated vertices
    ],
    ids=["orbit-star40", "orbit-empty17", "uniformity-empty21"],
)
def test_budgets_admit_large_inputs_of_little_work(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--n", "5"],
        ["stats", "--n", "5"],
        ["schmidt", "--g6", C5],
        ["uniformity", "--g6", C5],
        ["orbit", "--g6", C5],
        ["aut", "--g6", C5],
        ["foliage", "--g6", C5],
        ["lc", "0", "--g6", C5],
        ["qlc", "star", "0", "1", "-"],
        ["normal-form", "--g6", C5],
        ["saturation", "--g6", C5],
        ["entropy", "--g6", C5, "--subset", "0"],
        ["bound", "--n", "5"],
        ["construct", "--partition", "2,3"],
    ],
    ids=[
        "classes", "stats", "schmidt", "uniformity", "orbit", "aut", "foliage", "lc", "qlc",
        "normal-form", "saturation", "entropy", "bound", "construct",
    ],
)
def test_force_is_a_usage_error_where_only_budgets_limit(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lcfoliage", "bound", "--n", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "p=22 bound=19\n"


def test_weighted_header_above_the_bound_exits_3():
    resource = pytest.importorskip("resource")

    def one_gib_address_space():
        # a decoder that sized its matrix from the header would fail here
        # with a MemoryError instead of asking for 10 GB
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = run_child(
        ["foliage", "--weighted", "-"], "d 3 n 100000\n", preexec_fn=one_gib_address_space
    )
    assert proc.returncode == 3
    assert proc.stderr == "error: weighted graph text is limited to n <= 8192, header says n = 100000\n"


def child_cpu_s(call):
    """``(result, CPU seconds)`` of ``call``, which runs one child process and waits for it."""
    import resource

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = call()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return result, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


@pytest.mark.parametrize("command", ["orbit", "aut"])
def test_forced_canonical_search_above_the_depth_bound_exits_3(command):
    # the search recurses once per individualised vertex, so this graph
    # would otherwise end in a RecursionError traceback; it runs before the
    # orbit BFS, so no member of n^2 bits is packed first
    pytest.importorskip("resource")
    empty = encode_graph6(Graph.from_edges(1200, []))
    proc, cpu_s = child_cpu_s(lambda: run_child([command, "-"], empty + "\n", timeout=60))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: canonical search is limited to n <= 800 by its recursion depth\n"
    assert cpu_s < 1.0


def test_memory_error_is_one_line_with_exit_3(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("lcfoliage.orbits.lc_automorphism_group", out_of_memory)
    assert run(capsys, "aut", "--g6", K5) == (3, "", "error: out of memory\n")


def quarter_gib_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


def test_aut_out_of_address_space_exits_3():
    pytest.importorskip("resource")
    # the edgeless graph's group has 10! elements; the group-order budget
    # refuses it before its listing could fill a quarter GiB
    proc = run_child(["aut", "--g6", "I????????"], "", preexec_fn=quarter_gib_address_space, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ")


def test_schmidt_out_of_address_space_reaches_the_memory_error_handler():
    # a seeded G(23, 1/2) has 2^25 lane bytes, within the budget, but the
    # arrays and big ints built around the lanes pass a quarter GiB, so the
    # MemoryError handler words the error
    pytest.importorskip("resource")
    g6 = encode_graph6(random_graph(23, 0.5, random.Random(23)))
    proc = run_child(["schmidt", "--g6", g6], "", preexec_fn=quarter_gib_address_space, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: out of memory\n")


# orbits whose BFS the member budget stops, n^2 bits a member: each refusal
# comes in a few CPU seconds and within a quarter GiB
@pytest.mark.parametrize(
    "graph, message",
    [
        (random_graph(17, 0.5, random.Random(17)), "lc_orbit passed 928842 labelled members"),
        (random_graph(24, 0.5, random.Random(24)), "lc_orbit passed 466033 labelled members"),
        (random_graph(100, 0.5, random.Random(100)), "lc_orbit passed 26843 labelled members"),
        (graph_for_partition((10,) * 6), "lc_orbit passed 74565 labelled members"),
    ],
    ids=["G(17)", "G(24)", "G(100)", "parts-10x6"],
)
def test_orbit_member_budget_refuses_within_a_quarter_gib(graph, message):
    pytest.importorskip("resource")
    proc, cpu_s = child_cpu_s(
        lambda: run_child(["orbit", "-"], encode_graph6(graph), preexec_fn=quarter_gib_address_space, timeout=120)
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {message}\n")
    assert cpu_s < 5.0


ORACLE_ABOVE_ITS_BUDGET = """
import sys
from lcfoliage.entanglement import statevector_entropy_oracle
from lcfoliage.graph import Graph, SizeGuardError

try:
    statevector_entropy_oracle(Graph.from_edges(4000, [(v, v + 1) for v in range(3999)]), 1)
except SizeGuardError as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(3)
"""


# each budget that replaced an n-guard, one input above it: refused before
# the work it bounds.  The seeded G(40, 1/2) reads past 2^20 vertex sets
# (see test_entanglement.py::test_uniformity_guard_and_force)
@pytest.mark.parametrize(
    "args, stdin, message",
    [
        (["-m", "lcfoliage", "classes", "--n", "10"], "", "class census is limited to isomorphism types <= 1048576"),
        (
            ["-m", "lcfoliage", "classes", "--n", "10", "--all"],
            "",
            "class census is limited to isomorphism types <= 1048576",
        ),
        (
            ["-m", "lcfoliage", "classes", "--n", "10", "--csv"],
            "",
            "class census is limited to isomorphism types <= 1048576",
        ),
        (["-m", "lcfoliage", "stats", "--n", "10"], "", "class census is limited to isomorphism types <= 1048576"),
        (
            ["-m", "lcfoliage", "schmidt", "-"],
            encode_graph6(random_graph(25, 0.5, random.Random(25))),
            "schmidt_vector is limited to lane bytes <= 67108864",
        ),
        (
            ["-m", "lcfoliage", "uniformity", "-"],
            encode_graph6(random_graph(40, 0.5, random.Random(40))),
            "uniformity is limited to vertex sets read <= 1048576",
        ),
        (["-c", ORACLE_ABOVE_ITS_BUDGET], "", "statevector oracle is limited to d^n <= 1048576"),
    ],
    ids=["classes", "classes-all", "classes-csv", "stats", "schmidt", "uniformity", "oracle"],
)
def test_each_budget_refuses_before_its_work(args, stdin, message):
    pytest.importorskip("resource")
    proc, cpu_s = child_cpu_s(
        lambda: subprocess.run(
            [sys.executable, *args],
            input=stdin,
            capture_output=True,
            text=True,
            env=child_env(),
            preexec_fn=quarter_gib_address_space,
            timeout=60,
        )
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {message}\n")
    assert cpu_s < 1.0


# construct --partition 3,3,3,3,3,3: Aut_in has (3!)^6 elements and the
# group 559,872, so one generator takes the listing past 9! from below it
@pytest.mark.parametrize("g6", ["I????????", "I~~~~~~~w", "QsCO_CA?_?_A?C??_?S?C??C??O"])
def test_forced_aut_above_the_group_order_budget_exits_3(g6):
    # the empty graph on 10 vertices and the 3^6 profile pass the budget on
    # Aut_in and are refused while their group is listed, before a coset
    # would take it past 9!; K_10 is refused before its orbit
    pytest.importorskip("resource")
    proc, cpu_s = child_cpu_s(
        lambda: run_child(["aut", "--g6", g6], "", preexec_fn=quarter_gib_address_space, timeout=120)
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "error: lc_automorphism_group is limited to group order <= 362880\n"
    )
    assert cpu_s < 2.0


def readme_cli_examples():
    """Each ``$ lcfoliage`` line of the README's Command line block, with the output shown under it.

    A ``|`` pipe becomes one argv per stage; the README elides the end of an
    output line with ``...``.
    """
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        line, *shown = chunk.splitlines()
        command = line.removeprefix("$ ").split("#", 1)[0]
        stages = [shlex.split(stage.strip().removeprefix("lcfoliage ")) for stage in command.split("|")]
        examples.append(pytest.param(stages, "\n".join(shown) + "\n", id=line))
    return examples


@pytest.mark.parametrize("stages, shown", readme_cli_examples())
def test_readme_cli_example(capsys, monkeypatch, stages, shown):
    out = ""
    for argv in stages:
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
    head, elided, _ = shown.partition("...")
    assert out.startswith(head) if elided else out == shown


def readme_python_blocks():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [chunk.split("```", 1)[0] for chunk in readme.split("```python\n")[1:]]
    return [pytest.param(block, id=f"block{i}") for i, block in enumerate(blocks)]


def shown_value(comment):
    """``(True, value)`` for the Python literal a ``#`` comment starts with, else ``(False, None)``."""
    text = comment.removeprefix("#").strip()
    for end in range(len(text), 0, -1):
        try:
            return True, ast.literal_eval(text[:end])
        except (SyntaxError, ValueError, TypeError):
            continue
    return False, None


@pytest.mark.parametrize("block", readme_python_blocks())
def test_readme_library_example(block):
    # the block runs statement by statement in a fresh namespace; an
    # expression whose comment starts with a literal must equal it, and one
    # whose comment is prose only runs
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset :].strip()
        shown, value = shown_value(comment)
        if shown and isinstance(stmt, ast.Expr):
            assert eval(code, namespace) == value, code
            checked += 1
        else:
            exec(code, namespace)
    assert checked
