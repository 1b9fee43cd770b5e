import json
import subprocess
import sys
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from isotypic import (
    BoundParams,
    Decomposition,
    OrbitSpec,
    admissible_set,
    affine_multiplicity_bound,
    enumerate_partitions,
    example_variety,
    h0_decomposition,
    specht_dim,
    top_cohomology,
)
from isotypic import induction
from isotypic.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partitions_command(capsys):
    code, out, _ = run_cli(capsys, "partitions", "4")
    assert code == 0
    assert out.splitlines() == ["[4]", "[3,1]", "[2,2]", "[2,1,1]", "[1,1,1,1]"]
    code, out, _ = run_cli(capsys, "--format", "json", "partitions", "4", "--max-len", "2")
    assert json.loads(out) == ["[4]", "[3,1]", "[2,2]"]


def test_scalar_commands(capsys):
    code, out, _ = run_cli(capsys, "dim", "[2,1]")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "kostka", "[2,1]", "[1,1,1]")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "lr", "[2,1]", "[1]", "[1,1]")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "split-mult", "[2,1]", "[1]", "[1,1]")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "--format", "json", "dim", "[5,4,3]")
    assert json.loads(out) == {"value": "2112"}


def test_split_mult_at_weight_50_peels_instead_of_summing(capsys):
    # A Kostka/LR double sum over Par(28) x Par(22) needs some 15 s for this
    # query; the backward peel needs a fraction of a second.  CI runs the same
    # command under a timeout.
    argv = ("split-mult", "[12,10,8,6,4,3,2,2,1,1,1]", "[10,8,6,4]", "[7,5,4,3,2,1]")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out.strip() == "7516374" and err == ""
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert code == 0 and json.loads(out) == {"value": "7516374"} and err == ""


def test_decomposition_commands(capsys):
    code, out, _ = run_cli(capsys, "young", "[2,1]")
    assert code == 0 and out.strip() == "1*[3] + 1*[2,1]"
    code, out, _ = run_cli(capsys, "split-module", "[1]", "[1]")
    assert code == 0 and out.strip() == "1*[2] + 1*[1,1]"
    code, out, _ = run_cli(capsys, "--format", "json", "young", "[2,2]")
    data = json.loads(out)
    assert data == {"ambient": 4, "terms": {"[4]": "1", "[3,1]": "1", "[2,2]": "1"}}
    # JSON output round-trips through the library parser
    assert Decomposition.from_json_dict(data).to_json_dict() == data


def test_example_command(capsys):
    code, out, _ = run_cli(capsys, "example", "3")
    assert code == 0 and out.strip() == "4*[3] + 2*[2,1]"
    code, out, _ = run_cli(capsys, "example", "2")
    assert out.strip() == "3*[2] + 1*[1,1]"
    code, out, _ = run_cli(capsys, "example", "3", "--top")
    assert out.strip() == "2*[2,1] + 4*[1,1,1]"
    code, out, _ = run_cli(capsys, "example", "3", "--verify-identity")
    assert out.splitlines() == ["4*[3] + 2*[2,1]", "identity: 8 == 8"]
    code, out, _ = run_cli(capsys, "--format", "json", "example", "2", "--verify-identity")
    data = json.loads(out)
    assert data["h0"]["terms"] == {"[2]": "3", "[1,1]": "1"}
    assert data["identity"] == {"lhs": "4", "rhs": "4", "holds": True}


def test_example_prints_its_orbit_sum(capsys):
    # the command answers from the closed form; the module built orbit by
    # orbit is its check, in text and JSON, with and without --top
    for k in [*range(1, 41), 250]:
        h0 = h0_decomposition(example_variety(k))
        for top, key, dec in [((), "h0", h0), (("--top",), "top", top_cohomology(h0))]:
            assert run_cli(capsys, "example", str(k), *top) == (0, f"{dec}\n", "")
            expected = json.dumps({"k": k, key: dec.to_json_dict()}) + "\n"
            assert run_cli(capsys, "--format", "json", "example", str(k), *top) == (0, expected, "")


def test_example_builds_no_module(capsys):
    # H^0 on 2,000 letters has 1,001 terms; the orbit sum would build and
    # cache a Young module per stabilizer
    before = induction._split_module.cache_info()
    code, out, _ = run_cli(capsys, "example", "2000")
    assert code == 0 and out.startswith("2001*[2000] + 1999*[1999,1] + ")
    code, top, _ = run_cli(capsys, "example", "2000", "--top")
    assert code == 0 and out.count("*[") == top.count("*[") == 1001
    assert induction._split_module.cache_info() == before


def test_iset_command(capsys):
    code, out, _ = run_cli(capsys, "iset", "7", "1", "1", "--member", "[4,2,1]")
    assert code == 0 and out.strip() == "not a member"
    code, out, _ = run_cli(capsys, "iset", "7", "1", "1", "--member", "[7]")
    assert code == 0 and out.strip() == "member"
    code, out, _ = run_cli(capsys, "iset", "5", "1", "1")
    assert code == 0 and out.strip() == "7"
    code, out, _ = run_cli(capsys, "--format", "json", "iset", "5", "1", "1")
    assert json.loads(out) == {
        "k": 5, "d": 1, "m": 1, "threshold": 2, "cardinality": "7",
    }
    code, out, _ = run_cli(capsys, "iset", "4", "1", "1", "--enumerate")
    assert out.splitlines() == ["[4]", "[3,1]", "[2,2]", "[2,1,1]", "[1,1,1,1]"]


def test_iset_at_the_enumeration_cutoff(capsys):
    # at threshold 8 the smallest non-member weighs 45, so I(25, 1, 3) is all of Par(25)
    code, out, err = run_cli(capsys, "iset", "25", "1", "3")
    assert code == 0 and err == "" and out == "1958\n"
    code, out, err = run_cli(capsys, "--format", "json", "iset", "25", "1", "3")
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "k": 25, "d": 1, "m": 3, "threshold": 8, "cardinality": "1958",
    }


def test_iset_enumeration_refusal(capsys):
    # iset counts and lists within Par(k), and is refused exactly when
    # partitions k is: p(26) = 2,436 answers, p(77) = 10,619,863 is above the cap
    assert run_cli(capsys, "iset", "26", "1", "1") == (0, "50\n", "")
    refusal = "cap exceeded: 77 has more partitions than the cap of 10000000\n"
    assert run_cli(capsys, "partitions", "77") == (4, "", refusal)
    for argv in (("iset", "77", "1", "1"), ("iset", "77", "1", "1", "--enumerate")):
        assert run_cli(capsys, *argv) == (4, "", refusal)
    # a member query compares one staircase index, so it answers above the cap
    code, out, _ = run_cli(capsys, "iset", "26", "1", "1", "--member", "[3,3,3,3,3,3,3,3,2]")
    assert code == 0 and out.strip() == "not a member"
    code, out, err = run_cli(capsys, "iset", "26", "1", "1", "--member", "[26]")
    assert code == 0 and out.strip() == "member"


@pytest.mark.parametrize("d,m", [(1, 1), (2, 1), (3, 1)])
def test_iset_past_25_counts_and_lists_the_admissible_set(capsys, d, m):
    for k in range(26, 41):
        iset = admissible_set(k, d, m)
        argv = ("iset", str(k), str(d), str(m))
        assert run_cli(capsys, *argv) == (0, f"{len(iset)}\n", "")
        code, out, err = run_cli(capsys, *argv, "--enumerate")
        assert (code, out.splitlines(), err) == (0, [str(mu) for mu in iset.sorted_members()], "")


def test_bound_commands(capsys):
    code, out, _ = run_cli(capsys, "bound", "affine", "--k", "3", "--d", "1", "--m", "1", "--mu", "[3]")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run_cli(capsys, "bound", "affine", "--k", "7", "--d", "1", "--mu", "[4,2,1]")
    assert code == 0 and out.strip() == "0 (excluded)"
    code, out, _ = run_cli(capsys, "bound", "equivariant", "--k", "3", "--d", "1")
    assert out.strip() == "6"
    code, out, _ = run_cli(capsys, "bound", "sa", "--k", "1", "--d", "1", "--s", "1", "--mu", "[1]")
    assert out.strip() == "36"
    code, out, _ = run_cli(capsys, "bound", "complex", "--k", "2", "--d", "1", "--mu", "[2]")
    assert out.strip() == "20"
    code, out, _ = run_cli(capsys, "bound", "projection", "--k", "2", "--m", "1", "--d", "1")
    assert out.strip() == "32"
    code, out, _ = run_cli(capsys, "--format", "json", "bound", "projective", "--k", "3", "--d", "1")
    data = json.loads(out)
    assert data["theorem"] == "complex-projective"
    assert data["value"] == "712"
    assert data["excluded"] is False
    code, out, _ = run_cli(capsys, "bound", "affine", "--k", "2,2", "--d", "1", "--m", "1,1", "--mu", "[2];[2]")
    assert out.strip() == "36"


def test_workers_flag_is_a_usage_error(capsys):
    # bounds run in one thread, so there is no worker count to set
    bound = ["bound", "affine", "--k", "8", "--d", "2", "--mu", "[5,3]"]
    for flag in (["--workers", "2"], ["--workers=2"]):
        with pytest.raises(SystemExit) as exit_info:
            main(flag + bound)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: isotypic")


def test_mv_check_command(tmp_path, capsys):
    spec = example_variety(5)
    half = OrbitSpec(5, spec.orbits[:3])
    rest = OrbitSpec(5, spec.orbits[2:])
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p1.write_text(json.dumps(half.to_json_dict()))
    p2.write_text(json.dumps(rest.to_json_dict()))
    code, out, _ = run_cli(capsys, "mv-check", str(p1), str(p2))
    assert code == 0 and out.strip() == "mv-inequality holds"
    code, out, _ = run_cli(capsys, "--format", "json", "mv-check", str(p1), str(p2))
    assert json.loads(out) == {"holds": True}


def test_mv_check_bad_inputs(tmp_path, capsys):
    code, _, err = run_cli(capsys, "mv-check", str(tmp_path / "missing.json"), str(tmp_path / "missing.json"))
    assert code == 3 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "mv-check", str(bad), str(bad))
    assert code == 2 and "invalid JSON" in err
    # bytes that are not UTF-8, and nesting deeper than the decoder recurses
    for name, data in (("bytes.json", b"\xff\xfe"), ("deep.json", b"[" * 100_000 + b"]" * 100_000)):
        undecodable = tmp_path / name
        undecodable.write_bytes(data)
        code, out, err = run_cli(capsys, "mv-check", str(undecodable), str(undecodable))
        assert (code, out) == (2, "") and err.startswith("parse error: invalid JSON")
        assert len(err.splitlines()) == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"k": 2}))
    code, _, err = run_cli(capsys, "mv-check", str(wrong), str(wrong))
    assert code == 3 and "malformed orbit spec" in err


def test_mv_check_refuses_a_letter_count_that_is_not_an_int(tmp_path, capsys):
    # k is checked as the spec gives it, not after int() has truncated,
    # parsed or counted it
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"k": 2, "orbits": [{"label": "a", "stabilizer": "[2]"}]}))
    assert run_cli(capsys, "mv-check", str(good), str(good))[:2] == (0, "mv-inequality holds\n")
    for k, shown in ((2.9, "2.9"), (2.0, "2.0"), (True, "True"), ("2", "'2'"), (None, "None")):
        bad = tmp_path / "bad.json"
        stabilizer = "[1]" if k is True else "[2]"
        bad.write_text(json.dumps({"k": k, "orbits": [{"label": "a", "stabilizer": stabilizer}]}))
        for spec1, spec2 in ((bad, good), (good, bad)):
            code, out, err = run_cli(capsys, "mv-check", str(spec1), str(spec2))
            assert (code, out) == (3, "")
            assert err == f"domain error: letter count must be an integer, got {shown}\n"
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({"k": -1, "orbits": []}))
    code, out, err = run_cli(capsys, "mv-check", str(negative), str(good))
    assert (code, out, err) == (3, "", "domain error: letter count must be nonnegative\n")


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "dim", "[2,1")
    assert code == 2 and "position" in err
    code, _, err = run_cli(capsys, "kostka", "[2,1]", "[2]")
    assert code == 3 and "domain error" in err
    code, _, err = run_cli(capsys, "--cap", "5", "bound", "equivariant", "--k", "30", "--d", "3", "--m", "2")
    assert code == 4 and "cap exceeded" in err
    with pytest.raises(SystemExit) as exit_info:
        main(["bound", "affine", "--k", "3", "--d", "1"])  # missing --mu
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["bound", "affine", "--k", "1,x", "--d", "1", "--mu", "[1]"])
    assert exit_info.value.code == 2
    assert "expected comma-separated integers, got '1,x'" in capsys.readouterr().err


def test_partition_parts_take_the_digits_int_reads(capsys):
    # a superscript two is a digit to str.isdigit but not to int()
    code, out, err = run_cli(capsys, "dim", "[²]")
    assert (code, out, err) == (2, "", "parse error: expected integer at position 1\n")
    # an Arabic-Indic three is a decimal digit, and int() reads it
    code, out, err = run_cli(capsys, "dim", "[٣]")
    assert (code, out, err) == (0, "1\n", "")


def test_example_counts_its_terms_before_building(capsys):
    # H^0 of the example on k letters sums (k//2 + 1) * (k - k//2 + 1) terms
    code, out, _ = run_cli(capsys, "--cap", "6", "example", "3")
    assert code == 0 and out.strip() == "4*[3] + 2*[2,1]"
    for argv in (("--cap", "5", "example", "3"), ("example", HUGE)):
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, "--format", fmt, *argv)
            assert code == 4 and out == ""
            assert err.startswith("cap exceeded: H^0 of the example sums")


HUGE = "99999999999999999999"
# 10**18 indexes, but a list that long fails its first allocation
LARGE = "1000000000000000000"
TOO_LARGE_TO_INDEX = [
    ("dim", f"[{HUGE}]"),
    ("split-module", "[]", f"[{HUGE}]"),
    ("dim", f"[{LARGE}]"),
    ("split-module", "[]", f"[{LARGE}]"),
]


@pytest.mark.parametrize("argv", TOO_LARGE_TO_INDEX)
def test_values_too_large_to_index_are_domain_errors(capsys, argv):
    # the OverflowError or MemoryError of a list or range that long ends as
    # one domain error
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "--format", fmt, *argv)
        assert code == 3 and out == ""
        assert err.startswith("domain error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err


def test_a_one_row_target_of_weight_10_18_peels_without_listing_its_cells(capsys):
    # a row takes one horizontal strip of its length, and no vertical strip
    # of more than one cell
    for side, expected in (((f"[{LARGE}]", "[]"), "1"), (("[]", f"[{LARGE}]"), "0")):
        code, out, err = run_cli(capsys, "split-mult", f"[{LARGE}]", *side)
        assert (code, out.strip(), err) == (0, expected, "")


def test_partitions_output_is_unchanged(capsys):
    six = ["[6]", "[5,1]", "[4,2]", "[4,1,1]", "[3,3]", "[3,2,1]", "[3,1,1,1]",
           "[2,2,2]", "[2,2,1,1]", "[2,1,1,1,1]", "[1,1,1,1,1,1]"]
    # at most three parts a >= b >= c, largest first part and then largest
    # second part first
    fifty_in_three = [
        "[" + ",".join(str(p) for p in (a, b, 50 - a - b) if p) + "]"
        for a in range(50, 16, -1)
        for b in range(min(a, 50 - a), (51 - a) // 2 - 1, -1)
    ]
    assert len(fifty_in_three) == 234
    for argv, expected in ((("partitions", "6"), six),
                           (("partitions", "50", "--max-len", "3"), fifty_in_three)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out.splitlines(), err) == (0, expected, "")
        code, out, err = run_cli(capsys, "--format", "json", *argv)
        assert (code, json.loads(out), err) == (0, expected, "")


def test_partitions_listing_is_the_text_and_json_of_the_whole_list(capsys):
    # the listing is written while it is enumerated; its bytes are those of
    # printing each partition and of json.dumps on the whole list
    for k in range(9):
        for rows in ((), ("--max-len", "2")):
            texts = [str(p) for p in enumerate_partitions(k, *map(int, rows[1:]))]
            assert run_cli(capsys, "partitions", str(k), *rows) == (
                0, "".join(text + "\n" for text in texts), ""
            )
            assert run_cli(capsys, "--format", "json", "partitions", str(k), *rows) == (
                0, json.dumps(texts) + "\n", ""
            )


def test_partitions_listing_does_not_hold_the_partitions():
    # p(50) = 204,226 partitions; holding them and their texts took 67 MB.
    # Linux keeps the peak of the memory a process had before exec in its
    # ru_maxrss, so the CLI runs as the child of a small probe process and
    # the probe reports its children's peak, in KiB.
    for argv in (("partitions", "50"), ("iset", "50", "1", "3", "--enumerate")):
        probe = (
            "import resource, subprocess, sys\n"
            f"code = subprocess.run([sys.executable, '-m', 'isotypic', *{argv!r}],"
            " stdout=subprocess.DEVNULL).returncode\n"
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        result = run_python("-c", probe)
        code, peak_kib = result.stdout.split()
        assert code == "0"
        assert int(peak_kib) < 40 * 1024


COUNTED_BEFORE_STARTING = [
    ("partitions", "77"),  # p(77) = 10,619,863
    ("partitions", "80"),
    ("partitions", HUGE),
    ("partitions", HUGE, "--max-len", "3"),
    ("partitions", "1000000000", "--max-len", "2"),
    ("partitions", "10950", "--max-len", "100"),
    ("--cap", "10", "partitions", "6"),
    ("lr", f"[{HUGE}]", "[]", f"[{HUGE}]"),
    ("lr", "[10000001]", "[]", "[10000001]"),
    ("--cap", "5", "lr", "[3,3]", "[]", "[3,3]"),
    ("bound", "affine", "--k", HUGE, "--d", "1", "--mu", f"[{HUGE}]"),
    ("bound", "equivariant", "--k", HUGE, "--d", "1"),
    ("bound", "projective", "--k", HUGE, "--d", "1"),
    # the bound rules count block by block, so no count table of length k
    # is built before the refusal
    ("bound", "equivariant", "--k", "1000000000", "--d", "1", "--m", "1"),
    ("bound", "equivariant", "--k", "20000000", "--d", "1", "--m", "1"),
    ("bound", "affine", "--k", "100000000", "--d", "1", "--m", "1", "--mu", "[100000000]"),
    ("bound", "projective", "--k", "100000000", "--d", "1"),
    # the projection's k fiber weights have at least k + k*k // 4 terms
    ("bound", "projection", "--k", "7000", "--m", "1", "--d", "1"),
    ("bound", "projection", "--k", "100000", "--m", "1", "--d", "1"),
    ("bound", "projection", "--k", HUGE, "--m", "1", "--d", "1"),
    # iset counts and lists within Par(k), under the cap of partitions k
    ("iset", "77", "1", "1"),
    ("iset", HUGE, "1", "1"),
    ("--cap", "10", "iset", "6", "1", "1"),
]


@pytest.mark.parametrize("argv", COUNTED_BEFORE_STARTING)
def test_partitions_and_lr_count_their_work_before_starting(capsys, argv):
    start = time.perf_counter()
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "--format", fmt, *argv)
        assert code == 4 and out == ""
        assert err.startswith("cap exceeded:") and len(err.splitlines()) == 1
    assert time.perf_counter() - start < 1


# The staircase (9, 8, ..., 1) padded by ones to weight 300: it fits the 9x9
# corner, and at T = 8 its affine sum has 1,612,517,760 terms.
PADDED_STAIRCASE_9 = "[" + ",".join(map(str, range(9, 0, -1))) + ",1" * 255 + "]"


@pytest.mark.parametrize("argv,answer", [
    (("iset", "26", "1", "1", "--member", "[26]"), "member"),
    (("bound", "affine", "--k", "300", "--d", "1", "--m", "3", "--mu", PADDED_STAIRCASE_9),
     "0 (excluded)"),
    # staircase index 5: zero at T = 4, but inside the exclusion set at T = 16
    (("bound", "complex", "--k", "200", "--d", "1", "--m", "1", "--mu", "[40,40,40,40,40]"),
     "0"),
])
def test_staircase_index_answers_before_any_count(capsys, argv, answer):
    start = time.perf_counter()
    assert run_cli(capsys, *argv) == (0, answer + "\n", "")
    assert time.perf_counter() - start < 1


# T = (2d)^m with a 20-digit or 10-digit width.  Each of these ran without
# end while T was formed in full, so each runs in a child process under a
# timeout and a 1 GB address space, where a runaway fails instead of hanging.
HUGE_WIDTHS = [
    (("iset", "5", "2", HUGE), 0, "7\n"),
    (("iset", "5", "2", HUGE, "--member", "[5]"), 0, "member\n"),
    (("iset", "77", "2", HUGE), 4, ""),
    (("bound", "equivariant", "--k", "3", "--d", "2", "--m", "1000000000"), 3, ""),
    (("iset", "30", "2", HUGE), 0, "5604\n"),
]


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))


@pytest.mark.parametrize("argv,code,out", HUGE_WIDTHS)
def test_huge_widths_end_with_a_stable_exit_code(argv, code, out):
    result = subprocess.run(
        [sys.executable, "-m", "isotypic", *argv],
        capture_output=True, text=True, timeout=10, preexec_fn=_limit_address_space,
    )
    assert (result.returncode, result.stdout) == (code, out)
    assert len(result.stderr.splitlines()) == (code != 0)
    # no refusal names the threshold, which may be too long to form
    assert "rows" not in result.stderr


def test_thresholds_beyond_the_digit_limit_are_domain_errors(capsys):
    # 2**15000 has 4,516 digits: the bound rules and the reported threshold
    # refuse it, while the count needs only min(T, k + 1)
    for argv in (
        ("--format", "json", "iset", "5", "1", "15000"),
        ("bound", "equivariant", "--k", "3", "--d", "1", "--m", "15000"),
        ("bound", "affine", "--k", "3", "--d", "1", "--m", "15000", "--mu", "[3]"),
        ("bound", "affine", "--k", "3", "--d", "1000", "--m", "2000", "--mu", "[3]"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "domain error: threshold (2d)^m has more than 4300 digits\n"
    assert run_cli(capsys, "iset", "5", "1", "15000") == (0, "7\n", "")
    code, out, _ = run_cli(capsys, "--format", "json", "iset", "5", "5", "4299")
    assert code == 0 and json.loads(out)["threshold"] == 10**4299
    # every partition of 30 is a member at T = 10**4299; p(77) is above the cap
    assert run_cli(capsys, "iset", "30", "5", "4299") == (0, "5604\n", "")
    code, _, err = run_cli(capsys, "iset", "77", "5", "4299")
    assert (code, err) == (4, "cap exceeded: 77 has more partitions than the cap of 10000000\n")


def test_work_counts_leave_other_answers_alone(capsys):
    # at the cap, answered; invalid inputs keep their own exit codes
    assert run_cli(capsys, "--cap", "11", "partitions", "6")[0] == 0
    assert run_cli(capsys, "--cap", "6", "lr", "[3,3]", "[]", "[3,3]")[:2] == (0, "1\n")
    assert run_cli(capsys, "partitions", HUGE, "--max-len", "1")[:2] == (0, f"[{HUGE}]\n")
    # lam outside nu: nothing to fill, whatever the skew size
    assert run_cli(capsys, "lr", f"[{HUGE},1]", "[2,2]", f"[{int(HUGE) - 3}]")[:2] == (0, "0\n")
    for argv in (("partitions", "-1"), ("partitions", HUGE, "--max-len", "0"),
                 ("lr", f"[{HUGE}]", "[]", "[1]")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and err.startswith("domain error:")


# The interpreter refuses to convert ints of more than 4,300 digits to and
# from text by default.  The CLI lifts that limit while a command runs, so
# long exact values print, and refuses partition parts longer than it.
STAIRCASE_95 = "[" + ",".join(map(str, range(95, 0, -1))) + "]"
LONG_PART = "[" + "9" * 5000 + "]"


def digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def test_values_longer_than_the_digit_limit_print(capsys):
    limit = digit_limit()
    # T = 2000**1300 has 4,292 digits, within the limit a threshold has
    affine = ("bound", "affine", "--k", "3", "--d", "1000", "--m", "1300", "--mu", "[3]")
    cases = (
        (("dim", STAIRCASE_95), 7262, specht_dim(range(95, 0, -1))),
        (affine, 12875, affine_multiplicity_bound((3,), BoundParams((3,), (1300,), 1000)).value),
    )
    for argv, digits, value in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and len(out.strip()) == digits
        # compared by the last digits, which need no long conversion here
        assert int(out.strip()[-18:]) == value % 10**18
        code, json_out, err = run_cli(capsys, "--format", "json", *argv)
        assert code == 0 and err == "" and json.loads(json_out)["value"] == out.strip()
        assert digit_limit() == limit  # restored once the command ends


def test_parts_longer_than_the_digit_limit_are_parse_errors(capsys):
    for argv in (
        ("dim", LONG_PART),
        ("lr", LONG_PART, "[]", LONG_PART),
        ("bound", "affine", "--k", "3", "--d", "1", "--mu", LONG_PART),
    ):
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, "--format", fmt, *argv)
            assert (code, out) == (2, "")
            assert err == "parse error: part has more than 4300 digits at position 1\n"


def test_orbit_spec_numbers_longer_than_the_digit_limit(tmp_path, capsys):
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"k": 2, "orbits": [{"label": "a", "stabilizer": "[2]"}]}))
    long_k = tmp_path / "long_k.json"
    long_k.write_text('{"k": %s, "orbits": []}' % LONG_PART[1:-1])
    long_label = tmp_path / "long_label.json"
    long_label.write_text('{"k": 2, "orbits": [{"label": %s, "stabilizer": "[2]"}]}' % LONG_PART[1:-1])
    code, out, err = run_cli(capsys, "mv-check", str(long_k), str(small))
    assert code == 3 and out == "" and err.startswith("domain error: orbit specs live on 999")
    code, out, err = run_cli(capsys, "mv-check", str(long_label), str(small))
    assert (code, out, err) == (0, "mv-inequality holds\n", "")


def test_bounds_at_large_weight(capsys):
    code, out, err = run_cli(capsys, "bound", "equivariant", "--k", "2000", "--d", "1", "--m", "1")
    assert code == 0 and err == ""
    assert out.strip() == str(1 * 2 + 1000 * 4)  # lengths 1 and 2, weighted by (2d)^l
    # the trivial target at k=1200: no step may recurse once per row or cell
    code, out, err = run_cli(capsys, "bound", "affine", "--k", "1200", "--d", "1", "--m", "1", "--mu", "[1200]")
    assert code == 0 and err == ""
    assert out.strip() == str(1 * 2 + 600 * 4)  # the trivial target's split factors are 1


def test_kostka_at_1100_rows_and_1100_content_parts(capsys):
    # the strip peel loops over strips and over runs of equal rows, so
    # neither a tall shape nor a long content adds recursion depth
    ones = "[" + ",".join(["1"] * 1100) + "]"
    for shape in ("[1100]", ones):
        code, out, err = run_cli(capsys, "kostka", shape, ones)
        assert code == 0 and out.strip() == "1" and err == ""


def test_split_module_with_a_long_side(capsys):
    # a vertical strip of 1200 cells is the conjugate of a row of 1200, and
    # the horizontal enumerator loops over runs, so no step recurses per row
    def key(*parts):
        return "[" + ",".join(map(str, parts)) + "]"

    cases = [
        ("[]", "[1200]", 1200, [key(*[1] * 1200)]),
        ("[1]", "[1200]", 1201, [key(2, *[1] * 1199), key(*[1] * 1201)]),
        ("[1200]", "[1]", 1201, [key(1201), key(1200, 1)]),
    ]
    for triv, sign, ambient, shapes in cases:
        code, out, err = run_cli(capsys, "split-module", triv, sign)
        assert code == 0 and err == ""
        assert out.strip() == " + ".join(f"1*{mu}" for mu in shapes)
        code, out, err = run_cli(capsys, "--format", "json", "split-module", triv, sign)
        assert code == 0 and err == ""
        assert json.loads(out) == {"ambient": ambient, "terms": {mu: "1" for mu in shapes}}


def test_lr_of_a_long_row_and_a_long_column(capsys):
    # the filling is a loop over an explicit stack, so 1000 skew cells need
    # no recursion depth
    for part in ("[1000]", "[" + ",".join(["1"] * 1000) + "]"):
        code, out, err = run_cli(capsys, "lr", part, "[]", part)
        assert code == 0 and out.strip() == "1" and err == ""
        code, out, err = run_cli(capsys, "--format", "json", "lr", part, "[]", part)
        assert code == 0 and json.loads(out) == {"value": "1"} and err == ""


def test_affine_bound_at_k_40_threshold_8(capsys):
    # 9,749 lambdas of Par(40, 8), where the walk drops shapes outside the
    # hook union of the room left; CI runs the same command under a timeout
    argv = ("bound", "affine", "--k", "40", "--d", "1", "--m", "3", "--mu", "[36,2,1,1]")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out.strip() == "10932226795520" and err == ""


def test_cap_flag_reaches_bounds(capsys):
    code, out, _ = run_cli(capsys, "--cap", "1000000", "bound", "equivariant", "--k", "8", "--d", "1")
    assert code == 0


SUBCOMMANDS = [
    ("partitions", "enumerate partitions of k"),
    ("dim", "irreducible dimension by the hook formula"),
    ("kostka", "Kostka number K(mu, lambda)"),
    ("lr", "Littlewood-Richardson coefficient c^nu_{lambda,mu}"),
    ("young", "decomposition of the Young module"),
    ("split-mult", "multiplicity of mu in the split module"),
    ("split-module", "decomposition of the split module"),
    ("iset", "admissible set I(k, d, m)"),
    ("bound", "exact evaluation of a multiplicity bound"),
    ("example", "H^0 of the hypercube-vertex model"),
    ("mv-check", "Mayer-Vietoris inequality on two orbit specs"),
]

QUERY_USAGE = {
    "dim": "partition",
    "kostka": "mu lam",
    "lr": "nu lam mu",
    "young": "partition",
    "split-mult": "mu triv sign",
    "split-module": "triv sign",
}


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def test_help_surface(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = help_text(capsys, "--help")
    listed = [
        tuple(line.split(None, 1))
        for line in out.splitlines()
        if line.startswith("    ") and not line[4].isspace()
    ]
    assert listed == SUBCOMMANDS
    for name, arguments in QUERY_USAGE.items():
        usage = help_text(capsys, name, "-h").splitlines()[0]
        assert usage == f"usage: isotypic {name} [-h] {arguments}"


PARTITION_TEXTS = [str(p) for w in range(9) for p in enumerate_partitions(w)]
MALFORMED = ["[2,1", "abc", "[0]", "[1,2]", "[-1]", "", "[a]", "2,1", "[2;1]", "[1,0]"]
partition_text = st.sampled_from(PARTITION_TEXTS + MALFORMED)


def small_int(low, high):
    return st.integers(low, high).map(str)


def int_list(high):
    return st.lists(st.integers(0, high), min_size=1, max_size=2).map(
        lambda xs: ",".join(map(str, xs))
    )


def option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def required(name, values):
    return values.map(lambda v: [name, v])


def concat(*parts):
    return st.tuples(*parts).map(lambda lists: [x for xs in lists for x in xs])


def single(values):
    return values.map(lambda v: [v])


def query(name, arity):
    return st.lists(partition_text, min_size=arity, max_size=arity).map(lambda xs: [name, *xs])


# Sizes stay small (partitions of weight <= 8, bound k <= 8, d <= 2, m <= 2,
# iset k <= 30) so that each example answers in well under a second.  The
# bound branch comes twice: once with every option optional and once with
# the options some rule requires always set, so that more examples reach an
# evaluator.
BOUND_RULES = ["affine", "sa", "complex", "projective", "equivariant", "projection"]
SUBCOMMAND_ARGV = st.one_of(
    concat(st.just(["partitions"]), single(small_int(-2, 12)),
           option("--max-len", small_int(-1, 5))),
    *(query(name, len(arguments.split())) for name, arguments in QUERY_USAGE.items()),
    concat(st.just(["iset"]), single(small_int(-2, 30)),
           st.lists(small_int(-1, 2), min_size=2, max_size=2),
           st.one_of(st.just([]), st.just(["--enumerate"]),
                     partition_text.map(lambda mu: ["--member", mu]))),
    *(
        concat(st.sampled_from(BOUND_RULES).map(lambda rule: ["bound", rule]),
               present("--k", int_list(8)), present("--d", small_int(-1, 2)),
               option("--m", int_list(2)), present("--s", small_int(-1, 3)),
               present("--mu", st.lists(partition_text, min_size=1, max_size=2).map(";".join)),
               option("--letters", small_int(-1, 4)))
        for present in (option, required)
    ),
    concat(st.just(["example"]), single(small_int(-2, 8)),
           st.sampled_from([[], ["--top"]]), st.sampled_from([[], ["--verify-identity"]])),
    st.lists(st.sampled_from(["<valid>", "<invalid>", "<missing>"]), min_size=2, max_size=2)
    .map(lambda specs: ["mv-check", *specs]),
)

FUZZED_ARGV = concat(
    option("--format", st.sampled_from(["text", "json"])),
    option("--cap", small_int(-1, 1000)),
    SUBCOMMAND_ARGV,
)


def test_every_argv_ends_in_a_stable_exit_code(tmp_path, capsys):
    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps(example_variety(3).to_json_dict()))
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{not json")
    paths = {"<valid>": str(valid), "<invalid>": str(invalid), "<missing>": str(tmp_path / "none")}

    @settings(max_examples=300, deadline=None)
    @given(FUZZED_ARGV)
    def check(argv):
        argv = [paths.get(arg, arg) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err, argv

    check()


# The names ``import isotypic`` exports, submodules left out.  A deletion or
# a new export changes this list on purpose.
PUBLIC_NAMES = [
    "AdmissibleSet", "BoundParams", "BoundReport", "DEFAULT_TERM_CAP",
    "Decomposition", "DomainError", "EnumerationCapExceeded", "ORACLE_WEIGHT_CAP",
    "OrbitSpec", "ParseError", "Partition", "PartitionTuple", "PowerIdentityCheck",
    "admissible_set", "affine_multiplicity_bound", "closed_form_multiplicity",
    "complex_multiplicity_bound", "count_partitions",
    "dominates", "enumerate_partitions", "equivariant_bound", "example_variety",
    "g_factor", "general_position_degree", "h0_decomposition", "hook_lengths",
    "irreducible", "is_admissible", "kostka", "lr_coefficient",
    "max_split_multiplicities", "mv_check", "oracle_count_ssyt", "oracle_count_syt",
    "oracle_lr", "orbit_intersection", "orbit_union", "outer_product",
    "parse_partition", "parse_partition_tuple",
    "projection_image_bound", "projective_multiplicity_bound", "restriction_check",
    "restriction_threshold", "sa_multiplicity_bound", "sa_prefactor", "sign_twist",
    "specht_dim", "split_module", "split_multiplicity", "splits", "top_cohomology",
    "verify_power_identity", "young_module",
]


def test_public_surface():
    import isotypic

    names = sorted(
        name
        for name, value in vars(isotypic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert len(PUBLIC_NAMES) == 54
    assert names == PUBLIC_NAMES


# Start-up: a fresh ``import isotypic`` stays off these stdlib modules, and
# the CLI imports json only to write JSON or to read orbit spec files.
HEAVY_STDLIB = ("dataclasses", "inspect", "fractions", "decimal", "json")


def run_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=False)


def imported_modules(importtime_stderr):
    # each ``-X importtime`` line ends in "| <module name>"
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
    }


def test_import_loads_no_heavy_stdlib_module():
    probe = f"import sys, isotypic; print(*(m for m in {HEAVY_STDLIB!r} if m in sys.modules))"
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"


def test_text_command_does_not_import_json():
    result = run_python("-X", "importtime", "-m", "isotypic", "--format", "text", "dim", "[4,2,1]")
    assert result.returncode == 0 and result.stdout == "35\n"
    imported = imported_modules(result.stderr)
    assert "isotypic.cli" in imported
    assert not imported & set(HEAVY_STDLIB)


def test_json_output_and_spec_files_in_a_fresh_process(tmp_path):
    result = run_python("-X", "importtime", "-m", "isotypic", "--format", "json", "dim", "[4,2,1]")
    assert result.returncode == 0 and result.stdout == '{"value": "35"}\n'
    assert "json" in imported_modules(result.stderr)
    spec = example_variety(5)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p1.write_text(json.dumps(OrbitSpec(5, spec.orbits[:3]).to_json_dict()))
    p2.write_text(json.dumps(OrbitSpec(5, spec.orbits[2:]).to_json_dict()))
    for fmt, expected in (("text", "mv-inequality holds\n"), ("json", '{"holds": true}\n')):
        result = run_python("-m", "isotypic", "--format", fmt, "mv-check", str(p1), str(p2))
        assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")
