"""The pair runner's summary and claim verdict, on canned benchmark lines."""

import json

import pytest

from pair_runs import (
    PROBE_SCRIPT,
    ROOT,
    claim_verdict,
    code_digest,
    control_summary,
    describe,
    parse_run,
    probe_lines,
    run_order,
    session_lines,
    session_spread,
    summarize,
)

SPEC = {
    "annulus_s": {"name": "annulus_s", "unit": "s", "better": "lower", "bound": 0.25},
    "steps_per_s": {"name": "steps_per_s", "unit": "steps/s", "better": "higher", "bound": 0.25},
}
ENVIRONMENT = {"cpu_count": 2, "numpy": "2.4.6"}


def run_line(annulus_s, steps_per_s=7500.0):
    """The last line of one ``perfbench/run.py`` run, after its environment line."""
    final = {
        "correct": True,
        "attempted": 1200,
        "failed": 0,
        "metrics": {
            "annulus_s": {"value": annulus_s, "unit": "s"},
            "steps_per_s": {"value": steps_per_s, "unit": "steps/s"},
        },
    }
    return f"# environment {json.dumps(ENVIRONMENT)}\nverify annulus_s {annulus_s:.6g} s\n{json.dumps(final)}\n"


def runs(values):
    return [parse_run(run_line(v)) for v in values]


PARENT = [0.0118, 0.0117, 0.0121, 0.0119, 0.0118, 0.0120, 0.0117, 0.0119, 0.0118, 0.0120]
FASTER = [0.0084, 0.0083, 0.0086, 0.0085, 0.0084, 0.0083, 0.0085, 0.0084, 0.0086, 0.0083]


def test_parse_run_reads_the_last_line_and_the_environment():
    run = parse_run(run_line(0.0118))
    assert run["correct"] and run["metrics"]["annulus_s"]["value"] == 0.0118
    assert run["environment"] == ENVIRONMENT


def test_claim_met_when_every_pair_wins_by_more_than_the_spread():
    result = claim_verdict(runs(PARENT), runs(FASTER), "annulus_s", "s", "lower", 0.20)
    assert result["verdict"] == "met"
    assert result["change_wins"] == "10 of 10 pairs"
    assert result["metric"] == "annulus_s (s)"
    assert result["parent"]["median"] == pytest.approx(0.01185)
    assert result["parent"]["quartiles"] == pytest.approx([0.0118, 0.0119750])
    assert result["relative"] == pytest.approx(0.0084 / 0.01185 - 1)
    assert result["median_difference"] > result["parent_interquartile_distance"]


def test_claim_refused_at_8_of_10_pairs():
    # the two pairs the change loses leave the medians as far apart as before
    change = FASTER[:8] + [0.0125, 0.0124]
    result = claim_verdict(runs(PARENT), runs(change), "annulus_s", "s", "lower", 0.20)
    assert result["change_wins"] == "8 of 10 pairs"
    assert result["median_difference"] > result["parent_interquartile_distance"]
    assert result["verdict"] == "not met: the change won 8 of 10 pairs, fewer than 90%"


def test_claim_refused_inside_the_parent_spread_below_its_size_or_on_few_pairs():
    # every pair won, by less than the parent's interquartile distance
    change = [v - 0.00005 for v in PARENT]
    result = claim_verdict(runs(PARENT), runs(change), "annulus_s", "s", "lower", 0.0)
    assert result["change_wins"] == "10 of 10 pairs"
    assert result["verdict"].startswith("not met: the medians do not differ")
    result = claim_verdict(runs(PARENT), runs(FASTER), "annulus_s", "s", "lower", 0.35)
    assert result["verdict"] == "not met: the move 29.1% is below the claimed 35%"
    # nine pairs, every one won by far
    result = claim_verdict(runs(PARENT[:9]), runs(FASTER[:9]), "annulus_s", "s", "lower", 0.20)
    assert result["verdict"] == "not met: 9 pairs are fewer than 10"


def test_claim_refused_when_every_pair_wins_inside_the_control_move():
    # the change wins 10 of 10 pairs by 3%, past the parent's interquartile
    # distance and the claimed 1%, but one control pair of the parent
    # against itself moved 3.5%
    change = [0.97 * v for v in PARENT]
    control = control_summary(runs(PARENT[:5]), runs([0.965 * PARENT[0], *PARENT[1:5]]), SPEC)["annulus_s"]
    assert control["control_move"] == pytest.approx(0.035)
    assert control["pair_moves"][1:] == [0.0] * 4
    result = claim_verdict(runs(PARENT), runs(change), "annulus_s", "s", "lower", 0.01, control["control_move"])
    assert result["change_wins"] == "10 of 10 pairs"
    assert result["median_difference"] > result["parent_interquartile_distance"]
    assert result["verdict"] == "not met: the move 3.0% does not exceed the control move 3.5%"
    assert claim_verdict(runs(PARENT), runs(change), "annulus_s", "s", "lower", 0.01, 0.029)["verdict"] == "met"


def test_bench_35_claim_still_met_against_a_control_of_its_own_parent_runs():
    # verify stokes_s -34%: the parent's ten runs, paired with each other,
    # stand in for five control pairs
    record = json.loads((ROOT / "BENCH_35.json").read_text())
    parent, change = record["parent"]["verify"], record["change"]["verify"]
    control = control_summary(parent[0::2], parent[1::2], SPEC | {"stokes_s": SPEC["annulus_s"]})["stokes_s"]
    assert 0.0 < control["control_move"] < 0.05
    result = claim_verdict(parent, change, "stokes_s", "s", "lower", 0.20, control["control_move"])
    assert result["relative"] == pytest.approx(-0.3415, abs=1e-4)
    assert result["verdict"] == "met"
    assert describe({}, result, True).startswith("claim met: stokes_s (s) -34.2% median against median")
    assert f"the control move is {control['control_move']:.1%}." in describe({}, result, True)


def test_run_order_spreads_the_control_pairs_among_the_others():
    assert run_order(10, 5) == [
        ("change", 1), ("control", 1), ("change", 2), ("change", 3), ("control", 2),
        ("change", 4), ("change", 5), ("control", 3), ("change", 6), ("change", 7),
        ("control", 4), ("change", 8), ("change", 9), ("control", 5), ("change", 10),
    ]
    assert run_order(3, 0) == [("change", 1), ("change", 2), ("change", 3)]


def test_summary_counts_wins_in_each_metrics_direction_and_checks_the_bound():
    parent = [parse_run(run_line(a, s)) for a, s in zip(PARENT, [7500.0] * 10)]
    change = [parse_run(run_line(a, s)) for a, s in zip(FASTER, [5000.0] * 9 + [7600.0])]
    summary = summarize(parent, change, SPEC)
    assert summary["annulus_s"]["change_better"] == "10 of 10 pairs"
    assert summary["annulus_s"]["within_bound"]
    # steps_per_s is better higher: one pair won, and a third fewer is out of bound
    assert summary["steps_per_s"]["change_better"] == "1 of 10 pairs"
    assert summary["steps_per_s"]["relative"] == pytest.approx(-1 / 3)
    assert not summary["steps_per_s"]["within_bound"]
    note = describe({"verify": summary}, None, True)
    assert "verify: annulus_s -29.1% (10 of 10 pairs), steps_per_s -33.3% (1 of 10 pairs)." in note
    assert note.endswith("Not every end-to-end median is within its BENCHMARK.json bound; every run was correct.")


def probe_record(job, setup_faults, setup_s, run_faults, run_s):
    return {
        "job": job,
        "after_setup": {"faults": setup_faults, "seconds": setup_s},
        "after_run": {"faults": run_faults, "seconds": run_s},
    }


def test_probe_lines_pair_the_sides_job_by_job():
    records = {
        "parent": [probe_record("battery", 1958, 0.00854, 0, 0.0055),
                   probe_record("ns-k8", 1919, 0.00843, 1890, 0.00822)],
        "change": [probe_record("battery", 1957, 0.00846, 0, 0.00501),
                   probe_record("ns-k8", 1919, 0.00904, 1890, 0.00869)],
    }
    assert probe_lines(records) == [
        "# minor page faults and time of one jobs.probe(), after set-up and after one pass",
        "parent battery: after set-up 1958 faults, 8.54 ms; after one pass 0 faults, 5.50 ms",
        "change battery: after set-up 1957 faults, 8.46 ms; after one pass 0 faults, 5.01 ms",
        "parent ns-k8: after set-up 1919 faults, 8.43 ms; after one pass 1890 faults, 8.22 ms",
        "change ns-k8: after set-up 1919 faults, 9.04 ms; after one pass 1890 faults, 8.69 ms",
    ]
    compile(PROBE_SCRIPT, "<probe>", "exec")


def test_summary_lists_each_sides_runs_sorted():
    # a parent whose runs fall into two groups shows the gap between them
    bimodal = [0.0083, 0.0074, 0.0085, 0.0082, 0.0075, 0.0084, 0.0083, 0.0074, 0.0082, 0.0084]
    summary = summarize(runs(bimodal), runs(FASTER), SPEC)["annulus_s"]
    assert summary["parent_runs"] == sorted(bimodal)
    assert summary["parent_runs"][2:4] == [0.0075, 0.0082]
    assert summary["change_runs"] == sorted(FASTER)


def test_code_digest_reads_src_and_perfbench_only(tmp_path):
    for name, text in (("src/a.py", "x = 1\n"), ("perfbench/run.py", "y = 2\n"), ("tests/t.py", "z\n")):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    first = code_digest(tmp_path)
    (tmp_path / "tests/t.py").write_text("changed\n")
    (tmp_path / "src/__pycache__").mkdir()
    (tmp_path / "src/__pycache__/a.pyc").write_bytes(b"cache")
    assert code_digest(tmp_path) == first
    (tmp_path / "src/a.py").write_text("x = 2\n")
    assert code_digest(tmp_path) != first


def test_session_spread_gathers_the_same_codes_medians():
    summary = summarize(runs(PARENT), runs(FASTER), SPEC)
    earlier = {
        "BENCH_1.json": {"digest": {"parent": "old", "change": "abc"},
                         "summary": {"verify": {"annulus_s": {"parent_median": 0.02, "change_median": 0.0125}}}},
        "BENCH_2.json": {"digest": {"parent": "abc", "change": "new"},
                         "summary": {"verify": {"annulus_s": {"parent_median": 0.0110, "change_median": 0.03}}}},
        "BENCH_0.json": {"summary": {"verify": {"annulus_s": {"parent_median": 0.05}}}},  # no digest
    }
    sessions = session_spread({"verify": summary}, "abc", earlier)
    spread = sessions["verify"]["annulus_s"]
    assert spread["medians"] == {
        "this session": pytest.approx(0.01185),
        "BENCH_1.json change": 0.0125,
        "BENCH_2.json parent": 0.0110,
    }
    assert spread["spread"] == pytest.approx(0.0125 / 0.0110 - 1)
    assert list(sessions["verify"]) == ["annulus_s"]  # no earlier record holds steps_per_s
    assert session_lines(sessions) == [
        "verify annulus_s: the parent's median spreads 13.6% over this session 0.01185, "
        "BENCH_1.json change 0.0125, BENCH_2.json parent 0.011"
    ]
    assert session_spread({"verify": summary}, "unseen", earlier) == {}
