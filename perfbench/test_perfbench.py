"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs as jobmod  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracemod  # noqa: E402


def test_generator_is_deterministic_for_a_seed():
    for workload in jobmod.WORKLOADS:
        first = [[(j.key, j.argv) for j in p] for p in jobmod.first_passes(workload, 7, 2)]
        again = [[(j.key, j.argv) for j in p] for p in jobmod.first_passes(workload, 7, 2)]
        other = [[(j.key, j.argv) for j in p] for p in jobmod.first_passes(workload, 8, 2)]
        assert first == again
        assert first != other
        assert first[0] != first[1]


def test_passes_keep_their_composition():
    for workload in jobmod.WORKLOADS:
        labels = [sorted(j.label for j in p) for p in jobmod.first_passes(workload, 3, 3)]
        assert labels[0] == labels[1] == labels[2]


def test_recurrences_match_the_readme_terms():
    assert oracles.plane_partition_counts(8) == [1, 1, 3, 6, 13, 24, 48, 86, 160]
    assert oracles.symmetric_plane_partition_counts(8) == [1, 1, 1, 2, 3, 4, 6, 8, 12]
    assert oracles.dt_complex_coeffs(6) == [1, -1, 3, -6, 13, -24, 48]
    assert oracles.dt_real_coeffs(3) == [(1, 0), (0, -1), (-1, 0), (0, 2)]


def test_square_classes_by_construction():
    a = oracles.Entry.of_factors(-1, {3: 3, 5: 2, 7: 1})
    assert a.value == -27 * 25 * 7
    assert a.rep("Q") == -21
    assert a.rep("R") == -1
    assert a.rep("F5") in (1, 2)
    assert oracles.render_gw(oracles.gw_terms([(a, 2), (oracles.Entry(1, {}), -1)], "Q")) \
        == "-<1> + 2*<-21>"


def test_zero_set_tests_reject_common_zeros():
    # x^2 - y^2 and x^2 - 2xy + y^2 share the line x = y
    assert not oracles.binary_forms_coprime({(2, 0): 1, (0, 2): -1},
                                            {(2, 0): 1, (1, 1): -2, (0, 2): 1}, 2)
    assert oracles.binary_forms_coprime({(2, 0): 1, (0, 2): 1}, {(1, 1): 1}, 2)
    fermat = [{(2, 0, 0): 1, (0, 2, 0): 1}, {(0, 2, 0): 1, (0, 0, 2): 1},
              {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}]
    assert oracles.ternary_forms_meet_only_at_origin(fermat, 2)
    # (1, i, 1) is a common zero of x^2 + y^2, y^2 + z^2 and x^2 + 2y^2 + z^2
    shared = fermat[:2] + [{(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 1}]
    assert not oracles.ternary_forms_meet_only_at_origin(shared, 2)


def test_self_time_on_a_synthetic_span_tree():
    tr = tracemod.Tracer()
    ids = tr.name_ids
    # dispatch [0, 10] > z_motivic [1, 9] > series.mul [2, 4] and [5, 8],
    # the second containing a nested series.mul [6, 7]
    spans = [("cli.dispatch", 0, 10, -1, True), ("dt.z_motivic", 1, 9, 0, True),
             ("series.mul", 2, 4, 1, True), ("series.mul", 5, 8, 1, True),
             ("series.mul", 6, 7, 3, False)]
    for name, start, end, parent, outer in spans:
        tr.names.append(ids[name])
        tr.starts.append(start)
        tr.ends.append(end)
        tr.parents.append(parent)
        tr.outermost.append(outer)
    m = tr.metrics()
    assert m["cli.dispatch.s"] == 10 and m["cli.dispatch.self_s"] == 2
    assert m["dt.z_motivic.s"] == 8 and m["dt.z_motivic.self_s"] == 3
    assert m["series.mul.calls"] == 3
    assert m["series.mul.s"] == 5  # the nested call is inside an outer one
    assert m["series.mul.self_s"] == 2 + 2 + 1
    assert m["groebner.buchberger.calls"] == 0


def test_tracer_rebinds_names_imported_elsewhere():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import arithdt.fields as fields
    import arithdt.gw as gw
    from arithdt import QQ, GwElement

    original = fields.squarefree_part
    tr = tracemod.Tracer()
    tr.install()
    try:
        assert gw.squarefree_part is fields.squarefree_part is not original
        GwElement.unit(QQ, 12) + GwElement.unit(QQ, 3)
        m = tr.metrics()
        assert m["fields.squarefree_part.calls"] >= 2
        assert m["gw.ring_ops.calls"] == 1
        assert m["fields.squarefree_part.max_bits"] == 4
    finally:
        tr.uninstall()
    assert gw.squarefree_part is fields.squarefree_part is original


def _smoke_jobs(workload, count=4):
    return jobmod.first_passes(workload, 0, 1)[0][:count]


def test_smoke_run_of_each_workload():
    src = run.find_source(ROOT)
    cmd, env, _ = run.launcher(ROOT, src)
    digests = run.load_digests()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        with run.Spawner(env, workdir) as spawner:
            for workload in jobmod.WORKLOADS:
                for job in _smoke_jobs(workload):
                    job.write_files(workdir)
                    _, cpu, rss, code, timed_out, stdout = spawner.run(cmd + job.resolved_argv(workdir))
                    assert run.judge(job, code, timed_out, stdout, digests) is None, job.label
                    assert cpu > 0 and rss > 0
                    assert job.key in digests
            assert spawner.run(["false"])[3] == 1
            assert spawner.run(["sleep", "5"], cap=0.5)[4] is True
        assert spawner.proc.returncode == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_wrong_answers_are_caught():
    job = _smoke_jobs("dt-series", 1)[0]
    good = {"series": {"ring": "Z", "order": 1, "coeffs": [1, 2]}}
    assert job.check(json.dumps(good)) is not None
    assert run.judge(job, 1, False, "", {}) == "exit code 1"
    assert "cap" in run.judge(job, -9, True, "", {})


def test_traced_replay_counts_repeat():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import arithdt.cli as cli

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    tr = tracemod.Tracer()
    try:
        jobs = [j for w in jobmod.WORKLOADS for j in _smoke_jobs(w, 2)]
        for job in jobs:
            job.write_files(workdir)
        tr.install()
        counts = []
        for _ in range(2):
            tr.reset()
            _, outcomes, _ = run.replay(cli.dispatch, jobs, workdir, [])
            assert all(code == 0 and job.check(text) is None for job, code, text in outcomes)
            counts.append(tr.deterministic())
        assert counts[0] == counts[1]
        assert counts[0]["cli.dispatch.calls"] == len(jobs)
    finally:
        tr.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def test_fails_without_the_program():
    bare = tempfile.mkdtemp()
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gw-ring", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
