"""CLI fuzz: mutated bundled tables never crash the CLI or leave files behind.

``cli.main`` runs in-process on Hypothesis-mutated copies of the bundled
tables (as CSV, as JSON mirrors, and as random bytes) for every command.
Each run must exit 0, 2, 3 or 4 with no exception escaping, and a run that
fails must leave ``--out`` absent or empty.  The permutation search runs at
most 2 GPUs and 7 jobs (a copied row that is also renamed; a plain copy is a
duplicate name), so each run stays fast.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import perf_charter as pc
from cli_helpers import json_mirror
from perf_charter import cli

# plausible numbers keep most tables valid, so the analyses run too; the edge
# cases sit at the limits of what ingestion and analysis accept
PLAUSIBLE = st.one_of(st.floats(0, 1e4), st.integers(0, 10**12))
EDGES = st.sampled_from([0, -1, 5e-324, 1e-300, 1e308, 10**308, 10**400, math.nan, math.inf])
CELLS = st.one_of(
    PLAUSIBLE.map(str), EDGES.map(str),
    st.sampled_from(["", " ", "-0", "3.0", "abc", "true", ",", '"', "\n", "\r"]),
    st.text(max_size=6),
)
JSON_VALUES = st.one_of(
    PLAUSIBLE, EDGES, st.none(), st.booleans(), st.text(max_size=6),
    st.lists(st.integers(), max_size=2), st.builds(dict),
)


def _csv_table(name: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(pc.sample_path(f"{name}.csv").read_text())))


TABLES = {
    name: (_csv_table(name), json.loads(json_mirror(name)))
    for name in ("profiles", "jobs", "kernels")
}


@st.composite
def _mutated_csv(draw, name):
    table = [list(row) for row in TABLES[name][0]]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(table) - 1))
        op = draw(st.sampled_from(["cell"] * 2 + ["edge"] * 4 + ["drop", "copy", "short"]))
        if op == "cell" and table[i]:
            table[i][draw(st.integers(0, len(table[i]) - 1))] = draw(CELLS)
        elif op == "edge" and len(table[i]) > 1:
            # the first column is the name; the others hold numbers
            table[i][draw(st.integers(1, len(table[i]) - 1))] = str(draw(EDGES))
        elif op == "drop" and len(table) > 1:
            del table[i]
        elif op == "copy":
            table.insert(i, list(table[i]))
        elif op == "short" and table[i]:
            table[i].pop()
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(table)
    return out.getvalue()


@st.composite
def _mutated_json(draw, name):
    entries = [dict(entry) for entry in TABLES[name][1]]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(entries) - 1))
        op = draw(st.sampled_from(
            ["value"] * 2 + ["edge"] * 4 + ["delete", "drop", "copy", "entry"]
        ))
        entry = entries[i]
        if op == "value" and type(entry) is dict:
            entry[draw(st.sampled_from(sorted(entry) + ["extra"]))] = draw(JSON_VALUES)
        elif op == "edge" and type(entry) is dict:
            numeric = sorted(set(entry) - {"name", "suite", "class"})
            if numeric:
                entry[draw(st.sampled_from(numeric))] = draw(EDGES)
        elif op == "delete" and type(entry) is dict and entry:
            del entry[draw(st.sampled_from(sorted(entry)))]
        elif op == "drop" and len(entries) > 1:
            del entries[i]
        elif op == "copy":
            entries.insert(i, dict(entry) if type(entry) is dict else entry)
        elif op == "entry":
            entries[i] = draw(JSON_VALUES)
    return json.dumps(entries)


@st.composite
def _inputs(draw, name):
    """(file suffix, content): a mutated CSV or JSON table, one cut short, or
    random bytes."""
    kind = draw(st.sampled_from(["csv"] * 4 + ["json"] * 4 + ["cut", "bytes"]))
    if kind == "bytes":
        return draw(st.sampled_from([".csv", ".json"])), draw(st.binary(max_size=64))
    suffix = "." + kind if kind != "cut" else draw(st.sampled_from([".csv", ".json"]))
    text = draw(_mutated_csv(name) if suffix == ".csv" else _mutated_json(name))
    if kind == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    return suffix, text


def _run(name, content, suffix, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        out = Path(tmp) / "out"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([argv[0], f"--{name}", str(path), *argv[1:], "--out", str(out)])
        assert code in (0, 2, 3, 4), sink.getvalue()
        if code != 0:
            assert not out.exists() or not any(out.iterdir()), sink.getvalue()


@settings(max_examples=200, deadline=None)
@given(_inputs("profiles"), st.sampled_from([
    ["--k", "4"], ["--k", "1"], ["--cut", "0.8", "--space", "pca:4", "--linkage", "single"],
]))
def test_characterize_fuzz(source, flags):
    suffix, content = source
    _run("profiles", content, suffix, ["characterize", *flags])


@settings(max_examples=600, deadline=None)
@given(_inputs("kernels"), st.sampled_from([[], ["--aggregate"], ["--transaction-bytes", "1"]]))
def test_roofline_fuzz(source, flags):
    suffix, content = source
    _run("kernels", content, suffix, ["roofline", *flags])


@settings(max_examples=150, deadline=None)
@given(_inputs("jobs"), st.sampled_from(["1", "2"]), st.sampled_from([
    ["--method", "heuristic"], ["--method", "exact"], ["--method", "permutation"],
]))
def test_schedule_fuzz(source, gpus, flags):
    suffix, content = source
    _run("jobs", content, suffix, ["schedule", "--gpus", gpus, *flags])
